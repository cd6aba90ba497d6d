"""The three-phase branch-and-bound optimizer (Sections 2.4 and 4).

Given a conjunctive query over registered services, find the fully
instantiated query plan minimizing the expected execution cost for the
first ``k`` answers under a chosen metric:

* **phase 1** enumerates permissible access-pattern sequences, most
  cogent first ("bound is better");
* **phase 2** explores plan topologies (partial orders of atoms),
  seeding the incumbent with the "selective" and "parallel" heuristic
  plans, and pruning partial constructions whose cost already exceeds
  the incumbent (cost metrics are monotonic in plan construction);
* **phase 3** assigns fetching factors to chunked services via the
  greedy heuristic, refined by dominance-pruned exhaustive
  exploration.

The phases are nested classes of plans, and each topology is bounded
before it is entered, by the metric's bound on its plan so far at all
factors 1 (:meth:`~repro.costs.base.CostMetric.bound`): a partial
topology, and a *complete* one — a class too, its fetching factors
still open — which, closed, is bounded once more by what phase 3 can
size it at (:meth:`~repro.optimizer.fetches.FetchContext.sized_bound`),
so phase 3 only sizes topologies that can still beat the incumbent.
A pattern sequence has no bound of its own: a node's work is
``F · calls · τ``, and ``calls`` falls below 1 downstream of a
selective node, so no single-call cost bounds a plan, while the open
plans of a sequence's one-atom states bound every plan it has.  A
search state is an *open plan* (:class:`~repro.plans.builder.OpenPlan`
plus its annotation program): the plan of the state it extends with
one more atom placed, never a plan rebuilt from scratch
(docs/ARCHITECTURE.md, "Search states are open plans").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from repro.costs.base import CostMetric
from repro.execution.cache import CacheSetting
from repro.execution.engine import check_count
from repro.model.query import ConjunctiveQuery
from repro.optimizer.branch_and_bound import Incumbent, SearchStats
from repro.optimizer.fetches import FetchContext, FetchResult, assign_fetches
from repro.optimizer.memo import (
    BoundKey, OpenState, PlanEntry, PlanMemo, bound_key, plan_key,
)
from repro.optimizer.patterns import (
    PatternPhaseResult, PatternSequence, select_patterns,
)
from repro.optimizer.topology import TopologyEnumerator, TopologyState, heuristic_posets
from repro.plans.annotate import AnnotationProgram, PlanAnnotation, annotate
from repro.plans.builder import PlanBuilder, Poset
from repro.plans.dag import PlanError, QueryPlan
from repro.services.registry import ServiceRegistry


@dataclass(frozen=True)
class OptimizerConfig:
    """What one optimization run is asked for: the first ``k`` answers
    under a cache setting."""

    k: int = 10
    cache_setting: CacheSetting = CacheSetting.ONE_CALL

    def __post_init__(self) -> None:
        check_count("k", self.k)


@dataclass(frozen=True)
class OptimizedPlan:
    """The outcome of an optimization run."""

    plan: QueryPlan
    annotation: PlanAnnotation
    cost: float
    metric_name: str
    patterns: PatternSequence
    poset: Poset
    fetches: dict[int, int]
    expected_answers: float
    stats: SearchStats

    def describe(self) -> str:
        """Short textual summary of the chosen plan."""
        from repro.plans.render import summarize

        return (
            f"cost={self.cost:g} ({self.metric_name}), "
            f"h={self.expected_answers:g}, plan: {summarize(self.plan)}"
        )


@dataclass(frozen=True)
class _Candidate:
    """What the three phases chose for one fully instantiated plan.

    The plan itself is built when the candidate leaves the optimizer
    (if it ever does): inside the search a topology lives as an open
    plan sharing its nodes with other states.
    """

    patterns: PatternSequence
    poset: Poset
    fetch_result: FetchResult


@dataclass
class _Run:
    """The state of one :meth:`Optimizer.optimize` call."""

    query: ConjunctiveQuery
    builder: PlanBuilder
    #: The empty search state, which every open plan is folded from.
    root: OpenState
    stats: SearchStats
    incumbent: Incumbent[_Candidate]
    #: Plans that cannot reach k answers are kept apart: a plan that
    #: stops short does less work and would otherwise always win on
    #: cost.  Read only when no plan at all reaches k.
    fallback: Incumbent[_Candidate]


class Optimizer:
    """Three-phase branch-and-bound plan optimizer."""

    def __init__(
        self,
        registry: ServiceRegistry,
        metric: CostMetric,
        config: OptimizerConfig | None = None,
    ) -> None:
        self._registry = registry
        self._metric = metric
        self._config = config or OptimizerConfig()
        # Persists across optimize() calls: under repeated traffic the
        # same query is re-optimized with unchanged profiles, and the
        # second run is answered almost entirely from the memo.
        self._memo: PlanMemo[_Candidate] = PlanMemo()

    def optimize(self, query: ConjunctiveQuery) -> OptimizedPlan:
        """Find the best plan for *query* under the configured metric."""
        config = self._config
        schema = self._registry.schema()
        query.validate_against(schema)
        phase1 = select_patterns(query, schema)
        if not phase1.permissible:
            raise PlanError(
                "no permissible sequence of access patterns: "
                "the query is not executable"
            )
        run = self._begin(query)
        stats = run.stats

        for patterns in self._sequences(phase1):
            stats.pattern_sequences_considered += 1
            self._seed_with_heuristics(run, patterns)
            self._search_topologies(run, patterns)

        chosen = run.incumbent if run.incumbent.is_set else run.fallback
        best = chosen.payload
        if best is None:
            raise PlanError("optimization failed to produce any executable plan")
        # Inside the search a topology shares its nodes with every state
        # it has a prefix in common with, and plans are mutable
        # (progressive execution grows fetches in place): the plan that
        # leaves is built here, on nodes of its own.
        plan = run.builder.build(
            best.patterns, best.poset, best.fetch_result.fetches
        )
        annotation = annotate(plan, config.cache_setting)
        stats.annotate_calls += 1
        stats.programs_compiled += 1
        return OptimizedPlan(
            plan=plan,
            annotation=annotation,
            cost=chosen.cost,
            metric_name=self._metric.name,
            patterns=best.patterns,
            poset=best.poset,
            fetches=dict(best.fetch_result.fetches),
            expected_answers=best.fetch_result.output_size,
            stats=stats,
        )

    # -- phase 2/3 machinery ----------------------------------------------

    def _sequences(self, phase1: PatternPhaseResult) -> tuple[PatternSequence, ...]:
        """The pattern sequences searched, most cogent first."""
        return phase1.ordered

    def _pruning(self, run: _Run) -> bool:
        """Whether a class bound may discard a state: once an incumbent
        is set."""
        return run.incumbent.is_set

    def _begin(self, query: ConjunctiveQuery) -> _Run:
        """A run over *query*: nothing decided, the memo kept when it
        was filled for this very query."""
        config = self._config
        self._memo.reset_for(query)
        builder = PlanBuilder(query, self._registry)
        start = builder.start()
        return _Run(
            query=query,
            builder=builder,
            root=OpenState(
                start, AnnotationProgram(start.plan, config.cache_setting)
            ),
            stats=SearchStats(),
            incumbent=Incumbent(),
            fallback=Incumbent(),
        )

    def _seed_with_heuristics(self, run: _Run, patterns: PatternSequence) -> None:
        """Evaluate the selective/parallel heuristic plans first.

        A good first choice is essential for building an effective
        upper bound (Section 4).
        """
        try:
            heuristics = heuristic_posets(run.query, patterns, self._registry)
        except ValueError:
            return
        for poset in heuristics.candidates():
            self._complete_and_offer(run, patterns, poset)

    def _search_topologies(self, run: _Run, patterns: PatternSequence) -> None:
        enumerator = TopologyEnumerator(run.query, patterns)
        stats = run.stats
        visited: set[TopologyState] = set()
        completed: set[frozenset] = set()
        stack: list[TopologyState] = [enumerator.initial_state]
        while stack:
            state = stack.pop()
            if state in visited:
                continue
            visited.add(state)
            stats.topology_states_explored += 1
            placed, closure = state
            if enumerator.is_complete(state):
                if closure in completed:
                    continue
                completed.add(closure)
                self._complete_and_offer(run, patterns, enumerator.poset_of(state))
                continue
            if self._pruning(run) and placed:
                key = bound_key(patterns, placed, closure)
                bound, _ = self._lower_bound(run, patterns, key)
                if run.incumbent.prunes(bound):
                    stats.topology_states_pruned += 1
                    continue
            stack.extend(enumerator.extensions(state))

    def _complete_and_offer(
        self, run: _Run, patterns: PatternSequence, poset: Poset
    ) -> None:
        """Size a complete topology (phase 3) and offer the result —
        unless it cannot beat the incumbent, or was sized before."""
        config = self._config
        stats = run.stats
        # With every atom placed, the state's key is the topology's.
        key = plan_key(patterns, poset.closure())
        state = None
        pruning = self._pruning(run)
        if pruning:
            # A topology with its fetching factors open is a class of
            # plans too, and no member costs less than the metric's
            # bound at factors 1: a topology that reaches the incumbent
            # there is discarded unsized — and never closed.  (A
            # feasible member would be refused by the incumbent, an
            # infeasible one only matters while there is no incumbent.)
            bound, state = self._lower_bound(run, patterns, key)
            if run.incumbent.prunes(bound):
                stats.topology_states_pruned += 1
                return
        entry = self._memo.lookup_plan(key)
        if entry is not None:
            stats.memo_plan_hits += 1
            if pruning and run.incumbent.prunes(entry.bound):
                stats.topology_states_pruned += 1
                return
            stats.plans_completed += 1
            self._offer_entry(run, entry)
            return
        stats.memo_plan_misses += 1
        if state is None:
            state = self._state(run, patterns, key)
        context = self._close(run, state)
        # Closed, the class is bounded by what phase 3 can size it at,
        # which sees the factors k needs: under Eq. 4 the bound at
        # factors 1 falls short of it.
        sized = context.sized_bound(config.k)
        if pruning and run.incumbent.prunes(sized):
            # Kept as the state's bound, so the state is pruned unclosed
            # wherever it is looked up again.
            state.bound, state.plan, state.program = sized, None, None
            stats.topology_states_pruned += 1
            stats.closed_pruned += 1
            return
        fetch_result = assign_fetches(context, config.k)
        stats.fetch_evaluations += 1
        stats.plans_completed += 1
        stats.fetch_vectors_evaluated += context.vectors_evaluated
        entry = PlanEntry(
            cost=fetch_result.cost,
            feasible=fetch_result.feasible,
            payload=_Candidate(patterns, poset, fetch_result),
            bound=sized,
        )
        self._memo.store_plan(key, entry)
        self._offer_entry(run, entry)

    def _offer_entry(self, run: _Run, entry: PlanEntry[_Candidate]) -> None:
        """Route a (possibly cached) evaluation to incumbent/fallback."""
        if not entry.feasible:
            run.fallback.offer(entry.cost, entry.payload)
        elif run.incumbent.offer(entry.cost, entry.payload):
            run.stats.incumbent_updates += 1

    def _lower_bound(
        self, run: _Run, patterns: PatternSequence, key: BoundKey
    ) -> tuple[float, OpenState | None]:
        """The metric's bound on the open plan of the state *key* names
        (:func:`~repro.optimizer.memo.bound_key`) at fetches 1.

        New atoms are only ever appended after the placed ones, so the
        estimates of the placed nodes never change in any completion,
        and :meth:`~repro.costs.base.CostMetric.bound` is a lower bound
        for every plan the state can become — every completion of a
        partial topology, every fetch vector of a complete one: the
        cost at factors 1 under every metric no growing factor lowers,
        less under Eq. 4.  It is read off the open plan (its nodes, the
        paths to its maximal branches, the all-ones columns its
        program holds): closing it would add only zero-cost joins and
        OUT, so the number is the closed plan's, with no
        ``close``, no closed program and no :class:`FetchContext`
        (:mod:`repro.costs.base`).  The bound is kept with the state,
        which is keyed on the placed atoms' patterns plus the closure,
        so states shared between pattern sequences are bounded only
        once.

        On a miss, a state that the bound of an *immediate sub-state*
        (one maximal atom unplaced,
        :meth:`~repro.optimizer.memo.PlanMemo.sub_state_bound`) already
        prunes is not built at all: that bound is its bound.  Every
        completion of the state completes the sub-state too, so the
        number still bounds them all, and as it is no higher than the
        state's own bound (bounds are monotonic in plan construction),
        that bound would have pruned the state as well — every decision is
        the one the exact bound makes.  The incumbent only falls, so the
        kept value prunes the state again wherever it is looked up.

        Also returns the state when the bound was computed on it
        (``None`` on a memo hit or an inherited bound); a pruned one has
        dropped its plan.
        """
        memo = self._memo
        state = memo.lookup_state(key)
        if state is not None and state.bound is not None:
            run.stats.memo_bound_hits += 1
            return state.bound, None
        run.stats.memo_bound_misses += 1
        # No sub-state can prune unless the largest bound held does
        # (a search that prunes nothing pays this comparison alone).
        if memo.top_bound >= run.incumbent.cost:
            bound = memo.sub_state_bound(key)
            if run.incumbent.prunes(bound):
                # Kept as the number alone, as a pruned state is; any
                # open plan a canonical parent left goes.
                run.stats.bounds_inherited += 1
                memo.store_state(key, OpenState(None, None, bound))
                return bound, None
        if state is None or state.plan is None:
            state = self._state(run, patterns, key)
        state.bound = bound = self._metric.bound(
            state.plan.plan, state.program.ones(), state.plan.paths
        )
        if bound > memo.top_bound:
            memo.top_bound = bound
        if run.incumbent.prunes(bound):
            # The search places nothing on a state it prunes, and a
            # search keeps hundreds of them: only the bound stays.
            # Should another state have this one as its canonical
            # parent, it is folded again.
            state.plan = state.program = None
        return bound, state

    def _close(self, run: _Run, state: OpenState) -> FetchContext:
        """A context evaluating fetch vectors on the closed plan of
        *state*; the plan's program extends the state's."""
        plan = run.builder.close(state.plan)
        run.stats.annotate_calls += 1
        return FetchContext(
            plan, self._metric, self._config.cache_setting,
            program=state.program.extended(plan),
        )

    def _state(
        self, run: _Run, patterns: PatternSequence, key: BoundKey
    ) -> OpenState:
        """The open plan of the search state *key* names, from the memo
        or by placing one atom on the open plan of its *canonical
        parent*.

        ``PlanBuilder.build`` visits atoms by (strict-predecessor
        count, index), and what a plan looks like depends on that
        order (node order, which node a predicate lands on, the order
        of Eq. 2's product).  The canonical parent is the state minus
        the atom that order visits last — always a maximal atom, so
        the rest is a state the enumerator could have reached — and
        not the state the search happened to come from: placing atoms
        in the search's order would build a different plan whenever
        the new atom is not the last one in build order.  The parent's
        key is the state's with that atom unplaced and its arcs gone.
        """
        state = self._memo.lookup_state(key)
        if state is not None and state.plan is not None:
            return state
        codes, closure = key
        placed = [i for i, code in enumerate(codes) if code is not None]
        if not placed:
            return run.root
        below = dict.fromkeys(placed, 0)
        for _, j in closure:
            below[j] += 1
        # The most strict predecessors, the highest index among equals.
        last = max(reversed(placed), key=below.__getitem__)
        ancestors = {i for i, j in closure if j == last}
        parent = self._state(run, patterns, (
            codes[:last] + (None,) + codes[last + 1:],
            closure.difference(zip(ancestors, repeat(last))),
        ))
        # The ancestors no other ancestor comes after.
        direct = ancestors.difference([i for i, j in closure if j in ancestors])
        plan = run.builder.place(parent.plan, last, patterns[last], direct)
        run.stats.atoms_placed += 1
        program = parent.program.extended(plan.plan)
        if state is not None:
            state.plan, state.program = plan, program  # dropped when pruned
        else:
            state = OpenState(plan, program)
            self._memo.store_state(key, state)
        return state

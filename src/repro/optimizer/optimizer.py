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
  greedy or square heuristic, refined by dominance-pruned exhaustive
  exploration.

The phases are nested classes of plans and each is bounded before it
is entered: a pattern sequence by its services' single-call costs, a
partial topology by the cost of its plan so far, and a *complete*
topology — a class too, its fetching factors still open — by its cost
at all factors 1, so phase 3 only sizes topologies that can still beat
the incumbent.  A search state is an *open plan*
(:class:`~repro.plans.builder.OpenPlan` plus its annotation program):
the plan of the state it extends with one more atom placed, never a
plan rebuilt from scratch (docs/ARCHITECTURE.md, "Search states are
open plans").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from repro.costs.base import CostMetric
from repro.execution.cache import CacheSetting
from repro.model.predicates import Comparison
from repro.model.query import ConjunctiveQuery
from repro.optimizer.branch_and_bound import Incumbent, SearchStats
from repro.optimizer.fetches import FetchContext, FetchResult, assign_fetches
from repro.optimizer.memo import OpenState, PlanEntry, PlanMemo, bound_key, plan_key
from repro.optimizer.patterns import PatternSequence, select_patterns
from repro.optimizer.topology import TopologyEnumerator, TopologyState, heuristic_posets
from repro.plans.annotate import AnnotationProgram, PlanAnnotation, annotate
from repro.plans.builder import PlanBuilder, Poset
from repro.plans.dag import PlanError, QueryPlan
from repro.services.registry import ServiceRegistry


@dataclass(frozen=True)
class OptimizerConfig:
    """Tuning knobs for one optimization run."""

    k: int = 10
    cache_setting: CacheSetting = CacheSetting.ONE_CALL
    fetch_heuristic: str = "greedy"
    most_cogent_only: bool = False
    prune: bool = True
    memoize: bool = True

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.fetch_heuristic not in {"greedy", "square"}:
            raise ValueError(f"unknown fetch heuristic {self.fetch_heuristic!r}")


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
    #: Where search states and evaluated topologies are kept; ``None``
    #: when memoization is off (every state is then folded from the
    #: root, every topology evaluated again).
    memo: PlanMemo[_Candidate] | None
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

    @property
    def config(self) -> OptimizerConfig:
        """The active configuration."""
        return self._config

    @property
    def memo(self) -> PlanMemo[_Candidate]:
        """The search memo (introspection for tests and benchmarks)."""
        return self._memo

    def clear_memo(self) -> None:
        """Invalidate cached search results (e.g. profiles changed)."""
        self._memo.clear()

    def state_contexts(
        self,
        query: ConjunctiveQuery,
        states: Iterable[
            tuple[PatternSequence, frozenset[int], frozenset[tuple[int, int]]]
        ],
    ) -> Iterator[FetchContext]:
        """Topology states as the search sees them (introspection for
        tests and benchmarks): per ``(patterns, placed atoms, closure)``
        of *states* the state's plan closed as it stands, reached the
        way the search reaches it — the open plan of its canonical
        parent plus one atom, out of the memo where it is there.
        ``context.cost({})`` is the state's lower bound.
        """
        run = self._begin(query)
        for patterns, placed, closure in states:
            yield self._close(run, self._state(run, patterns, placed, closure))

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
        sequences = phase1.most_cogent if config.most_cogent_only else phase1.ordered
        run = self._begin(query)
        stats = run.stats

        for patterns in sequences:
            stats.pattern_sequences_considered += 1
            if config.prune and run.incumbent.is_set:
                bound = self._pattern_lower_bound(query, patterns)
                if run.incumbent.prunes(bound):
                    stats.pattern_sequences_pruned += 1
                    continue
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

    def _begin(self, query: ConjunctiveQuery) -> _Run:
        """A run over *query*: nothing decided, the memo kept when it
        was filled for this very query."""
        config = self._config
        if config.memoize:
            self._memo.reset_for(query)
        builder = PlanBuilder(query, self._registry)
        start = builder.start()
        return _Run(
            query=query,
            builder=builder,
            root=OpenState(
                start, AnnotationProgram(start.plan, config.cache_setting)
            ),
            memo=self._memo if config.memoize else None,
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
            if enumerator.is_complete(state):
                _, closure = state
                if closure in completed:
                    continue
                completed.add(closure)
                self._complete_and_offer(run, patterns, enumerator.poset_of(state))
                continue
            if self._config.prune and run.incumbent.is_set and state[0]:
                bound, _ = self._lower_bound(run, patterns, *state)
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
        closure = poset.closure()
        placed = frozenset(range(poset.n))
        context = None
        if config.prune and run.incumbent.is_set:
            # A topology with its fetching factors open is a class of
            # plans too, and no member costs less than the one with
            # every factor at 1: a topology that reaches the incumbent
            # there is discarded unsized.  (A feasible member would be
            # refused by the incumbent, an infeasible one only matters
            # while there is no incumbent.)
            bound, context = self._lower_bound(run, patterns, placed, closure)
            if run.incumbent.prunes(bound):
                stats.topology_states_pruned += 1
                return
        key = None
        if run.memo is not None:
            key = plan_key(patterns, closure)
            entry = run.memo.lookup_plan(key)
            if entry is not None:
                stats.memo_plan_hits += 1
                stats.plans_completed += 1
                self._offer_entry(run, entry)
                return
            stats.memo_plan_misses += 1
        if context is None:
            context = self._close(run, self._state(run, patterns, placed, closure))
        # Phase 3 continues on the context the bound was computed on:
        # all-ones, its first vector, is already evaluated.
        fetch_result = assign_fetches(
            context, config.k, heuristic=config.fetch_heuristic
        )
        stats.fetch_evaluations += 1
        stats.plans_completed += 1
        stats.fetch_vectors_evaluated += context.vectors_evaluated
        entry = PlanEntry(
            cost=fetch_result.cost,
            feasible=fetch_result.feasible,
            payload=_Candidate(patterns, poset, fetch_result),
        )
        if key is not None:
            run.memo.store_plan(key, entry)
        self._offer_entry(run, entry)

    def _offer_entry(self, run: _Run, entry: PlanEntry[_Candidate]) -> None:
        """Route a (possibly cached) evaluation to incumbent/fallback."""
        if not entry.feasible:
            run.fallback.offer(entry.cost, entry.payload)
        elif run.incumbent.offer(entry.cost, entry.payload):
            run.stats.incumbent_updates += 1

    def _lower_bound(
        self,
        run: _Run,
        patterns: PatternSequence,
        placed: frozenset[int],
        closure: frozenset[tuple[int, int]],
    ) -> tuple[float, FetchContext | None]:
        """Cost of the state's plan, closed as it stands, at fetches 1.

        New atoms are only ever appended after the placed ones, so the
        estimates of the placed nodes never change in any completion,
        and no metric decreases when a factor grows: the cost is a
        valid lower bound for every plan the state can become —
        every completion of a partial topology, every fetch vector of
        a complete one.  The bound is kept with the state, which is
        keyed on the placed atoms' patterns plus the closure, so
        states shared between pattern sequences are bounded only once.

        Also returns the :class:`FetchContext` of the closed plan when
        the bound had to be computed on one (``None`` on a memo hit).
        """
        state = None
        if run.memo is not None:
            state = run.memo.lookup_state(bound_key(patterns, placed, closure))
            if state is not None and state.bound is not None:
                run.stats.memo_bound_hits += 1
                return state.bound, None
            run.stats.memo_bound_misses += 1
        if state is None or state.plan is None:
            state = self._state(run, patterns, placed, closure)
        context = self._close(run, state)
        state.bound = context.cost({})
        if run.incumbent.prunes(state.bound):
            # The search places nothing on a state it prunes, and a
            # search keeps hundreds of them: only the bound stays.
            # Should another state have this one as its canonical
            # parent, it is folded again.
            state.plan = state.program = None
        return state.bound, context

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
        self,
        run: _Run,
        patterns: PatternSequence,
        placed: frozenset[int],
        closure: frozenset[tuple[int, int]],
    ) -> OpenState:
        """The open plan of a search state, from the memo or by placing
        one atom on the open plan of its *canonical parent*.

        ``PlanBuilder.build`` visits atoms by (strict-predecessor
        count, index), and what a plan looks like depends on that
        order (node order, which node a predicate lands on, the order
        of Eq. 2's product).  The canonical parent is the state minus
        the atom that order visits last — always a maximal atom, so
        the rest is a state the enumerator could have reached — and
        not the state the search happened to come from: placing atoms
        in the search's order would build a different plan whenever
        the new atom is not the last one in build order.
        """
        if not placed:
            return run.root
        key = state = None
        if run.memo is not None:
            key = bound_key(patterns, placed, closure)
            state = run.memo.lookup_state(key)
            if state is not None and state.plan is not None:
                return state
        below = dict.fromkeys(placed, 0)
        for _, j in closure:
            below[j] += 1
        last = max(placed, key=lambda i: (below[i], i))
        ancestors = [i for i, j in closure if j == last]
        parent = self._state(
            run, patterns, placed - {last},
            closure.difference([(i, last) for i in ancestors]),
        )
        direct = [
            p for p in ancestors
            if not any((p, q) in closure for q in ancestors)
        ]
        plan = run.builder.place(parent.plan, last, patterns[last], direct)
        run.stats.atoms_placed += 1
        program = parent.program.extended(plan.plan)
        if state is not None:
            state.plan, state.program = plan, program  # dropped when pruned
        else:
            state = OpenState(plan, program)
            if key is not None:
                run.memo.store_state(key, state)
        return state

    def _pattern_lower_bound(
        self, query: ConjunctiveQuery, patterns: PatternSequence
    ) -> float:
        """A cheap, optimistic bound for a whole pattern sequence.

        Every service must be invoked at least once; under the most
        favorable assumptions the plan costs at least the largest
        single response time (time metrics) or the sum of single-call
        costs (sum metrics) — of the profiles the sequence's patterns
        select, which are the ones its plans are costed with.
        """
        profiles = [
            self._registry.profile(atom.service, pattern.code)
            for atom, pattern in zip(query.atoms, patterns)
        ]
        name = self._metric.name
        if name in {"execution-time", "bottleneck", "time-to-screen"}:
            return max((p.response_time for p in profiles), default=0.0)
        return sum(p.cost_per_call for p in profiles)


def optimize_query(
    query: ConjunctiveQuery,
    registry: ServiceRegistry,
    metric: CostMetric,
    k: int = 10,
    cache_setting: CacheSetting = CacheSetting.ONE_CALL,
    **overrides: object,
) -> OptimizedPlan:
    """One-call convenience wrapper around :class:`Optimizer`."""
    config = OptimizerConfig(k=k, cache_setting=cache_setting)
    if overrides:
        config = replace(config, **overrides)  # type: ignore[arg-type]
    return Optimizer(registry, metric, config).optimize(query)


def residual_predicates(query: ConjunctiveQuery, plan: QueryPlan) -> tuple[Comparison, ...]:
    """Predicates evaluated only at the plan output (for diagnostics)."""
    return plan.output_node.residual_predicates

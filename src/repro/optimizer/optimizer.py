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
  greedy or square heuristic, optionally refined by dominance-pruned
  exhaustive exploration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.costs.base import CostMetric
from repro.execution.cache import CacheSetting
from repro.model.predicates import Comparison
from repro.model.query import ConjunctiveQuery
from repro.optimizer.branch_and_bound import Incumbent, SearchStats
from repro.optimizer.fetches import FetchContext, FetchResult, assign_fetches
from repro.optimizer.memo import MISSING, PlanEntry, PlanMemo, bound_key, plan_key
from repro.optimizer.patterns import PatternSequence, select_patterns
from repro.optimizer.topology import TopologyEnumerator, TopologyState, heuristic_posets
from repro.plans.annotate import PlanAnnotation, annotate
from repro.plans.builder import PlanBuilder, Poset
from repro.plans.dag import PlanError, QueryPlan
from repro.services.registry import ServiceRegistry


@dataclass(frozen=True)
class OptimizerConfig:
    """Tuning knobs for one optimization run."""

    k: int = 10
    cache_setting: CacheSetting = CacheSetting.ONE_CALL
    fetch_heuristic: str = "greedy"
    explore_fetches: bool = True
    most_cogent_only: bool = False
    prune: bool = True
    max_topologies_per_sequence: int | None = None
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
    """A fully instantiated plan candidate inside the search."""

    plan: QueryPlan
    annotation: PlanAnnotation
    patterns: PatternSequence
    poset: Poset
    fetch_result: FetchResult


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

    def optimize(self, query: ConjunctiveQuery) -> OptimizedPlan:
        """Find the best plan for *query* under the configured metric."""
        config = self._config
        if config.memoize:
            self._memo.reset_for(query)
        schema = self._registry.schema()
        query.validate_against(schema)
        phase1 = select_patterns(query, schema)
        if not phase1.permissible:
            raise PlanError(
                "no permissible sequence of access patterns: "
                "the query is not executable"
            )
        sequences = phase1.most_cogent if config.most_cogent_only else phase1.ordered
        stats = SearchStats()
        incumbent: Incumbent[_Candidate] = Incumbent()
        # Plans that cannot reach k answers are kept apart: a plan that
        # stops short does less work and would otherwise always win on
        # cost.  They are only used when no plan at all reaches k.
        fallback: Incumbent[_Candidate] = Incumbent()
        self._fallback = fallback
        builder = PlanBuilder(query, self._registry)

        for patterns in sequences:
            stats.pattern_sequences_considered += 1
            if config.prune and incumbent.is_set:
                bound = self._pattern_lower_bound(query, patterns)
                if incumbent.prunes(bound):
                    stats.pattern_sequences_pruned += 1
                    continue
            self._seed_with_heuristics(
                query, builder, patterns, incumbent, stats
            )
            self._search_topologies(
                query, builder, patterns, incumbent, stats
            )

        chosen = incumbent if incumbent.is_set else fallback
        best = chosen.payload
        if best is None:
            raise PlanError("optimization failed to produce any executable plan")
        if config.memoize:
            # The winning candidate's plan object also lives in the memo
            # (and may have been handed to an earlier caller): give this
            # caller an exclusive copy so nobody mutates anyone else's
            # plan (progressive execution grows fetches in place).
            best = self._materialize(builder, best, stats)
        return OptimizedPlan(
            plan=best.plan,
            annotation=best.annotation,
            cost=chosen.cost,
            metric_name=self._metric.name,
            patterns=best.patterns,
            poset=best.poset,
            fetches=dict(best.fetch_result.fetches),
            expected_answers=best.fetch_result.output_size,
            stats=stats,
        )

    # -- phase 2/3 machinery ----------------------------------------------

    def _seed_with_heuristics(
        self,
        query: ConjunctiveQuery,
        builder: PlanBuilder,
        patterns: PatternSequence,
        incumbent: Incumbent[_Candidate],
        stats: SearchStats,
    ) -> None:
        """Evaluate the selective/parallel heuristic plans first.

        A good first choice is essential for building an effective
        upper bound (Section 4).
        """
        try:
            heuristics = heuristic_posets(query, patterns, self._registry)
        except ValueError:
            return
        for poset in heuristics.candidates():
            self._complete_and_offer(
                query, builder, patterns, poset, incumbent, stats
            )

    def _search_topologies(
        self,
        query: ConjunctiveQuery,
        builder: PlanBuilder,
        patterns: PatternSequence,
        incumbent: Incumbent[_Candidate],
        stats: SearchStats,
    ) -> None:
        enumerator = TopologyEnumerator(query, patterns)
        visited: set[TopologyState] = set()
        completed: set[frozenset] = set()
        stack: list[TopologyState] = [enumerator.initial_state]
        budget = self._config.max_topologies_per_sequence
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
                if budget is not None and len(completed) > budget:
                    return
                self._complete_and_offer(
                    query,
                    builder,
                    patterns,
                    enumerator.poset_of(state),
                    incumbent,
                    stats,
                )
                continue
            if self._config.prune and incumbent.is_set and state[0]:
                bound = self._partial_lower_bound(query, patterns, state, stats)
                if bound is not None and incumbent.prunes(bound):
                    stats.topology_states_pruned += 1
                    continue
            stack.extend(enumerator.extensions(state))

    def _complete_and_offer(
        self,
        query: ConjunctiveQuery,
        builder: PlanBuilder,
        patterns: PatternSequence,
        poset: Poset,
        incumbent: Incumbent[_Candidate],
        stats: SearchStats,
    ) -> None:
        config = self._config
        key = None
        if config.memoize:
            key = plan_key(patterns, poset.closure())
            entry = self._memo.lookup_plan(key)
            if entry is not None:
                stats.memo_plan_hits += 1
                if entry.payload is None:
                    return  # cached PlanError: topology cannot be built
                stats.plans_completed += 1
                self._offer_entry(entry, incumbent, stats)
                return
            stats.memo_plan_misses += 1
        try:
            plan = builder.build(patterns, poset)
        except PlanError:
            if key is not None:
                self._memo.store_plan(
                    key, PlanEntry(cost=float("inf"), feasible=False, payload=None)
                )
            return
        context = FetchContext(plan, self._metric, config.cache_setting)
        stats.programs_compiled += 1
        fetch_result = assign_fetches(
            context,
            config.k,
            heuristic=config.fetch_heuristic,
            explore=config.explore_fetches,
        )
        stats.fetch_evaluations += 1
        stats.plans_completed += 1
        # The chosen vector was evaluated by phase 3: its annotation and
        # cost come out of the context's memo, the plan gets its factors.
        context.apply(fetch_result.fetches)
        annotation = context.annotate(fetch_result.fetches)
        stats.annotate_calls += 1
        stats.fetch_vectors_evaluated += context.vectors_evaluated
        cost = fetch_result.cost
        candidate = _Candidate(
            plan=plan,
            annotation=annotation,
            patterns=patterns,
            poset=poset,
            fetch_result=fetch_result,
        )
        entry = PlanEntry(
            cost=cost, feasible=fetch_result.feasible, payload=candidate
        )
        if key is not None:
            self._memo.store_plan(key, entry)
        self._offer_entry(entry, incumbent, stats)

    def _offer_entry(
        self,
        entry: PlanEntry[_Candidate],
        incumbent: Incumbent[_Candidate],
        stats: SearchStats,
    ) -> None:
        """Route a (possibly cached) evaluation to incumbent/fallback."""
        if not entry.feasible:
            self._fallback.offer(entry.cost, entry.payload)
            return
        if incumbent.offer(entry.cost, entry.payload):
            stats.incumbent_updates += 1

    def _materialize(
        self, builder: PlanBuilder, candidate: _Candidate, stats: SearchStats
    ) -> _Candidate:
        """Rebuild the winning candidate on a fresh plan object.

        Cached candidates are shared between the memo and every caller
        that ever received them; plans are mutable (fetching factors
        grow during progressive execution), so the returned plan must
        be this caller's own.  Rebuilding from the candidate's
        patterns, poset, and fetch vector is deterministic and costs a
        single build + annotate — negligible against the search.
        """
        plan = builder.build(
            candidate.patterns, candidate.poset, candidate.fetch_result.fetches
        )
        annotation = annotate(plan, self._config.cache_setting)
        stats.annotate_calls += 1
        stats.programs_compiled += 1
        return replace(candidate, plan=plan, annotation=annotation)

    def _partial_lower_bound(
        self,
        query: ConjunctiveQuery,
        patterns: PatternSequence,
        state: TopologyState,
        stats: SearchStats,
    ) -> float | None:
        """Cost of the partially constructed plan (fetches at 1).

        New atoms are only ever appended after the placed ones, so the
        estimates of the placed nodes never change in any completion:
        the partial cost is a valid lower bound.  Results are memoized
        on the placed atoms' patterns plus the closure, so states
        shared between pattern sequences are bounded only once.
        """
        placed, closure = state
        key = None
        if self._config.memoize:
            key = bound_key(patterns, placed, closure)
            cached = self._memo.lookup_bound(key)
            if cached is not MISSING:
                stats.memo_bound_hits += 1
                return cached  # type: ignore[return-value]
            stats.memo_bound_misses += 1
        value = self._compute_partial_bound(query, patterns, state, stats)
        if key is not None:
            self._memo.store_bound(key, value)
        return value

    def _compute_partial_bound(
        self,
        query: ConjunctiveQuery,
        patterns: PatternSequence,
        state: TopologyState,
        stats: SearchStats,
    ) -> float | None:
        placed, closure = state
        indices = sorted(placed)
        mapping = {atom: position for position, atom in enumerate(indices)}
        sub_atoms = tuple(query.atoms[i] for i in indices)
        sub_variables: set = set()
        for atom in sub_atoms:
            sub_variables |= atom.variable_set
        sub_predicates = tuple(
            p for p in query.predicates if p.variables <= frozenset(sub_variables)
        )
        sub_query = ConjunctiveQuery(
            name=query.name,
            head=(),
            atoms=sub_atoms,
            predicates=sub_predicates,
        )
        sub_patterns = tuple(patterns[i] for i in indices)
        sub_pairs = frozenset(
            (mapping[i], mapping[j]) for i, j in closure
        )
        sub_poset = Poset(n=len(indices), pairs=sub_pairs)
        try:
            plan = PlanBuilder(sub_query, self._registry).build(
                sub_patterns, sub_poset
            )
        except PlanError:
            return None
        annotation = annotate(plan, self._config.cache_setting)
        stats.annotate_calls += 1
        stats.programs_compiled += 1
        return self._metric.cost(plan, annotation)

    def _pattern_lower_bound(
        self, query: ConjunctiveQuery, patterns: PatternSequence
    ) -> float:
        """A cheap, optimistic bound for a whole pattern sequence.

        Every service must be invoked at least once; under the most
        favorable assumptions the plan costs at least the largest
        single response time (time metrics) or the sum of single-call
        costs (sum metrics).
        """
        profiles = [
            self._registry.profile(atom.service) for atom in query.atoms
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

"""Exhaustive plan enumeration: the optimality oracle for the B&B.

Enumerates *every* permissible pattern sequence, *every* callable
topology, and performs the full dominance-pruned fetch exploration for
each, with no pruning of partial constructions.  On small queries this
establishes the true optimum, which the branch-and-bound optimizer must
match while exploring (weakly) fewer states — the property checked by
the ablation benchmarks.
"""

from __future__ import annotations

from repro.costs.base import CostMetric
from repro.execution.cache import CacheSetting
from repro.model.query import ConjunctiveQuery
from repro.optimizer.branch_and_bound import SearchStats
from repro.optimizer.fetches import FetchContext, exhaustive_assignment
from repro.optimizer.optimizer import OptimizedPlan
from repro.optimizer.patterns import permissible_sequences
from repro.optimizer.topology import TopologyEnumerator
from repro.plans.builder import PlanBuilder
from repro.plans.dag import PlanError
from repro.services.registry import ServiceRegistry


def exhaustive_optimize(
    query: ConjunctiveQuery,
    registry: ServiceRegistry,
    metric: CostMetric,
    k: int = 10,
    cache_setting: CacheSetting = CacheSetting.ONE_CALL,
) -> OptimizedPlan:
    """Return the globally optimal plan by brute force."""
    schema = registry.schema()
    query.validate_against(schema)
    sequences = permissible_sequences(query, schema)
    if not sequences:
        raise PlanError("no permissible sequence of access patterns")
    stats = SearchStats()
    builder = PlanBuilder(query, registry)
    # Same policy as the branch-and-bound optimizer: plans that cannot
    # reach k answers do less work and would otherwise win on cost, so
    # they only serve as a fallback.
    best: OptimizedPlan | None = None
    fallback: OptimizedPlan | None = None
    for patterns in sequences:
        stats.pattern_sequences_considered += 1
        enumerator = TopologyEnumerator(query, patterns)
        for poset in enumerator.all_posets():
            stats.topology_states_explored += 1
            try:
                plan = builder.build(patterns, poset)
            except PlanError:
                continue
            context = FetchContext(plan, metric, cache_setting)
            fetch_result = exhaustive_assignment(context, k)
            stats.fetch_evaluations += 1
            stats.plans_completed += 1
            context.apply(fetch_result.fetches)
            annotation = context.annotate(fetch_result.fetches)
            cost = fetch_result.cost
            candidate = OptimizedPlan(
                plan=plan,
                annotation=annotation,
                cost=cost,
                metric_name=metric.name,
                patterns=patterns,
                poset=poset,
                fetches=dict(fetch_result.fetches),
                expected_answers=fetch_result.output_size,
                stats=stats,
            )
            if fetch_result.feasible:
                if best is None or cost < best.cost:
                    stats.incumbent_updates += 1
                    best = candidate
            elif fallback is None or cost < fallback.cost:
                fallback = candidate
    chosen = best if best is not None else fallback
    if chosen is None:
        raise PlanError("no executable plan found")
    return chosen

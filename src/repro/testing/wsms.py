"""The WSMS baseline of Srivastava et al. (VLDB 2006, ref. [16]).

The Web Service Management System optimizer is the direct predecessor
of the paper.  Its model is strictly simpler:

* all services are *exact* (no ranking) and *bulk* (no chunking);
* plans are *pipelined*: data flows through an arrangement of services
  and the relevant measure is the **bottleneck cost metric** — the
  per-tuple processing rate of the slowest service;
* every input attribute of a service is fed by exactly one other
  service or by the user's input.

For selective, access-unconstrained services, their main theorem shows
the optimal arrangement orders services by increasing
``cost-adjusted selectivity``; in the presence of access limitations
(our setting) we retain their greedy chain ordered by increasing erspi,
which the paper cites as optimal "in absence of access limitations"
(Section 4.2.1), plus a small exhaustive variant over chains.

The baseline deliberately ignores chunking and ranking: benchmarks use
it to show what the paper's contribution adds for search services.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from repro.costs.time_cost import BottleneckMetric
from repro.execution.cache import CacheSetting
from repro.model.query import ConjunctiveQuery
from repro.optimizer.patterns import PatternSequence, permissible_sequences
from repro.optimizer.topology import atom_callable_after
from repro.plans.annotate import PlanAnnotation, annotate
from repro.plans.builder import PlanBuilder, Poset, chain_poset
from repro.plans.dag import PlanError, QueryPlan
from repro.services.registry import ServiceRegistry


@dataclass(frozen=True)
class WsmsPlan:
    """A pipelined chain plan chosen by the WSMS baseline."""

    plan: QueryPlan
    annotation: PlanAnnotation
    cost: float
    order: tuple[int, ...]
    patterns: PatternSequence


def _chain_orders(
    query: ConjunctiveQuery, patterns: PatternSequence
) -> list[tuple[int, ...]]:
    """All callable total orders of the atoms (chains)."""
    n = len(query.atoms)
    valid = []
    for order in permutations(range(n)):
        prefix: set[int] = set()
        feasible = True
        for index in order:
            if not atom_callable_after(query, patterns, index, frozenset(prefix)):
                feasible = False
                break
            prefix.add(index)
        if feasible:
            valid.append(order)
    return valid


def greedy_selectivity_order(
    query: ConjunctiveQuery,
    patterns: PatternSequence,
    registry: ServiceRegistry,
) -> tuple[int, ...]:
    """Chain by increasing erspi among callable atoms (WSMS greedy)."""
    n = len(query.atoms)
    order: list[int] = []
    remaining = set(range(n))
    while remaining:
        callable_now = [
            i for i in sorted(remaining)
            if atom_callable_after(query, patterns, i, frozenset(order))
        ]
        if not callable_now:
            raise PlanError("pattern sequence is not permissible")
        chosen = min(
            callable_now,
            key=lambda i: (
                registry.profile(query.atoms[i].service, patterns[i].code).erspi,
                i,
            ),
        )
        order.append(chosen)
        remaining.discard(chosen)
    return tuple(order)


def wsms_optimize(
    query: ConjunctiveQuery,
    registry: ServiceRegistry,
    cache_setting: CacheSetting = CacheSetting.NO_CACHE,
    exhaustive_chains: bool = True,
) -> WsmsPlan:
    """Pick the best pipelined chain under the bottleneck metric.

    ``exhaustive_chains=False`` keeps only the greedy erspi ordering
    (the configuration whose optimality [16] proves in the
    unconstrained case); otherwise all callable chains are compared.
    """
    schema = registry.schema()
    query.validate_against(schema)
    metric = BottleneckMetric()
    builder = PlanBuilder(query, registry)
    best: WsmsPlan | None = None
    for patterns in permissible_sequences(query, schema):
        if exhaustive_chains:
            orders = _chain_orders(query, patterns)
        else:
            orders = [greedy_selectivity_order(query, patterns, registry)]
        for order in orders:
            poset = chain_poset(len(query.atoms), order)
            try:
                plan = builder.build(patterns, poset)
            except PlanError:
                continue
            annotation = annotate(plan, cache_setting)
            cost = metric.cost(plan, annotation)
            if best is None or cost < best.cost:
                best = WsmsPlan(
                    plan=plan,
                    annotation=annotation,
                    cost=cost,
                    order=order,
                    patterns=patterns,
                )
    if best is None:
        raise PlanError("WSMS baseline found no executable chain")
    return best


def wsms_poset(query: ConjunctiveQuery, order: tuple[int, ...]) -> Poset:
    """The chain poset for a WSMS ordering (exposed for benchmarks)."""
    return chain_poset(len(query.atoms), order)

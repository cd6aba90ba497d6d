"""Sum cost metrics (Section 2.3 and Eq. 3 in Section 5.3).

The sum cost metric computes the cost of a plan as the sum of the
costs incurred by each service invocation::

    SCM(G) = sum over nodes n of  m(n) · t_in(n)

where ``m(n)`` is the individual cost of one invocation of the service
at ``n`` and ``t_in(n)`` is the (cache-aware) number of required
invocations.  Chunked services pay once per *fetch*, i.e. ``F_n`` times
per invocation.

The *request–response* metric is the special case ``m(n) = 1``: it
counts the number of service calls, which is the relevant measure when
data transfer over the network dominates.
"""

from __future__ import annotations

from repro.costs.base import CostMetric
from repro.plans.annotate import PlanAnnotation
from repro.plans.dag import QueryPlan


class SumCostMetric(CostMetric):
    """Eq. 3: sum of per-invocation costs, weighted by call counts.

    ``include_join_cost`` adds, for each parallel join, its registered
    per-candidate-tuple cost multiplied by the number of candidate
    pairs; the paper mentions join computation as an example of an
    operator cost contributing to the sum.
    """

    name = "sum-cost"

    def __init__(self, include_join_cost: bool = True) -> None:
        self._include_join_cost = include_join_cost

    def cost(self, plan: QueryPlan, annotation: PlanAnnotation) -> float:
        total = 0.0
        for node in plan.service_nodes:
            assert node.profile is not None
            per_call = node.profile.cost_per_call
            total += per_call * annotation.calls(node) * annotation.fetches(node)
        if self._include_join_cost:
            for join in plan.join_nodes:
                total += join.cost_per_tuple * annotation.tuples_in(join)
        return total


class RequestResponseMetric(CostMetric):
    """Counts the number of service requests (m(n) = 1, joins free)."""

    name = "request-response"

    def __init__(self, count_fetches: bool = True) -> None:
        """When *count_fetches* is False, count input settings instead
        of individual page fetches (useful to compare against call
        counters that treat one paged interaction as one call)."""
        self._count_fetches = count_fetches

    def cost(self, plan: QueryPlan, annotation: PlanAnnotation) -> float:
        total = 0.0
        for node in plan.service_nodes:
            fetches = annotation.fetches(node) if self._count_fetches else 1
            total += annotation.calls(node) * fetches
        return total


class MonetaryCostMetric(SumCostMetric):
    """Sum cost metric ignoring join computation: pure per-call charges."""

    name = "monetary"

    def __init__(self) -> None:
        super().__init__(include_join_cost=False)

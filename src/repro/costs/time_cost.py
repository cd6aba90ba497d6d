"""Time-based cost metrics (Section 2.3 and Eq. 4 in Section 5.3).

The *execution time metric* accounts for the slowest path flowing
tuples from the user input to the output::

    ETM(G) = max over paths P of [ max over n in P (F_n · t_in(n) · τ_n)
                                   + sum over m in P, m != bottleneck, of τ_m ]

The first term is the *bottleneck* of the path (the node where the
product of invocations/fetches and time-per-invocation is maximal);
the remainder is the time needed to fill the pipe up to the bottleneck
and empty it afterwards (one invocation per other node).

The *bottleneck metric* of Srivastava et al. [16] keeps only the first
term; it suits pipelined execution of continuous queries.  The
*time-to-screen* metric measures the time to present the first output
tuple: one invocation per node along the slowest root-to-output path.
"""

from __future__ import annotations

from repro.costs.base import CostMetric, Paths
from repro.plans.annotate import PlanAnnotation
from repro.plans.dag import QueryPlan
from repro.plans.nodes import JoinNode, ServiceNode


def _timing(plan: QueryPlan):
    """What the time metrics need of *plan*, derived once per plan.

    ``(taus, idle, services)``: τ of every node by position (in
    ``plan.nodes`` order) — a service's response time, a join's, 0 for
    IN/OUT; the busy time of every node whose busy time does not
    depend on the annotation (a join's τ, 0 for IN/OUT and, as a
    placeholder, for services); and the service nodes with their
    positions.
    """
    return plan.derived(_timing, _derive_timing)


def _derive_timing(plan: QueryPlan):
    taus, idle, services = [], [], []
    for index, node in enumerate(plan.nodes):
        if isinstance(node, ServiceNode):
            assert node.profile is not None
            taus.append(node.profile.response_time)
            idle.append(0.0)
            services.append((index, node))
        else:
            tau = node.response_time if isinstance(node, JoinNode) else 0.0
            taus.append(tau)
            idle.append(tau)
    return taus, idle, services


def _works(timing: tuple, annotation: PlanAnnotation) -> list[float]:
    """Total busy time of every node, by position: F · t_in · τ for a
    service, τ for a join, 0 for IN/OUT."""
    taus, idle, services = timing
    works = list(idle)
    for index, node in services:
        works[index] = annotation.fetches(node) * annotation.calls(node) * taus[index]
    return works


class ExecutionTimeMetric(CostMetric):
    """Eq. 4: slowest path with bottleneck plus pipe fill/drain."""

    name = "execution-time"

    def evaluate(
        self, plan: QueryPlan, annotation: PlanAnnotation, paths: Paths
    ) -> float:
        timing = taus, _, _ = _timing(plan)
        works = _works(timing, annotation)
        worst = 0.0
        for path in paths:
            bottleneck = max(path, key=works.__getitem__)
            others = sum(taus[index] for index in path if index != bottleneck)
            worst = max(worst, works[bottleneck] + others)
        return worst


class BottleneckMetric(CostMetric):
    """Execution time of the slowest service in the plan ([16]).

    Fully studied by Srivastava et al. for pipelined continuous
    queries; the paper argues it is not advised for search services,
    which rarely produce all their tuples.
    """

    name = "bottleneck"

    def evaluate(
        self, plan: QueryPlan, annotation: PlanAnnotation, paths: Paths
    ) -> float:
        return max(_works(_timing(plan), annotation), default=0.0)


class TimeToScreenMetric(CostMetric):
    """Time to the first output tuple: fill the pipe once.

    Every node on the slowest input → output path must answer once
    before the first tuple can reach the user.
    """

    name = "time-to-screen"

    def evaluate(
        self, plan: QueryPlan, annotation: PlanAnnotation, paths: Paths
    ) -> float:
        del annotation
        taus, _, _ = _timing(plan)
        worst = 0.0
        for path in paths:
            worst = max(worst, sum(taus[index] for index in path))
        return worst

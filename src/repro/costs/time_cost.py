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

All three read τ and ``F · t_in · τ`` per node off the annotation
(:meth:`~repro.plans.annotate.PlanAnnotation.timing`): an annotation
program reads τ once per node when it compiles it and computes the
busy time as it runs, so a metric derives nothing per plan.  Eq. 4 and
time-to-screen fold those columns over the paths with
:func:`~repro.plans.dag.slowest_path`, the fold the engine's clock
uses too.
"""

from __future__ import annotations

from repro.costs.base import CostMetric, Paths
from repro.plans.annotate import PlanAnnotation
from repro.plans.dag import QueryPlan, slowest_path


class ExecutionTimeMetric(CostMetric):
    """Eq. 4: slowest path with bottleneck plus pipe fill/drain."""

    name = "execution-time"
    covers_work = True

    def evaluate(
        self, plan: QueryPlan, annotation: PlanAnnotation, paths: Paths
    ) -> float:
        return slowest_path(paths, *annotation.timing())

    def bound(
        self, plan: QueryPlan, annotation: PlanAnnotation, paths: Paths
    ) -> float:
        """Eq. 4 can fall as a factor grows: a node's work is
        ``F · t_in · τ``, below its τ when ``t_in < 1/F``, and raising a
        factor can move a path's bottleneck onto such a node, whose τ
        then leaves the sum.  Whatever the factors, a path's bottleneck
        works at least the largest work at factors 1 (works only grow),
        so the path costs at least that plus every τ on it but the
        largest — the bottleneck's τ when it is the largest, which makes
        the bound the cost.  A completion only appends nodes to a path:
        a new bottleneck works at least as much, and a new τ adds to
        the sum, so the number bounds every plan the open one becomes.
        """
        taus, works = annotation.timing()
        worst = 0.0
        for path in paths:
            bottleneck = max(path, key=works.__getitem__)
            slowest = max(path, key=lambda i: (taus[i], i == bottleneck))
            others = sum(taus[i] for i in path if i != slowest)
            worst = max(worst, works[bottleneck] + others)
        return worst


class BottleneckMetric(CostMetric):
    """Execution time of the slowest service in the plan ([16]).

    Fully studied by Srivastava et al. for pipelined continuous
    queries; the paper argues it is not advised for search services,
    which rarely produce all their tuples.
    """

    name = "bottleneck"
    covers_work = True

    def evaluate(
        self, plan: QueryPlan, annotation: PlanAnnotation, paths: Paths
    ) -> float:
        _, works = annotation.timing()
        return max(works, default=0.0)


class TimeToScreenMetric(CostMetric):
    """Time to the first output tuple: fill the pipe once.

    Every node on the slowest input → output path must answer once
    before the first tuple can reach the user.
    """

    name = "time-to-screen"

    def evaluate(
        self, plan: QueryPlan, annotation: PlanAnnotation, paths: Paths
    ) -> float:
        return slowest_path(paths, annotation.timing()[0])

"""Cost metric interface (Section 2.3).

A cost metric is a function associating a cost to each (annotated)
query plan.  All metrics considered in the paper are *monotonic* with
respect to the way DAGs are constructed: evaluating a metric on a
partially constructed plan yields a lower bound for every completion,
which is what makes branch-and-bound sound (Section 2.4).

Every metric reads a plan through one seam, :meth:`CostMetric.evaluate`:
per-node response times and work (the annotation's estimates, and the
τ and busy-time columns of :meth:`PlanAnnotation.timing`, which an
annotation program fills as it runs) and the paths from the input node
to the plan's sinks.  A closed plan's sink is OUT
(:meth:`~CostMetric.cost`); an *open* plan — a search state, IN and
the atoms placed so far — has the frontiers of its maximal branches as
sinks (``OpenPlan.paths``) and its estimates at all fetching factors 1
in its annotation program (``AnnotationProgram.ones``).  The
optimizer bounds a state with :meth:`CostMetric.bound` on it, with no
close: the cost there, except under Eq. 4, which a growing fetching
factor can lower (:mod:`repro.costs.time_cost`).  Closing would only
append parallel joins, which the plan builder gives neither a
response time nor a per-tuple cost, and OUT: every metric reads such
nodes as zero at the end of a path or a sum, so the open value *is*
the closed plan's cost, bit for bit.  Were
a join ever given a cost, the open value would stay a lower bound —
closing adds non-negative terms (``tests/test_open_plans.py`` pins
both).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.plans.annotate import PlanAnnotation
from repro.plans.dag import QueryPlan

#: Input → sink paths, each node given as its position in ``plan.nodes``.
Paths = Sequence[Sequence[int]]


class CostMetric(ABC):
    """Assigns a nonnegative cost to an annotated plan."""

    #: Short identifier used in reports and benchmarks.
    name: str = "abstract"
    #: Whether every plan costs at least the busy time ``F · calls · τ``
    #: of each of its nodes — what bounds a plan phase 3 must fetch
    #: more for (:meth:`~repro.optimizer.fetches.FetchContext.sized_bound`).
    covers_work: bool = False

    def cost(self, plan: QueryPlan, annotation: PlanAnnotation) -> float:
        """The cost of a fully constructed, annotated plan."""
        return self.evaluate(plan, annotation, plan.path_positions())

    @abstractmethod
    def evaluate(
        self, plan: QueryPlan, annotation: PlanAnnotation, paths: Paths
    ) -> float:
        """The cost of *plan*, closed or open, under *annotation*;
        *paths* are every path from its input node to a sink."""

    def bound(
        self, plan: QueryPlan, annotation: PlanAnnotation, paths: Paths
    ) -> float:
        """A lower bound on the cost of every plan *plan* can become —
        every completion, at every fetch vector — given its estimates
        at all fetching factors 1.  A metric no factor can lower is its
        own bound: the cost at factors 1."""
        return self.evaluate(plan, annotation, paths)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"

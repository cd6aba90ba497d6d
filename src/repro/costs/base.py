"""Cost metric interface (Section 2.3).

A cost metric is a function associating a cost to each (annotated)
query plan.  All metrics considered in the paper are *monotonic* with
respect to the way DAGs are constructed: evaluating a metric on a
partially constructed plan yields a lower bound for every completion,
which is what makes branch-and-bound sound (Section 2.4).  There is
no separate bound interface: the optimizer closes the plan of a search
state as it stands — nodes are only appended after the ones already
placed, so existing estimates never change — and asks for its
:meth:`~CostMetric.cost` with every fetching factor at its minimum
of 1.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.plans.annotate import PlanAnnotation
from repro.plans.dag import QueryPlan


class CostMetric(ABC):
    """Assigns a nonnegative cost to an annotated plan."""

    #: Short identifier used in reports and benchmarks.
    name: str = "abstract"

    @abstractmethod
    def cost(self, plan: QueryPlan, annotation: PlanAnnotation) -> float:
        """The cost of a fully constructed, annotated plan."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"

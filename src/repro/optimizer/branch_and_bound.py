"""Branch-and-bound bookkeeping (Section 2.4).

The search space of fully instantiated query plans is explored in
three nested phases; every phase contributes branching choices, and
pruning relies on the monotonicity of the cost metrics: the cost of a
partially constructed DAG lower-bounds the cost of any completion,
while fully constructing one member of a class gives an upper bound.
If the lower bound of class A exceeds the upper bound of class B,
class A is discarded.

This module holds the incumbent (best-so-far) solution and the search
statistics shared by the optimizer and the exhaustive baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, TypeVar

Payload = TypeVar("Payload")


@dataclass
class SearchStats:
    """Counters describing one optimization run.

    The ``memo_*`` counters trace the search-memoization subsystem
    (:mod:`repro.optimizer.memo`): bound entries cache partial lower
    bounds per topology state, plan entries cache whole phase-2/3
    evaluations.

    Three counters account for the estimation work
    (:mod:`repro.plans.annotate`).  ``annotate_calls`` counts the
    annotations the *search* asks for — one per partial lower bound
    computed, one per plan completed by phase 3, one for materializing
    the winner; every memo hit avoids at least one.  It does not see
    inside phase 3, which is where most estimates are computed:
    ``fetch_vectors_evaluated`` counts the distinct fetch vectors
    phase 3 ran through a plan's annotation program (the completed
    plan's annotation is one of them, served from the phase's memo),
    and ``programs_compiled`` the programs compiled — one per plan
    phase 3 worked on, per partial bound and per materialization
    (today that is one per ``annotate_calls``: what the pair shows is
    how many vectors share a program).  Estimates evaluated in total:
    ``fetch_vectors_evaluated`` plus one per bound and materialization.
    """

    pattern_sequences_considered: int = 0
    pattern_sequences_pruned: int = 0
    topology_states_explored: int = 0
    topology_states_pruned: int = 0
    plans_completed: int = 0
    fetch_evaluations: int = 0
    incumbent_updates: int = 0
    annotate_calls: int = 0
    fetch_vectors_evaluated: int = 0
    programs_compiled: int = 0
    memo_bound_hits: int = 0
    memo_bound_misses: int = 0
    memo_plan_hits: int = 0
    memo_plan_misses: int = 0

    @property
    def memo_hits(self) -> int:
        """Total memo hits (bounds and completed plans)."""
        return self.memo_bound_hits + self.memo_plan_hits

    @property
    def memo_misses(self) -> int:
        """Total memo misses (bounds and completed plans)."""
        return self.memo_bound_misses + self.memo_plan_misses

    def summary(self) -> str:
        """One-line human-readable rendering of the counters."""
        return (
            f"patterns={self.pattern_sequences_considered}"
            f" (pruned {self.pattern_sequences_pruned}),"
            f" topology states={self.topology_states_explored}"
            f" (pruned {self.topology_states_pruned}),"
            f" plans completed={self.plans_completed},"
            f" incumbent updates={self.incumbent_updates},"
            f" annotate calls={self.annotate_calls},"
            f" fetch vectors={self.fetch_vectors_evaluated},"
            f" programs={self.programs_compiled},"
            f" memo hits={self.memo_hits}"
            f" (misses {self.memo_misses})"
        )


@dataclass
class Incumbent(Generic[Payload]):
    """The best complete solution found so far."""

    cost: float = float("inf")
    payload: Payload | None = None
    history: list[float] = field(default_factory=list)

    @property
    def is_set(self) -> bool:
        """True once at least one complete solution has been found."""
        return self.payload is not None

    def offer(self, cost: float, payload: Payload) -> bool:
        """Adopt (cost, payload) if it improves the incumbent."""
        if cost < self.cost:
            self.cost = cost
            self.payload = payload
            self.history.append(cost)
            return True
        return False

    def prunes(self, lower_bound: float) -> bool:
        """Should a class with this lower bound be discarded?

        Classes whose lower bound already matches the incumbent cannot
        contain a *strictly* better solution, so they are pruned too.
        """
        return self.is_set and lower_bound >= self.cost

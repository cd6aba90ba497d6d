"""Branch-and-bound bookkeeping (Section 2.4).

The search space of fully instantiated query plans is explored in
three nested phases; every phase contributes branching choices, and
pruning relies on the monotonicity of the cost metrics: the cost of a
partially constructed DAG lower-bounds the cost of any completion,
while fully constructing one member of a class gives an upper bound.
If the lower bound of class A exceeds the upper bound of class B,
class A is discarded.  The classes are nested — a pattern sequence, a
partial topology, a complete topology with its fetching factors still
open — and each is bounded before it is entered; the bound of a
topology, partial or complete, is the metric's bound on its open plan
at all factors 1 — the cost of that plan closed as it stands, or less
under Eq. 4, which a growing factor can lower
(:mod:`repro.optimizer.optimizer`).

This module holds the incumbent (best-so-far) solution and the search
statistics shared by the optimizer and the exhaustive baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, TypeVar

Payload = TypeVar("Payload")


@dataclass
class SearchStats:
    """Counters describing one optimization run.

    *The trajectory* — what the search looked at and decided, a
    function of the query, the profiles and the configuration alone
    (memoization, and how a bound is computed, never move them):
    ``pattern_sequences_considered`` / ``pattern_sequences_pruned``
    (phase 1 sequences tried, and discarded whole — which no sequence
    is: no single-call cost bounds a sequence, its one-atom states
    do, so the second stays 0), ``topology_states_explored`` (states popped by phase 2,
    complete ones included), ``incumbent_updates`` (the times the
    incumbent's cost fell).

    *How the classes fared.*  ``topology_states_pruned`` counts the
    states discarded by their lower bound — partial topologies, and
    complete ones whose bound at all fetching factors 1 already reaches
    the incumbent, or, closed, what phase 3 can size them at
    (:meth:`~repro.optimizer.fetches.FetchContext.sized_bound`; a
    heuristic seed pruned either way counts too);
    ``closed_pruned`` the complete ones among them closed first and
    then discarded at ``sized_bound`` (one found sized in the memo is
    discarded at the bound its entry keeps, unclosed);
    ``plans_completed`` the complete topologies that were sized by
    phase 3 or whose sizing was found in the memo, ``fetch_evaluations``
    the phase-3 runs among them.

    *Estimation work* (:mod:`repro.plans.annotate`).  A state costs one
    ``place`` on top of the open plan it extends (``atoms_placed``: the
    fold steps the search executed — about one per state it holds,
    more under a memo that keeps nothing (every state is then folded
    from the root), none for a state whose bound is inherited); its
    bound is read off that open plan, which is never closed for it.
    ``bounds_inherited`` counts the bound misses answered without
    building the state: an immediate sub-state's bound, already held,
    pruned it, and is kept as its bound (the decision the exact bound
    makes, since a sub-state's bound is never higher).  It needs both
    the incumbent and the memo, so it stays 0 in a search that does
    not prune or a memo that keeps nothing.
    ``annotate_calls`` counts the closed plans: one per complete
    topology phase 3 sizes or ``closed_pruned`` counts, plus one for
    annotating the plan that leaves.  It does not see inside phase 3:
    ``fetch_vectors_evaluated`` counts the distinct fetch vectors phase
    3 ran through a closed plan's annotation program, all-ones first.
    ``programs_compiled`` counts the programs compiled
    from a *whole plan*: the plan that leaves the optimizer, once —
    every other program is the extension of another state's.

    The ``memo_*`` counters trace :mod:`repro.optimizer.memo`: a bound
    lookup is a hit when the state's bound was computed before (under
    this or another pattern sequence, or by an earlier ``optimize()``),
    a plan lookup when the topology was sized before; a topology
    discarded at its class bound never reaches the plan table.
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
    atoms_placed: int = 0
    bounds_inherited: int = 0
    closed_pruned: int = 0
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
            f" atoms placed={self.atoms_placed},"
            f" memo hits={self.memo_hits}"
            f" (misses {self.memo_misses})"
        )


@dataclass
class Incumbent(Generic[Payload]):
    """The best complete solution found so far."""

    cost: float = float("inf")
    payload: Payload | None = None

    @property
    def is_set(self) -> bool:
        """True once at least one complete solution has been found."""
        return self.payload is not None

    def offer(self, cost: float, payload: Payload) -> bool:
        """Adopt (cost, payload) if it improves the incumbent."""
        if cost < self.cost:
            self.cost = cost
            self.payload = payload
            return True
        return False

    def prunes(self, lower_bound: float) -> bool:
        """Should a class with this lower bound be discarded?

        Classes whose lower bound already matches the incumbent cannot
        contain a *strictly* better solution, so they are pruned too.
        """
        return self.is_set and lower_bound >= self.cost

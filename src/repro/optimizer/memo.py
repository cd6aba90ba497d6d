"""Search memoization for the branch-and-bound optimizer.

What the three-phase search computes for a topology state or a
completed topology depends only on the *placed atoms' access patterns*
and the *precedence closure*, not on how the search reached it.
:class:`PlanMemo` keeps both layers behind content-addressed keys:

* **search states** — per state its *open plan* (the un-closed plan
  of the placed atoms with its annotation program, see
  docs/ARCHITECTURE.md, "Search states are open plans") and, once
  somebody asked, its lower bound; keyed by the placed atoms with
  their pattern codes plus the precedence closure (:func:`bound_key`).
  The open plan is what a state is *extended from*: the state with
  one more atom costs one ``place`` on top of it, whatever route the
  search took.  The key deliberately ignores the patterns of
  *unplaced* atoms, so pattern sequences that agree on a placed subset
  share entries already within a single run;
* **completed plans** — the phase-3 evaluation of a topology (fetch
  assignment and cost), keyed by the whole pattern sequence plus the
  closure (:func:`plan_key`).  This also covers the heuristic-seeding
  pass: the selective/parallel seed posets are re-reached by the
  exhaustive enumeration and would otherwise be evaluated twice per
  pattern sequence.

The memo is owned by an :class:`~repro.optimizer.optimizer.Optimizer`
instance and persists across :meth:`optimize` calls; it is reset
automatically when a *different* query is optimized.  Cached values
are only valid while the registry's service profiles are unchanged —
callers that mutate profiles must use a fresh optimizer or call
:meth:`PlanMemo.clear`.

Memoization never changes a search outcome: an open plan reached
through the memo is the fold a from-scratch build performs, in the
same order, and a hit returns the exact float/payload computed on the
original miss, so costs, incumbent updates, and pruning decisions are
bit-identical to the unmemoized search (tested over every benchmark
query profile).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generic, Sequence, TypeVar

from repro.model.query import ConjunctiveQuery
from repro.model.schema import AccessPattern
from repro.plans.annotate import AnnotationProgram
from repro.plans.builder import OpenPlan

#: Per atom its pattern code, ``None`` while unplaced, plus the
#: precedence closure.
BoundKey = tuple[tuple[str | None, ...], frozenset[tuple[int, int]]]

#: Full pattern-code sequence plus the precedence closure.
PlanKey = tuple[tuple[str, ...], frozenset[tuple[int, int]]]

Payload = TypeVar("Payload")


def bound_key(
    patterns: Sequence[AccessPattern],
    placed: frozenset[int],
    closure: frozenset[tuple[int, int]],
) -> BoundKey:
    """Memo key of a search state (its open plan and lower bound).

    Only the placed atoms' patterns matter: the plan of a state is
    built from the placed atoms alone, so two pattern sequences that
    agree there share the entry even if they diverge elsewhere.
    """
    return (
        tuple([
            pattern.code if index in placed else None
            for index, pattern in enumerate(patterns)
        ]),
        closure,
    )


def plan_key(
    patterns: Sequence[AccessPattern],
    closure: frozenset[tuple[int, int]],
) -> PlanKey:
    """Memo key for a fully evaluated plan topology."""
    return (tuple(pattern.code for pattern in patterns), closure)


@dataclass(slots=True)
class OpenState:
    """What the search keeps of one topology state.

    ``plan`` and ``program`` are dropped (``None``) once the state's
    bound has pruned it: nothing is placed on a pruned state, so only
    the number is worth keeping.
    """

    #: IN and the placed atoms in build order; closing it gives the
    #: plan the state's bound is the cost of.
    plan: OpenPlan | None
    #: The annotation program of ``plan.plan``, extended from the
    #: state this one was placed on.
    program: AnnotationProgram | None
    #: Cost of the closed plan at all fetching factors 1 — a lower
    #: bound for every completion — once it has been asked for.
    bound: float | None = None


@dataclass(frozen=True)
class PlanEntry(Generic[Payload]):
    """Cached outcome of one complete phase-2/3 plan evaluation."""

    cost: float
    feasible: bool
    payload: Payload


@dataclass
class PlanMemo(Generic[Payload]):
    """Memo tables shared across topology states and optimize() calls."""

    _query: ConjunctiveQuery | None = None
    _bounds: dict[BoundKey, OpenState] = field(default_factory=dict)
    _plans: dict[PlanKey, PlanEntry[Payload]] = field(default_factory=dict)

    def reset_for(self, query: ConjunctiveQuery) -> None:
        """Keep entries only when re-optimizing the very same query."""
        if self._query is None or self._query != query:
            self.clear()
            self._query = query

    def clear(self) -> None:
        """Drop every cached entry (profiles changed, new query, ...)."""
        self._bounds.clear()
        self._plans.clear()
        self._query = None

    # -- search states ---------------------------------------------------

    def lookup_state(self, key: BoundKey) -> OpenState | None:
        """The state kept under *key*, or ``None``."""
        return self._bounds.get(key)

    def store_state(self, key: BoundKey, state: OpenState) -> None:
        """Keep *state* (its bound may be filled in later)."""
        self._bounds[key] = state

    # -- completed plan evaluations -------------------------------------

    def lookup_plan(self, key: PlanKey) -> PlanEntry[Payload] | None:
        """Cached complete evaluation for *key*, or ``None``."""
        return self._plans.get(key)

    def store_plan(self, key: PlanKey, entry: PlanEntry[Payload]) -> None:
        """Record a complete plan evaluation."""
        self._plans[key] = entry

    # -- introspection ---------------------------------------------------

    @property
    def state_entries(self) -> int:
        """Number of search states whose open plan is kept."""
        return len(self._bounds)

    def bounds(self) -> dict[BoundKey, float]:
        """The lower bound of every state whose bound was asked for."""
        return {
            key: state.bound
            for key, state in self._bounds.items()
            if state.bound is not None
        }

    @property
    def bound_entries(self) -> int:
        """Number of cached lower bounds."""
        return len(self.bounds())

    @property
    def plan_entries(self) -> int:
        """Number of cached complete evaluations."""
        return len(self._plans)

"""Phase 3 — assigning fetching factors to chunked services (Section 4.3).

Once the pattern sequence and the topology are fixed, the only open
parameters of a plan are the numbers of fetches ``F_i`` of its chunked
services.  The expected result size ``h`` of the plan grows with every
``F_i``; the goal is the cheapest assignment with ``h >= k``.

Heuristics (Section 4.3.1):

* **greedy** — start from all-ones, repeatedly increment the factor
  with the highest sensitivity (extra tuples per extra cost unit) until
  ``h >= k``;
* **square is better** — start from all-ones and grow all factors so
  that every chunked service explores about the same number of tuples
  (``F_i · cs_i`` equalized).  The paper phrases the increment as
  "proportional to its chunk size" but motivates it with equal numbers
  of explored tuples, which requires increments inversely proportional
  to the chunk size; we implement the equal-exploration semantics.

Exploration (Section 4.3.2) enumerates candidate n-tuples bounded by
``F_max_i`` (the minimal value reaching ``k`` with all other factors at
1) and by decay caps, skipping tuples dominated by an already-feasible
one.  Closed forms for one and two chunked services (Eq. 5–7) are
provided and exercised against the exhaustive search in tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping

from repro.costs.base import CostMetric
from repro.execution.cache import CacheSetting
from repro.plans.annotate import AnnotationProgram, PlanAnnotation
from repro.plans.dag import QueryPlan
from repro.plans.nodes import ServiceNode

#: Hard cap on any fetching factor during exploration, so that plans
#: that can never produce k answers terminate.
HARD_FETCH_CAP = 512

#: Upper bound on the number of fetch vectors swept by the exhaustive
#: exploration before falling back to the greedy local optimum.
MAX_EXPLORATION_CELLS = 20_000


@dataclass(frozen=True)
class FetchResult:
    """A fetch assignment together with its evaluation."""

    fetches: dict[int, int]
    feasible: bool
    output_size: float
    cost: float

    def factor(self, atom_index: int) -> int:
        """The fetching factor assigned to the atom at *atom_index*."""
        return self.fetches.get(atom_index, 1)


class FetchContext:
    """Evaluates fetch assignments on a fixed plan.

    The plan's structure does not depend on the fetching factors, so
    the context compiles the plan's estimates once
    (:class:`~repro.plans.annotate.AnnotationProgram`) and runs every
    trial vector through that program; callers receive plain numbers.
    A caller that already holds the plan's program (the optimizer
    extends one per search state) hands it over as *program*.
    Trials leave the plan untouched — only :meth:`apply` and
    :meth:`evaluate` write factors to the plan nodes.
    """

    def __init__(
        self,
        plan: QueryPlan,
        metric: CostMetric,
        cache_setting: CacheSetting,
        program: AnnotationProgram | None = None,
    ) -> None:
        self._plan = plan
        self._metric = metric
        self._program = program or AnnotationProgram(plan, cache_setting)
        self._atoms = self._program.chunked_atoms
        self._chunked: dict[int, ServiceNode] = dict(
            zip(self._atoms, self._program.chunked_nodes)
        )
        # The annotation depends only on the fetch vector, and the
        # heuristics re-evaluate many neighboring vectors: memoize.
        self._annotation_memo: dict[tuple[int, ...], PlanAnnotation] = {}
        self._cost_memo: dict[tuple[int, ...], float] = {}
        self._base_output: float | None = None

    def _vector(self, fetches: Mapping[int, int]) -> tuple[int, ...]:
        """*fetches* in the program's layout (missing atoms fetch once)."""
        return tuple([int(fetches.get(atom_index, 1)) for atom_index in self._atoms])

    @property
    def plan(self) -> QueryPlan:
        """The underlying plan (fetches reflect the last apply/evaluate)."""
        return self._plan

    @property
    def chunked_atoms(self) -> tuple[int, ...]:
        """Atom indices of the chunked services, sorted."""
        return self._atoms

    @property
    def vectors_evaluated(self) -> int:
        """Distinct fetch vectors run through the plan's program so far."""
        return len(self._annotation_memo)

    def cap(self, atom_index: int) -> int:
        """Decay-implied upper bound on the factor (or the hard cap)."""
        node = self._chunked[atom_index]
        assert node.profile is not None
        decay_cap = node.profile.max_fetches()
        if decay_cap is None:
            return HARD_FETCH_CAP
        return min(decay_cap, HARD_FETCH_CAP)

    def response_time(self, atom_index: int) -> float:
        """τ of the chunked service at *atom_index*."""
        node = self._chunked[atom_index]
        assert node.profile is not None
        return node.profile.response_time

    def cost_per_call(self, atom_index: int) -> float:
        """Per-call monetary cost of the chunked service."""
        node = self._chunked[atom_index]
        assert node.profile is not None
        return node.profile.cost_per_call

    def calls(self, atom_index: int, fetches: Mapping[int, int]) -> float:
        """Invocation count of the node under *fetches* (t_in)."""
        annotation = self.annotate(fetches)
        return annotation.calls(self._chunked[atom_index])

    def apply(self, fetches: Mapping[int, int]) -> None:
        """Set the factors on the plan nodes (validating bounds)."""
        for atom_index, node in self._chunked.items():
            factor = int(fetches.get(atom_index, 1))
            if factor < 1:
                raise ValueError(f"fetching factor must be >= 1, got {factor}")
            node.fetches = factor

    def annotate(self, fetches: Mapping[int, int]) -> PlanAnnotation:
        """Annotation of the plan under *fetches* (memoized)."""
        return self._annotation(self._vector(fetches))

    def _annotation(self, vector: tuple[int, ...]) -> PlanAnnotation:
        cached = self._annotation_memo.get(vector)
        if cached is None:
            cached = self._annotation_memo[vector] = self._program.run(vector)
        return cached

    def output_size(self, fetches: Mapping[int, int]) -> float:
        """Expected number of answers h under *fetches*.

        In the annotation model of Section 3.4, every chunked node
        contributes ``cs · F`` multiplicatively to the plan output, so
        ``h(F) = h(1, ..., 1) · Π F_i`` exactly; we exploit this to
        avoid re-annotating (the identity is verified by the property
        tests against the full annotation).
        """
        if self._base_output is None:
            self._base_output = self.annotate({}).output_size
        result = self._base_output
        for atom_index in self._chunked:
            result *= int(fetches.get(atom_index, 1))
        return result

    def cost(self, fetches: Mapping[int, int]) -> float:
        """Metric cost of the plan under *fetches* (memoized)."""
        vector = self._vector(fetches)
        cached = self._cost_memo.get(vector)
        if cached is None:
            cached = self._cost_memo[vector] = self._metric.cost(
                self._plan, self._annotation(vector)
            )
        return cached

    def evaluate(self, fetches: Mapping[int, int], k: int) -> FetchResult:
        """Package an assignment with feasibility, h, and cost.

        The assignment is also applied to the plan.
        """
        self.apply(fetches)
        output_size = self.annotate(fetches).output_size
        return FetchResult(
            fetches={i: int(fetches.get(i, 1)) for i in self._atoms},
            feasible=output_size >= k,
            output_size=output_size,
            cost=self.cost(fetches),
        )


def all_ones(context: FetchContext) -> dict[int, int]:
    """The minimal assignment: one fetch everywhere."""
    return {i: 1 for i in context.chunked_atoms}


def maxed_out(context: FetchContext) -> dict[int, int]:
    """Every factor at its cap (decay bound or hard cap)."""
    return {i: context.cap(i) for i in context.chunked_atoms}


def _unreachable(context: FetchContext, k: int) -> FetchResult | None:
    """Fast path: if even the capped assignment cannot produce k
    answers, return it immediately (the paper notes small decay-implied
    bounds may make k answers impossible)."""
    maxed = maxed_out(context)
    if context.output_size(maxed) < k:
        return context.evaluate(maxed, k)
    return None


def greedy_assignment(context: FetchContext, k: int) -> FetchResult:
    """The "greedy" heuristic of Section 4.3.1.

    All factors start at 1 (already optimal if ``h >= k``); otherwise
    the factor of the node with the highest sensitivity — increase in
    tuples per cost unit — is incremented until ``h >= k`` or no
    further increment is possible.
    """
    current = all_ones(context)
    if not current:
        return context.evaluate(current, k)
    unreachable = _unreachable(context, k)
    if unreachable is not None:
        return unreachable
    h = context.output_size(current)
    cost = context.cost(current)
    while h < k:
        best_atom = None
        best_factor = 0
        best_sensitivity = -1.0
        best_h = h
        best_cost = cost
        for atom_index in context.chunked_atoms:
            cap = context.cap(atom_index)
            if current[atom_index] >= cap:
                continue
            # Step geometrically while far from k (h is multiplicative
            # in every factor), +1 when close — same greedy criterion,
            # logarithmically many iterations.
            factor = current[atom_index]
            doubled = min(cap, factor * 2)
            if h * doubled / factor < k and doubled > factor + 1:
                trial_factor = doubled
            else:
                trial_factor = factor + 1
            trial = dict(current)
            trial[atom_index] = trial_factor
            trial_h = context.output_size(trial)
            trial_cost = context.cost(trial)
            gain = trial_h - h
            pain = max(trial_cost - cost, 1e-12)
            sensitivity = gain / pain
            if sensitivity > best_sensitivity:
                best_sensitivity = sensitivity
                best_atom = atom_index
                best_factor = trial_factor
                best_h = trial_h
                best_cost = trial_cost
        if best_atom is None:
            break  # k is unreachable (decay caps hit)
        current[best_atom] = best_factor
        h = best_h
        cost = best_cost
    return context.evaluate(current, k)


def square_assignment(context: FetchContext, k: int) -> FetchResult:
    """The "square is better" heuristic: equalize explored tuples.

    Grows an exploration level ``L`` (tuples explored per chunked
    service) and sets ``F_i = ceil(L / cs_i)`` until ``h >= k`` or all
    caps are reached.  Suits scenarios where rankings decay quickly and
    over-fetching a single service does not pay off.
    """
    current = all_ones(context)
    if not current:
        return context.evaluate(current, k)
    unreachable = _unreachable(context, k)
    if unreachable is not None:
        return unreachable
    chunk_sizes: dict[int, int] = {}
    for atom_index in context.chunked_atoms:
        node = context.plan.service_node_for_atom(atom_index)
        assert node.profile is not None and node.profile.chunk_size is not None
        chunk_sizes[atom_index] = node.profile.chunk_size
    level = min(chunk_sizes.values())
    step = min(chunk_sizes.values())
    while context.output_size(current) < k:
        level += step
        proposal = {
            i: min(context.cap(i), max(1, math.ceil(level / chunk_sizes[i])))
            for i in context.chunked_atoms
        }
        if proposal == current:
            if all(proposal[i] >= context.cap(i) for i in proposal):
                break  # k is unreachable
            continue
        current = proposal
    return context.evaluate(current, k)


def _max_factor(context: FetchContext, atom_index: int, k: int) -> int:
    """F_max_i: minimal factor reaching k with all other factors at 1."""
    cap = context.cap(atom_index)
    low, high = 1, cap
    base = all_ones(context)
    base[atom_index] = cap
    if context.output_size(base) < k:
        return cap
    while low < high:
        mid = (low + high) // 2
        base[atom_index] = mid
        if context.output_size(base) >= k:
            high = mid
        else:
            low = mid + 1
    return low


def exhaustive_assignment(
    context: FetchContext, k: int, start: Mapping[int, int] | None = None
) -> FetchResult:
    """Dominance-pruned exhaustive exploration (Section 4.3.2).

    Enumerates the box ``[1, F_max_i]`` per chunked service, skipping
    tuples that componentwise dominate an already-found feasible tuple
    (they can only cost more), and returns the cheapest feasible
    assignment.  Falls back to the best-effort assignment with maximal
    output when ``k`` is unreachable.
    """
    atoms = context.chunked_atoms
    if not atoms:
        return context.evaluate({}, k)
    if context.output_size(all_ones(context)) >= k:
        return context.evaluate(all_ones(context), k)
    unreachable = _unreachable(context, k)
    if unreachable is not None:
        return unreachable
    bounds = {i: _max_factor(context, i, k) for i in atoms}
    volume = 1
    for bound in bounds.values():
        volume *= bound
    if volume > MAX_EXPLORATION_CELLS:
        # The box is too large to sweep (this happens when k is barely
        # reachable and single-coordinate bounds degenerate to the hard
        # cap); fall back to the greedy local optimum.
        if start is not None:
            seeded = context.evaluate(start, k)
            if seeded.feasible:
                return seeded
        return greedy_assignment(context, k)
    best: FetchResult | None = None
    feasible_minimals: list[tuple[int, ...]] = []
    if start is not None:
        candidate = context.evaluate(start, k)
        if candidate.feasible:
            best = candidate
            feasible_minimals.append(tuple(candidate.fetches[i] for i in atoms))
    # A flat loop, first atom outermost (no recursive closure: a closure
    # that calls itself is a reference cycle, which would keep the
    # context and every annotation it memoized alive until the next
    # collection).
    for factors in itertools.product(*(range(1, bounds[i] + 1) for i in atoms)):
        if any(
            factors != other and all(f >= o for f, o in zip(factors, other))
            for other in feasible_minimals
        ):
            continue  # dominated: can only cost more
        vector = dict(zip(atoms, factors))
        if context.annotate(vector).output_size < k:
            continue
        feasible_minimals.append(factors)
        if best is None or context.cost(vector) < best.cost:
            best = context.evaluate(vector, k)
    if best is not None:
        return best
    # k unreachable: report the maximal-output assignment (the paper
    # notes decay bounds may make k answers impossible).
    maxed = {i: context.cap(i) for i in atoms}
    return context.evaluate(maxed, k)


def closed_form_single(context: FetchContext, k: int) -> FetchResult:
    """Eq. 5: one chunked service; h is linear in its factor."""
    atoms = context.chunked_atoms
    if len(atoms) != 1:
        raise ValueError(f"closed_form_single requires 1 chunked service, got {len(atoms)}")
    atom_index = atoms[0]
    base = context.output_size({atom_index: 1})
    if base <= 0:
        return context.evaluate({atom_index: context.cap(atom_index)}, k)
    factor = min(context.cap(atom_index), max(1, math.ceil(k / base)))
    return context.evaluate({atom_index: factor}, k)


def closed_form_pair(
    context: FetchContext,
    k: int,
    use_response_time: bool = True,
) -> FetchResult:
    """Eq. 6/7: two chunked services, parallel or on the same path.

    ``h`` is bilinear, so ``k`` fixes the product of the two factors:
    ``F_1 · F_2 = K' = ceil(k / h(1, 1))``.  If the two nodes are
    independent (not on a common path), the optimum splits the product
    by the square-root rule of Eq. 6, weighting each service by its
    invocation count times its per-fetch cost; if one follows the
    other on the same path, its input grows with the other's factor,
    and Eq. 7 pushes all fetching downstream.
    """
    atoms = context.chunked_atoms
    if len(atoms) != 2:
        raise ValueError(f"closed_form_pair requires 2 chunked services, got {len(atoms)}")
    first, second = atoms
    base = context.output_size(all_ones(context))
    if base <= 0:
        return context.evaluate({i: context.cap(i) for i in atoms}, k)
    product = max(1, math.ceil(k / base))

    node_first = context.plan.service_node_for_atom(first)
    node_second = context.plan.service_node_for_atom(second)
    first_before = node_first.node_id in context.plan.ancestors(node_second)
    second_before = node_second.node_id in context.plan.ancestors(node_first)
    if first_before or second_before:
        upstream, downstream = (first, second) if first_before else (second, first)
        fetches = {upstream: 1, downstream: min(context.cap(downstream), product)}
        return context.evaluate(fetches, k)

    ones = all_ones(context)
    annotation = context.annotate(ones)
    t_first = annotation.calls(node_first)
    t_second = annotation.calls(node_second)
    if use_response_time:
        c_first, c_second = context.response_time(first), context.response_time(second)
    else:
        c_first, c_second = context.cost_per_call(first), context.cost_per_call(second)
    weight_first = max(t_first * c_first, 1e-12)
    weight_second = max(t_second * c_second, 1e-12)
    factor_first = math.ceil(math.sqrt(product * weight_second / weight_first))
    factor_second = math.ceil(math.sqrt(product * weight_first / weight_second))
    fetches = {
        first: min(context.cap(first), max(1, factor_first)),
        second: min(context.cap(second), max(1, factor_second)),
    }
    return context.evaluate(fetches, k)


def assign_fetches(
    context: FetchContext, k: int, heuristic: str = "greedy"
) -> FetchResult:
    """Run phase 3: heuristic first, then exhaustive refinement."""
    if heuristic == "greedy":
        initial = greedy_assignment(context, k)
    elif heuristic == "square":
        initial = square_assignment(context, k)
    else:
        raise ValueError(f"unknown fetch heuristic {heuristic!r}")
    if not context.chunked_atoms:
        return initial
    refined = exhaustive_assignment(context, k, start=initial.fetches)
    if refined.feasible and (not initial.feasible or refined.cost <= initial.cost):
        return refined
    return initial

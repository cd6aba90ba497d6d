"""Phase 2 — query plan topology selection (Section 4.2).

Given a pattern sequence, phase 2 chooses the *shape* of the plan: a
strict partial order over the query atoms that respects callability
(Definition 3.1).  Incomparable atoms run in parallel; comparable ones
are sequenced (with pipe joins when parameters flow between them).

Example 5.1 reports "19 alternative plans" for the three atoms that
remain free once ``conf`` is placed first — which is exactly the
number of partial orders on 3 labeled elements.  We therefore
enumerate labeled posets, constructed incrementally by repeatedly
adding an unplaced atom as a new maximal element whose direct
predecessors form an antichain of already-placed atoms (this mirrors
the paper's construction of DAGs by progressively appending callable
nodes).

Two heuristics provide good initial upper bounds (Section 4.2.1):

* *selective is better* — a single chain, visiting atoms by increasing
  erspi wherever callability permits;
* *parallel is better* — layered maximal parallelism: each round
  places every atom that became callable, in parallel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.model.query import ConjunctiveQuery
from repro.model.schema import AccessPattern
from repro.model.terms import Variable
from repro.plans.builder import Poset
from repro.services.registry import ServiceRegistry

#: State of the incremental construction: placed atoms + closed order.
TopologyState = tuple[frozenset[int], frozenset[tuple[int, int]]]


def atom_callable_after(
    query: ConjunctiveQuery,
    patterns: Sequence[AccessPattern],
    index: int,
    ancestors: frozenset[int],
) -> bool:
    """Is atom *index* callable after the atoms in *ancestors*?"""
    bound: set[Variable] = set()
    for ancestor in ancestors:
        bound |= query.atoms[ancestor].variable_set
    return query.atoms[index].is_callable_given(
        patterns[index], frozenset(bound)
    )


def _antichains(
    placed: frozenset[int], closure: frozenset[tuple[int, int]]
) -> Iterator[frozenset[int]]:
    """All antichains (including the empty one) of the placed atoms."""
    members = sorted(placed)
    for size in range(len(members) + 1):
        for subset in itertools.combinations(members, size):
            if any(
                (a, b) in closure or (b, a) in closure
                for a, b in itertools.combinations(subset, 2)
            ):
                continue
            yield frozenset(subset)


def _ancestors_of_set(
    direct: frozenset[int], closure: frozenset[tuple[int, int]]
) -> frozenset[int]:
    result = set(direct)
    for member in direct:
        result.update(i for i, j in closure if j == member)
    return frozenset(result)


class TopologyEnumerator:
    """Incremental, deduplicated enumeration of callable posets."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        patterns: Sequence[AccessPattern],
    ) -> None:
        self._query = query
        self._patterns = tuple(patterns)
        self._n = len(query.atoms)
        # Definition 3.1 per atom: the variables that must be bound
        # before it can be called (constants fill the other inputs).
        self._needs = [
            body_atom.input_variables(pattern)
            for body_atom, pattern in zip(query.atoms, self._patterns)
        ]

    @property
    def initial_state(self) -> TopologyState:
        """The empty construction state."""
        return (frozenset(), frozenset())

    def is_complete(self, state: TopologyState) -> bool:
        """True when every atom has been placed."""
        placed, _ = state
        return len(placed) == self._n

    def poset_of(self, state: TopologyState) -> Poset:
        """The (partial) poset corresponding to a state.

        For incomplete states the poset ranges over the placed atoms
        only, with indices remapped densely; use
        :meth:`sub_problem` to obtain the matching sub-query data.
        """
        placed, closure = state
        if self.is_complete(state):
            return Poset(n=self._n, pairs=closure)
        mapping = {atom: k for k, atom in enumerate(sorted(placed))}
        pairs = frozenset(
            (mapping[i], mapping[j]) for i, j in closure
        )
        return Poset(n=len(placed), pairs=pairs)

    def placed_atoms(self, state: TopologyState) -> tuple[int, ...]:
        """Atom indices placed so far, sorted."""
        return tuple(sorted(state[0]))

    def extensions(self, state: TopologyState) -> Iterator[TopologyState]:
        """All states reachable by placing one more atom.

        The new atom becomes a maximal element whose direct
        predecessors are an antichain of placed atoms; the atom must be
        callable after the ancestors this induces.  Duplicate states
        (same placed set and same closure) are suppressed per call via
        an internal seen-set, and globally deduplicated by the search
        driver.
        """
        placed, closure = state
        seen: set[TopologyState] = set()
        # The ancestors each antichain induces, and the variables they
        # bind, depend on the state alone, not on the atom placed
        # after them.
        atoms = self._query.atoms
        choices = []
        for direct in _antichains(placed, closure):
            ancestors = _ancestors_of_set(direct, closure)
            bound = frozenset().union(*(atoms[a].variable_set for a in ancestors))
            choices.append((ancestors, bound))
        for index in range(self._n):
            if index in placed:
                continue
            needs = self._needs[index]
            for ancestors, bound in choices:
                if not needs <= bound:
                    continue  # not callable after these ancestors
                new_pairs = frozenset((a, index) for a in ancestors)
                new_state = (placed | {index}, closure | new_pairs)
                if new_state in seen:
                    continue
                seen.add(new_state)
                yield new_state

    def all_posets(self) -> tuple[Poset, ...]:
        """Every complete callable poset (exhaustive, deduplicated)."""
        results: dict[frozenset[tuple[int, int]], Poset] = {}
        visited: set[TopologyState] = set()
        stack = [self.initial_state]
        while stack:
            state = stack.pop()
            if state in visited:
                continue
            visited.add(state)
            if self.is_complete(state):
                _, closure = state
                results.setdefault(closure, Poset(n=self._n, pairs=closure))
                continue
            stack.extend(self.extensions(state))
        return tuple(
            results[key] for key in sorted(results, key=sorted)
        )


# -- heuristics ----------------------------------------------------------


def _effective_erspi(
    query: ConjunctiveQuery,
    registry: ServiceRegistry,
    index: int,
) -> float:
    """Per-invocation growth of an atom, for heuristic ordering.

    Chunked services count one chunk (their first fetch); exact
    services count their erspi.
    """
    profile = registry.profile(query.atoms[index].service)
    if profile.is_chunked:
        return float(profile.chunk_size or 1)
    return profile.erspi


def selective_chain(
    query: ConjunctiveQuery,
    patterns: Sequence[AccessPattern],
    registry: ServiceRegistry,
) -> Poset:
    """"Selective is better": a single path by increasing erspi.

    Greedily appends, among the atoms callable after the current
    prefix, the one with the smallest effective erspi.
    """
    n = len(query.atoms)
    order: list[int] = []
    remaining = set(range(n))
    while remaining:
        callable_now = [
            i for i in sorted(remaining)
            if atom_callable_after(query, patterns, i, frozenset(order))
        ]
        if not callable_now:
            raise ValueError(
                "no atom is callable: the pattern sequence is not permissible"
            )
        chosen = min(
            callable_now, key=lambda i: (_effective_erspi(query, registry, i), i)
        )
        order.append(chosen)
        remaining.discard(chosen)
    pairs = {(order[i], order[i + 1]) for i in range(n - 1)}
    return Poset(n=n, pairs=frozenset(pairs))


def maximal_parallel(
    query: ConjunctiveQuery,
    patterns: Sequence[AccessPattern],
) -> Poset:
    """"Parallel is better": layers of maximal parallelism.

    Each round places, in parallel, every atom callable after the
    atoms of the previous rounds; arcs go from every atom of round
    ``r`` to every atom of round ``r + 1`` (the paper requires each
    newly placed node to have an incoming arc from the previous step).
    """
    n = len(query.atoms)
    layers: list[list[int]] = []
    placed: set[int] = set()
    while len(placed) < n:
        layer = [
            i for i in range(n)
            if i not in placed
            and atom_callable_after(query, patterns, i, frozenset(placed))
        ]
        if not layer:
            raise ValueError(
                "no atom is callable: the pattern sequence is not permissible"
            )
        layers.append(layer)
        placed.update(layer)
    pairs: set[tuple[int, int]] = set()
    for earlier, later in zip(layers, layers[1:]):
        for a in earlier:
            for b in later:
                pairs.add((a, b))
    return Poset(n=n, pairs=frozenset(pairs))


@dataclass(frozen=True)
class TopologyHeuristics:
    """The two phase-2 heuristic plans used to seed the incumbent."""

    selective: Poset
    parallel: Poset

    def candidates(self) -> tuple[Poset, ...]:
        """Distinct heuristic posets."""
        if self.selective.closure() == self.parallel.closure():
            return (self.selective,)
        return (self.selective, self.parallel)


def heuristic_posets(
    query: ConjunctiveQuery,
    patterns: Sequence[AccessPattern],
    registry: ServiceRegistry,
) -> TopologyHeuristics:
    """Compute both phase-2 heuristics for a pattern sequence."""
    return TopologyHeuristics(
        selective=selective_chain(query, patterns, registry),
        parallel=maximal_parallel(query, patterns),
    )


def count_posets(
    query: ConjunctiveQuery, patterns: Sequence[AccessPattern]
) -> int:
    """Number of distinct callable posets (used by Example 5.1 tests)."""
    return len(TopologyEnumerator(query, patterns).all_posets())


ExtensionOrderKey = Callable[[TopologyState], tuple]

"""Phase 1 — access pattern selection (Sections 3.2 and 4.1).

Given a conjunctive query whose atoms name services with several
feasible access patterns, this module enumerates the *permissible*
sequences of patterns (those for which the query is executable per
Definition 3.1) and orders them by *cogency* for the "bound is better"
heuristic: sequences binding more input fields come first, since a
more cogent invocation cannot return a bigger answer set, pushes
selections toward the sources, and is likely to respond faster.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from repro.model.query import ConjunctiveQuery
from repro.model.schema import AccessPattern, Schema
from repro.model.terms import Variable

#: A choice of one feasible access pattern per body atom, by index.
PatternSequence = tuple[AccessPattern, ...]


def is_executable(query: ConjunctiveQuery, patterns: Sequence[AccessPattern]) -> bool:
    """Definition 3.1: can every atom be called, in some order?

    Computes the least fixpoint of the *callable* relation: an atom is
    callable when each input field holds a constant or a variable that
    occurs in an output field of an already-callable atom.
    """
    if len(patterns) != len(query.atoms):
        raise ValueError(
            f"expected {len(query.atoms)} patterns, got {len(patterns)}"
        )
    pending = set(range(len(query.atoms)))
    bound: set[Variable] = set()
    progress = True
    while pending and progress:
        progress = False
        for index in sorted(pending):
            atom = query.atoms[index]
            if atom.is_callable_given(patterns[index], frozenset(bound)):
                pending.discard(index)
                bound |= atom.output_variables(patterns[index])
                # Input variables are bound too once the atom ran (they
                # had to be bound to call it, or they unify with its
                # constants — for input fields they were bound already).
                bound |= atom.input_variables(patterns[index])
                progress = True
    return not pending


def permissible_sequences(
    query: ConjunctiveQuery, schema: Schema
) -> tuple[PatternSequence, ...]:
    """All permissible pattern sequences for *query* over *schema*.

    The raw space is the product of the feasible patterns of each
    atom's service; non-permissible sequences are discarded at this
    very early stage, as in the paper.
    """
    per_atom: list[tuple[AccessPattern, ...]] = []
    for atom in query.atoms:
        signature = atom.validate_against(schema)
        per_atom.append(signature.patterns)
    result = []
    for combination in itertools.product(*per_atom):
        if is_executable(query, combination):
            result.append(tuple(combination))
    return tuple(result)


def sequence_is_more_cogent(
    first: PatternSequence, second: PatternSequence
) -> bool:
    """⊑IO lifted to sequences: componentwise cogency."""
    if len(first) != len(second):
        raise ValueError("sequences must have the same length")
    return all(
        a.is_more_cogent_than(b) for a, b in zip(first, second)
    )


def sequence_is_strictly_more_cogent(
    first: PatternSequence, second: PatternSequence
) -> bool:
    """≺IO lifted to sequences."""
    return sequence_is_more_cogent(first, second) and not sequence_is_more_cogent(
        second, first
    )


def most_cogent_sequences(
    sequences: Sequence[PatternSequence],
) -> tuple[PatternSequence, ...]:
    """Sequences not strictly dominated in cogency by another one.

    In Example 4.1 the only two most cogent permissible choices are
    α1 and α4.
    """
    result = []
    for candidate in sequences:
        dominated = any(
            sequence_is_strictly_more_cogent(other, candidate)
            for other in sequences
            if other is not candidate
        )
        if not dominated:
            result.append(candidate)
    return tuple(result)


def input_field_count(sequence: PatternSequence) -> int:
    """Total number of input positions bound by the sequence."""
    return sum(len(p.input_positions) for p in sequence)


def cogency_sorted(
    sequences: Sequence[PatternSequence],
) -> tuple[PatternSequence, ...]:
    """Sequences ordered for exploration: most cogent choices first.

    Cogency is a partial order; we linearize it by (a) most-cogent
    sequences first, then (b) decreasing total number of input fields,
    with the pattern codes as a deterministic tie-breaker.
    """
    top = set(most_cogent_sequences(sequences))

    def sort_key(sequence: PatternSequence) -> tuple:
        codes = tuple(p.code for p in sequence)
        return (sequence not in top, -input_field_count(sequence), codes)

    return tuple(sorted(sequences, key=sort_key))


@dataclass(frozen=True)
class PatternPhaseResult:
    """Outcome of phase 1: the ordered candidate sequences."""

    permissible: tuple[PatternSequence, ...]
    most_cogent: tuple[PatternSequence, ...]
    ordered: tuple[PatternSequence, ...]

    @property
    def raw_space_size(self) -> int:
        """Number of permissible sequences (after early discarding)."""
        return len(self.permissible)


def select_patterns(query: ConjunctiveQuery, schema: Schema) -> PatternPhaseResult:
    """Run phase 1 and package the result."""
    permissible = permissible_sequences(query, schema)
    return PatternPhaseResult(
        permissible=permissible,
        most_cogent=most_cogent_sequences(permissible),
        ordered=cogency_sorted(permissible),
    )

"""Atoms: service invocations inside conjunctive queries (Section 3.1).

An atom for a schema ``S`` is an expression ``s(t1, ..., tn)`` where
``s`` names a service with a signature of arity ``n`` in ``S`` and each
``ti`` is a term (variable or constant).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.model.schema import AccessPattern, Schema, SchemaError, ServiceSignature
from repro.model.terms import Constant, Term, Variable


@dataclass(frozen=True)
class Atom:
    """A service atom ``service(terms...)``.

    Atoms are immutable; the same service may occur several times in a
    query body, so plan-level code identifies atoms by their *position*
    in the body (see :class:`repro.model.query.ConjunctiveQuery`).
    """

    service: str
    terms: tuple[Term, ...]

    def __post_init__(self) -> None:
        for term in self.terms:
            if not isinstance(term, (Variable, Constant)):
                raise TypeError(f"atom argument is not a term: {term!r}")

    @property
    def arity(self) -> int:
        """Number of arguments."""
        return len(self.terms)

    @property
    def variables(self) -> tuple[Variable, ...]:
        """Variables in argument order (with duplicates)."""
        return tuple(t for t in self.terms if isinstance(t, Variable))

    @cached_property
    def variable_set(self) -> frozenset[Variable]:
        """The set of distinct variables of the atom.

        Computed once per atom (``cached_property`` stores into the
        instance dict, which a frozen dataclass leaves writable): the
        optimizer asks for it on every callability check, plan build
        and annotation.
        """
        return frozenset(t for t in self.terms if isinstance(t, Variable))

    def term_at(self, position: int) -> Term:
        """The term at a zero-based argument *position*."""
        return self.terms[position]

    def input_terms(self, pattern: AccessPattern) -> tuple[Term, ...]:
        """Terms at the input positions of *pattern*."""
        self._check_pattern(pattern)
        return tuple(self.terms[k] for k in pattern.input_positions)

    def output_terms(self, pattern: AccessPattern) -> tuple[Term, ...]:
        """Terms at the output positions of *pattern*."""
        self._check_pattern(pattern)
        return tuple(self.terms[k] for k in pattern.output_positions)

    def input_variables(self, pattern: AccessPattern) -> frozenset[Variable]:
        """Distinct variables at input positions of *pattern*."""
        return frozenset(
            t for t in self.input_terms(pattern) if isinstance(t, Variable)
        )

    def output_variables(self, pattern: AccessPattern) -> frozenset[Variable]:
        """Distinct variables at output positions of *pattern*."""
        return frozenset(
            t for t in self.output_terms(pattern) if isinstance(t, Variable)
        )

    def is_callable_given(
        self, pattern: AccessPattern, bound: frozenset[Variable]
    ) -> bool:
        """Definition 3.1 test for one atom.

        The atom is callable when each input field is filled with a
        constant or with a variable already bound (i.e. occurring in an
        output field of a previously callable atom, or in the user
        input).
        """
        self._check_pattern(pattern)
        for position in pattern.input_positions:
            term = self.terms[position]
            if isinstance(term, Constant):
                continue
            if term not in bound:
                return False
        return True

    def validate_against(self, schema: Schema) -> ServiceSignature:
        """Check arity against *schema* and return the signature."""
        sig = schema.get(self.service)
        if sig.arity != self.arity:
            raise SchemaError(
                f"atom {self} has arity {self.arity}, "
                f"but service {self.service!r} has arity {sig.arity}"
            )
        return sig

    def _check_pattern(self, pattern: AccessPattern) -> None:
        if pattern.arity != self.arity:
            raise SchemaError(
                f"pattern {pattern.code!r} does not fit atom {self} "
                f"of arity {self.arity}"
            )

    def __str__(self) -> str:
        args = ", ".join(str(t) for t in self.terms)
        return f"{self.service}({args})"


def atom(service: str, *args: object) -> Atom:
    """Convenience constructor: uppercase strings become variables.

    >>> a = atom("conf", "db", "Name", "Start", "End", "City")
    >>> str(a)
    "conf('db', Name, Start, End, City)"
    """
    from repro.model.terms import term_from_literal

    return Atom(service=service, terms=tuple(term_from_literal(a) for a in args))

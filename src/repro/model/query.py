"""Conjunctive queries over Web services (Section 3.1).

A conjunctive query (CQ) of arity ``n`` over a schema ``S`` is written

    q(X) <- conj(X, Y)

where the body is a conjunction of atoms for ``S`` plus comparison
predicates.  Queries must be *safe*: each head variable appears in at
least one body atom.  A CQ whose atoms span different services is a
*multi-domain query*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.model.atoms import Atom
from repro.model.predicates import Comparison
from repro.model.schema import Schema
from repro.model.terms import Variable


class QueryError(ValueError):
    """Raised for malformed (e.g. unsafe) queries."""


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A safe conjunctive query with selection predicates.

    Attributes
    ----------
    name:
        Name of the head predicate (``q`` in the paper).
    head:
        Head variables, defining the output tuple shape.
    atoms:
        Body atoms, i.e. service invocations.  Atoms are identified by
        their index in this tuple (the same service can occur twice).
    predicates:
        Comparison predicates of the body (selections and arithmetic
        filters such as ``FPrice + HPrice < 2000``).
    """

    name: str
    head: tuple[Variable, ...]
    atoms: tuple[Atom, ...]
    predicates: tuple[Comparison, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.atoms:
            raise QueryError("query body must contain at least one atom")
        body_variables = self.body_variables
        for variable in self.head:
            if variable not in body_variables:
                raise QueryError(
                    f"unsafe query: head variable {variable} not in any body atom"
                )
        for predicate in self.predicates:
            if not predicate.variables <= body_variables:
                missing = predicate.variables - body_variables
                raise QueryError(
                    f"unsafe query: predicate {predicate} uses variables "
                    f"{sorted(v.name for v in missing)} not in any body atom"
                )

    @property
    def arity(self) -> int:
        """Arity of the head."""
        return len(self.head)

    @property
    def body_variables(self) -> frozenset[Variable]:
        """All variables occurring in body atoms."""
        result: set[Variable] = set()
        for body_atom in self.atoms:
            result.update(body_atom.variables)
        return frozenset(result)

    @property
    def services(self) -> tuple[str, ...]:
        """Service names used in the body, in atom order (with repeats)."""
        return tuple(a.service for a in self.atoms)

    def atom_index(self, body_atom: Atom) -> int:
        """Index of *body_atom* in the body (first occurrence)."""
        return self.atoms.index(body_atom)

    def validate_against(self, schema: Schema) -> None:
        """Check every atom against *schema* (service known, arity ok)."""
        for body_atom in self.atoms:
            body_atom.validate_against(schema)

    def __str__(self) -> str:
        head_args = ", ".join(v.name for v in self.head)
        body_parts = [str(a) for a in self.atoms] + [str(p) for p in self.predicates]
        return f"{self.name}({head_args}) :- " + ", ".join(body_parts)


def query(
    name: str,
    head: tuple[Variable, ...] | list[Variable],
    atoms: tuple[Atom, ...] | list[Atom],
    predicates: tuple[Comparison, ...] | list[Comparison] = (),
) -> ConjunctiveQuery:
    """Convenience constructor accepting lists."""
    return ConjunctiveQuery(
        name=name,
        head=tuple(head),
        atoms=tuple(atoms),
        predicates=tuple(predicates),
    )

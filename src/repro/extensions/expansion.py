"""Off-query expansion under access limitations (Section 7).

For some queries, no permissible choice of access patterns exists: some
input field can never be bound.  The original query is then
unanswerable as such, but a *subset* of its answers may be obtained by
invoking services that are not mentioned in the query yet are available
in the schema, whose output fields provide useful bindings for input
fields over the same abstract domain.  The paper's example: if all the
City fields were inputs but an ``oldTown(City)`` service provided
locations in output, it could seed the query.

We implement the non-recursive core of this idea: a single round of
seeding.  Each blocked input variable is matched, by abstract domain,
against candidate *seeder* services with a directly-callable access
pattern outputting that domain; one seeder atom per blocked domain is
added, after which the expanded query must be executable.  The result
is an under-approximation of the original query — answers are limited
to the bindings the seeders produce; the general case requires
recursive plans [Millstein et al. 2000], which we do not implement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.model.atoms import Atom
from repro.model.query import ConjunctiveQuery
from repro.model.schema import AccessPattern, Schema, ServiceSignature
from repro.model.terms import Variable
from repro.optimizer.patterns import permissible_sequences


class ExpansionError(ValueError):
    """Raised when no single-round expansion can unblock the query."""


@dataclass(frozen=True)
class ExpandedQuery:
    """An executable expansion of a blocked query.

    ``added_atoms`` are the off-query seeder atoms appended to the
    body; answers of the expanded query are a subset of the original
    query's answers (restricted to seeder-provided bindings).
    """

    original: ConjunctiveQuery
    query: ConjunctiveQuery
    added_atoms: tuple[Atom, ...]

    @property
    def is_expansion(self) -> bool:
        """True when seeder atoms were actually added."""
        return bool(self.added_atoms)


def variable_domains(query: ConjunctiveQuery, schema: Schema) -> dict[Variable, str]:
    """Abstract domain of each query variable (first occurrence wins)."""
    domains: dict[Variable, str] = {}
    for atom in query.atoms:
        sig = schema.get(atom.service)
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable) and term not in domains:
                domains[term] = sig.domain_of(position)
    return domains


def blocked_variables(query: ConjunctiveQuery, schema: Schema) -> frozenset[Variable]:
    """Variables that can never be bound under any pattern choice.

    A variable is *potentially bindable* if some atom has some feasible
    pattern placing it in an output position; otherwise every pattern
    choice leaves it input-only, which blocks executability.
    """
    bindable: set[Variable] = set()
    for atom in query.atoms:
        sig = schema.get(atom.service)
        for pattern in sig.patterns:
            for position in pattern.output_positions:
                term = atom.term_at(position)
                if isinstance(term, Variable):
                    bindable.add(term)
    all_variables = query.body_variables
    return frozenset(all_variables - bindable)


def _directly_callable_patterns(sig: ServiceSignature) -> tuple[AccessPattern, ...]:
    """Patterns with no input fields (seeders must start from nothing)."""
    return tuple(p for p in sig.patterns if not p.input_positions)


def seeder_candidates(
    schema: Schema, domain: str, exclude: frozenset[str]
) -> tuple[tuple[ServiceSignature, AccessPattern, int], ...]:
    """(signature, pattern, output position) triples seeding *domain*."""
    found = []
    for sig in schema:
        if sig.name in exclude:
            continue
        for pattern in _directly_callable_patterns(sig):
            for position in pattern.output_positions:
                if sig.domain_of(position) == domain:
                    found.append((sig, pattern, position))
                    break
    return tuple(found)


def _fresh_variable(base: str, taken: set[str]) -> Variable:
    name = base
    counter = 0
    while name in taken:
        counter += 1
        name = f"{base}_{counter}"
    taken.add(name)
    return Variable(name)


def _seeder_atom(
    sig: ServiceSignature,
    seed_position: int,
    variable: Variable,
    taken: set[str],
) -> Atom:
    terms = []
    for position in range(sig.arity):
        if position == seed_position:
            terms.append(variable)
        else:
            terms.append(
                _fresh_variable(f"{sig.name.capitalize()}{position}", taken)
            )
    return Atom(sig.name, tuple(terms))


def expand_query(query: ConjunctiveQuery, schema: Schema) -> ExpandedQuery:
    """Make *query* executable, adding off-query seeders if needed.

    Returns the query unchanged when it is already executable.  Raises
    :class:`ExpansionError` when one round of seeding cannot help.
    """
    if permissible_sequences(query, schema):
        return ExpandedQuery(original=query, query=query, added_atoms=())
    domains = variable_domains(query, schema)
    blocked = blocked_variables(query, schema)
    query_services = frozenset(query.services)
    taken = {v.name for v in query.body_variables}

    per_variable: list[tuple[Variable, tuple]] = []
    for variable in sorted(blocked, key=lambda v: v.name):
        candidates = seeder_candidates(schema, domains[variable], query_services)
        if not candidates:
            raise ExpansionError(
                f"no off-query service outputs domain {domains[variable]!r} "
                f"for blocked variable {variable}"
            )
        per_variable.append((variable, candidates))

    # Try combinations of one seeder per blocked variable (usually one).
    for combination in itertools.product(
        *[candidates for _, candidates in per_variable]
    ):
        # One name pool per combination: two seeders never share a
        # fresh variable, which would join them on it.
        used = set(taken)
        added = tuple(
            _seeder_atom(sig, position, variable, used)
            for (variable, _), (sig, _, position) in zip(per_variable, combination)
        )
        expanded = ConjunctiveQuery(
            name=query.name,
            head=query.head,
            atoms=query.atoms + added,
            predicates=query.predicates,
        )
        if permissible_sequences(expanded, schema):
            return ExpandedQuery(original=query, query=expanded, added_atoms=added)
    raise ExpansionError(
        "seeding every blocked variable still leaves the query non-executable "
        "(a recursive expansion would be required)"
    )

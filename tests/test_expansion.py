"""Tests for off-query expansion (Section 7's oldTown example)."""

import pytest

from repro.extensions.expansion import (
    ExpansionError,
    blocked_variables,
    expand_query,
    seeder_candidates,
    variable_domains,
)
from repro.model.atoms import atom
from repro.model.query import query
from repro.model.schema import Schema, schema_of, signature
from repro.model.terms import Variable
from repro.optimizer.patterns import permissible_sequences


@pytest.fixture()
def blocked_schema():
    """weather and hotel both need City in input; oldTown outputs Cities."""
    return schema_of(
        [
            signature("weather", ["City", "Temperature"], ["io"]),
            signature("hotel", ["City", "Name", "Price"], ["ioo"]),
            signature("oldTown", ["City"], ["o"]),
        ]
    )


@pytest.fixture()
def blocked_query():
    return query(
        "q",
        [Variable("City"), Variable("Name")],
        [
            atom("weather", "City", "Temperature"),
            atom("hotel", "City", "Name", "Price"),
        ],
    )


class TestDiagnostics:
    def test_variable_domains(self, blocked_schema, blocked_query):
        domains = variable_domains(blocked_query, blocked_schema)
        assert domains[Variable("City")] == "City"
        assert domains[Variable("Price")] == "Price"

    def test_blocked_variables(self, blocked_schema, blocked_query):
        assert blocked_variables(blocked_query, blocked_schema) == {
            Variable("City")
        }

    def test_seeder_candidates(self, blocked_schema):
        candidates = seeder_candidates(
            blocked_schema, "City", exclude=frozenset({"weather", "hotel"})
        )
        assert [sig.name for sig, _, _ in candidates] == ["oldTown"]

    def test_seeders_must_be_directly_callable(self):
        schema = schema_of(
            [
                signature("weather", ["City", "T"], ["io"]),
                signature("lookup", ["Key", "City"], ["io"]),  # needs input
            ]
        )
        assert seeder_candidates(schema, "City", frozenset({"weather"})) == ()


class TestExpansion:
    def test_expansion_adds_oldtown(self, blocked_schema, blocked_query):
        expanded = expand_query(blocked_query, blocked_schema)
        assert expanded.is_expansion
        assert [a.service for a in expanded.added_atoms] == ["oldTown"]
        # The seeder binds the blocked variable.
        assert Variable("City") in expanded.added_atoms[0].variable_set

    def test_expanded_query_is_executable(self, blocked_schema, blocked_query):
        expanded = expand_query(blocked_query, blocked_schema)
        assert permissible_sequences(expanded.query, blocked_schema)

    def test_executable_query_returned_unchanged(self, blocked_schema):
        fine = query(
            "q", [Variable("City")], [atom("oldTown", "City")]
        )
        expanded = expand_query(fine, blocked_schema)
        assert not expanded.is_expansion
        assert expanded.query is fine

    def test_two_seeders_share_no_fresh_variable(self):
        """Each blocked domain gets its own seeder atom; their fresh
        variables are distinct, so the seeders are not joined on them."""
        schema = schema_of(
            [
                signature("weather", ["City", "Day", "T"], ["iio"]),
                signature("place", ["City", "Day", "Note"], ["ooo"]),
            ]
        )
        blocked = query(
            "q", [Variable("T")], [atom("weather", "City", "Day", "T")]
        )
        first, second = expand_query(blocked, schema).added_atoms
        assert Variable("City") in first.variable_set
        assert Variable("Day") in second.variable_set
        assert not first.variable_set & second.variable_set

    def test_no_seeder_raises(self, blocked_query):
        schema = schema_of(
            [
                signature("weather", ["City", "Temperature"], ["io"]),
                signature("hotel", ["City", "Name", "Price"], ["ioo"]),
            ]
        )
        with pytest.raises(ExpansionError):
            expand_query(blocked_query, schema)

    def test_expansion_answers_are_subset(self, blocked_schema, blocked_query):
        """Execute both on materialized data: expansion ⊆ original."""
        from repro.execution.engine import execute_plan
        from repro.optimizer.optimizer import optimize_query
        from repro.costs.sum_cost import RequestResponseMetric
        from repro.services.profile import exact_profile
        from repro.services.registry import ServiceRegistry
        from repro.services.table import TableExactService

        registry = ServiceRegistry()
        registry.register(
            TableExactService(
                blocked_schema.get("weather"),
                exact_profile(erspi=1.0, response_time=1.0),
                [("Roma", 30), ("Siena", 25), ("Milano", 20)],
            )
        )
        registry.register(
            TableExactService(
                blocked_schema.get("hotel"),
                exact_profile(erspi=2.0, response_time=1.0),
                [("Roma", "Grand", 100), ("Siena", "Antica", 80),
                 ("Milano", "Duomo Inn", 120)],
            )
        )
        registry.register(
            TableExactService(
                blocked_schema.get("oldTown"),
                exact_profile(erspi=2.0, response_time=1.0),
                [("Roma",), ("Siena",)],  # only a subset of all cities
            )
        )
        expanded = expand_query(blocked_query, blocked_schema)
        best = optimize_query(
            expanded.query, registry, RequestResponseMetric(), k=1
        )
        result = execute_plan(best.plan, registry, head=blocked_query.head)
        answers = set(result.answers())
        # Subset semantics: Milano is a valid answer of the original
        # query but oldTown does not provide it.
        assert answers == {("Roma", "Grand"), ("Siena", "Antica")}

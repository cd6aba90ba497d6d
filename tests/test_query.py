"""Unit tests for conjunctive queries (safety, joins, multi-domain)."""

import pytest

from repro.model.atoms import atom
from repro.model.predicates import comparison
from repro.model.query import ConjunctiveQuery, QueryError, query
from repro.model.schema import schema_of, signature
from repro.model.terms import Variable


@pytest.fixture()
def two_atom_query():
    return query(
        "q",
        [Variable("City"), Variable("Spot")],
        [atom("cities", "it", "City"), atom("spots", "City", "Spot", "Score")],
        [comparison("Score", ">=", 7)],
    )


class TestSafety:
    def test_head_variable_must_occur_in_body(self):
        with pytest.raises(QueryError):
            query("q", [Variable("Nope")], [atom("s", "X")])

    def test_predicate_variables_must_occur_in_body(self):
        with pytest.raises(QueryError):
            query("q", [Variable("X")], [atom("s", "X")], [comparison("Y", ">", 1)])

    def test_empty_body_rejected(self):
        with pytest.raises(QueryError):
            query("q", [], [])

    def test_empty_head_allowed(self):
        boolean_query = query("q", [], [atom("s", "X")])
        assert boolean_query.arity == 0


class TestAccessors:
    def test_arity(self, two_atom_query):
        assert two_atom_query.arity == 2

    def test_body_variables(self, two_atom_query):
        assert two_atom_query.body_variables == {
            Variable("City"), Variable("Spot"), Variable("Score")
        }

    def test_services_with_repeats(self):
        repeated = query(
            "q", [Variable("X")], [atom("s", "X"), atom("s", "X")]
        )
        assert repeated.services == ("s", "s")

    def test_is_multi_domain(self, two_atom_query):
        assert len(set(two_atom_query.services)) > 1
        single = query("q", [Variable("X")], [atom("s", "X")])
        assert not len(set(single.services)) > 1

    def test_str_rendering(self, two_atom_query):
        text = str(two_atom_query)
        assert text.startswith("q(City, Spot) :- ")
        assert "cities('it', City)" in text
        assert "Score >= 7" in text


class TestThroughPlans:
    """What a query says about joins and predicates, as plans use it."""

    def test_join_variables(self, registry, travel_query):
        from repro.plans.builder import PlanBuilder
        from repro.sources.travel import alpha1_patterns, poset_optimal

        plan = PlanBuilder(travel_query, registry).build(
            alpha1_patterns(), poset_optimal()
        )
        (join,) = plan.join_nodes
        flight, hotel, conf, weather = (a.variable_set for a in travel_query.atoms)
        prefix = conf | weather
        assert join.variables == (prefix | flight) & (prefix | hotel)
        assert Variable("City") in join.variables

    def test_atoms_with_variable(self, two_atom_query):
        from repro.extensions.expansion import variable_domains

        schema = schema_of(
            [
                signature("cities", ["Country", "City"], ["io"]),
                signature("spots", ["Town", "Spot", "Score"], ["ioo"]),
            ]
        )
        # City occurs in both atoms; its first occurrence names its domain.
        domains = variable_domains(two_atom_query, schema)
        assert domains[Variable("City")] == "City"
        assert domains[Variable("Score")] == "Score"

    def test_predicates_on(self, tiny_registry, tiny_query):
        from repro.plans.builder import PlanBuilder
        from repro.testing import chain_poset

        builder = PlanBuilder(tiny_query, tiny_registry)
        patterns = tuple(
            tiny_registry.signature(a.service).patterns[0] for a in tiny_query.atoms
        )
        plan = builder.build(patterns, chain_poset(2, [0, 1]))
        cities, spots = (plan.service_node_for_atom(k) for k in (0, 1))
        # Score >= 7 waits for the node that binds Score.
        assert cities.predicates == ()
        assert spots.predicates == tiny_query.predicates
        assert plan.output_node.residual_predicates == ()


class TestSchemaValidation:
    def test_validate_against_schema(self, two_atom_query):
        schema = schema_of(
            [
                signature("cities", ["Country", "City"], ["io"]),
                signature("spots", ["City", "Spot", "Score"], ["ioo"]),
            ]
        )
        two_atom_query.validate_against(schema)  # should not raise

    def test_validate_detects_arity_mismatch(self, two_atom_query):
        schema = schema_of(
            [
                signature("cities", ["Country"], ["i"]),
                signature("spots", ["City", "Spot", "Score"], ["ioo"]),
            ]
        )
        with pytest.raises(Exception):
            two_atom_query.validate_against(schema)


class TestRunningExample:
    def test_running_example_shape(self):
        from repro.sources.travel import running_example_query

        q = running_example_query()
        assert len(set(q.services)) > 1
        assert len(q.atoms) == 4
        assert q.services == ("flight", "hotel", "conf", "weather")
        assert len(q.predicates) == 4
        shared = [
            v for v in q.body_variables
            if sum(v in a.variable_set for a in q.atoms) > 1
        ]
        assert {Variable("City"), Variable("Start")} <= set(shared)

"""Unit tests for the plan builder (posets → executable DAGs)."""

import pytest

from repro.model.terms import Variable
from repro.plans.builder import PlanBuilder, Poset
from repro.plans.dag import PlanError
from repro.plans.nodes import JoinNode, ServiceNode
from repro.services.registry import JoinMethod
from repro.sources.travel import (
    CONF_ATOM,
    FLIGHT_ATOM,
    HOTEL_ATOM,
    WEATHER_ATOM,
    alpha1_patterns,
    poset_optimal,
    poset_parallel,
    poset_serial,
    running_example_query,
)
from repro.testing import chain_poset


@pytest.fixture()
def builder(registry, travel_query):
    return PlanBuilder(travel_query, registry)


class TestTinyPlans:
    def test_two_atom_chain(self, tiny_registry, tiny_query):
        builder = PlanBuilder(tiny_query, tiny_registry)
        patterns = (
            tiny_registry.signature("cities").pattern("io"),
            tiny_registry.signature("spots").pattern("ioo"),
        )
        plan = builder.build(patterns, chain_poset(2, [0, 1]))
        plan.validate()
        assert len(plan.service_nodes) == 2
        assert len(plan.join_nodes) == 0  # pure pipe join

    def test_predicate_assigned_to_earliest_node(self, tiny_registry, tiny_query):
        builder = PlanBuilder(tiny_query, tiny_registry)
        patterns = (
            tiny_registry.signature("cities").pattern("io"),
            tiny_registry.signature("spots").pattern("ioo"),
        )
        plan = builder.build(patterns, chain_poset(2, [0, 1]))
        spots_node = plan.service_node_for_atom(1)
        assert len(spots_node.predicates) == 1  # Score >= 7 lands on spots

    def test_callability_enforced(self, tiny_registry, tiny_query):
        builder = PlanBuilder(tiny_query, tiny_registry)
        patterns = (
            tiny_registry.signature("cities").pattern("io"),
            tiny_registry.signature("spots").pattern("ioo"),
        )
        # spots first: City unbound -> not callable
        with pytest.raises(PlanError):
            builder.build(patterns, chain_poset(2, [1, 0]))

    def test_fetches_applied_to_chunked_nodes(self, tiny_registry, tiny_query):
        builder = PlanBuilder(tiny_query, tiny_registry)
        patterns = (
            tiny_registry.signature("cities").pattern("io"),
            tiny_registry.signature("spots").pattern("ioo"),
        )
        plan = builder.build(patterns, chain_poset(2, [0, 1]), fetches={1: 3})
        assert plan.service_node_for_atom(1).fetches == 3
        assert plan.service_node_for_atom(0).fetches == 1  # bulk stays 1


class TestRunningExamplePlans:
    def test_serial_plan_is_pure_chain(self, builder):
        plan = builder.build(alpha1_patterns(), poset_serial())
        assert len(plan.join_nodes) == 0
        assert len(plan.path_positions()) == 1

    def test_optimal_plan_has_one_merge_scan(self, builder):
        plan = builder.build(alpha1_patterns(), poset_optimal())
        joins = plan.join_nodes
        assert len(joins) == 1
        assert joins[0].method is JoinMethod.MERGE_SCAN

    def test_parallel_plan_has_two_joins(self, builder):
        plan = builder.build(alpha1_patterns(), poset_parallel())
        assert len(plan.join_nodes) == 2

    def test_optimal_plan_wiring(self, builder):
        plan = builder.build(alpha1_patterns(), poset_optimal())
        weather = plan.service_node_for_atom(WEATHER_ATOM)
        flight = plan.service_node_for_atom(FLIGHT_ATOM)
        hotel = plan.service_node_for_atom(HOTEL_ATOM)
        assert {n.node_id for n in plan.successors(weather)} == {
            flight.node_id, hotel.node_id
        }
        join = plan.join_nodes[0]
        assert {n.node_id for n in plan.predecessors(join)} == {
            flight.node_id, hotel.node_id
        }

    def test_price_predicate_lands_on_join_in_plan_o(self, builder):
        plan = builder.build(alpha1_patterns(), poset_optimal())
        join = plan.join_nodes[0]
        rendered = [str(p) for p in join.predicates]
        assert any("FPrice + HPrice" in text for text in rendered)
        assert join.selectivity == pytest.approx(0.01)

    def test_price_predicate_lands_on_hotel_in_serial_plan(self, builder):
        plan = builder.build(alpha1_patterns(), poset_serial())
        hotel = plan.service_node_for_atom(HOTEL_ATOM)
        rendered = [str(p) for p in hotel.predicates]
        assert any("FPrice + HPrice" in text for text in rendered)

    def test_temperature_predicate_on_weather(self, builder):
        plan = builder.build(alpha1_patterns(), poset_optimal())
        weather = plan.service_node_for_atom(WEATHER_ATOM)
        assert any("Temperature" in str(p) for p in weather.predicates)

    def test_conf_first_in_all_plans(self, builder):
        for poset in (poset_serial(), poset_parallel(), poset_optimal()):
            plan = builder.build(alpha1_patterns(), poset)
            first = plan.successors(plan.input_node)
            assert len(first) == 1
            assert isinstance(first[0], ServiceNode)
            assert first[0].atom_index == CONF_ATOM


class TestValidationErrors:
    def test_pattern_count_mismatch(self, builder):
        with pytest.raises(PlanError):
            builder.build(alpha1_patterns()[:2], poset_serial())

    def test_poset_size_mismatch(self, builder):
        with pytest.raises(PlanError):
            builder.build(alpha1_patterns(), Poset(n=2))

    def test_non_callable_order_rejected(self, builder):
        # weather first: City unbound.
        bad = chain_poset(4, [WEATHER_ATOM, CONF_ATOM, FLIGHT_ATOM, HOTEL_ATOM])
        with pytest.raises(PlanError):
            builder.build(alpha1_patterns(), bad)


class TestJoinVariables:
    def test_join_variables_cover_branch_overlap(self, builder):
        plan = builder.build(alpha1_patterns(), poset_optimal())
        join = plan.join_nodes[0]
        assert Variable("City") in join.variables
        assert Variable("Start") in join.variables

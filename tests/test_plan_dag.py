"""Unit tests for the plan DAG container."""

import pytest

from repro.model.atoms import atom
from repro.model.schema import AccessPattern
from repro.plans.dag import PlanError, QueryPlan
from repro.plans.nodes import InputNode, JoinNode, OutputNode, ServiceNode
from repro.services.profile import exact_profile
from repro.services.registry import JoinMethod


def _service_node(name="s", index=0):
    return ServiceNode(
        atom_index=index,
        atom=atom(name, "X"),
        pattern=AccessPattern("o"),
        profile=exact_profile(erspi=2.0, response_time=1.0),
    )


@pytest.fixture()
def linear_plan():
    plan = QueryPlan()
    start = plan.add_node(InputNode())
    first = plan.add_node(_service_node("a", 0))
    second = plan.add_node(_service_node("b", 1))
    end = plan.add_node(OutputNode())
    plan.add_arc(start, first)
    plan.add_arc(first, second)
    plan.add_arc(second, end)
    return plan


@pytest.fixture()
def diamond_plan():
    plan = QueryPlan()
    start = plan.add_node(InputNode())
    root = plan.add_node(_service_node("root", 0))
    left = plan.add_node(_service_node("left", 1))
    right = plan.add_node(_service_node("right", 2))
    join = plan.add_node(JoinNode(method=JoinMethod.MERGE_SCAN))
    end = plan.add_node(OutputNode())
    plan.add_arc(start, root)
    plan.add_arc(root, left)
    plan.add_arc(root, right)
    plan.add_arc(left, join)
    plan.add_arc(right, join)
    plan.add_arc(join, end)
    return plan


class TestConstruction:
    def test_single_input_enforced(self):
        plan = QueryPlan()
        plan.add_node(InputNode())
        with pytest.raises(PlanError):
            plan.add_node(InputNode())

    def test_single_output_enforced(self):
        plan = QueryPlan()
        plan.add_node(OutputNode())
        with pytest.raises(PlanError):
            plan.add_node(OutputNode())

    def test_duplicate_node_rejected(self):
        plan = QueryPlan()
        node = _service_node()
        plan.add_node(node)
        with pytest.raises(PlanError):
            plan.add_node(node)

    def test_arc_requires_registered_nodes(self):
        plan = QueryPlan()
        inside = plan.add_node(InputNode())
        outside = _service_node()
        with pytest.raises(PlanError):
            plan.add_arc(inside, outside)

    def test_duplicate_arcs_are_idempotent(self, linear_plan):
        first = linear_plan.service_nodes[0]
        second = linear_plan.service_nodes[1]
        before = linear_plan.successors(first)
        linear_plan.add_arc(first, second)
        assert linear_plan.successors(first) == before


class TestAccessors:
    def test_node_kinds(self, diamond_plan):
        assert len(diamond_plan.service_nodes) == 3
        assert len(diamond_plan.join_nodes) == 1
        assert len(diamond_plan) == 6

    def test_service_node_for_atom(self, diamond_plan):
        assert diamond_plan.service_node_for_atom(2).service_name == "right"
        with pytest.raises(PlanError):
            diamond_plan.service_node_for_atom(9)

    def test_predecessors_successors(self, diamond_plan):
        join = diamond_plan.join_nodes[0]
        assert {n.service_name for n in diamond_plan.predecessors(join)} == {
            "left", "right"
        }
        assert diamond_plan.successors(join) == (diamond_plan.output_node,)


class TestGraphAlgorithms:
    def test_topological_order(self, diamond_plan):
        order = [n.node_id for n in diamond_plan.topological_order()]
        position = {nid: k for k, nid in enumerate(order)}
        for origin in diamond_plan:
            for destination in diamond_plan.successors(origin):
                assert position[origin.node_id] < position[destination.node_id]

    def test_cycle_detection(self):
        plan = QueryPlan()
        first = plan.add_node(_service_node("a", 0))
        second = plan.add_node(_service_node("b", 1))
        plan.add_arc(first, second)
        plan.add_arc(second, first)
        with pytest.raises(PlanError):
            plan.topological_order()

    def test_paths_linear(self, linear_plan):
        assert linear_plan.path_positions() == ((0, 1, 2, 3),)

    def test_paths_diamond(self, diamond_plan):
        paths = diamond_plan.path_positions()
        assert sorted(paths) == [(0, 1, 2, 4, 5), (0, 1, 3, 4, 5)]

    def test_ancestors_descendants(self, diamond_plan):
        join = diamond_plan.join_nodes[0]
        ancestor_names = {
            diamond_plan.node(i).label for i in diamond_plan.ancestors(join)
        }
        assert "IN" in ancestor_names
        root = diamond_plan.service_node_for_atom(0)
        assert diamond_plan.output_node.node_id in diamond_plan.descendants(root)

    def test_upstream_service_nodes(self, linear_plan):
        def upstream(node):
            ancestors = linear_plan.ancestors(node)
            return {
                n.service_name
                for n in linear_plan.service_nodes
                if n.node_id in ancestors
            }

        first = linear_plan.service_nodes[0]
        assert upstream(linear_plan.output_node) == {"a", "b"}
        assert upstream(first) == set()

    def test_ancestors_of_a_join_are_both_branches(self, diamond_plan):
        join = diamond_plan.join_nodes[0]
        ancestors = diamond_plan.ancestors(join)
        names = {n.service_name for n in diamond_plan.service_nodes if n.node_id in ancestors}
        assert names == {"root", "left", "right"}


class TestValidation:
    def test_valid_plans_pass(self, linear_plan, diamond_plan):
        linear_plan.validate()
        diamond_plan.validate()

    def test_unreachable_node_detected(self, linear_plan):
        linear_plan.add_node(_service_node("stray", 7))
        with pytest.raises(PlanError):
            linear_plan.validate()

    def test_join_arity_enforced(self):
        plan = QueryPlan()
        start = plan.add_node(InputNode())
        join = plan.add_node(JoinNode())
        end = plan.add_node(OutputNode())
        plan.add_arc(start, join)
        plan.add_arc(join, end)
        with pytest.raises(PlanError):
            plan.validate()

    def test_missing_input_node(self):
        plan = QueryPlan()
        plan.add_node(OutputNode())
        with pytest.raises(PlanError):
            plan.validate()

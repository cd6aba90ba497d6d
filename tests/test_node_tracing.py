"""Tests for per-node execution tracing (estimated vs actual flow).

A node id is its plan position and a program step's index the same
position, so the estimate of a node and the ledger's columns of its
step are read by one key.
"""

import pytest

from repro.execution.cache import CacheSetting

from repro.execution.engine import ExecutionEngine
from repro.execution.program import SERVICE
from repro.plans.annotate import annotate
from repro.plans.builder import PlanBuilder
from repro.sources.travel import (
    CONF_ATOM,
    FLIGHT_ATOM,
    HOTEL_ATOM,
    WEATHER_ATOM,
    alpha1_patterns,
    poset_optimal,
    poset_serial,
)


@pytest.fixture()
def traced(registry, travel_query):
    plan = PlanBuilder(travel_query, registry).build(
        alpha1_patterns(), poset_serial(),
        fetches={FLIGHT_ATOM: 1, HOTEL_ATOM: 1},
    )
    result = ExecutionEngine(registry, cache_setting=CacheSetting.NO_CACHE).execute(
        plan, head=travel_query.head
    )
    return plan, result


def _rows_out(result, node):
    """The rows *node*'s step emitted, off the ledger."""
    (step,) = [step for step in result.program.steps if step.node_id == node.node_id]
    return result.stats.rows_out[step.index]


class TestNodeTracing:
    def test_sizes_collected_for_every_node(self, traced):
        plan, result = traced
        for node in plan.nodes:
            assert _rows_out(result, node) >= 0

    def test_known_flow_values(self, traced):
        """The Section 6 narrative, node by node, in plan S."""
        plan, result = traced
        assert _rows_out(result, plan.input_node) == 1
        assert _rows_out(result, plan.service_node_for_atom(CONF_ATOM)) == 71
        assert _rows_out(result, plan.service_node_for_atom(WEATHER_ATOM)) == 16
        assert _rows_out(result, plan.service_node_for_atom(FLIGHT_ATOM)) == 284

    def test_estimates_and_actuals_have_same_shape(
        self, registry, travel_query, traced
    ):
        """Estimated t_out orders the nodes the same way the executed
        flow does (the estimate uses average profiles, the execution
        the concrete 'DB' data), and each service step's predicted
        calls pair with its observed ones by step index."""
        plan = PlanBuilder(travel_query, registry).build(
            alpha1_patterns(), poset_optimal(),
            fetches={FLIGHT_ATOM: 1, HOTEL_ATOM: 1},
        )
        annotation = annotate(plan, CacheSetting.NO_CACHE)
        result = ExecutionEngine(registry).execute(plan, head=travel_query.head)
        service_nodes = plan.service_nodes
        estimated = sorted(
            service_nodes, key=lambda n: annotation.tuples_out(n)
        )
        actual = sorted(
            service_nodes, key=lambda n: _rows_out(result, n)
        )
        # weather smallest, conf middle, searches largest in both.
        assert estimated[0].service_name == actual[0].service_name == "weather"

        plan, result = traced
        annotation = annotate(plan, CacheSetting.NO_CACHE)
        nodes = {node.node_id: node for node in plan.nodes}
        cells = result.stats.cells
        pairs = {
            step.binding.service_name: (
                annotation.calls(nodes[step.node_id]),
                sum(cell.calls for (index, _), cell in cells.items()
                    if index == step.index),
            )
            for step in result.program.steps
            if step.kind == SERVICE
        }
        # Observed: Figure 11's plan S without cache.  Only the
        # input-fed step is predicted exactly; the pairs show by how
        # much the estimate misses every other step.
        assert pairs == {
            "conf": (1.0, 1),
            "weather": (20.0, 71),
            "flight": (1.0, 16),
            "hotel": (25.0, 284),
        }

    def test_output_node_matches_row_count(self, traced):
        plan, result = traced
        assert _rows_out(result, plan.output_node) == len(result.rows)

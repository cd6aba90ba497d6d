"""Unit and integration tests for the execution engine."""

import pytest

from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine, ExecutionError
from repro.experiments.figure11 import ThreadedEngine
from repro.model.predicates import Comparison
from repro.model.terms import Constant, Variable
from repro.plans.builder import PlanBuilder
from repro.services.registry import JoinMethod
from repro.sources.travel import (
    FLIGHT_ATOM,
    HOTEL_ATOM,
    alpha1_patterns,
    poset_optimal,
    poset_parallel,
    poset_serial,
)
from repro.testing import chain_poset, reference_execute


@pytest.fixture()
def tiny_plan(tiny_registry, tiny_query):
    return PlanBuilder(tiny_query, tiny_registry).build(
        (
            tiny_registry.signature("cities").pattern("io"),
            tiny_registry.signature("spots").pattern("ioo"),
        ),
        chain_poset(2, [0, 1]),
        fetches={1: 2},
    )


class TestTinyExecution:
    def test_answers_correct(self, tiny_registry, tiny_query, tiny_plan):
        result = ExecutionEngine(tiny_registry).execute(tiny_plan, head=tiny_query.head)
        answers = set(result.answers())
        # Italian cities with spots scoring >= 7, within 2 chunks of 2.
        assert answers == {
            ("Roma", "Colosseo"), ("Roma", "Pantheon"), ("Roma", "Trastevere"),
            ("Milano", "Duomo"),
        }

    def test_pipe_join_passes_parameters(self, tiny_registry, tiny_plan):
        result = ExecutionEngine(tiny_registry).execute(tiny_plan)
        stats = result.stats
        assert stats.calls("cities") == 1
        assert stats.calls("spots") == 3  # Roma, Milano, Torino

    def test_fetch_stops_when_exhausted(self, tiny_registry, tiny_plan):
        result = ExecutionEngine(tiny_registry).execute(tiny_plan)
        # Milano has 2 spots (one chunk), Torino none: fewer fetches
        # than calls * F.
        assert result.stats.service("spots").fetches == 4  # 2 + 1 + 1

    def test_ranking_order(self, tiny_registry, tiny_query, tiny_plan):
        result = ExecutionEngine(tiny_registry).execute(tiny_plan, head=tiny_query.head)
        spots_in_order = [t[1] for t in result.answers() if t[0] == "Roma"]
        assert spots_in_order == ["Colosseo", "Pantheon", "Trastevere"]

    def test_elapsed_of_a_chain_is_the_sum(self, tiny_registry, tiny_plan):
        par = ExecutionEngine(tiny_registry).execute(tiny_plan)
        # The plan is a chain: its critical path is every service.
        assert par.elapsed == pytest.approx(1.0 + 4 * 2.0)


class TestCacheSettings:
    def test_one_call_cache_dedupes_consecutive(self, tiny_registry, tiny_query):
        # Feed spots with a duplicated city by querying all countries
        # through two atoms is overkill; instead verify on the travel
        # plans below.  Here: optimal cache never repeats.
        plan = PlanBuilder(tiny_query, tiny_registry).build(
            (
                tiny_registry.signature("cities").pattern("io"),
                tiny_registry.signature("spots").pattern("ioo"),
            ),
            chain_poset(2, [0, 1]),
        )
        result = ExecutionEngine(
            tiny_registry, cache_setting=CacheSetting.OPTIMAL
        ).execute(plan)
        assert result.stats.calls("spots") == 3


class TestTravelPlans:
    def test_all_three_plans_agree_on_answers(self, registry, travel_query):
        builder = PlanBuilder(travel_query, registry)
        fetches = {FLIGHT_ATOM: 1, HOTEL_ATOM: 1}
        results = {}
        for name, poset in (
            ("S", poset_serial()), ("P", poset_parallel()), ("O", poset_optimal())
        ):
            plan = builder.build(alpha1_patterns(), poset, fetches=fetches)
            outcome = ExecutionEngine(registry).execute(plan, head=travel_query.head)
            results[name] = frozenset(outcome.answers())
        assert results["S"] == results["P"] == results["O"]
        assert len(results["O"]) > 0

    def test_answers_satisfy_predicates(self, registry, travel_query):
        plan = PlanBuilder(travel_query, registry).build(
            alpha1_patterns(), poset_optimal(),
            fetches={FLIGHT_ATOM: 1, HOTEL_ATOM: 1},
        )
        result = ExecutionEngine(registry).execute(plan, head=travel_query.head)
        head_index = {v.name: i for i, v in enumerate(travel_query.head)}
        for answer in result.answers():
            assert answer[head_index["FPrice"]] + answer[head_index["HPrice"]] < 2000

    def test_answers_are_in_hot_cities_with_flights(self, registry, travel_query, world):
        plan = PlanBuilder(travel_query, registry).build(
            alpha1_patterns(), poset_optimal(),
            fetches={FLIGHT_ATOM: 1, HOTEL_ATOM: 1},
        )
        result = ExecutionEngine(registry).execute(plan, head=travel_query.head)
        city_index = [v.name for v in travel_query.head].index("City")
        cities = {answer[city_index] for answer in result.answers()}
        assert cities <= set(world.hot_cities)
        assert "Mombasa" not in cities  # no flights there

    def test_threaded_run_changes_timing_not_answers(
        self, registry, travel_query
    ):
        builder = PlanBuilder(travel_query, registry)
        plan = builder.build(
            alpha1_patterns(), poset_serial(),
            fetches={FLIGHT_ATOM: 1, HOTEL_ATOM: 1},
        )
        parallel = ExecutionEngine(registry).execute(plan, head=travel_query.head)
        threaded = ThreadedEngine(registry).execute(plan, head=travel_query.head)
        assert frozenset(parallel.answers()) == frozenset(threaded.answers())
        assert threaded.elapsed < parallel.elapsed


class TestErrors:
    @pytest.mark.parametrize(
        "k, message",
        (
            (0, "k must be >= 1, got 0"),
            (-1, "k must be >= 1, got -1"),
            (2.5, "k must be an int, got 2.5"),
            (True, "k must be an int, got True"),
        ),
    )
    def test_k_is_a_count_of_answers(self, tiny_registry, tiny_plan, k, message):
        """``k`` is checked where it is read: unchecked, a negative
        ``k`` would slice the table to all but its last rows and a
        float die in a slice with an untyped error."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExecutionEngine(tiny_registry).execute(tiny_plan, k=k)

    def test_unbound_input_variable(self, tiny_registry, tiny_query):
        from repro.plans.dag import QueryPlan
        from repro.plans.nodes import InputNode, OutputNode, ServiceNode

        plan = QueryPlan()
        start = plan.add_node(InputNode())
        node = ServiceNode(
            atom_index=1,
            atom=tiny_query.atoms[1],
            pattern=tiny_registry.signature("spots").pattern("ioo"),
            profile=tiny_registry.profile("spots"),
        )
        plan.add_node(node)
        end = plan.add_node(OutputNode())
        plan.add_arc(start, node)
        plan.add_arc(node, end)
        engine = ExecutionEngine(tiny_registry)
        with pytest.raises(ExecutionError):
            engine.execute(plan)


class _CountingBound(int):
    """An int that counts how often ``value < bound`` is evaluated."""

    evaluations = 0

    def __gt__(self, other):  # ``value < bound`` tries the subclass first
        type(self).evaluations += 1
        return int.__gt__(self, other)

    __hash__ = int.__hash__


class TestResidualPredicatesRunOncePerRow:
    """Regression: in a top-k walk the residual predicates ran inside
    the ``JoinStream`` walk *and again* in the output node, on the rows
    the stream had already filtered.  A full scan drains the same
    stream, so the terminal join's ``rows_out`` counts the rows after
    the residual, and the number of join rows the residual is
    evaluated on is the reference's count at the join."""

    def _plan_with_residual(self):
        from tests.test_property_streaming import _random_table_plan

        registry, query, plan = _random_table_plan(
            [0, 1, 0, 1, 0], [0, 0, 1, 1, 0], JoinMethod.MERGE_SCAN
        )
        _CountingBound.evaluations = 0
        plan.output_node.residual_predicates = (
            Comparison(Variable("L"), "<", Constant(_CountingBound(3))),
        )
        return registry, query, plan

    def test_streamed_join_rows_pass_the_output_node_untouched(self):
        registry, query, plan = self._plan_with_residual()
        (join,) = plan.join_nodes
        join_rows = reference_execute(plan, registry).rows_out[
            plan.topological_order().index(join)
        ]
        _CountingBound.evaluations = 0
        streamed = ExecutionEngine(registry).execute(plan, head=query.head, k=3)
        assert len(streamed.rows) == 3
        assert _CountingBound.evaluations <= join_rows
        streamed.stream.top(None)  # a resume evaluates only the new cells
        # Once per join row over both rounds: the output node added none.
        assert _CountingBound.evaluations == join_rows

    def test_full_materialization_evaluates_once_per_join_row(self):
        registry, query, plan = self._plan_with_residual()
        reference = reference_execute(plan, registry)
        _CountingBound.evaluations = 0
        full = ExecutionEngine(registry).execute(plan, head=query.head)
        (join,) = plan.join_nodes
        index = plan.topological_order().index(join)
        assert _CountingBound.evaluations == reference.rows_out[index]
        assert full.stats.rows_out[index] == reference.rows_out[-1]
        assert all(row.value(Variable("L")) < 3 for row in full.rows)

"""Unit tests for the cost metrics (Eq. 3, Eq. 4, bottleneck, TTS)."""

import pytest

from repro.costs.sum_cost import (
    MonetaryCostMetric,
    RequestResponseMetric,
    SumCostMetric,
)
from repro.costs.time_cost import (
    BottleneckMetric,
    ExecutionTimeMetric,
    TimeToScreenMetric,
)
from repro.execution.cache import CacheSetting
from repro.plans.annotate import annotate
from repro.plans.builder import PlanBuilder
from repro.sources.travel import (
    CONF_TAU,
    FLIGHT_ATOM,
    FLIGHT_TAU,
    HOTEL_ATOM,
    HOTEL_TAU,
    WEATHER_TAU,
    alpha1_patterns,
    poset_optimal,
    poset_parallel,
    poset_serial,
)


@pytest.fixture()
def builder(registry, travel_query):
    return PlanBuilder(travel_query, registry)


def _costed(builder, poset, fetches, metric, cache=CacheSetting.ONE_CALL):
    plan = builder.build(alpha1_patterns(), poset, fetches=fetches)
    annotation = annotate(plan, cache)
    return metric.cost(plan, annotation), plan, annotation


class TestExecutionTimeMetric:
    def test_plan_o_value(self, builder):
        # Paths: conf(1.2) -> weather(20 calls * 1.5 = 30 busy) ->
        # flight(3 * 1 * 9.7 = 29.1) -> MS -> OUT.  Bottleneck is
        # weather (30); fill/drain adds τ_conf + τ_flight.
        cost, _, _ = _costed(
            builder, poset_optimal(), {FLIGHT_ATOM: 3, HOTEL_ATOM: 4},
            ExecutionTimeMetric(),
        )
        expected = 30 + CONF_TAU + FLIGHT_TAU
        assert cost == pytest.approx(expected)

    def test_serial_plan_value(self, builder):
        # Eq. 7 pushes fetching downstream: F_flight=1, F_hotel=8.
        cost, _, _ = _costed(
            builder, poset_serial(), {FLIGHT_ATOM: 1, HOTEL_ATOM: 8},
            ExecutionTimeMetric(),
        )
        expected = 8 * 1 * HOTEL_TAU + CONF_TAU + WEATHER_TAU + FLIGHT_TAU
        assert cost == pytest.approx(expected)

    def test_ordering_o_beats_s_beats_p(self, builder):
        metric = ExecutionTimeMetric()
        cost_o, _, _ = _costed(
            builder, poset_optimal(), {FLIGHT_ATOM: 3, HOTEL_ATOM: 4}, metric
        )
        cost_s, _, _ = _costed(
            builder, poset_serial(), {FLIGHT_ATOM: 1, HOTEL_ATOM: 8}, metric
        )
        cost_p, _, _ = _costed(
            builder, poset_parallel(), {FLIGHT_ATOM: 3, HOTEL_ATOM: 4}, metric
        )
        assert cost_o < cost_s < cost_p


class TestSumAndRequestResponse:
    def test_request_response_counts_fetches(self, builder):
        cost, plan, annotation = _costed(
            builder, poset_optimal(), {FLIGHT_ATOM: 3, HOTEL_ATOM: 4},
            RequestResponseMetric(),
        )
        manual = sum(
            annotation.calls(node) * node.fetches for node in plan.service_nodes
        )
        assert cost == pytest.approx(manual)

    def test_sum_cost_uses_per_call_prices(self, builder, registry):
        plan = builder.build(
            alpha1_patterns(), poset_optimal(),
            fetches={FLIGHT_ATOM: 1, HOTEL_ATOM: 1},
        )
        annotation = annotate(plan, CacheSetting.ONE_CALL)
        # default cost_per_call is 1 and joins are free with
        # cost_per_tuple 0, so SCM == RR here.
        assert SumCostMetric().cost(plan, annotation) == pytest.approx(
            RequestResponseMetric().cost(plan, annotation)
        )

    def test_monetary_ignores_joins(self, builder):
        plan = builder.build(
            alpha1_patterns(), poset_optimal(),
            fetches={FLIGHT_ATOM: 1, HOTEL_ATOM: 1},
        )
        for join in plan.join_nodes:
            join.cost_per_tuple = 0.5
        annotation = annotate(plan, CacheSetting.ONE_CALL)
        assert MonetaryCostMetric().cost(plan, annotation) < SumCostMetric().cost(
            plan, annotation
        )


class TestBottleneckAndTimeToScreen:
    def test_bottleneck_is_max_work(self, builder):
        cost, plan, annotation = _costed(
            builder, poset_optimal(), {FLIGHT_ATOM: 3, HOTEL_ATOM: 4},
            BottleneckMetric(),
        )
        works = [
            node.fetches * annotation.calls(node) * node.profile.response_time
            for node in plan.service_nodes
        ]
        assert cost == pytest.approx(max(works))

    def test_time_to_screen_is_slowest_path_of_taus(self, builder):
        cost, _, _ = _costed(
            builder, poset_optimal(), {FLIGHT_ATOM: 3, HOTEL_ATOM: 4},
            TimeToScreenMetric(),
        )
        # conf + weather + flight (the slower parallel branch)
        assert cost == pytest.approx(CONF_TAU + WEATHER_TAU + FLIGHT_TAU)

    def test_bottleneck_leq_etm(self, builder):
        for poset in (poset_serial(), poset_optimal(), poset_parallel()):
            plan = builder.build(
                alpha1_patterns(), poset, fetches={FLIGHT_ATOM: 2, HOTEL_ATOM: 2}
            )
            annotation = annotate(plan, CacheSetting.ONE_CALL)
            assert BottleneckMetric().cost(plan, annotation) <= (
                ExecutionTimeMetric().cost(plan, annotation) + 1e-9
            )


class TestMonotonicity:
    """Cost metrics are monotonic in plan construction (Section 2.4)."""

    @pytest.mark.parametrize(
        "metric",
        [ExecutionTimeMetric(), RequestResponseMetric(), SumCostMetric(),
         BottleneckMetric(), TimeToScreenMetric()],
        ids=lambda m: m.name,
    )
    def test_prefix_cost_bounds_full_cost(self, registry, metric):
        from repro.model.query import ConjunctiveQuery
        from repro.plans.builder import Poset
        from repro.sources.travel import running_example_query

        query = running_example_query()
        builder = PlanBuilder(query, registry)
        full = builder.build(alpha1_patterns(), poset_serial())
        full_cost = metric.cost(full, annotate(full, CacheSetting.ONE_CALL))

        # Prefix: conf -> weather only (atoms 2, 3 of the body).
        sub_query = ConjunctiveQuery(
            name="q",
            head=(),
            atoms=(query.atoms[2], query.atoms[3]),
            predicates=tuple(
                p for p in query.predicates
                if p.variables <= (
                    query.atoms[2].variable_set | query.atoms[3].variable_set
                )
            ),
        )
        sub_builder = PlanBuilder(sub_query, registry)
        prefix = sub_builder.build(
            (alpha1_patterns()[2], alpha1_patterns()[3]),
            Poset(n=2, pairs=frozenset({(0, 1)})),
        )
        prefix_cost = metric.cost(prefix, annotate(prefix, CacheSetting.ONE_CALL))
        assert prefix_cost <= full_cost + 1e-9

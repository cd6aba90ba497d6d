"""Unit tests for plan annotation: Sections 3.4, 5.2 (incl. Figure 8)."""

import pytest

from repro.execution.cache import CacheSetting
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
    running_example_query,
)
from repro.testing import chain_poset


@pytest.fixture()
def builder(registry, travel_query):
    return PlanBuilder(travel_query, registry)


@pytest.fixture()
def figure8_plan(builder):
    """Plan O with the paper's fetching factors (F_flight=3, F_hotel=4)."""
    return builder.build(
        alpha1_patterns(), poset_optimal(),
        fetches={FLIGHT_ATOM: 3, HOTEL_ATOM: 4},
    )


class TestFigure8:
    """The annotated values printed in Figure 8, reproduced exactly."""

    def test_conf(self, figure8_plan):
        annotation = annotate(figure8_plan, CacheSetting.ONE_CALL)
        conf = figure8_plan.service_node_for_atom(CONF_ATOM)
        assert annotation.tuples_in(conf) == pytest.approx(1)
        assert annotation.tuples_out(conf) == pytest.approx(20)

    def test_weather(self, figure8_plan):
        annotation = annotate(figure8_plan, CacheSetting.ONE_CALL)
        weather = figure8_plan.service_node_for_atom(WEATHER_ATOM)
        assert annotation.tuples_in(weather) == pytest.approx(20)
        assert annotation.tuples_out(weather) == pytest.approx(1)

    def test_flight(self, figure8_plan):
        annotation = annotate(figure8_plan, CacheSetting.ONE_CALL)
        flight = figure8_plan.service_node_for_atom(FLIGHT_ATOM)
        assert annotation.tuples_in(flight) == pytest.approx(1)
        assert annotation.tuples_out(flight) == pytest.approx(75)  # 25 * 3

    def test_hotel(self, figure8_plan):
        annotation = annotate(figure8_plan, CacheSetting.ONE_CALL)
        hotel = figure8_plan.service_node_for_atom(HOTEL_ATOM)
        assert annotation.tuples_in(hotel) == pytest.approx(1)
        assert annotation.tuples_out(hotel) == pytest.approx(20)  # 5 * 4

    def test_merge_scan_join(self, figure8_plan):
        annotation = annotate(figure8_plan, CacheSetting.ONE_CALL)
        join = figure8_plan.join_nodes[0]
        assert annotation.tuples_in(join) == pytest.approx(1500)  # 75 * 20
        assert annotation.tuples_out(join) == pytest.approx(15)  # sigma 0.01

    def test_output_size(self, figure8_plan):
        annotation = annotate(figure8_plan, CacheSetting.ONE_CALL)
        assert annotation.output_size == pytest.approx(15)


class TestCacheAwareCalls:
    """Example 5.1's Eq. 2 computations on the serial plan."""

    def test_serial_plan_calls_with_cache(self, builder):
        plan = builder.build(alpha1_patterns(), poset_serial())
        annotation = annotate(plan, CacheSetting.ONE_CALL)
        # t_in_flight = min(ξ_conf, ξ_conf·ξ_weather) = 20 * 0.05 = 1
        flight = plan.service_node_for_atom(FLIGHT_ATOM)
        assert annotation.calls(flight) == pytest.approx(1)
        # t_in_hotel = min over the path = 1 as well
        hotel = plan.service_node_for_atom(HOTEL_ATOM)
        assert annotation.calls(hotel) == pytest.approx(1)
        # weather has no selective upstream bound below ξ_conf
        weather = plan.service_node_for_atom(WEATHER_ATOM)
        assert annotation.calls(weather) == pytest.approx(20)

    def test_no_cache_calls_equal_stream_size(self, builder):
        plan = builder.build(alpha1_patterns(), poset_serial())
        annotation = annotate(plan, CacheSetting.NO_CACHE)
        flight = plan.service_node_for_atom(FLIGHT_ATOM)
        assert annotation.calls(flight) == pytest.approx(
            annotation.tuples_in(flight)
        )

    def test_constant_only_inputs_need_one_call_with_cache(self, builder):
        plan = builder.build(alpha1_patterns(), poset_serial())
        annotation = annotate(plan, CacheSetting.ONE_CALL)
        conf = plan.service_node_for_atom(CONF_ATOM)
        assert annotation.calls(conf) == pytest.approx(1)

    def test_cached_calls_never_exceed_stream(self, builder):
        plan = builder.build(alpha1_patterns(), poset_serial())
        cached = annotate(plan, CacheSetting.ONE_CALL)
        raw = annotate(plan, CacheSetting.NO_CACHE)
        for node in plan.service_nodes:
            assert cached.calls(node) <= raw.calls(node) + 1e-9


class TestStructuralProperties:
    def test_input_node_injects_one_tuple(self, figure8_plan):
        annotation = annotate(figure8_plan, CacheSetting.NO_CACHE)
        assert annotation.tuples_out(figure8_plan.input_node) == 1.0

    def test_output_equals_last_stream(self, figure8_plan):
        annotation = annotate(figure8_plan, CacheSetting.NO_CACHE)
        out = figure8_plan.output_node
        assert annotation.tuples_in(out) == annotation.tuples_out(out)

    def test_fetches_scale_output_linearly(self, builder):
        small = builder.build(
            alpha1_patterns(), poset_optimal(),
            fetches={FLIGHT_ATOM: 1, HOTEL_ATOM: 1},
        )
        large = builder.build(
            alpha1_patterns(), poset_optimal(),
            fetches={FLIGHT_ATOM: 2, HOTEL_ATOM: 3},
        )
        h_small = annotate(small, CacheSetting.NO_CACHE).output_size
        h_large = annotate(large, CacheSetting.NO_CACHE).output_size
        assert h_large == pytest.approx(h_small * 6)

    def test_bulk_erspi(self, figure8_plan):
        # Ξ over plan O's bulk prefix conf → weather, read per input
        # tuple: ξ_conf · ξ_weather_effective = 20 * 0.05 = 1.
        annotation = annotate(figure8_plan, CacheSetting.NO_CACHE)
        conf = figure8_plan.service_node_for_atom(CONF_ATOM)
        weather = figure8_plan.service_node_for_atom(WEATHER_ATOM)
        assert annotation.tuples_out(weather) / annotation.tuples_in(
            conf
        ) == pytest.approx(1.0)


class TestRebindingSelectivity:
    """Output fields that are constants or rebind bound variables act
    as selections (the execution engine drops mismatches)."""

    def test_constant_output_charged(self, registry, travel_query):
        from repro.sources.travel import HOTEL_ATOM as H

        builder = PlanBuilder(travel_query, registry)
        # α4: conf₂ (city-driven), flight, hotel₂ (all output), weather.
        alpha4 = tuple(
            registry.signature(atom.service).pattern(code)
            for atom, code in zip(
                travel_query.atoms, ("iiiiooo", "oooooo", "ooooi", "ioi")
            )
        )
        # hotel2 (all output) first, then conf2 by city, etc.
        from repro.plans.builder import Poset

        poset = Poset(
            n=4,
            pairs=frozenset({(H, 0), (H, 2), (H, 3), (2, 0), (3, 0)}),
        )
        plan = builder.build(alpha4, poset)
        annotation = annotate(plan, CacheSetting.NO_CACHE)
        hotel = plan.service_node_for_atom(H)
        # 'luxury' sits at an output position: one chunk of 5 tuples is
        # discounted by the equality selectivity 0.1.
        assert annotation.tuples_out(hotel) == pytest.approx(0.5)

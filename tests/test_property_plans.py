"""Property-based tests over the plan space of the running example:
annotation invariants, cache-setting monotonicity, and execution
agreement across all 19 topologies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs.sum_cost import RequestResponseMetric
from repro.costs.time_cost import BottleneckMetric, ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine
from repro.optimizer.topology import TopologyEnumerator
from repro.plans.annotate import annotate
from repro.plans.builder import PlanBuilder
from repro.sources.travel import (
    FLIGHT_ATOM,
    HOTEL_ATOM,
    alpha1_patterns,
    running_example_query,
    travel_registry,
)

_REGISTRY = travel_registry()
_QUERY = running_example_query()
_POSETS = TopologyEnumerator(_QUERY, alpha1_patterns()).all_posets()
_BUILDER = PlanBuilder(_QUERY, _REGISTRY)

poset_indexes = st.integers(0, len(_POSETS) - 1)
fetch_factors = st.integers(1, 4)


class TestAllNineteenTopologies:
    def test_the_space_has_19_posets(self):
        assert len(_POSETS) == 19

    @given(poset_indexes, fetch_factors, fetch_factors)
    @settings(max_examples=40, deadline=None)
    def test_every_plan_validates(self, index, f_flight, f_hotel):
        plan = _BUILDER.build(
            alpha1_patterns(), _POSETS[index],
            fetches={FLIGHT_ATOM: f_flight, HOTEL_ATOM: f_hotel},
        )
        plan.validate()

    @given(poset_indexes, fetch_factors, fetch_factors)
    @settings(max_examples=25, deadline=None)
    def test_annotation_invariants(self, index, f_flight, f_hotel):
        plan = _BUILDER.build(
            alpha1_patterns(), _POSETS[index],
            fetches={FLIGHT_ATOM: f_flight, HOTEL_ATOM: f_hotel},
        )
        for setting in CacheSetting:
            annotation = annotate(plan, setting)
            for node in plan.service_nodes:
                estimate = annotation.of(node)
                assert estimate.tuples_in >= 0
                assert estimate.tuples_out >= 0
                assert estimate.calls <= estimate.tuples_in + 1e-9

    @given(poset_indexes, fetch_factors, fetch_factors)
    @settings(max_examples=25, deadline=None)
    def test_cached_estimates_below_raw(self, index, f_flight, f_hotel):
        plan = _BUILDER.build(
            alpha1_patterns(), _POSETS[index],
            fetches={FLIGHT_ATOM: f_flight, HOTEL_ATOM: f_hotel},
        )
        raw = annotate(plan, CacheSetting.NO_CACHE)
        cached = annotate(plan, CacheSetting.ONE_CALL)
        for node in plan.service_nodes:
            assert cached.calls(node) <= raw.calls(node) + 1e-9
        # Output sizes do not depend on the cache setting.
        assert cached.output_size == pytest.approx(raw.output_size)

    @given(poset_indexes, fetch_factors, fetch_factors)
    @settings(max_examples=25, deadline=None)
    def test_bottleneck_below_etm(self, index, f_flight, f_hotel):
        plan = _BUILDER.build(
            alpha1_patterns(), _POSETS[index],
            fetches={FLIGHT_ATOM: f_flight, HOTEL_ATOM: f_hotel},
        )
        annotation = annotate(plan, CacheSetting.ONE_CALL)
        assert BottleneckMetric().cost(plan, annotation) <= (
            ExecutionTimeMetric().cost(plan, annotation) + 1e-9
        )

    @given(poset_indexes, st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_costs_monotone_in_fetches(self, index, f_flight, f_hotel):
        for metric in (ExecutionTimeMetric(), RequestResponseMetric()):
            small = _BUILDER.build(
                alpha1_patterns(), _POSETS[index],
                fetches={FLIGHT_ATOM: f_flight, HOTEL_ATOM: f_hotel},
            )
            big = _BUILDER.build(
                alpha1_patterns(), _POSETS[index],
                fetches={FLIGHT_ATOM: f_flight + 1, HOTEL_ATOM: f_hotel + 1},
            )
            cost_small = metric.cost(small, annotate(small, CacheSetting.ONE_CALL))
            cost_big = metric.cost(big, annotate(big, CacheSetting.ONE_CALL))
            assert cost_small <= cost_big + 1e-9


class TestExecutionAgreement:
    """Every topology computes the same answers (plans are equivalent
    rewritings of one conjunctive query)."""

    @pytest.fixture(scope="class")
    def reference_answers(self):
        from repro.sources.travel import poset_optimal

        plan = _BUILDER.build(
            alpha1_patterns(), poset_optimal(),
            fetches={FLIGHT_ATOM: 1, HOTEL_ATOM: 1},
        )
        result = ExecutionEngine(_REGISTRY).execute(plan, head=_QUERY.head)
        return frozenset(result.answers(None))

    @pytest.mark.parametrize("index", range(len(_POSETS)))
    def test_topology_answers_agree(self, index, reference_answers):

        plan = _BUILDER.build(
            alpha1_patterns(), _POSETS[index],
            fetches={FLIGHT_ATOM: 1, HOTEL_ATOM: 1},
        )
        result = ExecutionEngine(_REGISTRY).execute(plan, head=_QUERY.head)
        assert frozenset(result.answers(None)) == reference_answers

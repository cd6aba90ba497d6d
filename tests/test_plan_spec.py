"""Tests for serializable plan specifications."""

import pytest

from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting

from repro.execution.engine import ExecutionEngine
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.plans.annotate import annotate
from repro.plans.dag import PlanError
from repro.plans.spec import PlanSpec
from repro.sources.travel import (
    FLIGHT_ATOM,
    HOTEL_ATOM,
    alpha1_patterns,
    poset_optimal,
)


@pytest.fixture()
def spec():
    return PlanSpec.from_choices(
        alpha1_patterns(), poset_optimal(),
        fetches={FLIGHT_ATOM: 3, HOTEL_ATOM: 4},
    )


class TestRoundTrip:
    def test_json_round_trip(self, spec):
        assert PlanSpec.from_json(spec.to_json()) == spec

    def test_json_is_deterministic(self, spec):
        assert spec.to_json() == spec.to_json()

    def test_build_reconstructs_equivalent_plan(self, spec, registry, travel_query):
        plan = spec.build(travel_query, registry)
        plan.validate()
        assert plan.service_node_for_atom(FLIGHT_ATOM).fetches == 3
        assert plan.service_node_for_atom(HOTEL_ATOM).fetches == 4
        annotation = annotate(plan, CacheSetting.ONE_CALL)
        assert annotation.output_size == pytest.approx(15.0)

    def test_rebuilt_plan_executes_identically(self, spec, registry, travel_query):
        plan = spec.build(travel_query, registry)
        direct = ExecutionEngine(registry).execute(plan, head=travel_query.head)
        round_tripped = PlanSpec.from_json(spec.to_json()).build(
            travel_query, registry
        )
        again = ExecutionEngine(registry).execute(round_tripped, head=travel_query.head)
        assert direct.answers(None) == again.answers(None)


class TestFromOptimized:
    def test_captures_optimizer_decisions(self, registry, travel_query):
        best = Optimizer(
            registry,
            ExecutionTimeMetric(),
            OptimizerConfig(k=10, cache_setting=CacheSetting.ONE_CALL),
        ).optimize(travel_query)
        spec = PlanSpec.from_optimized(best)
        rebuilt = spec.build(travel_query, registry)
        annotation = annotate(rebuilt, CacheSetting.ONE_CALL)
        cost = ExecutionTimeMetric().cost(rebuilt, annotation)
        assert cost == pytest.approx(best.cost)


class TestErrors:
    def test_arity_mismatch_rejected(self, spec, registry, tiny_query):
        with pytest.raises(PlanError):
            spec.build(tiny_query, registry)

    def test_unknown_pattern_rejected(self, registry, travel_query):
        from repro.model.schema import SchemaError

        bad = PlanSpec(
            pattern_codes=("iiiiooo", "oiiiio", "xxxxx", "ioi"),
            precedence_pairs=(),
            fetches=(),
        )
        with pytest.raises(SchemaError):
            bad.build(travel_query, registry)

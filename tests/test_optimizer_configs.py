"""Coverage of optimizer configuration combinations."""

import math

import pytest

from repro.costs.sum_cost import RequestResponseMetric
from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.optimizer.fetches import (
    MAX_EXPLORATION_CELLS,
    FetchContext,
    _max_factor,
    assign_fetches,
    exhaustive_assignment,
    greedy_assignment,
    square_assignment,
)
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.optimizer.patterns import permissible_sequences
from repro.optimizer.topology import TopologyEnumerator
from repro.plans.builder import PlanBuilder
from repro.plans.dag import PlanError


def _closed_topologies(registry, query):
    """Every closed plan of *query*: each permissible pattern sequence
    under each of its topologies."""
    builder = PlanBuilder(query, registry)
    for patterns in permissible_sequences(query, registry.schema()):
        for poset in TopologyEnumerator(query, patterns).all_posets():
            try:
                yield builder.build(patterns, poset)
            except PlanError:
                continue


class TestFetchHeuristicConfig:
    def test_square_and_greedy_agree_on_optimum_cost(self, registry, travel_query):
        """Phase 3 starts from greedy.  Refined from the square
        heuristic's start (§4.3.1) instead, it reaches the same cost on
        every closed topology of the running example whose box the
        sweep covers; on a larger box refinement keeps its start, which
        moves that topology's cost but not the optimum."""
        k = 10
        greedy_costs, square_costs, swept = [], [], 0
        for plan in _closed_topologies(registry, travel_query):
            context = FetchContext(plan, ExecutionTimeMetric(), CacheSetting.ONE_CALL)
            greedy = assign_fetches(context, k)
            start = square_assignment(context, k).fetches
            square = exhaustive_assignment(context, k, start=start)
            assert square.feasible == greedy.feasible
            assert square.output_size >= k or not square.feasible
            box = math.prod(_max_factor(context, i, k) for i in context.chunked_atoms)
            if box <= MAX_EXPLORATION_CELLS:
                swept += 1
                assert square.cost == pytest.approx(greedy.cost)
            if greedy.feasible:
                greedy_costs.append(greedy.cost)
                square_costs.append(square.cost)
        assert swept > 1
        assert min(square_costs) == pytest.approx(min(greedy_costs))


class TestExplorationCap:
    def test_refinement_never_costs_more_and_keeps_its_start_above_the_cap(
        self, registry, travel_query
    ):
        """Phase 3 over every closed topology of the running example
        (execution time, k = 10, one-call): refining greedy's start never
        costs more than the start, and on a box of more than
        ``MAX_EXPLORATION_CELLS`` vectors it returns the start as it is."""
        k = 10
        capped = swept = 0
        for plan in _closed_topologies(registry, travel_query):
            context = FetchContext(plan, ExecutionTimeMetric(), CacheSetting.ONE_CALL)
            start = greedy_assignment(context, k)
            refined = exhaustive_assignment(context, k, start=start.fetches)
            if start.feasible:
                assert refined.feasible and refined.cost <= start.cost
            box = math.prod(_max_factor(context, i, k) for i in context.chunked_atoms)
            if box > MAX_EXPLORATION_CELLS:
                capped += 1
                assert refined.fetches == start.fetches
                assert refined.cost == start.cost
            else:
                swept += 1
        assert capped and swept


class TestCacheSettingConfig:
    @pytest.mark.parametrize("setting", list(CacheSetting), ids=lambda s: s.value)
    def test_every_cache_setting_optimizes(self, registry, travel_query, setting):
        best = Optimizer(
            registry,
            RequestResponseMetric(),
            OptimizerConfig(k=10, cache_setting=setting),
        ).optimize(travel_query)
        assert best.expected_answers >= 10

    def test_no_cache_plans_cost_more_requests(self, registry, travel_query):
        metric = RequestResponseMetric()
        cached = Optimizer(
            registry, metric,
            OptimizerConfig(k=10, cache_setting=CacheSetting.ONE_CALL),
        ).optimize(travel_query)
        uncached = Optimizer(
            registry, metric,
            OptimizerConfig(k=10, cache_setting=CacheSetting.NO_CACHE),
        ).optimize(travel_query)
        assert uncached.cost >= cached.cost - 1e-9

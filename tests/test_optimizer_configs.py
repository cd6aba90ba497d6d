"""Coverage of optimizer configuration combinations."""

import pytest

from repro.costs.sum_cost import RequestResponseMetric
from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.optimizer.optimizer import Optimizer, OptimizerConfig


class TestFetchHeuristicConfig:
    def test_square_heuristic_through_optimizer(self, registry, travel_query):
        best = Optimizer(
            registry,
            ExecutionTimeMetric(),
            OptimizerConfig(k=10, fetch_heuristic="square"),
        ).optimize(travel_query)
        assert best.expected_answers >= 10

    def test_square_and_greedy_agree_on_optimum_cost(self, registry, travel_query):
        """With exploration on, the starting heuristic cannot change
        the final optimum."""
        costs = set()
        for heuristic in ("greedy", "square"):
            best = Optimizer(
                registry,
                ExecutionTimeMetric(),
                OptimizerConfig(k=10, fetch_heuristic=heuristic),
            ).optimize(travel_query)
            costs.add(round(best.cost, 6))
        assert len(costs) == 1


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

"""Tests for the exhaustive oracle and the WSMS baseline."""

import pytest

from repro.testing.exhaustive import exhaustive_optimize
from repro.testing.wsms import greedy_selectivity_order, wsms_optimize
from repro.costs.sum_cost import RequestResponseMetric
from repro.costs.time_cost import BottleneckMetric, ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.optimizer.optimizer import Optimizer, OptimizerConfig


class TestExhaustiveOracle:
    def test_matches_branch_and_bound_on_tiny(self, tiny_registry, tiny_query):
        metric = RequestResponseMetric()
        oracle = exhaustive_optimize(tiny_query, tiny_registry, metric, k=3)
        bnb = Optimizer(
            tiny_registry, metric, OptimizerConfig(k=3)
        ).optimize(tiny_query)
        assert bnb.cost == pytest.approx(oracle.cost)

    def test_matches_branch_and_bound_on_travel(self, registry, travel_query):
        metric = ExecutionTimeMetric()
        oracle = exhaustive_optimize(
            travel_query, registry, metric, k=10,
            cache_setting=CacheSetting.ONE_CALL,
        )
        bnb = Optimizer(
            registry, metric,
            OptimizerConfig(k=10, cache_setting=CacheSetting.ONE_CALL),
        ).optimize(travel_query)
        assert bnb.cost == pytest.approx(oracle.cost)

    def test_bnb_explores_no_more_plans(self, registry, travel_query):
        metric = ExecutionTimeMetric()
        oracle = exhaustive_optimize(travel_query, registry, metric, k=10)
        bnb = Optimizer(
            registry, metric, OptimizerConfig(k=10)
        ).optimize(travel_query)
        assert bnb.stats.plans_completed <= oracle.stats.plans_completed

    def test_weekend_agreement(self):
        from repro.sources.weekend import mahler_weekend_query, weekend_registry

        registry = weekend_registry()
        query = mahler_weekend_query()
        metric = ExecutionTimeMetric()
        oracle = exhaustive_optimize(query, registry, metric, k=3)
        bnb = Optimizer(registry, metric, OptimizerConfig(k=3)).optimize(query)
        assert bnb.cost == pytest.approx(oracle.cost)


class TestWsmsBaseline:
    def test_produces_a_chain(self, registry, travel_query):
        plan = wsms_optimize(travel_query, registry)
        assert len(plan.plan.join_nodes) == 0
        assert len(plan.order) == 4

    def test_greedy_order_is_callable_chain(self, registry, travel_query):
        from repro.sources.travel import alpha1_patterns, CONF_ATOM

        order = greedy_selectivity_order(
            travel_query, alpha1_patterns(), registry
        )
        assert order[0] == CONF_ATOM  # the only directly callable atom

    def test_exhaustive_chains_at_least_as_good_as_greedy(
        self, registry, travel_query
    ):
        greedy = wsms_optimize(travel_query, registry, exhaustive_chains=False)
        best = wsms_optimize(travel_query, registry, exhaustive_chains=True)
        assert best.cost <= greedy.cost + 1e-9

    def test_wsms_ignores_parallelism_opportunities(self, registry, travel_query):
        """The paper's optimizer beats the WSMS chain under ETM once
        the chain is charged the fetches needed for k answers: WSMS
        models neither chunking nor parallel joins."""
        from repro.optimizer.fetches import FetchContext, exhaustive_assignment

        wsms = wsms_optimize(travel_query, registry)
        etm = ExecutionTimeMetric()
        context = FetchContext(wsms.plan, etm, CacheSetting.ONE_CALL)
        charged = exhaustive_assignment(context, k=10)
        assert charged.feasible
        ours = Optimizer(
            registry, etm,
            OptimizerConfig(k=10, cache_setting=CacheSetting.ONE_CALL),
        ).optimize(travel_query)
        assert ours.cost <= charged.cost + 1e-9
        assert len(ours.plan.join_nodes) >= 1  # ours parallelizes

    def test_bottleneck_metric_value_is_max_work(self, registry, travel_query):
        plan = wsms_optimize(travel_query, registry)
        metric = BottleneckMetric()
        from repro.plans.annotate import annotate

        annotation = annotate(plan.plan, CacheSetting.NO_CACHE)
        assert plan.cost <= metric.cost(plan.plan, annotation) + 1e-9

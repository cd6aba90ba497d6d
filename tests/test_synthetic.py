"""Tests for the synthetic workload generator."""

import pytest

from repro.costs.sum_cost import RequestResponseMetric
from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.execution.engine import execute_plan
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.optimizer.patterns import permissible_sequences
from repro.testing.synthetic import generate_workload, workload_family


class TestGeneration:
    def test_deterministic(self):
        first = generate_workload(n_services=3, seed=11)
        second = generate_workload(n_services=3, seed=11)
        assert str(first.query) == str(second.query)
        for name in first.registry.names:
            assert (
                first.registry.service(name).rows
                == second.registry.service(name).rows
            )

    def test_different_seeds_differ(self):
        first = generate_workload(n_services=3, seed=11)
        second = generate_workload(n_services=3, seed=12)
        rows_first = first.registry.service("s0").rows
        rows_second = second.registry.service("s0").rows
        assert rows_first != rows_second

    def test_query_is_executable(self):
        workload = generate_workload(n_services=4, seed=3)
        sequences = permissible_sequences(
            workload.query, workload.registry.schema()
        )
        assert sequences

    def test_size_parameter(self):
        for n in (1, 2, 5):
            workload = generate_workload(n_services=n, seed=5)
            assert len(workload.query.atoms) == n
            assert len(workload.registry) == n

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            generate_workload(n_services=0)

    def test_family_sizes(self):
        family = workload_family(sizes=(2, 3))
        assert [w.n_services for w in family] == [2, 3]


class TestOptimizeAndExecute:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_optimize_small_workloads(self, seed):
        workload = generate_workload(n_services=3, seed=seed)
        best = Optimizer(
            workload.registry,
            RequestResponseMetric(),
            OptimizerConfig(k=3, cache_setting=CacheSetting.ONE_CALL),
        ).optimize(workload.query)
        assert best.plan.service_nodes

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_execute_optimized_plan(self, seed):
        workload = generate_workload(n_services=3, seed=seed)
        best = Optimizer(
            workload.registry,
            ExecutionTimeMetric(),
            OptimizerConfig(k=3, cache_setting=CacheSetting.ONE_CALL),
        ).optimize(workload.query)
        result = execute_plan(
            best.plan, workload.registry, head=workload.query.head
        )
        # Chain data is random: the plan must run; answers may be few.
        assert result.stats.total_calls >= 1

    def test_answers_satisfy_predicates(self):
        workload = generate_workload(n_services=3, seed=9)
        best = Optimizer(
            workload.registry,
            RequestResponseMetric(),
            OptimizerConfig(k=3),
        ).optimize(workload.query)
        result = execute_plan(
            best.plan, workload.registry, head=workload.query.head
        )
        for row in result.rows:
            for predicate in workload.query.predicates:
                assert predicate.holds(row.bindings)

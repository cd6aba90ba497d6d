"""Optimizer scalability over synthetic workloads (ours).

The paper argues the three-phase space is "intractable by exact
methods, even with simple queries" and that branch-and-bound "could
find sufficiently good solutions in acceptable computation time"
(Section 2.4).  This benchmark quantifies both claims on generated
chain workloads of increasing size: plans completed, states pruned,
and wall time, with and without pruning.
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.testing.synthetic import generate_workload

pytestmark = pytest.mark.bench

SIZES = (2, 3, 4)
ENRICHMENTS = 2  # lookup services that open up the topology space


def _optimize(workload, prune=True):
    return Optimizer(
        workload.registry,
        ExecutionTimeMetric(),
        OptimizerConfig(k=3, cache_setting=CacheSetting.ONE_CALL, prune=prune),
    ).optimize(workload.query)


class TestScalability:
    @pytest.mark.parametrize("size", SIZES)
    def test_bench_optimizer_by_size(self, benchmark, size):
        workload = generate_workload(
            n_services=size, seed=20 + size, enrichments=ENRICHMENTS
        )
        best = benchmark(_optimize, workload)
        assert best.plan.service_nodes

    def test_bench_pruning_off(self, benchmark, out_dir):
        workload = generate_workload(n_services=4, seed=24, enrichments=ENRICHMENTS)
        best = benchmark(_optimize, workload, False)
        assert best.plan.service_nodes
        self.test_write_scalability_table(out_dir)

    def test_write_scalability_table(self, out_dir):
        lines = [
            "Optimizer scalability on synthetic chain workloads (ETM, k=3)",
            "",
            f"{'atoms':<6} {'pruned search':<32} {'unpruned search':<32} "
            f"{'same cost':>9}",
        ]
        for size in SIZES:
            workload = generate_workload(
                n_services=size, seed=20 + size, enrichments=ENRICHMENTS
            )
            pruned = _optimize(workload, prune=True)
            unpruned = _optimize(workload, prune=False)
            assert pruned.cost == pytest.approx(unpruned.cost)
            assert (
                pruned.stats.plans_completed <= unpruned.stats.plans_completed
            )
            lines.append(
                f"{size:<6} "
                f"plans={pruned.stats.plans_completed:<4} "
                f"pruned={pruned.stats.topology_states_pruned:<5} "
                f"states={pruned.stats.topology_states_explored:<8} "
                f"plans={unpruned.stats.plans_completed:<4} "
                f"pruned={unpruned.stats.topology_states_pruned:<5} "
                f"states={unpruned.stats.topology_states_explored:<8} "
                f"{'yes':>9}"
            )
        write_artifact(out_dir, "scalability.txt", "\n".join(lines))

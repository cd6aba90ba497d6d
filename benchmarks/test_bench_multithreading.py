"""Section 6's multithreading experiment.

Dispatching all available calls of each node to parallel threads
collapses plan S's elapsed time (the paper measures 76 s vs 374 s) but
randomizes arrival order, degrading the one-call cache: the paper's
hotel calls go from 15 (ordered) back up to 212 of the 284.  The
optimal cache suffers no such drawback.  The grid is
``repro.experiments.run_multithreading``'s.
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine, ExecutionMode
from repro.experiments import (
    PAPER_CALLS,
    artifact,
    figure11_plans,
    run_multithreading,
)

pytestmark = pytest.mark.bench


class TestMultithreading:
    def test_bench_threaded_execution(
        self, benchmark, registry, travel_query, out_dir
    ):
        plan = figure11_plans(registry, travel_query)["S"]

        def run():
            engine = ExecutionEngine(
                registry, cache_setting=CacheSetting.ONE_CALL,
                mode=ExecutionMode.MULTITHREADED,
            )
            return engine.execute(plan, head=travel_query.head, k=10)

        result = benchmark(run)
        assert result.rows
        self.test_speedup_and_cache_degradation(registry, travel_query, out_dir)

    def test_speedup_and_cache_degradation(self, registry, travel_query, out_dir):
        grid = run_multithreading(registry, travel_query)
        assert len(grid.cells) == 6

        ordered = PAPER_CALLS[("one-call", "S")][2]
        uncached = PAPER_CALLS[("no-cache", "S")][2]
        assert grid.ordered_hotel_calls == ordered
        assert ordered < grid.threaded_hotel_calls <= uncached  # paper: 212 of 284

        assert grid.elapsed("no-cache", "multithreaded") < (
            grid.elapsed("no-cache", "parallel") / 3
        )
        assert grid.hotel_calls("optimal", "multithreaded") == grid.hotel_calls(
            "optimal", "parallel"
        )
        write_artifact(
            out_dir, "multithreading.txt",
            artifact(
                grid,
                "The optimal cache suffers no drawback (same calls either way).",
            ),
        )

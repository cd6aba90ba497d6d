"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not a paper figure — these quantify the contribution of each mechanism:

* greedy vs square fetch heuristics vs the exhaustive exploration;
* NL vs MS join strategies on ranked inputs (time-to-first-k proxy);
* the "bound is better" phase-1 restriction (most cogent only);
* the WSMS chain baseline charged with the fetches it actually needs.
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.testing.wsms import wsms_optimize
from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.execution.results import Row
from repro.model.terms import Variable
from repro.optimizer.fetches import (
    FetchContext,
    exhaustive_assignment,
    greedy_assignment,
    square_assignment,
)
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.plans.builder import PlanBuilder
from repro.services.registry import JoinMethod
from repro.sources.travel import alpha1_patterns, poset_optimal
from repro.testing import execute_join

pytestmark = pytest.mark.bench

K = 10


class TestFetchHeuristicAblation:
    @pytest.fixture()
    def context(self, registry, travel_query):
        plan = PlanBuilder(travel_query, registry).build(
            alpha1_patterns(), poset_optimal()
        )
        return FetchContext(plan, ExecutionTimeMetric(), CacheSetting.ONE_CALL)

    def test_bench_greedy(self, benchmark, context):
        result = benchmark(greedy_assignment, context, K)
        assert result.feasible

    def test_bench_square(self, benchmark, context):
        result = benchmark(square_assignment, context, K)
        assert result.feasible

    def test_bench_exhaustive(self, benchmark, context, out_dir):
        result = benchmark(exhaustive_assignment, context, K)
        assert result.feasible
        self.test_heuristic_gap(context, out_dir)

    def test_heuristic_gap(self, context, out_dir):
        greedy = greedy_assignment(context, K)
        square = square_assignment(context, K)
        best = exhaustive_assignment(context, K)
        assert best.cost <= min(greedy.cost, square.cost) + 1e-9
        lines = [
            f"Fetch heuristic ablation (plan O, ETM, k={K})",
            "",
            f"{'strategy':<12} {'fetches':<18} {'h':>7} {'cost':>8}",
            f"{'greedy':<12} {str(greedy.fetches):<18} {greedy.output_size:>7.2f} {greedy.cost:>8.1f}",
            f"{'square':<12} {str(square.fetches):<18} {square.output_size:>7.2f} {square.cost:>8.1f}",
            f"{'exhaustive':<12} {str(best.fetches):<18} {best.output_size:>7.2f} {best.cost:>8.1f}",
        ]
        write_artifact(out_dir, "ablation_fetch_heuristics.txt", "\n".join(lines))


class TestJoinStrategyAblation:
    @staticmethod
    def _streams(n):
        left = [
            Row(bindings={Variable("K"): i % 4, Variable("L"): i})
            for i in range(n)
        ]
        right = [
            Row(bindings={Variable("K"): i % 4, Variable("R"): i})
            for i in range(n)
        ]
        return left, right

    def test_bench_nested_loop(self, benchmark):
        left, right = self._streams(60)
        result = benchmark(execute_join, JoinMethod.NESTED_LOOP, left, right)
        assert result

    def test_bench_merge_scan(self, benchmark, out_dir):
        left, right = self._streams(60)
        result = benchmark(execute_join, JoinMethod.MERGE_SCAN, left, right)
        assert result
        self.test_merge_scan_balances_top_results(out_dir)

    def test_merge_scan_balances_top_results(self, out_dir):
        """Among the first matches, MS draws from both inputs'
        prefixes while NL exhausts the outer side first — the reason MS
        suits two services with comparable rankings (Figure 5)."""
        left, right = self._streams(40)
        top = 20
        summaries = {}
        for method in (JoinMethod.NESTED_LOOP, JoinMethod.MERGE_SCAN):
            produced = execute_join(method, left, right)[:top]
            max_left = max(row.bindings[Variable("L")] for row in produced)
            max_right = max(row.bindings[Variable("R")] for row in produced)
            summaries[method.value] = (max_left, max_right)
        nl_left, nl_right = summaries["NL"]
        ms_left, ms_right = summaries["MS"]
        assert abs(ms_left - ms_right) <= abs(nl_left - nl_right)
        lines = [
            "Join strategy ablation: depth of each input consumed for the",
            f"first {top} join results (lower and balanced is better for",
            "rankings of comparable quality)",
            "",
            f"{'method':<6} {'left depth':>11} {'right depth':>12}",
            f"{'NL':<6} {nl_left:>11} {nl_right:>12}",
            f"{'MS':<6} {ms_left:>11} {ms_right:>12}",
        ]
        write_artifact(out_dir, "ablation_join_strategies.txt", "\n".join(lines))


class TestPhase1Ablation:
    def test_most_cogent_restriction(self, registry, travel_query, out_dir):
        full = Optimizer(
            registry, ExecutionTimeMetric(),
            OptimizerConfig(k=K, cache_setting=CacheSetting.ONE_CALL),
        ).optimize(travel_query)
        restricted = Optimizer(
            registry, ExecutionTimeMetric(),
            OptimizerConfig(
                k=K, cache_setting=CacheSetting.ONE_CALL, most_cogent_only=True
            ),
        ).optimize(travel_query)
        assert restricted.cost == pytest.approx(full.cost)
        assert (
            restricted.stats.pattern_sequences_considered
            <= full.stats.pattern_sequences_considered
        )
        lines = [
            "Phase-1 ablation: 'bound is better' (most cogent only)",
            "",
            f"full search:  {full.stats.summary()}",
            f"restricted:   {restricted.stats.summary()}",
            f"both reach cost {full.cost:.1f}",
        ]
        write_artifact(out_dir, "ablation_phase1.txt", "\n".join(lines))


class TestWsmsComparison:
    def test_wsms_gap(self, registry, travel_query, out_dir):
        from repro.optimizer.fetches import FetchContext as Context

        etm = ExecutionTimeMetric()
        wsms = wsms_optimize(travel_query, registry)
        context = Context(wsms.plan, etm, CacheSetting.ONE_CALL)
        charged = exhaustive_assignment(context, K)
        ours = Optimizer(
            registry, etm, OptimizerConfig(k=K, cache_setting=CacheSetting.ONE_CALL)
        ).optimize(travel_query)
        assert ours.cost <= charged.cost + 1e-9
        lines = [
            "WSMS baseline (Srivastava et al. [16]) vs this paper's optimizer",
            "",
            f"WSMS chain (order {wsms.order}), charged fetches for k={K}: "
            f"ETM {charged.cost:.1f}",
            f"our optimizer (parallel joins + fetch tuning):      "
            f"ETM {ours.cost:.1f}",
            "",
            "WSMS models neither chunking nor ranking, so its pipelined",
            "chain cannot exploit the weather filter before both search",
            "services the way plan O does.",
        ]
        write_artifact(out_dir, "ablation_wsms.txt", "\n".join(lines))

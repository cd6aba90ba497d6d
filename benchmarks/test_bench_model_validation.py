"""Cost-model validation (ours): predicted cost vs executed time.

The optimizer chooses plans from *estimates* (profiles, Eq. 2 call
counts, Eq. 4 times).  This experiment executes every one of the 19
topologies of the running example and correlates the ETM estimate with
the actually simulated elapsed time: the model is useful if its
*ranking* of plans matches reality — absolute values cannot match
because profiles are averages (the conf profile says 20 tuples per
topic; the 'DB' call actually returns 71, as in the paper)."""

import pytest
from scipy import stats as scipy_stats

from benchmarks.conftest import write_artifact
from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine
from repro.optimizer.fetches import FetchContext, exhaustive_assignment
from repro.optimizer.topology import TopologyEnumerator
from repro.plans.builder import PlanBuilder
from repro.plans.render import summarize
from repro.sources.travel import alpha1_patterns

pytestmark = pytest.mark.bench

K = 10


def _evaluate_all(registry, travel_query):
    metric = ExecutionTimeMetric()
    builder = PlanBuilder(travel_query, registry)
    rows = []
    for poset in TopologyEnumerator(travel_query, alpha1_patterns()).all_posets():
        plan = builder.build(alpha1_patterns(), poset)
        context = FetchContext(plan, metric, CacheSetting.ONE_CALL)
        fetch_result = exhaustive_assignment(context, K)
        context.apply(fetch_result.fetches)
        predicted = fetch_result.cost
        engine = ExecutionEngine(registry, cache_setting=CacheSetting.ONE_CALL)
        outcome = engine.execute(plan, head=travel_query.head)
        rows.append((plan, predicted, outcome.elapsed, len(outcome.rows)))
    return rows


class TestModelValidation:
    @pytest.fixture(scope="class")
    def evaluated(self, request):
        from repro.sources.travel import running_example_query, travel_registry

        return _evaluate_all(travel_registry(), running_example_query())

    def test_bench_predict_and_execute(self, benchmark, registry, travel_query):
        # Benchmark a single predict+execute round trip (plan O).
        from repro.sources.travel import poset_optimal

        builder = PlanBuilder(travel_query, registry)

        def round_trip():
            plan = builder.build(
                alpha1_patterns(), poset_optimal(), fetches={0: 3, 1: 4}
            )
            engine = ExecutionEngine(registry, CacheSetting.ONE_CALL)
            return engine.execute(plan, head=travel_query.head)

        outcome = benchmark(round_trip)
        assert outcome.rows

    def test_rank_correlation_is_strong(self, evaluated):
        predicted = [row[1] for row in evaluated]
        actual = [row[2] for row in evaluated]
        rho, _ = scipy_stats.spearmanr(predicted, actual)
        assert rho > 0.5

    def test_predicted_best_is_actually_fast(self, evaluated):
        by_predicted = sorted(evaluated, key=lambda row: row[1])
        by_actual = sorted(evaluated, key=lambda row: row[2])
        best_predicted_plan = by_predicted[0][0]
        top_actual = {id(row[0]) for row in by_actual[:3]}
        assert id(best_predicted_plan) in top_actual

    def test_write_validation_table(self, evaluated, out_dir):
        predicted = [row[1] for row in evaluated]
        actual = [row[2] for row in evaluated]
        rho, _ = scipy_stats.spearmanr(predicted, actual)
        lines = [
            "Cost-model validation: ETM estimate vs simulated elapsed time",
            f"(19 topologies of the running example, k={K}, one-call cache)",
            "",
            f"{'predicted':>10} {'actual':>9} {'answers':>8}  plan",
        ]
        for plan, pred, act, answers in sorted(evaluated, key=lambda r: r[1]):
            lines.append(
                f"{pred:>10.1f} {act:>9.1f} {answers:>8}  {summarize(plan)}"
            )
        lines += ["", f"Spearman rank correlation: {rho:.3f}"]
        write_artifact(out_dir, "model_validation.txt", "\n".join(lines))

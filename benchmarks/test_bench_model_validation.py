"""Cost-model validation (ours): predicted cost vs executed time.

The optimizer chooses plans from *estimates* (profiles, Eq. 2 call
counts, Eq. 4 times).  This experiment executes every one of the 19
topologies of the running example and correlates the ETM estimate with
the actually simulated elapsed time: the model is useful if its
*ranking* of plans matches reality — absolute values cannot match
because profiles are averages (the conf profile says 20 tuples per
topic; the 'DB' call actually returns 71, as in the paper).

The gap between the two has two halves, and the table splits them.
Eq. 4 folded over each step's *observed* busy time (the full scan's
clock, τ from the annotation) has the model's clock shape, a pipe, and
the run's counts: what it misses against the prediction is *counts*,
which the predicted → observed calls per service show; what the
barrier clock adds on top of it is *clock shape*.  The streamed k = 10
clock is the serving configuration beside the full scan's."""

from typing import NamedTuple

import pytest
from scipy import stats as scipy_stats

from benchmarks.conftest import write_artifact
from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine
from repro.execution.program import JOIN, ExecutionProgram
from repro.execution.stats import IDLE
from repro.optimizer.fetches import FetchContext, exhaustive_assignment
from repro.optimizer.topology import TopologyEnumerator
from repro.plans.builder import PlanBuilder
from repro.plans.dag import slowest_path
from repro.plans.nodes import ServiceNode
from repro.plans.render import summarize
from repro.sources.travel import alpha1_patterns

pytestmark = pytest.mark.bench

K = 10


class Validated(NamedTuple):
    """One topology: its prediction, its runs and the split between."""

    plan: object
    predicted: float
    actual: float
    answers: int
    #: Eq. 4 over the full scan's busy time per step.
    pipe_on_busy: float
    #: The clock of the same plan executed at k = K, streamed.
    streamed: float
    #: ``(service, predicted calls, observed calls)`` in plan order.
    calls: tuple[tuple[str, float, int], ...]


def _evaluate_all(registry, travel_query):
    metric = ExecutionTimeMetric()
    builder = PlanBuilder(travel_query, registry)
    rows = []
    for poset in TopologyEnumerator(travel_query, alpha1_patterns()).all_posets():
        plan = builder.build(alpha1_patterns(), poset)
        context = FetchContext(plan, metric, CacheSetting.ONE_CALL)
        fetch_result = exhaustive_assignment(context, K)
        context.apply(fetch_result.fetches)
        annotation = context.annotate(fetch_result.fetches)
        program = ExecutionProgram.compile(plan, travel_query.head)
        engine = ExecutionEngine(registry, cache_setting=CacheSetting.ONE_CALL)
        outcome = engine.execute(program)
        streamed = engine.execute(program, k=K)
        # Both columns by step: τ off the annotation, busy off the
        # clock (a join at its response time, as the engine reads it).
        position = {node.node_id: i for i, node in enumerate(plan.nodes)}
        taus = annotation.timing()[0]
        clock = outcome.stats.clock
        busy = [
            step.response_time if step.kind == JOIN
            else clock.get(step.index, IDLE)[0]
            for step in program.steps
        ]
        pipe_on_busy = slowest_path(
            program.paths,
            [taus[position[step.node_id]] for step in program.steps],
            busy,
        )
        calls = tuple(
            (node.service_name, annotation.calls(node),
             outcome.stats.calls(node.service_name))
            for node in plan.topological_order()
            if isinstance(node, ServiceNode)
        )
        rows.append(Validated(
            plan, fetch_result.cost, outcome.elapsed, len(outcome.rows),
            pipe_on_busy, streamed.elapsed, calls,
        ))
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
        predicted = [row.predicted for row in evaluated]
        actual = [row.actual for row in evaluated]
        rho, _ = scipy_stats.spearmanr(predicted, actual)
        assert rho > 0.5

    def test_predicted_best_is_actually_fast(self, evaluated):
        by_predicted = sorted(evaluated, key=lambda row: row.predicted)
        by_actual = sorted(evaluated, key=lambda row: row.actual)
        best_predicted_plan = by_predicted[0].plan
        top_actual = {id(row.plan) for row in by_actual[:3]}
        assert id(best_predicted_plan) in top_actual

    def test_write_validation_table(self, evaluated, out_dir):
        predicted = [row.predicted for row in evaluated]

        def rho(column):
            return scipy_stats.spearmanr(predicted, column)[0]

        calls_rho = scipy_stats.spearmanr(
            [sum(call[1] for call in row.calls) for row in evaluated],
            [sum(call[2] for call in row.calls) for row in evaluated],
        )[0]
        lines = [
            "Cost-model validation: ETM estimate vs simulated elapsed time",
            f"(19 topologies of the running example, k={K}, one-call cache)",
            "",
            "eq4-busy: Eq. 4 over the full scan's busy time per step;",
            f"streamed: the clock of the k={K} streamed walk;",
            "calls: per service, predicted -> observed in the full scan",
            "",
            f"{'predicted':>10} {'eq4-busy':>9} {'actual':>9} {'streamed':>9}"
            f" {'answers':>8}  plan",
        ]
        for row in sorted(evaluated, key=lambda r: r.predicted):
            lines.append(
                f"{row.predicted:>10.1f} {row.pipe_on_busy:>9.1f}"
                f" {row.actual:>9.1f} {row.streamed:>9.1f}"
                f" {row.answers:>8}  {summarize(row.plan)}"
            )
            lines.append(f"{'':>51}calls: " + ", ".join(
                f"{name} {estimate:.3g} -> {observed}"
                for name, estimate, observed in row.calls
            ))
        lines += [
            "",
            f"Spearman rank correlation: {rho([r.actual for r in evaluated]):.3f}",
            "Spearman vs predicted, Eq. 4 on observed busy:"
            f" {rho([r.pipe_on_busy for r in evaluated]):.3f}",
            f"Spearman vs predicted, streamed k={K} clock:"
            f" {rho([r.streamed for r in evaluated]):.3f}",
            "Spearman, predicted vs observed calls (all services):"
            f" {calls_rho:.3f}",
        ]
        write_artifact(out_dir, "model_validation.txt", "\n".join(lines))

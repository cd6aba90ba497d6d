"""Figure 1 — the three-phase optimization funnel, plus B&B efficiency.

Benchmarks the optimizer itself: the branch-and-bound search must find
the same optimum as exhaustive enumeration while completing fewer
plans, and the phase-level statistics regenerate the funnel of
Figure 1 (pattern sequences → topologies → fully instantiated plans).

The *phase-3 sweep* measures what phase 3 spends its time on — fetch
vectors evaluated per second on one fixed plan — for the compiled
annotation program (``AnnotationProgram``: compile once, run per
vector) against the per-definition ``reference_annotate`` (which
re-derives everything per vector, as ``annotate()`` did before PR 13),
asserting bit-identity at every point.  It appends to
``BENCH_optimizer.json`` (env stamp + history).
"""

import time

import pytest

from benchmarks._bench_env import (
    append_history,
    bench_out_name,
    bench_scale,
    env_stamp,
)
from benchmarks.conftest import write_artifact
from repro.baselines.exhaustive import exhaustive_optimize
from repro.costs.sum_cost import RequestResponseMetric
from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.plans.annotate import AnnotationProgram
from repro.testing.reference import reference_annotate

pytestmark = pytest.mark.bench

K = 10


def _optimize(registry, travel_query, prune=True):
    optimizer = Optimizer(
        registry,
        ExecutionTimeMetric(),
        OptimizerConfig(k=K, cache_setting=CacheSetting.ONE_CALL, prune=prune),
    )
    return optimizer.optimize(travel_query)


class TestOptimizerBenchmarks:
    def test_bench_branch_and_bound(
        self, benchmark, registry, travel_query, out_dir
    ):
        best = benchmark(_optimize, registry, travel_query)
        assert best.expected_answers >= K
        TestBnbQuality().test_funnel_statistics(registry, travel_query, out_dir)

    def test_bench_exhaustive(self, benchmark, registry, travel_query):
        best = benchmark(
            exhaustive_optimize, travel_query, registry,
            ExecutionTimeMetric(), K,
        )
        assert best.expected_answers >= K

    def test_bench_bio_domain_optimization(self, benchmark):
        from repro.sources.bio import bio_registry, glycolysis_homolog_query

        registry = bio_registry()
        query = glycolysis_homolog_query()

        def run():
            return Optimizer(
                registry, ExecutionTimeMetric(), OptimizerConfig(k=5)
            ).optimize(query)

        best = benchmark(run)
        assert best.expected_answers >= 5


class TestBnbQuality:
    def test_bnb_matches_exhaustive_optimum(self, registry, travel_query):
        bnb = _optimize(registry, travel_query)
        oracle = exhaustive_optimize(
            travel_query, registry, ExecutionTimeMetric(), K,
            cache_setting=CacheSetting.ONE_CALL,
        )
        assert bnb.cost == pytest.approx(oracle.cost)

    def test_funnel_statistics(self, registry, travel_query, out_dir):
        pruned = _optimize(registry, travel_query, prune=True)
        unpruned = _optimize(registry, travel_query, prune=False)
        oracle = exhaustive_optimize(
            travel_query, registry, ExecutionTimeMetric(), K,
            cache_setting=CacheSetting.ONE_CALL,
        )
        assert pruned.stats.plans_completed <= unpruned.stats.plans_completed

        rr = Optimizer(
            registry, RequestResponseMetric(),
            OptimizerConfig(k=K, cache_setting=CacheSetting.ONE_CALL),
        ).optimize(travel_query)

        lines = [
            "Figure 1 — optimization funnel of the running example",
            "",
            "Branch-and-bound (ETM):",
            f"  {pruned.stats.summary()}",
            f"  optimum cost {pruned.cost:.1f}, plan {pruned.describe()}",
            "",
            "Without pruning:",
            f"  {unpruned.stats.summary()}",
            "",
            "Exhaustive oracle:",
            f"  {oracle.stats.summary()}",
            f"  optimum cost {oracle.cost:.1f} (identical optimum)",
            "",
            "Request-response metric picks a more sequential plan:",
            f"  {rr.describe()}",
        ]
        write_artifact(out_dir, "figure1_phases.txt", "\n".join(lines))


def _vectors(arity: int, count: int) -> list[tuple[int, ...]]:
    """*count* distinct fetch vectors, the low corner of the box first
    (what greedy and the exhaustive sweep walk through)."""
    vectors, bound = [], 1
    while len(vectors) < count:
        bound += 1
        vectors = [()]
        for _ in range(arity):
            vectors = [v + (f,) for v in vectors for f in range(1, bound + 1)]
    return vectors[:count]


def _hexes(annotation):
    return [
        (e.tuples_in.hex(), e.tuples_out.hex(), e.calls.hex())
        for e in annotation.estimates.values()
    ]


class TestPhaseThreeSweep:
    """Fetch vectors evaluated per second: program vs. reference."""

    def _sweep(self, name, plan, cache_setting, sizes):
        metric = ExecutionTimeMetric()
        program = AnnotationProgram(plan, cache_setting)
        atoms = program.chunked_atoms
        nodes = [plan.service_node_for_atom(atom) for atom in atoms]
        points = []
        for size in sizes:
            vectors = _vectors(len(atoms), size)

            begun = time.perf_counter()
            compiled = AnnotationProgram(plan, cache_setting)
            views = [compiled.run(vector) for vector in vectors]
            costs = [metric.cost(plan, view) for view in views]
            program_s = time.perf_counter() - begun

            begun = time.perf_counter()
            references, reference_costs = [], []
            for vector in vectors:
                for node, factor in zip(nodes, vector):
                    node.fetches = factor
                annotation = reference_annotate(plan, cache_setting)
                references.append(annotation)
                reference_costs.append(metric.cost(plan, annotation))
            reference_s = time.perf_counter() - begun
            for node in nodes:
                node.fetches = 1

            # Bit-identity at every point of the sweep, quick or not.
            for view, reference in zip(views, references):
                assert _hexes(view) == _hexes(reference)
            assert [c.hex() for c in costs] == [c.hex() for c in reference_costs]
            points.append({
                "plan": name,
                "cache_setting": cache_setting.value,
                "chunked_services": len(atoms),
                "vectors": size,
                "program_vectors_per_s": round(size / program_s, 1),
                "reference_vectors_per_s": round(size / reference_s, 1),
                "speedup": round(reference_s / program_s, 2),
            })
        return points

    def test_phase3_sweep(self, registry, travel_query, out_dir):
        from repro.plans.builder import PlanBuilder
        from repro.sources.bio import bio_registry, glycolysis_homolog_query
        from repro.sources.travel import alpha1_patterns, poset_optimal

        sizes = [bench_scale(1, 1), bench_scale(16, 4), bench_scale(256, 16)]
        travel_plan = PlanBuilder(travel_query, registry).build(
            alpha1_patterns(), poset_optimal()
        )
        bio_best = Optimizer(
            bio_registry(), ExecutionTimeMetric(), OptimizerConfig(k=5)
        ).optimize(glycolysis_homolog_query())
        points = []
        for name, plan in (("travel-O", travel_plan), ("bio-best", bio_best.plan)):
            for node in plan.chunked_service_nodes:
                node.fetches = 1
            for cache_setting in (CacheSetting.ONE_CALL, CacheSetting.NO_CACHE):
                points += self._sweep(name, plan, cache_setting, sizes)
        # One vector pays the compile; a sweep amortizes it.
        for point in points:
            if point["vectors"] >= 16:
                assert point["speedup"] > 1.0, point
        search = _optimize(registry, travel_query).stats
        append_history(out_dir / bench_out_name("BENCH_optimizer.json"), {
            "env": env_stamp(),
            "phase3_sweep": points,
            "travel_search": {
                "annotate_calls": search.annotate_calls,
                "programs_compiled": search.programs_compiled,
                "fetch_vectors_evaluated": search.fetch_vectors_evaluated,
            },
        })

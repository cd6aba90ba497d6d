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
asserting bit-identity at every point; a third column obtains the
program the way the search does, by *extending* the program of the
topology's open plan with the nodes ``close`` adds.  The *search-cost*
entry measures what a search state and a complete topology cost the
branch-and-bound: per domain, under the serving configuration with
ETM and with SCM, the time of a cold ``optimize()``, the states it
explored, the bounds it computed and what one costs — read off the
open plan of a shared prefix, against the from-scratch build every
bound used to be — and how many topologies reached phase 3.
Both append to ``BENCH_optimizer.json`` (env stamp + history).
"""

import time

import pytest

from benchmarks._bench_env import (
    QUICK,
    append_history,
    bench_out_name,
    bench_scale,
    env_stamp,
)
from benchmarks.conftest import write_artifact
from repro.testing import market_moving_news_query
from repro.testing.exhaustive import exhaustive_optimize
from repro.costs.sum_cost import RequestResponseMetric, SumCostMetric
from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.model.parser import parse_query
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.plans.annotate import AnnotationProgram, annotate
from repro.plans.builder import PlanBuilder
from repro.testing.reference import (
    memo_bounds,
    reference_annotate,
    reference_partial_plan,
    search_states,
)

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


def _hexes(plan, annotation):
    """Every node estimate in the order the nodes were added to *plan*
    (two builds of one topology differ in node ids only)."""
    return [
        (e.tuples_in.hex(), e.tuples_out.hex(), e.calls.hex())
        for e in map(annotation.of, plan.nodes)
    ]


def _open_fold(builder, patterns, poset, cache_setting):
    """The open plan of a complete topology with its program, folded
    the way ``PlanBuilder.build`` folds: what the search holds when the
    topology is reached."""
    state = builder.start()
    program = AnnotationProgram(state.plan, cache_setting)
    order = sorted(
        range(poset.n), key=lambda i: (len(poset.predecessors_of(i)), i)
    )
    for index in order:
        state = builder.place(
            state, index, patterns[index], poset.direct_predecessors_of(index)
        )
        program = program.extended(state.plan)
    return state, program


class TestPhaseThreeSweep:
    """Fetch vectors evaluated per second: program (compiled, or
    extended from the open plan's) vs. reference."""

    def _sweep(self, name, builder, patterns, poset, cache_setting, sizes):
        metric = ExecutionTimeMetric()
        plan = builder.build(patterns, poset)
        state, open_program = _open_fold(builder, patterns, poset, cache_setting)
        closed = builder.close(state)
        atoms = AnnotationProgram(plan, cache_setting).chunked_atoms
        nodes = [plan.service_node_for_atom(atom) for atom in atoms]
        points = []
        for size in sizes:
            vectors = _vectors(len(atoms), size)

            begun = time.perf_counter()
            compiled = AnnotationProgram(plan, cache_setting)
            views = [compiled.run(vector) for vector in vectors]
            costs = [metric.cost(plan, view) for view in views]
            program_s = time.perf_counter() - begun

            # The search's route: the open plan's program is there
            # already, the program of the closed plan compiles the
            # nodes ``close`` added.
            begun = time.perf_counter()
            extended = open_program.extended(closed)
            extended_views = [extended.run(vector) for vector in vectors]
            extended_costs = [metric.cost(closed, view) for view in extended_views]
            extended_s = time.perf_counter() - begun

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
            for view, extension, reference in zip(views, extended_views, references):
                assert (
                    _hexes(plan, view) == _hexes(closed, extension)
                    == _hexes(plan, reference)
                )
            assert (
                [c.hex() for c in costs] == [c.hex() for c in extended_costs]
                == [c.hex() for c in reference_costs]
            )
            points.append({
                "plan": name,
                "cache_setting": cache_setting.value,
                "chunked_services": len(atoms),
                "vectors": size,
                "program_vectors_per_s": round(size / program_s, 1),
                "extended_vectors_per_s": round(size / extended_s, 1),
                "reference_vectors_per_s": round(size / reference_s, 1),
                "speedup": round(reference_s / program_s, 2),
                "extended_speedup": round(reference_s / extended_s, 2),
            })
        return points

    def test_phase3_sweep(self, registry, travel_query, out_dir):
        from repro.sources.bio import bio_registry, glycolysis_homolog_query
        from repro.sources.travel import alpha1_patterns, poset_optimal

        sizes = [bench_scale(1, 1), bench_scale(16, 4), bench_scale(256, 16)]
        bio, bio_query = bio_registry(), glycolysis_homolog_query()
        bio_best = Optimizer(
            bio, ExecutionTimeMetric(), OptimizerConfig(k=5)
        ).optimize(bio_query)
        points = []
        for name, builder, patterns, poset in (
            ("travel-O", PlanBuilder(travel_query, registry),
             alpha1_patterns(), poset_optimal()),
            ("bio-best", PlanBuilder(bio_query, bio),
             bio_best.patterns, bio_best.poset),
        ):
            for cache_setting in (CacheSetting.ONE_CALL, CacheSetting.NO_CACHE):
                points += self._sweep(
                    name, builder, patterns, poset, cache_setting, sizes
                )
        # One vector pays the compile; a sweep amortizes it.  The
        # extension has next to nothing to compile, which shows in the
        # one-vector rows (recorded, not asserted: one evaluation is
        # too short to time reliably).
        for point in points:
            if point["vectors"] >= 16:
                assert point["speedup"] > 1.0, point
                assert point["extended_speedup"] > 1.0, point
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


#: The running example as the serving layer receives it (the travel
#: template of the frozen bench): parsed text, so the predicates carry
#: default selectivities, not the calibrated ones of
#: ``running_example_query``.
TRAVEL_SERVED = (
    "q(Conf, City, Hotel, FPrice, HPrice, Start, End, OutTime, RetTime) :- "
    "flight('Milano', City, Start, End, OutTime, RetTime, FPrice), "
    "hotel(Hotel, City, 'luxury', Start, End, HPrice), "
    "conf('DB', Conf, Start, End, City), weather(City, Temperature, Start), "
    "Start >= '2008-04-01', End <= '2008-09-28', "
    "Temperature >= 28, FPrice + HPrice < 2000."
)

#: µs per bound on bio at the parent of the PR that introduced open
#: plans (ISSUE 21: sub-query 21 + build 113 + compile 57 + run 8 +
#: cost 31), recorded beside the same quantity measured in this run.
PARENT_BIO_BOUND_US = 230


def _search_problems():
    from repro.sources.biblio import biblio_registry, experts_query
    from repro.sources.bio import bio_registry, glycolysis_homolog_query
    from repro.sources.news import news_registry
    from repro.sources.travel import running_example_query, travel_registry
    from repro.sources.weekend import mahler_weekend_query, weekend_registry

    travel = travel_registry()
    return [
        ("travel", travel, running_example_query()),
        ("travel-served", travel, parse_query(TRAVEL_SERVED)),
        ("biblio", biblio_registry(), experts_query()),
        ("bio", bio_registry(), glycolysis_homolog_query()),
        ("news", news_registry(), market_moving_news_query()),
        ("weekend", weekend_registry(), mahler_weekend_query()),
    ]


class TestSearchCost:
    """What a state and a topology cost the branch-and-bound."""

    CONFIG = OptimizerConfig(k=5, cache_setting=CacheSetting.OPTIMAL)

    def _bounded_states(self, registry, query, optimizer):
        """``(patterns, placed, closure)`` of every state the search
        computed a bound for, in the order it did."""
        states = []
        for codes, closure in memo_bounds(optimizer._memo):
            patterns = tuple(
                registry.signature(body_atom.service).pattern(code) if code else None
                for body_atom, code in zip(query.atoms, codes)
            )
            placed = frozenset(i for i, code in enumerate(codes) if code)
            states.append((patterns, placed, closure))
        return states

    def _measure(self, name, registry, query, metric):
        config, setting = self.CONFIG, self.CONFIG.cache_setting
        repeats = bench_scale(5, 1)
        optimize_s = float("inf")
        for _ in range(repeats):
            optimizer = Optimizer(registry, metric, config)
            begun = time.perf_counter()
            best = optimizer.optimize(query)
            optimize_s = min(optimize_s, time.perf_counter() - begun)
        stats = best.stats
        oracle = exhaustive_optimize(query, registry, metric, config.k, setting)
        assert best.cost.hex() == oracle.cost.hex(), name

        # One bound, two ways, in alternating passes over the states
        # the search bounded: on the open plans of a fresh optimizer
        # (the canonical parent is in its table, or is folded into it,
        # exactly as during the search; nothing is closed), and from
        # scratch the way every bound was computed before open plans
        # (sub-query, build, compile, run, cost).
        states = self._bounded_states(registry, query, optimizer)
        shared_s = scratch_s = float("inf")
        for _ in range(repeats if states else 0):
            fresh = Optimizer(registry, metric, config)
            begun = time.perf_counter()
            shared = [bound for bound, _ in search_states(fresh, query, states)]
            shared_s = min(shared_s, time.perf_counter() - begun)
            begun = time.perf_counter()
            scratch = []
            for state in states:
                plan = reference_partial_plan(query, registry, *state)
                scratch.append(metric.cost(plan, annotate(plan, setting)))
            scratch_s = min(scratch_s, time.perf_counter() - begun)
            assert [b.hex() for b in shared] == [b.hex() for b in scratch], name

        def per_bound(seconds):
            return round(seconds / len(states) * 1e6, 1) if states else None

        return {
            "domain": name,
            "metric": metric.name,
            "optimize_ms": round(optimize_s * 1e3, 3),
            "states_explored": stats.topology_states_explored,
            "states_pruned": stats.topology_states_pruned,
            "bounds_computed": stats.memo_bound_misses,
            "us_per_bound": per_bound(shared_s),
            "us_per_bound_from_scratch": per_bound(scratch_s),
            "topologies_in_phase3": stats.fetch_evaluations,
            "fetch_vectors_evaluated": stats.fetch_vectors_evaluated,
            "atoms_placed": stats.atoms_placed,
            "annotate_calls": stats.annotate_calls,
        }

    def test_search_cost(self, out_dir):
        rows = [
            self._measure(name, registry, query, metric)
            for name, registry, query in _search_problems()
            for metric in (ExecutionTimeMetric(), SumCostMetric())
        ]
        by_key = {(row["domain"], row["metric"]): row for row in rows}
        for row in rows:
            # A state costs one placed atom (a pruned state drops its
            # open plan; the few that are then extended after all are
            # folded twice).
            assert row["atoms_placed"] <= 1.1 * row["states_explored"] + 2, row
        # A bound on the open plan of a shared prefix against one built
        # from scratch, measured side by side so the host's speed
        # cancels out: about 2.9x cheaper on bio under ETM, 3.2x under
        # SCM (four passes read 2.5-3.1x and 2.9-3.3x; closing every
        # bounded plan, it was 2.0x).  What is left per bound is mostly
        # the fold (``place`` + ``extended``), not the evaluation.  A
        # quick run times one pass, which is too few to assert on.
        bio = by_key["bio", "execution-time"]
        if not QUICK:
            assert 2 * bio["us_per_bound"] <= bio["us_per_bound_from_scratch"], bio
        # Phase 3 sizes the topologies that can still beat the incumbent.
        assert by_key["travel-served", "execution-time"]["topologies_in_phase3"] <= 10
        append_history(out_dir / bench_out_name("BENCH_optimizer.json"), {
            "env": env_stamp(),
            "search_cost": rows,
            "parent_bio_us_per_bound": PARENT_BIO_BOUND_US,
        })

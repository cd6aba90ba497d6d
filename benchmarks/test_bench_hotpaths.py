"""Hot-path before/after throughput trajectory (``BENCH_hotpaths.json``).

Measures the two hot paths overhauled by the search-memoization +
execution fast-path subsystem and records a machine-readable
before/after trajectory so future PRs can track the perf curve:

* **optimizer states/sec** — branch-and-bound search over the Figure 7
  plan space (the running example), unmemoized ("before") vs. with the
  persistent :class:`~repro.optimizer.memo.PlanMemo` under a
  repeated-traffic workload ("after").  The memoized workload must
  also make at least 3x fewer ``annotate`` calls, witnessed by the
  ``SearchStats`` memo counters;
* **join tuples/sec** — candidate cells consumed per second by the
  reference full-plane :func:`~repro.testing.reference.execute_join`
  ("before") vs. the key-bucketed :func:`~repro.execution.joins.join_rows`
  ("after", compiling its ``CompiledJoin`` from the inputs' variables
  inside the timing, as it always has) on a randomized plane, with
  identical output required;
* **slot-row plane sweep** — candidate cells per second of the hashed
  join (slot-tuple rows, the only production path since PR 12) on
  growing wide-row selective planes, bit-identical to the reference
  full-plane :func:`~repro.testing.reference.execute_join` at every
  size.  The dict-row ``before`` column this sweep used to carry left
  with the dict-row path in PR 12; its numbers live in git history
  (``BENCH_hotpaths.json`` before PR 12);
* **multi-feed block sweep** — a heap-driven
  :class:`~repro.execution.lazy.MultiFeedCursor` over growing block
  counts (up to 1000 in full runs): a small demand must touch only a
  bounded prefix of blocks, fetch no more pages or tuples than eager
  materialization at every point, and stay bit-identical to the eager
  feed-order concatenation;
* **execution program** — per built-in domain, what compiling the
  optimized plan once buys a warm request: µs to compile an
  :class:`~repro.execution.program.ExecutionProgram`, µs to run it
  against a warm logical cache, and µs of the build-per-request style
  it replaced (``PlanSpec.build`` + an execution that compiles on
  entry), answers identical.

The file is a trajectory: every full run appends an entry with its
environment stamp (``_bench_env.append_history``).
"""

from __future__ import annotations

import statistics
import time

import pytest
from _bench_env import (
    QUICK,
    append_history,
    bench_out_name,
    bench_scale,
    env_stamp,
)

from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting, make_cache
from repro.execution.engine import ExecutionEngine, ExecutionMode
from repro.execution.joins import join_rows
from repro.execution.lazy import (
    LazyServiceCursor,
    MaterializedCursor,
    MultiFeedCursor,
)
from repro.execution.program import ExecutionProgram
from repro.execution.results import Row
from repro.model.predicates import BinaryExpression, Comparison
from repro.model.terms import Constant, Variable
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.plans.spec import PlanSpec
from repro.services.registry import JoinMethod
from repro.sources.biblio import biblio_registry, experts_query
from repro.sources.bio import bio_registry, glycolysis_homolog_query
from repro.sources.news import market_moving_news_query, news_registry
from repro.sources.travel import running_example_query, travel_registry
from repro.sources.weekend import mahler_weekend_query, weekend_registry
from repro.testing import ListPageSource, compiled_join, execute_join

pytestmark = pytest.mark.bench

#: Optimizations of the same query per workload: the repeated-traffic
#: scenario the memo targets (profiles stay put, queries repeat).
WORKLOAD_RUNS = 3

JOIN_SIDE = bench_scale(400, 80)
JOIN_KEYS = 40

#: Slot-row plane sweep: wide rows (6 payload variables a side) and a
#: selective residual predicate — the shape where per-candidate merge
#: cost dominates.
PLANE_SIDES = (60, 120) if QUICK else (200, 400, 800)
PLANE_KEYS = 10
PLANE_WIDTH = 6

#: Multi-feed block sweep (heap-driven MultiFeedCursor).
BLOCK_COUNTS = (40, 120) if QUICK else (100, 400, 1000)
BLOCK_CHUNK = 2
BLOCK_ROWS = 3
BLOCK_DEMAND = 10

#: Execution-program entry: the serving layer's k and cache setting,
#: repetitions per timing (the median is reported).
PROGRAM_K = 5
PROGRAM_RUNS = bench_scale(200, 20)
PROGRAM_DOMAINS = {
    "travel": (travel_registry, running_example_query),
    "biblio": (biblio_registry, experts_query),
    "bio": (bio_registry, glycolysis_homolog_query),
    "news": (news_registry, market_moving_news_query),
    "weekend": (weekend_registry, mahler_weekend_query),
}


def _median_us(work) -> float:
    times = []
    for _ in range(PROGRAM_RUNS):
        begun = time.perf_counter()
        work()
        times.append(time.perf_counter() - begun)
    return round(statistics.median(times) * 1e6, 1)


def _program_point(domain: str) -> dict:
    make_registry, make_query = PROGRAM_DOMAINS[domain]
    registry, query = make_registry(), make_query()
    head = tuple(query.head)
    optimized = Optimizer(
        registry,
        ExecutionTimeMetric(),
        OptimizerConfig(k=PROGRAM_K, cache_setting=CacheSetting.OPTIMAL),
    ).optimize(query)
    spec = PlanSpec.from_optimized(optimized)
    program = ExecutionProgram.compile(optimized.plan, head)
    engine = ExecutionEngine(
        registry, cache_setting=CacheSetting.OPTIMAL, mode=ExecutionMode.STREAMED
    )
    cache = make_cache(CacheSetting.OPTIMAL)

    def run(plan):
        result = engine.execute(
            plan, head, k=PROGRAM_K, reset_remote_caches=False, shared_cache=cache
        )
        # Node ids differ from build to build; answers and ranks do not.
        return result.answers(), [row.rank_key() for row in result.rows]

    expected = run(program)  # also warms the cache
    assert expected[0] and expected == run(spec.build(query, registry))
    return {
        "domain": domain,
        "plan_nodes": len(program.steps),
        "compile_us": _median_us(lambda: ExecutionProgram.compile(optimized.plan, head)),
        "run_us": _median_us(lambda: run(program)),
        "build_and_run_us": _median_us(lambda: run(spec.build(query, registry))),
    }


def _optimizer_workload(registry, query, memoize: bool) -> dict:
    optimizer = Optimizer(
        registry, ExecutionTimeMetric(), OptimizerConfig(memoize=memoize)
    )
    states = 0
    annotate_calls = 0
    memo_hits = 0
    cost = None
    start = time.perf_counter()
    for _ in range(WORKLOAD_RUNS):
        result = optimizer.optimize(query)
        states += result.stats.topology_states_explored
        annotate_calls += result.stats.annotate_calls
        memo_hits += result.stats.memo_hits
        cost = result.cost
    elapsed = time.perf_counter() - start
    return {
        "runs": WORKLOAD_RUNS,
        "topology_states": states,
        "annotate_calls": annotate_calls,
        "memo_hits": memo_hits,
        "cost": cost,
        "elapsed_s": round(elapsed, 6),
        "states_per_s": round(states / elapsed, 1),
    }


def _hashed(left_variables, right_variables, predicates=()):
    """``join_rows`` as a ``(method, left, right)`` join over rows built
    on *left_variables* / *right_variables*."""

    def join(method, left, right):
        compiled = compiled_join(
            method, left_variables, right_variables, predicates
        )
        return join_rows(compiled, left, right)

    return join


_KLR = ((Variable("K"), Variable("L")), (Variable("K"), Variable("R")))


def _join_inputs() -> tuple[list[Row], list[Row]]:
    key, left_var, right_var = Variable("K"), Variable("L"), Variable("R")
    left = [
        Row(bindings={key: i % JOIN_KEYS, left_var: i}) for i in range(JOIN_SIDE)
    ]
    right = [
        Row(bindings={key: (j * 7) % JOIN_KEYS, right_var: j})
        for j in range(JOIN_SIDE)
    ]
    return left, right


def _join_throughput(join, method, left, right) -> dict:
    start = time.perf_counter()
    rows = join(method, left, right)
    elapsed = time.perf_counter() - start
    cells = len(left) * len(right)
    return {
        "plane_cells": cells,
        "rows_out": len(rows),
        "elapsed_s": round(elapsed, 6),
        "tuples_per_s": round(cells / elapsed, 1),
    }


def _row_signature(rows):
    return [(dict(r.bindings), r.ranks) for r in rows]


# -- slot-row plane sweep ------------------------------------------------


def _plane_inputs(side: int) -> tuple[list[Row], list[Row], Comparison]:
    key = Variable("K")
    left_vars = [Variable(f"L{i}") for i in range(PLANE_WIDTH)]
    right_vars = [Variable(f"R{i}") for i in range(PLANE_WIDTH)]
    left = [
        Row(
            bindings={key: i % PLANE_KEYS,
                      **{v: i + n for n, v in enumerate(left_vars)}},
            ranks=(("L", i % 13),),
        )
        for i in range(side)
    ]
    right = [
        Row(
            bindings={key: (j * 7) % PLANE_KEYS,
                      **{v: j + n for n, v in enumerate(right_vars)}},
            ranks=(("R", j % 11),),
        )
        for j in range(side)
    ]
    predicate = Comparison(
        BinaryExpression("+", left_vars[0], right_vars[0]), "<", Constant(12)
    )
    return left, right, predicate


def _slot_plane_point(side: int) -> dict:
    left, right, predicate = _plane_inputs(side)
    hashed = _hashed(
        (Variable("K"), *(Variable(f"L{i}") for i in range(PLANE_WIDTH))),
        (Variable("K"), *(Variable(f"R{i}") for i in range(PLANE_WIDTH))),
        (predicate,),
    )
    cells = side * side
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        rows = hashed(JoinMethod.MERGE_SCAN, left, right)
        best = min(best, time.perf_counter() - start)
    # Bit-identity with the reference full-plane scan, at every point.
    assert _row_signature(rows) == _row_signature(
        execute_join(JoinMethod.MERGE_SCAN, left, right, (predicate,))
    )
    return {
        "side": side,
        "plane_cells": cells,
        "rows_out": len(rows),
        "elapsed_s": round(best, 6),
        "tuples_per_s": round(cells / best, 1),
    }


# -- multi-feed block sweep ----------------------------------------------


def _block_cursor(
    count: int,
) -> tuple[MultiFeedCursor, list[LazyServiceCursor], list[Row], int]:
    """A cursor over *count* blocks with rising base ranks (opened on
    demand from a materialized feed of *count* rows), the blocks
    themselves, the eager feed-order concatenation and its page-fetch
    total."""
    key, value = Variable("K"), Variable("V")
    cursors: list[LazyServiceCursor] = []
    eager: list[Row] = []
    eager_pages = 0
    for block in range(count):
        base = block
        ranks = [base + offset for offset in range(BLOCK_ROWS)]
        rows = [
            Row(
                bindings={key: 0, value: (block, index)},
                ranks=((f"feed{block}", base), ("svc", rank)),
            )
            for index, rank in enumerate(ranks)
        ]
        eager.extend(rows)
        pages = [
            rows[i : i + BLOCK_CHUNK] for i in range(0, len(rows), BLOCK_CHUNK)
        ] or [[]]
        eager_pages += len(pages)
        floors: list[int] = []
        seen = 0
        for page in pages:
            seen += len(page)
            floors.append(ranks[seen] if seen < len(ranks) else 10**9)
        cursors.append(
            LazyServiceCursor(
                ListPageSource(pages=pages, rank_floors=floors), base_rank=base
            )
        )
    feed = MaterializedCursor([
        Row(bindings={key: block}, ranks=((f"feed{block}", block),))
        for block in range(count)
    ])
    opening = iter(cursors)
    budget = -(-BLOCK_ROWS // BLOCK_CHUNK)
    cursor = MultiFeedCursor(feed, lambda row, rank: next(opening), budget)
    return cursor, cursors, eager, eager_pages


def _block_sweep_point(count: int) -> dict:
    cursor, blocks, eager, eager_pages = _block_cursor(count)
    start = time.perf_counter()
    cursor.ensure(BLOCK_DEMAND)
    elapsed = time.perf_counter() - start
    lazy_pages = sum(b.pages_fetched for b in blocks)
    # Laziness bounds, asserted at every point (quick runs included):
    # the demand-driven pulls never exceed the eager universe.
    assert lazy_pages <= eager_pages
    assert cursor.tuples_fetched <= len(eager)
    # ... and the placed prefix is bit-identical to eager order.
    assert _row_signature(cursor.rows) == _row_signature(
        eager[: len(cursor.rows)]
    )
    point = {
        "blocks": count,
        "demand": BLOCK_DEMAND,
        "ensure_elapsed_s": round(elapsed, 6),
        "pages_fetched": lazy_pages,
        "eager_pages": eager_pages,
        "tuples_fetched": cursor.tuples_fetched,
        "eager_tuples": len(eager),
        "blocks_untouched": cursor.blocks_untouched,
    }
    cursor.ensure_all()
    assert _row_signature(cursor.rows) == _row_signature(eager)
    return point


class TestHotpathTrajectory:
    def test_write_bench_hotpaths(self, registry, travel_query, out_dir):
        before_opt = _optimizer_workload(registry, travel_query, memoize=False)
        after_opt = _optimizer_workload(registry, travel_query, memoize=True)
        assert after_opt["cost"] == before_opt["cost"]
        # Acceptance: >= 3x fewer annotate calls on the Figure 7 space.
        assert after_opt["annotate_calls"] * 3 <= before_opt["annotate_calls"]

        left, right = _join_inputs()
        joins = {}
        for method in (JoinMethod.NESTED_LOOP, JoinMethod.MERGE_SCAN):
            before_join = _join_throughput(execute_join, method, left, right)
            after_join = _join_throughput(_hashed(*_KLR), method, left, right)
            assert after_join["rows_out"] == before_join["rows_out"]
            joins[method.value] = {"before": before_join, "after": after_join}

        plane_points = [_slot_plane_point(side) for side in PLANE_SIDES]

        block_points = [_block_sweep_point(count) for count in BLOCK_COUNTS]

        payload = {
            "env": env_stamp(),
            "workload": {
                "optimizer": "Figure 7 plan space (running example), "
                f"{WORKLOAD_RUNS} repeated optimizations",
                "join": f"{JOIN_SIDE}x{JOIN_SIDE} plane, {JOIN_KEYS} join keys",
                "slot_plane": f"wide-row selective planes {PLANE_SIDES}, "
                f"{PLANE_KEYS} keys, {PLANE_WIDTH} payload vars/side; single "
                "production path (the dict-row 'before' column was removed "
                "with the dict-row path in PR 12 — its numbers are in git history)",
                "multi_feed": f"block counts {BLOCK_COUNTS}, "
                f"{BLOCK_ROWS} rows/block, chunk {BLOCK_CHUNK}, "
                f"demand {BLOCK_DEMAND}",
                "execution_program": f"optimized plan per domain, k={PROGRAM_K}, "
                f"streamed over a warm optimal cache, median of {PROGRAM_RUNS}",
            },
            "optimizer_states_per_s": {"before": before_opt, "after": after_opt},
            "join_tuples_per_s": joins,
            "slot_join_plane_sweep": plane_points,
            "multi_feed_block_sweep": block_points,
            "execution_program": [
                _program_point(domain) for domain in PROGRAM_DOMAINS
            ],
        }
        append_history(out_dir / bench_out_name("BENCH_hotpaths.json"), payload)

    def test_memoized_workload_matches_unmemoized(self, registry, travel_query):
        before = _optimizer_workload(registry, travel_query, memoize=False)
        after = _optimizer_workload(registry, travel_query, memoize=True)
        assert before["cost"] == after["cost"]
        assert before["topology_states"] == after["topology_states"]

    def test_bench_optimizer_memoized(self, benchmark, registry, travel_query):
        benchmark(_optimizer_workload, registry, travel_query, True)

    def test_bench_join_hashed(self, benchmark):
        left, right = _join_inputs()
        result = benchmark(_hashed(*_KLR), JoinMethod.MERGE_SCAN, left, right)
        assert result == execute_join(JoinMethod.MERGE_SCAN, left, right)

"""Hot-path exact counts (``counts_hotpaths.txt``).

Pins what the search-memoization and execution fast-path subsystems do
on five scenarios, every value a count:

* **optimizer memo** — branch-and-bound over the Figure 7 plan space
  (the running example), unmemoized (a memo that keeps nothing,
  :func:`~repro.testing.reference.unmemoized_optimizer`) vs. with the
  persistent :class:`~repro.optimizer.memo.PlanMemo` under a repeated-traffic
  workload: the same states and optimum, and at least 3x fewer
  ``annotate`` calls, witnessed by the ``SearchStats`` memo counters;
* **join** — the key-bucketed :func:`~repro.execution.joins.join_rows`
  on a randomized plane, row for row the reference full-plane
  :func:`~repro.testing.reference.execute_join`'s;
* **slot-row plane sweep** — the hashed join on growing wide-row
  selective planes, bit-identical to the reference full-plane scan at
  every size;
* **multi-feed block sweep** — a heap-driven
  :class:`~repro.execution.lazy.MultiFeedCursor` over growing block
  counts: a small demand touches only a bounded prefix of blocks,
  fetches no more pages or tuples than eager materialization at every
  point, and stays bit-identical to the eager feed-order concatenation;
* **execution program** — per built-in domain, the compiled
  :class:`~repro.execution.program.ExecutionProgram` of the optimized
  plan answers a warm request exactly as the build-per-request style it
  replaced (``PlanSpec.build`` + an execution that compiles on entry).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import table, write_artifact
from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting, make_cache
from repro.execution.engine import ExecutionEngine
from repro.execution.lazy import MaterializedCursor, MultiFeedCursor
from repro.execution.program import ExecutionProgram
from repro.execution.results import Row, SlotLayout
from repro.model.predicates import BinaryExpression, Comparison
from repro.model.terms import Constant, Variable
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.plans.spec import PlanSpec
from repro.services.registry import JoinMethod
from repro.sources.biblio import biblio_registry, experts_query
from repro.sources.bio import bio_registry, glycolysis_homolog_query
from repro.sources.news import news_registry
from repro.sources.travel import running_example_query, travel_registry
from repro.sources.weekend import mahler_weekend_query, weekend_registry
from repro.testing import (
    ListPageSource,
    as_records,
    compiled_join,
    emitted,
    execute_join,
    joined,
    market_moving_news_query,
    unmemoized_optimizer,
)

pytestmark = pytest.mark.bench

#: Optimizations of the same query per workload: the repeated-traffic
#: scenario the memo targets (profiles stay put, queries repeat).
WORKLOAD_RUNS = 3

JOIN_SIDE = 80
JOIN_KEYS = 40

#: Slot-row plane sweep: wide rows (6 payload variables a side) and a
#: selective residual predicate — the shape where per-candidate merge
#: cost dominates.
PLANE_SIDES = (60, 120)
PLANE_KEYS = 10
PLANE_WIDTH = 6

#: Multi-feed block sweep (heap-driven MultiFeedCursor).
BLOCK_COUNTS = (40, 120)
BLOCK_CHUNK = 2
BLOCK_ROWS = 3
BLOCK_DEMAND = 10

#: Execution-program entry: the serving layer's k and cache setting.
PROGRAM_K = 5
PROGRAM_DOMAINS = {
    "travel": (travel_registry, running_example_query),
    "biblio": (biblio_registry, experts_query),
    "bio": (bio_registry, glycolysis_homolog_query),
    "news": (news_registry, market_moving_news_query),
    "weekend": (weekend_registry, mahler_weekend_query),
}


def _program_point(domain: str) -> dict:
    make_registry, make_query = PROGRAM_DOMAINS[domain]
    registry, query = make_registry(), make_query()
    head = tuple(query.head)
    optimized = Optimizer(
        registry,
        ExecutionTimeMetric(),
        OptimizerConfig(k=PROGRAM_K, cache_setting=CacheSetting.OPTIMAL),
    ).optimize(query)
    program = ExecutionProgram.compile(optimized.plan, head)
    engine = ExecutionEngine(registry, cache_setting=CacheSetting.OPTIMAL)
    cache = make_cache(CacheSetting.OPTIMAL)

    def run(plan):
        result = engine.execute(
            plan, head, k=PROGRAM_K, reset_remote_caches=False, shared_cache=cache
        )
        # Node ids differ from build to build; answers and ranks do not.
        return result.answers(), [row.rank_key() for row in result.rows]

    expected = run(program)  # also warms the cache
    built = PlanSpec.from_optimized(optimized).build(query, registry)
    assert expected[0] and expected == run(built)
    return {"domain": domain, "plan_nodes": len(program.steps),
            "answers": len(expected[0])}


def _optimizer_workload(registry, query, memoize: bool) -> dict:
    make = Optimizer if memoize else unmemoized_optimizer
    optimizer = make(registry, ExecutionTimeMetric(), OptimizerConfig())
    results = [optimizer.optimize(query) for _ in range(WORKLOAD_RUNS)]
    return {
        "memoize": memoize,
        "runs": WORKLOAD_RUNS,
        "topology_states": sum(r.stats.topology_states_explored for r in results),
        "annotate_calls": sum(r.stats.annotate_calls for r in results),
        "memo_hits": sum(r.stats.memo_hits for r in results),
        "cost": results[-1].cost,
    }


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
    compiled = compiled_join(
        JoinMethod.MERGE_SCAN,
        left[0].layout.variables, right[0].layout.variables, (predicate,),
    )
    rows = joined(compiled, left, right)
    # Bit-identity with the reference full-plane scan, at every point.
    assert _row_signature(rows) == _row_signature(
        execute_join(JoinMethod.MERGE_SCAN, left, right, (predicate,))
    )
    return {"side": side, "plane_cells": side * side, "rows_out": len(rows)}


# -- multi-feed block sweep ----------------------------------------------


def _block_cursor(
    count: int,
) -> tuple[MultiFeedCursor, list[ListPageSource], list[Row], int]:
    """A cursor over *count* blocks with rising base ranks (opened on
    demand from a materialized feed of *count* rows), the blocks'
    units, the eager feed-order concatenation and its page-fetch
    total."""
    key, value = Variable("K"), Variable("V")
    sources: list[ListPageSource] = []
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
        sources.append(ListPageSource(pages=pages, rank_floors=floors))
    feed = MaterializedCursor(as_records([
        Row(bindings={key: block}, ranks=((f"feed{block}", block),))
        for block in range(count)
    ]))
    opening = iter(sources)
    cursor = MultiFeedCursor(feed, lambda record: next(opening))
    return cursor, sources, eager, eager_pages


def _block_sweep_point(count: int) -> dict:
    cursor, sources, eager, eager_pages = _block_cursor(count)
    cursor.ensure(BLOCK_DEMAND)
    # What the demand pulled, read off the blocks' units.
    lazy_pages = sum(len(source.fetch_log) for source in sources)
    tuples = sum(source.rows_pulled for source in sources)
    # Laziness bounds, asserted at every point: the demand-driven pulls
    # never exceed the eager universe.
    assert lazy_pages <= eager_pages
    assert tuples <= len(eager)
    # ... and the placed prefix is bit-identical to eager order.
    layout = SlotLayout((Variable("K"), Variable("V")))
    assert _row_signature(emitted(cursor.rows, layout)) == _row_signature(
        eager[: len(cursor.rows)]
    )
    point = {
        "blocks": count,
        "demand": BLOCK_DEMAND,
        "pages_fetched": lazy_pages,
        "eager_pages": eager_pages,
        "tuples_fetched": tuples,
        "eager_tuples": len(eager),
        "blocks_untouched": sum(not source.fetch_log for source in sources),
    }
    cursor.ensure_all()
    assert _row_signature(emitted(cursor.rows, layout)) == _row_signature(eager)
    return point


def test_write_counts_hotpaths(registry, travel_query, out_dir):
    before, after = (
        _optimizer_workload(registry, travel_query, memoize=memoize)
        for memoize in (False, True)
    )
    assert after["cost"] == before["cost"]
    assert after["topology_states"] == before["topology_states"]
    # Acceptance: >= 3x fewer annotate calls on the Figure 7 space.
    assert after["annotate_calls"] * 3 <= before["annotate_calls"]

    left, right = _join_inputs()
    joins = []
    for method in (JoinMethod.NESTED_LOOP, JoinMethod.MERGE_SCAN):
        rows = joined(compiled_join(method, *_KLR), left, right)
        assert rows == execute_join(method, left, right)
        joins.append({"method": method.value, "plane_cells": JOIN_SIDE ** 2,
                      "join_keys": JOIN_KEYS, "rows_out": len(rows)})

    write_artifact(out_dir, "counts_hotpaths.txt", "\n\n".join([
        table(f"Optimizer memo: Figure 7 plan space, {WORKLOAD_RUNS} "
              "repeated optimizations", [before, after]),
        table("Hashed join vs. reference full-plane scan", joins),
        table(f"Slot-row plane sweep: {PLANE_KEYS} keys, {PLANE_WIDTH} "
              "payload variables a side, selective residual predicate",
              [_slot_plane_point(side) for side in PLANE_SIDES]),
        table(f"Multi-feed block sweep: {BLOCK_ROWS} rows a block, "
              f"chunk {BLOCK_CHUNK}",
              [_block_sweep_point(count) for count in BLOCK_COUNTS]),
        table(f"Execution program vs. build per request: k={PROGRAM_K}, "
              "warm optimal cache",
              [_program_point(domain) for domain in PROGRAM_DOMAINS]),
    ]))

"""Demand-driven lazy fetching trajectory (``BENCH_lazy.json``).

Measures what the lazy fetch subsystem was built to save: **remote
service work** — calls, page fetches, and raw tuples pulled — for
top-k executions at k ∈ {1, 10, 100}, against the eager streamed
baseline (PR 2: early exit saves join work, but every service is still
fully materialized up front) and the full-scan oracle.

Three workloads:

* **pair** — the paper's two-search-services shape on the
  rank-monotone plane: both services return their tuples in rank
  order (rank = position), every cell of the candidate plane is a
  matching combination, and the composed rank of cell ``(i, j)`` is
  ``i + j`` — exactly the regime where a pull-based rank-join touches
  ``O(k)`` rows per side;
* **serial** — a serial-shaped plan: a ranked ``feeder`` proliferates
  into FEEDS tuples, each feeding the multi-feed ``lefts`` node (one
  budgeted block per feed tuple), merged with a single-feed
  ``rights`` service at the final join.  This is the shape PR 5's
  :class:`~repro.execution.lazy.MultiFeedCursor` exists for: before
  it, multi-feed inputs were materialized eagerly and serial plans
  saved no remote work at all;
* **deep chain** — a service-terminal plan, no join at all: a ranked
  search ``head`` feeding 1 / 2 / 3 levels of exact lookups over tables
  of two sizes.  The whole pipe chain is demand-driven (a feed may be a
  cursor), so page fetches must grow with k — exactly ``ceil(k / chunk)
  + depth * k`` — and be flat in table size and in depth × fan-out;
  plus one multi-round session (F too small for k) where growth in
  place must pay the new pages of each round, not every round again.

Three engines run each plan:

* **oracle** — ``ExecutionMode.PARALLEL`` full materialization +
  ``compose_ranking`` (the equivalence reference);
* **eager** — ``repro.testing.eager_streamed_engine``: early exit on
  the join walk, eager service materialization (the PR 2 engine, kept
  as a reference fixture);
* **lazy** — ``ExecutionMode.STREAMED`` (default): the final join
  pulls its single-feed inputs through lazy cursors.

The acceptance assertion is the point of the subsystem: at k = 1 and
k = 10 the lazy execution must fetch **strictly fewer service tuples**
than eager streaming (and never more at any k), while the emitted
rows stay bit-identical to the oracle.
"""

from __future__ import annotations

import time

import pytest
from _bench_env import (
    QUICK,
    append_history,
    bench_out_name,
    bench_scale,
    env_stamp,
)

from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine, ExecutionMode
from repro.execution.progressive import ProgressiveExecutor
from repro.execution.results import compose_ranking
from repro.model.atoms import Atom
from repro.model.query import ConjunctiveQuery
from repro.model.schema import signature
from repro.model.terms import Constant, Variable
from repro.plans.builder import PlanBuilder, Poset, chain_poset
from repro.services.profile import exact_profile, search_profile
from repro.services.registry import JoinMethod, ServiceRegistry
from repro.services.table import TableExactService, TableSearchService
from repro.testing import ReexecutingExecutor, eager_streamed_engine

pytestmark = pytest.mark.bench

SIDE = bench_scale(400, 60)
CHUNK = 10
FETCHES = -(-SIDE // CHUNK)  # enough budget to drain either service
KS = (1, 10, 100)

#: Serial-plan workload: FEEDS feeder tuples, each opening one block
#: of PER ranked tuples on the multi-feed node.
FEEDS = bench_scale(20, 6)
PER = bench_scale(40, 10)
SERIAL_CHUNK = 5
SERIAL_FETCHES = -(-PER // SERIAL_CHUNK)


#: Deep-chain workload: table sizes, lookup levels under the head, and
#: the head's page budget (what an optimizer sized for k = 100 at a
#: selectivity below 1 would allow).
CHAIN_TABLES = (bench_scale(1_000, 200), bench_scale(10_000, 2_000))
CHAIN_DEPTHS = (1, 2, 3)
CHAIN_FETCHES = bench_scale(40, 20)


def _chain_plan(depth: int, rows: int, fetches: int = CHAIN_FETCHES):
    """``head('q', X0), l1(X0, X1), ..., l<depth>(X<depth-1>, X<depth>)``.

    The head ranks *rows* keys (rank = position, CHUNK a page); every
    lookup level is an exact bulk service holding one row per key.
    """
    registry = ServiceRegistry()
    registry.register(
        TableSearchService(
            signature("head", ["Q", "X0"], ["io"]),
            search_profile(chunk_size=CHUNK, response_time=1.0),
            [("q", x) for x in range(rows)],
            score=lambda row: float(-row[1]),
        )
    )
    atoms = [Atom("head", (Constant("q"), Variable("X0")))]
    for level in range(1, depth + 1):
        registry.register(
            TableExactService(
                signature(f"l{level}", [f"K{level}", f"V{level}"], ["io"]),
                exact_profile(erspi=1.0, response_time=1.0),
                [(x, x) for x in range(rows)],
            )
        )
        atoms.append(
            Atom(f"l{level}", (Variable(f"X{level - 1}"), Variable(f"X{level}")))
        )
    query = ConjunctiveQuery(
        name="lazychain",
        head=tuple(Variable(f"X{level}") for level in range(depth + 1)),
        atoms=tuple(atoms),
        predicates=(),
    )
    plan = PlanBuilder(query, registry).build(
        tuple(
            registry.signature(atom.service).pattern("io") for atom in atoms
        ),
        chain_poset(depth + 1, range(depth + 1)),
        fetches={0: fetches},
    )
    return registry, tuple(query.head), plan


def _plan(method: JoinMethod):
    """Two single-feed search services over the SIDE×SIDE plane."""
    registry = ServiceRegistry()
    for name, var in (("lefts", "L"), ("rights", "R")):
        registry.register(
            TableSearchService(
                signature(name, ["Q", "K", var], ["ioo"]),
                search_profile(chunk_size=CHUNK, response_time=1.0),
                [("q", 0, index) for index in range(SIDE)],
                score=lambda row: float(-row[2]),
            )
        )
    registry.register_join_method("lefts", "rights", method)
    key, left_var, right_var = Variable("K"), Variable("L"), Variable("R")
    query = ConjunctiveQuery(
        name="lazybench",
        head=(key, left_var, right_var),
        atoms=(
            Atom("lefts", (Constant("q"), key, left_var)),
            Atom("rights", (Constant("q"), key, right_var)),
        ),
        predicates=(),
    )
    plan = PlanBuilder(query, registry).build(
        (
            registry.signature("lefts").pattern("ioo"),
            registry.signature("rights").pattern("ioo"),
        ),
        Poset(n=2),
        fetches={0: FETCHES, 1: FETCHES},
    )
    return registry, tuple(query.head), plan


def _serial_plan(method: JoinMethod):
    """feeder → multi-feed lefts (FEEDS blocks), joined with rights."""
    registry = ServiceRegistry()
    registry.register(
        TableSearchService(
            signature("feeder", ["Q", "X"], ["io"]),
            search_profile(chunk_size=FEEDS, response_time=1.0),
            [("q", x) for x in range(FEEDS)],
            score=lambda row: float(-row[1]),
        )
    )
    registry.register(
        TableSearchService(
            signature("lefts", ["X", "K", "L"], ["ioo"]),
            search_profile(chunk_size=SERIAL_CHUNK, response_time=1.0),
            [(x, 0, index) for x in range(FEEDS) for index in range(PER)],
            score=lambda row: float(-row[2]),
        )
    )
    registry.register(
        TableSearchService(
            signature("rights", ["Q", "K", "R"], ["ioo"]),
            search_profile(chunk_size=SERIAL_CHUNK, response_time=1.0),
            [("q", 0, index) for index in range(PER)],
            score=lambda row: float(-row[2]),
        )
    )
    registry.register_join_method("lefts", "rights", method)
    key = Variable("K")
    x, left_var, right_var = Variable("X"), Variable("L"), Variable("R")
    query = ConjunctiveQuery(
        name="lazyserial",
        head=(key, left_var, right_var),
        atoms=(
            Atom("feeder", (Constant("q"), x)),
            Atom("lefts", (x, key, left_var)),
            Atom("rights", (Constant("q"), key, right_var)),
        ),
        predicates=(),
    )
    plan = PlanBuilder(query, registry).build(
        (
            registry.signature("feeder").pattern("io"),
            registry.signature("lefts").pattern("ioo"),
            registry.signature("rights").pattern("ioo"),
        ),
        Poset(n=3, pairs=frozenset({(0, 1)})),
        fetches={0: 1, 1: SERIAL_FETCHES, 2: SERIAL_FETCHES},
    )
    return registry, tuple(query.head), plan


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, max(time.perf_counter() - start, 1e-9)


def _measure(engine: ExecutionEngine, plan, head, k) -> dict:
    result, elapsed = _timed(lambda: engine.execute(plan, head=head, k=k))
    stats = result.stats
    return {
        "result": result,
        "service_calls": stats.total_calls,
        "page_fetches": stats.total_fetches,
        "tuples_fetched": stats.total_tuples_fetched,
        "lazy_tuples_fetched": stats.lazy_tuples_fetched,
        "lazy_calls_saved": stats.lazy_calls_saved,
        "lazy_blocks": stats.lazy_blocks,
        "lazy_blocks_untouched": stats.lazy_blocks_untouched,
        "cells_visited": stats.streamed_cells_visited,
        "wall_s": round(elapsed, 6),
    }


def _strip(measurement: dict) -> dict:
    return {key: value for key, value in measurement.items() if key != "result"}


class TestLazyFetchTrajectory:
    def test_write_bench_lazy(self, out_dir):
        per_method: dict[str, dict] = {}
        for method in (JoinMethod.MERGE_SCAN, JoinMethod.NESTED_LOOP):
            by_k: dict[str, dict] = {}
            for k in KS:
                registry, head, plan = _plan(method)
                oracle = ExecutionEngine(
                    registry, mode=ExecutionMode.PARALLEL
                ).execute(plan, head=head)
                expected = compose_ranking(oracle.rows, k)
                eager = _measure(
                    eager_streamed_engine(registry),
                    plan, head, k,
                )
                lazy = _measure(
                    ExecutionEngine(registry, mode=ExecutionMode.STREAMED),
                    plan, head, k,
                )
                # Oracle equivalence: identical rows, ranks, and order.
                for measured in (eager, lazy):
                    assert [
                        (r.bindings, r.ranks) for r in measured["result"].rows
                    ] == [(r.bindings, r.ranks) for r in expected]
                # The acceptance property: early exit now saves remote
                # work, strictly at small k, never costing extra.
                assert lazy["tuples_fetched"] <= eager["tuples_fetched"]
                assert lazy["page_fetches"] <= eager["page_fetches"]
                if k < SIDE:
                    assert lazy["tuples_fetched"] < eager["tuples_fetched"], (
                        method, k,
                    )
                by_k[f"k={k}"] = {
                    "eager_streamed": _strip(eager),
                    "lazy_streamed": _strip(lazy),
                }
            per_method[method.value] = by_k

        serial_per_method: dict[str, dict] = {}
        for method in (JoinMethod.MERGE_SCAN, JoinMethod.NESTED_LOOP):
            by_k = {}
            for k in KS:
                registry, head, plan = _serial_plan(method)
                oracle = ExecutionEngine(
                    registry, mode=ExecutionMode.PARALLEL
                ).execute(plan, head=head)
                expected = compose_ranking(oracle.rows, k)
                eager = _measure(
                    eager_streamed_engine(registry),
                    plan, head, k,
                )
                lazy = _measure(
                    ExecutionEngine(registry, mode=ExecutionMode.STREAMED),
                    plan, head, k,
                )
                for measured in (eager, lazy):
                    assert [
                        (r.bindings, r.ranks) for r in measured["result"].rows
                    ] == [(r.bindings, r.ranks) for r in expected]
                # The PR 5 acceptance property: the multi-feed node of
                # a serial plan now saves remote work too, strictly at
                # small k, never costing extra.
                assert lazy["tuples_fetched"] <= eager["tuples_fetched"]
                assert lazy["page_fetches"] <= eager["page_fetches"]
                if k < FEEDS * PER:
                    assert lazy["tuples_fetched"] < eager["tuples_fetched"], (
                        method, k,
                    )
                # the feeder is demand-driven too (its only consumer is
                # lazy): its block, FEEDS on lefts, the rights cursor
                assert lazy["lazy_blocks"] == FEEDS + 2
                if k == 1:
                    assert lazy["lazy_blocks_untouched"] > 0
                by_k[f"k={k}"] = {
                    "eager_streamed": _strip(eager),
                    "lazy_streamed": _strip(lazy),
                }
            serial_per_method[method.value] = by_k

        chain_points = []
        fetches: dict[tuple[int, int, int], int] = {}
        for rows in CHAIN_TABLES:
            for depth in CHAIN_DEPTHS:
                for k in KS:
                    registry, head, plan = _chain_plan(depth, rows)
                    eager = _measure(
                        eager_streamed_engine(registry), plan, head, k
                    )
                    lazy = _measure(
                        ExecutionEngine(registry, mode=ExecutionMode.STREAMED),
                        plan, head, k,
                    )
                    assert len(lazy["result"].rows) == k
                    assert [
                        (r.bindings, r.ranks) for r in lazy["result"].rows
                    ] == [(r.bindings, r.ranks) for r in eager["result"].rows]
                    # Traffic grows with k: the head pages that hold k
                    # keys, and one lookup per key and level.
                    assert lazy["page_fetches"] == -(-k // CHUNK) + depth * k
                    fetches[rows, depth, k] = lazy["page_fetches"]
                    chain_points.append({
                        "table_rows": rows, "lookup_levels": depth, "k": k,
                        "eager_streamed": _strip(eager),
                        "lazy_streamed": _strip(lazy),
                    })
        small, large = CHAIN_TABLES
        for depth in CHAIN_DEPTHS:
            by_k = [fetches[small, depth, k] for k in KS]
            assert by_k == sorted(by_k)  # non-decreasing in k
            for k in KS:
                # flat in table size, and in depth x fan-out: a level
                # more costs its own lookups, never a multiple
                assert fetches[small, depth, k] == fetches[large, depth, k]
                assert fetches[small, depth, k] <= depth * fetches[small, 1, k]
        for point in chain_points:
            if point["k"] == KS[-1]:
                assert 2 * point["lazy_streamed"]["page_fetches"] <= (
                    point["eager_streamed"]["page_fetches"]
                )

        # One multi-round session: F = 1 page holds 10 keys, k = 100
        # needs the ladder 1, 2, 4, 8, 16.  No cache, so every pull is a
        # remote fetch: in place pays each page once — what one walk
        # with a large enough F pays — re-execution pays every earlier
        # round again.
        multi_round = {}
        depth, k = CHAIN_DEPTHS[-1], KS[-1]
        for name, cls in (
            ("in_place", ProgressiveExecutor),
            ("re_executing", ReexecutingExecutor),
        ):
            registry, head, plan = _chain_plan(depth, small, fetches=1)
            executor = cls(
                registry=registry, plan=plan, head=head,
                mode=ExecutionMode.STREAMED,
                cache_setting=CacheSetting.NO_CACHE,
            )
            result, elapsed = _timed(lambda: executor.run(k))
            assert len(result.rows) == k
            multi_round[name] = {
                "rounds": len(executor.rounds),
                "ladder": [r.fetches[0] for r in executor.rounds],
                "page_fetches_per_round": [
                    r.stats.total_fetches for r in executor.rounds
                ],
                "page_fetches": sum(
                    r.stats.total_fetches for r in executor.rounds
                ),
                "tuples_processed": sum(
                    r.stats.tuples_processed for r in executor.rounds
                ),
                "virtual_s": round(sum(r.elapsed for r in executor.rounds), 6),
                "wall_s": round(elapsed, 6),
            }
        in_place, re_executing = (
            multi_round["in_place"], multi_round["re_executing"]
        )
        assert in_place["ladder"] == re_executing["ladder"]
        assert in_place["page_fetches"] == fetches[small, depth, k]
        assert in_place["page_fetches"] < re_executing["page_fetches"]
        assert re_executing["page_fetches"] == sum(
            # round r re-walks from page 0 to where it stops
            min(pages * CHUNK, k) * depth + -(-min(pages * CHUNK, k) // CHUNK)
            for pages in re_executing["ladder"]
        )

        payload = {
            "bench": "lazy",
            "quick": QUICK,
            "workload": {
                "plane": f"{SIDE}x{SIDE} all-candidate plane, rank-monotone "
                "single-feed search services (rank = position)",
                "chunk_size": CHUNK,
                "fetch_budget_pages": FETCHES,
                "k_values": list(KS),
                "baselines": "eager_streamed = repro.testing.eager_streamed_engine "
                "(PR 2 behavior); both paths checked "
                "bit-identical to compose_ranking over PARALLEL execution",
            },
            "per_method": per_method,
            "serial_workload": {
                "plan": "feeder -> multi-feed lefts (one budgeted block "
                "per feeder tuple), joined with single-feed rights",
                "feeds": FEEDS,
                "tuples_per_block": PER,
                "chunk_size": SERIAL_CHUNK,
                "fetch_budget_pages": SERIAL_FETCHES,
                "k_values": list(KS),
            },
            "serial_per_method": serial_per_method,
            "deep_chain_workload": {
                "plan": "search head -> 1/2/3 levels of exact bulk lookups "
                "-> output (service-terminal: the chain is the stream)",
                "table_rows": list(CHAIN_TABLES),
                "lookup_levels": list(CHAIN_DEPTHS),
                "chunk_size": CHUNK,
                "fetch_budget_pages": CHAIN_FETCHES,
                "k_values": list(KS),
                "expected_page_fetches": "ceil(k / chunk) + levels * k",
            },
            "deep_chain": chain_points,
            "deep_chain_multi_round": {
                "session": f"F=1, k={k}, {depth} lookup levels, "
                f"{small}-row tables, no cache",
                **multi_round,
            },
        }
        append_history(
            out_dir / bench_out_name("BENCH_lazy.json"),
            {**payload, "env": env_stamp()},
        )

    def test_bench_lazy_streamed_top_10(self, benchmark):
        registry, head, plan = _plan(JoinMethod.MERGE_SCAN)
        engine = ExecutionEngine(registry, mode=ExecutionMode.STREAMED)
        result = benchmark(lambda: engine.execute(plan, head=head, k=10))
        assert len(result.rows) == 10
        assert result.stats.lazy_calls_saved > 0

    def test_bench_lazy_serial_multifeed_top_10(self, benchmark):
        registry, head, plan = _serial_plan(JoinMethod.MERGE_SCAN)
        engine = ExecutionEngine(registry, mode=ExecutionMode.STREAMED)
        result = benchmark(lambda: engine.execute(plan, head=head, k=10))
        assert len(result.rows) == 10
        assert result.stats.lazy_calls_saved > 0
        assert result.stats.lazy_blocks == FEEDS + 2

"""Demand-driven lazy fetching trajectory (``BENCH_lazy.json``).

Measures what the lazy fetch subsystem was built to save: **remote
service work** — calls, page fetches, and raw tuples pulled — for
top-k executions at k ∈ {1, 10, 100}, against the eager streamed
baseline (PR 2: early exit saves join work, but every service is still
fully materialized up front) and the full-scan oracle.

Two workloads:

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
  saved no remote work at all.

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

from repro.execution.engine import ExecutionEngine, ExecutionMode
from repro.execution.results import compose_ranking
from repro.model.atoms import Atom
from repro.model.query import ConjunctiveQuery
from repro.model.schema import signature
from repro.model.terms import Constant, Variable
from repro.plans.builder import PlanBuilder, Poset
from repro.services.profile import search_profile
from repro.services.registry import JoinMethod, ServiceRegistry
from repro.services.table import TableSearchService
from repro.testing import eager_streamed_engine

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
                assert lazy["lazy_blocks"] == FEEDS + 1  # + rights cursor
                if k == 1:
                    assert lazy["lazy_blocks_untouched"] > 0
                by_k[f"k={k}"] = {
                    "eager_streamed": _strip(eager),
                    "lazy_streamed": _strip(lazy),
                }
            serial_per_method[method.value] = by_k

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
        assert result.stats.lazy_blocks == FEEDS + 1

"""Streaming early-exit top-k trajectory (``BENCH_streaming.json``).

Measures the streamed top-k pipeline against the two full-scan
executions on the same candidate plane, for k ∈ {1, 10, 100}:

* **full** — the reference full-plane :func:`execute_join` followed by
  ``compose_ranking(..., k)`` (the oracle of the hypothesis suite);
* **hashed** — the key-bucketed :func:`join_rows` + ``compose_ranking``
  (what the engine runs when not streaming);
* **streamed** — :class:`JoinStream`, which walks the plane lazily and
  suspends once the top-k is provably complete.

Both run the ``CompiledJoin`` of the inputs' variables
(``repro.testing.compiled_join``), compiled once, as a program does.

The workload is the paper's two-search-services shape: both inputs
emit tuples in their service rank order (rank = position), every cell
of the plane is a candidate combination, and the composed rank of cell
``(i, j)`` is ``i + j``.  The acceptance assertion is the whole point
of the subsystem: cells visited must scale with k, not with ``n × m``
— while the emitted rows stay bit-identical to the oracle.

A **key-selectivity sweep** rides in the same history entry: the same
plane with one row in 1, 5 and 50 sharing a key (``key = position mod
s``).  A stage pays for the cells its key index holds, so *merges
attempted* falls with the selectivity while ``cells_visited`` — the
cells of the stages the certificate needed — rises (matches are rarer,
so the k-th one lies deeper).

The streams keep no counters: ``cells_visited`` is the cells of the
stages a walk passed, and merges are counted by a subclass that wraps
the stage's cell lookup (``_CountingStream``).
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

from repro.execution.joins import JoinStream, join_rows, stage_cells, stage_count
from repro.execution.results import Row
from repro.model.terms import Variable
from repro.services.registry import JoinMethod
from repro.testing import (
    as_records,
    compiled_join,
    compose_ranking,
    emitted,
    execute_join,
)

pytestmark = pytest.mark.bench

SIDE = bench_scale(400, 120)
KS = (1, 10, 100)
#: One row in this many shares a key with a given row of the other side.
SELECTIVITIES = (1, 5, 50)


def _inputs(one_in: int = 1) -> tuple[list[Row], list[Row]]:
    key, left_var, right_var = Variable("K"), Variable("L"), Variable("R")
    left = [
        Row(bindings={key: i % one_in, left_var: i}, ranks=(("l", i),))
        for i in range(SIDE)
    ]
    right = [
        Row(bindings={key: j % one_in, right_var: j}, ranks=(("r", j),))
        for j in range(SIDE)
    ]
    return left, right


def _join(method):
    """The join of the two sides of :func:`_inputs`."""
    key = Variable("K")
    return compiled_join(method, (key, Variable("L")), (key, Variable("R")))


class _CountingStream(JoinStream):
    """A streamed walk counting the cells its stages hand to merge."""

    merges = 0

    def _matching_cells(self, stage, left_rows, right_rows):
        cells = super()._matching_cells(stage, left_rows, right_rows)
        self.merges += len(cells)
        return cells


def _cells_visited(stream: JoinStream, n: int, m: int) -> int:
    """Cells of the stages *stream* passed over an n x m plane."""
    method = stream.method
    return sum(
        len(list(stage_cells(method, n, m, stage)))
        for stage in range(min(stream._stage, stage_count(method, n, m)))
    )


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, max(time.perf_counter() - start, 1e-9)


def _full_scan(method, left, right, k) -> dict:
    rows, elapsed = _timed(
        lambda: compose_ranking(execute_join(method, left, right), k)
    )
    cells = len(left) * len(right)
    return {
        "rows": rows,
        "cells_visited": cells,
        "elapsed_s": round(elapsed, 6),
        "cells_per_s": round(cells / elapsed, 1),
        "tuples_per_s": round(len(rows) / elapsed, 1),
    }


def _hashed(method, left, right, k) -> dict:
    join = _join(method)
    records = as_records(left), as_records(right)
    rows, elapsed = _timed(
        lambda: compose_ranking(
            emitted(join_rows(join, *records), join.merge.merged), k
        )
    )
    return {
        "rows": rows,
        "elapsed_s": round(elapsed, 6),
        "tuples_per_s": round(len(rows) / elapsed, 1),
    }


def _streamed(method, left, right, k) -> dict:
    stream = _CountingStream(_join(method), as_records(left), as_records(right))
    rows, elapsed = _timed(lambda: stream.top(k))
    visited = _cells_visited(stream, len(left), len(right))
    return {
        "rows": rows,
        "cells_visited": visited,
        "merges_attempted": stream.merges,
        "cells_skipped": len(left) * len(right) - visited,
        "elapsed_s": round(elapsed, 6),
        "cells_per_s": round(visited / elapsed, 1),
        "tuples_per_s": round(len(rows) / elapsed, 1),
    }


def _strip(measurement: dict) -> dict:
    return {key: value for key, value in measurement.items() if key != "rows"}


class TestStreamingTrajectory:
    def test_write_bench_streaming(self, out_dir):
        left, right = _inputs()
        plane = SIDE * SIDE
        per_method: dict[str, dict] = {}
        for method in (JoinMethod.NESTED_LOOP, JoinMethod.MERGE_SCAN):
            by_k: dict[str, dict] = {}
            visited_by_k: list[int] = []
            for k in KS:
                full = _full_scan(method, left, right, k)
                hashed = _hashed(method, left, right, k)
                streamed = _streamed(method, left, right, k)
                # Oracle equivalence: identical rows, ranks, and order.
                assert [(r.bindings, r.ranks) for r in streamed["rows"]] == [
                    (r.bindings, r.ranks) for r in full["rows"]
                ]
                assert [(r.bindings, r.ranks) for r in hashed["rows"]] == [
                    (r.bindings, r.ranks) for r in full["rows"]
                ]
                visited_by_k.append(streamed["cells_visited"])
                by_k[f"k={k}"] = {
                    "full": _strip(full),
                    "hashed": _strip(hashed),
                    "streamed": _strip(streamed),
                }
            # The acceptance property: cells visited grow with k and
            # stay far below the n*m plane for small k.
            assert visited_by_k == sorted(visited_by_k)
            for k, visited in zip(KS, visited_by_k):
                if k < SIDE:
                    assert visited < plane // 4, (method, k, visited, plane)
            if method is JoinMethod.MERGE_SCAN:
                # Diagonal stages: k=1 closes after a single cell.  (NL
                # stages are whole rows, so its floor is one row of m
                # cells — still independent of n.)
                assert visited_by_k[0] <= KS[0] * (KS[0] + 1)
            per_method[method.value] = by_k

        sweep: dict[str, dict] = {}
        for one_in in SELECTIVITIES:
            left, right = _inputs(one_in)
            by_k = {}
            for k in KS:
                streamed = _streamed(JoinMethod.MERGE_SCAN, left, right, k)
                full = _full_scan(JoinMethod.MERGE_SCAN, left, right, k)
                assert [(r.bindings, r.ranks) for r in streamed["rows"]] == [
                    (r.bindings, r.ranks) for r in full["rows"]
                ]
                # A stage merges its matching cells, about one in
                # ``one_in`` of those it visits — not all of them.
                assert (
                    streamed["merges_attempted"]
                    <= streamed["cells_visited"] // one_in + k
                )
                by_k[f"k={k}"] = _strip(streamed)
            sweep[f"1-in-{one_in}"] = by_k

        payload = {
            "bench": "streaming",
            "quick": QUICK,
            "workload": {
                "plane": f"{SIDE}x{SIDE} all-candidate plane, "
                "rank-monotone inputs (rank = position)",
                "k_values": list(KS),
                "oracle": "compose_ranking(execute_join(...), k), also "
                "cross-checked against join_rows",
            },
            "plane_cells": plane,
            "per_method": per_method,
            "key_selectivity": {
                "plane": "the same plane, key = position mod s; merge-scan",
                "streamed": sweep,
            },
        }
        append_history(
            out_dir / bench_out_name("BENCH_streaming.json"),
            {**payload, "env": env_stamp()},
        )

    def test_bench_streamed_top_10(self, benchmark):
        left, right = _inputs()
        join = _join(JoinMethod.MERGE_SCAN)
        records = as_records(left), as_records(right)
        rows = benchmark(lambda: JoinStream(join, *records).top(10))
        assert [(r.bindings, r.ranks) for r in rows] == [
            (r.bindings, r.ranks)
            for r in compose_ranking(
                execute_join(JoinMethod.MERGE_SCAN, left, right), 10
            )
        ]

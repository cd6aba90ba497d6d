"""Streaming early-exit top-k exact counts (``counts_streaming.txt``).

Counts the cells the streamed top-k pipeline visits against the two
full-scan executions on the same candidate plane, for k ∈ {1, 10, 100}:

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

A **key-selectivity sweep** rides in the same artifact: the same
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

import pytest

from benchmarks.conftest import table, write_artifact
from repro.execution.joins import JoinStream, stage_cells, stage_count
from repro.execution.results import Row
from repro.model.terms import Variable
from repro.services.registry import JoinMethod
from repro.testing import (
    as_records,
    compiled_join,
    compose_ranking,
    execute_join,
    joined,
)

pytestmark = pytest.mark.bench

SIDE = 120
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


def _full_scan(method, left, right, k) -> list[Row]:
    return compose_ranking(execute_join(method, left, right), k)


def _streamed(method, left, right, k) -> tuple[list[Row], dict]:
    stream = _CountingStream(_join(method), as_records(left), as_records(right))
    rows = stream.top(k)
    visited = _cells_visited(stream, len(left), len(right))
    return rows, {
        "k": k,
        "cells_visited": visited,
        "merges_attempted": stream.merges,
        "cells_skipped": len(left) * len(right) - visited,
    }


def _signature(rows):
    return [(r.bindings, r.ranks) for r in rows]


def test_write_counts_streaming(out_dir):
    left, right = _inputs()
    plane = SIDE * SIDE
    per_method = []
    for method in (JoinMethod.NESTED_LOOP, JoinMethod.MERGE_SCAN):
        visited_by_k: list[int] = []
        for k in KS:
            expected = _signature(_full_scan(method, left, right, k))
            rows, counts = _streamed(method, left, right, k)
            # Oracle equivalence: identical rows, ranks, and order.
            assert _signature(rows) == expected
            hashed = compose_ranking(joined(_join(method), left, right), k)
            assert _signature(hashed) == expected
            visited_by_k.append(counts["cells_visited"])
            per_method.append({"method": method.value, **counts})
        # The acceptance property: cells visited grow with k and stay
        # far below the n*m plane for small k.
        assert visited_by_k == sorted(visited_by_k)
        for k, visited in zip(KS, visited_by_k):
            if k < SIDE:
                assert visited < plane // 4, (method, k, visited, plane)
        if method is JoinMethod.MERGE_SCAN:
            # Diagonal stages: k=1 closes after a single cell.  (NL
            # stages are whole rows, so its floor is one row of m cells
            # — still independent of n.)
            assert visited_by_k[0] <= KS[0] * (KS[0] + 1)

    sweep = []
    for one_in in SELECTIVITIES:
        left, right = _inputs(one_in)
        for k in KS:
            rows, counts = _streamed(JoinMethod.MERGE_SCAN, left, right, k)
            assert _signature(rows) == _signature(
                _full_scan(JoinMethod.MERGE_SCAN, left, right, k)
            )
            # A stage merges its matching cells, about one in ``one_in``
            # of those it visits — not all of them.
            assert counts["merges_attempted"] <= counts["cells_visited"] // one_in + k
            sweep.append({"key_shared_by": f"1-in-{one_in}", **counts})

    write_artifact(out_dir, "counts_streaming.txt", "\n\n".join([
        table(f"Streamed top-k on the {SIDE}x{SIDE} all-candidate plane "
              f"({plane} cells), rank = position; rows equal to "
              "compose_ranking over the full scan and over join_rows",
              per_method),
        table("Key selectivity: the same plane, key = position mod s, "
              "merge-scan", sweep),
    ]))

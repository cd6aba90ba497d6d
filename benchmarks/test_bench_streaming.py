"""Streaming early-exit top-k exact counts (``counts_streaming.txt``).

Counts the rows the streamed top-k pipeline indexes and the cells it
merges against the two full-scan executions on the same candidate
plane, for k ∈ {1, 10, 100}:

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
of the subsystem: cells merged must scale with k, not with ``n × m``
— while the emitted rows stay bit-identical to the oracle.  Either
walk visits the matching cells in rank order, so it merges exactly k.

A **key-selectivity sweep** rides in the same artifact: the same
plane with one row in 1, 5 and 50 sharing a key (``key = position mod
s``).  A walk merges only the cells its key index holds, so *merges
attempted* stays k while ``rows_indexed`` — the corner of the plane
the certificate needed — grows (matches are rarer, so the k-th one
lies deeper).

The streams keep no counters: a subclass counts the cells handed to
its kernel (``_CountingStream``), and ``rows_indexed`` reads how many
rows of each side its key index holds.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import table, write_artifact
from repro.execution.joins import JoinStream
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
    """A streamed walk counting the cells it hands to its kernel."""

    def __init__(self, *args):
        super().__init__(*args)
        self.merges = 0
        kernel = self._kernel

        def counted(cells, *rest):
            self.merges += len(cells)
            kernel(cells, *rest)

        self._kernel = counted


def _full_scan(method, left, right, k) -> list[Row]:
    return compose_ranking(execute_join(method, left, right), k)


def _streamed(method, left, right, k) -> tuple[list[Row], dict]:
    stream = _CountingStream(_join(method), as_records(left), as_records(right))
    rows = stream.top(k)
    return rows, {
        "k": k,
        "rows_indexed": sum(stream._index.added),
        "merges_attempted": stream.merges,
        "cells_skipped": len(left) * len(right) - stream.merges,
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
            visited_by_k.append(counts["merges_attempted"])
            per_method.append({"method": method.value, **counts})
        # The acceptance property: cells merged grow with k and stay
        # far below the n*m plane for small k.
        assert visited_by_k == sorted(visited_by_k)
        for k, visited in zip(KS, visited_by_k):
            if k < SIDE:
                assert visited < plane // 4, (method, k, visited, plane)
        # Rank order: exactly the k answers, under either method.
        assert visited_by_k == list(KS)

    sweep = []
    for one_in in SELECTIVITIES:
        left, right = _inputs(one_in)
        for k in KS:
            rows, counts = _streamed(JoinMethod.MERGE_SCAN, left, right, k)
            assert _signature(rows) == _signature(
                _full_scan(JoinMethod.MERGE_SCAN, left, right, k)
            )
            # The walk merges matching cells only, in rank order: the
            # k answers, however deep the k-th one lies.
            assert counts["merges_attempted"] == k
            sweep.append({"key_shared_by": f"1-in-{one_in}", **counts})

    write_artifact(out_dir, "counts_streaming.txt", "\n\n".join([
        table(f"Streamed top-k on the {SIDE}x{SIDE} all-candidate plane "
              f"({plane} cells), rank = position; rows equal to "
              "compose_ranking over the full scan and over join_rows",
              per_method),
        table("Key selectivity: the same plane, key = position mod s, "
              "merge-scan", sweep),
    ]))

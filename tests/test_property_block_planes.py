"""Differential suite for the merge-scan walk over block-structured planes.

Travel's ``flight`` and ``hotel`` are multi-feed inputs: one block of
rows per feed row, each block's service ranks restarting at 0, so a
rank-0 answer sits at the start of every block pair and many cells tie
on rank across blocks.  Their keys are block-diagonal — a block of one
side joins the block of the other side fed by the same row — and the
residual predicate drops some matching cells.  The planes here have
that shape, drawn at random:

* each side is a :class:`~repro.execution.lazy.MultiFeedCursor` over a
  teed feed (lazy, pages of a random chunk) or a
  :class:`~repro.execution.lazy.TeedCursor` holding its blocks
  (materialized);
* feed ranks are mostly 0, a key is mostly its feed row's own (some
  blocks share one), and it may be an unhashable list;
* each plane runs ``top(k1)`` → ``top(k2)`` → growth in place (the
  feed, or the materialized blocks, gain pages: rows are appended) →
  ``top(None)``, under either join method (a nested-loop plane runs a
  ``top(k)`` between growth and the drain).

Every step equals ``compose_ranking`` over the reference join of the
plane as fetched so far (``execute_join``, then the residual: what
``reference_execute`` runs for a join), and a walk keeps one candidate
per answer: it visits cells in ``(rank, arrival)`` order, so before
growth it keeps exactly the answers, and on a block-diagonal plane
with hashable keys and no residual it runs no other cell through its
kernel either.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.joins import JoinStream
from repro.execution.lazy import HeadTee, MultiFeedCursor
from repro.execution.results import Row
from repro.model.predicates import BinaryExpression, Comparison
from repro.model.terms import Constant, Variable
from repro.services.registry import JoinMethod
from repro.testing import (
    ListPageSource,
    compiled_join,
    compose_ranking,
    execute_join,
)

K, A, B = Variable("K"), Variable("A"), Variable("B")
#: ``A + B < 12``: drops some matching cells of a plane.
RESIDUAL = Comparison(BinaryExpression("+", A, B), "<", Constant(12))


def _signature(rows):
    return [(dict(r.bindings), r.ranks) for r in rows]


def _paged(rows, chunk):
    return [rows[i : i + chunk] for i in range(0, len(rows), chunk)] or [[]]


class _Plane:
    """Both sides of one drawn plane, and its rows as fetched so far.

    *feeds* holds ``(feed rank, key, left values, right values)`` per
    feed row: the block of each side has a row per value, service rank
    = position.  The first *known* feed rows are fetched until
    :meth:`grow` fetches them all.
    """

    def __init__(self, feeds, known, lazy, chunks, listed):
        self.feeds, self.known, self.listed = feeds, known, listed
        self.tees = []
        self.sides = [
            self._side(side, lazy[side], chunks[side]) for side in (0, 1)
        ]

    def _key(self, key):
        return [key] if self.listed else key

    def _block(self, side, number):
        rank, key, *values = self.feeds[number]
        name, variable = ("L", A) if side == 0 else ("R", B)
        return [
            Row(
                bindings={K: self._key(key), variable: value},
                ranks=((f"feed-{name}", rank), (name, index)),
            )
            for index, value in enumerate(values[side])
        ]

    def _side(self, side, lazy, chunk):
        if not lazy:  # the side's blocks, one page each, teed
            pages = [self._block(side, number) for number in range(len(self.feeds))]
            return self._teed(pages).copy()
        feed = [
            Row(bindings={Variable("F"): number}, ranks=(("feed", rank),))
            for number, (rank, *_) in enumerate(self.feeds)
        ]
        tee = self._teed([[row] for row in feed])

        def open_unit(record):
            number = record[0][0]
            return ListPageSource(pages=_paged(self._block(side, number), chunk))

        return MultiFeedCursor(tee.copy(), open_unit)

    def _teed(self, pages):
        source = ListPageSource(pages=pages, budget=self.known, rank_floors=[0] * len(pages))
        tee = HeadTee(source, 0)
        self.tees.append((tee, source))
        return tee

    def grow(self):
        """Every feed row fetched: each tee's pages are appended."""
        self.known = len(self.feeds)
        for tee, source in self.tees:
            source.budget = self.known
            tee.grow()

    def eager(self):
        return [
            [row for number in range(self.known) for row in self._block(side, number)]
            for side in (0, 1)
        ]


_values = st.lists(st.integers(0, 9), max_size=5)
_feeds = st.lists(
    st.tuples(
        st.sampled_from([0, 0, 0, 1, 2]),  # mostly rank-0 feed rows
        st.one_of(st.none(), st.integers(0, 2)),  # None: the row's own key
        _values,
        _values,
    ),
    min_size=1,
    max_size=6,
)


def _plane(feeds, known, lazy, chunks, listed):
    feeds = [
        (rank, number + 10 if key is None else key, left, right)
        for number, (rank, key, left, right) in enumerate(feeds)
    ]
    return _Plane(feeds, min(known, len(feeds)), lazy, chunks, listed)


def _counting(stream):
    """*stream*, counting in ``stream.merges`` the cells its kernel is
    handed."""
    kernel = stream._kernel
    stream.merges = 0

    def counted(cells, *args):
        stream.merges += len(cells)
        kernel(cells, *args)

    stream._kernel = counted
    return stream


def _top_top_grow(method, plane, filtered, before, after):
    """Run *plane*'s stream at each k of *before*, grow the plane in
    place, and run it at each k of *after* (ending with a drain): every
    step equals the reference over the plane as fetched so far."""
    residual = [RESIDUAL] if filtered else []
    join = compiled_join(method, (K, A), (K, B), (), residual)
    stream = _counting(JoinStream(join, *plane.sides))

    def reference(k):
        full = [
            row for row in execute_join(method, *plane.eager())
            if all(p.holds(row.bindings) for p in residual)
        ]
        return _signature(compose_ranking(full, k))

    diagonal = (
        not plane.listed and not filtered
        and len({key for _, key, _, _ in plane.feeds}) == len(plane.feeds)
    )
    for k in before:
        rows = stream.top(k)
        assert _signature(rows) == reference(k)
        # One candidate per answer: the walk goes in emission order.
        assert len(stream._candidates) == len(rows)
        if diagonal:
            assert stream.merges == len(rows)
    plane.grow()
    for k in after:
        assert _signature(stream.top(k)) == reference(k)
    assert stream.exhausted


class TestBlockPlanes:
    @given(
        _feeds,
        st.integers(1, 6),
        st.tuples(st.booleans(), st.booleans()),
        st.tuples(st.integers(1, 3), st.integers(1, 3)),
        st.booleans(),
        st.booleans(),
        st.integers(0, 6),
        st.integers(0, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_top_top_grow_drain_equals_the_reference(
        self, feeds, known, lazy, chunks, listed, filtered, k1, extra
    ):
        _top_top_grow(
            JoinMethod.MERGE_SCAN, _plane(feeds, known, lazy, chunks, listed),
            filtered, (k1, k1 + extra), (None,),
        )

    @given(
        _feeds,
        st.integers(1, 6),
        st.tuples(st.booleans(), st.booleans()),
        st.tuples(st.integers(1, 3), st.integers(1, 3)),
        st.booleans(),
        st.booleans(),
        st.integers(0, 6),
        st.integers(0, 12),
    )
    @settings(max_examples=100, deadline=None)
    def test_nested_loop_top_top_grow_top_drain_equals_the_reference(
        self, feeds, known, lazy, chunks, listed, filtered, k1, extra
    ):
        """A nested-loop walk keeps no late cells: the rows growth
        appends are not indexed, and the region bounds cover their
        cells, as they do for a merge scan."""
        _top_top_grow(
            JoinMethod.NESTED_LOOP, _plane(feeds, known, lazy, chunks, listed),
            filtered, (k1, k1 + extra), (k1 + extra + 1, None),
        )

    @given(st.integers(2, 8), st.integers(2, 6), st.integers(1, 4), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_travel_shape_pays_one_cell_per_answer(self, blocks, per, chunk, k):
        """Every feed row ranks 0, every block pair fully matches: the
        rank-0 cells of ``blocks`` block pairs tie, and the walk runs
        only the answers through its kernel, where a diagonal walk ran
        every cell before the last answer's diagonal."""
        feeds = [(0, None, list(range(per)), list(range(per))) for _ in range(blocks)]
        plane = _plane(feeds, blocks, (True, True), (chunk, chunk), False)
        join = compiled_join(JoinMethod.MERGE_SCAN, (K, A), (K, B))
        stream = _counting(JoinStream(join, *plane.sides))
        rows = stream.top(k)
        expected = compose_ranking(execute_join(JoinMethod.MERGE_SCAN, *plane.eager()), k)
        assert _signature(rows) == _signature(expected)
        assert stream.merges == len(rows) == min(k, blocks * per * per)

"""Hypothesis differential suite for multi-feed lazy cursors.

The :class:`~repro.execution.lazy.MultiFeedCursor` is the piece that
extends demand-driven fetching to *multi-feed* service nodes — the
input shape of serial plans, where an upstream chain proliferates into
many feed tuples and each one opens its own budgeted block of pages.
Everything here is differential against the same oracles the
single-feed suite uses:

* cursor level — a :class:`JoinStream` over a ``MultiFeedCursor``
  (random block counts, block sizes, chunk sizes, base ranks, and k)
  must be bit-identical to ``compose_ranking(execute_join(...), k)``
  over the eager feed-order concatenation, and must never fetch more
  pages than the eager universe holds;
* engine level — a serial-shaped plan (feeder → multi-feed service,
  joined with a single-feed service) walked to a top-k must agree
  bit-for-bit with the eager streamed path and the reference
  interpreter (``compose_ranking(reference_execute(...), k)``) while
  fetching **at most** as many raw tuples as eager materialization (mirroring the random-chunk engine
  differential of ``tests/test_property_streaming.py``);
* resumes — growing ``k`` on a suspended multi-feed stream stays exact
  and only ever advances the walk;
* the ledger — per demand-driven step, a lazy walk's remote fetches
  never exceed the eager walk's, and its feed rows never number fewer
  than the blocks it touched (the rest never fetched).
"""

from __future__ import annotations

import math
from functools import partial

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine
from repro.execution import lazy as lazy_module
from repro.execution.joins import JoinStream
from repro.execution.lazy import (
    LazyServiceCursor,
    MaterializedCursor,
    MultiFeedCursor,
)
from repro.execution.results import Row, SlotLayout
from repro.model.atoms import Atom
from repro.model.query import ConjunctiveQuery
from repro.model.schema import signature
from repro.model.terms import Constant, Variable
from repro.plans.builder import PlanBuilder, Poset
from repro.services.profile import search_profile
from repro.services.registry import JoinMethod, ServiceRegistry
from repro.services.table import TableSearchService
from repro.testing import (
    ListPageSource,
    as_records,
    compiled_join,
    compose_ranking,
    demand_blocks,
    eager_streamed_engine,
    emitted,
    execute_join,
    reference_execute,
    step_cells,
)

METHODS = (JoinMethod.NESTED_LOOP, JoinMethod.MERGE_SCAN)


def _join(method: JoinMethod):
    """The join of an ``"L"`` and an ``"R"`` side of :func:`_block_rows`."""
    key = Variable("K")
    return compiled_join(method, (key, Variable("L")), (key, Variable("R")))


def _signature(rows):
    return [(dict(r.bindings), r.ranks) for r in rows]


def _block_rows(base: int, service_ranks: list[int], side: str, block: int) -> list[Row]:
    """One feed block: base rank from the feed, growing service ranks."""
    variable = Variable(side)
    return [
        Row(
            bindings={Variable("K"): 0, variable: (block, index)},
            ranks=((f"feed{block}", base), (side, rank)),
        )
        for index, rank in enumerate(service_ranks)
    ]


def _paged(rows: list[Row], chunk: int) -> list[list[Row]]:
    return [rows[i : i + chunk] for i in range(0, len(rows), chunk)] or [[]]


class _WatchedSource(ListPageSource):
    """A page source that calls ``watch(page)`` before it serves a
    page, once a test has set one."""

    watch = None

    def fetch(self, page):
        if self.watch is not None:
            self.watch(page)
        return super().fetch(page)


def _floors_after(ranks: list[int], pages: list[list]) -> list[int]:
    """The tightest sound floor after each page: the lowest rank any
    later page holds (``10**9`` past the last)."""
    floors, seen = [], 0
    for page in pages:
        seen += len(page)
        floors.append(min(ranks[seen:], default=10**9))
    return floors


def _feed_cursor(bases: list[int], feed_chunk: int | None):
    """The feed of blocks with base ranks *bases*: one row each,
    materialized, or a lazy cursor paged by *feed_chunk*."""
    rows = [
        Row(bindings={Variable("F"): index}, ranks=(("feed", base),))
        for index, base in enumerate(bases)
    ]
    if feed_chunk is None:
        return MaterializedCursor(as_records(rows))
    pages = _paged(rows, feed_chunk)
    return LazyServiceCursor(
        ListPageSource(pages=pages, rank_floors=_floors_after(bases, pages))
    )


def _cursor_over(
    sources: list[ListPageSource], bases: list[int], feed_chunk: int | None = None
) -> MultiFeedCursor:
    """A cursor whose feed opens the units *sources*, in order.

    The feed rows carry each block's base rank *bases* (what the
    cursor's frontier reads before a block is opened).  ``all_sources``
    keeps every unit for the assertions: what a block pulled is its
    unit's ``fetch_log``, whether or not the cursor built it a cursor.
    """
    opening = iter(sources)
    cursor = MultiFeedCursor(
        _feed_cursor(bases, feed_chunk), lambda record: next(opening)
    )
    cursor.all_sources = list(sources)
    return cursor


def _as_pulled(source: ListPageSource, base: int) -> LazyServiceCursor:
    """The block of *source* as the cursor that pulled the pages the
    source has served: one over a fresh copy, fetched as far."""
    block = LazyServiceCursor(
        ListPageSource(
            pages=source.pages, budget=source.budget,
            rank_floors=source.rank_floors,
        ),
        base_rank=base,
    )
    for _ in source.fetch_log:
        block._fetch_next()
    return block


def _multi_feed_cursor(
    blocks: list[tuple], side: str, chunk: int, feed_chunk: int | None = None
) -> tuple[MultiFeedCursor, list[Row]]:
    """Cursor over per-feed blocks plus the eager concatenation oracle.

    Each block is ``(base_rank, service ranks)``, optionally followed
    by its unit's page budget (None: every page; 0 is a demoted unit's,
    1 the one page a non-chunked lookup may pull) and whether the
    node's predicates filter out all of its rows (its pages arrive
    empty, floors and all).  Since the rank *values* are arbitrary (not
    positions), each page's reported floor is the smallest service
    rank any later page holds — the tightest sound floor, unlike the
    tuples-seen convention real search services use (sound there
    because rank == position).
    """
    sources: list[ListPageSource] = []
    eager: list[Row] = []
    for index, (base, service_ranks, *rest) in enumerate(blocks):
        budget, filtered = rest or (None, False)
        ordered = sorted(service_ranks)
        pages = _paged(_block_rows(base, ordered, side, index), chunk)
        floors = _floors_after(ordered, pages)
        if filtered:
            pages = [[] for _ in pages]
        source = _WatchedSource(pages=pages, budget=budget, rank_floors=floors)
        eager.extend(row for page in pages[: source.budget] for row in page)
        sources.append(source)
    cursor = _cursor_over(sources, [base for base, *_ in blocks], feed_chunk)
    cursor.layout = SlotLayout((Variable("K"), Variable(side)))
    return cursor, eager


def _pages(cursor: MultiFeedCursor) -> list[int]:
    """The pages each block of *cursor* has pulled."""
    return [len(source.fetch_log) for source in cursor.all_sources]


def _rows_of(cursor: MultiFeedCursor) -> list[Row]:
    """The placed records of a :func:`_multi_feed_cursor`, as rows."""
    return emitted(cursor.rows, cursor.layout)


_blocks = st.lists(
    st.tuples(
        st.integers(0, 6),  # feed base rank
        st.lists(st.integers(0, 6), min_size=0, max_size=5),  # service ranks
    ),
    min_size=0,
    max_size=4,
)
_chunks = st.integers(1, 3)
_k = st.one_of(st.none(), st.integers(0, 30))


class TestMultiFeedCursorUnits:
    def test_zero_blocks_is_exhausted_and_empty(self):
        cursor, eager = _multi_feed_cursor([], "L", 1)
        assert cursor.exhausted
        assert cursor.rows == [] == eager
        assert cursor.suffix_min(0) == math.inf
        cursor.ensure(5)  # must be a harmless no-op
        assert cursor.rows == []
        assert cursor._opened == 0

    def test_placement_follows_feed_order(self):
        cursor, eager = _multi_feed_cursor(
            [(0, [0, 1, 2]), (1, [0, 1]), (5, [0])], "L", 2
        )
        cursor.ensure_all()
        assert cursor.exhausted
        assert [r.rank_key() for r in _rows_of(cursor)] == [
            r.rank_key() for r in eager
        ]
        assert _signature(_rows_of(cursor)) == _signature(eager)
        assert cursor._opened == 3
        assert all(_pages(cursor))

    def test_untouched_blocks_bound_the_certificate(self):
        # Block 0 is cheap, block 1 starts at base rank 5: demanding
        # one row must leave block 1 untouched (not even opened), with
        # the certificate bounded by its feed row's rank (5), not +inf.
        cursor, _ = _multi_feed_cursor([(0, [0, 1]), (5, [0, 1])], "L", 2)
        cursor.ensure(1)
        assert _pages(cursor)[1] == 0
        assert cursor._opened == 1
        assert cursor.suffix_min(len(cursor.rows)) == 5
        # The floor of every unexhausted block keeps participating:
        # indexes inside the placed prefix are bounded by min(exact, 5).
        assert cursor.suffix_min(0) == 0

    def test_lowest_floor_block_is_pulled_first(self):
        # Feed ranks are *descending* (2, 0): the interleaving must
        # pull the lowest-floor block (the second) before placement
        # can even begin, buffering its rows until block 0 drains.
        cursor, eager = _multi_feed_cursor([(2, [0, 1]), (0, [0, 1])], "L", 1)
        cursor.ensure(1)
        assert _pages(cursor)[1] > 0
        assert len(cursor.rows) >= 1
        cursor.ensure_all()
        assert _signature(_rows_of(cursor)) == _signature(eager)

    def test_fetches_never_exceed_the_eager_universe(self):
        cursor, _ = _multi_feed_cursor(
            [(0, list(range(5))), (1, list(range(5)))], "L", 2
        )
        cursor.ensure_all()
        cursor.ensure_all()
        assert _pages(cursor) == [3, 3]  # ceil(5/2) pages per block, once

    def test_non_monotone_block_drains_itself_only(self):
        # Block 0's service ranks regress within its first page: that
        # block must fall back to a full fetch the moment the
        # violation is observed, while block 1 stays lazy.
        rows0 = (
            _block_rows(0, [5], "L", 0)
            + _block_rows(0, [1], "L", 0)
            + _block_rows(0, [2, 3], "L", 0)
        )
        source0 = ListPageSource(pages=_paged(rows0, 2), rank_floors=[1, 10**9])
        cursor1, _ = _multi_feed_cursor([(3, [0, 1, 2, 3])], "L", 2)
        cursor = _cursor_over([source0, cursor1.all_sources[0]], [0, 3])
        cursor.ensure(1)  # first page of block 0 observes the regression
        assert _pages(cursor) == [2, 0]  # drained defensively, only it
        assert cursor.suffix_min(0) == 1  # exact minima over block 0


def _resumed_stays_exact(method, lb, rb, cl, cr, k1, extra):
    """``top(k1)``, ``top(k1 + extra)`` and a drain of one stream over
    multi-feed sides each equal the full scan, and a resumed walk never
    un-indexes a row."""
    left_cursor, left_eager = _multi_feed_cursor(lb, "L", cl)
    right_cursor, right_eager = _multi_feed_cursor(rb, "R", cr)
    full = execute_join(method, left_eager, right_eager)
    stream = JoinStream(_join(method), left_cursor, right_cursor)
    assert _signature(stream.top(k1)) == _signature(compose_ranking(full, k1))
    indexed = stream._index.added
    k2 = k1 + extra
    assert _signature(stream.top(k2)) == _signature(compose_ranking(full, k2))
    assert all(now >= then for now, then in zip(stream._index.added, indexed))
    assert _signature(stream.top(None)) == _signature(compose_ranking(full))


class TestMultiFeedJoinStreamMatchesOracle:
    @given(_blocks, _blocks, _chunks, _chunks, _k)
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_to_full_scan(self, lb, rb, cl, cr, k):
        for method in METHODS:
            left_cursor, left_eager = _multi_feed_cursor(lb, "L", cl)
            right_cursor, right_eager = _multi_feed_cursor(rb, "R", cr)
            oracle = compose_ranking(
                execute_join(method, left_eager, right_eager), k
            )
            stream = JoinStream(_join(method), left_cursor, right_cursor)
            assert _signature(stream.top(k)) == _signature(oracle)

    @given(_blocks, _blocks, _chunks, _chunks, st.integers(0, 5), st.integers(0, 30))
    @settings(max_examples=80, deadline=None)
    def test_resumed_multi_feed_stream_stays_exact(self, lb, rb, cl, cr, k1, extra):
        _resumed_stays_exact(JoinMethod.MERGE_SCAN, lb, rb, cl, cr, k1, extra)

    @given(_blocks, _blocks, _chunks, _chunks, st.integers(0, 5), st.integers(0, 30))
    @settings(max_examples=80, deadline=None)
    def test_resumed_nested_loop_multi_feed_stream_stays_exact(
        self, lb, rb, cl, cr, k1, extra
    ):
        _resumed_stays_exact(JoinMethod.NESTED_LOOP, lb, rb, cl, cr, k1, extra)

    @given(
        st.integers(1, 6),
        st.integers(1, 8),
        st.integers(1, 4),
        _chunks,
    )
    @settings(max_examples=40, deadline=None)
    def test_small_k_leaves_far_blocks_untouched(self, blocks, per, k, chunk):
        """Ranked feeds: blocks whose base rank exceeds the certificate
        threshold are never pulled at all."""
        spec = [(base * per, list(range(per))) for base in range(blocks)]
        left_cursor, left_eager = _multi_feed_cursor(spec, "L", chunk)
        right_cursor, right_eager = _multi_feed_cursor(
            [(0, list(range(per)))], "R", chunk
        )
        stream = JoinStream(_join(JoinMethod.MERGE_SCAN), left_cursor, right_cursor)
        rows = stream.top(k)
        oracle = compose_ranking(
            execute_join(JoinMethod.MERGE_SCAN, left_eager, right_eager), k
        )
        assert _signature(rows) == _signature(oracle)
        pulled = sum(_pages(left_cursor))
        universe = sum(-(-max(len(r), 1) // chunk) for _, r in spec)
        assert pulled <= universe


# -- engine level: serial-shaped plans --------------------------------------


def _serial_plan(
    feed_keys, block_keys, right_keys, chunk_left, chunk_right, left_fetches=4
):
    """feeder → lefts (multi-feed) joined with single-feed rights.

    ``feeder`` is a ranked search service producing one tuple per feed
    key; every feeder tuple feeds ``lefts`` (so the final join's left
    input is a multi-feed node with one block per feeder tuple), while
    ``rights`` is fed straight from the input node.  *left_fetches* is
    the factor of ``lefts``: at 1 every block is one page.
    """
    feed_keys = list(feed_keys)
    registry = ServiceRegistry()
    registry.register(
        TableSearchService(
            signature("feeder", ["Q", "X"], ["io"]),
            search_profile(chunk_size=4, response_time=1.0),
            [("q", x) for x in feed_keys],  # duplicates allowed
            score=lambda row: float(-row[1]),
        )
    )
    registry.register(
        TableSearchService(
            signature("lefts", ["X", "K", "L"], ["ioo"]),
            search_profile(chunk_size=chunk_left, response_time=1.0),
            [
                (x, key, index)
                for x in sorted(set(feed_keys))
                for index, key in enumerate(block_keys)
            ],
            score=lambda row: float(-row[2]),
        )
    )
    registry.register(
        TableSearchService(
            signature("rights", ["Q", "K", "R"], ["ioo"]),
            search_profile(chunk_size=chunk_right, response_time=1.0),
            [("q", key, index) for index, key in enumerate(right_keys)],
            score=lambda row: float(-row[2]),
        )
    )
    key = Variable("K")
    x, lv, rv = Variable("X"), Variable("L"), Variable("R")
    query = ConjunctiveQuery(
        name="serial",
        head=(key, lv, rv),
        atoms=(
            Atom("feeder", (Constant("q"), x)),
            Atom("lefts", (x, key, lv)),
            Atom("rights", (Constant("q"), key, rv)),
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
        fetches={0: 4, 1: left_fetches, 2: 4},
    )
    return registry, tuple(query.head), plan


class TestSerialPlanEngineDifferential:
    @given(
        st.integers(1, 4),  # feeder tuples = blocks of the lefts node
        st.lists(st.integers(0, 2), min_size=1, max_size=5),
        st.lists(st.integers(0, 2), min_size=1, max_size=5),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 12),
        st.sampled_from(METHODS),
    )
    @settings(max_examples=25, deadline=None)
    def test_lazy_equals_eager_equals_oracle_on_serial_plans(
        self, feeds, bk, rk, cl, cr, k, method
    ):
        registry, head, plan = _serial_plan(range(feeds), bk, rk, cl, cr)
        registry.register_join_method("lefts", "rights", method)
        lazy = ExecutionEngine(registry).execute(plan, head=head, k=k)
        full = ExecutionEngine(registry).execute(plan, head=head)
        expected = compose_ranking(reference_execute(plan, registry).rows, k)
        assert _signature(lazy.rows) == _signature(expected)
        # The multi-feed node opens at most one block per feeder tuple,
        # as the walk's demand reaches it: the ledger's feed rows.
        blocks = demand_blocks(lazy)
        known = sum(known for known, _ in blocks.values())
        assert 2 <= known <= feeds + 2  # + feeder, rights
        # Fetching is demand-driven: never more remote work than eager.
        assert lazy.stats.total_fetches <= full.stats.total_fetches
        assert (
            lazy.stats.total_tuples_fetched <= full.stats.total_tuples_fetched
        )

    def test_small_k_saves_remote_work_on_serial_plans(self):
        registry, head, plan = _serial_plan(
            range(4), list(range(8)), list(range(8)), 2, 2
        )
        registry.register_join_method("lefts", "rights", JoinMethod.MERGE_SCAN)
        lazy = ExecutionEngine(registry).execute(plan, head=head, k=1)
        full = ExecutionEngine(registry).execute(plan, head=head)
        assert _signature(lazy.rows) == _signature(
            compose_ranking(reference_execute(plan, registry).rows, 1)
        )
        assert (
            lazy.stats.total_tuples_fetched < full.stats.total_tuples_fetched
        )
        # Budgeted pages never pulled, and blocks that never fetched.
        assert full.stats.total_fetches - lazy.stats.total_fetches > 0
        assert any(
            touched < known for known, touched in demand_blocks(lazy).values()
        )

    @given(
        st.integers(1, 4),
        st.lists(st.integers(0, 2), min_size=1, max_size=5),
        st.lists(st.integers(0, 2), min_size=1, max_size=5),
        st.integers(1, 3),
        st.integers(1, 3),
        st.sampled_from(METHODS),
    )
    @settings(max_examples=15, deadline=None)
    def test_ledger_shows_the_work_laziness_saved_at_every_k(
        self, feeds, bk, rk, cl, cr, method
    ):
        """The saving, read off the ledger (no cache: every pull is a
        remote fetch).  Per demand-driven step and at every k, a lazy
        walk fetches no more than the eager walk, and its feeder's rows
        — one block each — never number fewer than the blocks answered
        by a call or a hit; the difference is the blocks that never
        fetched (:meth:`test_small_k_saves_remote_work_on_serial_plans`)."""
        registry, head, plan = _serial_plan(range(feeds), bk, rk, cl, cr)
        registry.register_join_method("lefts", "rights", method)
        lazy_engine = ExecutionEngine(registry)
        eager_engine = eager_streamed_engine(registry)
        for k in range(1, 13):
            lazy = lazy_engine.execute(plan, head=head, k=k)
            eager = eager_engine.execute(plan, head=head, k=k)
            assert _signature(lazy.rows) == _signature(eager.rows)
            blocks = demand_blocks(lazy)
            assert blocks
            for index, (known, touched) in blocks.items():
                assert (
                    step_cells(lazy.stats, index).fetches
                    <= step_cells(eager.stats, index).fetches
                )
                assert known - touched >= 0

    @given(st.integers(0, 10**4), st.sampled_from(list(CacheSetting)))
    @settings(max_examples=20, deadline=None)
    def test_answers_identical_under_every_cache_setting(self, seed, setting):
        """Cache settings (including ONE_CALL, whose hit pattern the
        interleaved pull order can degrade — duplicate feed keys lose
        the locality eager's contiguous order enjoys) may change fetch
        counts but never answers."""
        rng = __import__("random").Random(seed)
        feeds = rng.randint(2, 4)
        registry, head, plan = _serial_plan(
            [rng.randint(0, 1) for _ in range(feeds)],  # duplicate keys
            [rng.randint(0, 2) for _ in range(rng.randint(1, 4))],
            [rng.randint(0, 2) for _ in range(rng.randint(1, 4))],
            rng.randint(1, 3),
            rng.randint(1, 3),
        )
        registry.register_join_method(
            "lefts", "rights", JoinMethod.MERGE_SCAN
        )
        k = rng.randint(1, 10)
        lazy = ExecutionEngine(
            registry, cache_setting=setting
        ).execute(plan, head=head, k=k)
        assert _signature(lazy.rows) == _signature(
            compose_ranking(reference_execute(plan, registry).rows, k)
        )

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=5),
        st.lists(st.integers(0, 2), min_size=1, max_size=5),
        st.lists(st.integers(0, 2), min_size=1, max_size=5),
        st.integers(1, 6),
        st.integers(1, 3),
        st.integers(1, 12),
        st.sampled_from(METHODS),
    )
    @settings(max_examples=20, deadline=None)
    # The lazy walk certifies both answers without opening the second
    # block, so it cannot prove there is no third; the eager walk can.
    @example([0, 0], [2], [0, 2, 0, 0], 1, 1, 2, JoinMethod.NESTED_LOOP)
    # The eager walk's exact floors certify all six answers early; the
    # lazy walk's block floors let it run to the end of the plane.
    @example([1, 1, 2], [1, 1, 2], [1], 6, 1, 6, JoinMethod.NESTED_LOOP)
    def test_one_page_blocks_under_every_cache_setting(
        self, feed_keys, bk, rk, cl, cr, k, method
    ):
        """``lefts`` at factor 1: every block is one page (a chunk that
        holds the block, or the first of several), placed without a
        cursor.  Under each cache setting the walk's answers are the
        oracle's and the eager walk's, a walk that reports itself
        complete holds every answer of the full scan, a walk past the
        plane agrees with the full scan to the last counter, and a top-k
        walk never makes more calls or fetches than the full scan.
        ``complete`` is what a walk proved from what it visited, so the
        two walks may differ on it (the pinned examples) in either
        direction."""
        registry, head, plan = _serial_plan(feed_keys, bk, rk, cl, cr, 1)
        registry.register_join_method("lefts", "rights", method)
        expected = _signature(
            compose_ranking(reference_execute(plan, registry).rows, k)
        )
        for setting in CacheSetting:
            engine = ExecutionEngine(registry, cache_setting=setting)
            full = engine.execute(plan, head=head)
            lazy = engine.execute(plan, head=head, k=k)
            eager = eager_streamed_engine(
                registry, cache_setting=setting
            ).execute(plan, head=head, k=k)
            assert _signature(lazy.rows) == _signature(eager.rows) == expected
            for walk in (lazy, eager):
                if walk.table.complete:
                    assert _signature(walk.rows) == _signature(full.rows)
            drained = engine.execute(plan, head=head, k=10**9)
            assert drained.table.complete
            assert _signature(drained.rows) == _signature(full.rows)
            for name, cells in full.stats.per_service.items():
                assert drained.stats.per_service[name] == cells
            if setting is not CacheSetting.ONE_CALL:
                assert lazy.stats.total_calls <= full.stats.total_calls
                assert lazy.stats.total_fetches <= full.stats.total_fetches

    def test_progressive_resume_grows_multi_feed_demand(self):
        from repro.execution.progressive import ProgressiveExecutor

        registry, head, plan = _serial_plan(
            range(3), list(range(8)), list(range(8)), 2, 2
        )
        registry.register_join_method("lefts", "rights", JoinMethod.MERGE_SCAN)
        executor = ProgressiveExecutor(
            registry=registry, plan=plan, head=head,
        )
        first = executor.run(k=1)
        assert first.stream is not None
        first_fetches = first.stats.total_fetches
        more = executor.more(7)
        latest = executor.rounds[-1]
        assert latest.resumed
        # The grown demand pulled further budgeted pages, recorded on
        # the resumed round's stats; round 1 stays frozen.
        assert first.stats.total_fetches == first_fetches
        expected = compose_ranking(reference_execute(plan, registry).rows, 8)
        assert _signature(more.rows) == _signature(expected)


# -- heap vs linear-scan differential ---------------------------------------


class _LinearScanReference:
    """The O(B)-per-pull selection logic over *every* known block, as a
    test oracle.

    Recomputes the lowest-floor block and the unplaced bound by full
    linear scans over the blocks of all the feed rows known so far,
    opened or not (an unopened block's floor is its feed row's rank) —
    exactly what the cursor did when it opened every block up front and
    before the floor/bound heaps replaced the scans.  The rows the feed
    has not placed yet are covered by the feed's own bound (every row
    is known up front over a materialized feed).  A block is read as
    the cursor that pulled what its unit served (:func:`_as_pulled`),
    so the scans see one-page blocks the cursor placed without ever
    building a cursor for them.  :meth:`watch` checks every page the
    cursor pulls against these scans, and the tests check the bound
    after every demand.
    """

    @staticmethod
    def known_blocks(cursor: MultiFeedCursor) -> list[LazyServiceCursor]:
        return [
            _as_pulled(source, rank)
            for source, rank in zip(cursor.all_sources, cursor._feed.ranks)
        ]

    @staticmethod
    def _floor(cursor: MultiFeedCursor, index: int, block) -> float:
        """A known block's floor: its feed row's rank until it is
        opened (only then does the cursor learn its unit's budget)."""
        if index >= cursor._opened:
            return cursor._feed.ranks[index]
        return block.floor

    @classmethod
    def lowest_floor_index(cls, cursor: MultiFeedCursor) -> int | None:
        """The block the policy pulls next, or None when the rows the
        feed has not produced yet are lower (the feed is demanded)."""
        best_index, best_floor = None, math.inf
        blocks = cls.known_blocks(cursor)
        for index in range(cursor._front, len(blocks)):
            floor = cls._floor(cursor, index, blocks[index])
            if floor < best_floor:
                best_index, best_floor = index, floor
        if cursor._feed.suffix_min(len(blocks)) < best_floor:
            return None
        return best_index

    @classmethod
    def unplaced_bound(cls, cursor: MultiFeedCursor) -> float:
        blocks = cls.known_blocks(cursor)
        bound = cursor._feed.suffix_min(len(blocks))
        for index in range(cursor._front, len(blocks)):
            if index >= cursor._opened:  # unopened: its feed row's rank
                candidate = cursor._feed.ranks[index]
            else:
                candidate = blocks[index].suffix_min(
                    cursor._placed if index == cursor._front else 0
                )
            if candidate < bound:
                bound = candidate
        return bound

    @classmethod
    def watch(cls, cursor: MultiFeedCursor) -> None:
        """Check, as each page is served, that the scans choose its
        block and that it is the block's next page within budget.  A
        page pulled after its block saw a rank regression is the
        defensive drain of that one block, not a choice."""

        def check(index: int, page: int) -> None:
            block = cls.known_blocks(cursor)[index]
            assert page == block.pages_fetched < block._source.budget
            if block._monotone:
                assert cls.lowest_floor_index(cursor) == index

        for index, source in enumerate(cursor.all_sources):
            source.watch = partial(check, index)


#: Blocks whose units may pull at most one page — a chunk that holds
#: every row, a budget of 1 over more pages, a demoted unit's 0 — among
#: chunked ones: ``(base rank, service ranks, budget, all filtered)``.
_one_page_blocks = st.lists(
    st.tuples(
        st.integers(0, 6),
        st.lists(st.integers(0, 6), max_size=5),
        st.sampled_from([0, 1, 1, None]),
        st.booleans(),
    ),
    max_size=5,
)


class TestHeapMatchesLinearScan:
    """The floor/bound heaps vs full recomputation, pull by pull."""

    @staticmethod
    def _check_demands(cursor, eager, demands) -> None:
        """Serve *demands* (rows beyond those placed) one at a time:
        every pull the scans' choice, every placed row the eager one,
        and the bound the scans' after each."""
        _LinearScanReference.watch(cursor)
        for demand in demands:
            target = len(cursor.rows) + demand
            cursor.ensure(target)
            assert len(cursor.rows) >= target or cursor.exhausted
            assert _signature(_rows_of(cursor)) == _signature(
                eager[: len(cursor.rows)]
            )
            bound = _LinearScanReference.unplaced_bound(cursor)
            for start in range(len(cursor.rows) + 2):
                assert cursor.suffix_min(start) == min(
                    cursor.ranks[start:] + [bound]
                )

    @given(_blocks, _chunks, st.lists(st.integers(1, 4), max_size=8))
    @settings(max_examples=120, deadline=None)
    def test_stepwise_pulls_match_linear_scans(self, blocks, chunk, demands):
        cursor, eager = _multi_feed_cursor(blocks, "L", chunk)
        self._check_demands(cursor, eager, demands)

    @given(
        _one_page_blocks,
        st.integers(1, 6),
        st.sampled_from([None, 1, 2]),
        st.booleans(),
        st.lists(st.integers(1, 4), max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_one_page_blocks_pull_what_the_scans_pull(
        self, blocks, chunk, feed_chunk, sort_feed, demands
    ):
        """One-page blocks the policy takes at once are placed as pages:
        over a materialized or a lazy feed, monotone or not (a block
        whose feed rank the frontier undercuts waits in the heaps), the
        pulls, the placed rows and the bound stay the scans'."""
        if sort_feed:
            blocks = sorted(blocks, key=lambda block: block[0])
        cursor, eager = _multi_feed_cursor(blocks, "L", chunk, feed_chunk)
        self._check_demands(cursor, eager, demands)
        for source in cursor.all_sources:  # a drain pulls in feed order
            source.watch = None
        cursor.ensure_all()
        assert _signature(_rows_of(cursor)) == _signature(eager)
        for source in cursor.all_sources:
            assert source.fetch_log == list(
                range(min(source.budget, len(source.pages)))
            )

    def test_only_a_block_that_waits_or_pages_on_is_a_cursor(self, monkeypatch):
        built: list[LazyServiceCursor] = []

        class Counted(LazyServiceCursor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(lazy_module, "LazyServiceCursor", Counted)
        # A monotone feed (ties included) of one-page blocks: a chunk
        # holding every row, a budget of 1 over two pages, a demoted
        # unit, every row filtered out: all placed as pages.
        one_page = [
            (0, [0, 1], None, False), (0, [0, 1, 2], 1, False),
            (1, [0], 0, False), (1, [0, 1], None, True), (4, [0, 4]),
        ]
        cursor, eager = _multi_feed_cursor(one_page, "L", 2)
        cursor.ensure(100)
        assert _signature(_rows_of(cursor)) == _signature(eager)
        assert _pages(cursor) == [1, 1, 0, 1, 1]
        assert built == [] and cursor._blocks == {}
        # A block the frontier undercuts waits; so does the next one,
        # opened while it is open.
        cursor, eager = _multi_feed_cursor([(2, [0]), (0, [0])], "L", 2)
        cursor.ensure(100)
        assert _signature(_rows_of(cursor)) == _signature(eager)
        assert len(built) == 2
        # A block that may pull a second page.
        cursor, eager = _multi_feed_cursor([(0, [0, 1, 2])], "L", 2)
        cursor.ensure(1)
        assert len(built) == 3 and _pages(cursor) == [1]

    @given(_blocks, _chunks, st.integers(0, 30))
    @settings(max_examples=100, deadline=None)
    def test_running_counters_match_recomputation(self, blocks, chunk, demand):
        """The work a demand pulled, recomputed from the page sources
        (the cursor keeps no counters): only opened blocks fetched, no
        page twice, and a full drain pulls every page exactly once."""
        cursor, eager = _multi_feed_cursor(blocks, "L", chunk)
        sources = cursor.all_sources
        cursor.ensure(demand)
        assert not any(source.fetch_log for source in sources[cursor._opened :])
        for source in sources:
            assert source.fetch_log == list(range(len(source.fetch_log)))
        assert sum(source.rows_pulled for source in sources) <= len(eager)
        cursor.ensure_all()
        for source in sources:
            assert source.fetch_log == list(range(len(source.pages)))
        assert sum(source.rows_pulled for source in sources) == len(eager)
        assert _signature(_rows_of(cursor)) == _signature(eager)
        assert cursor.suffix_min(len(cursor.rows)) == math.inf

    def test_thousand_block_scenario_stays_lazy(self):
        """The O(log B) cursor at the scale the heap unlocks: 1000
        blocks, top-of-the-feed demand touches only a tiny prefix."""
        blocks = [(base, [base, base + 1, base + 2]) for base in range(1000)]
        cursor, eager = _multi_feed_cursor(blocks, "L", 2)
        cursor.ensure(10)
        assert _signature(_rows_of(cursor)[:10]) == _signature(eager[:10])
        untouched = _pages(cursor).count(0)
        assert untouched > 900  # the point of being lazy
        assert cursor._opened < 100  # ... and most were never even opened
        assert cursor.suffix_min(len(cursor.rows)) == (
            _LinearScanReference.unplaced_bound(cursor)
        )

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
  joined with a single-feed service) under ``ExecutionMode.STREAMED``
  must agree bit-for-bit with the eager streamed path and the
  full-scan ``PARALLEL`` oracle while fetching **at most** as many raw
  tuples as eager materialization (mirroring the random-chunk engine
  differential of ``tests/test_property_streaming.py``);
* resumes — growing ``k`` on a suspended multi-feed stream stays exact
  and only ever advances the walk.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine, ExecutionMode
from repro.execution.joins import JoinStream
from repro.execution.lazy import (
    LazyServiceCursor,
    MaterializedCursor,
    MultiFeedCursor,
)
from repro.execution.results import Row, compose_ranking
from repro.model.atoms import Atom
from repro.model.query import ConjunctiveQuery
from repro.model.schema import signature
from repro.model.terms import Constant, Variable
from repro.plans.builder import PlanBuilder, Poset
from repro.services.profile import search_profile
from repro.services.registry import JoinMethod, ServiceRegistry
from repro.services.table import TableSearchService
from repro.testing import ListPageSource, compiled_join, execute_join

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


def _cursor_over(blocks: list[LazyServiceCursor]) -> MultiFeedCursor:
    """A cursor whose materialized feed opens *blocks*, in order.

    The feed rows carry each block's base rank (what the cursor's
    frontier reads before a block is opened), and the blocks share one
    page budget, like the units of one plan node.  ``all_blocks`` keeps
    every block for the assertions: the cursor itself drops the ones
    placement has passed.
    """
    budget = max((block.budget for block in blocks), default=0)
    for block in blocks:
        block._source.budget = budget
    feed = [
        Row(bindings={Variable("F"): index}, ranks=(("feed", block._base_rank),))
        for index, block in enumerate(blocks)
    ]
    opening = iter(blocks)
    cursor = MultiFeedCursor(
        MaterializedCursor(feed), lambda row, rank: next(opening), budget
    )
    cursor.all_blocks = list(blocks)
    return cursor


def _multi_feed_cursor(
    blocks: list[tuple[int, list[int]]], side: str, chunk: int
) -> tuple[MultiFeedCursor, list[Row]]:
    """Cursor over per-feed blocks plus the eager concatenation oracle.

    Each block is ``(base_rank, sorted service ranks)``; since the
    rank *values* are arbitrary (not positions), each page's reported
    floor is the smallest service rank any later page holds — the
    tightest sound floor, unlike the tuples-seen convention real
    search services use (sound there because rank == position).
    """
    cursors: list[LazyServiceCursor] = []
    eager: list[Row] = []
    for index, (base, service_ranks) in enumerate(blocks):
        ordered = sorted(service_ranks)
        rows = _block_rows(base, ordered, side, index)
        eager.extend(rows)
        pages = _paged(rows, chunk)
        floors: list[int] = []
        seen = 0
        for page in pages:
            seen += len(page)
            floors.append(ordered[seen] if seen < len(ordered) else 10**9)
        source = ListPageSource(pages=pages, rank_floors=floors)
        cursors.append(LazyServiceCursor(source, base_rank=base))
    return _cursor_over(cursors), eager


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
        assert cursor.block_count == 0
        cursor.ensure(5)  # must be a harmless no-op
        assert cursor.rows == []

    def test_placement_follows_feed_order(self):
        cursor, eager = _multi_feed_cursor(
            [(0, [0, 1, 2]), (1, [0, 1]), (5, [0])], "L", 2
        )
        cursor.ensure_all()
        assert cursor.exhausted
        assert [r.rank_key() for r in cursor.rows] == [
            r.rank_key() for r in eager
        ]
        assert _signature(cursor.rows) == _signature(eager)
        assert cursor.block_count == 3
        assert cursor.blocks_untouched == 0

    def test_untouched_blocks_bound_the_certificate(self):
        # Block 0 is cheap, block 1 starts at base rank 5: demanding
        # one row must leave block 1 untouched (not even opened), with
        # the certificate bounded by its feed row's rank (5), not +inf.
        cursor, _ = _multi_feed_cursor([(0, [0, 1]), (5, [0, 1])], "L", 2)
        cursor.ensure(1)
        assert cursor.blocks_untouched == 1
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
        blocks = cursor.all_blocks
        assert blocks[1].pages_fetched > 0
        assert len(cursor.rows) >= 1
        cursor.ensure_all()
        assert _signature(cursor.rows) == _signature(eager)

    def test_fetches_never_exceed_the_eager_universe(self):
        cursor, _ = _multi_feed_cursor(
            [(0, list(range(5))), (1, list(range(5)))], "L", 2
        )
        cursor.ensure_all()
        cursor.ensure_all()
        total_pages = sum(b.pages_fetched for b in cursor.all_blocks)
        assert total_pages == 3 + 3  # ceil(5/2) pages per block, once

    def test_non_monotone_block_drains_itself_only(self):
        # Block 0's service ranks regress within its first page: that
        # block must fall back to a full fetch the moment the
        # violation is observed, while block 1 stays lazy.
        rows0 = (
            _block_rows(0, [5], "L", 0)
            + _block_rows(0, [1], "L", 0)
            + _block_rows(0, [2, 3], "L", 0)
        )
        pages0 = _paged(rows0, 2)
        source0 = ListPageSource(pages=pages0, rank_floors=[1, 10**9])
        block0 = LazyServiceCursor(source0, base_rank=0)
        cursor1, _ = _multi_feed_cursor([(3, [0, 1, 2, 3])], "L", 2)
        block1 = cursor1.all_blocks[0]
        cursor = _cursor_over([block0, block1])
        cursor.ensure(1)  # first page of block 0 observes the regression
        assert block0.exhausted  # drained defensively
        assert not block1.exhausted
        assert cursor.suffix_min(0) == 1  # exact minima over block 0


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
        left_cursor, left_eager = _multi_feed_cursor(lb, "L", cl)
        right_cursor, right_eager = _multi_feed_cursor(rb, "R", cr)
        full = execute_join(JoinMethod.MERGE_SCAN, left_eager, right_eager)
        stream = JoinStream(_join(JoinMethod.MERGE_SCAN), left_cursor, right_cursor)
        assert _signature(stream.top(k1)) == _signature(compose_ranking(full, k1))
        visited = stream.cells_visited
        k2 = k1 + extra
        assert _signature(stream.top(k2)) == _signature(compose_ranking(full, k2))
        assert stream.cells_visited >= visited
        assert _signature(stream.top(None)) == _signature(compose_ranking(full))

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
        pulled = sum(b.pages_fetched for b in left_cursor.all_blocks)
        universe = sum(-(-max(len(r), 1) // chunk) for _, r in spec)
        assert pulled <= universe


# -- engine level: serial-shaped plans --------------------------------------


def _serial_plan(feed_keys, block_keys, right_keys, chunk_left, chunk_right):
    """feeder → lefts (multi-feed) joined with single-feed rights.

    ``feeder`` is a ranked search service producing one tuple per feed
    key; every feeder tuple feeds ``lefts`` (so the final join's left
    input is a multi-feed node with one block per feeder tuple), while
    ``rights`` is fed straight from the input node.
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
        fetches={0: 4, 1: 4, 2: 4},
    )
    return registry, tuple(query.head), plan


class TestSerialPlanEngineDifferential:
    @given(
        st.integers(1, 4),  # feeder tuples = blocks of the lefts node
        st.lists(st.integers(0, 2), min_size=1, max_size=5),
        st.lists(st.integers(0, 2), min_size=1, max_size=5),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 12),
        st.sampled_from(METHODS),
    )
    @settings(max_examples=25, deadline=None)
    def test_lazy_equals_eager_equals_oracle_on_serial_plans(
        self, feeds, bk, rk, cl, cr, k, method
    ):
        registry, head, plan = _serial_plan(range(feeds), bk, rk, cl, cr)
        registry.register_join_method("lefts", "rights", method)
        lazy = ExecutionEngine(registry, mode=ExecutionMode.STREAMED).execute(
            plan, head=head, k=k
        )
        oracle = ExecutionEngine(registry, mode=ExecutionMode.PARALLEL).execute(
            plan, head=head
        )
        expected = compose_ranking(oracle.rows, k)
        assert _signature(lazy.rows) == _signature(expected)
        # The multi-feed node opens at most one block per feeder tuple,
        # as the walk's demand reaches it.
        assert 2 <= lazy.stats.lazy_blocks <= feeds + 2  # + feeder, rights
        # Fetching is demand-driven: never more remote work than eager.
        assert lazy.stats.total_fetches <= oracle.stats.total_fetches
        assert (
            lazy.stats.total_tuples_fetched <= oracle.stats.total_tuples_fetched
        )

    def test_small_k_saves_remote_work_on_serial_plans(self):
        registry, head, plan = _serial_plan(
            range(4), list(range(8)), list(range(8)), 2, 2
        )
        registry.register_join_method("lefts", "rights", JoinMethod.MERGE_SCAN)
        lazy = ExecutionEngine(registry, mode=ExecutionMode.STREAMED).execute(
            plan, head=head, k=1
        )
        oracle = ExecutionEngine(registry, mode=ExecutionMode.PARALLEL).execute(
            plan, head=head
        )
        assert _signature(lazy.rows) == _signature(compose_ranking(oracle.rows, 1))
        assert (
            lazy.stats.total_tuples_fetched < oracle.stats.total_tuples_fetched
        )
        assert lazy.stats.lazy_calls_saved > 0
        assert lazy.stats.lazy_blocks_untouched > 0

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
        k = rng.randint(0, 10)
        lazy = ExecutionEngine(
            registry, mode=ExecutionMode.STREAMED, cache_setting=setting
        ).execute(plan, head=head, k=k)
        oracle = ExecutionEngine(
            registry, mode=ExecutionMode.PARALLEL, cache_setting=setting
        ).execute(plan, head=head)
        assert _signature(lazy.rows) == _signature(
            compose_ranking(oracle.rows, k)
        )

    def test_progressive_resume_grows_multi_feed_demand(self):
        from repro.execution.progressive import ProgressiveExecutor

        registry, head, plan = _serial_plan(
            range(3), list(range(8)), list(range(8)), 2, 2
        )
        registry.register_join_method("lefts", "rights", JoinMethod.MERGE_SCAN)
        executor = ProgressiveExecutor(
            registry=registry, plan=plan, head=head,
            mode=ExecutionMode.STREAMED,
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
        oracle = ExecutionEngine(registry, mode=ExecutionMode.PARALLEL).execute(
            plan, head=head
        )
        expected = compose_ranking(oracle.rows, 8)
        assert _signature(more.rows) == _signature(expected)


# -- heap vs linear-scan differential ---------------------------------------


class _LinearScanReference:
    """The O(B)-per-pull selection logic over *every* known block, as a
    test oracle.

    Recomputes the lowest-floor block and the unplaced bound by full
    linear scans over the blocks of all the feed rows known so far,
    opened or not (an unopened block's floor is its feed row's rank) —
    exactly what the cursor did when it opened every block up front and
    before the floor/bound heaps replaced the scans.  Over a
    materialized feed every row is known from the start; over a growing
    feed (``tests/test_lazy_chain.py``, which drives a whole policy of
    scans beside the cursor) the rows the feed has not placed yet are
    covered by the feed's own bound.  The differential here drives a
    cursor step by step and checks the heap- and frontier-served
    answers against these scans at every step.
    """

    @staticmethod
    def known_blocks(cursor: MultiFeedCursor) -> list[LazyServiceCursor]:
        return cursor.all_blocks[: len(cursor._feed.ranks)]

    @classmethod
    def lowest_floor_index(cls, cursor: MultiFeedCursor) -> int | None:
        best_index, best_floor = None, math.inf
        blocks = cls.known_blocks(cursor)
        for index in range(cursor._front, len(blocks)):
            block = blocks[index]
            if block.exhausted:
                continue
            if block.floor < best_floor:
                best_index, best_floor = index, block.floor
        return best_index

    @classmethod
    def unplaced_bound(cls, cursor: MultiFeedCursor) -> float:
        blocks = cls.known_blocks(cursor)
        bound = cursor._feed.suffix_min(len(blocks))
        for index in range(cursor._front, len(blocks)):
            candidate = blocks[index].suffix_min(
                cursor._placed if index == cursor._front else 0
            )
            if candidate < bound:
                bound = candidate
        return bound

    @classmethod
    def counters(cls, cursor: MultiFeedCursor) -> tuple[int, int, int]:
        blocks = cls.known_blocks(cursor)
        return (
            sum(1 for b in blocks if b.pages_fetched == 0),
            sum(b.tuples_fetched for b in blocks),
            sum(b.pages_saved() for b in blocks),
        )

    @staticmethod
    def pull_one_page(cursor: MultiFeedCursor) -> None:
        """Step the fetch policy until it has fetched (not just opened)."""

        def pages() -> int:
            return sum(b.pages_fetched for b in cursor.all_blocks)

        before = pages()
        while not cursor.exhausted and pages() == before:
            cursor._step()


class TestHeapMatchesLinearScan:
    """The floor/bound heaps vs full recomputation, step by step."""

    @given(_blocks, _chunks, st.lists(st.integers(1, 4), max_size=8))
    @settings(max_examples=120, deadline=None)
    def test_stepwise_pulls_match_linear_scans(self, blocks, chunk, demands):
        cursor, eager = _multi_feed_cursor(blocks, "L", chunk)
        reference, _ = _multi_feed_cursor(blocks, "L", chunk)
        for demand in demands:
            target = len(cursor.rows) + demand
            while len(cursor.rows) < target and not cursor.exhausted:
                expected_index = _LinearScanReference.lowest_floor_index(
                    cursor
                )
                expected_pages = [
                    b.pages_fetched for b in cursor.all_blocks
                ]
                expected_pages[expected_index] += 1
                _LinearScanReference.pull_one_page(cursor)
                # the heap pulled exactly the linear scan's block (one
                # pull may drain extra pages on a monotonicity
                # violation, always within the selected block)
                pulled = [
                    i
                    for i, b in enumerate(cursor.all_blocks)
                    if b.pages_fetched
                    > expected_pages[i] - (1 if i == expected_index else 0)
                    and i != expected_index
                ]
                assert pulled == []
                assert (
                    cursor.all_blocks[expected_index].pages_fetched
                    >= expected_pages[expected_index]
                )
            reference.ensure(target)
            # same rows, same per-block fetch state, same certificate
            assert _signature(cursor.rows) == _signature(reference.rows)
            assert [b.pages_fetched for b in cursor.all_blocks] == [
                b.pages_fetched for b in reference.all_blocks
            ]
            for start in range(len(cursor.rows) + 2):
                assert cursor.suffix_min(start) == reference.suffix_min(start)
            assert cursor.suffix_min(len(cursor.rows)) == (
                _LinearScanReference.unplaced_bound(cursor)
            )

    @given(_blocks, _chunks, st.integers(0, 30))
    @settings(max_examples=100, deadline=None)
    def test_running_counters_match_recomputation(self, blocks, chunk, demand):
        cursor, eager = _multi_feed_cursor(blocks, "L", chunk)
        cursor.ensure(demand)
        untouched, tuples, saved = _LinearScanReference.counters(cursor)
        assert cursor.blocks_untouched == untouched
        assert cursor.tuples_fetched == tuples
        assert cursor.pages_saved() == saved
        cursor.ensure_all()
        untouched, tuples, saved = _LinearScanReference.counters(cursor)
        assert cursor.blocks_untouched == untouched
        assert cursor.tuples_fetched == tuples
        assert cursor.pages_saved() == saved
        assert _signature(cursor.rows) == _signature(eager)
        assert cursor.suffix_min(len(cursor.rows)) == math.inf

    def test_thousand_block_scenario_stays_lazy(self):
        """The O(log B) cursor at the scale the heap unlocks: 1000
        blocks, top-of-the-feed demand touches only a tiny prefix."""
        blocks = [(base, [base, base + 1, base + 2]) for base in range(1000)]
        cursor, eager = _multi_feed_cursor(blocks, "L", 2)
        cursor.ensure(10)
        assert _signature(cursor.rows[:10]) == _signature(eager[:10])
        assert cursor.blocks_untouched > 900  # the point of being lazy
        assert cursor._opened < 100  # ... and most were never even opened
        assert cursor.suffix_min(len(cursor.rows)) == (
            _LinearScanReference.unplaced_bound(cursor)
        )

"""Tests for demand-driven lazy service fetching (execution/lazy.py).

Three layers:

* cursor mechanics — :class:`LazyServiceCursor` over a fake
  :class:`ListPageSource`: demand-driven paging, budget exhaustion,
  the pages left unpulled (the source's budget less the cursor's
  position), floor soundness, and the full-fetch fallback on
  non-monotone inputs;
* :class:`JoinStream` over lazy cursors — a hypothesis differential
  against ``compose_ranking(execute_join(...), k)`` with random rows,
  random chunk sizes, and both monotone and non-monotone rank
  sequences (the latter exercising the fallback);
* the engine — lazy streamed executions are bit-identical to both the
  eager streamed path and the reference interpreter
  (``compose_ranking(reference_execute(...), k)``) while issuing
  strictly fewer fetches than a full scan on rank-monotone workloads; service-terminal plans
  stream their pipe chain (``tests/test_lazy_chain.py`` is their
  oracle suite); resumed streams record their fetches on rebound
  statistics, never on the round that created them.  What a walk
  pulled and left is read off its ledger, against an eager run.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.engine import ChainStream, ExecutionEngine
from repro.execution.joins import JoinStream
from repro.execution.lazy import (
    LazyServiceCursor,
    MaterializedCursor,
    MultiFeedCursor,
    TeedCursor,
)
from repro.execution.results import Row, SlotLayout
from repro.execution.stats import ExecutionStats
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
    chain_poset,
    compiled_join,
    compose_ranking,
    demand_blocks,
    emitted,
    execute_join,
    reference_execute,
    step_cells,
)

METHODS = (JoinMethod.NESTED_LOOP, JoinMethod.MERGE_SCAN)


def _rows(ranks: list[int], side: str) -> list[Row]:
    variable = Variable(side)
    return [
        Row(
            bindings={Variable("K"): 0, variable: index},
            ranks=((side, rank),),
        )
        for index, rank in enumerate(ranks)
    ]


def _join(method: JoinMethod):
    """The join of an ``"L"`` and an ``"R"`` side of :func:`_rows`."""
    key = Variable("K")
    return compiled_join(method, (key, Variable("L")), (key, Variable("R")))


def _paged(rows: list[Row], chunk: int) -> list[list[Row]]:
    return [rows[i : i + chunk] for i in range(0, len(rows), chunk)] or [[]]


def _sound_floors(pages: list[list[Row]]) -> list[int]:
    """Per-page floor: the smallest rank any *later* page can hold."""
    floors: list[int] = []
    for index in range(len(pages)):
        later = [r.rank_key() for page in pages[index + 1 :] for r in page]
        floors.append(min(later) if later else 10**9)
    return floors


def _lazy_cursor(ranks: list[int], side: str, chunk: int) -> LazyServiceCursor:
    pages = _paged(_rows(ranks, side), chunk)
    source = ListPageSource(pages=pages, rank_floors=_sound_floors(pages))
    return LazyServiceCursor(source)


#: The layout of an ``"L"`` side of :func:`_rows`.
_L = SlotLayout((Variable("K"), Variable("L")))


def _signature(rows):
    return [(dict(r.bindings), r.ranks) for r in rows]


class TestLazyServiceCursor:
    def test_zero_demand_fetches_nothing(self):
        source = ListPageSource(pages=_paged(_rows([0, 1, 2, 3], "L"), 2))
        cursor = LazyServiceCursor(source)
        assert source.fetch_log == []
        assert cursor.pages_fetched == 0
        assert source.budget - cursor.pages_fetched == 2
        assert not cursor.exhausted

    def test_ensure_fetches_only_needed_pages(self):
        source = ListPageSource(pages=_paged(_rows(list(range(10)), "L"), 2))
        cursor = LazyServiceCursor(source)
        cursor.ensure(3)
        assert source.fetch_log == [0, 1]
        assert [r.rank_key() for r in emitted(cursor.rows, _L)] == [0, 1, 2, 3]
        assert source.budget - cursor.pages_fetched == 3
        cursor.ensure_all()
        assert source.fetch_log == [0, 1, 2, 3, 4]
        assert cursor.exhausted
        assert cursor.pages_fetched == source.budget

    def test_budget_caps_the_universe(self):
        source = ListPageSource(
            pages=_paged(_rows(list(range(10)), "L"), 2), budget=2
        )
        cursor = LazyServiceCursor(source)
        cursor.ensure_all()
        assert len(cursor.rows) == 4  # 2 pages of 2, budget-truncated
        assert cursor.exhausted
        assert source.fetch_log == [0, 1]
        assert cursor.pages_fetched == source.budget

    def test_suffix_min_uses_floor_for_unfetched_rows(self):
        pages = _paged(_rows([0, 1, 2, 3, 4, 5], "L"), 2)
        source = ListPageSource(pages=pages, rank_floors=_sound_floors(pages))
        cursor = LazyServiceCursor(source)
        cursor.ensure(1)  # one page: rows 0, 1 fetched
        assert cursor.suffix_min(0) == 0
        assert cursor.suffix_min(1) == 1
        # Beyond the fetched prefix: the floor (smallest later rank).
        assert cursor.suffix_min(2) == 2
        cursor.ensure_all()
        assert cursor.suffix_min(5) == 5
        assert cursor.suffix_min(6) == math.inf

    def test_tuples_fetched_counts_raw_tuples(self):
        pages = _paged(_rows(list(range(7)), "L"), 3)
        source = ListPageSource(pages=pages)
        cursor = LazyServiceCursor(source)
        cursor.ensure(4)
        assert source.rows_pulled == len(cursor.rows) == 6
        cursor.ensure_all()
        assert source.rows_pulled == len(cursor.rows) == 7

    def test_non_monotone_input_falls_back_to_full_fetch(self):
        # Ranks regress across pages: the floor bound would be unsound,
        # so the cursor must drain the remaining pages before the
        # certificate may consult suffix_min again.
        pages = _paged(_rows([5, 6, 1, 2], "L"), 2)
        source = ListPageSource(pages=pages, rank_floors=_sound_floors(pages))
        cursor = LazyServiceCursor(source)
        cursor.ensure(3)  # crosses the violation
        assert cursor.exhausted
        assert len(cursor.rows) == 4
        # Exact suffix minima over the complete list, as eager would.
        assert cursor.suffix_min(0) == 1
        assert cursor.suffix_min(2) == 1
        assert cursor.suffix_min(3) == 2

    def test_materialized_cursor_matches_list_semantics(self):
        rows = _rows([3, 1, 2], "L")
        cursor = MaterializedCursor(as_records(rows))
        assert cursor.exhausted
        assert emitted(cursor.rows, _L) == rows
        assert cursor.suffix_min(0) == 1
        assert cursor.suffix_min(2) == 2
        assert cursor.suffix_min(3) == math.inf


_ranks = st.lists(st.integers(0, 9), min_size=0, max_size=8)
_chunks = st.integers(1, 4)
_k = st.one_of(st.none(), st.integers(0, 40))


class TestMultiFeedOverATee:
    def test_rows_a_grown_tee_appends_lower_the_bound(self):
        """Over a teed feed a multi-feed cursor keeps its bound on the
        rows it has not placed until something moves it: growth
        appending feed rows does, and the cursor places their blocks."""

        def open_unit(record):
            rank = record[1]
            block = Row(
                bindings={Variable("K"): 0, Variable("L"): rank}, ranks=(("L", rank),)
            )
            return ListPageSource(pages=[[block]])

        feed = TeedCursor(as_records(_rows([0, 1], "F")))
        cursor = MultiFeedCursor(feed, open_unit)
        cursor.ensure(2)
        assert cursor.ranks == [0, 1]
        assert cursor.exhausted and cursor.suffix_min(2) == math.inf
        grown = as_records(_rows([0, 1, 0], "F"))[2:]
        feed.rows.extend(grown)
        feed.ranks.extend(record[1] for record in grown)
        assert not cursor.exhausted
        assert cursor.suffix_min(2) == 0
        cursor.ensure(3)
        assert cursor.ranks == [0, 1, 0]


class TestLazyJoinStreamMatchesOracle:
    """JoinStream over lazy cursors vs. the full-scan oracle."""

    @given(_ranks, _ranks, _chunks, _chunks, _k)
    @settings(max_examples=120, deadline=None)
    def test_monotone_lazy_inputs_bit_identical(self, lr, rr, cl, cr, k):
        lr, rr = sorted(lr), sorted(rr)
        left_rows, right_rows = _rows(lr, "L"), _rows(rr, "R")
        for method in METHODS:
            oracle = compose_ranking(
                execute_join(method, left_rows, right_rows), k
            )
            stream = JoinStream(
                _join(method), _lazy_cursor(lr, "L", cl), _lazy_cursor(rr, "R", cr)
            )
            assert _signature(stream.top(k)) == _signature(oracle)

    def test_only_a_nested_loop_step_fetches_its_whole_inner_side(self):
        """Both walks visit the same cells in rank order; a nested-loop
        step first fetches its inner (right) side, which the strategy
        retrieves before it scans, while a merge scan pulls only the
        pages its bounds demand.  Neither pulls a second outer page."""
        ranks = list(range(12))  # six pages of two rows a side
        for method, inner_pages in (
            (JoinMethod.NESTED_LOOP, 6), (JoinMethod.MERGE_SCAN, 1),
        ):
            left, right = _lazy_cursor(ranks, "L", 2), _lazy_cursor(ranks, "R", 2)
            stream = JoinStream(_join(method), left, right)
            oracle = compose_ranking(
                execute_join(method, _rows(ranks, "L"), _rows(ranks, "R")), 3
            )
            assert _signature(stream.top(3)) == _signature(oracle)
            assert (left.pages_fetched, right.pages_fetched) == (1, inner_pages)

    @given(_ranks, _ranks, _chunks, _chunks, _k)
    @settings(max_examples=80, deadline=None)
    def test_non_monotone_lazy_inputs_bit_identical(self, lr, rr, cl, cr, k):
        """Unsorted ranks: the fallback path must still be exact."""
        left_rows, right_rows = _rows(lr, "L"), _rows(rr, "R")
        for method in METHODS:
            oracle = compose_ranking(
                execute_join(method, left_rows, right_rows), k
            )
            stream = JoinStream(
                _join(method), _lazy_cursor(lr, "L", cl), _lazy_cursor(rr, "R", cr)
            )
            assert _signature(stream.top(k)) == _signature(oracle)

    @given(_ranks, _ranks, _chunks, _chunks, st.integers(0, 6), st.integers(0, 40))
    @settings(max_examples=80, deadline=None)
    def test_resumed_lazy_stream_stays_exact(self, lr, rr, cl, cr, k1, extra):
        lr, rr = sorted(lr), sorted(rr)
        left_rows, right_rows = _rows(lr, "L"), _rows(rr, "R")
        full = execute_join(JoinMethod.MERGE_SCAN, left_rows, right_rows)
        stream = JoinStream(
            _join(JoinMethod.MERGE_SCAN),
            _lazy_cursor(lr, "L", cl),
            _lazy_cursor(rr, "R", cr),
        )
        kernel, merged = stream._kernel, []
        stream._kernel = lambda cells, *rest: (merged.extend(cells), kernel(cells, *rest))
        assert _signature(stream.top(k1)) == _signature(compose_ranking(full, k1))
        k2 = k1 + extra
        assert _signature(stream.top(k2)) == _signature(compose_ranking(full, k2))
        assert _signature(stream.top(None)) == _signature(compose_ranking(full))
        # resuming never revisits: every cell (each one an answer) went
        # through the kernel once over the three calls
        assert len(merged) == len(set(merged)) == len(full)

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 5), _chunks)
    @settings(max_examples=40, deadline=None)
    def test_small_k_fetches_few_pages_on_monotone_plane(self, n, m, k, chunk):
        """The point of the subsystem: MS top-k demands O(k) rows per
        side, so only ~ceil(k/chunk)+1 pages are ever pulled."""
        lr, rr = list(range(n)), list(range(m))
        left, right = _lazy_cursor(lr, "L", chunk), _lazy_cursor(rr, "R", chunk)
        stream = JoinStream(_join(JoinMethod.MERGE_SCAN), left, right)
        rows = stream.top(k)
        oracle = compose_ranking(
            execute_join(JoinMethod.MERGE_SCAN, _rows(lr, "L"), _rows(rr, "R")), k
        )
        assert _signature(rows) == _signature(oracle)
        demanded = min(k + 1, max(n, m))  # rows per side an MS top-k needs
        ceiling = -(-demanded // chunk) + 1
        assert left.pages_fetched <= ceiling
        assert right.pages_fetched <= ceiling


# -- engine level -----------------------------------------------------------


def _single_feed_plan(method, side=20, chunk=4, fetches=5):
    """Two single-feed search services merged by *method*.

    Both services are keyed by the constant ``q`` and fed straight from
    the input node (one tuple), so the engine wraps them in lazy
    cursors in a top-k walk.
    """
    registry = ServiceRegistry()
    for name, var in (("lefts", "L"), ("rights", "R")):
        registry.register(
            TableSearchService(
                signature(name, ["Q", "K", var], ["ioo"]),
                search_profile(chunk_size=chunk, response_time=1.0),
                [("q", 0, i) for i in range(side)],
                score=lambda row: float(-row[2]),
            )
        )
    registry.register_join_method("lefts", "rights", method)
    key, left_var, right_var = Variable("K"), Variable("L"), Variable("R")
    query = ConjunctiveQuery(
        name="lazy",
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
        fetches={0: fetches, 1: fetches},
    )
    return registry, query, plan


class TestLazyStreamedEngine:
    def test_lazy_saves_fetches_and_stays_exact(self):
        registry, query, plan = _single_feed_plan(JoinMethod.MERGE_SCAN)
        head = tuple(query.head)
        engine = ExecutionEngine(registry)
        lazy = engine.execute(plan, head=head, k=1)
        full = ExecutionEngine(registry).execute(plan, head=head)
        expected = compose_ranking(reference_execute(plan, registry).rows, 1)
        assert _signature(lazy.rows) == _signature(expected)
        # One page per side instead of the full budget.
        assert lazy.stats.total_fetches == 2
        assert full.stats.total_fetches == 10
        assert lazy.stats.total_tuples_fetched == 8
        # Eight budgeted pages never pulled: eager's less lazy's.
        assert full.stats.total_fetches - lazy.stats.total_fetches == 8
        # The ledger's rows out trace what was actually materialized.
        lazy_steps = [
            step.index for step in lazy.program.steps
            if step.binding is not None
            and step.binding.service_name in ("lefts", "rights")
        ]
        assert all(lazy.stats.rows_out[index] == 4 for index in lazy_steps)

    def test_multi_feed_inputs_fetch_lazily_per_block(
        self, registry, travel_query
    ):
        """The travel plan's flight/hotel nodes are fed by multiple
        weather tuples: each feed tuple becomes a budgeted block of a
        :class:`MultiFeedCursor`, so the streamed walk fetches fewer
        raw tuples than eager materialization while staying
        bit-identical to the reference interpreter — serial-shaped
        plans now save remote work too."""
        from repro.sources.travel import (
            FLIGHT_ATOM,
            HOTEL_ATOM,
            alpha1_patterns,
            poset_optimal,
        )

        plan = PlanBuilder(travel_query, registry).build(
            alpha1_patterns(), poset_optimal(),
            fetches={FLIGHT_ATOM: 2, HOTEL_ATOM: 2},
        )
        head = tuple(travel_query.head)
        streamed = ExecutionEngine(registry).execute(plan, head=head, k=2)
        full = ExecutionEngine(registry).execute(plan, head=head)
        expected = compose_ranking(reference_execute(plan, registry).rows, 2)
        assert _signature(streamed.rows) == _signature(expected)
        # One block per weather tuple, on both the flight and hotel
        # side, and some of them never fetched.
        blocks = demand_blocks(streamed)
        assert sum(known for known, _ in blocks.values()) > 2
        assert any(touched < known for known, touched in blocks.values())
        assert full.stats.total_fetches - streamed.stats.total_fetches > 0
        assert 0 < sum(
            step_cells(streamed.stats, index).tuples_fetched for index in blocks
        )
        assert (
            streamed.stats.total_tuples_fetched
            <= full.stats.total_tuples_fetched
        )
        assert streamed.stats.total_fetches <= full.stats.total_fetches

    def test_service_terminal_plan_streams_its_chain(
        self, tiny_registry, tiny_query
    ):
        """A chain plan ends in a service node: the chain itself is the
        stream — it rides along on the result, resumable, and its
        ledger says a walk ran."""
        plan = PlanBuilder(tiny_query, tiny_registry).build(
            (
                tiny_registry.signature("cities").pattern("io"),
                tiny_registry.signature("spots").pattern("ioo"),
            ),
            chain_poset(2, [0, 1]),
        )
        head = tuple(tiny_query.head)
        streamed = ExecutionEngine(tiny_registry).execute(plan, head=head, k=2)
        assert isinstance(streamed.stream, ChainStream)
        assert streamed.stats.rows_out[-1] == len(streamed.rows) > 0
        blocks = demand_blocks(streamed)
        assert sum(
            step_cells(streamed.stats, index).tuples_fetched for index in blocks
        ) > 0
        # cities, then a spots block
        assert sum(known for known, _ in blocks.values()) >= 2
        full = ExecutionEngine(tiny_registry).execute(plan, head=head)
        reference = reference_execute(plan, tiny_registry)
        assert _signature(streamed.rows) == _signature(
            compose_ranking(reference.rows, 2)
        )
        assert streamed.stats.total_fetches <= full.stats.total_fetches
        # Resuming walks on, and draining it yields everything.
        assert _signature(streamed.stream.top(None)) == _signature(
            reference.rows
        )

    def test_a_resumed_chain_hands_back_the_rows_it_delivered(
        self, tiny_registry, tiny_query
    ):
        """The answer rows of a stream are built once: a resume returns
        the very row objects it delivered before, then the new ones."""
        plan = PlanBuilder(tiny_query, tiny_registry).build(
            (
                tiny_registry.signature("cities").pattern("io"),
                tiny_registry.signature("spots").pattern("ioo"),
            ),
            chain_poset(2, [0, 1]),
        )
        streamed = ExecutionEngine(tiny_registry).execute(
            plan, head=tuple(tiny_query.head), k=2
        )
        delivered = streamed.rows
        more = streamed.stream.top(4)
        assert len(more) > len(delivered) == 2
        assert all(old is new for old, new in zip(delivered, more))
        assert streamed.stream.top(4) == more

    def test_resume_records_fetches_on_rebound_stats(self):
        """Fetches demanded by a resumed stream must land on the stats
        object the resumer provides — the creating round's counters
        stay frozen (the stale-counter regression)."""
        registry, query, plan = _single_feed_plan(
            JoinMethod.MERGE_SCAN, side=20, chunk=2, fetches=10
        )
        head = tuple(query.head)
        engine = ExecutionEngine(registry)
        first = engine.execute(plan, head=head, k=1)
        assert first.stream is not None
        fetches_before = first.stats.total_fetches
        assert fetches_before == 2  # one page per side
        resume_stats = ExecutionStats()
        first.accounting.rebind(resume_stats)
        rows = first.stream.top(8)
        assert _signature(rows) == _signature(
            compose_ranking(reference_execute(plan, registry).rows, 8)
        )
        assert resume_stats.total_fetches > 0
        assert first.stats.total_fetches == fetches_before

    @given(
        st.lists(st.integers(0, 2), min_size=1, max_size=6),
        st.lists(st.integers(0, 2), min_size=1, max_size=6),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 12),
        st.sampled_from(METHODS),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_chunks_lazy_equals_eager_equals_oracle(
        self, lk, rk, cl, cr, k, method
    ):
        """Engine-level differential with random chunk sizes: the lazy
        path and the reference interpreter agree bit-for-bit while lazy
        never fetches more than eager materialization (which fetches
        exactly what the full scan does)."""
        registry = ServiceRegistry()
        registry.register(
            TableSearchService(
                signature("lefts", ["Q", "K", "L"], ["ioo"]),
                search_profile(chunk_size=cl, response_time=1.0),
                [("q", key, index) for index, key in enumerate(lk)],
                score=lambda row: float(-row[2]),
            )
        )
        registry.register(
            TableSearchService(
                signature("rights", ["Q", "K", "R"], ["ioo"]),
                search_profile(chunk_size=cr, response_time=1.0),
                [("q", key, index) for index, key in enumerate(rk)],
                score=lambda row: float(-row[2]),
            )
        )
        registry.register_join_method("lefts", "rights", method)
        key, lv, rv = Variable("K"), Variable("L"), Variable("R")
        query = ConjunctiveQuery(
            name="chunked",
            head=(key, lv, rv),
            atoms=(
                Atom("lefts", (Constant("q"), key, lv)),
                Atom("rights", (Constant("q"), key, rv)),
            ),
            predicates=(),
        )
        plan = PlanBuilder(query, registry).build(
            (
                registry.signature("lefts").pattern("ioo"),
                registry.signature("rights").pattern("ioo"),
            ),
            Poset(n=2),
            fetches={0: 2, 1: 2},
        )
        head = tuple(query.head)
        lazy = ExecutionEngine(registry).execute(plan, head=head, k=k)
        full = ExecutionEngine(registry).execute(plan, head=head)
        expected = compose_ranking(reference_execute(plan, registry).rows, k)
        assert _signature(lazy.rows) == _signature(expected)
        assert lazy.stats.total_fetches <= full.stats.total_fetches
        assert (
            lazy.stats.total_tuples_fetched <= full.stats.total_tuples_fetched
        )

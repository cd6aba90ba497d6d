"""Differential suite for the streaming early-exit top-k pipeline.

The streamed execution path must be **bit-identical** — same rows,
same ranks, same emission order — to ``compose_ranking`` over the
full-scan oracle:

* at the join level, :class:`JoinStream` (``.top(k)``)
  against ``compose_ranking(execute_join(...), k)`` (and the
  materializing ``join_rows`` of the same compiled join), for random
  inputs, random *non-monotone* rank annotations, both strategies and
  arbitrary k — including k = 0 and k beyond the plane;
* the walk's key index (a stage merges only the cells whose rows
  share their key) against the same oracle and against the walk that
  merges every cell, on what an index can get wrong: sparse and
  duplicate keys, ``1`` / ``1.0``, ``nan``, an unhashable key met
  mid-walk, resumes, and lazy inputs that deliver whole pages;
* at the engine level, ``ExecutionMode.STREAMED`` against
  ``ExecutionMode.PARALLEL`` on plans built over random service
  tables, for both join methods — including the demand-driven lazy
  fetch path under *random chunk sizes* (both against the oracle and
  against the eager streamed path, which must never fetch less).

The suite also pins the early-exit bookkeeping: proving a top-k
complete for ``k >= n*m`` requires visiting the whole plane, so
``early_exit_cells_skipped`` must be 0 there.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.engine import ExecutionEngine, ExecutionMode
from repro.execution.joins import (
    JoinStream,
    join_rows,
    stage_cells,
    stage_count,
)
from repro.execution.lazy import (
    LazyServiceCursor,
    MaterializedCursor,
    MultiFeedCursor,
)
from repro.execution.results import Row, compose_ranking
from repro.model.atoms import Atom
from repro.model.predicates import BinaryExpression, Comparison
from repro.model.query import ConjunctiveQuery
from repro.model.schema import signature
from repro.model.terms import Constant, Variable
from repro.plans.builder import PlanBuilder, Poset
from repro.services.profile import search_profile
from repro.services.registry import JoinMethod, ServiceRegistry
from repro.services.table import TableSearchService
from repro.testing import ListPageSource, compiled_join, execute_join

METHODS = (JoinMethod.NESTED_LOOP, JoinMethod.MERGE_SCAN)


def _signature(rows):
    return [(dict(r.bindings), r.ranks) for r in rows]


def _ranked_side(keys, ranks, side_name):
    """Rows with a shared K, a per-side index, and explicit ranks."""
    variable = Variable(side_name)
    return [
        Row(
            bindings={Variable("K"): key, variable: index},
            ranks=((side_name, ranks[index]),),
        )
        for index, key in enumerate(keys)
    ]


def _ranked_join(method, predicates=(), residual=()):
    """The join of an ``"L"`` and an ``"R"`` side of :func:`_ranked_side`."""
    key = Variable("K")
    return compiled_join(
        method, (key, Variable("L")), (key, Variable("R")), predicates, residual
    )


_keys = st.lists(st.integers(0, 3), min_size=0, max_size=6)
_ranks = st.lists(st.integers(0, 9), min_size=6, max_size=6)
_k = st.one_of(st.none(), st.integers(0, 40))


class TestStreamedJoinMatchesOracle:
    """``JoinStream(...).top(k)`` vs. the full-scan oracle and
    ``join_rows``."""

    @given(_keys, _keys, _ranks, _ranks, _k)
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_to_compose_ranking(self, lk, rk, lr, rr, k):
        left = _ranked_side(lk, lr, "L")
        right = _ranked_side(rk, rr, "R")
        for method in METHODS:
            oracle = compose_ranking(execute_join(method, left, right), k)
            hashed = compose_ranking(join_rows(_ranked_join(method), left, right), k)
            streamed = JoinStream(_ranked_join(method), left, right).top(k)
            assert _signature(streamed) == _signature(oracle)
            assert _signature(streamed) == _signature(hashed)

    @given(_keys, _keys, _ranks, _ranks, _k)
    @settings(max_examples=60, deadline=None)
    def test_identical_under_predicates(self, lk, rk, lr, rr, k):
        left = _ranked_side(lk, lr, "L")
        right = _ranked_side(rk, rr, "R")
        predicate = Comparison(
            BinaryExpression("+", Variable("L"), Variable("R")), "<", Constant(5)
        )
        for method in METHODS:
            oracle = compose_ranking(
                execute_join(method, left, right, [predicate]), k
            )
            join = _ranked_join(method, [predicate])
            streamed = JoinStream(join, left, right).top(k)
            assert _signature(streamed) == _signature(oracle)
            hashed = compose_ranking(join_rows(join, left, right), k)
            assert _signature(hashed) == _signature(oracle)

    @given(_keys, _keys, _ranks, _ranks)
    @settings(max_examples=60, deadline=None)
    def test_no_cells_skipped_when_k_covers_plane(self, lk, rk, lr, rr):
        left = _ranked_side(lk, lr, "L")
        right = _ranked_side(rk, rr, "R")
        plane = len(left) * len(right)
        for method in METHODS:
            for k in (plane, plane + 3):
                stream = JoinStream(_ranked_join(method), left, right)
                stream.top(k)
                assert stream.cells_skipped == 0
                assert stream.cells_visited == plane

    @given(_keys, _keys, _ranks, _ranks, st.integers(0, 8), st.integers(0, 40))
    @settings(max_examples=80, deadline=None)
    def test_resumed_stream_matches_oracle_at_larger_k(
        self, lk, rk, lr, rr, k1, k2_extra
    ):
        """top(k1) then top(k2): the resumed walk must still be exact."""
        left = _ranked_side(lk, lr, "L")
        right = _ranked_side(rk, rr, "R")
        k2 = k1 + k2_extra
        for method in METHODS:
            full = execute_join(method, left, right)
            stream = JoinStream(_ranked_join(method), left, right)
            assert _signature(stream.top(k1)) == _signature(
                compose_ranking(full, k1)
            )
            visited_after_first = stream.cells_visited
            assert _signature(stream.top(k2)) == _signature(
                compose_ranking(full, k2)
            )
            # resuming never revisits: the walk only ever advances.
            assert stream.cells_visited >= visited_after_first
            assert _signature(stream.top(None)) == _signature(
                compose_ranking(full)
            )

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_early_exit_scales_with_k_on_monotone_ranks(self, n, m, k):
        """On rank-monotone inputs (what search services emit for one
        input tuple) the MS certificate closes the top-k after ~k
        cells, not n*m."""
        left = _ranked_side([0] * n, list(range(n)), "L")
        right = _ranked_side([0] * m, list(range(m)), "R")
        stream = JoinStream(_ranked_join(JoinMethod.MERGE_SCAN), left, right)
        rows = stream.top(k)
        oracle = compose_ranking(execute_join(JoinMethod.MERGE_SCAN, left, right), k)
        assert _signature(rows) == _signature(oracle)
        if k < min(n, m):
            # at most the first k diagonals — O(k^2) cells, not n*m
            assert k <= stream.cells_visited <= k * (k + 1) // 2


class TestTieBreaking:
    """The documented (rank_key, arrival) order: heap path, sort path,
    and streamed path must agree on duplicate composed ranks."""

    def test_duplicate_ranks_agree_across_paths(self):
        # An all-matching plane where many cells share a composed rank.
        left = _ranked_side([0] * 4, [1, 1, 0, 0], "L")
        right = _ranked_side([0] * 4, [0, 1, 1, 0], "R")
        for method in METHODS:
            full = execute_join(method, left, right)
            sort_path = compose_ranking(full)
            for k in range(len(full) + 2):
                heap_path = compose_ranking(full, k)
                streamed = JoinStream(_ranked_join(method), left, right).top(k)
                assert _signature(heap_path) == _signature(sort_path[:k])
                assert _signature(streamed) == _signature(sort_path[:k])


# -- the key index ------------------------------------------------------------


class _ScanningStream(JoinStream):
    """The walk without its index: every cell of a stage is merged."""

    def _matching_cells(self, stage, left_rows, right_rows):
        return list(
            stage_cells(self.method, len(left_rows), len(right_rows), stage)
        )


_NAN = float("nan")
#: Sparse keys (0-3 matches per row), duplicates, numerically equal
#: keys of two types, a key that never equals itself, and unhashable
#: ones (equal lists do join).
_any_key = st.one_of(
    st.integers(0, 12),
    st.integers(0, 2),
    st.sampled_from([1, 1.0, True]),
    st.just(_NAN),
    st.sampled_from([[1], [1], [2]]),
)
_hashable_key = st.one_of(
    st.integers(0, 12), st.sampled_from([1, 1.0, True]), st.just(_NAN)
)
_side_ranks = st.lists(st.integers(0, 9), min_size=8, max_size=8)
_ks = st.lists(st.integers(0, 30), min_size=1, max_size=3).map(sorted)


def _stages_cells(method, n, m, stages):
    return sum(
        len(list(stage_cells(method, n, m, stage)))
        for stage in range(min(stages, stage_count(method, n, m)))
    )


def _block_cursor(blocks, side_name, chunk):
    """A multi-feed cursor over *blocks* — each ``(base rank, keys)``,
    a row per key with service rank = position — served in pages of
    *chunk* rows (the budget of 6 pages covers any block), so a demand
    for one row usually delivers several; with the eager concatenation
    and the page sources."""
    variable = Variable(side_name)
    eager, cursors, sources = [], [], []
    for number, (base, keys) in enumerate(blocks):
        rows = [
            Row(
                bindings={Variable("K"): key, variable: (number, index)},
                ranks=((f"feed-{side_name}", base), (side_name, index)),
            )
            for index, key in enumerate(keys)
        ]
        eager.extend(rows)
        pages = [rows[i : i + chunk] for i in range(0, len(rows), chunk)] or [[]]
        sources.append(ListPageSource(pages=pages, budget=6))
        cursors.append(LazyServiceCursor(sources[-1], base_rank=base))
    feed = [
        Row(bindings={Variable("F"): number}, ranks=((f"feed-{side_name}", base),))
        for number, (base, _) in enumerate(blocks)
    ]
    opening = iter(cursors)
    cursor = MultiFeedCursor(
        MaterializedCursor(feed), lambda row, rank: next(opening), 6
    )
    return cursor, eager, sources


_blocks = st.lists(
    st.tuples(st.integers(0, 4), st.lists(_hashable_key, max_size=6)),
    max_size=3,
)


class TestKeyIndexedStagesMatchOracle:
    """A stage merges only the cells its index holds: same answers and
    same bookkeeping as merging every cell."""

    @given(
        st.lists(_any_key, max_size=8), st.lists(_any_key, max_size=8),
        _side_ranks, _side_ranks, _ks,
    )
    @settings(max_examples=150, deadline=None)
    def test_any_keys_resumed_and_drained(self, lk, rk, lr, rr, ks):
        """``top(k1)`` → ``top(k2)`` → ``top(None)`` over keys of every
        kind (a list key switches the walk to scanning wherever it is
        first met): rows, ranks and order are the oracle's, the counters
        the scanning walk's — and ``cells_visited`` is the cells of the
        stages passed."""
        left = _ranked_side(lk, lr, "L")
        right = _ranked_side(rk, rr, "R")
        for method in METHODS:
            full = execute_join(method, left, right)
            indexed = JoinStream(_ranked_join(method), left, right)
            scanning = _ScanningStream(_ranked_join(method), left, right)
            for k in [*ks, None]:
                rows = indexed.top(k)
                assert _signature(rows) == _signature(compose_ranking(full, k))
                assert _signature(rows) == _signature(scanning.top(k))
                assert indexed.cells_visited == scanning.cells_visited
                assert indexed.cells_visited == _stages_cells(
                    method, len(left), len(right), indexed._stage
                )
                assert indexed.join_rows_emitted == scanning.join_rows_emitted
                assert indexed.candidate_count == scanning.candidate_count
                assert indexed.merges_attempted <= scanning.merges_attempted
            assert indexed.join_rows_emitted == len(full)

    @given(_blocks, _blocks, st.integers(1, 4), st.integers(1, 4), _ks)
    @settings(max_examples=100, deadline=None)
    def test_lazy_pages_deliver_more_rows_than_a_stage_asked(
        self, left_blocks, right_blocks, left_chunk, right_chunk, ks
    ):
        """Over multi-feed cursors a pulled page places rows beyond the
        current stage; they are indexed when their stage comes.  Same
        answers as the oracle over the eager concatenation, and the
        same pages pulled, in the same order, as the scanning walk."""
        for method in METHODS:
            walks = []
            for stream_type in (JoinStream, _ScanningStream):
                left, eager_left, left_sources = _block_cursor(
                    left_blocks, "L", left_chunk
                )
                right, eager_right, right_sources = _block_cursor(
                    right_blocks, "R", right_chunk
                )
                walks.append(
                    (
                        stream_type(_ranked_join(method), left, right),
                        left_sources + right_sources,
                    )
                )
            full = execute_join(method, eager_left, eager_right)
            (indexed, indexed_sources), (scanning, scanning_sources) = walks
            for k in [*ks, None]:
                rows = indexed.top(k)
                assert _signature(rows) == _signature(compose_ranking(full, k))
                assert _signature(rows) == _signature(scanning.top(k))
                assert [source.fetch_log for source in indexed_sources] == [
                    source.fetch_log for source in scanning_sources
                ]
                assert indexed.cells_visited == scanning.cells_visited
                assert indexed.join_rows_emitted == scanning.join_rows_emitted
                assert indexed.lazy_pages_saved == scanning.lazy_pages_saved

    def test_nan_never_joins_and_one_joins_one_point_zero(self):
        left = _ranked_side([1, _NAN, 1.0], [0, 1, 2], "L")
        right = _ranked_side([_NAN, 1.0, True], [0, 1, 2], "R")
        for method in METHODS:
            rows = JoinStream(_ranked_join(method), left, right).top(None)
            assert _signature(rows) == _signature(
                compose_ranking(execute_join(method, left, right))
            )
            # every non-nan pair: 2 left rows x 2 right rows
            assert len(rows) == 4

    def test_unhashable_key_first_seen_mid_walk(self):
        """Stages before the list key are served from the index, the
        stage that meets it and all later ones scan — one answer."""
        keys = [0, 1, 0, 1, [1], 0, [1], 1]
        left = _ranked_side(keys, list(range(8)), "L")
        right = _ranked_side(keys[::-1], list(range(8)), "R")
        full = execute_join(JoinMethod.MERGE_SCAN, left, right)
        stream = JoinStream(_ranked_join(JoinMethod.MERGE_SCAN), left, right)
        assert _signature(stream.top(2)) == _signature(compose_ranking(full, 2))
        assert stream._stage <= 4  # the list keys are rows 4 and 6 / 1 and 3
        assert stream.merges_attempted < stream.cells_visited
        served_from_index = stream.merges_attempted
        assert _signature(stream.top(None)) == _signature(compose_ranking(full))
        assert stream.cells_visited == 64
        assert stream.join_rows_emitted == len(full)
        # from the fallback on every cell is merged: 64 less the cells
        # of the stages the index served
        assert stream.merges_attempted > served_from_index + 32

    @given(st.integers(1, 5))
    @settings(max_examples=5, deadline=None)
    def test_rows_indexed_scale_with_the_stages_visited(self, k):
        """The indexing twin of the early exit below: over a 400 x 400
        materialized plane a top-k walk reads the key of the rows its
        stages could touch — at most 2 (stages + 1) — not of 800."""
        hashed = set()

        class Key:
            def __init__(self, row):
                self.row = row

            def __hash__(self):
                hashed.add(self.row)
                return 0

            def __eq__(self, other):
                return True

        n = 400
        left = _ranked_side([Key(("L", i)) for i in range(n)], list(range(n)), "L")
        right = _ranked_side([Key(("R", j)) for j in range(n)], list(range(n)), "R")
        stream = JoinStream(_ranked_join(JoinMethod.MERGE_SCAN), left, right)
        assert len(stream.top(k)) == k
        assert stream.cells_visited == stream._stage * (stream._stage + 1) // 2
        assert 2 <= len(hashed) <= 2 * (stream._stage + 1)


# -- engine level -----------------------------------------------------------


def _random_table_plan(left_keys, right_keys, method, chunks=(4, 4)):
    """A two-branch plan over random search tables, merged by *method*.

    Both services are fed from the input node (single feed tuple), so
    a STREAMED engine fetches them through lazy cursors; *chunks*
    randomizes their page sizes for the lazy differential tests.
    """
    registry = ServiceRegistry()
    registry.register(
        TableSearchService(
            signature("lefts", ["Q", "K", "L"], ["ioo"]),
            search_profile(chunk_size=chunks[0], response_time=1.0),
            [("q", key, index) for index, key in enumerate(left_keys)],
            score=lambda row: float(-row[2]),
        )
    )
    registry.register(
        TableSearchService(
            signature("rights", ["Q", "K", "R"], ["ioo"]),
            search_profile(chunk_size=chunks[1], response_time=1.0),
            [("q", key, index) for index, key in enumerate(right_keys)],
            score=lambda row: float(-row[2]),
        )
    )
    registry.register_join_method("lefts", "rights", method)
    key, left_var, right_var = Variable("K"), Variable("L"), Variable("R")
    query = ConjunctiveQuery(
        name="stream",
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
        fetches={0: 2, 1: 2},
    )
    return registry, query, plan


_table_keys = st.lists(st.integers(0, 2), min_size=1, max_size=6)


class TestStreamedEngineMatchesOracle:
    """``ExecutionMode.STREAMED`` vs. the full-scan engine on plans
    built over random service tables."""

    @given(_table_keys, _table_keys, st.integers(0, 12), st.sampled_from(METHODS))
    @settings(max_examples=25, deadline=None)
    def test_streamed_execution_bit_identical(self, lk, rk, k, method):
        registry, query, plan = _random_table_plan(lk, rk, method)
        head = tuple(query.head)
        oracle = ExecutionEngine(registry, mode=ExecutionMode.PARALLEL).execute(
            plan, head=head
        )
        streamed = ExecutionEngine(registry, mode=ExecutionMode.STREAMED).execute(
            plan, head=head, k=k
        )
        expected = compose_ranking(oracle.rows, k)
        assert _signature(streamed.rows) == _signature(expected)
        assert streamed.stream is not None
        plane = streamed.stream.plane_cells
        assert (
            streamed.stats.streamed_cells_visited
            + streamed.stats.early_exit_cells_skipped
            == plane
        )
        if k >= plane:
            assert streamed.stats.early_exit_cells_skipped == 0
        if streamed.complete:
            assert _signature(streamed.rows) == _signature(
                compose_ranking(oracle.rows, k)
            )
        else:
            assert len(streamed.rows) == k

    @given(
        _table_keys,
        _table_keys,
        st.integers(0, 12),
        st.sampled_from(METHODS),
        st.integers(1, 5),
        st.integers(1, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_lazy_fetching_bit_identical_under_random_chunks(
        self, lk, rk, k, method, chunk_left, chunk_right
    ):
        """The demand-driven fetch path (random page sizes) against the
        full-scan oracle, whose fetches are eager materialization's:
        identical rows, never more remote work."""
        registry, query, plan = _random_table_plan(
            lk, rk, method, chunks=(chunk_left, chunk_right)
        )
        head = tuple(query.head)
        oracle = ExecutionEngine(registry, mode=ExecutionMode.PARALLEL).execute(
            plan, head=head
        )
        lazy = ExecutionEngine(registry, mode=ExecutionMode.STREAMED).execute(
            plan, head=head, k=k
        )
        expected = compose_ranking(oracle.rows, k)
        assert _signature(lazy.rows) == _signature(expected)
        assert lazy.stats.total_fetches <= oracle.stats.total_fetches
        assert lazy.stats.total_tuples_fetched <= oracle.stats.total_tuples_fetched

    @given(_table_keys, _table_keys, st.sampled_from(METHODS))
    @settings(max_examples=15, deadline=None)
    def test_streamed_without_k_is_plain_execution(self, lk, rk, method):
        registry, query, plan = _random_table_plan(lk, rk, method)
        head = tuple(query.head)
        oracle = ExecutionEngine(registry, mode=ExecutionMode.PARALLEL).execute(
            plan, head=head
        )
        streamed = ExecutionEngine(registry, mode=ExecutionMode.STREAMED).execute(
            plan, head=head
        )
        assert _signature(streamed.rows) == _signature(oracle.rows)
        assert streamed.stream is None
        assert streamed.complete
        assert streamed.stats.early_exit_cells_skipped == 0

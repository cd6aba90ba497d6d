"""Differential suite for the streaming early-exit top-k pipeline.

The streamed execution path must be **bit-identical** — same rows,
same ranks, same emission order — to ``compose_ranking`` over an
independent oracle:

* at the join level, :class:`JoinStream` (``.top(k)``)
  against ``compose_ranking(execute_join(...), k)`` (and the
  materializing ``join_rows`` of the same compiled join), for random
  inputs, random *non-monotone* rank annotations, both strategies and
  arbitrary k — including k = 0 and k beyond the plane;
* the walk's key index (a walk merges only the cells whose rows
  share their key) against the same oracle and against the walk whose
  index keeps every row in one bucket, on what an index can get
  wrong: sparse and duplicate keys, ``1`` / ``1.0``, ``nan``, an
  unhashable key met mid-walk, resumes, and lazy inputs that deliver
  whole pages;
* at the engine level, a top-k walk (``execute(k=...)``) against the
  dict-row reference interpreter
  (``compose_ranking(reference_execute(...), k)``) on plans built
  over random service tables, for both join methods — including the
  demand-driven lazy fetch path under *random chunk sizes* (its rows
  against the interpreter, its fetches against the full scan's, which
  must never be fewer).

The suite also pins the early exit itself, from the cells a walk ran
through its kernel: proving a top-k complete for ``k >= n*m``
requires visiting every matching cell, and a merge-scan top-k visits
exactly k cells of an all-matching plane.  The streams keep no
counters; a test that needs cells or join rows counts them with a
wrapper of its own (:func:`_counting_cells`, :func:`_counted`).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.engine import ExecutionEngine
from repro.execution.joins import JoinStream
from repro.execution.lazy import MaterializedCursor, MultiFeedCursor
from repro.execution.results import Row
from repro.model.atoms import Atom
from repro.model.predicates import BinaryExpression, Comparison
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
    execute_join,
    join_stream,
    joined,
    reference_execute,
)

from tests.test_domains_matrix import engine_rows_out

METHODS = (JoinMethod.NESTED_LOOP, JoinMethod.MERGE_SCAN)


def _signature(rows):
    return [(dict(r.bindings), r.ranks) for r in rows]


def _counting_cells(stream):
    """*stream*, counting in ``stream.merges`` the cells its kernel is
    handed."""
    kernel = stream._kernel
    stream.merges = 0

    def counted(cells, *args):
        stream.merges += len(cells)
        kernel(cells, *args)

    stream._kernel = counted
    return stream


class _JoinRowCounter:
    """An always-true join predicate counting the merged rows it sees:
    appended last, it counts the rows past the join's own predicates."""

    def __init__(self):
        self.count = 0

    def __call__(self, values):
        self.count += 1
        return True


def _counted(join):
    """*join* with a :class:`_JoinRowCounter` after its predicates."""
    counter = _JoinRowCounter()
    return join._replace(predicates=join.predicates + (counter,)), counter


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
            hashed = compose_ranking(joined(_ranked_join(method), left, right), k)
            streamed = join_stream(_ranked_join(method), left, right).top(k)
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
            streamed = join_stream(join, left, right).top(k)
            assert _signature(streamed) == _signature(oracle)
            hashed = compose_ranking(joined(join, left, right), k)
            assert _signature(hashed) == _signature(oracle)

    @given(_keys, _keys, _ranks, _ranks)
    @settings(max_examples=60, deadline=None)
    def test_no_cells_skipped_when_k_covers_plane(self, lk, rk, lr, rr):
        left = _ranked_side(lk, lr, "L")
        right = _ranked_side(rk, rr, "R")
        plane = len(left) * len(right)
        matching = sum(a == b for a in lk for b in rk)
        for method in METHODS:
            for k in (plane, plane + 3):
                stream = _counting_cells(
                    join_stream(_ranked_join(method), left, right)
                )
                stream.top(k)
                assert stream.exhausted
                assert stream.merges == matching

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
            stream = _counting_cells(
                join_stream(_ranked_join(method), left, right)
            )
            assert _signature(stream.top(k1)) == _signature(
                compose_ranking(full, k1)
            )
            assert _signature(stream.top(k2)) == _signature(
                compose_ranking(full, k2)
            )
            assert _signature(stream.top(None)) == _signature(
                compose_ranking(full)
            )
            # resuming never revisits: over the three calls every
            # matching cell (each one an answer) went through the
            # kernel once.
            assert stream.merges == len(full)

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_early_exit_scales_with_k_on_monotone_ranks(self, n, m, k):
        """On rank-monotone inputs (what search services emit for one
        input tuple) the MS certificate closes the top-k after k cells,
        not n*m: the walk visits cells in rank order, and every cell of
        this plane is an answer."""
        left = _ranked_side([0] * n, list(range(n)), "L")
        right = _ranked_side([0] * m, list(range(m)), "R")
        stream = _counting_cells(
            join_stream(_ranked_join(JoinMethod.MERGE_SCAN), left, right)
        )
        rows = stream.top(k)
        oracle = compose_ranking(execute_join(JoinMethod.MERGE_SCAN, left, right), k)
        assert _signature(rows) == _signature(oracle)
        assert stream.merges == min(k, n * m)


class TestTieBreaking:
    """The documented (rank_key, arrival) order: the truncated sort and
    the streamed path must agree on duplicate composed ranks."""

    def test_duplicate_ranks_agree_across_paths(self):
        # An all-matching plane where many cells share a composed rank.
        left = _ranked_side([0] * 4, [1, 1, 0, 0], "L")
        right = _ranked_side([0] * 4, [0, 1, 1, 0], "R")
        for method in METHODS:
            full = execute_join(method, left, right)
            sort_path = compose_ranking(full)
            for k in range(len(full) + 2):
                truncated = compose_ranking(full, k)
                streamed = join_stream(_ranked_join(method), left, right).top(k)
                assert _signature(truncated) == _signature(sort_path[:k])
                assert _signature(streamed) == _signature(sort_path[:k])


# -- the key index ------------------------------------------------------------


class _CountingStream(JoinStream):
    """The walk counting the cells it hands to its kernel."""

    def __init__(self, *args):
        super().__init__(*args)
        _counting_cells(self)


class _ScanningStream(_CountingStream):
    """The walk whose index keeps every row in one bucket: every cell
    of the rows it indexed is merged."""

    def __init__(self, *args):
        super().__init__(*args)
        self._index._pool(0, 0)


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


def _block_cursor(blocks, side_name, chunk):
    """A multi-feed cursor over *blocks* — each ``(base rank, keys)``,
    a row per key with service rank = position — served in pages of
    *chunk* rows (the budget of 6 pages covers any block), so a demand
    for one row usually delivers several; with the eager concatenation
    and the page sources."""
    variable = Variable(side_name)
    eager, sources = [], []
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
    feed = [
        Row(bindings={Variable("F"): number}, ranks=((f"feed-{side_name}", base),))
        for number, (base, _) in enumerate(blocks)
    ]
    opening = iter(sources)
    cursor = MultiFeedCursor(
        MaterializedCursor(as_records(feed)), lambda record: next(opening)
    )
    return cursor, eager, sources


_blocks = st.lists(
    st.tuples(st.integers(0, 4), st.lists(_hashable_key, max_size=6)),
    max_size=3,
)


def _cells_to_answer(left, right, k, method):
    """How many cells a keyed walk over *left* and *right* (hashable
    keys) runs through its kernel for ``top(k)``: its index's cells —
    the pairs whose keys are equal as dict keys — in ``(rank,
    arrival)`` order (merge scan ``(i + j, i)``, nested loop ``(i,
    j)``), up to and including the k-th that joins (``nan`` is filed
    with itself and joins nothing), or all."""
    key = Variable("K")
    nested = method is JoinMethod.NESTED_LOOP
    cells = sorted(
        (
            sum(rank for _, rank in lrow.ranks) + sum(rank for _, rank in rrow.ranks),
            i if nested else i + j,
            j if nested else i,
            lrow.bindings[key] == rrow.bindings[key],
        )
        for i, lrow in enumerate(left)
        for j, rrow in enumerate(right)
        if lrow.bindings[key] is rrow.bindings[key]
        or lrow.bindings[key] == rrow.bindings[key]
    )
    answers = 0
    for count, (*_, joins) in enumerate(cells):
        if answers == k:
            return count
        answers += joins
    return len(cells)


def _pages_between(blocks, chunks, added, pulled):
    """True when the page logs *pulled* lie, source by source, between
    those of fresh cursors over *blocks* that placed ``added`` rows a
    side and those that placed one more: a walk pulls a page only to
    place the row it demands, and a cursor pulls the same pages
    however its rows are asked for."""
    bounds = []
    for extra in (0, 1):
        logs = []
        for side_blocks, name, chunk, rows in zip(blocks, "LR", chunks, added):
            cursor, _, sources = _block_cursor(side_blocks, name, chunk)
            cursor.ensure(rows + extra)
            logs += [source.fetch_log for source in sources]
        bounds.append(logs)
    return all(
        log[: len(low)] == low and high[: len(log)] == log
        for low, log, high in zip(bounds[0], pulled, bounds[1])
    )


class TestKeyIndexedStagesMatchOracle:
    """A walk merges only the cells its index holds: same answers and
    same join rows as the walk that merges every cell of the rows it
    indexed, and fewer merges.  The pooled index files cells the keyed
    one does not, and the kernel refuses them; a nested-loop walk still
    indexes the same rows as that walk."""

    @given(
        st.lists(_any_key, max_size=8), st.lists(_any_key, max_size=8),
        _side_ranks, _side_ranks, _ks,
    )
    @settings(max_examples=150, deadline=None)
    def test_any_keys_resumed_and_drained(self, lk, rk, lr, rr, ks):
        """``top(k1)`` → ``top(k2)`` → ``top(None)`` over keys of every
        kind (a list key puts every later row in one bucket wherever it
        is first met): rows, ranks and order are the oracle's, the join
        rows counted (and, nested loop, the rows indexed) the scanning
        walk's, and the merges attempted no more than it at every k: both
        visit their cells in ``(rank, arrival)`` order up to the same
        k-th answer, and the keyed walk's cells are some of the pooled
        walk's."""
        left = _ranked_side(lk, lr, "L")
        right = _ranked_side(rk, rr, "R")
        for method in METHODS:
            full = execute_join(method, left, right)
            join, indexed_rows = _counted(_ranked_join(method))
            indexed = _CountingStream(join, as_records(left), as_records(right))
            join, scanning_rows = _counted(_ranked_join(method))
            scanning = _ScanningStream(join, as_records(left), as_records(right))
            for k in [*ks, None]:
                rows = indexed.top(k)
                assert _signature(rows) == _signature(compose_ranking(full, k))
                assert _signature(rows) == _signature(scanning.top(k))
                if method is JoinMethod.NESTED_LOOP:
                    assert indexed._index.added == scanning._index.added
                assert indexed_rows.count == scanning_rows.count
                assert indexed.merges <= scanning.merges
            assert indexed_rows.count == len(full)

    @given(_blocks, _blocks, st.integers(1, 4), st.integers(1, 4), _ks)
    @settings(max_examples=100, deadline=None)
    def test_lazy_pages_deliver_more_rows_than_a_stage_asked(
        self, left_blocks, right_blocks, left_chunk, right_chunk, ks
    ):
        """Over multi-feed cursors a pulled page places rows beyond the
        ones the walk indexed; they are indexed when its bounds ask for
        them.  Same answers as the oracle over the eager concatenation
        and the same join rows as the scanning walk at every k.  Either
        order runs exactly the cells of its index up to the k-th answer
        through its kernel.  Merge scan pulls only the pages that place
        the rows it indexed and the one it demanded last; nested loop
        pulls the whole inner side once it takes a step, and of the
        outer side only the pages that place the rows it indexed and
        the one it demanded last."""
        for method in METHODS:
            walks = []
            for stream_type in (JoinStream, _ScanningStream):
                left, eager_left, left_sources = _block_cursor(
                    left_blocks, "L", left_chunk
                )
                right, eager_right, right_sources = _block_cursor(
                    right_blocks, "R", right_chunk
                )
                join, counter = _counted(_ranked_join(method))
                walks.append(
                    (
                        _counting_cells(stream_type(join, left, right)),
                        left_sources + right_sources,
                        counter,
                    )
                )
            full = execute_join(method, eager_left, eager_right)
            (
                (indexed, indexed_sources, indexed_rows),
                (scanning, scanning_sources, scanning_rows),
            ) = walks
            nested = method is JoinMethod.NESTED_LOOP
            inner, _, inner_sources = _block_cursor(right_blocks, "R", right_chunk)
            inner.ensure_all()
            drained = [source.fetch_log for source in inner_sources]
            stepped = False
            for k in [*ks, None]:
                rows = indexed.top(k)
                assert _signature(rows) == _signature(compose_ranking(full, k))
                assert _signature(rows) == _signature(scanning.top(k))
                assert indexed.merges == _cells_to_answer(
                    eager_left, eager_right, k, method
                )
                logs = [source.fetch_log for source in indexed_sources]
                outer = len(left_blocks)
                # A step runs unless k is 0 or the outer side has no feed.
                stepped = stepped or (k != 0 and bool(left_blocks))
                if nested and stepped:
                    assert logs[outer:] == drained
                if k is not None:
                    n, m = indexed._index.added
                    assert _pages_between(
                        (left_blocks, right_blocks), (left_chunk, right_chunk),
                        (n, len(eager_right) if nested and stepped else m),
                        logs,
                    )
                assert indexed_rows.count == scanning_rows.count

    def test_nan_never_joins_and_one_joins_one_point_zero(self):
        left = _ranked_side([1, _NAN, 1.0], [0, 1, 2], "L")
        right = _ranked_side([_NAN, 1.0, True], [0, 1, 2], "R")
        for method in METHODS:
            rows = join_stream(_ranked_join(method), left, right).top(None)
            assert _signature(rows) == _signature(
                compose_ranking(execute_join(method, left, right))
            )
            # every non-nan pair: 2 left rows x 2 right rows
            assert len(rows) == 4

    def test_unhashable_key_first_seen_mid_walk(self):
        """Rows before the list key are bucketed by key, the row that
        has it and every later one pair with the whole other side."""
        keys = [0, 1, 0, 1, [1], 0, [1], 1]
        left = _ranked_side(keys, list(range(8)), "L")
        right = _ranked_side(keys[::-1], list(range(8)), "R")
        full = execute_join(JoinMethod.MERGE_SCAN, left, right)
        join, join_rows_counted = _counted(_ranked_join(JoinMethod.MERGE_SCAN))
        stream = _CountingStream(join, as_records(left), as_records(right))
        assert _signature(stream.top(2)) == _signature(compose_ranking(full, 2))
        # the list keys are rows 4 and 6 / 1 and 3: met, and a top-2
        # indexes a corner of the plane only
        assert sum(stream._index.added) < 8 and stream.merges < 8
        assert all(buckets.keys() <= {()} for _, buckets, _ in stream._index._sides)
        assert _signature(stream.top(None)) == _signature(compose_ranking(full))
        assert join_rows_counted.count == len(full)
        # every later row pairs with every row of the other side: more
        # cells than the ones that join, never the same cell twice
        assert len(full) < stream.merges <= 64

    @given(st.integers(1, 5))
    @settings(max_examples=5, deadline=None)
    def test_rows_indexed_scale_with_k(self, k):
        """The indexing twin of the early exit above: over a 400 x 400
        materialized plane a top-k walk reads the key of the rows its
        bounds asked for — at most k + 1 a side — not of 800."""
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
        stream = join_stream(_ranked_join(JoinMethod.MERGE_SCAN), left, right)
        assert len(stream.top(k)) == k
        # a corner of the plane: each indexed row is hashed once
        assert max(stream._index.added) <= k + 1
        assert 2 <= len(hashed) == sum(stream._index.added)


# -- engine level -----------------------------------------------------------


def _random_table_plan(left_keys, right_keys, method, chunks=(4, 4)):
    """A two-branch plan over random search tables, merged by *method*.

    Both services are fed from the input node (single feed tuple), so
    a top-k walk fetches them through lazy cursors; *chunks*
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
    """A top-k walk vs. the reference interpreter, and vs. the full
    scan's fetches, on plans built over random service tables."""

    @given(_table_keys, _table_keys, st.integers(1, 12), st.sampled_from(METHODS))
    @settings(max_examples=25, deadline=None)
    def test_streamed_execution_bit_identical(self, lk, rk, k, method):
        registry, query, plan = _random_table_plan(lk, rk, method)
        head = tuple(query.head)
        reference = reference_execute(plan, registry)
        streamed = ExecutionEngine(registry).execute(plan, head=head, k=k)
        expected = compose_ranking(reference.rows, k)
        assert _signature(streamed.rows) == _signature(expected)
        assert streamed.stream is not None
        # Proving a top-k of the whole plane complete visits all of it.
        program = streamed.program
        left, right = program.steps[program.terminal].feeds
        rows_out = engine_rows_out(reference, program)
        if k >= rows_out[left] * rows_out[right]:
            assert streamed.stream.exhausted
        if streamed.complete:
            assert len(streamed.rows) == len(reference.rows)
        else:
            assert len(streamed.rows) == k

    @given(
        _table_keys,
        _table_keys,
        st.integers(1, 12),
        st.sampled_from(METHODS),
        st.integers(1, 5),
        st.integers(1, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_lazy_fetching_bit_identical_under_random_chunks(
        self, lk, rk, k, method, chunk_left, chunk_right
    ):
        """The demand-driven fetch path (random page sizes) against the
        reference interpreter's rows and the full scan's fetches, which
        are eager materialization's: identical rows, never more remote
        work."""
        registry, query, plan = _random_table_plan(
            lk, rk, method, chunks=(chunk_left, chunk_right)
        )
        head = tuple(query.head)
        full = ExecutionEngine(registry).execute(plan, head=head)
        lazy = ExecutionEngine(registry).execute(plan, head=head, k=k)
        expected = compose_ranking(reference_execute(plan, registry).rows, k)
        assert _signature(lazy.rows) == _signature(expected)
        assert lazy.stats.total_fetches <= full.stats.total_fetches
        assert lazy.stats.total_tuples_fetched <= full.stats.total_tuples_fetched

    @given(_table_keys, _table_keys, st.sampled_from(METHODS))
    @settings(max_examples=15, deadline=None)
    def test_without_k_the_same_stream_is_drained(self, lk, rk, method):
        registry, query, plan = _random_table_plan(lk, rk, method)
        head = tuple(query.head)
        reference = reference_execute(plan, registry)
        full = ExecutionEngine(registry).execute(plan, head=head)
        assert _signature(full.rows) == _signature(reference.rows)
        assert full.stream.exhausted
        assert full.complete
        assert full.stream.top(None) == full.rows  # nothing more to walk
        assert full.stats.rows_out == engine_rows_out(reference, full.program)

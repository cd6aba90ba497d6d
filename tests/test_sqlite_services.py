"""Indexed SQLite/FTS5 backends: differential conformance.

The persistent backends (:mod:`repro.services.sqlite`) claim *bit
identity* with the in-memory oracles of :mod:`repro.services.table`:
same tuples, same ranks, same ``has_more`` flags, page by page, for
any relation over the SQLite-exact value domain (str/int/float).
Pinned here:

* **Invocation-level differentials** (hypothesis): random relations,
  random chunk/decay geometry, scored with deliberate ties — every
  page of the SQLite service equals the oracle's, including the page
  past the end.
* **Plan-level differentials**: the bibliographic domain served from
  the ``sqlite`` backend is bit-identical to the ``memory`` backend
  through full plan executions under PARALLEL and STREAMED (lazy and
  eager).
* **FTS5 internal consistency**: no Python BM25 oracle exists, so the
  full-text service is held to rank-monotone paging — paged output
  equals an eager drain, rank indexes are the gap-free global
  sequence, the decay bound truncates — plus match-query
  sanitization (user values cannot inject FTS5 syntax).
* **Persistence**: a database built on disk and re-attached by a
  fresh process-like service answers identically (search attach needs
  no score function: scores are materialized).
* **Continuation**: a page continued from its unit's recorded last key
  equals the oracle's under any page-access order (in order, reversed,
  skipped, repeated, interleaved across keys), on every pattern, across
  tie-heavy page boundaries, the decay cap and eviction; a NULL score
  turns continuation off; and every prepared statement is an index
  search (``EXPLAIN QUERY PLAN``), never a sort.
* **Thread-safety**: concurrent invocations from many threads against
  one service all equal the oracle, deep pages and eviction included,
  and two client threads submitting to one SQLite-backed
  ``QueryService`` (marker ``concurrency``) each get their own pooled
  connection and the memory backend's answers.
"""

from __future__ import annotations

import random
import re
import sqlite3
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.engine import ExecutionEngine, ExecutionMode
from repro.model.schema import signature
from repro.serving import QueryService
from repro.services.base import InvocationError
from repro.services.profile import exact_profile, search_profile
from repro.services.sqlite import (
    FTS5SearchService,
    SQLiteExactService,
    SQLiteSearchService,
    fts5_available,
)

#: Patches the continuation map's bound (a module constant).
CAPACITY = "repro.services.sqlite.CONTINUATION_CAPACITY"
from repro.services.table import TableExactService, TableSearchService
from repro.sources.biblio import biblio_registry, experts_query, generate_corpus
from repro.testing import eager_streamed_engine

SIG = signature("rel", ["K", "N", "X"], ["ioo", "iio", "ooo"])

# Few distinct values → dense key collisions; scores collide too, so
# the stable-sort tie-break (storage order) is genuinely exercised.
_VALUES = st.one_of(
    st.sampled_from(["a", "b", "c"]),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.5, -1.5, 2.0]),
)
_ROWS = st.lists(st.tuples(_VALUES, _VALUES, _VALUES), max_size=40)


def _drain(service, pattern, inputs):
    """Every page of an invocation, plus one past the reported end."""
    pages = []
    page = 0
    while True:
        result = service.invoke(pattern, inputs, page)
        pages.append((result.tuples, result.ranks, result.has_more))
        if not result.has_more or page > 60:
            break
        page += 1
    # One page beyond the end must agree too (empty vs empty).
    extra = service.invoke(pattern, inputs, page + 1)
    pages.append((extra.tuples, extra.ranks, extra.has_more))
    return pages


class TestExactDifferential:
    @settings(max_examples=25, deadline=None)
    @given(rows=_ROWS, chunk=st.sampled_from([None, 1, 2, 3, 7]),
           key=st.sampled_from(["a", "b", 1]), data=st.data())
    def test_matches_oracle_page_by_page(self, rows, chunk, key, data):
        profile = exact_profile(erspi=2.0, response_time=1.0, chunk_size=chunk)
        oracle = TableExactService(SIG, profile, rows)
        backend = SQLiteExactService(SIG, profile, rows)
        try:
            pattern = SIG.pattern(data.draw(st.sampled_from(["ioo", "iio", "ooo"])))
            inputs = {k: key if k == 0 else data.draw(_VALUES)
                      for k in pattern.input_positions}
            if chunk is None:
                a = oracle.invoke(pattern, inputs)
                b = backend.invoke(pattern, inputs)
                assert (a.tuples, a.ranks, a.has_more) == (
                    b.tuples, b.ranks, b.has_more
                )
            else:
                assert _drain(oracle, pattern, inputs) == _drain(
                    backend, pattern, inputs
                )
        finally:
            backend.close()

    def test_rows_property_and_len(self):
        rows = [("a", 1, 0.5), ("b", 2, 1.5)]
        backend = SQLiteExactService(
            SIG, exact_profile(erspi=2.0, response_time=1.0, chunk_size=2), rows
        )
        assert backend.rows == tuple(rows)
        assert len(backend) == 2
        backend.close()

    def test_arity_mismatch_rejected(self):
        with pytest.raises(InvocationError, match="arity"):
            SQLiteExactService(
                SIG, exact_profile(erspi=1.0, response_time=1.0), [("a", 1)]
            )

    def test_rows_or_path_required(self):
        with pytest.raises(InvocationError, match="rows are required"):
            SQLiteExactService(
                SIG, exact_profile(erspi=1.0, response_time=1.0), None
            )


class TestSearchDifferential:
    @settings(max_examples=25, deadline=None)
    @given(rows=_ROWS, chunk=st.integers(min_value=1, max_value=5),
           decay=st.sampled_from([None, 1, 3, 8, 100]),
           key=st.sampled_from(["a", "b", 1]))
    def test_matches_oracle_page_by_page(self, rows, chunk, decay, key):
        # Coarse score → many ties → the DESC sort must fall back to
        # storage order exactly as Python's stable sort does.
        score = lambda row: float(hash(str(row[1])) % 3)  # noqa: E731
        profile = search_profile(chunk_size=chunk, response_time=1.0, decay=decay)
        oracle = TableSearchService(SIG, profile, rows, score)
        backend = SQLiteSearchService(SIG, profile, rows, score)
        try:
            pattern = SIG.pattern("ioo")
            assert _drain(oracle, pattern, {0: key}) == _drain(
                backend, pattern, {0: key}
            )
        finally:
            backend.close()

    def test_requires_search_profile(self):
        with pytest.raises(InvocationError, match="search profile"):
            SQLiteSearchService(
                SIG, exact_profile(erspi=1.0, response_time=1.0, chunk_size=2),
                [("a", 1, 2)], score=lambda row: 0.0,
            )

    def test_score_required_to_load_rows(self):
        with pytest.raises(InvocationError, match="score function"):
            SQLiteSearchService(
                SIG, search_profile(chunk_size=2, response_time=1.0),
                [("a", 1, 2)], score=None,
            )


#: Three keys x 30 rows, scored on two values only: runs of equal
#: scores straddle every page boundary of a small chunk.
_TIED = [(key, i % 4, float(i % 3)) for i in range(30) for key in "abc"]


def _tied_score(row):
    return float(row[1] // 2)


def _backends(kind, rows, chunk, decay=None, score=_tied_score):
    """``(oracle, backend)`` of one kind over *rows*."""
    if kind == "exact":
        profile = exact_profile(erspi=2.0, response_time=1.0, chunk_size=chunk)
        return (
            TableExactService(SIG, profile, rows),
            SQLiteExactService(SIG, profile, rows),
        )
    profile = search_profile(chunk_size=chunk, response_time=1.0, decay=decay)
    return (
        TableSearchService(SIG, profile, rows, score),
        SQLiteSearchService(SIG, profile, rows, score),
    )


def _unit_inputs(code, key):
    """Inputs of one unit of pattern *code* (``ooo`` has one unit)."""
    return {"ioo": {0: key}, "iio": {0: key, 1: 1}, "ooo": {}}[code]


def _visit(oracle, backend, visits):
    """Invoke both services on each ``(code, key, page)``; every answer
    must agree."""
    for code, key, page in visits:
        pattern = SIG.pattern(code)
        inputs = _unit_inputs(code, key)
        want = oracle.invoke(pattern, inputs, page)
        got = backend.invoke(pattern, inputs, page)
        assert (got.tuples, got.ranks, got.has_more) == (
            want.tuples, want.ranks, want.has_more
        ), (code, key, page)


def _orders(code, keys="abc", pages=range(12)):
    """Named page-access orders over the units of one pattern."""
    keys = keys if code != "ooo" else "a"
    pages = list(pages)
    return {
        "in_order": [(code, k, p) for k in keys for p in pages],
        "reversed": [(code, k, p) for k in keys for p in reversed(pages)],
        "skipped": [
            (code, k, p) for k in keys for p in [*pages[::3], *pages[1::3]]
        ],
        "repeated": [(code, k, p) for k in keys for p in pages for _ in "xy"]
        + [(code, k, p) for k in keys for p in pages],
        "interleaved": [(code, k, p) for p in pages for k in keys],
    }


def _traced(service):
    """Every statement *service* runs from now on, on this thread."""
    executed = []
    service._pool.connection().set_trace_callback(executed.append)
    return executed


def _offset_pages(executed):
    return sum("OFFSET" in statement for statement in executed)


class TestContinuation:
    """A page continued from its unit's last key is the oracle's page."""

    @pytest.mark.parametrize("order", list(_orders("ioo")))
    @pytest.mark.parametrize("code", ["ioo", "iio", "ooo"])
    @pytest.mark.parametrize(
        "kind,decay",
        [("exact", None), ("search", None), ("search", 7)],
        ids=["exact", "search", "search-decay7"],
    )
    def test_access_orders_match_oracle(self, kind, decay, code, order):
        oracle, backend = _backends(kind, _TIED, chunk=2, decay=decay)
        try:
            _visit(oracle, backend, _orders(code)[order])
        finally:
            backend.close()

    @pytest.mark.parametrize("kind", ["exact", "search"])
    def test_in_order_pages_continue_without_offset(self, kind):
        oracle, backend = _backends(kind, _TIED, chunk=3)
        try:
            executed = _traced(backend)
            pattern = SIG.pattern("ioo")
            assert _drain(oracle, pattern, {0: "b"}) == _drain(
                backend, pattern, {0: "b"}
            )
            # Page 0 and the page past the end skip by OFFSET; every
            # page between continues from its predecessor's last key.
            assert len(executed) == 30 // 3 + 1
            assert _offset_pages(executed) == 2
        finally:
            backend.close()

    @settings(max_examples=30, deadline=None)
    @given(
        rows=_ROWS,
        kind=st.sampled_from(["exact", "search"]),
        chunk=st.integers(min_value=1, max_value=4),
        decay=st.sampled_from([None, 2, 5, 11]),
        visits=st.lists(
            st.tuples(
                st.sampled_from(["ioo", "iio", "ooo"]),
                st.sampled_from(["a", "b", 1]),
                st.integers(min_value=0, max_value=9),
            ),
            max_size=40,
        ),
    )
    def test_random_access_matches_oracle(
        self, rows, kind, chunk, decay, visits
    ):
        score = lambda row: float(hash(str(row[1])) % 3)  # noqa: E731
        oracle, backend = _backends(kind, rows, chunk, decay, score)
        try:
            _visit(oracle, backend, visits)
        finally:
            backend.close()

    @pytest.mark.parametrize("kind", ["exact", "search"])
    def test_eviction_past_the_bound(self, kind, monkeypatch):
        monkeypatch.setattr(CAPACITY, 2)
        oracle, backend = _backends(kind, _TIED, chunk=2)
        try:
            executed = _traced(backend)
            visits = _orders("ioo")["interleaved"]
            _visit(oracle, backend, visits * 2)
            assert len(backend._continuations) == 2
            # Three units interleaved through two records: a page whose
            # record was evicted falls back to OFFSET.
            assert _offset_pages(executed) > 2 * 3
        finally:
            backend.close()
        assert not backend._continuations  # close drops the map

    def test_null_score_falls_back_to_offset(self):
        # SQLite stores NaN as NULL, which ``score <= ?`` would skip.
        def score(row):
            return float("nan") if row[1] == 0 else float(row[1])

        pattern = SIG.pattern("ioo")
        paged = SQLiteSearchService(
            SIG, search_profile(chunk_size=3, response_time=1.0), _TIED, score
        )
        whole = SQLiteSearchService(
            SIG, search_profile(chunk_size=1000, response_time=1.0),
            _TIED, score,
        )
        try:
            executed = _traced(paged)
            pages = _drain(paged, pattern, {0: "a"})
            assert all("OFFSET" in statement for statement in executed)
            ranking = whole.invoke(pattern, {0: "a"}).tuples
            assert len(ranking) == 30  # NULL-scored rows are not skipped
            assert [t for tuples, _, _ in pages for t in tuples] == list(
                ranking
            )
        finally:
            paged.close()
            whole.close()

    @pytest.mark.parametrize("kind", ["exact", "search"])
    def test_every_statement_is_an_index_search(self, kind):
        """``EXPLAIN QUERY PLAN``: each prepared statement walks its
        pattern's index (or, exact and input-free, the primary key) and
        never sorts; a continuation is a range of it, not a filter."""
        _, backend = _backends(kind, _TIED, chunk=2)
        try:
            connection = backend._pool.connection()
            for pattern in SIG.patterns:
                keyless = kind == "exact" and not pattern.input_positions
                index = f"USING INDEX {SIG.name}_{pattern.code} "
                statements = backend._statements[pattern.code]
                for name, sql in statements._asdict().items():
                    plan = [
                        row[3]
                        for row in connection.execute(
                            f"EXPLAIN QUERY PLAN {sql}",
                            [None] * sql.count("?"),
                        )
                    ]
                    where = (kind, pattern.code, name, plan)
                    assert len(plan) == 1, where
                    assert "TEMP B-TREE" not in plan[0], where
                    if keyless:
                        assert "INDEX" not in plan[0], where
                    else:
                        assert index in plan[0] + " ", where
                    if name == "resume":
                        assert plan[0].startswith("SEARCH rows"), where
                        key = r"(pos|rowid)>\?" if kind == "exact" else r"score<\?"
                        assert re.search(key, plan[0]), where
        finally:
            backend.close()


def _plan_rows(registry, mode, lazy=True, k=12):
    from repro.costs.time_cost import ExecutionTimeMetric
    from repro.optimizer.optimizer import Optimizer, OptimizerConfig

    query = experts_query()
    best = Optimizer(
        registry, ExecutionTimeMetric(), OptimizerConfig(k=k)
    ).optimize(query)
    engine = (
        ExecutionEngine(registry, mode=mode)
        if lazy
        else eager_streamed_engine(registry)
    )
    result = engine.execute(best.plan, head=query.head, k=k)
    return [
        (dict(row.bindings), tuple(rank for _, rank in row.ranks))
        for row in result.rows
    ]


class TestPlanLevelBitIdentity:
    """biblio on sqlite == biblio on memory, through whole plans."""

    CORPUS = None  # built once per class (generate_corpus is pure)

    @classmethod
    def corpus(cls):
        if cls.CORPUS is None:
            cls.CORPUS = generate_corpus(400, seed=3)
        return cls.CORPUS

    @pytest.mark.parametrize(
        "mode,lazy",
        [
            (ExecutionMode.PARALLEL, True),
            (ExecutionMode.STREAMED, True),
            (ExecutionMode.STREAMED, False),
        ],
        ids=["parallel", "streamed-lazy", "streamed-eager"],
    )
    def test_backends_agree(self, mode, lazy):
        corpus = self.corpus()
        memory = _plan_rows(
            biblio_registry(backend="memory", corpus=corpus), mode, lazy
        )
        sqlite_ = _plan_rows(
            biblio_registry(backend="sqlite", corpus=corpus), mode, lazy
        )
        assert memory == sqlite_
        assert memory  # the planted ground truth produces answers

    @pytest.mark.concurrency
    def test_client_threads_share_one_sqlite_backed_service(self):
        """Two client threads submit to one service over SQLite
        backends: each invokes them on its own pooled connection, and
        every answer equals the memory backend's."""
        corpus = self.corpus()

        def answer(service):
            response = service.submit(experts_query(), k=12)
            return response.rows, response.rank_keys

        expected = answer(
            QueryService(registry=biblio_registry(backend="memory", corpus=corpus))
        )
        assert expected[0]
        registry = biblio_registry(backend="sqlite", corpus=corpus)
        # A private cache per session: both threads reach the backends.
        service = QueryService(registry=registry, share_service_cache=False)
        barrier = threading.Barrier(2)
        answers, errors = [], []

        def client():
            try:
                barrier.wait(timeout=10)
                for _ in range(3):
                    answers.append(answer(service))
            except Exception as error:  # surfaced on the main thread
                errors.append(error)

        threads = [threading.Thread(target=client) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not errors
        assert answers == [expected] * 6
        for name in registry.names:
            # The anchor opened at load, plus one per client thread.
            assert len(registry.service(name)._pool._connections) == 3, name
            registry.service(name).close()


@pytest.mark.skipif(not fts5_available(), reason="sqlite3 lacks FTS5")
class TestFTS5:
    SIG = signature("pub", ["Keyword", "Paper", "Title", "Year"], ["iooo"])

    def _docs(self, n=37):
        return [
            (
                f"P{i:03d}",
                f"ranking {'query optimization ' * (i % 3)}paper number {i}",
                2000 + i % 9,
            )
            for i in range(n)
        ]

    def _service(self, chunk=4, decay=None, docs=None):
        return FTS5SearchService(
            self.SIG,
            search_profile(chunk_size=chunk, response_time=1.0, decay=decay),
            self._docs() if docs is None else docs,
            query_position=0,
            text_of=lambda document: str(document[1]),
        )

    def test_paged_equals_eager_and_ranks_monotone(self):
        service = self._service(chunk=4)
        try:
            pattern = self.SIG.pattern("iooo")
            paged, page = [], 0
            while True:
                result = service.invoke(pattern, {0: "optimization"}, page)
                assert list(result.ranks) == list(
                    range(page * 4, page * 4 + len(result.tuples))
                )
                paged.extend(result.tuples)
                if not result.has_more:
                    break
                page += 1
            # One eager drain with a huge chunk sees the same ranking.
            eager = self._service(chunk=1000)
            try:
                whole = eager.invoke(pattern, {0: "optimization"})
                assert list(whole.tuples) == paged
            finally:
                eager.close()
            assert all(t[0] == "optimization" and len(t) == 4 for t in paged)
        finally:
            service.close()

    def test_decay_truncates(self):
        service = self._service(chunk=4, decay=6)
        try:
            pattern = self.SIG.pattern("iooo")
            first = service.invoke(pattern, {0: "paper"}, 0)
            second = service.invoke(pattern, {0: "paper"}, 1)
            beyond = service.invoke(pattern, {0: "paper"}, 2)
            assert len(first) == 4 and first.has_more
            assert len(second) == 2 and not second.has_more
            assert beyond.tuples == () and not beyond.has_more
        finally:
            service.close()

    def test_match_query_is_sanitized(self):
        assert FTS5SearchService.match_query("query optimization") == (
            '"query" "optimization"'
        )
        assert FTS5SearchService.match_query('a"b AND c') == '"a""b" "AND" "c"'
        assert FTS5SearchService.match_query("   ") == '""'
        service = self._service()
        try:
            pattern = self.SIG.pattern("iooo")
            # FTS5 operators arrive as literal tokens, not syntax.
            result = service.invoke(pattern, {0: "paper NEAR nothing)"}, 0)
            assert result.tuples == ()
            assert service.invoke(pattern, {0: "zzz-no-hit"}, 0).tuples == ()
        finally:
            service.close()

    def test_rejects_multi_input_patterns(self):
        bad = signature("pub", ["Keyword", "Paper", "Title", "Year"], ["iioo"])
        with pytest.raises(InvocationError, match="must bind exactly"):
            FTS5SearchService(
                bad, search_profile(chunk_size=2, response_time=1.0), [],
            )

    def test_document_arity_checked(self):
        with pytest.raises(InvocationError, match="fields"):
            self._service(docs=[("only", "two")])

    def test_len(self):
        service = self._service()
        try:
            assert len(service) == 37
        finally:
            service.close()


class TestPersistence:
    def test_exact_roundtrip(self, tmp_path):
        rows = [("a", i, float(i)) for i in range(25)]
        profile = exact_profile(erspi=2.0, response_time=1.0, chunk_size=4)
        path = tmp_path / "rel.db"
        built = SQLiteExactService(SIG, profile, rows, path=path)
        built.close()
        oracle = TableExactService(SIG, profile, rows)
        attached = SQLiteExactService(SIG, profile, None, path=path)
        try:
            pattern = SIG.pattern("ioo")
            assert _drain(oracle, pattern, {0: "a"}) == _drain(
                attached, pattern, {0: "a"}
            )
        finally:
            attached.close()

    def test_search_attach_reuses_materialized_scores(self, tmp_path):
        rows = [("a", i % 4, float(i)) for i in range(30)]
        score = lambda row: float(row[1])  # noqa: E731
        profile = search_profile(chunk_size=3, response_time=1.0, decay=11)
        path = tmp_path / "search.db"
        SQLiteSearchService(SIG, profile, rows, score, path=path).close()
        oracle = TableSearchService(SIG, profile, rows, score)
        attached = SQLiteSearchService(SIG, profile, None, None, path=path)
        try:
            pattern = SIG.pattern("ioo")
            assert _drain(oracle, pattern, {0: "a"}) == _drain(
                attached, pattern, {0: "a"}
            )
        finally:
            attached.close()

    def test_attach_missing_database_rejected(self, tmp_path):
        with pytest.raises(InvocationError, match="cannot attach"):
            SQLiteExactService(
                SIG, exact_profile(erspi=1.0, response_time=1.0),
                None, path=tmp_path / "absent.db",
            )

    def test_attach_unknown_schema_version_rejected(self, tmp_path):
        path = tmp_path / "weird.db"
        with sqlite3.connect(path) as connection:
            connection.execute("CREATE TABLE rows (pos INTEGER PRIMARY KEY, c0)")
            connection.execute("PRAGMA user_version=99")
        with pytest.raises(InvocationError, match="schema version"):
            SQLiteExactService(
                signature("rel", ["K"], ["i"]),
                exact_profile(erspi=1.0, response_time=1.0), None, path=path,
            )


class TestThreadSafety:
    @pytest.mark.parametrize("capacity", [None, 3], ids=["bound", "evicting"])
    def test_concurrent_invocations_match_oracle(self, capacity, monkeypatch):
        """Eight threads walk deep pages of two units, each in its own
        order, racing on the continuation map's stores (and, at a bound
        of 3, its evictions)."""
        if capacity is not None:
            monkeypatch.setattr(CAPACITY, capacity)
        rows = [(k, i % 5, float(i)) for i in range(200) for k in "ab"]
        score = lambda row: float(row[1])  # noqa: E731
        profile = search_profile(chunk_size=4, response_time=1.0, decay=120)
        oracle = TableSearchService(SIG, profile, rows, score)
        backend = SQLiteSearchService(SIG, profile, rows, score)
        pattern = SIG.pattern("ioo")
        expected = {
            (key, page): oracle.invoke(pattern, {0: key}, page)
            for key in "ab" for page in range(32)
        }
        errors = []

        def hammer(seed):
            visits = list(expected.items())
            try:
                for round_ in range(6):
                    if round_ % 2:
                        random.Random(seed * 8 + round_).shuffle(visits)
                    else:
                        visits.sort()  # in order: continuations hit
                    for (key, page), want in visits:
                        got = backend.invoke(pattern, {0: key}, page)
                        assert got.tuples == want.tuples
                        assert got.ranks == want.ranks
                        assert got.has_more == want.has_more
            except Exception as error:  # surfaced on the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=hammer, args=(seed,))
                for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            backend.close()
        assert not errors

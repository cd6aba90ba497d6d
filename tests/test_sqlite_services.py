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
  through full plan executions under PARALLEL, STREAMED (lazy and
  eager), and the thread-pool :class:`ParallelExecutor`.
* **FTS5 internal consistency**: no Python BM25 oracle exists, so the
  full-text service is held to rank-monotone paging — paged output
  equals an eager drain, rank indexes are the gap-free global
  sequence, the decay bound truncates — plus match-query
  sanitization (user values cannot inject FTS5 syntax).
* **Persistence**: a database built on disk and re-attached by a
  fresh process-like service answers identically (search attach needs
  no score function: scores are materialized).
* **Thread-safety**: concurrent invocations from many threads against
  one service all equal the oracle.
"""

from __future__ import annotations

import sqlite3
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.engine import ExecutionEngine, ExecutionMode
from repro.execution.parallel import ParallelExecutor
from repro.model.schema import signature
from repro.services.base import InvocationError
from repro.services.profile import exact_profile, search_profile
from repro.services.sqlite import (
    FTS5SearchService,
    SQLiteExactService,
    SQLiteSearchService,
    fts5_available,
)
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


def _plan_rows(registry, mode, lazy=True, parallel_pool=False, k=12):
    from repro.costs.time_cost import ExecutionTimeMetric
    from repro.optimizer.optimizer import Optimizer, OptimizerConfig

    query = experts_query()
    best = Optimizer(
        registry, ExecutionTimeMetric(), OptimizerConfig(k=k)
    ).optimize(query)
    if parallel_pool:
        executor = ParallelExecutor(registry, workers=4)
        result = executor.execute(best.plan, head=query.head, k=k)
    else:
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
        "mode,lazy,pool",
        [
            (ExecutionMode.PARALLEL, True, False),
            (ExecutionMode.STREAMED, True, False),
            (ExecutionMode.STREAMED, False, False),
            (ExecutionMode.PARALLEL, True, True),
        ],
        ids=["parallel", "streamed-lazy", "streamed-eager", "thread-pool"],
    )
    def test_backends_agree(self, mode, lazy, pool):
        corpus = self.corpus()
        memory = _plan_rows(
            biblio_registry(backend="memory", corpus=corpus), mode, lazy, pool
        )
        sqlite_ = _plan_rows(
            biblio_registry(backend="sqlite", corpus=corpus), mode, lazy, pool
        )
        assert memory == sqlite_
        assert memory  # the planted ground truth produces answers


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
    def test_concurrent_invocations_match_oracle(self):
        rows = [(k, i % 5, float(i)) for i in range(60) for k in "ab"]
        score = lambda row: float(row[1])  # noqa: E731
        profile = search_profile(chunk_size=4, response_time=1.0, decay=30)
        oracle = TableSearchService(SIG, profile, rows, score)
        backend = SQLiteSearchService(SIG, profile, rows, score)
        pattern = SIG.pattern("ioo")
        expected = {
            (key, page): oracle.invoke(pattern, {0: key}, page)
            for key in "ab" for page in range(4)
        }
        errors = []

        def hammer():
            try:
                for _ in range(20):
                    for (key, page), want in expected.items():
                        got = backend.invoke(pattern, {0: key}, page)
                        assert got.tuples == want.tuples
                        assert got.ranks == want.ranks
            except Exception as error:  # surfaced on the main thread
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        backend.close()
        assert not errors

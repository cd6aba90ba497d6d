"""Persistent indexed service backends: SQLite B-trees and FTS5 BM25.

Every service so far has been an in-memory synthetic table
(:mod:`repro.services.table`): the right oracle, but nothing in the
repo ever exercised the lazy-cursor, caching, and resilience machinery
against a *real indexed store* or a dataset beyond toy scale.  This
module provides drop-in :class:`~repro.services.base.Service`
implementations backed by SQLite:

* :class:`SQLiteExactService` — an exact service over a ``rows(pos
  INTEGER PRIMARY KEY, c0, .., cn)`` table with one composite B-tree
  index per access pattern's input positions; matching is an index
  scan, paging is ``ORDER BY pos LIMIT .. OFFSET ..`` over the
  insertion order — exactly the storage order the in-memory
  :class:`~repro.services.table.TableExactService` pages through;
* :class:`SQLiteSearchService` — a search service whose opaque
  relevance score is materialized into a ``score REAL`` column at load
  time (the score function is a pure function of the stored tuple);
  each page is ``ORDER BY score DESC, pos LIMIT .. OFFSET ..`` driven
  by a ``(inputs.., score DESC, pos)`` composite index, reproducing
  the oracle's stable descending sort (ties broken by storage order)
  without ever materializing the full ranking in Python;
* :class:`FTS5SearchService` — a search service over an FTS5
  full-text index: the single input position is a MATCH query, pages
  come back ``ORDER BY rank, rowid`` (ascending BM25 ``rank`` is most
  relevant first, ties broken by insertion order), so the exposed
  global rank indexes ``page * chunk + offset`` are rank-monotone by
  construction — exactly what the streamed pipeline's cursor
  certificates require.

**Equivalence contract.**  Over the same rows, profile, and score
function, the SQLite-backed services are *bit-identical* to their
in-memory oracles — same tuples, same ranks, same ``has_more`` flags,
page by page — for values of SQLite-exact types (``str``, ``int``,
``float``; SQLite has no bool/None equality semantics matching
Python's, so relations using those stay on the in-memory backend).
``tests/test_sqlite_services.py`` enforces this differentially, at the
invocation level and through full plan executions under every engine
mode.  The FTS5 service has no Python scoring oracle (BM25 lives in
SQLite); its contract is *internal* consistency: paged output equals
the eagerly drained ranking, and rank indexes are the gap-free
0-based sequence the cursor guards certify.

**Concurrency.**  Every connection comes from a
:class:`ConnectionPool` (the one class in the repo that opens SQLite
connections; the plan cache's disk tier,
:class:`~repro.serving.sqlite_cache.SQLiteDiskTier`, is built on it
too): one connection per thread (sqlite3 connections must not be
shared mid-transaction), kept in a :class:`threading.local`, opened in
autocommit, registered centrally so :meth:`ConnectionPool.close` can
tear everything down; file-backed databases get ``journal_mode=WAL`` +
``synchronous=NORMAL`` + a busy timeout, in-memory databases are shared
between threads through a named ``cache=shared`` URI held open by an
anchor connection.
Invocations after load are pure reads, so any number of engine or
:class:`~repro.execution.parallel.ParallelExecutor` worker threads
can invoke one service concurrently.
"""

from __future__ import annotations

import itertools
import sqlite3
import threading
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from repro.model.schema import AccessPattern, ServiceSignature
from repro.services.base import InvocationError, Service
from repro.services.profile import ServiceProfile

#: Scores rows for search services (same contract as
#: :data:`repro.services.table.ScoreFunction`): maps a full-arity
#: tuple to a float, larger meaning more relevant.
ScoreFunction = Callable[[tuple], float]

#: ``PRAGMA user_version`` stamped on databases this module creates.
_SCHEMA_VERSION = 1

#: Distinguishes the shared in-memory databases of live service
#: instances within one process.
_memory_names = itertools.count()

#: How long a connection queues on SQLite's write lock before failing
#: with ``database is locked``.
BUSY_TIMEOUT_MS = 30_000


def fts5_available() -> bool:
    """Whether this build of sqlite3 can create FTS5 virtual tables."""
    try:
        with sqlite3.connect(":memory:") as connection:
            connection.execute(
                "CREATE VIRTUAL TABLE probe USING fts5(body)"
            )
        return True
    except sqlite3.OperationalError:
        return False


class ConnectionPool:
    """Per-thread SQLite connections over one database (file or memory).

    A ``threading.local`` holds each thread's lazily opened connection,
    a central registry list lets :meth:`close` shut every connection
    down, and all connections run in autocommit (``isolation_level=
    None``): each statement is its own transaction, so a write is
    atomic and never holds the write lock across Python code — which is
    also what lets N threads read one ``cache=shared`` in-memory
    database without tripping its table-level locks.  File databases
    run in ``journal_mode=WAL`` (readers never block the single writer
    and vice versa) with ``synchronous=NORMAL`` (fsync on WAL
    checkpoints instead of every commit) and queue on the write lock
    for :data:`BUSY_TIMEOUT_MS`.
    """

    def __init__(self, path: Path | str | None) -> None:
        self._local = threading.local()
        self._connections: list[sqlite3.Connection] = []
        self._registry_lock = threading.Lock()
        self._anchor: sqlite3.Connection | None = None
        if path is None:
            # A process-unique shared-cache memory database: every
            # thread's connection sees the same data, and the anchor
            # connection keeps the database alive between invocations.
            self._uri = (
                f"file:repro-service-{next(_memory_names)}"
                "?mode=memory&cache=shared"
            )
            self._is_memory = True
            self._anchor = self.connection()
        else:
            self.path = Path(path)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._uri = None
            self._is_memory = False

    @property
    def is_memory(self) -> bool:
        """True for in-memory (``cache=shared``) databases."""
        return self._is_memory

    def connection(self) -> sqlite3.Connection:
        """This thread's connection, opened (and pragma'd) on demand."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            return connection
        if self._is_memory:
            connection = sqlite3.connect(
                self._uri, uri=True, isolation_level=None,
                check_same_thread=False,
            )
        else:
            connection = sqlite3.connect(
                self.path,
                timeout=BUSY_TIMEOUT_MS / 1000.0,
                isolation_level=None,
                check_same_thread=False,  # used per-thread; closed centrally
            )
            try:
                connection.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
                connection.execute("PRAGMA journal_mode=WAL")
                connection.execute("PRAGMA synchronous=NORMAL")
            except BaseException:
                connection.close()
                raise
        self._local.connection = connection
        with self._registry_lock:
            self._connections.append(connection)
        return connection

    def close(self) -> None:
        """Close every connection ever opened (checkpointing WAL files)."""
        if not self._is_memory:
            try:
                self.connection().execute("PRAGMA wal_checkpoint(TRUNCATE)")
            except sqlite3.Error:
                pass
        self._local.connection = None
        self._anchor = None
        with self._registry_lock:
            for connection in self._connections:
                try:
                    connection.close()
                except sqlite3.Error:
                    pass
            self._connections.clear()


def _quote(identifier: str) -> str:
    """SQL-quote an identifier (service names feed index names)."""
    return '"' + identifier.replace('"', '""') + '"'


class SQLiteTableService(Service):
    """Common machinery of the indexed relational backends.

    The relation lives in a ``rows`` table whose ``pos INTEGER PRIMARY
    KEY`` is the 0-based insertion order — the same storage order the
    in-memory services iterate — and whose value columns ``c0..cn``
    are declared *without* a type affinity, so ``str``/``int``/
    ``float`` values round-trip exactly.  One composite B-tree index
    per feasible access pattern covers that pattern's input positions
    (subclasses may extend the index with ordering columns), so every
    invocation is an index scan, not a table scan.

    ``rows=None`` attaches to an existing database at *path* (the
    persistence path: build once, reopen across processes); otherwise
    the rows are loaded in one transaction and any previous content
    replaced.
    """

    def __init__(
        self,
        signature: ServiceSignature,
        profile: ServiceProfile,
        rows: Iterable[Sequence] | None,
        path: Path | str | None = None,
        remote_caching: bool = False,
        pattern_profiles: Mapping[str, ServiceProfile] | None = None,
    ) -> None:
        super().__init__(
            signature,
            profile,
            remote_caching=remote_caching,
            pattern_profiles=pattern_profiles,
        )
        if rows is None and path is None:
            raise InvocationError(
                f"service {signature.name!r}: rows are required unless "
                "attaching to an existing database file"
            )
        self._pool = ConnectionPool(path)
        self._columns = [f"c{i}" for i in range(signature.arity)]
        self._select_list = ", ".join(self._columns)
        connection = self._pool.connection()
        if rows is not None:
            self._create_schema(connection)
            self._load(connection, rows)
        else:
            self._check_attached(connection)

    # -- schema and loading ----------------------------------------------

    def _value_columns(self) -> list[str]:
        """Declared value columns beyond ``pos`` (hook for subclasses)."""
        return list(self._columns)

    def _order_columns(self) -> list[str]:
        """Index suffix ordering the pattern scans (hook for subclasses)."""
        return ["pos"]

    def _create_schema(self, connection: sqlite3.Connection) -> None:
        connection.execute("DROP TABLE IF EXISTS rows")
        declared = ", ".join(self._value_columns())
        connection.execute(
            f"CREATE TABLE rows (pos INTEGER PRIMARY KEY, {declared})"
        )
        for pattern in self.signature.patterns:
            positions = pattern.input_positions
            if not positions:
                continue  # pos is the primary key: full scans need no index
            index_columns = [f"c{k}" for k in positions]
            index_columns += [
                column
                for column in self._order_columns()
                if column.split()[0] not in index_columns
            ]
            connection.execute(
                f"CREATE INDEX IF NOT EXISTS "
                f"{_quote(f'{self.name}_{pattern.code}')} "
                f"ON rows ({', '.join(index_columns)})"
            )
        connection.execute(f"PRAGMA user_version={_SCHEMA_VERSION}")

    def _row_values(self, position: int, row: tuple) -> tuple:
        """The stored column values of one relation row (hook)."""
        return (position, *row)

    def _load(
        self, connection: sqlite3.Connection, rows: Iterable[Sequence]
    ) -> None:
        arity = self.signature.arity
        placeholders = ", ".join("?" for _ in range(len(self._value_columns()) + 1))
        payload = []
        for position, row in enumerate(rows):
            materialized = tuple(row)
            if len(materialized) != arity:
                raise InvocationError(
                    f"row {materialized!r} has {len(materialized)} fields, "
                    f"but service {self.name!r} has arity {arity}"
                )
            payload.append(self._row_values(position, materialized))
        connection.execute("BEGIN IMMEDIATE")
        try:
            connection.executemany(
                f"INSERT INTO rows VALUES ({placeholders})", payload
            )
            connection.execute("COMMIT")
        except BaseException:
            connection.execute("ROLLBACK")
            raise

    def _check_attached(self, connection: sqlite3.Connection) -> None:
        try:
            version = connection.execute("PRAGMA user_version").fetchone()[0]
            connection.execute("SELECT pos FROM rows LIMIT 1").fetchone()
        except sqlite3.Error as error:
            raise InvocationError(
                f"service {self.name!r}: cannot attach to database "
                f"({error})"
            ) from error
        if version != _SCHEMA_VERSION:
            raise InvocationError(
                f"service {self.name!r}: unknown schema version {version}"
            )

    # -- introspection ----------------------------------------------------

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The full relation in storage order (tests and profiling)."""
        return tuple(
            self._pool.connection().execute(
                f"SELECT {self._select_list} FROM rows ORDER BY pos"
            )
        )

    def __len__(self) -> int:
        return self._pool.connection().execute(
            "SELECT COUNT(*) FROM rows"
        ).fetchone()[0]

    def close(self) -> None:
        """Release every database connection this service opened."""
        self._pool.close()

    # -- querying ---------------------------------------------------------

    def _where(
        self, pattern: AccessPattern, inputs: Mapping[int, object]
    ) -> tuple[str, list]:
        positions = pattern.input_positions
        if not positions:
            return "", []
        clause = " AND ".join(f"c{k} = ?" for k in positions)
        return f"WHERE {clause}", [inputs[k] for k in positions]

    def _page_window(self, page: int, cap: int | None) -> tuple[int, int] | None:
        """``(limit, offset)`` of one page; None when past the cap.

        Fetches ``chunk + 1`` rows so ``has_more`` needs no second
        query (a row beyond the page proves more exist), clamped at the
        *cap* (a search service's decay bound): beyond it the ranking
        is below interest and the oracle truncates, so the backend must
        neither return row ``cap`` nor report more after ``cap - 1``.
        """
        chunk = self.profile.chunk_size
        assert chunk is not None
        start = page * chunk
        limit = chunk + 1
        if cap is not None:
            if start >= cap:
                return None
            limit = min(limit, cap - start)
        return limit, start


class SQLiteExactService(SQLiteTableService):
    """An exact service over an indexed SQLite relation.

    Bit-identical to :class:`~repro.services.table.TableExactService`
    over the same rows: matches are the rows whose input positions
    equal the bound values, in storage (``pos``) order, paged by the
    profile's chunk size.
    """

    def _compute(
        self,
        pattern: AccessPattern,
        inputs: Mapping[int, object],
        page: int,
    ) -> tuple[list[tuple], list[int], bool]:
        where, parameters = self._where(pattern, inputs)
        connection = self._pool.connection()
        if self.profile.chunk_size is None:
            selected = list(
                connection.execute(
                    f"SELECT {self._select_list} FROM rows {where} "
                    "ORDER BY pos",
                    parameters,
                )
            )
            return selected, [], False
        window = self._page_window(page, cap=None)
        assert window is not None  # no cap: every page has a window
        limit, offset = window
        fetched = list(
            connection.execute(
                f"SELECT {self._select_list} FROM rows {where} "
                "ORDER BY pos LIMIT ? OFFSET ?",
                [*parameters, limit, offset],
            )
        )
        chunk = self.profile.chunk_size
        return fetched[:chunk], [], len(fetched) > chunk


class SQLiteSearchService(SQLiteTableService):
    """A search service ranked by a materialized score column.

    The relevance score — opaque to callers, as in the paper — is
    computed once per row at load time and stored in a ``score REAL``
    column; each access pattern's composite index ends in ``(score
    DESC, pos)`` so a page is one forward index scan.  Output is
    bit-identical to :class:`~repro.services.table.TableSearchService`
    with the same score function: decreasing relevance, ties broken by
    storage order (Python's stable descending sort), truncated at the
    decay bound, with global rank indexes ``page * chunk + offset``.

    Attach mode (``rows=None``) reuses the scores stored in the file,
    so reopening does not need the score function; pass ``score=None``
    explicitly in that case.
    """

    def __init__(
        self,
        signature: ServiceSignature,
        profile: ServiceProfile,
        rows: Iterable[Sequence] | None,
        score: ScoreFunction | None,
        path: Path | str | None = None,
        remote_caching: bool = False,
        pattern_profiles: Mapping[str, ServiceProfile] | None = None,
    ) -> None:
        if not profile.is_search:
            raise InvocationError(
                f"SQLiteSearchService requires a search profile for "
                f"{signature.name!r}"
            )
        if rows is not None and score is None:
            raise InvocationError(
                f"service {signature.name!r}: a score function is "
                "required to load rows"
            )
        self._score = score
        super().__init__(
            signature,
            profile,
            rows,
            path=path,
            remote_caching=remote_caching,
            pattern_profiles=pattern_profiles,
        )

    def _value_columns(self) -> list[str]:
        return [*self._columns, "score REAL"]

    def _order_columns(self) -> list[str]:
        return ["score DESC", "pos"]

    def _row_values(self, position: int, row: tuple) -> tuple:
        assert self._score is not None
        return (position, *row, float(self._score(row)))

    def _compute(
        self,
        pattern: AccessPattern,
        inputs: Mapping[int, object],
        page: int,
    ) -> tuple[list[tuple], list[int], bool]:
        chunk = self.profile.chunk_size
        assert chunk is not None  # search profiles are always chunked
        window = self._page_window(page, cap=self.profile.decay)
        if window is None:
            return [], [], False
        limit, offset = window
        where, parameters = self._where(pattern, inputs)
        fetched = list(
            self._pool.connection().execute(
                f"SELECT {self._select_list} FROM rows {where} "
                "ORDER BY score DESC, pos LIMIT ? OFFSET ?",
                [*parameters, limit, offset],
            )
        )
        selected = fetched[:chunk]
        first_rank = page * chunk
        ranks = list(range(first_rank, first_rank + len(selected)))
        return selected, ranks, len(fetched) > chunk


class FTS5SearchService(Service):
    """A search service over an FTS5 full-text index (BM25 ranking).

    The signature's single input position is the *query column*: the
    bound value is matched against the indexed document text, and the
    output tuples are the stored document columns with the query value
    re-inserted at the query position — the same shape a
    ``pubsearch(Keyword, Paper, Title, Year)``-style search service
    exposes.  Documents are the full-arity tuples *minus* the query
    column, given in storage order; ``text_of`` renders the text that
    gets indexed (default: every ``str`` field of the document, space
    joined).

    Pages come back ``ORDER BY rank, rowid`` — FTS5's ``rank`` is the
    BM25 score (more negative = more relevant), so ascending order is
    decreasing relevance with ties broken by insertion order — and the
    exposed rank indexes are the gap-free global sequence ``page *
    chunk + offset``.  Both are fixed for a given (keyword, corpus),
    which makes the paging rank-monotone: exactly the property the
    lazy cursors' certificates need, and what
    ``tests/test_sqlite_services.py`` certifies against an eager full
    drain.

    Match queries are *token-quoted*: the query value is split on
    whitespace and each token double-quoted, so user values can never
    inject FTS5 query syntax (``AND``, ``NEAR``, column filters);
    multiple tokens combine as FTS5's implicit conjunction.
    """

    def __init__(
        self,
        signature: ServiceSignature,
        profile: ServiceProfile,
        documents: Iterable[Sequence],
        query_position: int = 0,
        text_of: Callable[[tuple], str] | None = None,
        path: Path | str | None = None,
        remote_caching: bool = False,
        pattern_profiles: Mapping[str, ServiceProfile] | None = None,
    ) -> None:
        if not profile.is_search:
            raise InvocationError(
                f"FTS5SearchService requires a search profile for "
                f"{signature.name!r}"
            )
        if not fts5_available():  # pragma: no cover - env dependent
            raise InvocationError(
                "this sqlite3 build does not support FTS5"
            )
        super().__init__(
            signature,
            profile,
            remote_caching=remote_caching,
            pattern_profiles=pattern_profiles,
        )
        arity = signature.arity
        if not 0 <= query_position < arity:
            raise InvocationError(
                f"query position {query_position} outside arity {arity}"
            )
        for pattern in signature.patterns:
            if pattern.input_positions != (query_position,):
                raise InvocationError(
                    f"FTS5 pattern {pattern.code!r} must bind exactly "
                    f"the query position {query_position}"
                )
        self._query_position = query_position
        self._doc_arity = arity - 1
        self._doc_columns = [f"c{i}" for i in range(self._doc_arity)]
        self._select_list = ", ".join(self._doc_columns)
        self._pool = ConnectionPool(path)
        connection = self._pool.connection()
        unindexed = ", ".join(f"{c} UNINDEXED" for c in self._doc_columns)
        connection.execute("DROP TABLE IF EXISTS docs")
        connection.execute(
            f"CREATE VIRTUAL TABLE docs USING fts5(body, {unindexed})"
        )
        render = text_of if text_of is not None else self._default_text
        placeholders = ", ".join("?" for _ in range(self._doc_arity + 1))
        payload = []
        for document in documents:
            materialized = tuple(document)
            if len(materialized) != self._doc_arity:
                raise InvocationError(
                    f"document {materialized!r} has {len(materialized)} "
                    f"fields, but service {signature.name!r} stores "
                    f"{self._doc_arity} (arity minus the query column)"
                )
            payload.append((render(materialized), *materialized))
        connection.execute("BEGIN IMMEDIATE")
        try:
            connection.executemany(
                f"INSERT INTO docs VALUES ({placeholders})", payload
            )
            connection.execute("COMMIT")
        except BaseException:
            connection.execute("ROLLBACK")
            raise

    @staticmethod
    def _default_text(document: tuple) -> str:
        return " ".join(str(field) for field in document if isinstance(field, str))

    @staticmethod
    def match_query(value: object) -> str:
        """The sanitized FTS5 MATCH expression for one query value."""
        tokens = str(value).split()
        if not tokens:
            return '""'
        return " ".join('"' + token.replace('"', '""') + '"' for token in tokens)

    def close(self) -> None:
        """Release every database connection this service opened."""
        self._pool.close()

    def __len__(self) -> int:
        return self._pool.connection().execute(
            "SELECT COUNT(*) FROM docs"
        ).fetchone()[0]

    def _compute(
        self,
        pattern: AccessPattern,
        inputs: Mapping[int, object],
        page: int,
    ) -> tuple[list[tuple], list[int], bool]:
        chunk = self.profile.chunk_size
        assert chunk is not None  # search profiles are always chunked
        keyword = inputs[self._query_position]
        start = page * chunk
        limit = chunk + 1
        decay = self.profile.decay
        if decay is not None:
            if start >= decay:
                return [], [], False
            limit = min(limit, decay - start)
        fetched = list(
            self._pool.connection().execute(
                f"SELECT {self._select_list} FROM docs WHERE docs MATCH ? "
                "ORDER BY rank, rowid LIMIT ? OFFSET ?",
                (self.match_query(keyword), limit, start),
            )
        )
        position = self._query_position
        selected = [
            (*document[:position], keyword, *document[position:])
            for document in fetched[:chunk]
        ]
        ranks = list(range(start, start + len(selected)))
        return selected, ranks, len(fetched) > chunk


def sqlite_exact_service(
    signature: ServiceSignature,
    profile: ServiceProfile,
    rows: Iterable[Sequence] | None,
    path: Path | str | None = None,
    remote_caching: bool = False,
) -> SQLiteExactService:
    """Convenience constructor for :class:`SQLiteExactService`."""
    return SQLiteExactService(
        signature, profile, rows, path=path, remote_caching=remote_caching
    )


def sqlite_search_service(
    signature: ServiceSignature,
    profile: ServiceProfile,
    rows: Iterable[Sequence] | None,
    score: ScoreFunction | None,
    path: Path | str | None = None,
    remote_caching: bool = False,
) -> SQLiteSearchService:
    """Convenience constructor for :class:`SQLiteSearchService`."""
    return SQLiteSearchService(
        signature, profile, rows, score, path=path,
        remote_caching=remote_caching,
    )

"""The plan cache's disk tier: one SQLite table of plans (WAL mode).

N serving threads — or N processes pointed at the same path — read and
write plans concurrently.  Connections come from the
:class:`~repro.services.sqlite.ConnectionPool` the SQLite services use
(per-thread connections in autocommit, ``journal_mode=WAL``,
``synchronous=NORMAL``, the busy timeout, checkpoint-on-close); this
module owns what is specific to the plan cache: the ``plans`` schema and
its version stamp, the statements over it, and what happens to a file
that is not such a database.  ``synchronous=NORMAL`` is deliberate
here: a lost plan costs one re-optimization, never correctness, so
durability is traded for store latency.

The tier stores and reads back plain ``(spec_json, cost)`` rows: the
key embeds the rest (fingerprint, epoch, metric, optimization context).
A file of schema version 1, whose rows also held the metric and the
epoch, is discarded and recreated like any file of another version.

Before SQLite the tier was one JSON file rewritten per store.  Its keys
are not today's (every plan-cache key embeds the optimizer's config
token, whose bytes have changed since), so no row of such a file could
be looked up: a JSON file at the plan-cache path is a foreign file like
any other, discarded and recreated.
"""

from __future__ import annotations

from pathlib import Path

from repro.services.sqlite import ConnectionPool

#: ``PRAGMA user_version`` stamped on databases this tier creates.
_SCHEMA_VERSION = 2

#: One row per cached plan; the key embeds fingerprint + epoch +
#: optimization context (see ``repro.serving.fingerprint``), so
#: ``key`` alone is the primary key.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS plans (
    key    TEXT PRIMARY KEY,
    spec   TEXT NOT NULL,
    cost   REAL NOT NULL
) WITHOUT ROWID;
"""

class SQLiteDiskTier:
    """WAL-mode SQLite store of plan-cache entries, one row per key.

    Thread-safe by construction: every mutating statement is a single
    autocommit SQL statement, reads and writes go through the pool's
    per-thread connections, and cross-connection contention is absorbed
    by the busy timeout.  A corrupt or foreign file (or one stamped
    with an unknown schema version) is discarded and recreated empty —
    never let a bad cache file take the server down.
    """

    def __init__(self, path: Path | str) -> None:
        import sqlite3

        self.path = Path(path)
        try:
            self._pool = self._open()
        except sqlite3.DatabaseError:
            for suffix in ("", "-wal", "-shm"):
                try:
                    Path(f"{self.path}{suffix}").unlink()
                except OSError:
                    pass
            self._pool = self._open()

    def _open(self) -> ConnectionPool:
        """A pool over ``path``, its schema checked (created when new)."""
        import sqlite3

        pool = ConnectionPool(self.path)
        try:
            connection = pool.connection()
            version = connection.execute("PRAGMA user_version").fetchone()[0]
            if version not in (0, _SCHEMA_VERSION):
                raise sqlite3.DatabaseError(
                    f"unknown plan-cache schema version {version}"
                )
            connection.executescript(_SCHEMA)
            if version == 0:
                connection.execute(f"PRAGMA user_version={_SCHEMA_VERSION}")
        except BaseException:
            pool.close()
            raise
        return pool

    # -- the tier interface ----------------------------------------------

    def get(self, key: str) -> tuple[str, float] | None:
        """The ``(spec_json, cost)`` stored under *key*, or None: the
        key already embeds the metric and the epoch."""
        row = self._pool.connection().execute(
            "SELECT spec, cost FROM plans WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        return (row[0], float(row[1]))

    def put(self, key: str, spec_json: str, cost: float) -> None:
        """Insert or overwrite the row under *key* (one atomic statement)."""
        self._pool.connection().execute(
            "INSERT INTO plans(key, spec, cost) VALUES (?, ?, ?)"
            " ON CONFLICT(key) DO UPDATE SET"
            " spec=excluded.spec, cost=excluded.cost",
            (key, spec_json, cost),
        )

    def close(self) -> None:
        """Checkpoint the WAL and close every connection ever opened."""
        self._pool.close()

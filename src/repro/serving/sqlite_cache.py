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

The tier stores plain ``(spec_json, cost, metric, epoch)`` row tuples
and reads back ``(spec_json, cost)``: the key embeds the rest.

Before SQLite the tier was one JSON file rewritten per store.
:func:`read_json_tier` still reads that format — for
``python -m repro migrate-plan-cache`` (which feeds
:meth:`SQLiteDiskTier.seed`), and so that opening such a file as a
database raises :class:`PlanCacheFormatError` instead of discarding it.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.services.sqlite import ConnectionPool

#: ``PRAGMA user_version`` stamped on databases this tier creates.
_SCHEMA_VERSION = 1

#: One row per cached plan; the key embeds fingerprint + epoch +
#: optimization context (see ``repro.serving.fingerprint``), so
#: ``key`` alone is the primary key and ``epoch`` is denormalized
#: into the row a lookup returns.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS plans (
    key    TEXT PRIMARY KEY,
    spec   TEXT NOT NULL,
    cost   REAL NOT NULL,
    metric TEXT NOT NULL,
    epoch  TEXT NOT NULL
) WITHOUT ROWID;
"""

#: A plan-cache disk row: (spec_json, cost, metric, epoch).
PlanRow = tuple[str, float, str, str]


class PlanCacheFormatError(ValueError):
    """The plan-cache path holds a JSON-tier file, not a database."""


def read_json_tier(path: Path | str) -> dict[str, PlanRow] | None:
    """The rows of a JSON-tier file (``{"version": 1, "entries": {key:
    {"spec", "cost", "metric", "epoch"}}}``); None when *path* cannot
    be read as one.  Individually malformed entries are skipped."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("version") != 1:
        return None
    entries = payload.get("entries")
    if not isinstance(entries, dict):
        return None
    rows: dict[str, PlanRow] = {}
    for key, data in entries.items():
        try:
            rows[key] = (
                data["spec"], float(data["cost"]), data["metric"], data["epoch"]
            )
        except (KeyError, TypeError, ValueError):
            continue
    return rows


class SQLiteDiskTier:
    """WAL-mode SQLite store of plan-cache entries, one row per key.

    Thread-safe by construction: every mutating statement is a single
    autocommit SQL statement, reads and writes go through the pool's
    per-thread connections, and cross-connection contention is absorbed
    by the busy timeout.  A corrupt or foreign file (or one stamped
    with an unknown schema version) is discarded and recreated empty —
    never let a bad cache file take the server down — except a JSON-tier
    file, which holds plans worth migrating.
    """

    def __init__(self, path: Path | str) -> None:
        import sqlite3

        self.path = Path(path)
        try:
            self._pool = self._open()
        except sqlite3.DatabaseError:
            if read_json_tier(self.path) is not None:
                raise PlanCacheFormatError(
                    f"{self.path} is a JSON plan-cache file; import it with "
                    f"`python -m repro migrate-plan-cache {self.path} "
                    "NEW.sqlite` and point the plan cache at the new file"
                ) from None
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
        key already embeds the row's metric and epoch."""
        row = self._pool.connection().execute(
            "SELECT spec, cost FROM plans WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        return (row[0], float(row[1]))

    def put(self, key: str, spec_json: str, cost: float, metric: str,
            epoch: str) -> None:
        """Insert or overwrite the row under *key* (one atomic statement)."""
        self._pool.connection().execute(
            "INSERT INTO plans(key, spec, cost, metric, epoch)"
            " VALUES (?, ?, ?, ?, ?)"
            " ON CONFLICT(key) DO UPDATE SET"
            " spec=excluded.spec, cost=excluded.cost,"
            " metric=excluded.metric, epoch=excluded.epoch",
            (key, spec_json, cost, metric, epoch),
        )

    def seed(self, rows: dict[str, PlanRow]) -> int:
        """Import *rows* without overwriting existing keys; returns count.

        The migration path from a JSON-tier file: entries already in
        the database win (they may be newer than the file being
        imported), everything else is folded in within one
        transaction.
        """
        if not rows:
            return 0
        connection = self._pool.connection()
        before = len(self)
        connection.execute("BEGIN IMMEDIATE")
        try:
            connection.executemany(
                "INSERT OR IGNORE INTO plans(key, spec, cost, metric, epoch)"
                " VALUES (?, ?, ?, ?, ?)",
                [
                    (key, spec, cost, metric, epoch)
                    for key, (spec, cost, metric, epoch) in rows.items()
                ],
            )
            connection.execute("COMMIT")
        except BaseException:
            connection.execute("ROLLBACK")
            raise
        return len(self) - before

    def __len__(self) -> int:
        return self._pool.connection().execute(
            "SELECT COUNT(*) FROM plans"
        ).fetchone()[0]

    def close(self) -> None:
        """Checkpoint the WAL and close every connection ever opened."""
        self._pool.close()

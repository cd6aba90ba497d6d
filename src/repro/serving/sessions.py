"""Progressive sessions: suspended streams held between requests.

A submission answers with its top-k *and* leaves a continuation
behind: the :class:`~repro.execution.progressive.ProgressiveExecutor`
(holding the suspended :class:`~repro.execution.joins.TopKStream` — a
final join's or a pipe chain's — and its lazy service cursors) can
produce more answers without re-optimizing or re-executing.  The :class:`SessionManager` is the
server-side registry of those continuations.

Continuations pin cursor state (fetched pages, suspended walks), so
they cannot be kept forever; the manager bounds them two ways:

* **capacity** — at most ``capacity`` live sessions; creating one more
  evicts the least recently *touched* session first;
* **TTL** — a session untouched for longer than ``ttl`` seconds is
  expired lazily (on any create/get/sweep).

The registry is an ``OrderedDict`` kept in touch order (a touch moves
the session to the end), so both bounds work from the head: eviction
pops the first entry and expiry stops at the first live one — a submit
costs O(1) under the manager lock however many sessions are alive.
A session evicted, expired or released is dropped under the lock and
closed once the lock is released, so freeing its suspended walk
(cursors, candidates, records) holds up no other client's submit or
``more``.

Releases are deterministic: :meth:`Session.close` drops the executor
reference immediately (no finalizer involvement), so the suspended
stream, its cursors, and their fetched pages become collectable the
moment the session ends, and a closed session can never resume.  The
clock is injectable, so tests drive TTL expiry without sleeping.

**Thread safety.**  The manager's registry (the session dict, the id
counter, the lifecycle stats) is guarded by one internal lock, so
create/get/release/sweep can race freely across serving threads.  The
*continuation itself* is not shareable: a ``ProgressiveExecutor``
resume mutates cursor state, so each :class:`Session` carries its own
``lock`` and the serving layer holds it across a resume — two
``ask_for_more`` calls on the same session serialize, while resumes of
different sessions proceed in parallel.  A release that races with an
in-flight resume linearizes after it: the resume completes on its
local executor reference, and the session is gone afterwards.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.execution.progressive import ProgressiveExecutor
from repro.model.query import ConjunctiveQuery


class SessionError(KeyError):
    """Raised for unknown, expired, or released session ids."""


@dataclass
class SessionStats:
    """Lifecycle accounting across the manager's lifetime."""

    created: int = 0
    expired: int = 0
    evicted: int = 0
    released: int = 0

    def to_dict(self) -> dict:
        """JSON-serializable snapshot."""
        return asdict(self)


@dataclass
class Session:
    """One suspended progressive query with its continuation state."""

    session_id: str
    query: ConjunctiveQuery
    executor: ProgressiveExecutor | None
    touched_at: float
    delivered: int = 0
    #: The registry content epoch the session's plan was resolved
    #: under.  Resumed responses are stamped with *this* epoch, not the
    #: registry's current one: the continuation keeps executing the
    #: plan (and the suspended stream) of submit time, so a mid-session
    #: registry update must not relabel its answers as fresh.
    epoch: str = ""
    #: The query's fingerprint, computed once at submit time.
    fingerprint: str = ""
    #: Serializes resumes of this one continuation (see module doc).
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def close(self) -> None:
        """Release the continuation state (stream, cursors, cache refs)."""
        self.executor = None


@dataclass
class SessionManager:
    """Holds live sessions with TTL + capacity eviction."""

    capacity: int = 64
    ttl: float | None = 600.0
    clock: Callable[[], float] = time.monotonic
    stats: SessionStats = field(default_factory=SessionStats, init=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.ttl is not None and self.ttl <= 0:
            raise ValueError(f"ttl must be positive, got {self.ttl}")
        #: Live sessions, least recently touched first.
        self._sessions: OrderedDict[str, Session] = OrderedDict()
        self._counter = 0
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def create(
        self, query: ConjunctiveQuery, executor: ProgressiveExecutor,
        delivered: int = 0, epoch: str = "", fingerprint: str = "",
    ) -> Session:
        """Register a new session, evicting to stay within capacity."""
        self.sweep()
        evicted = []
        with self._lock:
            while len(self._sessions) >= self.capacity:
                evicted.append(self._sessions.popitem(last=False)[1])
                self.stats.evicted += 1
            self._counter += 1
            session = Session(
                session_id=f"s{self._counter:06d}",
                query=query,
                executor=executor,
                touched_at=self.clock(),
                delivered=delivered,
                epoch=epoch,
                fingerprint=fingerprint,
            )
            self._sessions[session.session_id] = session
            self.stats.created += 1
        for dropped in evicted:
            dropped.close()
        return session

    def get(self, session_id: str) -> Session:
        """The live session *session_id*, touched; raises when gone."""
        self.sweep()
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise SessionError(
                    f"session {session_id!r} is unknown, expired, or released"
                )
            session.touched_at = self.clock()
            self._sessions.move_to_end(session_id)
            return session

    def release(self, session_id: str) -> bool:
        """Explicitly close and drop a session; False when unknown."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is None:
                return False
            self.stats.released += 1
        session.close()
        return True

    def sweep(self) -> tuple[str, ...]:
        """Expire every session idle beyond the TTL; returns their ids."""
        if self.ttl is None:
            return ()
        expired = []
        with self._lock:
            deadline = self.clock() - self.ttl
            for session in self._sessions.values():
                if session.touched_at > deadline:
                    break  # touch order: everything behind is younger
                expired.append(session)
            for session in expired:
                del self._sessions[session.session_id]
            self.stats.expired += len(expired)
        for session in expired:
            session.close()
        return tuple(session.session_id for session in expired)

"""Logical caching of service calls (Section 5.1).

Three settings are modeled:

* **no cache** — every call is repeated;
* **one-call cache** — the engine remembers the *last* call to each
  service (its input parameter setting and the pages fetched for it),
  which suffices to avoid re-issuing an immediate "second call" with
  exactly the same input parameters: blocks of uniform tuples flow
  contiguously through the plan, so consecutive duplicates are common;
* **optimal cache** — the engine remembers parameter settings and
  results of *all* calls, so each service is invoked once per distinct
  input combination.

A cached entry is keyed by ``(service, input_key)`` and stores one
result per fetched page, because a chunked service is re-fetched page
by page for the same input setting.

**Admission control.**  Within one experiment the optimal cache's
unbounded growth is the point (each call happens once); a *serving*
process, though, keeps one logical cache alive across every tenant
and request, where unbounded growth is a leak.  :class:`OptimalCache`
therefore takes an optional ``capacity`` — a bound on the number of
cached pages, evicted least-recently-used first.  Eviction is *pure
cost*: a logical cache can only ever change how often the remote side
is called, never which tuples flow (the remote services are
deterministic per ``(input, page)``), so answers are identical under
any capacity — the regression suite pins this.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import OrderedDict
from contextlib import AbstractContextManager, contextmanager
from enum import Enum
from typing import Hashable, Iterator


class CacheSetting(Enum):
    """The three logical-cache settings of the paper."""

    NO_CACHE = "no-cache"
    ONE_CALL = "one-call"
    OPTIMAL = "optimal"


#: Identifies an input parameter setting: (pattern code, sorted input items).
InputKey = Hashable


class LogicalCache(ABC):
    """Per-execution cache of service invocation results."""

    @abstractmethod
    def lookup(self, service: str, input_key: InputKey, page: int) -> object | None:
        """Cached result for (service, input setting, page), or None."""

    @abstractmethod
    def store(
        self, service: str, input_key: InputKey, page: int, value: object
    ) -> None:
        """Record the result of an invocation."""

    @abstractmethod
    def clear(self) -> None:
        """Drop all cached entries."""


class NoCache(LogicalCache):
    """Every call is repeated: lookups always miss."""

    def lookup(self, service: str, input_key: InputKey, page: int) -> object | None:
        return None

    def store(
        self, service: str, input_key: InputKey, page: int, value: object
    ) -> None:
        return None

    def clear(self) -> None:
        return None


class OneCallCache(LogicalCache):
    """Remembers only the most recent input setting per service.

    All pages fetched for that setting stay available until a call with
    a different setting arrives, which evicts the entry.  This captures
    consecutive duplicate invocations, which occur frequently because
    tuples originating from a proliferative service are retrieved (and
    forwarded) contiguously in blocks.
    """

    def __init__(self) -> None:
        self._last_key: dict[str, InputKey] = {}
        self._pages: dict[str, dict[int, object]] = {}

    def lookup(self, service: str, input_key: InputKey, page: int) -> object | None:
        if self._last_key.get(service) != input_key:
            return None
        return self._pages.get(service, {}).get(page)

    def store(
        self, service: str, input_key: InputKey, page: int, value: object
    ) -> None:
        if self._last_key.get(service) != input_key:
            self._last_key[service] = input_key
            self._pages[service] = {}
        self._pages[service][page] = value

    def clear(self) -> None:
        self._last_key.clear()
        self._pages.clear()


class OptimalCache(LogicalCache):
    """Remembers every call: one invocation per distinct input and page.

    ``capacity`` bounds the number of cached *pages* (the admission
    control a long-lived serving process needs); ``None`` keeps the
    paper's unbounded behavior.  Eviction is least-recently-used:
    lookups refresh recency, stores evict the coldest entries once the
    bound is exceeded.  ``evictions`` counts entries dropped — a
    monitoring hook, not part of any equivalence contract.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self._capacity = capacity
        self._memo: OrderedDict[tuple[str, InputKey, int], object] = (
            OrderedDict()
        )
        self.evictions = 0

    @property
    def capacity(self) -> int | None:
        """The admission bound (None: unbounded)."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._memo)

    def lookup(self, service: str, input_key: InputKey, page: int) -> object | None:
        key = (service, input_key, page)
        value = self._memo.get(key)
        if value is not None and self._capacity is not None:
            self._memo.move_to_end(key)
        return value

    def store(
        self, service: str, input_key: InputKey, page: int, value: object
    ) -> None:
        key = (service, input_key, page)
        self._memo[key] = value
        if self._capacity is None:
            return
        self._memo.move_to_end(key)
        while len(self._memo) > self._capacity:
            self._memo.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._memo.clear()


class KeyedMutex:
    """One mutex per key, for as long as someone holds or awaits it.

    The table maps a key to ``[mutex, holders + waiters]``, counted
    under a guard; the last one out deletes the entry, so a stream of
    fresh keys leaves nothing behind (``len()`` is the number of keys
    in flight).  A thread that finds the entry gone starts a new one,
    which is safe because whoever held the old one has already
    finished what the mutex protected.
    """

    def __init__(self) -> None:
        self._guard = threading.Lock()
        self._entries: dict[Hashable, list] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @contextmanager
    def holding(self, key: Hashable) -> Iterator[None]:
        """Hold *key*'s mutex for the duration of the ``with`` block."""
        with self._guard:
            entry = self._entries.get(key)
            if entry is None:
                entry = self._entries[key] = [threading.Lock(), 0]
            entry[1] += 1
        try:
            with entry[0]:
                yield
        finally:
            with self._guard:
                entry[1] -= 1
                if not entry[1]:
                    del self._entries[key]


class ThreadSafeCache(LogicalCache):
    """Lock-guarded view over another :class:`LogicalCache`.

    Wraps every ``lookup``/``store``/``clear`` in one re-entrant lock,
    making the inner cache's bookkeeping (LRU reordering, eviction
    counters, one-call key swaps) safe under concurrent access by a
    :class:`~repro.execution.parallel.ParallelExecutor`'s workers.

    Guarding individual operations is not enough for *call counting*:
    two workers resolving the same input setting concurrently would
    both miss, both invoke the remote service, and double-count the
    call.  :meth:`key_lock` holds one mutex per ``(service,
    input_key)`` — a worker holds it across its whole lookup → invoke →
    store page loop, so each distinct input setting is resolved by
    exactly one worker at a time and call/hit counts match sequential
    execution.
    """

    def __init__(self, inner: LogicalCache) -> None:
        self._inner = inner
        self._lock = threading.RLock()
        self._key_mutex = KeyedMutex()

    @property
    def inner(self) -> LogicalCache:
        """The wrapped cache (for capacity/eviction introspection)."""
        return self._inner

    def lookup(self, service: str, input_key: InputKey, page: int) -> object | None:
        with self._lock:
            return self._inner.lookup(service, input_key, page)

    def store(
        self, service: str, input_key: InputKey, page: int, value: object
    ) -> None:
        with self._lock:
            self._inner.store(service, input_key, page, value)

    def clear(self) -> None:
        with self._lock:
            self._inner.clear()

    def key_lock(
        self, service: str, input_key: InputKey
    ) -> AbstractContextManager[None]:
        """``with cache.key_lock(service, input_key):`` — the
        single-flight mutex for one input parameter setting."""
        return self._key_mutex.holding((service, input_key))


def make_cache(
    setting: CacheSetting, capacity: int | None = None
) -> LogicalCache:
    """Instantiate the cache implementation for *setting*.

    ``capacity`` applies admission control to the optimal cache (see
    :class:`OptimalCache`); the no-cache and one-call settings are
    inherently bounded, so it is ignored there.
    """
    if setting is CacheSetting.NO_CACHE:
        return NoCache()
    if setting is CacheSetting.ONE_CALL:
        return OneCallCache()
    return OptimalCache(capacity=capacity)

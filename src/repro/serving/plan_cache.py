"""The two-tier persistent plan cache.

Optimized plans are pure functions of the plan-cache key (normalized
query fingerprint + registry content epoch + metric + ``k`` + cache
setting, see :mod:`repro.serving.fingerprint`), so they can be reused
across requests, sessions, and *processes*.  What persists is the
serializable :class:`~repro.plans.spec.PlanSpec` — the three optimizer
decisions (patterns, precedence, fetches) — plus the plan's estimated
cost.  What executes is the plan *compiled*: a memory entry also holds
the immutable :class:`~repro.execution.program.ExecutionProgram` of its
spec, which every session and thread of the key runs as is (a session
grows its own fetch vector, never the program) — a hit builds nothing.

Two tiers:

* **memory** — an LRU dict of :class:`CachedPlan` (parsed spec,
  program) bounded by ``capacity``; hits refresh recency, stores beyond
  capacity evict the least recently used entry, and the program goes
  with its entry;
* **disk** — an optional persistent store (``path``): a SQLite
  database (:mod:`repro.serving.sqlite_cache`; WAL mode, safe under
  many threads *and* many processes) holding every entry ever
  admitted, one row per key — whatever the path's suffix.  Lookups that
  miss memory fall through to disk and promote the entry back into the
  LRU tier, so a restarted server (or a sibling process pointed at the
  same path) starts warm; a promoted entry has no program until its
  first user compiles one (:meth:`PlanCache.attach`).

All cache state (LRU order, stats counters) is guarded by one
internal lock, so ``lookup`` and ``store`` are safe to call from any
number of serving threads; per-*key* single-flight (one optimizer run
per concurrent miss) is layered above this lock by
:meth:`repro.serving.service.QueryService._resolve_plan`.

Invalidation is by *construction*: the registry epoch is part of the
key, so entries recorded under drifted service profiles are simply
never addressed again.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.execution.program import ExecutionProgram
from repro.plans.spec import PlanSpec
from repro.serving.sqlite_cache import SQLiteDiskTier


@dataclass(frozen=True)
class CachedPlan:
    """One plan-cache hit: the decisions plus where they were found.

    ``program`` is the compiled plan shared by every user of the key;
    None on an entry nobody has compiled yet (a disk hit, or a store
    that brought none).  The metric and registry epoch the plan was
    optimized under are not kept: the key embeds both.
    """

    spec: PlanSpec
    cost: float
    tier: str  # "memory" | "disk"
    program: ExecutionProgram | None = None


@dataclass
class PlanCacheStats:
    """Hit/miss accounting across the cache's lifetime."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        """Lookups answered from either tier."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total lookups seen."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable snapshot."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class PlanCache:
    """LRU + optional-disk store of optimized plan specifications.

    ``capacity=0`` disables the memory tier entirely (every lookup
    misses unless a disk path is given) — the serving bench uses this
    as its no-plan-cache baseline.  ``path=None`` means no disk tier.
    See the module docstring for the thread-safety contract.
    """

    path: Path | str | None = None
    capacity: int = 128
    stats: PlanCacheStats = field(default_factory=PlanCacheStats, init=False)

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {self.capacity}")
        self.path = Path(self.path) if self.path is not None else None
        self._lock = threading.RLock()
        self._memory: OrderedDict[str, CachedPlan] = OrderedDict()
        self._tier = SQLiteDiskTier(self.path) if self.path is not None else None

    # -- lookup/store ----------------------------------------------------

    def lookup(self, key: str) -> CachedPlan | None:
        """The cached plan under *key*, or None; promotes disk hits."""
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                return entry
            if self._tier is not None:
                row = self._tier.get(key)
                if row is not None:
                    spec_json, cost = row
                    entry = CachedPlan(
                        PlanSpec.from_json(spec_json), cost, tier="memory"
                    )
                    self.stats.disk_hits += 1
                    self._admit(key, entry)
                    return replace(entry, tier="disk")
            self.stats.misses += 1
            return None

    def store(self, key: str, spec: PlanSpec, cost: float, metric: str,
              epoch: str, tenant: str | None = None,
              program: ExecutionProgram | None = None) -> None:
        """Record an optimized plan under *key* in both tiers.

        *program* (the plan compiled) stays with the memory entry.
        *metric*, *epoch* and *tenant* are unused (the key embeds the
        first two): they stay for the frozen bench, which passes them.
        """
        with self._lock:
            self.stats.stores += 1
            self._admit(key, CachedPlan(spec, cost, "memory", program))
            if self._tier is not None:
                self._tier.put(key, spec.to_json(), cost)

    def attach(self, key: str, program: ExecutionProgram) -> None:
        """Keep *program* with *key*'s memory entry, if it has one and
        the entry has none yet (the first user of a promoted disk row)."""
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None and entry.program is None:
                self._memory[key] = replace(entry, program=program)

    def _admit(self, key: str, entry: CachedPlan) -> None:
        if self.capacity == 0:
            return
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def close(self) -> None:
        """Release disk-tier resources (SQLite connections)."""
        with self._lock:
            if self._tier is not None:
                self._tier.close()

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
  with its entry (eviction, :meth:`PlanCache.prune`, :meth:`PlanCache.
  clear`);
* **disk** — an optional persistent store (``path``): a SQLite
  database (:mod:`repro.serving.sqlite_cache`; WAL mode, safe under
  many threads *and* many processes) holding every entry ever
  admitted, one row per key — whatever the path's suffix.  Lookups that
  miss memory fall through to disk and promote the entry back into the
  LRU tier, so a restarted server (or a sibling process pointed at the
  same path) starts warm; a promoted entry has no program until its
  first user compiles one (:meth:`PlanCache.attach`).  Epoch pruning is
  one SQL ``DELETE``.

All cache state (LRU order, stats counters, tenant quotas) is guarded
by one internal lock, so ``lookup``/``store``/``prune`` are safe to
call from any number of serving threads; per-*key* single-flight (one
optimizer run per concurrent miss) is layered above this lock by
:meth:`repro.serving.service.QueryService._resolve_plan`.

**Per-tenant admission quotas**: ``tenant_quota`` bounds how many
distinct keys any one tenant may admit through :meth:`PlanCache.store`
(callers tag stores with a tenant id — the serving layer uses the
registry epoch, i.e. one quota per registry content version).  A
rejected store is pure cost, never wrongness: the plan simply stays
uncached and the next submission re-optimizes.  Rejections are counted
in ``stats.quota_rejections``.  Quota accounting is per process — a
restart starts fresh, matching its purpose (protecting a shared store
from one runaway tenant flooding it within a serving lifetime).

Invalidation is by *construction*: the registry epoch is part of the
key, so entries recorded under drifted service profiles are simply
never addressed again.  :meth:`PlanCache.prune` removes them from the
disk tier when housekeeping is wanted.
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
    that brought none).
    """

    spec: PlanSpec
    cost: float
    metric: str
    epoch: str
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
    quota_rejections: int = 0

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
            "quota_rejections": self.quota_rejections,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class PlanCache:
    """LRU + optional-disk store of optimized plan specifications.

    ``capacity=0`` disables the memory tier entirely (every lookup
    misses unless a disk path is given) — the serving bench uses this
    as its no-plan-cache baseline.  ``path=None`` means no disk tier.
    See the module docstring for ``tenant_quota`` and the thread-safety
    contract.
    """

    path: Path | str | None = None
    capacity: int = 128
    tenant_quota: int | None = None
    stats: PlanCacheStats = field(default_factory=PlanCacheStats, init=False)

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {self.capacity}")
        if self.tenant_quota is not None and self.tenant_quota < 0:
            raise ValueError(
                f"tenant_quota must be >= 0 or None, got {self.tenant_quota}"
            )
        self.path = Path(self.path) if self.path is not None else None
        self._lock = threading.RLock()
        self._memory: OrderedDict[str, CachedPlan] = OrderedDict()
        self._tenant_keys: dict[str, set[str]] = {}
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
                    spec_json, cost, metric, epoch = row
                    entry = CachedPlan(
                        PlanSpec.from_json(spec_json), cost, metric, epoch,
                        tier="memory",
                    )
                    self.stats.disk_hits += 1
                    self._admit(key, entry)
                    return replace(entry, tier="disk")
            self.stats.misses += 1
            return None

    def store(self, key: str, spec: PlanSpec, cost: float, metric: str,
              epoch: str, tenant: str | None = None,
              program: ExecutionProgram | None = None) -> bool:
        """Record an optimized plan under *key* in both tiers.

        *program* (the plan compiled) stays with the memory entry.
        Returns False (and admits nothing, in either tier) when
        *tenant* has exhausted its ``tenant_quota`` of distinct keys —
        the caller's plan still executes, it just is not cached.
        """
        with self._lock:
            if not self._admit_tenant(tenant, key):
                self.stats.quota_rejections += 1
                return False
            self.stats.stores += 1
            self._admit(
                key, CachedPlan(spec, cost, metric, epoch, "memory", program)
            )
            if self._tier is not None:
                self._tier.put(key, spec.to_json(), cost, metric, epoch)
            return True

    def attach(self, key: str, program: ExecutionProgram) -> None:
        """Keep *program* with *key*'s memory entry, if it has one and
        the entry has none yet (the first user of a promoted disk row)."""
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None and entry.program is None:
                self._memory[key] = replace(entry, program=program)

    def _admit_tenant(self, tenant: str | None, key: str) -> bool:
        """Quota check: may *tenant* store (another) distinct key?"""
        if tenant is None or self.tenant_quota is None:
            return True
        keys = self._tenant_keys.setdefault(tenant, set())
        if key in keys:
            return True  # refreshing an admitted key is free
        if len(keys) >= self.tenant_quota:
            return False
        keys.add(key)
        return True

    def _admit(self, key: str, entry: CachedPlan) -> None:
        if self.capacity == 0:
            return
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    # -- housekeeping ----------------------------------------------------

    def prune(self, epoch: str) -> int:
        """Drop every entry not recorded under *epoch*; returns count.

        Purely housekeeping: stale entries are unreachable anyway
        because the epoch participates in the key.  On disk this is a
        single indexed ``DELETE``.
        """
        with self._lock:
            stale_memory = [
                key
                for key, entry in self._memory.items()
                if entry.epoch != epoch
            ]
            for key in stale_memory:
                del self._memory[key]
            stale_disk: tuple[str, ...] = ()
            if self._tier is not None:
                stale_disk = self._tier.prune(epoch)
            return len(stale_memory) + len(
                set(stale_disk) - set(stale_memory)
            )

    def clear(self) -> None:
        """Drop both tiers (and the persistent entries) and quotas."""
        with self._lock:
            self._memory.clear()
            self._tenant_keys.clear()
            if self._tier is not None:
                self._tier.clear()

    def close(self) -> None:
        """Release disk-tier resources (SQLite connections)."""
        with self._lock:
            if self._tier is not None:
                self._tier.close()

    @property
    def memory_entries(self) -> int:
        """Entries currently resident in the LRU tier."""
        with self._lock:
            return len(self._memory)

    @property
    def disk_entries(self) -> int:
        """Entries currently resident in the disk tier."""
        with self._lock:
            return len(self._tier) if self._tier is not None else 0

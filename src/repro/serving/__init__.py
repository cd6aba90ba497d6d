"""The multi-tenant query-serving layer.

Sits above the model/optimizer/execution layers and amortizes their
work across repeated traffic: a persistent two-tier plan cache keyed
by normalized query fingerprints and the registry's content epoch, a
logical service cache shared by every request, and progressive
sessions that resume suspended streams instead of re-executing.  See
``docs/ARCHITECTURE.md`` ("Serving layer") for the cache keys, the
invalidation rule, and the session lifecycle.
"""

from repro.serving.breaker import BreakerState, CircuitBreaker
from repro.serving.fingerprint import (
    canonical_query,
    optimizer_config_token,
    plan_cache_key,
    query_fingerprint,
)
from repro.serving.plan_cache import CachedPlan, PlanCache, PlanCacheStats
from repro.serving.service import QueryResponse, QueryService, ServingStats
from repro.serving.sqlite_cache import PlanCacheFormatError, SQLiteDiskTier
from repro.serving.sessions import (
    Session,
    SessionError,
    SessionManager,
    SessionStats,
)

__all__ = [
    "BreakerState",
    "CachedPlan",
    "CircuitBreaker",
    "PlanCache",
    "PlanCacheFormatError",
    "PlanCacheStats",
    "QueryResponse",
    "QueryService",
    "SQLiteDiskTier",
    "ServingStats",
    "Session",
    "SessionError",
    "SessionManager",
    "SessionStats",
    "canonical_query",
    "optimizer_config_token",
    "plan_cache_key",
    "query_fingerprint",
]

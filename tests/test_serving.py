"""The serving layer: plan cache, sessions, and the QueryService facade.

The heart of the suite is the differential contract of the ISSUE: for
random query templates and ``k`` budgets, a **plan-cache hit** (the
plan rebuilt from its stored spec, executed against the warm shared
service cache) must answer with rows, ranks, and order bit-identical
to a **cold optimize+execute** on a fresh service with empty caches;
and any profile perturbation must bump the registry epoch and force
re-optimization.

Ranks are compared by their *values* (per-service rank indexes and the
composed rank key), not by plan-node labels: node ids come from a
global counter, so two builds of the same plan label their nodes
differently while producing identical answers.
"""

from __future__ import annotations

import json
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plans.spec import PlanSpec
from repro.serving import (
    CachedPlan,
    PlanCache,
    PlanCacheFormatError,
    PlanCacheStats,
    QueryService,
    SessionError,
    SessionManager,
)
from repro.serving.fingerprint import plan_cache_key, query_fingerprint
from repro.serving.sqlite_cache import read_json_tier
from repro.sources.news import market_moving_news_query, news_registry
from repro.sources.weekend import mahler_weekend_query, weekend_registry


def _answer_signature(response):
    """Everything answer-identical responses must agree on."""
    return (
        response.columns,
        response.rows,
        response.rank_keys,
        tuple(
            tuple(rank for _, rank in row_ranks) for row_ranks in response.ranks
        ),
        response.complete,
    )


# -- PlanCache --------------------------------------------------------------


def _spec(codes=("io",), pairs=(), fetches=()) -> PlanSpec:
    return PlanSpec(
        pattern_codes=tuple(codes),
        precedence_pairs=tuple(pairs),
        fetches=tuple(fetches),
    )


class TestPlanCache:
    def test_memory_hit_roundtrip(self):
        cache = PlanCache()
        spec = _spec(("io", "oi"), ((0, 1),), ((1, 4),))
        cache.store("key", spec, 12.5, "time", "epoch")
        hit = cache.lookup("key")
        assert hit is not None
        assert hit.spec == spec
        assert hit.cost == 12.5
        assert hit.tier == "memory"
        assert cache.stats.memory_hits == 1

    def test_miss_is_counted(self):
        cache = PlanCache()
        assert cache.lookup("absent") is None
        assert cache.stats.misses == 1

    def test_lru_eviction_is_by_recency(self):
        cache = PlanCache(capacity=2)
        cache.store("a", _spec(), 1.0, "time", "e")
        cache.store("b", _spec(), 2.0, "time", "e")
        assert cache.lookup("a") is not None  # refresh a
        cache.store("c", _spec(), 3.0, "time", "e")  # evicts b
        assert cache.lookup("b") is None
        assert cache.lookup("a") is not None
        assert cache.lookup("c") is not None
        assert cache.stats.evictions == 1

    def test_capacity_zero_disables_the_memory_tier(self):
        cache = PlanCache(capacity=0)
        cache.store("a", _spec(), 1.0, "time", "e")
        assert cache.lookup("a") is None
        assert cache.memory_entries == 0

    @pytest.mark.parametrize("name", ["plans.sqlite", "plans.json", "plans"])
    def test_disk_tier_survives_a_new_cache_instance(self, tmp_path, name):
        path = tmp_path / name
        spec = _spec(("io",), (), ((0, 2),))
        writer = PlanCache(path=path)
        writer.store("key", spec, 7.0, "requests", "epoch")
        reader = PlanCache(path=path)
        hit = reader.lookup("key")
        assert hit is not None
        assert hit.tier == "disk"
        assert hit.spec == spec
        assert hit.metric == "requests"
        # Promotion: the second lookup is a memory hit.
        assert reader.lookup("key").tier == "memory"
        # Whatever the name, a new path is a SQLite database in WAL mode.
        connection = sqlite3.connect(path)
        assert connection.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert connection.execute("PRAGMA user_version").fetchone()[0] == 1
        connection.close()

    def test_corrupt_disk_file_is_ignored(self, tmp_path):
        path = tmp_path / "plans.sqlite"
        path.write_text("{not json, and certainly not a database")
        cache = PlanCache(path=path)
        assert cache.disk_entries == 0
        cache.store("key", _spec(), 1.0, "time", "e")
        assert PlanCache(path=path).lookup("key") is not None

    def test_prune_drops_stale_epochs(self, tmp_path):
        path = tmp_path / "plans.sqlite"
        cache = PlanCache(path=path)
        cache.store("old", _spec(), 1.0, "time", "epoch1")
        cache.store("new", _spec(), 2.0, "time", "epoch2")
        assert cache.prune("epoch2") == 1
        assert cache.lookup("old") is None
        assert cache.lookup("new") is not None
        assert PlanCache(path=path).disk_entries == 1


# -- SQLite disk tier -------------------------------------------------------


def _json_tier_payload(entries) -> str:
    """A file in the format the retired JSON disk tier wrote."""
    return json.dumps(
        {
            "version": 1,
            "entries": {
                key: {"spec": spec.to_json(), "cost": cost, "metric": metric,
                      "epoch": epoch}
                for key, (spec, cost, metric, epoch) in entries.items()
            },
        },
        sort_keys=True,
    )


class TestSQLiteTier:
    """The disk tier: sibling writers, the files it refuses or discards,
    and a seeded differential against a dict model (same CachedPlans,
    same stats, same prune counts)."""

    def test_sibling_instances_accumulate_without_clobbering(self, tmp_path):
        path = tmp_path / "plans.sqlite"
        # Both "processes" open the store before either writes.
        writer_a = PlanCache(path=path)
        writer_b = PlanCache(path=path)
        writer_a.store("k1", _spec(("io",)), 1.0, "time", "e")
        writer_b.store("k2", _spec(("oi",)), 2.0, "time", "e")
        fresh = PlanCache(path=path)
        assert fresh.lookup("k1") is not None
        assert fresh.lookup("k2") is not None
        assert fresh.disk_entries == 2

    @pytest.mark.parametrize("name", ["plans.json", "plans.db"])
    def test_json_tier_file_is_refused_not_deleted(self, tmp_path, name):
        path = tmp_path / name
        payload = _json_tier_payload({"old": (_spec(), 1.0, "time", "e1")})
        path.write_text(payload)
        with pytest.raises(PlanCacheFormatError, match="migrate-plan-cache"):
            PlanCache(path=path)
        assert path.read_text() == payload  # plans worth migrating: kept
        assert read_json_tier(path) == {
            "old": (_spec().to_json(), 1.0, "time", "e1")
        }

    @pytest.mark.parametrize(
        "content",
        ['{"version": 2, "entries": {}}', "[1, 2]", '{"entries": {}}', ""],
    )
    def test_other_foreign_content_is_not_a_json_tier_file(
        self, tmp_path, content
    ):
        path = tmp_path / "plans.db"
        path.write_text(content)
        assert read_json_tier(path) is None
        assert PlanCache(path=path).disk_entries == 0  # discarded, recreated

    def test_unknown_schema_version_is_discarded(self, tmp_path):
        path = tmp_path / "plans.sqlite"
        PlanCache(path=path).store("key", _spec(), 1.0, "time", "e")
        connection = sqlite3.connect(path)
        connection.execute("PRAGMA user_version=99")
        connection.close()
        assert PlanCache(path=path).disk_entries == 0

    def test_sqlite_tier_matches_a_dict_model(self, tmp_path):
        """Differential oracle: a seeded random op sequence driven
        against the cache and a dict produces identical CachedPlans,
        stats, prune counts, and entry sets — in this process and
        after a restart from the file."""
        import random

        for seed in (1, 7, 20080824):
            rng = random.Random(seed)
            cache = PlanCache(path=tmp_path / f"d{seed}.sqlite")
            model: dict[str, tuple] = {}
            counted = {"stores": 0, "memory_hits": 0, "misses": 0}
            keys = [f"key{i}" for i in range(6)]
            epochs = ["e1", "e2"]
            for _ in range(120):
                op = rng.choice(("store", "lookup", "lookup", "prune"))
                key = rng.choice(keys)
                if op == "store":
                    spec = _spec((rng.choice(("io", "oi")),))
                    args = (key, spec, rng.randint(1, 9) / 2.0, "time",
                            rng.choice(epochs))
                    assert cache.store(*args) is True
                    model[key] = args[1:]
                    counted["stores"] += 1
                elif op == "lookup":
                    hit = cache.lookup(key)
                    if key in model:
                        assert hit == CachedPlan(*model[key], tier="memory")
                        counted["memory_hits"] += 1
                    else:
                        assert hit is None
                        counted["misses"] += 1
                else:
                    epoch = rng.choice(epochs)
                    stale = [k for k, row in model.items() if row[3] != epoch]
                    assert cache.prune(epoch) == len(stale)
                    for stale_key in stale:
                        del model[stale_key]
                # The disk row under the touched key, read back.
                expected = model.get(key)
                assert cache._tier.get(key) == (
                    expected and (expected[0].to_json(), *expected[1:])
                )
            assert cache.stats.to_dict() == PlanCacheStats(**counted).to_dict()
            assert cache._tier.keys() == tuple(sorted(model))
            # And the same state is visible after a restart.
            restarted = PlanCache(path=cache.path)
            for key in keys:
                hit = restarted.lookup(key)
                if key in model:
                    assert hit == CachedPlan(*model[key], tier="disk")
                else:
                    assert hit is None


# -- Per-tenant store quotas ------------------------------------------------


class TestTenantQuota:
    def test_quota_bounds_distinct_keys_per_tenant(self):
        cache = PlanCache(tenant_quota=2)
        assert cache.store("a", _spec(), 1.0, "time", "e", tenant="A")
        assert cache.store("b", _spec(), 1.0, "time", "e", tenant="A")
        assert not cache.store("c", _spec(), 1.0, "time", "e", tenant="A")
        # Refreshing an admitted key is not a new admission.
        assert cache.store("a", _spec(("oi",)), 2.0, "time", "e", tenant="A")
        # Another tenant has its own budget.
        assert cache.store("c", _spec(), 1.0, "time", "e", tenant="B")
        assert cache.stats.quota_rejections == 1
        assert cache.lookup("c") is not None  # B's store was admitted

    def test_untenanted_stores_bypass_the_quota(self):
        cache = PlanCache(tenant_quota=1)
        assert cache.store("a", _spec(), 1.0, "time", "e")
        assert cache.store("b", _spec(), 1.0, "time", "e")
        assert cache.stats.quota_rejections == 0

    def test_rejected_store_costs_reoptimization_not_correctness(self):
        """A QueryService over a quota-0 shared plan cache keeps
        answering correctly — every submit just re-optimizes."""
        cache = PlanCache(tenant_quota=0)
        service = QueryService(
            registry=weekend_registry(), k_default=3, plan_cache=cache
        )
        query = mahler_weekend_query()
        first = service.submit(query)
        second = service.submit(query)
        assert first.provenance == "optimized"
        assert second.provenance == "optimized"  # nothing was cached
        assert _answer_signature(first) == _answer_signature(second)
        assert service.stats.optimizer_runs == 2
        assert cache.stats.quota_rejections == 2
        assert cache.stats.stores == 0
        # The estimation work of both runs is in the snapshot, next to
        # the search-level annotate count that does not see phase 3:
        # one whole-plan program per run (the plan that leaves), the
        # states' programs are extensions.  A run closes the plan that
        # leaves and each topology phase 3 sizes, which runs at least
        # its all-ones vector.
        serving = service.snapshot()["serving"]
        assert serving["optimizer_programs_compiled"] == 2
        assert serving["optimizer_atoms_placed"] > 0
        assert 2 < serving["optimizer_annotate_calls"] <= (
            serving["optimizer_fetch_vectors_evaluated"] + 2
        )


# -- SessionManager ---------------------------------------------------------


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _executor(registry=None, query=None):
    from repro.execution.progressive import ProgressiveExecutor
    from repro.optimizer.optimizer import optimize_query
    from repro.costs.time_cost import ExecutionTimeMetric

    registry = registry or weekend_registry()
    query = query or mahler_weekend_query()
    optimized = optimize_query(query, registry, ExecutionTimeMetric(), k=2)
    return ProgressiveExecutor(
        registry=registry, plan=optimized.plan, head=tuple(query.head)
    )


class TestSessionManager:
    def test_ttl_expiry_is_lazy_and_deterministic(self):
        clock = _FakeClock()
        manager = SessionManager(ttl=10.0, clock=clock)
        session = manager.create(mahler_weekend_query(), _executor())
        clock.now = 9.0
        assert manager.get(session.session_id) is session  # touch at 9.0
        clock.now = 18.0
        assert manager.get(session.session_id) is session  # still within TTL
        clock.now = 28.1
        with pytest.raises(SessionError):
            manager.get(session.session_id)
        assert session.closed
        assert manager.stats.expired == 1

    def test_capacity_evicts_least_recently_touched(self):
        clock = _FakeClock()
        manager = SessionManager(capacity=2, ttl=None, clock=clock)
        query = mahler_weekend_query()
        executor = _executor()
        first = manager.create(query, executor)
        clock.now = 1.0
        second = manager.create(query, executor)
        clock.now = 2.0
        manager.get(first.session_id)  # first is now the most recent
        clock.now = 3.0
        manager.create(query, executor)  # evicts second
        assert manager.stats.evicted == 1
        assert second.closed
        with pytest.raises(SessionError):
            manager.get(second.session_id)
        assert manager.get(first.session_id) is first

    def test_sessions_are_kept_in_touch_order(self):
        """``active_ids`` is least recently touched first; eviction and
        expiry both work from that head."""
        clock = _FakeClock()
        manager = SessionManager(capacity=3, ttl=10.0, clock=clock)
        query, executor = mahler_weekend_query(), _executor()
        a, b, c = (manager.create(query, executor).session_id for _ in range(3))
        assert manager.active_ids == (a, b, c)
        clock.now = 4.0
        manager.get(a)
        assert manager.active_ids == (b, c, a)
        clock.now = 6.0
        d = manager.create(query, executor).session_id  # evicts b, the head
        assert manager.active_ids == (c, a, d)
        clock.now = 12.0  # c (touched at 0) is past the TTL, a and d are not
        assert manager.sweep() == (c,)
        assert manager.active_ids == (a, d)
        assert (manager.stats.evicted, manager.stats.expired) == (1, 1)

    def test_release_closes_immediately(self):
        manager = SessionManager(ttl=None)
        session = manager.create(mahler_weekend_query(), _executor())
        assert manager.release(session.session_id) is True
        assert session.closed
        assert manager.release(session.session_id) is False
        assert len(manager) == 0


# -- QueryService -----------------------------------------------------------


_TOPICS = ("merger", "earnings", "recall", "lawsuit")
_SECTORS = ("tech", "energy", "retail")


class TestQueryService:
    def test_second_submit_is_a_memory_hit_with_zero_calls(self):
        service = QueryService(registry=weekend_registry(), k_default=3)
        query = mahler_weekend_query()
        first = service.submit(query)
        second = service.submit(query)
        assert first.provenance == "optimized"
        assert second.provenance == "memory"
        assert _answer_signature(first) == _answer_signature(second)
        assert second.stats["service_calls"] == 0
        assert second.stats["annotate_calls"] == 0

    def test_ask_for_more_resumes_the_session(self):
        service = QueryService(registry=weekend_registry(), k_default=2)
        first = service.submit(mahler_weekend_query())
        more = service.ask_for_more(first.session_id, 3)
        assert more.provenance == "session"
        assert len(more.rows) >= len(first.rows)
        assert more.rows[: len(first.rows)] == first.rows
        assert service.stats.continuations == 1

    @pytest.mark.parametrize("additional", [-10, 0])
    def test_more_below_one_is_refused_before_any_counter_moves(
        self, additional
    ):
        """``TopKStream.top`` reads a negative k as "drain everything":
        a ``more -10`` after k=3 would answer the whole plan."""
        service = QueryService(registry=weekend_registry(), k_default=3)
        twin = QueryService(registry=weekend_registry(), k_default=3)
        first = service.submit(mahler_weekend_query())
        twin.submit(mahler_weekend_query())
        before = service.snapshot()
        with pytest.raises(ValueError, match="additional must be >= 1"):
            service.ask_for_more(first.session_id, additional)
        # No request counted, no page fetched, the session still there.
        assert service.snapshot() == before
        more = service.ask_for_more(first.session_id, 3)
        assert len(more.rows) == 6 and more.rows[:3] == first.rows
        assert more.to_dict() == twin.ask_for_more(first.session_id, 3).to_dict()
        assert service.snapshot() == twin.snapshot()

    @pytest.mark.parametrize("count", [2.5, "3", True, -1])
    def test_a_count_that_is_not_an_int_of_at_least_one_moves_nothing(
        self, count
    ):
        """``k=2.5`` used to fail in slicing after a request, an
        optimizer run and a plan-cache store were counted (and a plan
        cached under ``k=2.5``); ``k=True`` was answered as ``k=1``."""
        service = QueryService(registry=weekend_registry(), k_default=3)
        first = service.submit(mahler_weekend_query())
        before = service.snapshot()
        with pytest.raises(ValueError, match="k must be"):
            service.submit(mahler_weekend_query(), k=count)
        with pytest.raises(ValueError, match="additional must be"):
            service.ask_for_more(first.session_id, count)
        assert service.snapshot() == before
        with pytest.raises(ValueError, match="k must be"):
            QueryService(registry=weekend_registry(), k_default=count)

    def test_released_session_cannot_resume(self):
        service = QueryService(registry=weekend_registry(), k_default=2)
        response = service.submit(mahler_weekend_query())
        assert service.release(response.session_id) is True
        with pytest.raises(SessionError):
            service.ask_for_more(response.session_id)

    def test_without_a_shared_cache_a_plan_hit_still_calls_the_services(self):
        """The plan cache and the shared service cache are independent:
        with no shared cache the repeat submission reuses the stored
        plan but fetches its pages again, and answers the same rows."""
        service = QueryService(
            registry=weekend_registry(), k_default=3,
            share_service_cache=False,
        )
        query = mahler_weekend_query()
        first = service.submit(query)
        repeat = service.submit(query)
        assert (first.provenance, repeat.provenance) == ("optimized", "memory")
        assert repeat.stats["service_calls"] == first.stats["service_calls"] > 0
        assert _answer_signature(repeat) == _answer_signature(first)

    def test_requests_run_streamed_over_an_optimal_cache(self):
        """Every session suspends a streamed execution over an optimal
        logical cache, whatever the service was built with."""
        from repro.execution.cache import CacheSetting
        from repro.execution.engine import ExecutionMode

        for share in (True, False):
            service = QueryService(
                registry=weekend_registry(), k_default=3,
                share_service_cache=share,
            )
            response = service.submit(mahler_weekend_query())
            executor = service.sessions.get(response.session_id).executor
            assert executor.mode is ExecutionMode.STREAMED
            assert executor.cache_setting is CacheSetting.OPTIMAL

    def test_sessions_and_stats_are_outputs_of_each_service(self):
        """No caller hands a service its sessions or counters: each
        service starts with its own, and only its requests move them."""
        for name in ("sessions", "stats"):
            with pytest.raises(TypeError, match=name):
                QueryService(registry=weekend_registry(), **{name: None})
        one = QueryService(registry=weekend_registry(), k_default=2)
        other = QueryService(registry=weekend_registry(), k_default=2)
        one.submit(mahler_weekend_query())
        assert (one.stats.requests, len(one.sessions)) == (1, 1)
        assert (other.stats.requests, len(other.sessions)) == (0, 0)

    def test_different_k_is_a_different_cache_key(self):
        service = QueryService(registry=weekend_registry())
        query = mahler_weekend_query()
        assert service.submit(query, k=2).provenance == "optimized"
        assert service.submit(query, k=3).provenance == "optimized"
        assert service.submit(query, k=2).provenance == "memory"

    def test_plans_are_stored_under_the_default_config_key(self):
        """A submission's plan is stored under the key a caller builds
        by hand from the default ``OptimizerConfig`` and the optimal
        cache setting — the bytes every earlier version stored under,
        so a persisted disk tier stays addressed."""
        from repro.optimizer.optimizer import OptimizerConfig
        from repro.serving.fingerprint import optimizer_config_token

        registry = weekend_registry()
        cache = PlanCache()
        service = QueryService(registry=registry, plan_cache=cache)
        query = mahler_weekend_query()
        service.submit(query, k=3)
        key = plan_cache_key(
            query_fingerprint(query), registry.content_epoch(),
            service.metric.name, 3, "optimal",
            optimizer_config_token(OptimizerConfig()),
        )
        assert cache.lookup(key) is not None

    def test_plan_lock_table_is_reclaimed(self):
        """Fresh-constant traffic resolves a fresh plan-cache key per
        request; the single-flight table must not keep one mutex per
        key for the life of the server."""
        service = QueryService(registry=weekend_registry())
        query = mahler_weekend_query()
        for k in range(1, 7):
            assert service.submit(query, k=k).provenance == "optimized"
        assert service.stats.optimizer_runs == 6
        assert len(service._plan_locks) == 0

    def test_key_mutex_tables_are_reclaimed_under_fresh_constants(self):
        """A fresh constant is a fresh plan-cache key: the single-flight
        table may keep no entry on the service-lifetime object."""
        service = QueryService(registry=weekend_registry())
        for budget in (90, 100, 110, 120):
            query = mahler_weekend_query(budget)
            assert service.submit(query, k=2).provenance == "optimized"
            assert service.submit(query, k=2).provenance == "memory"
        assert service.stats.optimizer_runs == 4
        assert len(service._plan_locks) == 0

    def test_multi_round_submit_reports_cumulative_work(self):
        # k far beyond the first round's yield forces progressive
        # fetch growth; the response must account every round's calls,
        # not just the final round's fresh counters.
        service = QueryService(registry=weekend_registry(), k_default=40)
        response = service.submit(mahler_weekend_query(), k=40)
        assert response.stats["rounds"] > 1
        executor = service.sessions.get(response.session_id).executor
        assert response.stats["service_calls"] == sum(
            r.new_calls for r in executor.rounds
        )
        assert response.stats["page_fetches"] == sum(
            r.stats.total_fetches for r in executor.rounds if r.stats
        )
        assert response.stats["service_calls"] > 0

    def test_service_cache_admission_control_never_changes_answers(self):
        """The ROADMAP follow-up: the shared service cache is size-
        bounded with LRU eviction.  A capacity-1 service must answer a
        repeated workload bit-identically to the unbounded one, paying
        only extra remote calls."""
        query = mahler_weekend_query()
        outcomes = {}
        for capacity in (None, 1):
            service = QueryService(
                registry=weekend_registry(),
                k_default=3,
                service_cache_capacity=capacity,
            )
            answers = [
                _answer_signature(service.submit(query)) for _ in range(3)
            ]
            snapshot = service.snapshot()["service_cache"]
            outcomes[capacity] = (answers, snapshot)
        unbounded_answers, unbounded_snapshot = outcomes[None]
        bounded_answers, bounded_snapshot = outcomes[1]
        assert bounded_answers == unbounded_answers
        assert bounded_snapshot["capacity"] == 1
        assert bounded_snapshot["entries"] <= 1
        assert bounded_snapshot["evictions"] > 0  # the bound bit
        assert unbounded_snapshot["evictions"] == 0
        assert unbounded_snapshot["entries"] > 1

    def test_tiny_cache_capacity_costs_calls_not_correctness(self):
        """Same workload, warm resubmission: the unbounded cache
        absorbs it fully, the capacity-1 cache pays remote calls —
        and both return identical rows."""
        query = mahler_weekend_query()
        calls = {}
        for capacity in (None, 1):
            service = QueryService(
                registry=weekend_registry(),
                k_default=3,
                service_cache_capacity=capacity,
            )
            service.submit(query)
            warm = service.submit(query)  # plan-cache + service-cache warm
            calls[capacity] = warm.stats["service_calls"]
        assert calls[None] == 0  # fully absorbed, as before this PR
        assert calls[1] >= calls[None]

    def test_epoch_bump_forces_reoptimization(self):
        registry = weekend_registry()
        service = QueryService(registry=registry, k_default=2)
        query = mahler_weekend_query()
        assert service.submit(query).provenance == "optimized"
        assert service.submit(query).provenance == "memory"
        # Profile drift: a re-estimated join selectivity bumps the
        # registry's content epoch, stranding the cached plan.
        registry.register_join_selectivity("lowcost", "concerts", 0.5)
        bumped = service.submit(query)
        assert bumped.provenance == "optimized"
        assert service.stats.optimizer_runs == 2

    def test_resumed_response_reports_the_submit_time_epoch(self):
        """Regression: ``ask_for_more`` stamped resumed responses with
        the registry's *current* content epoch — but the continuation
        keeps executing the plan resolved at submit time, so a
        mid-session registry update must not relabel its answers as
        computed under the new epoch."""
        registry = weekend_registry()
        service = QueryService(registry=registry, k_default=2)
        first = service.submit(mahler_weekend_query())
        assert first.epoch == registry.content_epoch()
        # Mid-session profile drift bumps the epoch...
        registry.register_join_selectivity("lowcost", "concerts", 0.5)
        assert registry.content_epoch() != first.epoch
        # ...but the continuation still reports the pinned one.
        more = service.ask_for_more(first.session_id, 2)
        assert more.provenance == "session"
        assert more.epoch == first.epoch

    def test_disk_tier_spans_service_instances(self, tmp_path):
        path = tmp_path / "plans.json"
        query = mahler_weekend_query()
        warmup = QueryService(
            registry=weekend_registry(), k_default=2,
            plan_cache=PlanCache(path=path),
        )
        cold_answer = warmup.submit(query)
        restarted = QueryService(
            registry=weekend_registry(), k_default=2,
            plan_cache=PlanCache(path=path),
        )
        warm_answer = restarted.submit(query)
        assert warm_answer.provenance == "disk"
        assert _answer_signature(warm_answer) == _answer_signature(cold_answer)

    def test_a_response_names_nodes_by_plan_position(self, tmp_path):
        """``ranks`` carries node names, and a name is the node's
        position in its plan: the same query answers the same bytes in
        a fresh process, after 500 unrelated optimizations, and from a
        plan restored off the SQLite tier."""
        from repro.costs.time_cost import ExecutionTimeMetric
        from repro.optimizer.optimizer import Optimizer

        def answer(service):
            rendered = service.submit(
                market_moving_news_query("earnings", "tech"), k=4
            ).to_dict()
            provenance = rendered.pop("provenance")
            rendered["stats"].pop("annotate_calls")  # the search's own work
            return provenance, json.dumps(rendered, sort_keys=True)

        path = tmp_path / "plans.sqlite"
        fresh = answer(
            QueryService(registry=news_registry(), plan_cache=PlanCache(path=path))
        )
        noise = Optimizer(weekend_registry(), ExecutionTimeMetric())
        for _ in range(500):
            noise.clear_memo()
            noise.optimize(mahler_weekend_query())
        later = answer(QueryService(registry=news_registry()))
        restarted = answer(
            QueryService(registry=news_registry(), plan_cache=PlanCache(path=path))
        )
        assert (fresh[0], later[0], restarted[0]) == (
            "optimized", "optimized", "disk"
        )
        assert fresh[1] == later[1] == restarted[1]
        assert '"ranks": [[["s' in fresh[1]

    def test_parses_datalog_text(self):
        service = QueryService(registry=weekend_registry(), k_default=2)
        response = service.submit(
            "q(City, Price) :- lowcost('Milano', City, Date, Price), "
            "Price <= 60."
        )
        assert response.columns == ("City", "Price")
        assert response.rows

    def test_response_is_json_serializable(self):
        import json

        service = QueryService(registry=weekend_registry(), k_default=2)
        response = service.submit(mahler_weekend_query())
        decoded = json.loads(response.to_json())
        assert decoded["provenance"] == "optimized"
        assert decoded["rows"] == [list(row) for row in response.rows]
        json.loads(
            json.dumps(service.snapshot())
        )  # the snapshot round-trips too


class TestSnapshotRegressions:
    """The serving-layer bug batch: snapshot must survive cache
    wrapping."""

    def test_snapshot_reports_the_wrapped_service_cache(self):
        # The shared cache is ThreadSafeCache-wrapped since the
        # thread-safety change; the snapshot used to gate on
        # `isinstance(_service_cache, OptimalCache)` and silently
        # dropped the section for any wrapper.
        from repro.execution.cache import ThreadSafeCache

        service = QueryService(
            registry=weekend_registry(), k_default=3,
            service_cache_capacity=8,
        )
        assert isinstance(service._service_cache, ThreadSafeCache)
        service.submit(mahler_weekend_query())
        section = service.snapshot()["service_cache"]
        assert section["type"] == "OptimalCache"
        assert section["entries"] > 0
        assert section["capacity"] == 8
        assert section["evictions"] >= 0

    def test_snapshot_has_no_section_without_a_shared_cache(self):
        service = QueryService(
            registry=weekend_registry(), k_default=3,
            share_service_cache=False,
        )
        service.submit(mahler_weekend_query())
        assert "service_cache" not in service.snapshot()


class TestServingDifferential:
    """Hypothesis: warm cache hits are bit-identical to cold runs."""

    @given(
        topic=st.sampled_from(_TOPICS),
        sector=st.sampled_from(_SECTORS),
        min_move=st.integers(3, 7),
        k=st.integers(1, 6),
    )
    @settings(max_examples=20, deadline=None)
    def test_plan_cache_hit_matches_cold_optimize_execute(
        self, topic, sector, min_move, k
    ):
        query = market_moving_news_query(topic, sector, min_move)
        # Cold oracle: fresh registry, empty caches, optimizer runs.
        cold = QueryService(registry=news_registry(), k_default=k)
        cold_answer = cold.submit(query, k=k)
        assert cold_answer.provenance == "optimized"
        # Warm path: second submission on a service that has already
        # optimized this template and fetched overlapping pages.
        warm = QueryService(registry=news_registry(), k_default=k)
        warm.submit(query, k=k)
        warm_answer = warm.submit(query, k=k)
        assert warm_answer.provenance == "memory"
        assert warm_answer.stats["annotate_calls"] == 0
        assert _answer_signature(warm_answer) == _answer_signature(cold_answer)

    @given(topic=st.sampled_from(_TOPICS), k=st.integers(1, 5))
    @settings(max_examples=15, deadline=None)
    def test_shared_service_cache_never_changes_answers(self, topic, k):
        shared = QueryService(registry=news_registry(), k_default=k)
        # Warm the shared cache with *different* templates first.
        for other_sector in _SECTORS:
            shared.submit(market_moving_news_query(topic, other_sector), k=k)
        query = market_moving_news_query(topic, "tech")
        warm_answer = shared.submit(query, k=k)
        isolated = QueryService(
            registry=news_registry(), k_default=k, share_service_cache=False
        )
        isolated_answer = isolated.submit(query, k=k)
        assert _answer_signature(warm_answer) == _answer_signature(
            isolated_answer
        )

    @given(
        erspi=st.floats(0.5, 20.0, allow_nan=False),
        tau=st.floats(0.1, 5.0, allow_nan=False),
    )
    @settings(max_examples=15, deadline=None)
    def test_profile_perturbation_changes_epoch_and_key(self, erspi, tau):
        from repro.model.schema import signature
        from repro.services.profile import exact_profile
        from repro.services.registry import ServiceRegistry
        from repro.services.table import TableExactService

        def build(profile):
            registry = ServiceRegistry()
            registry.register(
                TableExactService(
                    signature("s", ["A", "B"], ["io"]), profile, [("a", "b")]
                )
            )
            return registry

        base = build(exact_profile(erspi=1.0, response_time=1.0))
        perturbed = build(exact_profile(erspi=erspi, response_time=tau))
        unchanged = erspi == 1.0 and tau == 1.0
        assert (
            base.content_epoch() == perturbed.content_epoch()
        ) == unchanged
        query = market_moving_news_query()
        fingerprint = query_fingerprint(query)
        base_key = plan_cache_key(
            fingerprint, base.content_epoch(), "time", 5, "optimal", "cfg"
        )
        perturbed_key = plan_cache_key(
            fingerprint, perturbed.content_epoch(), "time", 5, "optimal", "cfg"
        )
        assert (base_key == perturbed_key) == unchanged

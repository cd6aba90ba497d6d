"""Unit tests for the three logical-cache settings (Section 5.1) and
the optimal cache the serving layer's client threads share."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.execution.cache import (
    CacheSetting,
    NoCache,
    OneCallCache,
    OptimalCache,
    ThreadSafeCache,
    make_cache,
)


class TestFactory:
    def test_make_cache_types(self):
        assert isinstance(make_cache(CacheSetting.NO_CACHE), NoCache)
        assert isinstance(make_cache(CacheSetting.ONE_CALL), OneCallCache)
        assert isinstance(make_cache(CacheSetting.OPTIMAL), OptimalCache)


class TestNoCache:
    def test_always_misses(self):
        cache = NoCache()
        cache.store("s", "key", 0, "value")
        assert cache.lookup("s", "key", 0) is None


class TestOneCallCache:
    def test_hit_on_repeat_of_last_call(self):
        cache = OneCallCache()
        cache.store("s", "city-a", 0, "result-a")
        assert cache.lookup("s", "city-a", 0) == "result-a"

    def test_miss_after_different_input(self):
        cache = OneCallCache()
        cache.store("s", "city-a", 0, "result-a")
        cache.store("s", "city-b", 0, "result-b")
        assert cache.lookup("s", "city-a", 0) is None
        assert cache.lookup("s", "city-b", 0) == "result-b"

    def test_all_pages_of_last_input_kept(self):
        # A chunked service fetched page-by-page for the same input
        # must keep every page until the input changes.
        cache = OneCallCache()
        cache.store("s", "city-a", 0, "page0")
        cache.store("s", "city-a", 1, "page1")
        assert cache.lookup("s", "city-a", 0) == "page0"
        assert cache.lookup("s", "city-a", 1) == "page1"

    def test_pages_evicted_with_input(self):
        cache = OneCallCache()
        cache.store("s", "city-a", 0, "page0")
        cache.store("s", "city-a", 1, "page1")
        cache.store("s", "city-b", 0, "other")
        assert cache.lookup("s", "city-a", 1) is None

    def test_per_service_isolation(self):
        cache = OneCallCache()
        cache.store("s", "k", 0, "v-s")
        cache.store("t", "other", 0, "v-t")
        assert cache.lookup("s", "k", 0) == "v-s"


class TestOptimalCache:
    def test_remembers_everything(self):
        cache = OptimalCache()
        cache.store("s", "a", 0, "va")
        cache.store("s", "b", 0, "vb")
        cache.store("s", "a", 1, "va1")
        assert cache.lookup("s", "a", 0) == "va"
        assert cache.lookup("s", "b", 0) == "vb"
        assert cache.lookup("s", "a", 1) == "va1"

    def test_distinct_services_distinct_entries(self):
        cache = OptimalCache()
        cache.store("s", "k", 0, "v-s")
        assert cache.lookup("t", "k", 0) is None


class TestOptimalCacheAdmissionControl:
    def test_capacity_bounds_entry_count(self):
        cache = OptimalCache(capacity=2)
        for index in range(5):
            cache.store("s", f"k{index}", 0, f"v{index}")
        assert len(cache) == 2
        assert cache.evictions == 3
        assert cache.lookup("s", "k4", 0) == "v4"
        assert cache.lookup("s", "k0", 0) is None

    def test_eviction_is_least_recently_used(self):
        cache = OptimalCache(capacity=2)
        cache.store("s", "a", 0, "va")
        cache.store("s", "b", 0, "vb")
        assert cache.lookup("s", "a", 0) == "va"  # refreshes 'a'
        cache.store("s", "c", 0, "vc")  # must evict 'b', not 'a'
        assert cache.lookup("s", "a", 0) == "va"
        assert cache.lookup("s", "b", 0) is None
        assert cache.lookup("s", "c", 0) == "vc"

    def test_restore_of_existing_key_does_not_evict(self):
        cache = OptimalCache(capacity=2)
        cache.store("s", "a", 0, "va")
        cache.store("s", "b", 0, "vb")
        cache.store("s", "a", 0, "va2")  # overwrite, still 2 entries
        assert cache.evictions == 0
        assert cache.lookup("s", "a", 0) == "va2"
        assert cache.lookup("s", "b", 0) == "vb"

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            OptimalCache(capacity=0)

    def test_unbounded_default_never_evicts(self):
        cache = OptimalCache()
        for index in range(100):
            cache.store("s", f"k{index}", 0, index)
        assert len(cache) == 100
        assert cache.evictions == 0
        assert cache.capacity is None

    def test_make_cache_passes_capacity_to_optimal_only(self):
        bounded = make_cache(CacheSetting.OPTIMAL, capacity=3)
        assert isinstance(bounded, OptimalCache)
        assert bounded.capacity == 3
        # Inherently bounded settings ignore the parameter.
        assert isinstance(make_cache(CacheSetting.ONE_CALL, capacity=3), OneCallCache)
        assert isinstance(make_cache(CacheSetting.NO_CACHE, capacity=3), NoCache)

    def test_eviction_changes_call_counts_never_answers(self):
        """The admission-control contract at the engine level: a tiny
        capacity forces re-fetches, but the produced rows, ranks, and
        order are identical to the unbounded cache's."""
        from repro.execution.engine import ExecutionEngine
        from repro.model.atoms import Atom
        from repro.model.query import ConjunctiveQuery
        from repro.model.schema import signature as sig
        from repro.model.terms import Constant, Variable
        from repro.plans.builder import PlanBuilder, Poset
        from repro.services.profile import search_profile
        from repro.services.registry import JoinMethod, ServiceRegistry
        from repro.services.table import TableSearchService

        def build():
            registry = ServiceRegistry()
            for name, var in (("lefts", "L"), ("rights", "R")):
                registry.register(
                    TableSearchService(
                        sig(name, ["Q", "K", var], ["ioo"]),
                        search_profile(chunk_size=2, response_time=1.0),
                        [("q", i % 2, i) for i in range(8)],
                        score=lambda row: float(-row[2]),
                    )
                )
            registry.register_join_method(
                "lefts", "rights", JoinMethod.MERGE_SCAN
            )
            key, lv, rv = Variable("K"), Variable("L"), Variable("R")
            query = ConjunctiveQuery(
                name="bounded",
                head=(key, lv, rv),
                atoms=(
                    Atom("lefts", (Constant("q"), key, lv)),
                    Atom("rights", (Constant("q"), key, rv)),
                ),
                predicates=(),
            )
            plan = PlanBuilder(query, registry).build(
                (
                    registry.signature("lefts").pattern("ioo"),
                    registry.signature("rights").pattern("ioo"),
                ),
                Poset(n=2),
                fetches={0: 4, 1: 4},
            )
            return registry, tuple(query.head), plan

        outcomes = {}
        for capacity in (None, 1):
            registry, head, plan = build()
            engine = ExecutionEngine(registry)
            cache = OptimalCache(capacity=capacity)
            calls = 0
            rows = None
            for _ in range(3):  # repeated executions share the cache
                result = engine.execute(
                    plan, head=head, reset_remote_caches=False,
                    shared_cache=cache,
                )
                calls += result.stats.total_calls
                # Node ids differ between plan builds; compare rank
                # *values* (and the composed key), not node labels.
                rows = [
                    (
                        dict(r.bindings),
                        tuple(rank for _, rank in r.ranks),
                        r.rank_key(),
                    )
                    for r in result.rows
                ]
            outcomes[capacity] = (rows, calls, cache.evictions)

        unbounded_rows, unbounded_calls, _ = outcomes[None]
        bounded_rows, bounded_calls, evictions = outcomes[1]
        assert bounded_rows == unbounded_rows  # answers never change
        assert evictions > 0  # the bound actually bit
        assert bounded_calls >= unbounded_calls  # only cost changes


class TestHierarchy:
    def test_optimal_supersedes_one_call(self):
        """Any hit in the one-call cache is also a hit in the optimal
        cache under the same call trace."""
        trace = [("a", 0), ("a", 0), ("b", 0), ("a", 0), ("a", 1)]
        one_call = OneCallCache()
        optimal = OptimalCache()
        one_hits = opt_hits = 0
        for key, page in trace:
            if one_call.lookup("s", key, page) is not None:
                one_hits += 1
            one_call.store("s", key, page, "x")
            if optimal.lookup("s", key, page) is not None:
                opt_hits += 1
            optimal.store("s", key, page, "x")
        assert opt_hits >= one_hits
        assert one_hits == 1  # only the immediate repeat
        assert opt_hits == 2  # the repeat and the later return to 'a'


class _CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.acquisitions = 0

    def __enter__(self):
        self._lock.acquire()
        self.acquisitions += 1

    def __exit__(self, *exc_info):
        self._lock.release()


class TestSharedCacheStress:
    """One ``OptimalCache`` shared by many client threads, as a
    ``QueryService`` shares its service cache across requests: the
    cache guards itself."""

    @staticmethod
    def _hammer(work, threads):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force switches inside the guard windows
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                return list(pool.map(work, range(threads)))
        finally:
            sys.setswitchinterval(interval)

    def test_concurrent_hits_all_observe_the_stored_value(self):
        warm = OptimalCache()
        expected = {
            (f"input-{i}", page): f"input-{i}/{page}"
            for i in range(8)
            for page in range(3)
        }
        for (key, page), value in expected.items():
            warm.store("svc", key, page, value)

        def read(_worker):
            return {
                (key, page): warm.lookup("svc", key, page)
                for _ in range(4)
                for key, page in expected
            }

        assert all(seen == expected for seen in self._hammer(read, 16))

    def test_lru_bound_and_eviction_count_stay_exact_under_8_writers(self):
        """Concurrent stores into a bounded cache evict exactly the
        overflow, under any interleaving."""
        bounded = OptimalCache(capacity=32)
        stores = 200

        def write(worker):
            for page in range(stores):
                bounded.store("svc", f"worker-{worker}", page, (worker, page))
                # Evicted by then, or still the value just stored.
                assert bounded.lookup("svc", f"worker-{worker}", page) in (
                    None, (worker, page),
                )

        self._hammer(write, 8)
        assert len(bounded) == 32
        assert bounded.evictions == 8 * stores - 32

    def test_an_unbounded_cache_holds_no_lock_and_its_probes_race_stores(self):
        """8 threads probe an unbounded shared cache while 4 store
        distinct keys (the dict resizing under them): every probe reads
        nothing or the value stored under that exact key, and there is
        no lock to take."""
        cache = OptimalCache()
        assert cache._lock is None
        stores, probers, writers = 400, 8, 4
        start = threading.Barrier(probers + writers)
        wrong: list = []

        def write(writer):
            start.wait(timeout=30)
            for page in range(stores):
                cache.store("svc", f"writer-{writer}", page, (writer, page))

        def probe(prober):
            start.wait(timeout=30)
            for turn in range(stores):
                writer, page = (prober + turn) % writers, (turn * 7) % stores
                value = cache.lookup("svc", f"writer-{writer}", page)
                if value not in (None, (writer, page)):
                    wrong.append((writer, page, value))

        threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
        threads += [threading.Thread(target=probe, args=(p,)) for p in range(probers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert len(cache) == writers * stores
        assert all(
            cache.lookup("svc", f"writer-{w}", page) == (w, page)
            for w in range(writers)
            for page in range(stores)
        )

    def test_a_bounded_cache_takes_its_own_lock_per_lookup_and_store(self):
        """A bounded lookup reorders its LRU and a store may evict, so
        each takes the cache's own lock exactly once, hit or miss."""
        cache = OptimalCache(capacity=2)
        lock = cache._lock = _CountingLock()
        cache.store("svc", "k", 0, "v0")
        assert cache.lookup("svc", "k", 0) == "v0"
        assert cache.lookup("svc", "k", 1) is None
        assert lock.acquisitions == 3
        cache.store("svc", "k", 1, "v1")
        cache.store("svc", "k", 2, "v2")  # evicts page 0
        assert (len(cache), cache.evictions) == (2, 1)
        assert cache.lookup("svc", "k", 0) is None
        assert lock.acquisitions == 6

    def test_the_kept_wrapper_name_returns_its_argument(self):
        cache = OptimalCache(capacity=4)
        assert ThreadSafeCache(cache) is cache

    @staticmethod
    def _travel_run(shared):
        """One execution of the running example's optimal plan, sharing
        *shared* and leaving the remote caches as they are."""
        from repro.execution.engine import ExecutionEngine
        from repro.plans.builder import PlanBuilder
        from repro.sources.travel import (
            alpha1_patterns,
            poset_optimal,
            running_example_query,
            travel_registry,
        )

        query = running_example_query()
        registry = travel_registry()
        plan = PlanBuilder(query, registry).build(
            alpha1_patterns(), poset_optimal()
        )
        result = ExecutionEngine(registry).execute(
            plan, query.head, shared_cache=shared, reset_remote_caches=False
        )
        rows = [(dict(r.bindings), r.ranks) for r in result.rows]
        return rows, result.stats

    def test_shared_cache_across_executions(self):
        """A second run over the same warmed shared cache is all hits,
        and the answers do not change."""
        shared = OptimalCache()
        first_rows, first = self._travel_run(shared)
        second_rows, second = self._travel_run(shared)
        assert second_rows == first_rows
        assert first.total_calls > 1
        assert second.total_calls == 0
        assert second.total_cache_hits > 0

    def test_client_threads_sharing_one_cache_get_the_cold_answers(self):
        """Client threads each running the plan over one shared cache
        all see a cold run's answers, and leave the cache warm enough
        that a further run makes no remote call."""
        cold_rows, _ = self._travel_run(OptimalCache())
        shared = OptimalCache()
        runs = self._hammer(lambda _client: self._travel_run(shared), 4)
        assert all(rows == cold_rows for rows, _ in runs)
        rows, stats = self._travel_run(shared)
        assert rows == cold_rows
        assert stats.total_calls == 0

"""Differential and stress suite for parallel plan execution.

:class:`~repro.execution.parallel.ParallelExecutor` must be
**bit-identical** — rows, ranks, emission order, *and call counts* —
to ``ExecutionEngine(mode=PARALLEL)`` on the same plan, for every
cache setting and worker count: worker scheduling may reorder the
physical work but nothing observable (the determinism argument in
``docs/ARCHITECTURE.md``).  The cache half of the argument gets its
own stress test: a shared lock-guarded
:class:`~repro.execution.cache.ThreadSafeCache` hammered by concurrent
workers must never change answers or double-count remote calls.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.cache import CacheSetting, OptimalCache, ThreadSafeCache
from repro.execution.engine import ExecutionEngine, ExecutionMode
from repro.execution.parallel import ParallelExecutor
from repro.plans.builder import PlanBuilder
from repro.services.registry import JoinMethod
from repro.sources.travel import (
    alpha1_patterns,
    poset_optimal,
    poset_parallel,
    poset_serial,
    running_example_query,
    travel_registry,
)

from repro.execution.resilience import (
    ResilienceConfig,
    RetryPolicy,
)
from repro.testing import FaultSchedule, FlakyService, wrap_registry_flaky

from tests.test_fault_injection import PLAN_SHAPES
from tests.test_property_streaming import _random_table_plan, _signature
from tests.test_resilience import _sig

POSETS = {
    "optimal": poset_optimal,
    "serial": poset_serial,
    "parallel": poset_parallel,
}


def _travel_plan(poset_name):
    query = running_example_query()
    registry = travel_registry()
    plan = PlanBuilder(query, registry).build(
        alpha1_patterns(), POSETS[poset_name]()
    )
    return query, plan


def _service_counters(stats):
    return {
        name: (s.calls, s.fetches, s.cache_hits, s.remote_cache_hits,
               s.tuples_fetched)
        for name, s in stats.per_service.items()
    }


class TestParallelExecutorMatchesEngine:
    def test_travel_plans_bit_identical_across_settings_and_workers(self):
        for poset_name in POSETS:
            query, plan = _travel_plan(poset_name)
            for setting in CacheSetting:
                serial = ExecutionEngine(
                    travel_registry(), cache_setting=setting,
                    mode=ExecutionMode.PARALLEL,
                ).execute(plan, query.head)
                for workers in (1, 4):
                    result = ParallelExecutor(
                        travel_registry(), cache_setting=setting,
                        workers=workers,
                    ).execute(plan, query.head)
                    assert _signature(result.rows) == _signature(serial.rows)
                    assert _service_counters(result.stats) == _service_counters(
                        serial.stats
                    )
                    assert result.stats.tuples_processed == (
                        serial.stats.tuples_processed
                    )
                    assert result.complete

    @given(
        st.lists(st.integers(0, 2), min_size=1, max_size=6),
        st.lists(st.integers(0, 2), min_size=1, max_size=6),
        st.sampled_from((JoinMethod.NESTED_LOOP, JoinMethod.MERGE_SCAN)),
        st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_plans_bit_identical(self, lk, rk, method, workers):
        registry, query, plan = _random_table_plan(lk, rk, method)
        head = tuple(query.head)
        serial = ExecutionEngine(registry, mode=ExecutionMode.PARALLEL).execute(
            plan, head=head
        )
        result = ParallelExecutor(registry, workers=workers).execute(
            plan, head=head
        )
        assert _signature(result.rows) == _signature(serial.rows)
        assert _service_counters(result.stats) == _service_counters(
            serial.stats
        )

    def test_one_call_cache_forces_single_worker(self):
        executor = ParallelExecutor(
            travel_registry(), cache_setting=CacheSetting.ONE_CALL, workers=8
        )
        assert executor.effective_workers() == 1
        query, plan = _travel_plan("serial")
        result = executor.execute(plan, query.head)
        assert result.stats.parallel_workers == 1

    def test_wall_time_and_workers_are_recorded(self):
        query, plan = _travel_plan("optimal")
        result = ParallelExecutor(travel_registry(), workers=4).execute(
            plan, query.head
        )
        assert result.stats.parallel_workers == 4
        assert result.stats.wall_time > 0
        assert result.stats.elapsed > 0  # virtual critical path rides along
        assert "parallel: workers=4" in result.stats.summary()

    def test_virtual_elapsed_matches_engine_with_one_worker(self):
        query, plan = _travel_plan("optimal")
        serial = ExecutionEngine(
            travel_registry(), mode=ExecutionMode.PARALLEL
        ).execute(plan, query.head)
        result = ParallelExecutor(travel_registry(), workers=1).execute(
            plan, query.head
        )
        assert result.stats.elapsed == serial.stats.elapsed


class TestThreadSafeCacheStress:
    def test_concurrent_hits_never_change_answers_or_double_count(self):
        """Many workers resolving overlapping input settings against one
        shared cache: every distinct (key, page) is computed exactly
        once, and every worker observes the same value for it."""
        cache = ThreadSafeCache(OptimalCache())
        computed: dict[tuple, int] = {}
        computed_lock = threading.Lock()
        keys = [f"input-{i}" for i in range(8)]
        pages = 3

        def resolve(worker: int):
            observed = {}
            for repeat in range(4):
                for key in keys:
                    with cache.key_lock("svc", key):
                        for page in range(pages):
                            value = cache.lookup("svc", key, page)
                            if value is None:
                                with computed_lock:
                                    computed[(key, page)] = (
                                        computed.get((key, page), 0) + 1
                                    )
                                value = f"{key}/{page}"
                                cache.store("svc", key, page, value)
                            observed[(key, page)] = value
            return observed

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force switches inside the guard windows
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(resolve, range(16)))
        finally:
            sys.setswitchinterval(interval)
        expected = {
            (key, page): f"{key}/{page}"
            for key in keys
            for page in range(pages)
        }
        assert all(observed == expected for observed in results)
        assert computed == {key: 1 for key in expected}  # never double-computed
        assert len(cache._key_mutex) == 0  # last holder out drops the entry

    def test_key_lock_is_per_input_setting(self):
        """Two holders of one input setting exclude each other, holders
        of different settings do not, and the table keeps no mutex for
        a setting nobody holds or awaits."""
        cache = ThreadSafeCache(OptimalCache())

        def hold(service, key, entered):
            with cache.key_lock(service, key):
                entered.set()

        entered = {
            key: threading.Event()
            for key in (("svc", "a"), ("svc", "b"), ("other", "a"))
        }
        threads = [
            threading.Thread(target=hold, args=(*key, event))
            for key, event in entered.items()
        ]
        with cache.key_lock("svc", "a"):
            for thread in threads:
                thread.start()
            assert entered[("svc", "b")].wait(5)
            assert entered[("other", "a")].wait(5)
            assert not entered[("svc", "a")].wait(0.05)
            for thread in threads[1:]:
                thread.join(timeout=5)
            assert len(cache._key_mutex) == 1  # the held key and its waiter
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()
        assert entered[("svc", "a")].is_set()
        assert len(cache._key_mutex) == 0

    def test_wrapper_delegates_and_exposes_inner(self):
        inner = OptimalCache(capacity=2)
        cache = ThreadSafeCache(inner)
        cache.store("svc", "k", 0, "v0")
        assert cache.lookup("svc", "k", 0) == "v0"
        assert cache.inner is inner
        cache.store("svc", "k", 1, "v1")
        cache.store("svc", "k", 2, "v2")  # capacity bound still enforced
        assert len(inner) == 2
        assert inner.evictions == 1
        cache.clear()
        assert cache.lookup("svc", "k", 1) is None

    def test_shared_cache_across_parallel_executions(self):
        """A second run over the same warmed shared cache is all hits —
        and the answers do not change."""
        query, plan = _travel_plan("optimal")
        registry = travel_registry()
        shared = ThreadSafeCache(OptimalCache())
        executor = ParallelExecutor(registry, workers=4)
        first = executor.execute(
            plan, query.head, shared_cache=shared, reset_remote_caches=False
        )
        second = executor.execute(
            plan, query.head, shared_cache=shared, reset_remote_caches=False
        )
        assert _signature(second.rows) == _signature(first.rows)
        assert second.stats.total_calls == 0
        assert second.stats.total_cache_hits > 0
        # One key mutex per distinct unit while it was being drained,
        # none once the runs are over.
        assert first.stats.total_calls > 1
        assert len(shared._key_mutex) == 0


class TestParallelResilience:
    """The resilience seam under real threads (ISSUE 8 satellite).

    Worker scheduling must not leak into the resilience contracts:
    retried fan-out matches the fault-free serial oracle, and
    demotions discovered concurrently all land in one certificate.
    """

    def _counters(self, stats):
        # Excludes busy/remote-side counters: backoff rides on virtual
        # time.
        return {
            name: (s.calls, s.fetches, s.cache_hits, s.tuples_fetched)
            for name, s in stats.per_service.items()
        }

    @given(
        st.integers(0, 10**6),
        st.sampled_from(sorted(PLAN_SHAPES)),
        st.integers(1, 4),
    )
    @settings(max_examples=15, deadline=None)
    def test_retried_parallel_matches_fault_free_engine(
        self, seed, shape, workers
    ):
        oracle_registry, head, oracle_plan = PLAN_SHAPES[shape]()
        oracle = ExecutionEngine(
            oracle_registry, mode=ExecutionMode.PARALLEL
        ).execute(oracle_plan, head=head)
        registry, head, plan = PLAN_SHAPES[shape]()
        wrap_registry_flaky(
            registry, FaultSchedule(seed=seed, fail_rate=0.25),
            attempt_aware=True,
        )
        result = ParallelExecutor(
            registry,
            workers=workers,
            resilience=ResilienceConfig(retry=RetryPolicy(attempts=40)),
        ).execute(plan, head=head)
        assert _sig(result.rows) == _sig(oracle.rows)
        assert self._counters(result.stats) == self._counters(oracle.stats)
        assert result.stats.retries == result.stats.wasted_fetches

    def test_concurrent_demotions_land_in_one_certificate(self):
        registry, head, plan = PLAN_SHAPES["pair"]()
        wrap_registry_flaky(
            registry, FaultSchedule(seed=21, fail_rate=1.0),
            attempt_aware=True,
        )
        result = ParallelExecutor(
            registry,
            workers=4,
            resilience=ResilienceConfig(
                retry=RetryPolicy(attempts=2), partial_results=True
            ),
        ).execute(plan, head=head)
        assert result.rows == []
        certificate = result.certificate
        assert certificate is not None and certificate.is_partial
        assert result.stats.demoted_blocks == len(certificate.dropped)
        assert set(certificate.dropped_services) <= {"lefts", "rights"}


class _CountingService:
    """Counts every invocation that reaches the service it wraps."""

    def __init__(self, inner):
        self._inner = inner
        self._lock = threading.Lock()
        self.invocations = 0

    def invoke(self, pattern, inputs, page=0):
        with self._lock:
            self.invocations += 1
        return self._inner.invoke(pattern, inputs, page=page)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _count_invocations(registry) -> dict:
    """Wrap every service of *registry* in a counting proxy, in place."""
    proxies = {}
    for name in registry.names:
        proxies[name] = registry._services[name] = _CountingService(
            registry.service(name)
        )
    return proxies


PARTIAL = ResilienceConfig(retry=RetryPolicy(attempts=2), partial_results=True)


class TestPoolAccountingUnderPartialResults:
    """The pool runs inside the engine's one walk and restart loop, so
    a unit that dies on a worker is accounted exactly as inline."""

    @pytest.mark.parametrize("setting", (CacheSetting.NO_CACHE, CacheSetting.OPTIMAL),
                             ids=lambda c: c.value)
    @pytest.mark.parametrize("seed, fail_rate", ((21, 1.0), (5, 0.6), (7, 0.4)))
    @pytest.mark.parametrize("shape", sorted(PLAN_SHAPES))
    def test_every_invocation_is_a_fetch_or_a_wasted_fetch(
        self, shape, seed, fail_rate, setting
    ):
        def run(make_executor):
            registry, head, plan = PLAN_SHAPES[shape]()
            wrap_registry_flaky(
                registry, FaultSchedule(seed=seed, fail_rate=fail_rate),
                attempt_aware=True,
            )
            proxies = _count_invocations(registry)
            result = make_executor(registry).execute(plan, head=head)
            return sum(p.invocations for p in proxies.values()), result

        def inline(registry):
            return ExecutionEngine(
                registry, cache_setting=setting, mode=ExecutionMode.PARALLEL,
                resilience=PARTIAL,
            )

        def pool(workers):
            return lambda registry: ParallelExecutor(
                registry, cache_setting=setting, workers=workers,
                resilience=PARTIAL,
            )

        for make_executor in (inline, pool(1), pool(4)):
            invocations, result = run(make_executor)
            stats = result.stats
            assert invocations == stats.total_fetches + stats.wasted_fetches
            assert result.certificate is not None

    def test_dead_units_of_one_node_cost_one_restart(self):
        """Only the downstream service is dead: the pool learns all
        three dead units from one aborted walk (the healthy feeder is
        invoked twice), the inline walk one unit per restart."""

        def run(make_executor):
            registry, head, plan = PLAN_SHAPES["serial"]()
            registry._services["lefts"] = FlakyService(
                registry.service("lefts"), FaultSchedule(seed=21, fail_rate=1.0)
            )
            proxies = _count_invocations(registry)
            result = make_executor(registry).execute(plan, head=head)
            return proxies["feeder"].invocations, result

        inline_feeder, inline = run(
            lambda registry: ExecutionEngine(
                registry, mode=ExecutionMode.PARALLEL, resilience=PARTIAL
            )
        )
        pooled_feeder, pooled = run(
            lambda registry: ParallelExecutor(
                registry, workers=4, resilience=PARTIAL
            )
        )
        assert len(inline.certificate.dropped) == 3
        assert (inline_feeder, pooled_feeder) == (4, 2)
        assert pooled.certificate.dropped == inline.certificate.dropped
        assert _sig(pooled.rows) == _sig(inline.rows)

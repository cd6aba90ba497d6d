"""Threaded stress suites for the serving layer (``-m concurrency``).

Tier-1 stays serial; these suites hammer the locks under real threads
and pin the two concurrency contracts of the serving layer:

* **bit-identity** — answers are a pure function of (registry
  content, query, k); logical caches change call counts, never
  tuples.  Any threaded interleaving must therefore produce, request
  by request, exactly the responses a sequential replay of the same
  per-thread request streams produces.
* **sequential accounting** — plan resolution is single-flight per
  key, so optimizer runs and plan-cache hit/miss/store counts match
  the sequential replay under any schedule (no double-optimizes, no
  double-counted stores).

Every schedule knob is seeded; the only nondeterminism left is the
OS thread scheduler, which these contracts are quantified over.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.serving import PlanCache, QueryService, SessionManager
from repro.sources.news import market_moving_news_query, news_registry
from repro.sources.weekend import mahler_weekend_query, weekend_registry

pytestmark = pytest.mark.concurrency

_TOPICS = ("merger", "earnings", "recall", "lawsuit")
_SECTORS = ("tech", "energy", "retail")


def _answer_signature(response):
    return (
        response.columns,
        response.rows,
        response.rank_keys,
        tuple(
            tuple(rank for _, rank in row_ranks) for row_ranks in response.ranks
        ),
        response.complete,
    )


def _run_workers(count, work):
    """Run ``work(thread_index)`` on *count* barrier-started threads."""
    barrier = threading.Barrier(count)
    errors = []

    def runner(index):
        try:
            barrier.wait()
            work(index)
        except BaseException as error:  # pragma: no cover - fail loudly
            errors.append(error)

    threads = [
        threading.Thread(target=runner, args=(index,), name=f"stress-{index}")
        for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _service(registry_builder, sessions=None, **kwargs):
    kwargs.setdefault("k_default", 3)
    service = QueryService(registry=registry_builder(), **kwargs)
    # By default nothing is evicted or expires: which session survives
    # must not depend on the schedule.
    if sessions is None:
        sessions = SessionManager(capacity=10_000, ttl=None)
    service.sessions = sessions
    return service


class TestSingleFlight:
    """ISSUE satellite: concurrent misses must optimize exactly once."""

    def test_one_optimize_per_key_per_race(self):
        service = _service(news_registry)
        query = market_moving_news_query()
        workers = 8
        responses = [None] * workers

        def work(index):
            responses[index] = service.submit(query, k=3)

        _run_workers(workers, work)
        # Exactly one thread ran the optimizer and stored; the other
        # seven waited on the key lock and then hit the memory tier.
        assert service.stats.optimizer_runs == 1
        assert service.plan_cache.stats.misses == 1
        assert service.plan_cache.stats.stores == 1
        assert service.plan_cache.stats.memory_hits == workers - 1
        assert sum(r.provenance == "optimized" for r in responses) == 1
        assert len({_answer_signature(r) for r in responses}) == 1

    def test_repeated_races_never_double_count(self):
        # Re-race a fresh key (new k) several times: counts must stay
        # exactly one optimize/store/miss per distinct key.
        service = _service(news_registry)
        query = market_moving_news_query()
        for round_index, k in enumerate((1, 2, 4, 5), start=1):
            _run_workers(6, lambda _i, k=k: service.submit(query, k=k))
            assert service.stats.optimizer_runs == round_index
            assert service.plan_cache.stats.misses == round_index
            assert service.plan_cache.stats.stores == round_index
            # The last thread out of each race reclaims the key's mutex.
            assert len(service._plan_locks) == 0

    def test_distinct_keys_resolve_independently(self):
        service = _service(news_registry)

        def work(index):
            query = market_moving_news_query(_TOPICS[index % 4], "tech")
            service.submit(query, k=3)

        _run_workers(8, work)
        assert service.stats.optimizer_runs == 4
        assert service.plan_cache.stats.misses == 4
        assert service.plan_cache.stats.memory_hits == 4


class TestThreadedReplayBitIdentity:
    """N threads replaying seeded streams == sequential replay."""

    WORKERS = 8
    REQUESTS_PER_WORKER = 12

    def _streams(self):
        rng = random.Random(20080808)
        population = [
            (market_moving_news_query(topic, sector), k)
            for topic in _TOPICS
            for sector in _SECTORS
            for k in (2, 4)
        ]
        return [
            [rng.choice(population) for _ in range(self.REQUESTS_PER_WORKER)]
            for _ in range(self.WORKERS)
        ]

    def test_threaded_submits_match_sequential_replay(self):
        streams = self._streams()
        # Sequential oracle: same per-thread streams, one after another.
        sequential = _service(news_registry)
        expected = [
            [_answer_signature(sequential.submit(query, k=k))
             for query, k in stream]
            for stream in streams
        ]
        shared = _service(news_registry)
        got = [[None] * len(stream) for stream in streams]

        def work(index):
            for position, (query, k) in enumerate(streams[index]):
                got[index][position] = _answer_signature(
                    shared.submit(query, k=k)
                )

        _run_workers(self.WORKERS, work)
        assert got == expected
        # Accounting matches the sequential schedule exactly.
        total = self.WORKERS * self.REQUESTS_PER_WORKER
        assert shared.plan_cache.stats.lookups == total
        assert (shared.plan_cache.stats.misses
                == sequential.plan_cache.stats.misses)
        assert shared.stats.optimizer_runs == sequential.stats.optimizer_runs
        assert shared.stats.requests == total
        assert shared.sessions.stats.created == total


class TestSessionInterleavings:
    """Seeded submit/ask_for_more/release interleavings."""

    WORKERS = 6
    OPS_PER_WORKER = 16

    def _op_streams(self):
        streams = []
        for worker in range(self.WORKERS):
            rng = random.Random(1000 + worker)
            ops = []
            live = 0  # this worker's live-session count, simulated
            for _ in range(self.OPS_PER_WORKER):
                choices = ["submit"]
                if live:
                    choices += ["more", "more", "release"]
                op = rng.choice(choices)
                if op == "submit":
                    ops.append(
                        ("submit",
                         (rng.choice(_TOPICS), rng.choice(_SECTORS)),
                         rng.randint(1, 4))
                    )
                    live += 1
                elif op == "more":
                    ops.append(("more", None, rng.randint(1, 3)))
                else:
                    ops.append(("release", None, None))
                    live -= 1
            streams.append(ops)
        return streams

    def _replay(self, service, ops):
        """Run one worker's op stream; returns one signature per op.

        Sessions are worker-local (each worker only resumes/releases
        its own), so the stream is deterministic even while other
        workers interleave arbitrarily against the same service.
        """
        signatures = []
        sessions = []  # this worker's live session ids, newest last
        for op, template, argument in ops:
            if op == "submit":
                response = service.submit(
                    market_moving_news_query(*template), k=argument
                )
                sessions.append(response.session_id)
                signatures.append(("submit", _answer_signature(response)))
            elif op == "more":
                response = service.ask_for_more(sessions[-1], argument)
                signatures.append(("more", _answer_signature(response)))
            else:
                signatures.append(("release", service.release(sessions.pop())))
        return signatures

    def test_interleaved_sessions_match_sequential_replay(self):
        streams = self._op_streams()
        sequential = _service(news_registry)
        expected = [self._replay(sequential, ops) for ops in streams]
        shared = _service(news_registry)
        got = [None] * self.WORKERS

        def work(index):
            got[index] = self._replay(shared, streams[index])

        _run_workers(self.WORKERS, work)
        assert got == expected
        assert (shared.sessions.stats.created
                == sequential.sessions.stats.created)
        assert (shared.sessions.stats.released
                == sequential.sessions.stats.released)
        assert len(shared.sessions) == len(sequential.sessions)

    def test_concurrent_resumes_of_one_session_serialize(self):
        # Many threads asking the same session for more: every resume
        # must see a strictly growing prefix of one answer stream
        # (the session lock serializes them; no interleaved corruption).
        service = _service(weekend_registry, k_default=1)
        first = service.submit(mahler_weekend_query(), k=1)
        workers = 6
        results = [None] * workers

        def work(index):
            results[index] = service.ask_for_more(first.session_id, 1)

        _run_workers(workers, work)
        lengths = sorted(len(r.rows) for r in results)
        by_length = {len(r.rows): r for r in results}
        longest = by_length[lengths[-1]]
        for response in results:
            assert longest.rows[: len(response.rows)] == response.rows
        assert service.stats.continuations == workers

    def test_release_racing_resume_never_corrupts(self):
        # One thread resumes while others release the same session:
        # every call either succeeds or raises SessionError; no other
        # outcome (and no deadlock).
        from repro.serving import SessionError

        for _ in range(5):
            service = _service(weekend_registry, k_default=2)
            session_id = service.submit(mahler_weekend_query()).session_id
            outcomes = []
            lock = threading.Lock()

            def work(index):
                try:
                    if index % 2:
                        service.release(session_id)
                        outcome = "released"
                    else:
                        service.ask_for_more(session_id, 1)
                        outcome = "resumed"
                except SessionError:
                    outcome = "gone"
                with lock:
                    outcomes.append(outcome)

            _run_workers(4, work)
            assert len(outcomes) == 4
            assert set(outcomes) <= {"released", "resumed", "gone"}


class TestSQLiteTierConcurrency:
    """The WAL tier under many threads and many sibling instances."""

    def test_concurrent_stores_all_land(self, tmp_path):
        from repro.plans.spec import PlanSpec

        cache = PlanCache(path=tmp_path / "plans.sqlite")
        spec = PlanSpec(
            pattern_codes=("io",), precedence_pairs=(), fetches=((0, 2),)
        )
        workers, per_worker = 8, 20

        def work(index):
            for i in range(per_worker):
                cache.store(f"w{index}-k{i}", spec, float(i), "time", "e")

        _run_workers(workers, work)
        assert cache.stats.stores == workers * per_worker
        fresh = PlanCache(path=tmp_path / "plans.sqlite")
        assert fresh.disk_entries == workers * per_worker
        for index in range(workers):
            assert fresh.lookup(f"w{index}-k{per_worker - 1}") is not None

    def test_sibling_instances_write_concurrently(self, tmp_path):
        from repro.plans.spec import PlanSpec

        path = tmp_path / "plans.sqlite"
        spec = PlanSpec(
            pattern_codes=("io",), precedence_pairs=(), fetches=()
        )
        siblings = [PlanCache(path=path) for _ in range(4)]

        def work(index):
            for i in range(15):
                siblings[index].store(
                    f"s{index}-k{i}", spec, 1.0, "time", "e"
                )

        _run_workers(4, work)
        fresh = PlanCache(path=path)
        assert fresh.disk_entries == 60

    def test_threaded_service_restarts_warm_from_sqlite(self, tmp_path):
        path = tmp_path / "plans.sqlite"
        templates = [
            market_moving_news_query(topic, sector)
            for topic in _TOPICS
            for sector in ("tech", "energy")
        ]
        first = _service(news_registry, plan_cache=PlanCache(path=path))

        def work(index):
            rng = random.Random(index)
            for _ in range(10):
                first.submit(rng.choice(templates), k=3)

        _run_workers(6, work)
        assert first.plan_cache.stats.misses == len(templates)
        first.plan_cache.close()
        # A restarted service over the same database starts 0-miss.
        restarted = _service(news_registry, plan_cache=PlanCache(path=path))
        for template in templates:
            assert restarted.submit(template, k=3).provenance == "disk"
        assert restarted.plan_cache.stats.misses == 0
        assert restarted.stats.optimizer_runs == 0


class TestSessionManagerLocking:
    def test_lifecycle_counters_stay_coherent_under_races(self):
        # create/get/release hammered from 8 threads: every session is
        # accounted for exactly once (created == released + evicted +
        # expired + still-live).
        manager = SessionManager(capacity=32, ttl=None)
        service = _service(weekend_registry, sessions=manager, k_default=2)
        query = mahler_weekend_query()
        submits = [0] * 8

        def work(index):
            rng = random.Random(index)
            mine = []
            for _ in range(12):
                if mine and rng.random() < 0.4:
                    service.release(mine.pop())
                else:
                    mine.append(service.submit(query).session_id)
                    submits[index] += 1

        _run_workers(8, work)
        stats = manager.stats
        assert stats.created == sum(submits)
        assert (stats.released + stats.evicted + stats.expired
                + len(manager)) == stats.created


class TestResilientServingConcurrency:
    """Retried serving under threads (ISSUE 8 satellite).

    Retried attempts run *below* the shared ``ThreadSafeCache``, so
    threaded resilient submits must stay request-by-request
    bit-identical to a sequential replay without the resilience layer
    — and the shared cache must end up with exactly the entries the
    sequential run stores (a retry that double-stored or
    double-counted would show up here).
    """

    WORKERS = 6
    REQUESTS_PER_WORKER = 8

    def _streams(self, seed):
        rng = random.Random(seed)
        population = [
            (market_moving_news_query(topic, sector), k)
            for topic in _TOPICS
            for sector in _SECTORS
            for k in (2, 4)
        ]
        return [
            [rng.choice(population) for _ in range(self.REQUESTS_PER_WORKER)]
            for _ in range(self.WORKERS)
        ]

    def _replay_threaded(self, service, streams):
        got = [[None] * len(stream) for stream in streams]
        responses = [[None] * len(stream) for stream in streams]

        def work(index):
            for position, (query, k) in enumerate(streams[index]):
                response = service.submit(query, k=k)
                responses[index][position] = response
                got[index][position] = _answer_signature(response)

        _run_workers(self.WORKERS, work)
        return got, [r for row in responses for r in row]

    def test_threaded_retried_submits_match_fault_free_replay(self):
        from repro.execution.resilience import ResilienceConfig
        from repro.testing import FaultSchedule, wrap_registry_flaky

        def flaky_news():
            registry = news_registry()
            wrap_registry_flaky(
                registry, FaultSchedule(seed=81, fail_rate=0.3),
                attempt_aware=True,
            )
            return registry

        streams = self._streams(20260809)
        clean = _service(news_registry)
        expected = [
            [_answer_signature(clean.submit(query, k=k))
             for query, k in stream]
            for stream in streams
        ]
        resilient = _service(
            flaky_news,
            resilience=ResilienceConfig(attempts=40),
        )
        got, responses = self._replay_threaded(resilient, streams)
        assert got == expected
        # Failed attempts appear only in the wasted-work trace; the
        # per-service accounting matches the fault-free replay.
        assert sum(r.stats["retries"] for r in responses) > 0
        assert (resilient.snapshot()["service_cache"]["entries"]
                == clean.snapshot()["service_cache"]["entries"])

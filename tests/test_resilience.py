"""Resilience layer: retry/backoff, honest partial results.

Differential contracts pinned here (see
:mod:`repro.execution.resilience` for the arguments):

* **Zero-fault bit-identity** — an engine with every resilience layer
  switched on, run over a fault-free registry, is bit-identical to the
  plain engine: rows, ranks, per-service calls/fetches/cache-hits,
  and virtual time.  The certificate it attaches is then a
  *completeness* witness (nothing dropped).
* **Sufficient retries** — under any seeded attempt-aware fault
  schedule with fail-rate < 1, enough retries make the resilient run
  bit-identical to the fault-free oracle, answers *and* accounting
  (failed attempts land in ``wasted_fetches``, never in the
  per-service counters).
* **Capped retries + partial mode** — the partial answer is *exactly*
  the top-k of the plan over the registry with the certificate's
  dropped units excluded up front: re-running on a clean registry with
  those units pre-masked reproduces it bit-for-bit, and no returned
  answer is ever attributed to a dropped unit.
"""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.testing.faults as faults
from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine
from repro.execution.resilience import (
    ResilienceConfig,
    UnresponsiveService,
    backoff,
    resilient_fetch,
    unit_token,
)
from repro.execution.stats import ExecutionStats
from repro.model.schema import signature
from repro.model.terms import Variable
from repro.services.base import InvocationResult, TransientServiceError
from repro.services.profile import search_profile
from repro.services.table import TableSearchService
from repro.testing import (
    FaultSchedule,
    FlakyService,
    eager_streamed_engine,
    mask_unit,
    wrap_registry_flaky,
)

from tests.test_fault_injection import PLAN_SHAPES, _pair_plan, _serial_plan


def _sig(rows):
    """Cross-registry row signature.

    Rank *labels* are registry-local (auto-assigned service ids), so a
    differential between independently built registries compares
    bindings and rank values only.
    """
    return [
        (dict(r.bindings), tuple(rank for _, rank in r.ranks)) for r in rows
    ]


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


RETRY_ALWAYS = ResilienceConfig(attempts=40)
#: Retry + partial mode: nothing fires on a clean run (no faults to
#: retry).
ALL_ON_QUIET = ResilienceConfig(attempts=3, partial_results=True)


def _counters(stats, with_remote=True):
    """Per-service accounting; retried runs exclude the remote-side
    view (backoff is charged to virtual time)."""
    return {
        name: (
            (s.calls, s.fetches, s.cache_hits, s.tuples_fetched)
            + ((s.remote_cache_hits, s.busy_time) if with_remote else ())
        )
        for name, s in stats.per_service.items()
    }


def _page_result(latency=1.0):
    return InvocationResult(
        tuples=((0, "a"),), latency=latency, has_more=False, ranks=(0,)
    )


def _flaky_invoke(failures, latencies=(1.0,)):
    """An invoke() failing *failures* times, then serving *latencies*."""
    state = {"calls": 0}

    def invoke():
        state["calls"] += 1
        if state["calls"] <= failures:
            raise TransientServiceError(f"boom #{state['calls']}")
        index = min(state["calls"] - failures, len(latencies)) - 1
        return _page_result(latency=latencies[index])

    return invoke, state


class TestRetryPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        key = ("ioo", ((0, "q"),))
        for attempt in range(1, 9):
            delay = backoff("svc", key, attempt)
            assert delay == backoff("svc", key, attempt)
            nominal = min(30.0, 0.5 * 2.0 ** (attempt - 1))
            assert nominal * 0.9 <= delay <= nominal * 1.1

    def test_key_varies_the_jitter(self):
        assert any(
            backoff("svc", (), n) != backoff("other", (), n)
            for n in range(1, 6)
        )

    @pytest.mark.parametrize(
        "kwargs", [{"attempts": 0}, {"attempts": -4}],
        ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_values_that_corrupt_virtual_time_are_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ResilienceConfig(**kwargs)


class TestResilientFetch:
    def test_transient_failures_are_retried_and_charged(self):
        config = ResilienceConfig(attempts=5)
        invoke, state = _flaky_invoke(failures=2)
        stats = ExecutionStats()
        result = resilient_fetch(config, "svc", ("ioo", ()), 0, invoke, stats)
        assert state["calls"] == 3
        assert stats.retries == 2
        assert stats.wasted_fetches == 2
        expected_backoff = sum(
            backoff("svc", ("ioo", ()), n) for n in (1, 2)
        )
        assert stats.retry_backoff == pytest.approx(expected_backoff)
        # Backoff is charged to virtual time on the winning fetch.
        assert result.latency == pytest.approx(1.0 + expected_backoff)
        assert result.tuples == ((0, "a"),)

    def test_exhausted_retries_raise_the_original_error(self):
        config = ResilienceConfig(attempts=3)
        invoke, state = _flaky_invoke(failures=10)
        with pytest.raises(TransientServiceError, match="boom #3"):
            resilient_fetch(
                config, "svc", ("ioo", ()), 0, invoke, ExecutionStats()
            )
        assert state["calls"] == 3

    def test_partial_mode_raises_unresponsive_service(self):
        config = ResilienceConfig(attempts=2, partial_results=True)
        invoke, _ = _flaky_invoke(failures=10)
        with pytest.raises(UnresponsiveService) as excinfo:
            resilient_fetch(
                config, "svc", ("ioo", ((0, "q"),)), 3, invoke,
                ExecutionStats(),
            )
        failure = excinfo.value
        assert failure.unit == ("svc", ("ioo", ((0, "q"),)))
        assert failure.page == 3
        assert failure.attempts == 2
        assert isinstance(failure.cause, TransientServiceError)

    def test_no_retry_policy_fails_on_first_transient(self):
        invoke, state = _flaky_invoke(failures=1)
        stats = ExecutionStats()
        with pytest.raises(TransientServiceError):
            resilient_fetch(
                ResilienceConfig(), "svc", ("ioo", ()), 0, invoke, stats
            )
        assert state["calls"] == 1
        assert stats.wasted_fetches == 1
        assert stats.retries == 0


class TestPromotedFaultKit:
    def test_injected_fault_is_transient(self):
        assert issubclass(faults.InjectedFault, TransientServiceError)

    def _service(self):
        return TableSearchService(
            signature("spots", ["Q", "S"], ["io"]),
            search_profile(chunk_size=3, response_time=1.0),
            [("q", i) for i in range(7)],
            score=lambda row: float(-row[1]),
        )

    def test_delay_kind_stretches_latency_only(self):
        inner = self._service()
        flaky = FlakyService(
            inner, FaultSchedule(seed=1, delay_rate=1.0, delay_factor=10.0)
        )
        pattern = inner.signature.pattern("io")
        clean = inner.invoke(pattern, {0: "q"}, page=0)
        inner.reset()
        delayed = flaky.invoke(pattern, {0: "q"}, page=0)
        assert delayed.tuples == clean.tuples
        assert delayed.ranks == clean.ranks
        assert delayed.has_more == clean.has_more
        assert delayed.latency == pytest.approx(clean.latency * 10.0)
        assert flaky.injected["delay"] == 1

    def test_attempt_aware_decisions_draw_independently(self):
        schedule = FaultSchedule(seed=5, fail_rate=0.5)
        base = schedule.decide("svc", "io", {0: "q"}, 0)
        assert base == schedule.decide("svc", "io", {0: "q"}, 0, attempt=0)
        draws = {
            schedule.decide("svc", "io", {0: "q"}, 0, attempt=n)
            for n in range(12)
        }
        assert None in draws and "fail" in draws  # retries can recover

    def test_attempt_aware_flaky_service_eventually_succeeds(self):
        inner = self._service()
        flaky = FlakyService(
            inner, FaultSchedule(seed=5, fail_rate=0.5), attempt_aware=True
        )
        pattern = inner.signature.pattern("io")
        outcomes = []
        for _ in range(12):
            try:
                outcomes.append(len(flaky.invoke(pattern, {0: "q"}, page=0)))
            except faults.InjectedFault:
                outcomes.append(None)
        assert None in outcomes  # some attempts fail ...
        assert any(o is not None for o in outcomes)  # ... but not all


class TestZeroFaultBitIdentity:
    """All resilience layers on + no faults == the plain engine."""

    @pytest.mark.parametrize("shape", sorted(PLAN_SHAPES))
    @pytest.mark.parametrize(
        "engine, k",
        [
            (ExecutionEngine, None),
            (ExecutionEngine, 5),
            (eager_streamed_engine, 5),
        ],
        ids=("full", "lazy", "eager"),
    )
    def test_resilient_engine_is_bit_identical(self, shape, engine, k):
        registry, head, plan = PLAN_SHAPES[shape]()
        plain = engine(registry).execute(plan, head=head, k=k)
        registry2, head2, plan2 = PLAN_SHAPES[shape]()
        resilient = engine(registry2, resilience=ALL_ON_QUIET).execute(
            plan2, head=head2, k=k
        )
        assert _sig(resilient.rows) == _sig(plain.rows)
        assert _counters(resilient.stats) == _counters(plain.stats)
        assert resilient.stats.elapsed == plain.stats.elapsed
        for counter in ("retries", "wasted_fetches", "demoted_blocks"):
            assert getattr(resilient.stats, counter) == 0
        # The certificate is present and witnesses completeness.
        certificate = resilient.certificate
        assert plain.certificate is None
        assert certificate is not None and not certificate.is_partial
        assert certificate.dropped == ()
        assert certificate.dropped_services == ()
        assert len(certificate.answer_units) == len(resilient.rows)
        payload = json.loads(json.dumps(certificate.to_dict()))
        assert payload["partial"] is False and payload["dropped"] == []


class TestRetryDifferential:
    """Sufficient retries == the fault-free oracle, bit for bit."""

    @given(
        st.integers(0, 10**6),
        st.sampled_from(sorted(PLAN_SHAPES)),
        st.sampled_from([0.1, 0.25, 0.4]),
        st.integers(1, 8),
        st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_retries_recover_the_oracle(self, seed, shape, rate, k, lazy):
        if not lazy:
            k = None  # a full scan
        oracle_registry, head, oracle_plan = PLAN_SHAPES[shape]()
        oracle = ExecutionEngine(oracle_registry).execute(
            oracle_plan, head=head, k=k
        )
        registry, head, plan = PLAN_SHAPES[shape]()
        wrappers = wrap_registry_flaky(
            registry, FaultSchedule(seed=seed, fail_rate=rate),
            attempt_aware=True,
        )
        resilient = ExecutionEngine(registry, resilience=RETRY_ALWAYS).execute(
            plan, head=head, k=k
        )
        assert _sig(resilient.rows) == _sig(oracle.rows)
        # Failed attempts are wasted work, never per-service accounting
        # (busy/remote excluded: backoff is charged to virtual time).
        assert _counters(resilient.stats, with_remote=False) == _counters(
            oracle.stats, with_remote=False
        )
        injected = sum(w.injected["fail"] for w in wrappers.values())
        assert resilient.stats.retries == injected
        assert resilient.stats.wasted_fetches == injected
        assert resilient.stats.elapsed >= oracle.stats.elapsed


class TestPartialResults:
    """Capped retries demote honestly: top-k over the responsive rest."""

    PARTIAL = ResilienceConfig(attempts=2, partial_results=True)

    def test_everything_dead_yields_empty_certified_answer(self):
        registry, head, plan = _pair_plan()
        wrap_registry_flaky(
            registry, FaultSchedule(seed=3, fail_rate=1.0),
            attempt_aware=True,
        )
        result = ExecutionEngine(
            registry,
            resilience=self.PARTIAL,
        ).execute(plan, head=head, k=4)
        assert result.rows == []
        certificate = result.certificate
        assert certificate is not None and certificate.is_partial
        assert certificate.dropped_services == ("lefts",) or set(
            certificate.dropped_services
        ) == {"lefts", "rights"}
        assert certificate.responsive_services == tuple(
            s for s in ("lefts", "rights")
            if s not in certificate.dropped_services
        )
        assert result.stats.demoted_blocks == len(certificate.dropped)

    @given(
        st.integers(0, 10**6),
        st.sampled_from(sorted(PLAN_SHAPES)),
        st.integers(1, 8),
    )
    @settings(max_examples=25, deadline=None)
    def test_partial_answer_is_topk_over_responsive_subset(
        self, seed, shape, k
    ):
        registry, head, plan = PLAN_SHAPES[shape]()
        wrap_registry_flaky(
            registry, FaultSchedule(seed=seed, fail_rate=0.3),
            attempt_aware=True,
        )
        partial = ExecutionEngine(
            registry, resilience=self.PARTIAL,
        ).execute(plan, head=head, k=k)
        certificate = partial.certificate
        assert certificate is not None

        # Oracle: a clean registry with the dropped units masked up
        # front must reproduce the partial answer bit-for-bit.
        oracle_registry, head, oracle_plan = PLAN_SHAPES[shape]()
        oracle_engine = ExecutionEngine(
            oracle_registry,
            resilience=ResilienceConfig(partial_results=True),
        )
        for unit in certificate.dropped:
            mask_unit(oracle_engine, unit.service, unit.input_key)
        oracle = oracle_engine.execute(oracle_plan, head=head, k=k)
        assert _sig(partial.rows) == _sig(oracle.rows)

        # The oracle's certificate names the same dropped units.
        assert oracle.certificate is not None
        assert [u.token for u in oracle.certificate.dropped] == [
            u.token for u in certificate.dropped
        ]
        # No returned answer is ever attributed to a dropped unit.
        dropped_tokens = {u.token for u in certificate.dropped}
        for units in certificate.answer_units:
            assert not dropped_tokens.intersection(units)
        assert partial.stats.demoted_blocks == len(certificate.dropped)

    @pytest.mark.parametrize(
        "setting", (CacheSetting.NO_CACHE, CacheSetting.OPTIMAL),
        ids=lambda c: c.value,
    )
    @pytest.mark.parametrize("seed, fail_rate", ((21, 1.0), (5, 0.6), (7, 0.4)))
    @pytest.mark.parametrize("shape", sorted(PLAN_SHAPES))
    def test_every_invocation_is_a_fetch_or_a_wasted_fetch(
        self, shape, seed, fail_rate, setting
    ):
        """Restarts included, every remote invocation is a counted
        fetch or a counted wasted fetch, and every demotion is on the
        one certificate."""
        registry, head, plan = PLAN_SHAPES[shape]()
        wrap_registry_flaky(
            registry, FaultSchedule(seed=seed, fail_rate=fail_rate),
            attempt_aware=True,
        )
        proxies = _count_invocations(registry)
        result = ExecutionEngine(
            registry, cache_setting=setting,
            resilience=self.PARTIAL,
        ).execute(plan, head=head)
        stats = result.stats
        invocations = sum(p.invocations for p in proxies.values())
        assert invocations == stats.total_fetches + stats.wasted_fetches
        assert stats.demoted_blocks == len(result.certificate.dropped)

    def test_each_restart_demotes_one_unit(self):
        """Only the downstream service is dead: a walk stops at the
        first unit that exhausts its retries, so three dead units cost
        three restarts — the healthy feeder is invoked four times."""
        registry, head, plan = PLAN_SHAPES["serial"]()
        registry._services["lefts"] = FlakyService(
            registry.service("lefts"), FaultSchedule(seed=21, fail_rate=1.0)
        )
        proxies = _count_invocations(registry)
        result = ExecutionEngine(
            registry, resilience=self.PARTIAL
        ).execute(plan, head=head)
        assert len(result.certificate.dropped) == 3
        assert result.stats.demoted_blocks == 3
        assert proxies["feeder"].invocations == 4
        assert result.rows == []

    def test_serial_plan_keeps_responsive_blocks_of_a_flaky_service(self):
        """A service with one dead block still answers from the others
        (dropped_services names it, yet answers cite its live units)."""
        registry, head, plan = _serial_plan()
        engine = ExecutionEngine(
            registry,
            resilience=ResilienceConfig(partial_results=True),
        )
        dead_key = ("ioo", ((0, 0),))  # the lefts block fed by X=0
        mask_unit(engine, "lefts", dead_key)
        result = engine.execute(plan, head=head)
        certificate = result.certificate
        assert certificate is not None and certificate.is_partial
        assert certificate.dropped_services == ("lefts",)
        assert [u.token for u in certificate.dropped] == [
            unit_token("lefts", dead_key)
        ]
        assert result.rows  # the X=1, X=2 blocks still produce answers
        x = Variable("X")
        assert all(row.bindings[x] != 0 for row in result.rows)
        live_tokens = {
            token for units in certificate.answer_units for token in units
        }
        assert any(token.startswith("lefts[") for token in live_tokens)


class TestServingPartialResults:
    def _registry_plan(self):
        return _pair_plan()

    def test_response_carries_the_certificate_json(self):
        from repro.serving import QueryService
        from repro.sources.weekend import (
            mahler_weekend_query,
            weekend_registry,
        )

        service = QueryService(
            registry=weekend_registry(),
            k_default=3,
            resilience=ResilienceConfig(partial_results=True),
        )
        response = service.submit(mahler_weekend_query())
        assert response.partial is not None
        assert response.partial["partial"] is False
        assert response.partial["dropped"] == []
        assert response.partial["responsive_services"]
        decoded = json.loads(response.to_json())
        assert decoded["partial"] == response.partial

    def test_faulted_serving_demotes_and_reports_honestly(self):
        from repro.serving import QueryService
        from repro.sources.weekend import (
            mahler_weekend_query,
            weekend_registry,
        )

        registry = weekend_registry()
        wrap_registry_flaky(
            registry, FaultSchedule(seed=9, fail_rate=1.0),
            attempt_aware=True,
        )
        service = QueryService(
            registry=registry,
            k_default=3,
            resilience=ResilienceConfig(attempts=2, partial_results=True),
        )
        response = service.submit(mahler_weekend_query())
        assert response.partial is not None
        assert response.partial["partial"] is True
        assert response.partial["dropped"]
        assert response.rows == ()
        json.loads(response.to_json())  # stays serializable

    def test_without_resilience_the_field_stays_none(self):
        from repro.serving import QueryService
        from repro.sources.weekend import (
            mahler_weekend_query,
            weekend_registry,
        )

        service = QueryService(registry=weekend_registry(), k_default=3)
        response = service.submit(mahler_weekend_query())
        assert response.partial is None
        assert json.loads(response.to_json())["partial"] is None

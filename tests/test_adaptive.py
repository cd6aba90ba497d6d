"""Tests for the mid-flight adaptivity layer.

Covers the three adaptive mechanisms end to end:

* the :class:`~repro.execution.resilience.DriftMonitor` /
  :class:`~repro.execution.progressive.ProgressiveExecutor` splice
  loop (drift fires, the aborted work stays accounted, the replacement
  plan answers fetched pages from the shared cache);
* sibling fallback in the static engine (an exhausted unit is served
  by a registered equivalent before partial results may drop it);
* the serving layer's per-service :class:`~repro.serving.breaker.
  CircuitBreaker` (cross-request health feeding adjusted plan costs
  and proactive rerouting).

The anchor of the whole layer is the **zero-drift differential**: with
drift monitoring armed (a ``replan`` callback) but nothing drifting,
the run must be bit-identical — rows, ranks, and full per-round
statistics — to the same executor without one.

Thresholds are the library's constants (three slow pulls, two
unhealthy requests, a 30 s cooldown); the worlds and the fake clock
reach them.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.engine import ExecutionMode
from repro.execution.progressive import MAX_REPLANS, MAX_ROUNDS, ProgressiveExecutor
from repro.execution.resilience import (
    DriftMonitor,
    PlanDrift,
    ResilienceConfig,
)
from repro.model.atoms import Atom
from repro.model.query import ConjunctiveQuery
from repro.model.schema import signature
from repro.model.terms import Constant, Variable
from repro.plans.builder import PlanBuilder, Poset
from repro.serving.breaker import BreakerState, CircuitBreaker
from repro.serving.service import QueryService
from repro.services.profile import search_profile
from repro.services.registry import (
    AdjustedRegistry,
    JoinMethod,
    ServiceRegistry,
)
from repro.services.table import TableSearchService
from repro.testing.faults import FaultSchedule, FlakyService

from tests.test_resilience import _count_invocations


# -- the test world ---------------------------------------------------------


def _table(name, var, side, chunk, one_to_one=False):
    return TableSearchService(
        signature(name, ["Q", "K", var], ["ioo"]),
        search_profile(chunk_size=chunk, response_time=1.0),
        [("q", i if one_to_one else 0, i) for i in range(side)],
        score=lambda row: float(-row[2]),
    )


def build_world(side=6, chunk=2, fetches=2, sibling=False, one_to_one=False):
    """A two-feed merge-scan world; optionally a ``lefts`` sibling.

    Every row joins every row of the other side, or — ``one_to_one`` —
    only the row at its own position: answers then grow with the pages
    pulled, not with their square, so a world can be big enough for the
    executed-round cap to end a run before its services run dry.

    ``lefts_backup`` shares lefts' signature domains, profile kind,
    data, and scores — the ideal fallback — but is a distinct
    registered service, so every reroute onto it is observable.
    """
    registry = ServiceRegistry()
    registry.register(_table("lefts", "L", side, chunk, one_to_one))
    registry.register(_table("rights", "R", side, chunk, one_to_one))
    if sibling:
        registry.register(_table("lefts_backup", "L", side, chunk, one_to_one))
    registry.register_join_method("lefts", "rights", JoinMethod.MERGE_SCAN)
    key, lv, rv = Variable("K"), Variable("L"), Variable("R")
    query = ConjunctiveQuery(
        name="adaptive",
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
        fetches={0: fetches, 1: fetches},
    )
    return registry, query, plan


def make_flaky(registry, name, **schedule_kwargs):
    """Wrap one registered service with seeded injected faults."""
    schedule = FaultSchedule(seed=7, **schedule_kwargs)
    registry._services[name] = FlakyService(
        registry._services[name], schedule
    )


def row_view(result):
    """The observable answer: bindings + rank keys, in order."""
    return [(dict(r.bindings), r.rank_key()) for r in result.rows]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class InterleavingClock(FakeClock):
    """A clock whose next read first runs ``writer``: a transition
    recorded by another thread in the middle of a state read."""

    def __init__(self):
        super().__init__()
        self.writer = None

    def __call__(self):
        writer, self.writer = self.writer, None
        if writer is not None:
            writer()
        return self.now


# -- drift monitor ----------------------------------------------------------


class TestDriftMonitor:
    def _profile(self, response_time=1.0):
        return search_profile(chunk_size=2, response_time=response_time)

    def test_under_threshold_only_records(self):
        monitor = DriftMonitor()
        profile = self._profile()
        for _ in range(10):
            monitor.observe("svc", profile, 2.9)
        # Silent, but recorded: the mean that finally trips carries
        # every earlier observation.
        with pytest.raises(PlanDrift) as excinfo:
            monitor.observe("svc", profile, 10.0)
        assert excinfo.value.fetches == 11
        assert excinfo.value.observed == pytest.approx(39.0 / 11)

    def test_raises_once_mean_crosses_threshold(self):
        monitor = DriftMonitor()
        profile = self._profile()
        monitor.observe("svc", profile, 25.0)
        monitor.observe("svc", profile, 25.0)  # below MIN_FETCHES: silent
        with pytest.raises(PlanDrift) as excinfo:
            monitor.observe("svc", profile, 25.0)
        drift = excinfo.value
        assert drift.service == "svc"
        assert drift.observed == pytest.approx(25.0)
        assert drift.expected == pytest.approx(1.0)
        assert drift.fetches == 3

    def test_adapted_services_are_exempt(self):
        monitor = DriftMonitor(adapted=frozenset({"svc"}))
        for _ in range(5):
            monitor.observe("svc", self._profile(), 1000.0)

    def test_missing_or_zero_profile_is_ignored(self):
        monitor = DriftMonitor()
        monitor.observe("svc", None, 1000.0)
        zero = dataclasses.replace(self._profile(), response_time=0.0)
        monitor.observe("svc", zero, 1000.0)
        # Neither was recorded: the third profiled fetch is the third.
        monitor.observe("svc", self._profile(), 1000.0)
        monitor.observe("svc", self._profile(), 1000.0)
        with pytest.raises(PlanDrift) as excinfo:
            monitor.observe("svc", self._profile(), 1000.0)
        assert excinfo.value.fetches == 3


# -- circuit breaker --------------------------------------------------------


class TestCircuitBreaker:
    def _breaker(self):
        clock = FakeClock()
        return CircuitBreaker(clock=clock), clock

    def test_starts_closed_and_ignores_no_signal(self):
        breaker, _ = self._breaker()
        assert breaker.state("svc") is BreakerState.CLOSED
        breaker.record("svc")  # a plan that never touched the service
        assert breaker.state("svc") is BreakerState.CLOSED
        assert breaker.snapshot() == {}

    def test_consecutive_dropped_requests_open(self):
        breaker, _ = self._breaker()
        breaker.record("svc", dropped=True)
        assert breaker.state("svc") is BreakerState.CLOSED
        breaker.record("svc", dropped=True)
        assert breaker.state("svc") is BreakerState.OPEN
        assert breaker.open_services() == ("svc",)

    def test_healthy_request_resets_the_failure_count(self):
        breaker, _ = self._breaker()
        breaker.record("svc", dropped=True)
        breaker.record("svc", fetches=4, mean_latency=1.0, expected=1.0)
        breaker.record("svc", dropped=True)
        assert breaker.state("svc") is BreakerState.CLOSED

    def test_sustained_slow_latency_opens_with_override(self):
        breaker, _ = self._breaker()
        for _ in range(2):
            breaker.record("svc", fetches=3, mean_latency=25.0, expected=1.0)
        assert breaker.state("svc") is BreakerState.OPEN
        assert breaker.response_time_overrides() == {
            "svc": pytest.approx(25.0)
        }

    def test_too_few_fetches_make_latency_meaningless(self):
        breaker, _ = self._breaker()
        for _ in range(5):
            breaker.record("svc", fetches=1, mean_latency=1000.0, expected=1.0)
        # One slow page is a straggler, not a drift: the request even
        # counts as healthy traffic.
        assert breaker.state("svc") is BreakerState.CLOSED
        assert breaker.response_time_overrides() == {}

    def test_cooldown_grants_a_half_open_probe(self):
        breaker, clock = self._breaker()
        breaker.record("svc", dropped=True)
        breaker.record("svc", dropped=True)
        clock.advance(29.9)
        assert breaker.state("svc") is BreakerState.OPEN
        clock.advance(0.1)
        assert breaker.state("svc") is BreakerState.HALF_OPEN
        # Half-open lifts the cost override so the probe runs at face
        # value, and the service no longer pre-routes to siblings.
        assert breaker.response_time_overrides() == {}
        assert breaker.open_services() == ()

    def test_healthy_probe_closes_fully(self):
        breaker, clock = self._breaker()
        for _ in range(2):
            breaker.record("svc", fetches=3, mean_latency=25.0, expected=1.0)
        clock.advance(30.0)
        assert breaker.state("svc") is BreakerState.HALF_OPEN
        breaker.record("svc", fetches=3, mean_latency=1.0, expected=1.0)
        assert breaker.state("svc") is BreakerState.CLOSED
        assert breaker.snapshot() == {}

    def test_failed_probe_reopens_and_restarts_the_cooldown(self):
        breaker, clock = self._breaker()
        breaker.record("svc", dropped=True)
        breaker.record("svc", dropped=True)
        clock.advance(30.0)
        assert breaker.state("svc") is BreakerState.HALF_OPEN
        breaker.record("svc", dropped=True)
        assert breaker.state("svc") is BreakerState.OPEN
        clock.advance(29.9)
        assert breaker.state("svc") is BreakerState.OPEN
        clock.advance(0.1)
        assert breaker.state("svc") is BreakerState.HALF_OPEN

    def test_a_read_cannot_undo_a_failed_probe(self):
        """A failed probe recorded while another thread reads the state
        (here: inside the reader's clock read) still restarts the
        cooldown — a state read writes nothing."""
        clock = InterleavingClock()
        breaker = CircuitBreaker(clock=clock)
        breaker.record("svc", dropped=True)
        breaker.record("svc", dropped=True)
        clock.advance(30.0)
        clock.writer = lambda: breaker.record("svc", dropped=True)
        breaker.state("svc")  # the reader the failed probe interleaves
        assert breaker.state("svc") is BreakerState.OPEN
        clock.advance(29.9)
        assert breaker.state("svc") is BreakerState.OPEN
        clock.advance(0.1)
        assert breaker.state("svc") is BreakerState.HALF_OPEN

    def test_snapshot_reports_every_non_closed_breaker(self):
        breaker, _ = self._breaker()
        breaker.record("a", dropped=True)
        for _ in range(2):
            breaker.record("b", fetches=3, mean_latency=25.0, expected=1.0)
        snapshot = breaker.snapshot()
        assert snapshot["a"]["state"] == "closed"
        assert snapshot["a"]["consecutive_failures"] == 1
        assert snapshot["b"]["state"] == "open"
        assert snapshot["b"]["observed_response_time"] == pytest.approx(25.0)


# -- siblings and the adjusted registry view --------------------------------


class TestSiblingsAndAdjustedView:
    def test_siblings_require_identical_shape(self):
        registry, _, _ = build_world(sibling=True)
        assert registry.siblings("lefts", ("ioo",)) == ("lefts_backup",)
        assert registry.siblings("lefts_backup") == ("lefts",)
        # rights has different signature domains: no siblings at all.
        assert registry.siblings("rights") == ()

    def test_adjusted_view_raises_but_never_lowers(self):
        registry, _, _ = build_world()
        view = AdjustedRegistry(registry, {"lefts": 25.0, "rights": 0.5})
        assert view.profile("lefts").response_time == pytest.approx(25.0)
        # A faster-than-profiled service needs no re-plan.
        assert view.profile("rights").response_time == pytest.approx(1.0)

    def test_adjusted_epoch_keys_separately_and_transparently(self):
        registry, _, _ = build_world()
        base = registry.content_epoch()
        assert AdjustedRegistry(registry, {}).content_epoch() == base
        adjusted = AdjustedRegistry(registry, {"lefts": 25.0})
        assert adjusted.content_epoch() != base
        # Same overrides, same epoch: the key is content-determined.
        again = AdjustedRegistry(registry, {"lefts": 25.0})
        assert again.content_epoch() == adjusted.content_epoch()


# -- the zero-drift differential -------------------------------------------


MODES = (ExecutionMode.PARALLEL, ExecutionMode.STREAMED)


def keep_plan(observed):
    """A ``replan`` that splices without a new plan."""
    return None


class TestZeroDriftDifferential:
    """Drift monitoring armed but idle must be structurally invisible."""

    @staticmethod
    def _pair(side, chunk, fetches, mode, **flaky):
        """``replan=None`` and a ``replan`` over identical worlds."""
        executors = []
        for replan in (None, keep_plan):
            registry, query, plan = build_world(
                side=side, chunk=chunk, fetches=fetches, sibling=True
            )
            if flaky:
                make_flaky(registry, "lefts", **flaky)
            executors.append(
                ProgressiveExecutor(
                    registry=registry,
                    plan=plan,
                    head=tuple(query.head),
                    mode=mode,
                    replan=replan,
                )
            )
        return executors

    @settings(max_examples=25, deadline=None)
    @given(
        side=st.integers(min_value=1, max_value=8),
        chunk=st.integers(min_value=1, max_value=4),
        fetches=st.integers(min_value=1, max_value=3),
        mode=st.sampled_from(MODES),
        k=st.integers(min_value=1, max_value=10),
        extra=st.integers(min_value=0, max_value=6),
    )
    def test_adaptive_is_bit_identical_to_static(
        self, side, chunk, fetches, mode, k, extra
    ):
        static, adaptive = self._pair(side, chunk, fetches, mode)
        results = [static.run(k), adaptive.run(k)]
        if extra:
            results = [static.more(extra), adaptive.more(extra)]
        assert row_view(results[1]) == row_view(results[0])
        assert adaptive.replans == 0
        assert adaptive.drift_events == []
        # Full accounting, not just answers: every round's fetch
        # vector, call counts, virtual elapsed, and per-service stats
        # must match field for field.
        assert len(adaptive.rounds) == len(static.rounds)
        for ours, theirs in zip(adaptive.rounds, static.rounds):
            assert ours.fetches == theirs.fetches
            assert ours.answers == theirs.answers
            assert ours.new_calls == theirs.new_calls
            assert ours.elapsed == pytest.approx(theirs.elapsed)
            assert ours.resumed == theirs.resumed
            assert ours.stats == theirs.stats

    def test_monitoring_really_is_armed(self):
        """The differential must not pass because the monitor is off."""
        shape = dict(side=8, chunk=2, fetches=3, mode=ExecutionMode.PARALLEL)
        static, adaptive = self._pair(**shape)
        assert static.engine.drift_monitor is None
        assert adaptive.engine.drift_monitor is not None
        adaptive.run(4)
        assert adaptive.replans == 0  # fetches were watched, none drifted
        # The same pair over a slow ``lefts``: only the armed one reacts.
        static, adaptive = self._pair(**shape, delay_rate=1.0)
        static.run(4)
        adaptive.run(4)
        assert static.drift_events == []
        assert [e.service for e in adaptive.drift_events] == ["lefts"]


# -- sibling fallback in the static engine ---------------------------------


RESILIENT = ResilienceConfig(partial_results=True)


class TestSiblingFallback:
    @pytest.mark.parametrize(
        "mode", (ExecutionMode.PARALLEL, ExecutionMode.STREAMED),
        ids=lambda m: m.value,
    )
    def test_failed_unit_is_served_by_the_sibling(self, mode):
        registry, query, plan = build_world(sibling=True)
        make_flaky(registry, "lefts", fail_rate=1.0)
        executor = ProgressiveExecutor(
            registry=registry, plan=plan, head=tuple(query.head),
            mode=mode, resilience=RESILIENT,
        )
        result = executor.run(4)

        oracle_registry, oracle_query, oracle_plan = build_world(sibling=True)
        oracle = ProgressiveExecutor(
            registry=oracle_registry, plan=oracle_plan,
            head=tuple(oracle_query.head), mode=mode,
        ).run(4)
        assert row_view(result) == row_view(oracle)

        certificate = result.certificate
        assert certificate is not None
        assert certificate.dropped == ()
        assert certificate.substituted, "reroute must be on the certificate"
        assert all(
            unit.service == "lefts" and unit.replacement == "lefts_backup"
            for unit in certificate.substituted
        )
        assert result.stats.substituted_blocks == len(certificate.substituted)

    def test_without_a_sibling_the_unit_drops(self):
        registry, query, plan = build_world(sibling=False)
        make_flaky(registry, "lefts", fail_rate=1.0)
        executor = ProgressiveExecutor(
            registry=registry, plan=plan, head=tuple(query.head),
            mode=ExecutionMode.PARALLEL, resilience=RESILIENT,
        )
        result = executor.run(4)
        certificate = result.certificate
        assert certificate.substituted == ()
        assert "lefts" in certificate.dropped_services

    def test_exhausted_siblings_demote_the_original_unit(self):
        registry, query, plan = build_world(sibling=True)
        make_flaky(registry, "lefts", fail_rate=1.0)
        make_flaky(registry, "lefts_backup", fail_rate=1.0)
        executor = ProgressiveExecutor(
            registry=registry, plan=plan, head=tuple(query.head),
            mode=ExecutionMode.PARALLEL, resilience=RESILIENT,
        )
        result = executor.run(4)
        certificate = result.certificate
        # A unit is never reported both substituted and dropped: once
        # every sibling is exhausted the *original* identity drops.
        assert certificate.substituted == ()
        assert certificate.dropped_services == ("lefts",)
        assert result.rows == []


# -- drift-triggered splices ------------------------------------------------


def _adaptive(registry, query, plan, replan=keep_plan, **options):
    return ProgressiveExecutor(
        registry=registry, plan=plan, head=tuple(query.head),
        mode=ExecutionMode.PARALLEL, replan=replan, **options,
    )


def build_wide_world(services, side=6, chunk=2, fetches=3):
    """*services* parallel search services joined on one key, no two
    of them siblings (each scores its own domain)."""
    registry = ServiceRegistry()
    key = Variable("K")
    atoms, head = [], [key]
    for index in range(services):
        name, value = f"s{index}", Variable(f"V{index}")
        registry.register(_table(name, f"V{index}", side, chunk))
        atoms.append(Atom(name, (Constant("q"), key, value)))
        head.append(value)
    query = ConjunctiveQuery(
        name="wide", head=tuple(head), atoms=tuple(atoms), predicates=()
    )
    plan = PlanBuilder(query, registry).build(
        tuple(registry.signature(f"s{i}").pattern("ioo") for i in range(services)),
        Poset(n=services),
        fetches={i: fetches for i in range(services)},
    )
    return registry, query, plan


class TestDriftSplice:
    #: Three pages per unit: a slow service trips at its third pull.
    WORLD = dict(fetches=3)

    def test_drift_splices_onto_the_sibling(self):
        registry, query, plan = build_world(sibling=True, **self.WORLD)
        make_flaky(registry, "lefts", delay_rate=1.0)
        executor = _adaptive(registry, query, plan)
        result = executor.run(4)

        assert executor.replans == 1
        (event,) = executor.drift_events
        assert event.service == "lefts"
        assert event.observed == pytest.approx(25.0)
        assert event.expected == pytest.approx(1.0)
        assert event.substituted_with == "lefts_backup"
        assert not event.replanned  # the callback kept the plan

        oracle_registry, oracle_query, oracle_plan = build_world(
            sibling=True, **self.WORLD
        )
        oracle = ProgressiveExecutor(
            registry=oracle_registry, plan=oracle_plan,
            head=tuple(oracle_query.head), mode=ExecutionMode.PARALLEL,
        ).run(4)
        assert row_view(result) == row_view(oracle)
        # The aborted attempt is an explicit zero-answer round whose
        # fetches stay accounted.
        aborted = executor.rounds[0]
        assert aborted.answers == 0
        assert aborted.stats.total_fetches > 0

    def test_splice_never_repulls_a_fetched_page(self):
        registry, query, plan = build_world(sibling=True, **self.WORLD)
        make_flaky(registry, "lefts", delay_rate=1.0)
        executor = _adaptive(registry, query, plan)
        executor.run(4)
        assert executor.replans == 1

        clean_registry, clean_query, clean_plan = build_world(
            sibling=True, **self.WORLD
        )
        clean = ProgressiveExecutor(
            registry=clean_registry, plan=clean_plan,
            head=tuple(clean_query.head), mode=ExecutionMode.PARALLEL,
        )
        clean.run(4)
        spliced_rights = sum(
            r.stats.service("rights").fetches
            for r in executor.rounds if r.stats is not None
        )
        clean_rights = sum(
            r.stats.service("rights").fetches
            for r in clean.rounds if r.stats is not None
        )
        # The shared logical cache re-serves every page the aborted
        # attempt pulled: the untouched feed's remote traffic never
        # exceeds a drift-free run's.
        assert spliced_rights <= clean_rights

    def test_drift_without_sibling_recosts_and_settles(self):
        registry, query, plan = build_world(sibling=False, **self.WORLD)
        make_flaky(registry, "lefts", delay_rate=1.0)
        seen = []

        def replan(overrides):
            seen.append(dict(overrides))
            return None  # keep the plan: only re-cost knowledge changes

        executor = _adaptive(registry, query, plan, replan=replan)
        result = executor.run(4)
        assert seen == [{"lefts": pytest.approx(25.0)}]
        (event,) = executor.drift_events
        assert event.substituted_with is None
        assert not event.replanned
        # The spliced monitor exempts the adapted service: the same
        # slow lefts never re-trips, even across a continuation.
        executor.more(2)
        assert executor.replans == 1
        assert len(result.rows) >= 4

    def test_replans_stop_at_the_cap(self):
        """Every service of the plan turns slow; the run re-plans on the
        first ``MAX_REPLANS`` and finishes the rest un-monitored."""
        services = MAX_REPLANS + 1
        registry, query, plan = build_wide_world(services)
        for index in range(services):
            make_flaky(registry, f"s{index}", delay_rate=1.0)
        executor = _adaptive(registry, query, plan)
        result = executor.run(4)
        assert executor.replans == MAX_REPLANS
        assert [e.service for e in executor.drift_events] == [
            f"s{index}" for index in range(MAX_REPLANS)
        ]
        assert executor.engine.drift_monitor is None
        clean = _adaptive(*build_wide_world(services), replan=None).run(4)
        assert row_view(result) == row_view(clean)

    def test_max_rounds_restarts_at_each_splice(self):
        """The executed-round budget bounds the rounds *per plan*: a
        run that drifted once may execute ``MAX_ROUNDS`` rounds on the
        aborted plan's successor too.  One row per page, each row
        joining one row: a round of F pages answers F rows, and 600
        rows a side outlast every factor the cap lets a run reach."""
        world = dict(side=600, chunk=1, fetches=2, one_to_one=True)
        registry, query, plan = build_world(**world)
        make_flaky(registry, "lefts", delay_rate=1.0)
        executor = _adaptive(registry, query, plan)
        executor.run(600)
        assert executor.replans == 1
        kinds = [
            "aborted" if r.answers == 0 and not r.resumed else "executed"
            for r in executor.rounds
        ]
        # Round 1 ran (two remote lefts pages), round 2 tripped the
        # monitor on the third, then the spliced run got a fresh
        # budget: MAX_ROUNDS more rounds, from 4 pages up to 512.
        assert kinds == ["executed", "aborted"] + ["executed"] * MAX_ROUNDS
        assert [r.answers for r in executor.rounds[2:]] == [
            4 * 2**round for round in range(MAX_ROUNDS)
        ]
        static = _adaptive(*build_world(**world), replan=None)
        static.run(600)
        assert len(static.rounds) == MAX_ROUNDS
        assert static.rounds[-1].answers == 2 * 2 ** (MAX_ROUNDS - 1)


# -- the serving layer's breaker -------------------------------------------


def _serve(registry, clock, **options):
    return QueryService(
        registry=registry,
        metric=ExecutionTimeMetric(),
        k_default=4,
        breaker=CircuitBreaker(clock=clock),
        **options,
    )


def _record_slow(breaker, service, requests=2):
    """*requests* unhealthy requests' worth of slow traffic."""
    for _ in range(requests):
        breaker.record(service, fetches=3, mean_latency=25.0, expected=1.0)


class TestServingBreaker:
    #: One row per page: the optimizer's plan pulls at least three
    #: pages of ``lefts`` per request.
    WORLD = dict(chunk=1)

    def test_substitution_failures_open_the_breaker(self):
        registry, query, _ = build_world(sibling=True)
        make_flaky(registry, "lefts", fail_rate=1.0)
        clock = FakeClock()
        service = _serve(registry, clock)

        first = service.submit(query, k=4)
        assert first.partial is not None
        assert first.partial["substituted"], (
            "sibling fallback must be visible on the response"
        )
        # A substitution is a failure of the original service, even
        # though the answer survived: the breaker learns it, and the
        # second such request opens it.
        assert service.breaker.state("lefts") is BreakerState.CLOSED
        second = service.submit(query, k=4)
        assert second.partial["substituted"]
        assert service.breaker.state("lefts") is BreakerState.OPEN
        assert service.snapshot()["breaker"]["lefts"]["state"] == "open"

        third = service.submit(query, k=4)
        assert third.rows == first.rows
        assert third.stats["substituted_blocks"] >= 1

    def test_latency_breaker_adjusts_costs_then_recovers(self):
        # No shared service cache: every request pulls its own pages,
        # so each one reports its service's latency to the breaker.
        registry, query, _ = build_world(sibling=False, **self.WORLD)
        clean_lefts = registry._services["lefts"]
        make_flaky(registry, "lefts", delay_rate=1.0)
        clock = FakeClock()
        service = _serve(registry, clock, share_service_cache=False)

        first = service.submit(query, k=4)
        # The request itself already re-planned mid-run...
        assert first.stats["replans"] >= 1
        # ...and its observed latency counts against the breaker; the
        # second slow request opens it.
        assert service.breaker.state("lefts") is BreakerState.CLOSED
        service.submit(query, k=4)
        assert service.breaker.state("lefts") is BreakerState.OPEN
        assert service.breaker.response_time_overrides() == {
            "lefts": pytest.approx(25.0)
        }

        # While open, planning runs under the adjusted registry view:
        # the response's epoch proves which profile costed the plan.
        third = service.submit(query, k=4)
        assert third.epoch != first.epoch
        assert third.rows == first.rows

        # Past the cooldown the breaker half-opens: overrides lift so
        # the probe runs the service at face value, and a healed
        # service closes the breaker for good.
        clock.advance(30.0)
        assert service.breaker.state("lefts") is BreakerState.HALF_OPEN
        registry._services["lefts"] = clean_lefts
        probe = service.submit(query, k=4)
        assert probe.epoch == first.epoch
        assert probe.rows == first.rows
        assert service.breaker.state("lefts") is BreakerState.CLOSED
        assert service.snapshot()["breaker"] == {}

    def test_submit_never_calls_the_service_the_breaker_marks_down(self):
        """With a breaker open on ``lefts`` and a healthy sibling,
        ``submit`` reroutes the open service up front
        (``_apply_breaker_routing``): ``lefts`` is never called, every
        block it owned is served by the sibling and recorded as
        substituted, and the answer is the healthy world's."""
        registry, query, _ = build_world(sibling=True)
        service = _serve(registry, FakeClock())
        _record_slow(service.breaker, "lefts")
        assert service.breaker.open_services() == ("lefts",)
        proxies = _count_invocations(registry)
        response = service.submit(query, k=4)
        assert proxies["lefts"].invocations == 0
        assert proxies["lefts_backup"].invocations > 0
        assert response.partial["substituted"]

        healthy_registry, healthy_query, _ = build_world(sibling=True)
        healthy = _serve(healthy_registry, FakeClock()).submit(healthy_query, k=4)
        assert response.rows == healthy.rows
        assert response.rank_keys == healthy.rank_keys

    def test_submit_plans_under_the_view_a_repeat_submit_hits(self):
        """With a breaker open, ``submit`` costs its plan against the
        adjusted registry view and stores it under that view's epoch:
        the repeat submission, the breaker still open, is a memory hit
        on the same plan."""
        registry, query, _ = build_world(sibling=False)
        service = _serve(registry, FakeClock())
        _record_slow(service.breaker, "lefts")
        assert service.breaker.response_time_overrides() == {"lefts": 25.0}

        first = service.submit(query, k=4)
        assert first.provenance == "optimized"
        assert first.epoch != registry.content_epoch()
        repeat = service.submit(query, k=4)
        assert repeat.provenance == "memory"
        assert repeat.epoch == first.epoch
        assert service.stats.optimizer_runs == 1

    def test_a_repeat_submit_rides_the_pages_the_sibling_served(self):
        """Pages a sibling served land in the shared service cache: the
        repeat submission, the breaker still open, makes no remote call,
        still never calls ``lefts``, and answers the same rows."""
        registry, query, _ = build_world(sibling=True)
        service = _serve(registry, FakeClock())
        _record_slow(service.breaker, "lefts")
        proxies = _count_invocations(registry)
        first = service.submit(query, k=4)
        repeat = service.submit(query, k=4)
        assert service.breaker.open_services() == ("lefts",)
        assert proxies["lefts"].invocations == 0
        assert first.stats["service_calls"] > 0
        assert repeat.stats["service_calls"] == 0
        assert repeat.partial["substituted"]
        assert (repeat.rows, repeat.rank_keys) == (first.rows, first.rank_keys)

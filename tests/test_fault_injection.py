"""Fault-injection conformance: misbehaving services never corrupt answers.

Uses the :mod:`repro.testing.faults` kit to corrupt service pages on a
seeded, call-order-independent schedule, then runs the same plan down
two paths — demand-driven lazy streaming and the full-scan
oracle (eager materialization) — over the *same* faulted
world:

* data faults (truncated pages, duplicated tuples, out-of-order
  ranks) keep rank floors sound, so both paths must stay
  **bit-identical**: a lazily skipped page can never hide the
  corruption-induced answer changes the oracle sees;
* page failures must surface as a clean :class:`InjectedFault` —
  a path either raises or returns the exact certified answer for the
  faulted world; silently dropping answers is the one forbidden
  outcome (if the oracle succeeded, every page the lazy path touches
  is a subset of the oracle's, so the lazy path must succeed with the
  identical answer).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.testing.faults import (
    FAULT_KINDS,
    FaultSchedule,
    FlakyService,
    InjectedFault,
    wrap_registry_flaky,
)
from repro.execution.engine import ExecutionEngine
from repro.testing.reference import compose_ranking, reference_execute
from repro.model.atoms import Atom
from repro.model.query import ConjunctiveQuery
from repro.model.schema import signature
from repro.model.terms import Constant, Variable
from repro.plans.builder import PlanBuilder, Poset
from repro.services.profile import search_profile
from repro.services.registry import JoinMethod, ServiceRegistry
from repro.services.table import TableSearchService


def _signature(rows):
    return [(dict(r.bindings), r.ranks) for r in rows]


def _pair_plan(side=9, chunk=2, fetches=5):
    """Two single-feed search services, merged at the final join."""
    registry = ServiceRegistry()
    for name, var in (("lefts", "L"), ("rights", "R")):
        registry.register(
            TableSearchService(
                signature(name, ["Q", "K", var], ["ioo"]),
                search_profile(chunk_size=chunk, response_time=1.0),
                [("q", i % 3, i) for i in range(side)],
                score=lambda row: float(-row[2]),
            )
        )
    registry.register_join_method("lefts", "rights", JoinMethod.MERGE_SCAN)
    key, lv, rv = Variable("K"), Variable("L"), Variable("R")
    query = ConjunctiveQuery(
        name="flakypair",
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
    return registry, tuple(query.head), plan


def _serial_plan(feeds=3, per=6, chunk=2, fetches=3):
    """feeder → multi-feed lefts, joined with single-feed rights."""
    registry = ServiceRegistry()
    registry.register(
        TableSearchService(
            signature("feeder", ["Q", "X"], ["io"]),
            search_profile(chunk_size=4, response_time=1.0),
            [("q", x) for x in range(feeds)],
            score=lambda row: float(-row[1]),
        )
    )
    registry.register(
        TableSearchService(
            signature("lefts", ["X", "K", "L"], ["ioo"]),
            search_profile(chunk_size=chunk, response_time=1.0),
            [(x, i % 3, i) for x in range(feeds) for i in range(per)],
            score=lambda row: float(-row[2]),
        )
    )
    registry.register(
        TableSearchService(
            signature("rights", ["Q", "K", "R"], ["ioo"]),
            search_profile(chunk_size=chunk, response_time=1.0),
            [("q", i % 3, i) for i in range(per)],
            score=lambda row: float(-row[2]),
        )
    )
    registry.register_join_method("lefts", "rights", JoinMethod.MERGE_SCAN)
    key = Variable("K")
    x, lv, rv = Variable("X"), Variable("L"), Variable("R")
    query = ConjunctiveQuery(
        name="flakyserial",
        head=(key, lv, rv),
        atoms=(
            Atom("feeder", (Constant("q"), x)),
            Atom("lefts", (x, key, lv)),
            Atom("rights", (Constant("q"), key, rv)),
        ),
        predicates=(),
    )
    plan = PlanBuilder(query, registry).build(
        (
            registry.signature("feeder").pattern("io"),
            registry.signature("lefts").pattern("ioo"),
            registry.signature("rights").pattern("ioo"),
        ),
        Poset(n=3, pairs=frozenset({(0, 1)})),
        fetches={0: 2, 1: fetches, 2: fetches},
    )
    return registry, tuple(query.head), plan


PLAN_SHAPES = {"pair": _pair_plan, "serial": _serial_plan}


class TestFaultSchedule:
    def test_decisions_are_call_order_independent(self):
        schedule = FaultSchedule(
            seed=7, fail_rate=0.18, truncate_rate=0.18, duplicate_rate=0.18,
            reorder_rate=0.18, delay_rate=0.18,
        )
        first = [
            schedule.decide("svc", "ioo", {0: "q"}, page) for page in range(50)
        ]
        again = [
            schedule.decide("svc", "ioo", {0: "q"}, page)
            for page in reversed(range(50))
        ]
        assert first == list(reversed(again))
        # With 90% fault mass over 50 draws, every kind should appear.
        assert set(first) >= set(FAULT_KINDS)

    def test_zero_rates_never_inject(self):
        schedule = FaultSchedule(seed=3)
        assert all(
            schedule.decide("svc", "ioo", {0: "q"}, page) is None
            for page in range(30)
        )


class TestFlakyServiceUnits:
    def _service(self):
        return TableSearchService(
            signature("spots", ["Q", "S"], ["io"]),
            search_profile(chunk_size=3, response_time=1.0),
            [("q", i) for i in range(7)],
            score=lambda row: float(-row[1]),
        )

    def _invoke(self, schedule, page=0):
        inner = self._service()
        flaky = FlakyService(inner, schedule)
        pattern = inner.signature.pattern("io")
        clean = inner.invoke(pattern, {0: "q"}, page=page)
        return clean, flaky.invoke(pattern, {0: "q"}, page=page), flaky

    def test_truncate_drops_the_last_tuple(self):
        clean, faulted, flaky = self._invoke(
            FaultSchedule(seed=1, truncate_rate=1.0)
        )
        assert faulted.tuples == clean.tuples[:-1]
        assert faulted.ranks == clean.ranks[:-1]
        assert faulted.has_more == clean.has_more
        assert flaky.injected["truncate"] == 1

    def test_duplicate_repeats_the_last_tuple(self):
        clean, faulted, _ = self._invoke(
            FaultSchedule(seed=1, duplicate_rate=1.0)
        )
        assert faulted.tuples == clean.tuples + (clean.tuples[-1],)
        assert faulted.ranks == clean.ranks + (clean.ranks[-1],)

    def test_reorder_reverses_the_page(self):
        clean, faulted, _ = self._invoke(
            FaultSchedule(seed=1, reorder_rate=1.0)
        )
        assert faulted.tuples == tuple(reversed(clean.tuples))
        assert faulted.ranks == tuple(reversed(clean.ranks))

    def test_fail_raises_injected_fault(self):
        with pytest.raises(InjectedFault):
            self._invoke(FaultSchedule(seed=1, fail_rate=1.0))

    def test_wrapper_delegates_everything_else(self):
        inner = self._service()
        flaky = FlakyService(inner, FaultSchedule(seed=1))
        assert flaky.name == "spots"
        assert flaky.signature is inner.signature
        assert flaky.profile is inner.profile
        flaky.reset()  # must reach the inner latency model


class TestDataFaultsStayOracleEquivalent:
    """Truncate/duplicate/reorder keep every path bit-identical."""

    @given(
        st.integers(0, 10**6),
        st.sampled_from(sorted(PLAN_SHAPES)),
        st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_lazy_equals_eager_equals_oracle(self, seed, shape, k):
        registry, head, plan = PLAN_SHAPES[shape]()
        schedule = FaultSchedule(
            seed=seed, truncate_rate=0.25, duplicate_rate=0.2,
            reorder_rate=0.2,
        )
        wrappers = wrap_registry_flaky(registry, schedule)
        lazy = ExecutionEngine(registry).execute(plan, head=head, k=k)
        full = ExecutionEngine(registry).execute(plan, head=head)
        expected = compose_ranking(reference_execute(plan, registry).rows, k)
        assert _signature(lazy.rows) == _signature(expected)
        # The full scan's fetches must have exercised the injection.
        assert sum(w.injected.total() for w in wrappers.values()) > 0
        # Lazy still never fetches beyond the (faulted) eager universe.
        assert lazy.stats.total_fetches <= full.stats.total_fetches

    def test_out_of_order_ranks_trip_the_monotonicity_guard(self):
        """A reordered page makes the owning block non-monotone: the
        lazy cursor must drain it (full-fetch fallback) rather than
        trust its floor — and the answers stay exact."""
        registry, head, plan = _pair_plan(side=12, chunk=3, fetches=4)
        wrap_registry_flaky(
            registry, FaultSchedule(seed=11, reorder_rate=1.0)
        )
        lazy = ExecutionEngine(registry).execute(plan, head=head, k=2)
        assert _signature(lazy.rows) == _signature(
            compose_ranking(reference_execute(plan, registry).rows, 2)
        )


class TestPageFailures:
    """Failures surface cleanly; they never silently drop answers."""

    @given(
        st.integers(0, 10**6),
        st.sampled_from(sorted(PLAN_SHAPES)),
        st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_fail_or_match_never_silently_diverge(self, seed, shape, k):
        registry, head, plan = PLAN_SHAPES[shape]()
        schedule = FaultSchedule(seed=seed, fail_rate=0.15)
        wrap_registry_flaky(registry, schedule)

        def run(budget):
            engine = ExecutionEngine(registry)
            try:
                return engine.execute(plan, head=head, k=budget), None
            except InjectedFault as fault:
                return None, fault

        oracle, oracle_fault = run(None)
        lazy, lazy_fault = run(k)
        if lazy is not None and oracle is not None:
            # Both survived: the lazy path saw a subset of the pages
            # the oracle fetched, and must agree bit-for-bit.
            assert _signature(lazy.rows) == _signature(
                compose_ranking(oracle.rows, k)
            )
        if oracle_fault is None:
            # Every page the lazy walk can demand is clean, so the
            # lazy path may not fail — and (above) may not diverge.
            assert lazy_fault is None
        # lazy failed: acceptable only as a clean InjectedFault, which
        # the except clause already guarantees (anything else — a
        # wrong answer, a swallowed error — fails this test).

    def test_poisoned_first_page_raises_on_every_path(self):
        registry, head, plan = _pair_plan()
        wrap_registry_flaky(registry, FaultSchedule(seed=5, fail_rate=1.0))
        for k in (None, 1):
            with pytest.raises(InjectedFault):
                ExecutionEngine(registry).execute(plan, head=head, k=k)

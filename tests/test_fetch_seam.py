"""The fetch seam (``repro.execution.fetch``): one path, one cell.

Every service page — eager, lazy, resumed — is pulled by
``UnitSource.fetch`` and charged to the execution's ``Accounting``
cell; demotions and reroutes live in one ``UnitRouting`` per engine,
and a session keeps its engine.  These tests pin what that buys:

* the eager and the lazy walk agree to the last counter on every
  built-in domain under every cache setting;
* a resumed round's retries land on the resuming round's statistics;
* a re-plan keeps masking and rerouting without copying any state;
* a demoted unit is never routed.
"""

from __future__ import annotations

import copy

import pytest

from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine, ExecutionMode
from repro.execution.progressive import ProgressiveExecutor
from repro.execution.resilience import ResilienceConfig
from repro.execution.results import compose_ranking
from repro.execution.stats import ExecutionStats
from repro.services.registry import JoinMethod
from repro.testing import FaultSchedule, wrap_registry_flaky

from tests.test_adaptive import build_world, make_flaky, row_view
from tests.test_domains_matrix import _domain, _optimized_plan_and_reference
from tests.test_lazy import _single_feed_plan

#: The one unit each of ``build_world``'s services is asked for.
UNIT_KEY = ("ioo", ((0, "q"),))


def _accounting(stats):
    return (
        {
            name: (
                s.calls, s.fetches, s.cache_hits, s.remote_cache_hits,
                s.tuples_fetched,
            )
            for name, s in stats.per_service.items()
        },
        stats.tuples_processed,
    )


@pytest.mark.parametrize("domain", ["travel", "bio", "biblio", "weekend", "news"])
@pytest.mark.parametrize("cache_setting", list(CacheSetting), ids=lambda c: c.value)
def test_eager_and_lazy_agree_to_the_last_counter(domain, cache_setting):
    registry, query, _ = _domain(domain)
    head = tuple(query.head)
    plan, _ = _optimized_plan_and_reference(domain)
    eager = ExecutionEngine(
        registry, cache_setting=cache_setting, mode=ExecutionMode.PARALLEL
    ).execute(plan, head=head)
    # A k beyond the plane drains every lazy cursor to its budget.
    lazy = ExecutionEngine(
        registry, cache_setting=cache_setting, mode=ExecutionMode.STREAMED
    ).execute(plan, head=head, k=10**9)
    assert eager.rows
    assert [(row.project(head), row.ranks) for row in lazy.rows] == [
        (row.project(head), row.ranks) for row in eager.rows
    ]
    assert _accounting(lazy.stats) == _accounting(eager.stats)


class TestResumedRoundAccounting:
    def test_retries_after_rebind_land_on_the_resuming_round(self):
        registry, query, plan = _single_feed_plan(
            JoinMethod.MERGE_SCAN, side=20, chunk=2, fetches=10
        )
        head = tuple(query.head)
        oracle = ExecutionEngine(registry, mode=ExecutionMode.PARALLEL).execute(
            plan, head=head
        )
        wrappers = wrap_registry_flaky(
            registry, FaultSchedule(seed=3, fail_rate=0.4), attempt_aware=True
        )
        engine = ExecutionEngine(
            registry,
            mode=ExecutionMode.STREAMED,
            resilience=ResilienceConfig(attempts=40),
        )
        first = engine.execute(plan, head=head, k=1)
        assert first.stream is not None
        created = copy.deepcopy(first.stats)
        injected_before = sum(w.injected["fail"] for w in wrappers.values())
        assert first.stats.retries == injected_before

        resumed = ExecutionStats()
        first.accounting.rebind(resumed)
        rows = first.stream.top(12)

        injected = sum(w.injected["fail"] for w in wrappers.values())
        assert injected > injected_before  # the resume really retried
        assert resumed.retries == injected - injected_before
        assert resumed.wasted_fetches == injected - injected_before
        assert resumed.retry_backoff > 0
        assert resumed.total_fetches > 0
        # The resumed pages start a new epoch: one call per unit pulled.
        assert resumed.total_calls == len(resumed.per_service)
        # The creating round's object is not mutated.
        assert first.stats == created
        assert [(r.bindings, r.rank_key()) for r in rows] == [
            (r.bindings, r.rank_key()) for r in compose_ranking(oracle.rows, 12)
        ]


class TestReplanSharesRouting:
    PARTIAL = ResilienceConfig(partial_results=True)

    def _executor(self, registry, query, plan):
        return ProgressiveExecutor(
            registry=registry, plan=plan, head=tuple(query.head),
            mode=ExecutionMode.PARALLEL, resilience=self.PARTIAL,
            replan=lambda observed: None,
        )

    def test_substitution_survives_a_second_splice(self):
        registry, query, plan = build_world(sibling=True, fetches=3)
        make_flaky(registry, "lefts", delay_rate=1.0)
        make_flaky(registry, "rights", delay_rate=1.0)
        executor = self._executor(registry, query, plan)
        first_engine = executor.engine
        routing = first_engine.routing
        result = executor.run(4)
        # lefts drifts first (spliced onto its sibling), then rights
        # (no sibling: re-costed only) — two splices, one engine.
        assert [e.service for e in executor.drift_events] == ["lefts", "rights"]
        assert executor.drift_events[0].substituted_with == "lefts_backup"
        assert executor.engine is first_engine
        assert executor.engine.routing is routing
        # After the *second* splice lefts is still served from the
        # sibling the first one chose (out of the shared cache: the
        # second attempt already fetched the sibling's pages).
        final = executor.rounds[-1].stats
        assert final.service("lefts_backup").cache_hits == 1
        assert final.service("lefts").cache_hits == 0
        assert final.service("lefts").fetches == 0
        assert [
            (unit.service, unit.replacement)
            for unit in result.certificate.substituted
        ] == [("lefts", "lefts_backup")]
        clean_registry, clean_query, clean_plan = build_world(
            sibling=True, fetches=3
        )
        clean = self._executor(clean_registry, clean_query, clean_plan).run(4)
        assert row_view(result) == row_view(clean)

    def test_a_unit_masked_before_the_splice_stays_masked(self):
        registry, query, plan = build_world(sibling=True, fetches=3)
        make_flaky(registry, "lefts", delay_rate=1.0)
        executor = self._executor(registry, query, plan)
        first_engine = executor.engine
        executor.engine.mask_unit("rights", UNIT_KEY)
        result = executor.run(4)
        assert executor.replans == 1
        assert executor.engine is first_engine
        assert [unit.unit for unit in result.certificate.dropped] == [
            ("rights", UNIT_KEY)
        ]
        for round_ in executor.rounds:
            assert round_.stats.service("rights").fetches == 0
        assert result.rows == []


class TestMaskedBeforeRouted:
    @pytest.mark.parametrize(
        "mode", (ExecutionMode.PARALLEL, ExecutionMode.STREAMED),
        ids=("eager", "lazy"),
    )
    def test_a_demoted_unit_is_never_routed(self, mode):
        registry, query, plan = build_world(sibling=True)
        engine = ExecutionEngine(
            registry, mode=mode,
            resilience=ResilienceConfig(partial_results=True),
        )
        engine.routing.substitute_service("lefts", "lefts_backup")
        engine.mask_unit("lefts", UNIT_KEY)
        routed = []
        route = engine.routing.route

        def spy(service, input_key):
            routed.append((service, input_key))
            return route(service, input_key)

        engine.routing.route = spy
        result = engine.execute(plan, head=tuple(query.head), k=2)
        # Routing is live (the healthy unit went through it) ...
        assert routed == [("rights", UNIT_KEY)]
        # ... and the demoted unit was neither resurrected nor served.
        assert result.rows == []
        assert result.certificate.substituted == ()
        assert "lefts_backup" not in result.stats.per_service
        assert result.stats.service("lefts").fetches == 0

"""Certificate attribution: each answer's units, read off its record chain.

A partial-result certificate attributes every answer to the ``(service,
input setting)`` units it was pulled from by walking the answer's
record chain (``repro.execution.fetch.page_records``, the one way from a
record to its unit).  The reference reads the same units off the
answer's own values (``repro.testing.reference_answer_units``).  The
two must agree token for token on the runs where a chain and the
values could part: a unit a sibling served, a service rerouted before
its first fetch, a drift splice, resumed and grown sessions, a demoted
unit under a join and a head two lookups share.  Tokens render their
input items sorted, so CI also runs this suite under
``PYTHONHASHSEED=0``.
"""

from __future__ import annotations

import pytest

from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.engine import ExecutionEngine
from repro.execution.progressive import ProgressiveExecutor
from repro.execution.resilience import ResilienceConfig
from repro.model.parser import parse_query
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.plans.builder import PlanBuilder
from repro.sources.news import news_registry
from repro.sources.travel import travel_registry
from repro.testing import (
    FaultSchedule,
    chain_poset,
    mask_unit,
    reference_answer_units,
    wrap_registry_flaky,
)

from tests.test_adaptive import RESILIENT, build_world, keep_plan, make_flaky
from tests.test_fault_injection import PLAN_SHAPES, _serial_plan
from tests.test_lazy_chain import _NEWS_TEMPLATE, _TRAVEL_TEMPLATE


def _agrees(result):
    """The certificate's attribution is the values-based one."""
    certificate = result.certificate
    assert certificate is not None
    assert certificate.answer_units == reference_answer_units(
        result.program, result.rows, certificate.substituted
    )
    return certificate


def _services(certificate):
    """Every service an answer of *certificate* is attributed to."""
    return {
        token.split("[")[0]
        for units in certificate.answer_units
        for token in units
    }


def _session(registry, query, plan, **options):
    return ProgressiveExecutor(
        registry=registry, plan=plan, head=tuple(query.head),
        resilience=RESILIENT, **options,
    )


@pytest.mark.parametrize("k", (None, 4), ids=("full-scan", "top-k"))
def test_a_unit_its_sibling_served(k):
    registry, query, plan = build_world(sibling=True)
    make_flaky(registry, "lefts", fail_rate=1.0)
    if k is None:
        result = ExecutionEngine(registry, resilience=RESILIENT).execute(
            plan, head=tuple(query.head)
        )
    else:
        result = _session(registry, query, plan).run(k)
    certificate = _agrees(result)
    assert result.rows and certificate.substituted
    assert _services(certificate) == {"lefts_backup", "rights"}


def test_a_service_rerouted_before_its_first_fetch():
    """A breaker's pre-substitution: every unit of the service is
    served by the sibling from its first page, resumed rounds too."""
    registry, query, plan = build_world(sibling=True)
    executor = _session(registry, query, plan)
    executor.engine.routing.substitute_service("lefts", "lefts_backup")
    for result in (executor.run(4), executor.more(8)):
        certificate = _agrees(result)
        assert result.rows and certificate.substituted
        assert _services(certificate) == {"lefts_backup", "rights"}
    assert executor.rounds[-1].resumed


@pytest.mark.parametrize("replanned", (False, True), ids=("kept", "replanned"))
def test_a_drift_splice(replanned):
    registry, query, plan = build_world(sibling=True, fetches=3)
    make_flaky(registry, "lefts", delay_rate=1.0)
    # The replacement runs rights before lefts: other node ids, another
    # program behind the answer.
    chained = PlanBuilder(query, registry).build(
        (
            registry.signature("lefts").pattern("ioo"),
            registry.signature("rights").pattern("ioo"),
        ),
        chain_poset(2, [1, 0]),
        fetches={0: 3, 1: 3},
    )
    executor = _session(
        registry, query, plan,
        replan=(lambda observed: chained) if replanned else keep_plan,
    )
    result = executor.run(36)
    (event,) = executor.drift_events
    assert event.replanned == replanned
    certificate = _agrees(result)
    assert len(result.rows) == 36
    assert _services(certificate) == {"lefts_backup", "rights"}


def _optimized_session(registry, template, k):
    query = parse_query(template)
    plan = Optimizer(
        registry, ExecutionTimeMetric(), OptimizerConfig(k=k)
    ).optimize(query).plan
    return _session(registry, query, plan)


def test_a_resumed_session():
    executor = _optimized_session(travel_registry(), _TRAVEL_TEMPLATE, 3)
    first = executor.run(3)
    more = executor.more(3)
    assert executor.rounds[-1].resumed
    assert len(more.rows) > len(first.rows)
    for result in (first, more):
        _agrees(result)


def test_a_grown_session_over_a_head_two_lookups_share():
    executor = _optimized_session(news_registry(), _NEWS_TEMPLATE, 3)
    first = executor.run(3)
    more = executor.more(12)
    assert any(r.grown for r in executor.rounds)
    assert len(more.rows) > len(first.rows)
    for result in (first, more):
        certificate = _agrees(result)
        for units in certificate.answer_units:
            # The one shared head record: one newssearch unit.
            names = [token.split("[")[0] for token in units]
            assert names.count("newssearch") == 1


@pytest.mark.parametrize("k", (None, 4), ids=("full-scan", "top-k"))
def test_a_demoted_unit_under_a_join(k):
    registry, head, plan = _serial_plan()
    engine = ExecutionEngine(registry, resilience=RESILIENT)
    mask_unit(engine, "lefts", ("ioo", ((0, 0),)))
    result = engine.execute(plan, head=head, k=k)
    certificate = _agrees(result)
    assert result.rows and certificate.dropped_services == ("lefts",)
    assert "lefts" in _services(certificate)


@pytest.mark.parametrize("seed", (3, 5, 11))
@pytest.mark.parametrize("shape", sorted(PLAN_SHAPES))
def test_units_demoted_by_exhausted_retries(shape, seed):
    registry, head, plan = PLAN_SHAPES[shape]()
    wrap_registry_flaky(
        registry, FaultSchedule(seed=seed, fail_rate=0.3), attempt_aware=True
    )
    result = ExecutionEngine(
        registry, resilience=ResilienceConfig(attempts=2, partial_results=True)
    ).execute(plan, head=head, k=6)
    _agrees(result)

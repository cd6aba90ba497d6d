"""Matrix integration test: every domain × every metric, end to end.

Optimizes and executes each showcase query under each primary metric
and checks the fundamental contracts: the chosen plan is executable,
the expected answers meet k, execution respects the query semantics,
and the branch-and-bound optimum matches the exhaustive oracle.  A
second matrix — every domain's optimized plan × {full scan, threaded
experiment run, top-k walk} × every cache setting — pins the engine's
rows against the dict-row reference interpreter
(``repro.testing.reference``); a third pins the resilience layer,
switched on over a fault-free domain, to the plain engine.
"""

import pytest

from repro.testing import compose_ranking, market_moving_news_query
from repro.testing.exhaustive import exhaustive_optimize
from repro.costs.sum_cost import RequestResponseMetric, SumCostMetric
from repro.costs.time_cost import BottleneckMetric, ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine
from repro.execution.program import JOIN
from repro.execution.resilience import ResilienceConfig
from repro.experiments.figure11 import ThreadedEngine
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.testing.reference import reference_execute

_DOMAINS = {}


def _domain(name):
    if name not in _DOMAINS:
        if name == "travel":
            from repro.sources.travel import running_example_query, travel_registry

            _DOMAINS[name] = (travel_registry(), running_example_query(), 10)
        elif name == "bio":
            from repro.sources.bio import bio_registry, glycolysis_homolog_query

            _DOMAINS[name] = (bio_registry(), glycolysis_homolog_query(), 5)
        elif name == "biblio":
            from repro.sources.biblio import biblio_registry, experts_query

            _DOMAINS[name] = (biblio_registry(), experts_query(), 5)
        elif name == "weekend":
            from repro.sources.weekend import (
                mahler_weekend_query,
                weekend_registry,
            )

            _DOMAINS[name] = (weekend_registry(), mahler_weekend_query(), 3)
        elif name == "news":
            from repro.sources.news import news_registry

            _DOMAINS[name] = (
                news_registry(),
                market_moving_news_query(min_move=0),
                3,
            )
    return _DOMAINS[name]


_METRICS = {
    "etm": ExecutionTimeMetric,
    "rr": RequestResponseMetric,
    "scm": SumCostMetric,
    "bottleneck": BottleneckMetric,
}


@pytest.mark.parametrize("domain", ["travel", "bio", "biblio", "weekend", "news"])
@pytest.mark.parametrize("metric_name", ["etm", "rr"])
class TestDomainMetricMatrix:
    def test_optimize_and_execute(self, domain, metric_name):
        registry, query, k = _domain(domain)
        metric = _METRICS[metric_name]()
        best = Optimizer(
            registry, metric,
            OptimizerConfig(k=k, cache_setting=CacheSetting.ONE_CALL),
        ).optimize(query)
        assert best.expected_answers >= k
        result = ExecutionEngine(registry, cache_setting=CacheSetting.ONE_CALL).execute(
            best.plan, head=query.head
        )
        # Executed answers satisfy every query predicate.
        for row in result.rows:
            for predicate in query.predicates:
                assert predicate.holds(row.bindings)

    def test_bnb_matches_oracle(self, domain, metric_name):
        registry, query, k = _domain(domain)
        metric = _METRICS[metric_name]()
        bnb = Optimizer(
            registry, metric,
            OptimizerConfig(k=k, cache_setting=CacheSetting.ONE_CALL),
        ).optimize(query)
        oracle = exhaustive_optimize(
            query, registry, metric, k=k,
            cache_setting=CacheSetting.ONE_CALL,
        )
        assert bnb.cost == pytest.approx(oracle.cost)


@pytest.mark.parametrize("metric_name", ["scm", "bottleneck"])
def test_secondary_metrics_on_travel(metric_name):
    registry, query, k = _domain("travel")
    metric = _METRICS[metric_name]()
    best = Optimizer(
        registry, metric,
        OptimizerConfig(k=k, cache_setting=CacheSetting.ONE_CALL),
    ).optimize(query)
    assert best.expected_answers >= k


_REFERENCES = {}


def _optimized_plan_and_reference(domain):
    """The domain's optimized plan and the reference's answer to it."""
    if domain not in _REFERENCES:
        registry, query, k = _domain(domain)
        plan = Optimizer(
            registry, ExecutionTimeMetric(), OptimizerConfig(k=k)
        ).optimize(query).plan
        _REFERENCES[domain] = (plan, reference_execute(plan, registry))
    return _REFERENCES[domain]


def engine_rows_out(reference, program):
    """The reference's rows per node as a full scan counts them: the
    terminal stream applies the output's residual predicates, so a
    terminal join's count is the reference's count at the output."""
    counts = list(reference.rows_out)
    if program.steps[program.terminal].kind == JOIN:
        counts[program.terminal] = counts[-1]
    return counts


def _ranked_signature(rows, head):
    return [(row.project(head), row.ranks) for row in rows]


@pytest.mark.parametrize("domain", ["travel", "bio", "biblio", "weekend", "news"])
@pytest.mark.parametrize("run", ("full-scan", "threaded", "top-k"))
@pytest.mark.parametrize("cache_setting", list(CacheSetting), ids=lambda c: c.value)
def test_engine_rows_equal_the_reference_interpreter(domain, run, cache_setting):
    registry, query, k = _domain(domain)
    head = tuple(query.head)
    plan, reference = _optimized_plan_and_reference(domain)
    assert reference.rows  # a vacuous comparison would pin nothing
    engine = ThreadedEngine if run == "threaded" else ExecutionEngine
    result = engine(registry, cache_setting=cache_setting).execute(
        plan, head=head, k=k if run == "top-k" else None
    )
    produced = _ranked_signature(result.rows, head)
    if run == "top-k":
        expected = _ranked_signature(compose_ranking(reference.rows, k), head)
        assert produced == expected
    elif run == "threaded":
        # The seeded feed shuffle reorders rows of equal composed rank.
        expected = _ranked_signature(reference.rows, head)
        assert sorted(produced, key=repr) == sorted(expected, key=repr)
        assert [row.rank_key() for row in result.rows] == [
            row.rank_key() for row in reference.rows
        ]
    else:
        assert produced == _ranked_signature(reference.rows, head)
        assert [dict(r.bindings) for r in result.rows] == [
            dict(r.bindings) for r in reference.rows
        ]
    if run == "full-scan":
        assert result.stats.rows_out == engine_rows_out(reference, result.program)
    # One layout object for the whole answer, covering the head.
    assert all(row.layout is result.rows[0].layout for row in result.rows)
    assert set(head) <= set(result.rows[0].layout.variables)


@pytest.mark.parametrize("domain", ["travel", "bio", "biblio", "weekend", "news"])
@pytest.mark.parametrize("cache_setting", list(CacheSetting), ids=lambda c: c.value)
def test_quiet_resilience_is_invisible_on_every_domain(domain, cache_setting):
    """Retries and partial mode over a fault-free domain: the same
    rows, per-service accounting and virtual time as the plain engine,
    and a certificate that witnesses completeness."""
    registry, query, k = _domain(domain)
    head = tuple(query.head)
    plan, _ = _optimized_plan_and_reference(domain)
    plain = ExecutionEngine(registry, cache_setting=cache_setting).execute(
        plan, head=head, k=k
    )
    resilient = ExecutionEngine(
        registry, cache_setting=cache_setting,
        resilience=ResilienceConfig(attempts=3, partial_results=True),
    ).execute(plan, head=head, k=k)
    assert _ranked_signature(resilient.rows, head) == _ranked_signature(
        plain.rows, head
    )
    assert resilient.stats.per_service == plain.stats.per_service
    assert resilient.stats.elapsed == plain.stats.elapsed
    for counter in ("retries", "wasted_fetches", "demoted_blocks",
                    "substituted_blocks"):
        assert getattr(resilient.stats, counter) == 0
    certificate = resilient.certificate
    assert plain.certificate is None
    assert certificate is not None and not certificate.is_partial
    assert certificate.dropped == () and certificate.substituted == ()
    assert len(certificate.answer_units) == len(resilient.rows)

"""The multithreading experiment of Section 6.

Dispatching all available calls of a node to parallel threads collapses
the node's busy time to its slowest call (plus overhead) — plan S drops
to tens of seconds — but randomizes the arrival order, which degrades
the one-call cache (the paper measures hotel calls going from 15 back
up to 212 of the 284)."""

import pytest

from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine, ExecutionMode
from repro.experiments import figure11_plans
from repro.sources.travel import running_example_query, travel_registry


@pytest.fixture(scope="module")
def serial_plan_setup():
    registry = travel_registry()
    query = running_example_query()
    return registry, query, figure11_plans(registry, query)["S"]


class TestSpeedup:
    def test_threads_collapse_serial_plan_time(self, serial_plan_setup):
        registry, query, plan = serial_plan_setup
        sequential = ExecutionEngine(
            registry, CacheSetting.NO_CACHE, mode=ExecutionMode.PARALLEL
        ).execute(plan, head=query.head)
        threaded = ExecutionEngine(
            registry, CacheSetting.NO_CACHE, mode=ExecutionMode.MULTITHREADED
        ).execute(plan, head=query.head)
        # The paper measures 76 s vs 374 s: about a 5x speedup.  Our
        # virtual clock must show at least 3x.
        assert threaded.elapsed < sequential.elapsed / 3

    def test_threaded_time_is_sum_of_slowest_calls(self, serial_plan_setup):
        registry, query, plan = serial_plan_setup
        threaded = ExecutionEngine(
            registry, CacheSetting.NO_CACHE, mode=ExecutionMode.MULTITHREADED
        ).execute(plan, head=query.head)
        # Lower bound: one call per service on the critical path.
        assert threaded.elapsed >= 1.2 + 1.5 + 9.7 + 4.9


class TestCacheDegradation:
    def test_one_call_cache_degrades_under_threads(self, serial_plan_setup):
        """Randomized arrival order breaks consecutive duplicates:
        hotel calls land between the cached 15 and the raw 284."""
        registry, query, plan = serial_plan_setup
        ordered = ExecutionEngine(
            registry, CacheSetting.ONE_CALL, mode=ExecutionMode.PARALLEL
        ).execute(plan, head=query.head)
        threaded = ExecutionEngine(
            registry, CacheSetting.ONE_CALL, mode=ExecutionMode.MULTITHREADED
        ).execute(plan, head=query.head)
        assert ordered.stats.calls("hotel") == 15
        degraded = threaded.stats.calls("hotel")
        assert 15 < degraded <= 284

    def test_optimal_cache_suffers_no_drawback(self, serial_plan_setup):
        """'Of course, the optimal cache suffers no such drawbacks.'"""
        registry, query, plan = serial_plan_setup
        ordered = ExecutionEngine(
            registry, CacheSetting.OPTIMAL, mode=ExecutionMode.PARALLEL
        ).execute(plan, head=query.head)
        threaded = ExecutionEngine(
            registry, CacheSetting.OPTIMAL, mode=ExecutionMode.MULTITHREADED
        ).execute(plan, head=query.head)
        assert threaded.stats.calls("hotel") == ordered.stats.calls("hotel")

    def test_answers_unchanged_by_threading(self, serial_plan_setup):
        registry, query, plan = serial_plan_setup
        ordered = ExecutionEngine(
            registry, CacheSetting.ONE_CALL, mode=ExecutionMode.PARALLEL
        ).execute(plan, head=query.head)
        threaded = ExecutionEngine(
            registry, CacheSetting.ONE_CALL, mode=ExecutionMode.MULTITHREADED
        ).execute(plan, head=query.head)
        assert frozenset(ordered.answers(None)) == frozenset(
            threaded.answers(None)
        )

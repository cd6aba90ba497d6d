"""Unit tests for execution statistics."""

from repro.execution.stats import ExecutionStats, ServiceCallStats


class TestServiceCallStats:
    def test_record_fetch(self):
        stats = ServiceCallStats()
        stats.record_fetch(2.5, from_remote_cache=False)
        stats.record_fetch(0.1, from_remote_cache=True)
        assert stats.fetches == 2
        assert stats.remote_cache_hits == 1
        assert stats.busy_time == 2.6


class TestExecutionStats:
    def test_autocreate_per_service(self):
        stats = ExecutionStats()
        stats.service("weather").calls += 1
        assert stats.calls("weather") == 1
        assert stats.calls("unseen") == 0

    def test_totals(self):
        stats = ExecutionStats()
        stats.service("a").calls = 3
        stats.service("a").fetches = 5
        stats.service("b").calls = 2
        stats.service("b").cache_hits = 7
        assert stats.total_calls == 5
        assert stats.total_fetches == 5
        assert stats.total_cache_hits == 7

    def test_summary_mentions_services(self):
        stats = ExecutionStats()
        stats.service("weather").calls = 71
        stats.elapsed = 374.0
        text = stats.summary()
        assert "weather" in text
        assert "374.0s" in text
        assert "calls=71" in text


"""Unit tests for execution statistics: the per-step ledger."""

from repro.execution.stats import ExecutionStats


class TestCharge:
    def test_charge_fills_the_cell_and_the_step_clock(self):
        stats = ExecutionStats()
        cell = stats.cell(3, "hotel")
        stats.charge(cell, 3, 2.5, from_remote_cache=False, tuples=4)
        stats.charge(cell, 3, 0.1, from_remote_cache=True, tuples=0)
        assert cell.fetches == 2
        assert cell.remote_cache_hits == 1
        assert cell.tuples_fetched == 4
        assert cell.busy_time == 2.6
        # The step's clock: summed latency, longest latency, pulls.
        assert stats.clock == {3: (2.6, 2.5, 2)}


class TestExecutionStats:
    def test_autocreate_per_service(self):
        stats = ExecutionStats()
        stats.cell(1, "weather").calls += 1
        assert stats.calls("weather") == 1
        assert stats.calls("unseen") == 0
        # Reading a service opens no cell.
        assert list(stats.per_service) == ["weather"]

    def test_totals(self):
        stats = ExecutionStats()
        stats.cell(1, "a").calls = 3
        stats.cell(1, "a").fetches = 5
        stats.cell(2, "b").calls = 2
        stats.cell(2, "b").cache_hits = 7
        assert stats.total_calls == 5
        assert stats.total_fetches == 5
        assert stats.total_cache_hits == 7

    def test_a_service_at_two_steps_sums_its_cells(self):
        stats = ExecutionStats()
        stats.charge(stats.cell(1, "links"), 1, 1.5, False, 2)
        stats.cell(1, "links").calls = 1
        stats.charge(stats.cell(2, "links"), 2, 0.5, True, 3)
        stats.cell(2, "links").calls = 1
        links = stats.service("links")
        assert (links.calls, links.fetches, links.remote_cache_hits) == (2, 2, 1)
        assert (links.busy_time, links.tuples_fetched) == (2.0, 5)
        assert stats.per_service == {"links": links}
        assert stats.clock == {1: (1.5, 1.5, 1), 2: (0.5, 0.5, 1)}

    def test_summary_mentions_services(self):
        stats = ExecutionStats()
        stats.cell(1, "weather").calls = 71
        stats.elapsed = 374.0
        text = stats.summary()
        assert "weather" in text
        assert "374.0s" in text
        assert "calls=71" in text

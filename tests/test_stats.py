"""Unit tests for execution statistics."""

import dataclasses

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


def _filled(cls, start, step):
    """An instance of *cls* with every field set to a distinct
    non-zero value: *start*, *start* + *step*, ..."""
    values = {}
    for offset, spec in enumerate(dataclasses.fields(cls)):
        if spec.type.startswith("dict"):
            values[spec.name] = {}
        else:
            caster = float if spec.type == "float" else int
            values[spec.name] = caster(start + step * offset)
    return cls(**values)


class TestMergeIsComplete:
    """``ExecutionStats.merge`` is what folds thread-pool row tasks
    into the execution's totals; a counter it skipped would silently
    read 0 on every ``ParallelExecutor`` run.  These fail the moment a
    field is added to either dataclass without being merged."""

    def test_every_field_of_both_dataclasses_is_merged(self):
        target = _filled(ExecutionStats, 1, 1)
        target.per_service["shared"] = _filled(ServiceCallStats, 100, 1)

        def tally():
            other = _filled(ExecutionStats, 1000, 10)
            other.per_service["shared"] = _filled(ServiceCallStats, 2000, 10)
            other.per_service["new"] = _filled(ServiceCallStats, 3000, 10)
            return other

        other = tally()
        expected = {
            spec.name: getattr(target, spec.name) + getattr(other, spec.name)
            for spec in dataclasses.fields(ExecutionStats)
            if spec.name != "per_service"
        }
        expected_shared = {
            spec.name: getattr(target.per_service["shared"], spec.name)
            + getattr(other.per_service["shared"], spec.name)
            for spec in dataclasses.fields(ServiceCallStats)
        }
        target.merge(other)
        for name, value in expected.items():
            assert getattr(target, name) == value != 0, name
        assert dataclasses.asdict(target.per_service["shared"]) == expected_shared
        assert all(expected_shared.values())
        assert target.per_service["new"] == other.per_service["new"]
        assert target.per_service["new"] is not other.per_service["new"]
        # The source tally is left untouched.
        assert other == tally()

    def test_merging_an_empty_tally_changes_nothing(self):
        target = _filled(ExecutionStats, 1, 1)
        before = dataclasses.replace(target)
        target.merge(ExecutionStats())
        assert target == before


"""Cross-cutting tests: CLI reproduce, engine modes, misc edges."""

import pytest

from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine
from repro.plans.builder import PlanBuilder
from repro.sources.travel import (
    FLIGHT_ATOM,
    HOTEL_ATOM,
    alpha1_patterns,
    poset_optimal,
)


@pytest.mark.slow  # 3.6 s with the report: CI's ``-m slow`` step
class TestCliReproduce:
    """``python -m repro reproduce`` and ``examples/reproduce_paper.py``
    are one call of ``repro.experiments.reproduce_paper``."""

    @pytest.fixture(scope="class")
    def report(self):
        from repro.experiments import reproduce_paper

        return reproduce_paper() + "\n"

    def test_reproduce_command(self, capsys, report):
        from repro.__main__ import main

        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        assert out == report
        assert "Table 1" in out
        assert "Figure 7 / Example 5.1 — all 19 plans" in out
        assert "Figure 8" in out
        assert "Fetching factors (Eq. 6): {0: 3, 1: 4}" in out
        assert "Figure 11" in out
        assert "calls match paper: True" in out
        assert "Multithreading experiment" in out

    def test_example_is_the_same_call(self, capsys, report):
        import importlib.util
        import pathlib

        from repro.experiments import reproduce_paper

        path = pathlib.Path(__file__).parent.parent / "examples" / "reproduce_paper.py"
        spec = importlib.util.spec_from_file_location("reproduce_paper", path)
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        assert example.reproduce_paper is reproduce_paper
        example.main()
        assert capsys.readouterr().out == report


class TestEngineModes:
    @pytest.fixture()
    def plan(self, registry, travel_query):
        return PlanBuilder(travel_query, registry).build(
            alpha1_patterns(), poset_optimal(),
            fetches={FLIGHT_ATOM: 1, HOTEL_ATOM: 1},
        )

    def test_remote_cache_preserved_when_not_reset(
        self, registry, travel_query, plan
    ):
        engine = ExecutionEngine(registry, CacheSetting.NO_CACHE)
        first = engine.execute(plan, head=travel_query.head)
        warm = engine.execute(
            plan, head=travel_query.head, reset_remote_caches=False
        )
        # Hotel (the Bookings analogue) answers every repeated call
        # from its own remote cache on the warm run; it spends less
        # busy time even though no logical cache is in place.
        first_hotel = first.stats.service("hotel")
        warm_hotel = warm.stats.service("hotel")
        assert warm_hotel.remote_cache_hits > first_hotel.remote_cache_hits
        assert warm_hotel.busy_time < first_hotel.busy_time

    def test_k_decides_between_top_k_and_full_scan(
        self, registry, travel_query, plan
    ):
        engine = ExecutionEngine(registry, CacheSetting.ONE_CALL)
        top = engine.execute(plan, head=travel_query.head, k=3)
        full = engine.execute(plan, head=travel_query.head)
        assert len(top.rows) == len(top.answers()) == 3
        assert not top.complete
        assert len(full.rows) > 3 and full.complete
        # A full scan trims where it is read.
        assert top.answers() == full.answers(3)

    def test_empty_head_projects_empty_tuples(self, registry, plan):
        engine = ExecutionEngine(registry, CacheSetting.ONE_CALL)
        result = engine.execute(plan, head=())
        assert result.answers(2) == [(), ()]


class TestRankComposition:
    def test_top_answer_is_cheap_pair(self, registry, travel_query):
        """The composed ranking puts low flight-rank + low hotel-rank
        combinations first; both services rank by ascending price."""
        plan = PlanBuilder(travel_query, registry).build(
            alpha1_patterns(), poset_optimal(),
            fetches={FLIGHT_ATOM: 1, HOTEL_ATOM: 1},
        )
        engine = ExecutionEngine(registry, CacheSetting.ONE_CALL)
        result = engine.execute(plan, head=travel_query.head)
        head_names = [v.name for v in travel_query.head]
        f_index = head_names.index("FPrice")
        h_index = head_names.index("HPrice")
        best = result.rows[0]
        first = best.project(tuple(travel_query.head))
        # Every answer in the same city/date block costs at least as
        # much on both components as the top-ranked one.
        city_index = head_names.index("City")
        for row in result.rows[1:]:
            answer = row.project(tuple(travel_query.head))
            if answer[city_index] != first[city_index]:
                continue
            assert (
                answer[f_index] >= first[f_index]
                or answer[h_index] >= first[h_index]
            )

    def test_rank_key_zero_for_exact_only_rows(self):
        from repro.execution.results import Row

        assert Row(bindings={}).rank_key() == 0


class TestWorldHelpers:
    def test_city_dates_stable(self):
        from repro.sources.world import city_dates

        assert city_dates("Cancun") == city_dates("Cancun")
        start, end = city_dates("Cancun")
        assert start < end

    def test_all_cities_property(self, world):
        assert len(world.all_cities) == 54

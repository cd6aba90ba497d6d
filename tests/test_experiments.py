"""Tests for the programmatic experiment runners (repro.experiments)."""

import pytest

from repro.experiments import (
    PAPER_CALLS,
    run_figure7,
    run_figure8,
    run_figure11,
    run_multithreading,
    run_table1,
)
from repro.sources.travel import poset_optimal


@pytest.fixture(scope="module")
def grid():
    return run_figure11()


class TestTable1Runner:
    def test_four_estimates(self):
        estimates = run_table1().estimates
        assert [e.service for e in estimates] == [
            "conf", "weather", "flight", "hotel"
        ]

    def test_paper_taus(self):
        taus = {
            e.service: e.average_response_time for e in run_table1().estimates
        }
        assert taus == pytest.approx(
            {"conf": 1.2, "weather": 1.5, "flight": 9.7, "hotel": 4.9}
        )


class TestFigure7Runner:
    def test_19_costed_topologies_sorted(self):
        rows = run_figure7().plans
        assert len(rows) == 19
        costs = [row.cost for row in rows]
        assert costs == sorted(costs)

    def test_best_is_plan_o(self):
        rows = run_figure7().plans
        assert rows[0].poset.closure() == poset_optimal().closure()


class TestFigure8Runner:
    def test_figure8_values(self):
        result = run_figure8()
        assert result.fetches == {0: 3, 1: 4}
        assert result.annotation.output_size == pytest.approx(15.0)

    def test_render_contains_annotations(self):
        assert "t_in=1500" in run_figure8().render()


class TestFigure11Runner:
    def test_nine_cells(self, grid):
        assert len(grid.cells) == 9

    def test_all_calls_match_paper(self, grid):
        assert grid.all_calls_match_paper
        for (setting, plan), expected in PAPER_CALLS.items():
            assert grid.cell(setting, plan).calls == expected

    def test_time_shape(self, grid):
        assert grid.time_shape_holds()

    def test_render_mentions_paper_columns(self, grid):
        text = grid.render()
        assert "paper calls" in text
        assert "no-cache" in text
        assert len(text.splitlines()) == 10  # header + 9 cells


class TestMultithreadingRunner:
    def test_speedup_and_degradation(self):
        result = run_multithreading()
        assert result.speedup > 3
        assert result.ordered_hotel_calls == 15
        assert result.cache_degraded
        assert 15 < result.threaded_hotel_calls <= 284

    def test_grid(self):
        """3 caches × {ordered, threaded}: the speed-up is read off the
        no-cache pair, the degradation off the one-call pair, and the
        optimal cache is indifferent to arrival order."""
        grid = run_multithreading()
        assert sorted(grid.cells) == [
            (setting, mode)
            for setting in ("no-cache", "one-call", "optimal")
            for mode in ("multithreaded", "parallel")
        ]
        assert grid.hotel_calls("one-call", "parallel") == 15
        assert 15 < grid.hotel_calls("one-call", "multithreaded") <= 284
        assert grid.elapsed("no-cache", "multithreaded") < (
            grid.elapsed("no-cache", "parallel") / 3
        )
        assert grid.hotel_calls("optimal", "multithreaded") == grid.hotel_calls(
            "optimal", "parallel"
        )
        text = grid.render()
        assert "374 s to 76 s" in text and "threaded 212" in text


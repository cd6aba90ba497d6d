"""Unit tests for plan rendering (ASCII, summaries)."""

import pytest

from repro.execution.cache import CacheSetting
from repro.plans.annotate import annotate
from repro.plans.builder import PlanBuilder
from repro.plans.render import render_ascii, summarize
from repro.sources.travel import alpha1_patterns, poset_optimal, poset_serial


@pytest.fixture()
def plan_o(registry, travel_query):
    return PlanBuilder(travel_query, registry).build(
        alpha1_patterns(), poset_optimal(), fetches={0: 3, 1: 4}
    )


class TestAscii:
    def test_contains_all_services(self, plan_o):
        text = render_ascii(plan_o)
        for name in ("conf", "weather", "flight", "hotel"):
            assert name in text

    def test_marks_chunked_and_fetches(self, plan_o):
        text = render_ascii(plan_o)
        assert "F=3" in text and "F=4" in text
        assert "|" in text  # chunked box marker

    def test_annotation_included_when_given(self, plan_o):
        annotation = annotate(plan_o, CacheSetting.ONE_CALL)
        text = render_ascii(plan_o, annotation)
        assert "t_in=1500" in text  # the MS join candidate pairs

    def test_starts_with_input(self, plan_o):
        assert render_ascii(plan_o).splitlines()[0].strip() == "IN"


class TestSummarize:
    def test_optimal_plan_summary(self, plan_o):
        assert summarize(plan_o) in (
            "conf -> weather -> flight -> hotel -> MS",
            "conf -> weather -> hotel -> flight -> MS",
        )

    def test_serial_plan_summary(self, registry, travel_query):
        plan = PlanBuilder(travel_query, registry).build(
            alpha1_patterns(), poset_serial()
        )
        assert summarize(plan) == "conf -> weather -> flight -> hotel"

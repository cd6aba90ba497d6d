"""Tests for the news-management domain (Section 6)."""

import pytest

from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting


from repro.execution.engine import ExecutionEngine
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.sources.news import NEWS_DECAY, news_registry
from repro.testing import market_moving_news_query


@pytest.fixture(scope="module")
def registry():
    return news_registry()


class TestServices:
    def test_newssearch_has_decay(self, registry):
        profile = registry.profile("newssearch")
        assert profile.is_search
        assert profile.decay == NEWS_DECAY
        assert profile.max_fetches() == 4

    def test_quotes_is_functional(self, registry):
        from repro.model.schema import AccessPattern

        result = registry.service("quotes").invoke(
            AccessPattern("iio"), {0: "Acme", 1: "2008-03-03"}
        )
        assert len(result) == 1

    def test_profile_patterns(self, registry):
        codes = {p.code for p in registry.signature("profile").patterns}
        assert codes == {"ioo", "oio"}

    def test_sector_pattern_is_more_proliferative(self, registry):
        assert registry.profile("profile", "oio").erspi > registry.profile(
            "profile", "ioo"
        ).erspi


class TestQuery:
    def test_optimize_and_execute(self, registry):
        query = market_moving_news_query("merger", "tech", min_move=0)
        config = OptimizerConfig(k=3, cache_setting=CacheSetting.ONE_CALL)
        best = Optimizer(registry, ExecutionTimeMetric(), config).optimize(query)
        result = ExecutionEngine(registry, cache_setting=CacheSetting.ONE_CALL).execute(
            best.plan, head=query.head
        )
        assert result.rows
        for company, _, _, change in result.answers(None):
            assert change >= 0

    def test_answers_restricted_to_sector(self, registry):
        query = market_moving_news_query("earnings", "energy", min_move=0)
        best = Optimizer(
            registry, ExecutionTimeMetric(), OptimizerConfig(k=3)
        ).optimize(query)
        result = ExecutionEngine(registry).execute(best.plan, head=query.head)
        energy_companies = {
            row[0] for row in registry.service("profile").rows
            if row[1] == "energy"
        }
        for company, _, _, _ in result.answers(None):
            assert company in energy_companies

    def test_decay_caps_news_fetches(self, registry):
        query = market_moving_news_query("merger", "tech", min_move=-100)
        best = Optimizer(
            registry, ExecutionTimeMetric(), OptimizerConfig(k=20)
        ).optimize(query)
        news_node = best.plan.service_node_for_atom(0)
        assert news_node.fetches <= 4

    def test_ranked_results_most_relevant_first(self, registry):
        from repro.model.schema import AccessPattern

        result = registry.service("newssearch").invoke(
            AccessPattern("ioooo"), {0: "merger"}
        )
        ids = [row[1] for row in result.tuples]
        assert ids == sorted(ids)  # article ids encode relevance order

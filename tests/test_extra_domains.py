"""Tests for the bio, biblio, and weekend domains (Section 6, abstract)."""

import pytest

from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting


from repro.execution.engine import ExecutionEngine
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.services.registry import JoinMethod
from repro.sources.bio import (
    BLAST_DECAY,
    bio_registry,
    glycolysis_homolog_query,
)
from repro.sources.biblio import biblio_registry, experts_query, planted_experts
from repro.sources.weekend import mahler_weekend_query, weekend_registry


class TestBioDomain:
    def test_blast_has_decay(self):
        registry = bio_registry()
        profile = registry.profile("blast")
        assert profile.decay == BLAST_DECAY
        assert profile.max_fetches() == 3

    def test_blast_join_defaults_to_nested_loop(self):
        registry = bio_registry()
        # blast tops out quickly (decay) -> NL against a deep service.
        assert registry.join_method("blast", "interpro") in (
            JoinMethod.NESTED_LOOP, JoinMethod.MERGE_SCAN
        )

    def test_optimized_execution_finds_homologs(self):
        registry = bio_registry()
        query = glycolysis_homolog_query()
        best = Optimizer(
            registry, ExecutionTimeMetric(), OptimizerConfig(k=5)
        ).optimize(query)
        result = ExecutionEngine(registry, cache_setting=CacheSetting.ONE_CALL).execute(
            best.plan, head=query.head
        )
        assert len(result.rows) >= 5
        for human, mouse, _, score in result.answers():
            assert human.startswith("HSA")
            assert mouse.startswith("MMU")
            assert score >= 500

    def test_repeats_predicate_enforced(self):
        registry = bio_registry()
        query = glycolysis_homolog_query()
        best = Optimizer(
            registry, ExecutionTimeMetric(), OptimizerConfig(k=5)
        ).optimize(query)
        result = ExecutionEngine(registry).execute(best.plan, head=query.head)
        interpro_rows = {
            (row[0], row[1]): row[2]
            for row in registry.service("interpro").rows
        }
        for _, mouse, domain, _ in result.answers():
            assert interpro_rows[(mouse, domain)] >= 2

    def test_decay_caps_blast_fetches(self):
        registry = bio_registry()
        query = glycolysis_homolog_query()
        best = Optimizer(
            registry, ExecutionTimeMetric(), OptimizerConfig(k=5)
        ).optimize(query)
        blast_node = best.plan.service_node_for_atom(2)
        assert blast_node.fetches <= 3


class TestBiblioDomain:
    def test_experts_found(self):
        registry = biblio_registry()
        query = experts_query()
        best = Optimizer(
            registry, ExecutionTimeMetric(), OptimizerConfig(k=5)
        ).optimize(query)
        result = ExecutionEngine(registry, cache_setting=CacheSetting.OPTIMAL).execute(
            best.plan, head=query.head
        )
        authors = {answer[0] for answer in result.answers()}
        assert authors & set(planted_experts())

    def test_year_filter_enforced(self):
        registry = biblio_registry()
        query = experts_query()
        best = Optimizer(
            registry, ExecutionTimeMetric(), OptimizerConfig(k=5)
        ).optimize(query)
        result = ExecutionEngine(registry).execute(best.plan, head=query.head)
        for _, _, _, year in result.answers():
            assert year >= 2005

    def test_projects_service_is_selective(self):
        registry = biblio_registry()
        assert registry.profile("projects").is_selective


class TestWeekendDomain:
    def test_both_drivers_are_permissible(self):
        from repro.optimizer.patterns import permissible_sequences

        registry = weekend_registry()
        query = mahler_weekend_query()
        sequences = permissible_sequences(query, registry.schema())
        # route-driven lowcost needs composer-driven concerts; the
        # browse pattern of lowcost combines with both concert patterns.
        assert len(sequences) == 3

    def test_answers_respect_budget_and_dates(self):
        registry = weekend_registry()
        query = mahler_weekend_query(budget=120)
        best = Optimizer(
            registry, ExecutionTimeMetric(), OptimizerConfig(k=3)
        ).optimize(query)
        result = ExecutionEngine(registry).execute(best.plan, head=query.head)
        assert len(result.rows) >= 3
        for _, date, price, _ in result.answers():
            assert "2008-04-01" <= date <= "2008-04-30"
            assert price <= 120

    def test_answers_have_mahler_concerts(self):
        registry = weekend_registry()
        query = mahler_weekend_query()
        best = Optimizer(
            registry, ExecutionTimeMetric(), OptimizerConfig(k=3)
        ).optimize(query)
        result = ExecutionEngine(registry).execute(best.plan, head=query.head)
        concert_rows = set(registry.service("concerts").rows)
        for city, date, _, venue in result.answers():
            assert (city, date, "Mahler", venue) in concert_rows

    def test_cheapest_fares_ranked_first(self):
        registry = weekend_registry()
        from repro.model.schema import AccessPattern

        result = registry.service("lowcost").invoke(
            AccessPattern("iioo"), {0: "Milano", 1: "Vienna"}
        )
        prices = [row[3] for row in result.tuples]
        assert prices == sorted(prices)

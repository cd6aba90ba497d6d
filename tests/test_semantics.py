"""Semantics oracle: plan execution vs naive conjunctive-query evaluation.

The answer to a CQ over a data instance is defined model-theoretically
(Section 3.1); no matter which access patterns, topology, fetching
factors (high enough), or cache setting the engine uses, it must
compute exactly the tuples the naive evaluator derives by enumerating
all combinations of rows.  Verified on the showcase domains and on
randomized synthetic workloads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.cache import CacheSetting

from repro.execution.engine import ExecutionEngine
from repro.model.query import ConjunctiveQuery
from repro.model.terms import Constant, Variable
from repro.optimizer.patterns import permissible_sequences
from repro.optimizer.topology import TopologyEnumerator
from repro.plans.builder import PlanBuilder
from repro.services.registry import ServiceRegistry


def naive_answers(
    query: ConjunctiveQuery, registry: ServiceRegistry
) -> frozenset[tuple]:
    """Reference evaluation: backtracking over the stored relations.

    Semantically identical to enumerating the full cross product, but
    prunes inconsistent bindings atom by atom so it terminates on the
    calibrated travel world too.
    """
    relations = [registry.service(atom.service).rows for atom in query.atoms]
    answers: set[tuple] = set()

    def _extend(
        bindings: dict[Variable, object], atom, row
    ) -> dict[Variable, object] | None:
        extended = dict(bindings)
        for term, value in zip(atom.terms, row):
            if isinstance(term, Constant):
                if term.value != value:
                    return None
            else:
                if term in extended and extended[term] != value:
                    return None
                extended[term] = value
        return extended

    def _recurse(index: int, bindings: dict[Variable, object]) -> None:
        if index == len(query.atoms):
            if all(p.holds(bindings) for p in query.predicates):
                answers.add(tuple(bindings[v] for v in query.head))
            return
        atom = query.atoms[index]
        for row in relations[index]:
            extended = _extend(bindings, atom, row)
            if extended is not None:
                _recurse(index + 1, extended)

    _recurse(0, {})
    return frozenset(answers)


def engine_answers(
    query: ConjunctiveQuery,
    registry: ServiceRegistry,
    cache_setting: CacheSetting = CacheSetting.NO_CACHE,
    fetches: int = 64,
) -> frozenset[tuple]:
    """Execute the first permissible plan with generous fetches."""
    sequences = permissible_sequences(query, registry.schema())
    assert sequences, "query must be executable"
    patterns = sequences[0]
    poset = TopologyEnumerator(query, patterns).all_posets()[0]
    fetch_map = {
        index: fetches
        for index, atom in enumerate(query.atoms)
        if registry.profile(atom.service, patterns[index].code).is_chunked
    }
    plan = PlanBuilder(query, registry).build(patterns, poset, fetches=fetch_map)
    result = ExecutionEngine(registry, cache_setting=cache_setting).execute(
        plan, head=query.head
    )
    return frozenset(result.answers(None))


class TestShowcaseDomains:
    def test_tiny_query(self, tiny_registry, tiny_query):
        assert engine_answers(tiny_query, tiny_registry) == naive_answers(
            tiny_query, tiny_registry
        )

    def test_weekend_query(self):
        from repro.sources.weekend import mahler_weekend_query, weekend_registry

        registry = weekend_registry()
        query = mahler_weekend_query()
        assert engine_answers(query, registry) == naive_answers(query, registry)

    def test_biblio_query(self):
        from repro.sources.biblio import biblio_registry, experts_query

        registry = biblio_registry()
        query = experts_query()
        assert engine_answers(query, registry) == naive_answers(query, registry)

    @pytest.mark.parametrize("setting", list(CacheSetting), ids=lambda s: s.value)
    def test_cache_settings_preserve_semantics(
        self, tiny_registry, tiny_query, setting
    ):
        assert engine_answers(
            tiny_query, tiny_registry, cache_setting=setting
        ) == naive_answers(tiny_query, tiny_registry)


class TestTravelAllTopologies:
    @pytest.mark.slow  # 1.4-1.8 s, among tier-1's slowest: CI's ``-m slow`` step
    def test_every_topology_matches_naive(self, registry, travel_query):
        expected = naive_answers(travel_query, registry)
        from repro.sources.travel import alpha1_patterns

        posets = TopologyEnumerator(travel_query, alpha1_patterns()).all_posets()
        builder = PlanBuilder(travel_query, registry)
        # Generous fetches so chunking never truncates results.
        fetch_map = {0: 8, 1: 8}
        for poset in posets[:6]:  # a representative sample, they agree
            plan = builder.build(alpha1_patterns(), poset, fetches=fetch_map)
            result = ExecutionEngine(registry).execute(plan, head=travel_query.head)
            assert frozenset(result.answers(None)) == expected


class TestRandomWorkloads:
    @given(st.integers(1, 4), st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_synthetic_chains_match_naive(self, n_services, seed):
        from repro.testing.synthetic import generate_workload

        workload = generate_workload(
            n_services=n_services, seed=seed, keys_per_space=5, fanout=2
        )
        expected = naive_answers(workload.query, workload.registry)
        actual = engine_answers(workload.query, workload.registry)
        assert actual == expected

    @given(st.integers(0, 20))
    @settings(max_examples=10, deadline=None)
    def test_enriched_workloads_match_naive(self, seed):
        from repro.testing.synthetic import generate_workload

        workload = generate_workload(
            n_services=2, seed=seed, keys_per_space=4, fanout=2, enrichments=1
        )
        expected = naive_answers(workload.query, workload.registry)
        actual = engine_answers(workload.query, workload.registry)
        assert actual == expected

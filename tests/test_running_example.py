"""End-to-end reproduction of the paper's running example.

Covers Example 3.1 (schema/query), Example 4.1 (pattern selection),
Example 5.1 (plan space and ETM pruning arithmetic), and Figure 8
(the fully instantiated optimal physical plan).
"""

import pytest

from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.optimizer.fetches import FetchContext, closed_form_pair
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.optimizer.patterns import most_cogent_sequences, select_patterns

from repro.optimizer.topology import TopologyEnumerator
from repro.plans.annotate import annotate
from repro.plans.builder import PlanBuilder
from repro.sources.travel import (
    CONF_ATOM,
    FLIGHT_ATOM,
    HOTEL_ATOM,
    WEATHER_ATOM,
    alpha1_patterns,
    poset_optimal,
    running_example_query,
    travel_registry,
)
from repro.testing import chain_poset


class TestExample31:
    """The schema of Figure 2 and the query of Figure 3."""

    def test_conf_signature_matches_paper(self):
        sig = travel_registry().schema().get("conf")
        assert sig.arity == 5
        assert {p.code for p in sig.patterns} == {"ioooo", "ooooi"}

    def test_query_is_safe_and_multi_domain(self, travel_query):
        assert len(set(travel_query.services)) > 1
        assert len(travel_query.atoms) == 4

    def test_search_services_are_flight_and_hotel(self, registry):
        assert registry.profile("flight").is_search
        assert registry.profile("hotel").is_search
        assert registry.profile("conf").is_exact
        assert registry.profile("weather").is_exact


class TestExample41:
    """Pattern selection: 4 choices, α3 impermissible, α1/α4 most cogent."""

    def test_pattern_phase(self, travel_query):
        phase = select_patterns(travel_query, travel_registry().schema())
        assert len(phase.permissible) == 3  # of the 4 combinations
        most_cogent = most_cogent_sequences(phase.permissible)
        assert len(most_cogent) == 2
        assert phase.ordered[0] in most_cogent


class TestExample51:
    """Plan space and cost arithmetic of Example 5.1."""

    def test_19_alternative_plans(self, travel_query):
        assert len(TopologyEnumerator(travel_query, alpha1_patterns()).all_posets()) == 19

    def test_eq6_gives_paper_fetching_factors(self, registry, travel_query):
        plan = PlanBuilder(travel_query, registry).build(
            alpha1_patterns(), poset_optimal()
        )
        context = FetchContext(plan, ExecutionTimeMetric(), CacheSetting.ONE_CALL)
        result = closed_form_pair(context, k=10)
        assert result.fetches == {FLIGHT_ATOM: 3, HOTEL_ATOM: 4}

    def test_optimizer_selects_plan_o(self, registry, travel_query):
        best = Optimizer(
            registry,
            ExecutionTimeMetric(),
            OptimizerConfig(k=10, cache_setting=CacheSetting.ONE_CALL),
        ).optimize(travel_query)
        assert best.poset.closure() == poset_optimal().closure()

    def test_join_erspi_is_001(self, registry, travel_query):
        plan = PlanBuilder(travel_query, registry).build(
            alpha1_patterns(), poset_optimal()
        )
        assert plan.join_nodes[0].selectivity == pytest.approx(0.01)


class TestFigure8:
    """The annotated physical plan: every number in the figure."""

    EXPECTED = {
        CONF_ATOM: (1.0, 20.0),
        WEATHER_ATOM: (20.0, 1.0),
        FLIGHT_ATOM: (1.0, 75.0),
        HOTEL_ATOM: (1.0, 20.0),
    }

    def test_every_figure8_value(self, registry, travel_query):
        plan = PlanBuilder(travel_query, registry).build(
            alpha1_patterns(), poset_optimal(),
            fetches={FLIGHT_ATOM: 3, HOTEL_ATOM: 4},
        )
        annotation = annotate(plan, CacheSetting.ONE_CALL)
        for atom_index, (t_in, t_out) in self.EXPECTED.items():
            node = plan.service_node_for_atom(atom_index)
            assert annotation.calls(node) == pytest.approx(t_in), atom_index
            assert annotation.tuples_out(node) == pytest.approx(t_out), atom_index
        join = plan.join_nodes[0]
        assert annotation.tuples_in(join) == pytest.approx(1500.0)
        assert annotation.tuples_out(join) == pytest.approx(15.0)
        assert annotation.output_size >= 10  # enough answers for k=10


class TestExample51Pruning:
    """The ETM pruning argument: the conf→flight prefix already costs
    more than the full serial plan, so every completion is pruned."""

    def test_prefix_cost_exceeds_serial_plan(self, registry, travel_query):
        from repro.model.query import ConjunctiveQuery
        from repro.plans.builder import Poset

        metric = ExecutionTimeMetric()
        builder = PlanBuilder(travel_query, registry)

        # ETM1: the full serial plan with Eq. 7 factors.
        serial = builder.build(
            alpha1_patterns(),
            chain_poset(4, [CONF_ATOM, WEATHER_ATOM, FLIGHT_ATOM, HOTEL_ATOM]),
            fetches={FLIGHT_ATOM: 1, HOTEL_ATOM: 8},
        )
        etm1 = metric.cost(serial, annotate(serial, CacheSetting.ONE_CALL))

        # ETM2: the partial plan conf → flight (flight fed by 20 conf
        # tuples — the weather filter is missing).
        sub_query = ConjunctiveQuery(
            name="q",
            head=(),
            atoms=(travel_query.atoms[CONF_ATOM], travel_query.atoms[FLIGHT_ATOM]),
            predicates=(),
        )
        sub_builder = PlanBuilder(sub_query, registry)
        prefix = sub_builder.build(
            (alpha1_patterns()[CONF_ATOM], alpha1_patterns()[FLIGHT_ATOM]),
            Poset(n=2, pairs=frozenset({(0, 1)})),
        )
        etm2 = metric.cost(prefix, annotate(prefix, CacheSetting.ONE_CALL))
        # t_in_flight = ξ_conf = 20, so ETM2 = 20·9.7 + 1.2 = 195.2.
        assert etm2 == pytest.approx(20 * 9.7 + 1.2)
        assert etm2 > etm1  # hence the paper prunes the prefix

    def test_branch_and_bound_actually_prunes_that_prefix(
        self, registry, travel_query
    ):
        best = Optimizer(
            registry,
            ExecutionTimeMetric(),
            OptimizerConfig(k=10, cache_setting=CacheSetting.ONE_CALL),
        ).optimize(travel_query)
        assert best.stats.topology_states_pruned > 0

"""Unit tests for phase 3: fetch assignment (Section 4.3, Eq. 5-7)."""

import pytest

from repro.costs.sum_cost import RequestResponseMetric
from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.optimizer.fetches import (
    FetchContext,
    assign_fetches,
    closed_form_pair,
    closed_form_single,
    exhaustive_assignment,
    greedy_assignment,
    square_assignment,
)
from repro.plans.builder import PlanBuilder, chain_poset
from repro.sources.travel import (
    FLIGHT_ATOM,
    HOTEL_ATOM,
    alpha1_patterns,
    poset_optimal,
    poset_serial,
)


@pytest.fixture()
def context_o(registry, travel_query):
    plan = PlanBuilder(travel_query, registry).build(
        alpha1_patterns(), poset_optimal()
    )
    return FetchContext(plan, ExecutionTimeMetric(), CacheSetting.ONE_CALL)


@pytest.fixture()
def context_s(registry, travel_query):
    plan = PlanBuilder(travel_query, registry).build(
        alpha1_patterns(), poset_serial()
    )
    return FetchContext(plan, ExecutionTimeMetric(), CacheSetting.ONE_CALL)


class TestContext:
    def test_chunked_atoms(self, context_o):
        assert context_o.chunked_atoms == (FLIGHT_ATOM, HOTEL_ATOM)

    def test_output_size_multiplicative(self, context_o):
        base = context_o.output_size({FLIGHT_ATOM: 1, HOTEL_ATOM: 1})
        assert context_o.output_size(
            {FLIGHT_ATOM: 2, HOTEL_ATOM: 3}
        ) == pytest.approx(base * 6)

    def test_fast_output_matches_annotation(self, context_o):
        for fetches in ({FLIGHT_ATOM: 1, HOTEL_ATOM: 1}, {FLIGHT_ATOM: 3, HOTEL_ATOM: 4}):
            fast = context_o.output_size(fetches)
            exact = context_o.annotate(fetches).output_size
            assert fast == pytest.approx(exact)

    def test_trials_leave_the_plan_untouched(self, context_o):
        """cost/annotate/output_size take the vector; only apply and
        evaluate write factors to the plan nodes."""
        trial = {FLIGHT_ATOM: 3, HOTEL_ATOM: 4}
        context_o.cost(trial)
        context_o.annotate(trial)
        context_o.output_size(trial)
        assert all(node.fetches == 1 for node in context_o.plan.service_nodes)
        context_o.evaluate(trial, k=10)
        plan = context_o.plan
        assert plan.service_node_for_atom(FLIGHT_ATOM).fetches == 3
        assert plan.service_node_for_atom(HOTEL_ATOM).fetches == 4
        context_o.apply({FLIGHT_ATOM: 2})
        assert plan.service_node_for_atom(FLIGHT_ATOM).fetches == 2
        assert plan.service_node_for_atom(HOTEL_ATOM).fetches == 1

    def test_all_ones_is_annotated_once(self, context_o):
        """output_size's base annotation goes through the memo."""
        ones = {FLIGHT_ATOM: 1, HOTEL_ATOM: 1}
        context_o.output_size({FLIGHT_ATOM: 5, HOTEL_ATOM: 7})
        context_o.cost(ones)
        context_o.evaluate(ones, k=1)
        assert context_o.vectors_evaluated == 1

    def test_invalid_factor_rejected(self, context_o):
        with pytest.raises(ValueError):
            context_o.apply({FLIGHT_ATOM: 0})

    def test_evaluate_reports_feasibility(self, context_o):
        low = context_o.evaluate({FLIGHT_ATOM: 1, HOTEL_ATOM: 1}, k=10)
        assert not low.feasible
        high = context_o.evaluate({FLIGHT_ATOM: 3, HOTEL_ATOM: 4}, k=10)
        assert high.feasible
        assert high.output_size == pytest.approx(15.0)


class TestClosedForms:
    def test_eq6_reproduces_figure8(self, context_o):
        """Eq. 6 with k=10 gives F_flight=3, F_hotel=4 (Figure 8)."""
        result = closed_form_pair(context_o, k=10)
        assert result.fetches == {FLIGHT_ATOM: 3, HOTEL_ATOM: 4}
        assert result.feasible

    def test_eq7_pushes_fetches_downstream(self, context_s):
        """On the same path, Eq. 7 sets the upstream factor to 1."""
        result = closed_form_pair(context_s, k=10)
        assert result.fetches[FLIGHT_ATOM] == 1
        assert result.fetches[HOTEL_ATOM] == 8  # K' = ceil(10 / 1.25)
        assert result.feasible

    def test_eq5_single_chunked_service(self, tiny_registry, tiny_query):
        plan = PlanBuilder(tiny_query, tiny_registry).build(
            (
                tiny_registry.signature("cities").pattern("io"),
                tiny_registry.signature("spots").pattern("ioo"),
            ),
            chain_poset(2, [0, 1]),
        )
        context = FetchContext(plan, ExecutionTimeMetric(), CacheSetting.NO_CACHE)
        # h(F) = 3 cities * 2 chunk * 0.8 selectivity * F = 4.8 F
        result = closed_form_single(context, k=10)
        assert result.fetches == {1: 3}  # ceil(10 / 4.8)
        assert result.feasible

    def test_closed_form_arity_checked(self, context_o, tiny_registry, tiny_query):
        with pytest.raises(ValueError):
            closed_form_single(context_o, k=10)
        plan = PlanBuilder(tiny_query, tiny_registry).build(
            (
                tiny_registry.signature("cities").pattern("io"),
                tiny_registry.signature("spots").pattern("ioo"),
            ),
            chain_poset(2, [0, 1]),
        )
        context = FetchContext(plan, ExecutionTimeMetric(), CacheSetting.NO_CACHE)
        with pytest.raises(ValueError):
            closed_form_pair(context, k=10)


class TestHeuristics:
    def test_greedy_reaches_k(self, context_o):
        result = greedy_assignment(context_o, k=10)
        assert result.feasible
        assert result.output_size >= 10

    def test_greedy_all_ones_when_enough(self, context_o):
        result = greedy_assignment(context_o, k=1)
        assert result.fetches == {FLIGHT_ATOM: 1, HOTEL_ATOM: 1}

    def test_square_equalizes_explored_tuples(self, context_o):
        result = square_assignment(context_o, k=10)
        assert result.feasible
        explored_flight = result.fetches[FLIGHT_ATOM] * 25
        explored_hotel = result.fetches[HOTEL_ATOM] * 5
        # Equal up to one chunk of the larger service.
        assert abs(explored_flight - explored_hotel) <= 25

    def test_square_feasibility(self, context_s):
        result = square_assignment(context_s, k=10)
        assert result.feasible


class TestExhaustive:
    def test_exhaustive_at_least_as_good_as_greedy(self, context_o):
        greedy = greedy_assignment(context_o, k=10)
        exhaustive = exhaustive_assignment(context_o, k=10)
        assert exhaustive.feasible
        assert exhaustive.cost <= greedy.cost + 1e-9

    def test_exhaustive_minimality(self, context_o):
        best = exhaustive_assignment(context_o, k=10)
        # Decrementing any coordinate must lose feasibility or not be
        # cheaper: verify the chosen vector cannot be shrunk and stay
        # feasible at lower cost.
        for atom_index in context_o.chunked_atoms:
            if best.fetches[atom_index] == 1:
                continue
            shrunk = dict(best.fetches)
            shrunk[atom_index] -= 1
            trial = context_o.evaluate(shrunk, k=10)
            assert (not trial.feasible) or trial.cost >= best.cost - 1e-9

    def test_exhaustive_matches_eq6_cost(self, context_o):
        pair = closed_form_pair(context_o, k=10)
        best = exhaustive_assignment(context_o, k=10)
        assert best.cost <= pair.cost + 1e-9


class TestDecayCaps:
    def test_decay_limits_fetching(self, tiny_query):
        from repro.model.schema import signature
        from repro.services.profile import exact_profile, search_profile
        from repro.services.registry import ServiceRegistry
        from repro.services.table import TableExactService, TableSearchService

        registry = ServiceRegistry()
        registry.register(
            TableExactService(
                signature("cities", ["Country", "City"], ["io"]),
                exact_profile(erspi=1.0, response_time=1.0),
                [("it", "Roma")],
            )
        )
        registry.register(
            TableSearchService(
                signature("spots", ["City", "Spot", "Score"], ["ioo"]),
                search_profile(chunk_size=2, response_time=1.0, decay=4),
                [("Roma", f"s{i}", 10 - i) for i in range(10)],
                score=lambda row: float(row[2]),
            )
        )
        plan = PlanBuilder(tiny_query, registry).build(
            (
                registry.signature("cities").pattern("io"),
                registry.signature("spots").pattern("ioo"),
            ),
            chain_poset(2, [0, 1]),
        )
        context = FetchContext(plan, RequestResponseMetric(), CacheSetting.NO_CACHE)
        assert context.cap(1) == 2  # decay 4 / chunk 2
        # h_max = 1 * 2*2 * 0.8 = 3.2 < k: k unreachable, capped result.
        result = assign_fetches(context, k=10)
        assert not result.feasible
        assert result.fetches[1] == 2


class TestAssignFetches:
    def test_greedy_then_explore(self, context_o):
        result = assign_fetches(context_o, k=10, heuristic="greedy")
        assert result.feasible

    def test_square_then_explore(self, context_o):
        result = assign_fetches(context_o, k=10, heuristic="square")
        assert result.feasible

    def test_unknown_heuristic_rejected(self, context_o):
        with pytest.raises(ValueError):
            assign_fetches(context_o, k=10, heuristic="magic")

    def test_no_chunked_services(self, registry):
        from repro.model.atoms import Atom
        from repro.model.query import ConjunctiveQuery
        from repro.model.terms import Constant, Variable
        from repro.plans.builder import Poset

        q = ConjunctiveQuery(
            name="q",
            head=(Variable("Conf"),),
            atoms=(
                Atom("conf", (Constant("DB"), Variable("Conf"), Variable("S"),
                              Variable("E"), Variable("City"))),
            ),
        )
        plan = PlanBuilder(q, registry).build(
            (registry.signature("conf").pattern("ioooo"),), Poset(n=1)
        )
        context = FetchContext(plan, RequestResponseMetric(), CacheSetting.NO_CACHE)
        result = assign_fetches(context, k=10)
        assert result.fetches == {}
        assert result.feasible  # conf alone yields 20 >= 10

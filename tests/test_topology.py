"""Unit tests for phase 2: poset enumeration and heuristics.

Includes the headline count of Example 5.1: once conf is forced first,
the three remaining atoms admit exactly 19 plans — the number of
partial orders on 3 labeled elements.
"""

import pytest

from repro.model.atoms import atom
from repro.model.query import query
from repro.model.schema import schema_of, signature
from repro.model.terms import Variable
from repro.optimizer.topology import (
    TopologyEnumerator,
    atom_callable_after,
    heuristic_posets,
    maximal_parallel,
    selective_chain,
)
from repro.sources.travel import (
    CONF_ATOM,
    FLIGHT_ATOM,
    HOTEL_ATOM,
    WEATHER_ATOM,
    alpha1_patterns,
    poset_optimal,
    poset_parallel,
    poset_serial,
    running_example_query,
)


@pytest.fixture()
def travel_setup():
    return running_example_query(), alpha1_patterns()


class TestCallableAfter:
    def test_conf_directly_callable(self, travel_setup):
        q, patterns = travel_setup
        assert atom_callable_after(q, patterns, CONF_ATOM, frozenset())

    def test_others_not_directly_callable(self, travel_setup):
        q, patterns = travel_setup
        for index in (FLIGHT_ATOM, HOTEL_ATOM, WEATHER_ATOM):
            assert not atom_callable_after(q, patterns, index, frozenset())

    def test_all_callable_after_conf(self, travel_setup):
        q, patterns = travel_setup
        for index in (FLIGHT_ATOM, HOTEL_ATOM, WEATHER_ATOM):
            assert atom_callable_after(q, patterns, index, frozenset({CONF_ATOM}))


class TestExample51Count:
    def test_19_posets_for_running_example(self, travel_setup):
        """Example 5.1: 'there are 19 alternative plans'."""
        q, patterns = travel_setup
        assert len(TopologyEnumerator(q, patterns).all_posets()) == 19

    def test_unconstrained_three_atoms_also_19(self):
        # Sanity check against the known number of posets on 3 elements.
        schema = schema_of(
            [signature(name, ["X"], ["o"]) for name in ("a", "b", "c")]
        )
        q = query(
            "q", [Variable("X")],
            [atom("a", "X"), atom("b", "Y"), atom("c", "Z")],
        )
        del schema
        patterns = tuple(
            signature(name, ["X"], ["o"]).pattern("o") for name in ("a", "b", "c")
        )
        assert len(TopologyEnumerator(q, patterns).all_posets()) == 19

    def test_two_unconstrained_atoms_give_3(self):
        q = query("q", [Variable("X")], [atom("a", "X"), atom("b", "Y")])
        patterns = tuple(
            signature(name, ["X"], ["o"]).pattern("o") for name in ("a", "b")
        )
        assert len(TopologyEnumerator(q, patterns).all_posets()) == 3  # a<b, b<a, parallel

    def test_paper_plans_are_among_the_19(self, travel_setup):
        q, patterns = travel_setup
        closures = {p.closure() for p in TopologyEnumerator(q, patterns).all_posets()}
        for named in (poset_serial(), poset_parallel(), poset_optimal()):
            assert named.closure() in closures


class TestEnumeratorMechanics:
    def test_extensions_respect_callability(self, travel_setup):
        q, patterns = travel_setup
        enumerator = TopologyEnumerator(q, patterns)
        first_steps = list(enumerator.extensions(enumerator.initial_state))
        placed = {tuple(sorted(state[0])) for state in first_steps}
        assert placed == {(CONF_ATOM,)}  # only conf can start

    def test_complete_detection(self, travel_setup):
        q, patterns = travel_setup
        enumerator = TopologyEnumerator(q, patterns)
        assert not enumerator.is_complete(enumerator.initial_state)
        full = (frozenset(range(4)), frozenset())
        assert enumerator.is_complete(full)

    def test_partial_poset_remaps_indices(self, travel_setup):
        q, patterns = travel_setup
        enumerator = TopologyEnumerator(q, patterns)
        state = (frozenset({CONF_ATOM, WEATHER_ATOM}),
                 frozenset({(CONF_ATOM, WEATHER_ATOM)}))
        sub = enumerator.poset_of(state)
        assert sub.n == 2
        assert sub.closure() == frozenset({(0, 1)})


class TestHeuristics:
    def test_selective_chain_order(self, registry, travel_setup):
        q, patterns = travel_setup
        poset = selective_chain(q, patterns, registry)
        assert len(poset.closure()) == 6  # every pair of the 4 atoms ordered
        closure = poset.closure()
        # conf first (only callable), then weather (erspi 1 < chunks).
        assert (CONF_ATOM, WEATHER_ATOM) in closure
        assert (WEATHER_ATOM, FLIGHT_ATOM) in closure
        assert (WEATHER_ATOM, HOTEL_ATOM) in closure

    def test_selective_chain_matches_plan_s(self, registry, travel_setup):
        q, patterns = travel_setup
        poset = selective_chain(q, patterns, registry)
        # hotel (chunk 5) before flight (chunk 25) by effective erspi:
        # the paper's S orders weather, flight, hotel; both are valid
        # "increasing erspi" chains — ours picks the smaller chunk
        # first. Assert the serial shape and the weather-first prefix.
        assert len(poset.closure()) == 6  # every pair of the 4 atoms ordered
        assert poset.predecessors_of(WEATHER_ATOM) == {CONF_ATOM}

    def test_maximal_parallel_matches_plan_p(self, travel_setup):
        q, patterns = travel_setup
        poset = maximal_parallel(q, patterns)
        assert poset.closure() == poset_parallel().closure()

    def test_heuristics_bundle(self, registry, travel_setup):
        q, patterns = travel_setup
        bundle = heuristic_posets(q, patterns, registry)
        assert len(bundle.candidates()) == 2

    def test_non_permissible_patterns_raise(self, registry):
        q = running_example_query()
        schema_sig = signature("conf", ["T", "N", "S", "E", "C"], ["ooooi"])
        bad = (
            alpha1_patterns()[0],
            alpha1_patterns()[1],
            schema_sig.pattern("ooooi"),
            alpha1_patterns()[3],
        )
        with pytest.raises(ValueError):
            selective_chain(q, bad, registry)
        with pytest.raises(ValueError):
            maximal_parallel(q, bad)

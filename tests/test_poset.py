"""Unit tests for the Poset helper (precedence relations over atoms)."""

import pytest

from repro.plans.builder import Poset
from repro.plans.dag import PlanError
from repro.testing import chain_poset, parallel_after


class TestClosure:
    def test_transitive_closure(self):
        poset = Poset(n=3, pairs=frozenset({(0, 1), (1, 2)}))
        assert (0, 2) in poset.closure()

    def test_cycle_detected(self):
        poset = Poset(n=2, pairs=frozenset({(0, 1), (1, 0)}))
        with pytest.raises(PlanError):
            poset.closure()

    def test_reflexive_pair_rejected(self):
        with pytest.raises(PlanError):
            Poset(n=2, pairs=frozenset({(0, 0)}))

    def test_out_of_range_rejected(self):
        with pytest.raises(PlanError):
            Poset(n=2, pairs=frozenset({(0, 5)}))

    def test_empty_poset(self):
        poset = Poset(n=3)
        assert poset.closure() == frozenset()


class TestStructure:
    def test_predecessors(self):
        poset = Poset(n=3, pairs=frozenset({(0, 1), (1, 2)}))
        assert poset.predecessors_of(2) == {0, 1}
        assert poset.predecessors_of(0) == frozenset()

    def test_direct_predecessors_reduce_transitivity(self):
        poset = Poset(n=3, pairs=frozenset({(0, 1), (1, 2), (0, 2)}))
        assert poset.direct_predecessors_of(2) == {1}

    def test_direct_predecessors_keep_antichain(self):
        diamond = Poset(n=4, pairs=frozenset({(0, 1), (0, 2), (1, 3), (2, 3)}))
        assert diamond.direct_predecessors_of(3) == {1, 2}

    def test_minimal_and_maximal(self):
        poset = Poset(n=4, pairs=frozenset({(0, 1), (0, 2)}))
        closure = poset.closure()
        minimal = {k for k in range(poset.n) if not poset.predecessors_of(k)}
        maximal = {k for k in range(poset.n) if all(a != k for a, _ in closure)}
        assert minimal == {0, 3}
        assert maximal == {1, 2, 3}

    def test_is_chain(self):
        # A chain's closure relates every pair of its atoms.
        assert len(chain_poset(3, [2, 0, 1]).closure()) == 3
        assert len(Poset(n=3, pairs=frozenset({(0, 1)})).closure()) == 1


class TestConstructors:
    def test_chain_poset(self):
        poset = chain_poset(3, [2, 0, 1])
        assert (2, 0) in poset.closure()
        assert (2, 1) in poset.closure()
        assert (0, 1) in poset.closure()

    def test_chain_poset_rejects_non_permutation(self):
        with pytest.raises(PlanError):
            chain_poset(3, [0, 1])

    def test_parallel_after(self):
        poset = parallel_after(4, first=2)
        closure = poset.closure()
        assert {(2, 0), (2, 1), (2, 3)} <= closure
        assert len(closure) == 3  # the others stay incomparable

"""Property-based tests for the Poset helper."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plans.builder import Poset
from repro.plans.dag import PlanError
from repro.testing import chain_poset


@st.composite
def _random_dags(draw):
    """Random acyclic pair sets: only i < j arcs, so no cycles."""
    n = draw(st.integers(1, 6))
    pairs = set()
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.add((i, j))
    return Poset(n=n, pairs=frozenset(pairs))


class TestClosureProperties:
    @given(_random_dags())
    @settings(max_examples=80)
    def test_closure_contains_pairs(self, poset):
        assert poset.pairs <= poset.closure()

    @given(_random_dags())
    @settings(max_examples=80)
    def test_closure_is_transitive(self, poset):
        closure = poset.closure()
        for a, b in closure:
            for c, d in closure:
                if b == c:
                    assert (a, d) in closure

    @given(_random_dags())
    @settings(max_examples=80)
    def test_closure_idempotent(self, poset):
        once = poset.closure()
        again = Poset(n=poset.n, pairs=once).closure()
        assert once == again

    @given(_random_dags())
    @settings(max_examples=80)
    def test_closure_irreflexive_and_antisymmetric(self, poset):
        closure = poset.closure()
        for a, b in closure:
            assert a != b
            assert (b, a) not in closure


class TestStructureProperties:
    @given(_random_dags())
    @settings(max_examples=80)
    def test_direct_predecessors_are_predecessors(self, poset):
        for index in range(poset.n):
            direct = poset.direct_predecessors_of(index)
            assert direct <= poset.predecessors_of(index)

    @given(_random_dags())
    @settings(max_examples=80)
    def test_direct_predecessors_form_antichain(self, poset):
        closure = poset.closure()
        for index in range(poset.n):
            direct = sorted(poset.direct_predecessors_of(index))
            for a in direct:
                for b in direct:
                    if a != b:
                        assert (a, b) not in closure

    @given(_random_dags())
    @settings(max_examples=80)
    def test_an_isolated_atom_has_no_predecessor(self, poset):
        closure = poset.closure()
        involved = {a for a, _ in closure} | {b for _, b in closure}
        for index in set(range(poset.n)) - involved:
            assert poset.predecessors_of(index) == frozenset()
            assert poset.direct_predecessors_of(index) == frozenset()

    @given(_random_dags())
    @settings(max_examples=80)
    def test_minimal_elements_cover(self, poset):
        minimal = {k for k in range(poset.n) if not poset.predecessors_of(k)}
        assert minimal
        for index in set(range(poset.n)) - minimal:
            assert poset.predecessors_of(index) & minimal

    @given(_random_dags())
    @settings(max_examples=80)
    def test_chain_iff_all_comparable(self, poset):
        closure = poset.closure()
        all_comparable = all(
            (a, b) in closure or (b, a) in closure
            for a in range(poset.n)
            for b in range(a + 1, poset.n)
        )
        order = sorted(range(poset.n), key=lambda k: len(poset.predecessors_of(k)))
        is_chain = closure == chain_poset(poset.n, order).closure()
        assert is_chain == all_comparable


class TestCycleRejection:
    @given(st.integers(2, 5))
    def test_cycles_raise(self, n):
        cycle = {(i, (i + 1) % n) for i in range(n)}
        import pytest

        with pytest.raises(PlanError):
            Poset(n=n, pairs=frozenset(cycle)).closure()

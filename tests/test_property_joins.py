"""Property-based tests for the rank-preserving join strategies."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.joins import join_rows, merge_scan_order, nested_loop_order
from repro.model.predicates import BinaryExpression, Comparison
from repro.model.terms import Constant
from repro.execution.results import Row
from repro.model.terms import Variable
from repro.services.registry import JoinMethod
from repro.testing import compiled_join, execute_join, is_order_rank_consistent

_sizes = st.integers(min_value=0, max_value=8)


class TestVisitOrderProperties:
    @given(_sizes, _sizes)
    def test_nested_loop_covers_grid_exactly_once(self, n, m):
        cells = list(nested_loop_order(n, m))
        assert len(cells) == n * m
        assert len(set(cells)) == n * m

    @given(_sizes, _sizes)
    def test_merge_scan_covers_grid_exactly_once(self, n, m):
        cells = list(merge_scan_order(n, m))
        assert len(cells) == n * m
        assert len(set(cells)) == n * m

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=30)
    def test_nested_loop_rank_consistent(self, n, m):
        assert is_order_rank_consistent(list(nested_loop_order(n, m)))

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=30)
    def test_merge_scan_rank_consistent(self, n, m):
        assert is_order_rank_consistent(list(merge_scan_order(n, m)))

    @given(st.integers(1, 8), st.integers(1, 8))
    def test_merge_scan_diagonals_nondecreasing(self, n, m):
        sums = [i + j for i, j in merge_scan_order(n, m)]
        assert sums == sorted(sums)


def _rows(values, key_name):
    return [
        Row(bindings={Variable("K"): key, Variable(key_name): index})
        for index, key in enumerate(values)
    ]


_keys = st.lists(st.integers(0, 3), min_size=0, max_size=6)


class TestJoinSemantics:
    @given(_keys, _keys)
    @settings(max_examples=60)
    def test_join_equals_naive_natural_join(self, left_keys, right_keys):
        left = _rows(left_keys, "L")
        right = _rows(right_keys, "R")
        for method in (JoinMethod.NESTED_LOOP, JoinMethod.MERGE_SCAN):
            produced = execute_join(method, left, right)
            expected = {
                (lk, li, ri)
                for li, lk in enumerate(left_keys)
                for ri, rk in enumerate(right_keys)
                if lk == rk
            }
            actual = {
                (
                    row.bindings[Variable("K")],
                    row.bindings[Variable("L")],
                    row.bindings[Variable("R")],
                )
                for row in produced
            }
            assert actual == expected

    @given(_keys, _keys)
    @settings(max_examples=60)
    def test_both_methods_produce_same_multiset(self, left_keys, right_keys):
        left = _rows(left_keys, "L")
        right = _rows(right_keys, "R")
        nl = execute_join(JoinMethod.NESTED_LOOP, left, right)
        ms = execute_join(JoinMethod.MERGE_SCAN, left, right)
        as_set = lambda rows: sorted(
            tuple(sorted((v.name, x) for v, x in r.bindings.items())) for r in rows
        )
        assert as_set(nl) == as_set(ms)

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=30)
    def test_emission_respects_domination(self, n, m):
        """If pair (i,j) componentwise dominates (i',j'), it is emitted
        earlier — for both strategies, on an all-matching key."""
        left = _rows([0] * n, "L")
        right = _rows([0] * m, "R")
        for method in (JoinMethod.NESTED_LOOP, JoinMethod.MERGE_SCAN):
            produced = execute_join(method, left, right)
            emitted = [
                (row.bindings[Variable("L")], row.bindings[Variable("R")])
                for row in produced
            ]
            assert is_order_rank_consistent(emitted)


def _keyed_rows(keys, side_name, extra_keys=None):
    """Rows with a common K plus, on some sides, a second variable X
    (on every row of the side or on none: a join side has one layout)."""
    rows = []
    for index, key in enumerate(keys):
        bindings = {Variable("K"): key, Variable(side_name): index}
        if extra_keys:
            bindings[Variable("X")] = extra_keys[index % len(extra_keys)]
        rows.append(Row(bindings=bindings, ranks=((side_name, index),)))
    return rows


def _keyed_variables(side_name, extra_keys=None):
    """The variables :func:`_keyed_rows` binds, in binding order."""
    names = ("K", side_name, "X") if extra_keys else ("K", side_name)
    return tuple(Variable(name) for name in names)


def _hashed(method, left, right, predicates=(), lx=None, rx=None):
    """``join_rows`` over a left ``"L"`` and a right ``"R"`` side."""
    join = compiled_join(
        method, _keyed_variables("L", lx), _keyed_variables("R", rx), predicates
    )
    return join_rows(join, left, right)


_maybe_extra = st.none() | st.lists(st.integers(0, 1), min_size=0, max_size=6)


class TestHashedJoinMatchesReference:
    """``join_rows`` vs. the reference oracle (Section 3.3):
    identical row sets, identical bindings *and ranks*, identical
    emission order, hence the same domination property."""

    @given(_keys, _keys, _maybe_extra, _maybe_extra)
    @settings(max_examples=80)
    def test_identical_rows_and_order(self, lk, rk, lx, rx):
        left = _keyed_rows(lk, "L", lx)
        right = _keyed_rows(rk, "R", rx)
        for method in (JoinMethod.NESTED_LOOP, JoinMethod.MERGE_SCAN):
            reference = execute_join(method, left, right)
            hashed = _hashed(method, left, right, lx=lx, rx=rx)
            assert [(r.bindings, r.ranks) for r in hashed] == [
                (r.bindings, r.ranks) for r in reference
            ]

    @given(_keys, _keys)
    @settings(max_examples=40)
    def test_identical_under_predicates(self, lk, rk):
        left = _keyed_rows(lk, "L")
        right = _keyed_rows(rk, "R")
        predicate = Comparison(
            BinaryExpression("+", Variable("L"), Variable("R")), "<", Constant(5)
        )
        for method in (JoinMethod.NESTED_LOOP, JoinMethod.MERGE_SCAN):
            reference = execute_join(method, left, right, [predicate])
            hashed = _hashed(method, left, right, [predicate])
            assert [r.bindings for r in hashed] == [r.bindings for r in reference]

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=30)
    def test_hashed_emission_respects_domination(self, n, m):
        left = _rows([0] * n, "L")
        right = _rows([0] * m, "R")
        for method in (JoinMethod.NESTED_LOOP, JoinMethod.MERGE_SCAN):
            produced = _hashed(method, left, right)
            emitted = [
                (row.bindings[Variable("L")], row.bindings[Variable("R")])
                for row in produced
            ]
            assert len(emitted) == n * m
            assert is_order_rank_consistent(emitted)

    def test_no_shared_variables_falls_back(self):
        left = [Row(bindings={Variable("A"): 1})]
        right = [Row(bindings={Variable("B"): 2})]
        join = compiled_join(JoinMethod.MERGE_SCAN, (Variable("A"),), (Variable("B"),))
        result = join_rows(join, left, right)
        assert result == execute_join(JoinMethod.MERGE_SCAN, left, right)
        assert len(result) == 1  # cross product of disjoint bindings

    def test_unhashable_binding_falls_back(self):
        left = [Row(bindings={Variable("K"): [1, 2], Variable("L"): 0})]
        right = [Row(bindings={Variable("K"): [1, 2], Variable("R"): 0})]
        result = _hashed(JoinMethod.NESTED_LOOP, left, right)
        assert result == execute_join(JoinMethod.NESTED_LOOP, left, right)
        assert len(result) == 1

    def test_empty_sides(self):
        key = (Variable("K"),)
        for method in (JoinMethod.NESTED_LOOP, JoinMethod.MERGE_SCAN):
            join = compiled_join(method, key, key)
            assert join_rows(join, [], []) == []
            row = Row(bindings={Variable("K"): 1})
            assert join_rows(join, [row], []) == []
            assert join_rows(join, [], [row]) == []

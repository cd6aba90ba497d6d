"""Unit tests for the rank-preserving NL and MS join strategies."""

import pytest

from repro.execution.joins import (
    join_order,
    merge_scan_order,
    nested_loop_order,
)
from repro.execution.results import Row
from repro.model.predicates import comparison
from repro.model.terms import Variable
from repro.services.registry import JoinMethod
from repro.testing import execute_join, is_order_rank_consistent


class TestVisitOrders:
    def test_nested_loop_order_is_row_major(self):
        assert list(nested_loop_order(2, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_merge_scan_order_is_diagonal(self):
        assert list(merge_scan_order(2, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert list(merge_scan_order(3, 2)) == [
            (0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1),
        ]

    def test_orders_cover_the_grid(self):
        for maker in (nested_loop_order, merge_scan_order):
            cells = list(maker(3, 4))
            assert len(cells) == 12
            assert len(set(cells)) == 12

    def test_empty_sides(self):
        assert list(join_order(JoinMethod.MERGE_SCAN, 0, 5)) == []
        assert list(join_order(JoinMethod.NESTED_LOOP, 5, 0)) == []

    def test_both_orders_rank_consistent(self):
        for maker in (nested_loop_order, merge_scan_order):
            assert is_order_rank_consistent(list(maker(4, 3)))

    def test_inconsistency_detector(self):
        assert not is_order_rank_consistent([(1, 1), (0, 0)])


def _row(**bindings):
    return Row(bindings={Variable(k): v for k, v in bindings.items()})


class TestExecuteJoin:
    def test_natural_join_on_shared_variables(self):
        left = [_row(City="Roma", F=100), _row(City="Milano", F=70)]
        right = [_row(City="Roma", H=50), _row(City="Paris", H=90)]
        result = execute_join(JoinMethod.MERGE_SCAN, left, right)
        assert len(result) == 1
        assert result[0].bindings[Variable("City")] == "Roma"
        assert result[0].bindings[Variable("H")] == 50

    def test_cartesian_when_no_shared_variables(self):
        left = [_row(A=1), _row(A=2)]
        right = [_row(B=1), _row(B=2), _row(B=3)]
        result = execute_join(JoinMethod.NESTED_LOOP, left, right)
        assert len(result) == 6

    def test_predicates_filter_pairs(self):
        left = [_row(City="Roma", F=1500), _row(City="Roma", F=100)]
        right = [_row(City="Roma", H=700)]
        from repro.model.predicates import BinaryExpression, Comparison
        from repro.model.terms import Constant

        predicate = Comparison(
            BinaryExpression("+", Variable("F"), Variable("H")),
            "<",
            Constant(2000),
        )
        result = execute_join(JoinMethod.MERGE_SCAN, left, right, [predicate])
        assert len(result) == 1
        assert result[0].bindings[Variable("F")] == 100

    def test_ranks_are_concatenated(self):
        left = [Row(bindings={Variable("A"): 1}, ranks=(("l", 0),))]
        right = [Row(bindings={Variable("B"): 2}, ranks=(("r", 3),))]
        result = execute_join(JoinMethod.MERGE_SCAN, left, right)
        assert result[0].ranks == (("l", 0), ("r", 3))

    def test_merge_scan_emission_order(self):
        left = [_row(A=i) for i in range(3)]
        right = [_row(B=j) for j in range(3)]
        result = execute_join(JoinMethod.MERGE_SCAN, left, right)
        first_cells = [
            (row.bindings[Variable("A")], row.bindings[Variable("B")])
            for row in result[:3]
        ]
        assert first_cells == [(0, 0), (0, 1), (1, 0)]

    def test_nested_loop_emission_order(self):
        left = [_row(A=i) for i in range(2)]
        right = [_row(B=j) for j in range(3)]
        result = execute_join(JoinMethod.NESTED_LOOP, left, right)
        cells = [
            (row.bindings[Variable("A")], row.bindings[Variable("B")])
            for row in result
        ]
        assert cells == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_empty_inputs(self):
        assert execute_join(JoinMethod.MERGE_SCAN, [], [_row(A=1)]) == []
        assert execute_join(JoinMethod.NESTED_LOOP, [_row(A=1)], []) == []

    def test_score_filter_predicate(self):
        left = [_row(City="Roma", S=9), _row(City="Roma", S=5)]
        right = [_row(City="Roma")]
        predicate = comparison("S", ">=", 7)
        result = execute_join(JoinMethod.MERGE_SCAN, left, right, [predicate])
        assert len(result) == 1

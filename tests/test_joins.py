"""Unit tests for the rank-preserving NL and MS join strategies."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.joins import KeyIndex, _bounds
from repro.execution.results import Row
from repro.model.predicates import (
    BinaryExpression,
    Comparison,
    PredicateError,
    comparison,
)
from repro.model.terms import Constant, Variable
from repro.services.registry import JoinMethod
from repro.testing import (
    as_records,
    compiled_join,
    compose_ranking,
    execute_join,
    is_order_rank_consistent,
    join_stream,
    joined,
)
from repro.testing.reference import join_order, merge_scan_order, nested_loop_order

METHODS = (JoinMethod.NESTED_LOOP, JoinMethod.MERGE_SCAN)


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


# -- the streamed walk's region bounds ----------------------------------------


class TestRegionBounds:
    @pytest.mark.parametrize("method", METHODS)
    def test_a_region_bound_precedes_its_cells_and_meets_the_first(self, method):
        """For every count of indexed rows ``(n, m)`` of a plane whose
        rows all match, the ``(rank, arrival)`` bound of the cells over
        left rows ``>= n`` precedes each of them, and so does the one
        over right rows ``>= m``; each bound's arrival is its region's
        first (nested loop ``(n, 0)`` and ``(0, m)``, merge scan ``(n,
        n)`` and ``(m, 0)``), as the key index packs it."""
        left_ranks, right_ranks = [3, 0, 2, 5], [1, 4, 0, 2, 6]
        left = as_records([
            Row(bindings={Variable("K"): 0, Variable("A"): i}, ranks=(("l", rank),))
            for i, rank in enumerate(left_ranks)
        ])
        right = as_records([
            Row(bindings={Variable("K"): 0, Variable("B"): j}, ranks=(("r", rank),))
            for j, rank in enumerate(right_ranks)
        ])
        join = compiled_join(method, (Variable("K"), Variable("A")),
                             (Variable("K"), Variable("B")))
        index = KeyIndex(join.merge, method)
        cells = index.add(0, left, right, len(left)) + index.add(1, right, left, len(right))
        assert len(cells) == len(left) * len(right)

        def least(ranks):
            return min(ranks, default=math.inf)

        nested = method is JoinMethod.NESTED_LOOP
        for n in range(len(left) + 1):
            for m in range(len(right) + 1):
                left_bound, right_bound = _bounds(
                    nested, n, m, least(left_ranks[n:]), least(right_ranks[m:]),
                    least(left_ranks[:n]), least(right_ranks[:m]),
                )
                over_left = [cell[:2] for cell in cells if cell[2] >= n]
                over_right = [cell[:2] for cell in cells if cell[3] >= m]
                assert all(left_bound <= cell for cell in over_left)
                assert all(right_bound <= cell for cell in over_right)
                if over_left:
                    assert left_bound[1] == min(arrival for _, arrival in over_left)
                if over_right:
                    assert right_bound[1] == min(arrival for _, arrival in over_right)


# -- the cell kernel ----------------------------------------------------------
#
# Both join forms run one generated loop per join shape (shared slot
# pairs, right-only slots, predicate count): ``join_rows`` over every
# matching cell, ``JoinStream`` stage by stage.  The oracle is the
# dict-row reference scan, then the residual filter, then
# ``compose_ranking``.

_SHARED = [Variable(f"S{n}") for n in range(3)]
_OPERATORS = ("==", "!=", "<", "<=", ">", ">=")


def _side(layout, side):
    """Up to 6 rows over *layout*, small values (duplicates are rows
    too) and a rank each."""
    row = st.builds(
        lambda values, rank: Row(
            bindings=dict(zip(layout, values)), ranks=((side, rank),)
        ),
        st.tuples(*[st.integers(0, 2)] * len(layout)),
        st.integers(0, 9),
    )
    return st.lists(row, max_size=6)


@st.composite
def _kernel_case(draw):
    """Two sides sharing 0-3 variables, with 0-2 right-only ones, 0-2
    join predicates and 0-1 residual over the merged variables."""
    shared = _SHARED[: draw(st.integers(0, 3))]
    extra = [Variable(f"R{n}") for n in range(draw(st.integers(0, 2)))]
    left_layout = draw(st.permutations(shared + [Variable("A")]))
    right_layout = draw(st.permutations(shared + extra))
    left = draw(_side(left_layout, "L"))
    right = draw(_side(right_layout, "R"))
    merged = left_layout + extra
    operand = st.sampled_from(merged)
    comparison = st.one_of(
        st.builds(Comparison, operand, st.sampled_from(_OPERATORS),
                  st.builds(Constant, st.integers(0, 3))),
        st.builds(Comparison, operand, st.sampled_from(_OPERATORS), operand),
        st.builds(
            Comparison,
            st.builds(BinaryExpression, st.just("+"), operand, operand),
            st.sampled_from(_OPERATORS),
            st.builds(Constant, st.integers(0, 6)),
        ),
    )
    predicates = draw(st.lists(comparison, max_size=2))
    residual = draw(st.lists(comparison, max_size=1))
    return left_layout, right_layout, left, right, predicates, residual


def _oracle(method, left, right, predicates, residual):
    """Reference scan, then the residual filter (composed by the caller)."""
    return [
        row
        for row in execute_join(method, left, right, predicates)
        if all(p.holds(row.bindings) for p in residual)
    ]


def _exact(rows):
    return [(row.layout.variables, row.values, row.ranks) for row in rows]


class TestJoinKernel:
    @given(_kernel_case(), st.sampled_from(METHODS), st.data())
    @settings(max_examples=100, deadline=None)
    def test_both_join_forms_match_the_reference(self, case, method, data):
        left_layout, right_layout, left, right, predicates, residual = case
        join = compiled_join(method, left_layout, right_layout, predicates, residual)
        assert _exact(joined(join, left, right)) == _exact(
            execute_join(method, left, right, predicates)
        )
        expected = _oracle(method, left, right, predicates, residual)
        full = len(left) * len(right)
        first = data.draw(st.integers(0, full), label="k")
        again = data.draw(
            st.one_of(st.none(), st.integers(first, full + 1)), label="resumed k"
        )
        stream = join_stream(join, left, right)
        for k in (first, again):
            assert _exact(stream.top(k)) == _exact(compose_ranking(expected, k))

    @pytest.mark.parametrize("method", METHODS)
    def test_a_resumed_stream_hands_back_the_rows_it_delivered(self, method):
        """A candidate's row is built when it is first emitted and kept:
        a larger k returns the same row objects first, then new ones."""
        left = [Row(bindings={Variable("K"): i % 2, Variable("A"): i},
                    ranks=(("l", i),)) for i in range(4)]
        right = [Row(bindings={Variable("K"): j % 2, Variable("B"): j},
                     ranks=(("r", j),)) for j in range(4)]
        join = compiled_join(method, (Variable("K"), Variable("A")),
                             (Variable("K"), Variable("B")))
        stream = join_stream(join, left, right)
        first = stream.top(2)
        more = stream.top(5)
        assert len(first) == 2 and len(more) == 5
        assert all(old is new for old, new in zip(first, more))
        assert more == compose_ranking(execute_join(method, left, right), 5)

    def test_a_nan_key_is_rejected(self):
        nan = float("nan")  # one object: the key index files both under it
        left = [_row(K=nan, A=1), _row(K=2, A=2)]
        right = [_row(K=nan, B=1), _row(K=2, B=2)]
        for method in METHODS:
            join = compiled_join(method, (Variable("K"), Variable("A")),
                                 (Variable("K"), Variable("B")))
            expected = execute_join(method, left, right)
            assert len(expected) == 1
            assert joined(join, left, right) == expected
            assert join_stream(join, left, right).top(None) == expected

    def test_ne_keeps_the_operand_order(self):
        log = []

        class Probe:
            """Every probe is the same dict key (so every cell reaches
            the kernel); ``!=`` answers by the left operand's name and
            logs."""

            def __init__(self, name):
                self.name = name

            def __eq__(self, other):
                return True

            def __hash__(self):
                return 0

            def __ne__(self, other):
                log.append((self.name, other.name))
                return self.name.startswith("ne")

        layout = (Variable("K1"), Variable("K2"))
        left = [Row(bindings=dict(zip(layout, map(Probe, names))))
                for names in [("eq-a", "eq-b"), ("ne-c", "eq-d"), ("eq-e", "ne-f")]]
        right = [Row(bindings=dict(zip(layout[::-1], map(Probe, names))))
                 for names in [("ne-x", "eq-y"), ("eq-z", "ne-w")]]
        for method in METHODS:
            join = compiled_join(method, layout, layout[::-1])
            del log[:]
            expected = execute_join(method, left, right)
            reference_log = log[:]
            for run in (lambda: joined(join, left, right),
                        lambda: join_stream(join, left, right).top(None)):
                del log[:]
                rows = run()
                assert log == reference_log
                assert [row.bindings[Variable("K1")].name for row in rows] == [
                    row.bindings[Variable("K1")].name for row in expected
                ]
            assert ("eq-a", "ne-w") in reference_log  # the left operand leads

    def test_predicate_errors_match_the_reference_on_matching_cells_only(self):
        K, A, B, Z = (Variable(name) for name in "KABZ")
        cases = [
            Comparison(A, "<", B),  # a str against an int
            Comparison(A, "<", Constant(5)),
            Comparison(Z, "<", Constant(5)),  # Z is bound by neither side
        ]
        for predicate in cases:
            for method in METHODS:
                for predicates, residual in (([predicate], []), ([], [predicate])):
                    join = compiled_join(method, (K, A), (K, B), predicates, residual)
                    left = [_row(K=1, A="text")]
                    apart = [_row(K=2, B=1)]
                    assert joined(join, left, apart) == []
                    assert join_stream(join, left, apart).top(None) == []
                    matching = [_row(K=2, B=1), _row(K=1, B=1)]
                    with pytest.raises(PredicateError) as reference:
                        _oracle(method, left, matching, predicates, residual)
                    runs = [lambda: join_stream(join, left, matching).top(None)]
                    if predicates:  # join_rows leaves residuals to its caller
                        runs.append(lambda: joined(join, left, matching))
                    for run in runs:
                        with pytest.raises(PredicateError) as kernel:
                            run()
                        assert str(kernel.value) == str(reference.value)

    def test_an_unhashable_key_falls_back_to_the_full_plane(self):
        left = [_row(K=[1], A=0), _row(K=[2], A=1)]
        right = [_row(K=[2], B=0), _row(K=[1], B=1), _row(K=[1], B=2)]
        for method in METHODS:
            join = compiled_join(method, (Variable("K"), Variable("A")),
                                 (Variable("K"), Variable("B")))
            expected = execute_join(method, left, right)
            assert len(expected) == 3
            assert joined(join, left, right) == expected
            # The walk: the first row it indexes meets the key, and the
            # index keeps every row in one bucket from then on.
            stream = join_stream(join, left, right)
            assert stream.top(1) == compose_ranking(expected, 1)
            assert all(
                buckets.keys() <= {()} for _, buckets, _ in stream._index._sides
            )
            assert stream.top(None) == compose_ranking(expected)
            # The one-pass drain of a full scan.
            drained = join_stream(join, left, right).top(None)
            assert drained == compose_ranking(expected)

    def test_two_joins_of_one_shape_share_one_code_object(self):
        X, Y, P, Q, U, V = (Variable(name) for name in "XYPQUV")
        travel = compiled_join(
            JoinMethod.MERGE_SCAN, (X, P), (X, Q),
            [comparison(P, "<", 2000)], [comparison(Q, ">=", 28)],
        )
        other = compiled_join(
            JoinMethod.NESTED_LOOP, (Y, U), (Y, V),
            [comparison(U, "!=", "luxury")], [comparison(V, "<", U)],
        )
        unfiltered = compiled_join(JoinMethod.MERGE_SCAN, (X, P), (X, Q))

        def code(join):
            return join.merge.kernel(join.predicates + join.residual).__code__

        assert code(travel) is code(other)
        assert code(travel) is not code(unfiltered)
        # The file name is the shape's: shared pairs, right-only slots,
        # predicate count.
        assert code(travel).co_filename == "<join kernel 0=0 +1 p2>"
        assert code(unfiltered).co_filename == "<join kernel 0=0 +1 p0>"

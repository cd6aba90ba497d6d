"""Differential suite for the slot-tuple row representation.

Rows are a shared :class:`SlotLayout` plus a value tuple, and every
production loop — the key-bucketed join, the join stream, the engine's
service and output nodes — runs on those tuples through state compiled
by ``repro.execution.slots``.  Everything here checks **bit-identity**
(rows, ranks, emission order) of that single production path against
the dict-row references — the full-scan ``execute_join`` over
``Row.merged_with`` and the plan interpreter of
``repro.testing.reference`` — across random inputs, methods, k, resumes
and whole-plan executions, plus the documented corner cases:
unhashable keys (the bucketed join's fallback to the plane's order),
predicates and inputs over unbound variables and short service tuples
(same exceptions, same text).  Hand-built rows are joined by the
``CompiledJoin`` of the variables they were built over
(``repro.testing.compiled_join``), as the engine joins by its
program's.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.engine import ExecutionEngine, ExecutionError, ExecutionMode
from repro.execution.joins import JoinStream, join_rows
from repro.execution.lazy import LazyServiceCursor
from repro.execution.results import Row, SlotLayout, compose_ranking
from repro.execution.slots import (
    SlotJoinPlan,
    compile_comparison,
    compile_expression,
    compile_predicates,
)
from repro.model.atoms import Atom
from repro.model.predicates import BinaryExpression, Comparison, PredicateError
from repro.model.query import ConjunctiveQuery
from repro.model.schema import signature
from repro.model.terms import Constant, Variable
from repro.services.base import InvocationResult
from repro.plans.builder import PlanBuilder, chain_poset
from repro.services.profile import exact_profile, search_profile
from repro.services.registry import JoinMethod, ServiceRegistry
from repro.services.table import TableExactService, TableSearchService
from repro.testing.fixtures import ListPageSource, compiled_join
from repro.testing.reference import execute_join, merged_with, reference_execute

from tests.test_property_streaming import (
    _random_table_plan,
    _ranked_side,
    _signature,
)

METHODS = (JoinMethod.NESTED_LOOP, JoinMethod.MERGE_SCAN)

K, L, R = Variable("K"), Variable("L"), Variable("R")
X, Y = Variable("X"), Variable("Y")

_keys = st.lists(st.integers(0, 3), min_size=0, max_size=6)
_ranks = st.lists(st.integers(0, 9), min_size=6, max_size=6)
_k = st.one_of(st.none(), st.integers(0, 40))

_SUM_BELOW_5 = Comparison(BinaryExpression("+", L, R), "<", Constant(5))


def _share_one_layout(rows):
    return all(row.layout is rows[0].layout for row in rows)


class TestSlotLayout:
    def test_hand_built_row_is_a_layout_plus_values(self):
        row = Row(bindings={K: 1, L: "x"}, ranks=(("s", 2),))
        assert row.layout.variables == (K, L)
        assert row.values == (1, "x")
        assert row == Row(layout=SlotLayout((K, L)), values=(1, "x"), ranks=row.ranks)
        assert dict(row.bindings) == {K: 1, L: "x"}

    def test_layouts_compare_by_variable_tuple(self):
        assert SlotLayout((K, L)) == SlotLayout((K, L))
        assert hash(SlotLayout((K, L))) == hash(SlotLayout((K, L)))
        assert SlotLayout((K, L)) != SlotLayout((L, K))
        assert SlotLayout((K, L)) != SlotLayout((K,))

    def test_row_equality_is_by_content_not_slot_order(self):
        assert Row(bindings={K: 1, L: 2}) == Row(bindings={L: 2, K: 1})
        assert Row(bindings={K: 1, L: 2}) != Row(bindings={K: 1, L: 3})
        assert Row(bindings={K: 1}) != Row(bindings={K: 1}, ranks=(("s", 0),))

    def test_reprs_name_variables_and_values(self):
        row = Row(bindings={K: 1}, ranks=(("s", 0),))
        assert repr(row.layout) == "<SlotLayout [K]>"
        assert repr(row) == (
            "Row(bindings={Variable('K'): 1}, ranks=(('s', 0),), provenance=())"
        )
        assert row != "not a row" and row.layout != (K,)

    def test_bindings_is_a_read_only_view(self):
        row = Row(bindings={K: 1})
        with pytest.raises(TypeError):
            row.bindings[K] = 2
        assert row.value(K) == 1

    def test_join_plan_merge_matches_merged_with(self):
        left = Row(bindings={K: 1, L: 2})
        right_match = Row(bindings={K: 1, R: 3})
        right_clash = Row(bindings={K: 9, R: 3})
        plan = SlotJoinPlan(left.layout, right_match.layout)
        merged = plan.merge(left.values, right_match.values)
        expected = merged_with(left, right_match)
        assert Row(layout=plan.merged, values=merged) == expected
        assert plan.merged == expected.layout
        assert plan.merge(left.values, right_clash.values) is None
        assert merged_with(left, right_clash) is None


class TestCompiledPredicates:
    def test_compiled_comparison_matches_holds(self):
        layout = SlotLayout((L, R))
        holds = compile_comparison(_SUM_BELOW_5, layout)
        for pair in [(1, 2), (4, 4), (2, 3)]:
            row = Row(bindings={L: pair[0], R: pair[1]})
            assert holds(row.values) == _SUM_BELOW_5.holds(row.bindings)

    def test_compiled_comparison_raises_identical_error(self):
        predicate = Comparison(L, "<", Constant(5))
        holds = compile_comparison(predicate, SlotLayout((L,)))
        with pytest.raises(PredicateError) as compiled_error:
            holds(("text",))
        with pytest.raises(PredicateError) as dict_error:
            predicate.holds({L: "text"})
        assert str(compiled_error.value) == str(dict_error.value)

    def test_unbound_variable_raises_on_evaluation_not_compilation(self):
        layout = SlotLayout((L,))
        predicate = Comparison(BinaryExpression("+", L, R), "<", Constant(1))
        compiled = compile_predicates(
            [Comparison(L, "<", Constant(1)), predicate], layout
        )
        assert compiled[0]((0,)) is True
        for evaluate in (compile_expression(R, layout), compiled[1]):
            with pytest.raises(PredicateError) as compiled_error:
                evaluate((0,))
            with pytest.raises(PredicateError) as dict_error:
                predicate.holds({L: 0})
            assert str(compiled_error.value) == str(dict_error.value)


class TestHashedJoinSlotPath:
    @given(_keys, _keys, _ranks, _ranks)
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_dict_path(self, lk, rk, lr, rr):
        """The dict path is the reference scan ``execute_join``.  Every
        hand-built row owns its layout object, so each side's layouts
        are equal and (beyond one row) never identical."""
        left = _ranked_side(lk, lr, "L")
        right = _ranked_side(rk, rr, "R")
        assert len(left) < 2 or not _share_one_layout(left)
        for method in METHODS:
            for predicates in ((), (_SUM_BELOW_5,)):
                join = compiled_join(method, (K, L), (K, R), predicates)
                hashed = join_rows(join, left, right)
                oracle = execute_join(method, left, right, predicates)
                assert _signature(hashed) == _signature(oracle)

    def test_slot_path_engages_on_homogeneous_rows(self):
        # Every hand-built row owns its layout object; they compare
        # equal, so the compiled loop runs and stamps one shared layout.
        left = _ranked_side([0, 1, 0], [1, 2, 3, 0, 0, 0], "L")
        right = _ranked_side([0, 1, 1], [3, 2, 1, 0, 0, 0], "R")
        assert not _share_one_layout(left)
        join = compiled_join(JoinMethod.MERGE_SCAN, (K, L), (K, R))
        rows = join_rows(join, left, right)
        assert rows and _share_one_layout(rows)
        assert rows[0].layout.variables == (K, L, R)

    def test_no_shared_variable_is_the_full_plane(self):
        left = [Row(bindings={L: i}, ranks=(("L", i),)) for i in range(3)]
        right = [Row(bindings={R: j}, ranks=(("R", j),)) for j in range(2)]
        for method in METHODS:
            join = compiled_join(method, (L,), (R,), (_SUM_BELOW_5,))
            rows = join_rows(join, left, right)
            assert len(rows) == 6 and _share_one_layout(rows)
            assert _signature(rows) == _signature(
                execute_join(method, left, right, (_SUM_BELOW_5,))
            )

    def test_unhashable_keys_fall_back(self):
        left = [Row(bindings={K: [1], L: 0})]
        right = [Row(bindings={K: [1], R: 0})]
        join = compiled_join(JoinMethod.NESTED_LOOP, (K, L), (K, R))
        assert _signature(join_rows(join, left, right)) == _signature(
            execute_join(JoinMethod.NESTED_LOOP, left, right)
        )

    def test_uncompilable_predicate_falls_back_to_dict_error(self):
        """Name kept from when a predicate over an unbound variable was
        "uncompilable" and sent the join to the dict loop; today it
        compiles to a closure raising the reference's error."""
        left = [Row(bindings={K: 0, L: 0})]
        right = [Row(bindings={K: 0, R: 0})]
        unbound = Comparison(Variable("Missing"), "<", Constant(1))
        join = compiled_join(JoinMethod.NESTED_LOOP, (K, L), (K, R), (unbound,))
        with pytest.raises(PredicateError) as hashed_error:
            join_rows(join, left, right)
        with pytest.raises(PredicateError) as reference_error:
            execute_join(JoinMethod.NESTED_LOOP, left, right, (unbound,))
        assert str(hashed_error.value) == str(reference_error.value)
        # ... and, like the reference, only once a cell reaches it.
        clash = [Row(bindings={K: 1, R: 0})]
        assert join_rows(join, left, clash) == []


class TestJoinStreamSlotPath:
    @given(_keys, _keys, _ranks, _ranks, _k)
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_dict_stream(self, lk, rk, lr, rr, k):
        """The dict side is ``compose_ranking(execute_join(...), k)``;
        the rows' layouts are equal, not identical (see the hashed twin)."""
        left = _ranked_side(lk, lr, "L")
        right = _ranked_side(rk, rr, "R")
        assert len(right) < 2 or not _share_one_layout(right)
        for method in METHODS:
            join = compiled_join(method, (K, L), (K, R), (_SUM_BELOW_5,))
            stream = JoinStream(join, left, right)
            oracle = execute_join(method, left, right, (_SUM_BELOW_5,))
            assert _signature(stream.top(k)) == _signature(
                compose_ranking(oracle, k)
            )
            assert stream.cells_visited + stream.cells_skipped == len(left) * len(
                right
            )

    @given(_keys, _keys, _ranks, _ranks, st.integers(0, 6), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_resumed_slot_stream_stays_identical(
        self, lk, rk, lr, rr, k1, k2_extra
    ):
        left = _ranked_side(lk, lr, "L")
        right = _ranked_side(rk, rr, "R")
        for method in METHODS:
            # Residual predicates are applied inside the walk: the
            # reference filters by them before composing.
            join = compiled_join(
                method, (K, L), (K, R), residual=(_SUM_BELOW_5,)
            )
            stream = JoinStream(join, left, right)
            oracle = execute_join(method, left, right, (_SUM_BELOW_5,))
            for k in (k1, k1 + k2_extra):
                assert _signature(stream.top(k)) == _signature(
                    compose_ranking(oracle, k)
                )

    @pytest.mark.parametrize("method", METHODS)
    def test_lazily_pulled_page_joins_when_the_walk_reaches_it(self, method):
        """A lazily fetched left side: the walk answers from the first
        page without pulling the second, and the resumed walk pulls it
        and answers as the reference over every row does."""
        pages = [
            [Row(bindings={K: 0, L: 0}, ranks=(("L", 0),))],
            [
                Row(bindings={K: 0, L: 1}, ranks=(("L", 1),)),
                Row(bindings={K: 0, L: 2}, ranks=(("L", 2),)),
            ],
        ]
        left = LazyServiceCursor(ListPageSource(pages=pages))
        right = _ranked_side([0, 0, 1], [0, 1, 2, 0, 0, 0], "R")
        stream = JoinStream(compiled_join(method, (K, L), (K, R)), left, right)
        first = stream.top(1)
        assert [row.layout.variables for row in first] == [(K, L, R)]
        assert len(left.rows) == 1  # the second page was not pulled yet
        every = stream.top(None)
        assert len(left.rows) == 3
        oracle = execute_join(method, pages[0] + pages[1], right)
        assert _signature(every) == _signature(compose_ranking(oracle, None))


class TestEngineSlotPath:
    """Whole-plan execution vs ``repro.testing.reference``."""

    @given(
        st.lists(st.integers(0, 2), min_size=1, max_size=6),
        st.lists(st.integers(0, 2), min_size=1, max_size=6),
        st.one_of(st.none(), st.integers(0, 12)),
        st.sampled_from(METHODS),
    )
    @settings(max_examples=25, deadline=None)
    def test_engine_bit_identical_across_modes(self, lk, rk, k, method):
        registry, query, plan = _random_table_plan(lk, rk, method)
        head = tuple(query.head)
        reference = reference_execute(plan, registry)
        full = ExecutionEngine(registry, mode=ExecutionMode.PARALLEL).execute(
            plan, head=head, k=k
        )
        assert _signature(full.rows) == _signature(reference.rows)
        assert full.node_output_sizes == reference.node_output_sizes
        streamed = ExecutionEngine(registry, mode=ExecutionMode.STREAMED).execute(
            plan, head=head, k=k
        )
        assert _signature(streamed.rows) == _signature(
            compose_ranking(reference.rows, k)
        )
        if streamed.complete:
            assert len(streamed.rows) == len(reference.rows)
        for result in (full, streamed):
            assert _share_one_layout(result.rows)
            assert all(set(head) <= set(r.layout.variables) for r in result.rows)

    def test_full_scan_agrees_with_compose_ranking_oracle(self):
        registry, query, plan = _random_table_plan(
            [0, 1, 2, 0], [2, 1, 0, 0], JoinMethod.MERGE_SCAN
        )
        result = ExecutionEngine(registry, mode=ExecutionMode.PARALLEL).execute(
            plan, head=tuple(query.head)
        )
        assert result.rows and _signature(result.rows) == _signature(
            reference_execute(plan, registry).rows
        )


class TestOutputBindingProgram:
    """Every opcode of ``ServiceBinding`` against the reference's dict
    binder: constant selection at an output position, an output
    variable already bound upstream, a variable repeated in the atom."""

    def _registry(self):
        registry = ServiceRegistry()
        registry.register(
            TableExactService(
                signature("src", ["Q", "X"], ["io"]),
                exact_profile(erspi=3.0, response_time=1.0),
                [("q", 1), ("q", 2), ("q", 3)],
            )
        )
        registry.register(
            TableExactService(
                signature("triples", ["X", "Y", "Z"], ["ioo"]),
                exact_profile(erspi=3.0, response_time=1.0),
                [(1, 5, 5), (1, 5, 6), (2, 7, 7), (2, "c", 2), (3, "c", 9), (3, 3, 3)],
            )
        )
        return registry

    @pytest.mark.parametrize(
        "terms, expected",
        [
            ((X, Y, Y), {(1, 5), (2, 7), (3, 3)}),  # DUP
            ((X, Constant("c"), Y), {(2, 2), (3, 9)}),  # CONST
            ((X, Y, X), {(2, "c"), (3, 3)}),  # CHECK
            ((X, X, X), {(3, 3)}),  # CHECK twice, nothing fresh
        ],
    )
    def test_engine_binds_like_the_reference(self, terms, expected):
        registry = self._registry()
        query = ConjunctiveQuery(
            name="bind",
            head=(X, Y) if Y in terms else (X, X),
            atoms=(Atom("src", (Constant("q"), X)), Atom("triples", terms)),
            predicates=(),
        )
        plan = PlanBuilder(query, registry).build(
            (
                registry.signature("src").pattern("io"),
                registry.signature("triples").pattern("ioo"),
            ),
            chain_poset(2, [0, 1]),
        )
        reference = reference_execute(plan, registry)
        result = ExecutionEngine(registry).execute(plan, head=query.head)
        assert _signature(result.rows) == _signature(reference.rows)
        assert result.node_output_sizes == reference.node_output_sizes
        assert set(result.answers()) == expected
        assert _share_one_layout(result.rows)


class _ShortTupleService(TableSearchService):
    """Returns tuples one position short of the signature's arity."""

    def invoke(self, pattern, inputs, page=0):
        result = super().invoke(pattern, inputs, page)
        return InvocationResult(
            tuples=tuple(values[:-1] for values in result.tuples),
            latency=result.latency,
            has_more=result.has_more,
            ranks=result.ranks,
        )


class TestExecutionErrorsMatchTheReference:
    def _error_of(self, run):
        with pytest.raises(ExecutionError) as error:
            run()
        return str(error.value)

    def _assert_same_error_everywhere(self, plan, registry, head):
        expected = self._error_of(lambda: reference_execute(plan, registry))
        for mode, k in (
            (ExecutionMode.PARALLEL, None),
            (ExecutionMode.STREAMED, 2),  # the lazy page source
        ):
            engine = ExecutionEngine(registry, mode=mode)
            assert self._error_of(
                lambda: engine.execute(plan, head=head, k=k)
            ) == expected
        return expected

    def test_unbound_input_variable(self):
        registry, query, plan = _random_table_plan(
            [0, 1], [1, 0], JoinMethod.MERGE_SCAN
        )
        # Re-point the left service's input position at a variable no
        # upstream node binds.
        node = next(n for n in plan.service_nodes if n.service_name == "lefts")
        node.atom = Atom("lefts", (Variable("Nowhere"), K, L))
        message = self._assert_same_error_everywhere(plan, registry, query.head)
        assert message == f"unbound input variable Nowhere at {node.label}"

    def test_short_service_tuples(self):
        registry, query, plan = _random_table_plan(
            [0, 1], [1, 0], JoinMethod.MERGE_SCAN
        )
        registry._services["lefts"] = _ShortTupleService(
            signature("lefts", ["Q", "K", "L"], ["ioo"]),
            search_profile(chunk_size=4, response_time=1.0),
            [("q", 0, 0)],
            score=lambda row: 0.0,
        )
        message = self._assert_same_error_everywhere(plan, registry, query.head)
        assert message == "service returned a tuple of arity 2, expected 3"

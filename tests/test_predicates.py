"""Unit tests for comparison predicates and selectivity estimation."""

import pytest

from repro.execution.cache import CacheSetting
from repro.model.atoms import atom
from repro.model.predicates import (
    BinaryExpression,
    Comparison,
    PredicateError,
    add,
    comparison,
    evaluate_expression,
    expression_variables,
)
from repro.model.schema import AccessPattern
from repro.model.terms import Constant, Variable
from repro.plans.annotate import annotate
from repro.plans.dag import QueryPlan
from repro.plans.nodes import InputNode, OutputNode, ServiceNode
from repro.services.profile import exact_profile


def _filtered_output(predicates):
    """Tuples out of one exact service (ξ = 10) carrying *predicates*."""
    plan = QueryPlan()
    start = plan.add_node(InputNode())
    node = plan.add_node(
        ServiceNode(
            atom_index=0,
            atom=atom("s", "X", "Y"),
            pattern=AccessPattern("oo"),
            profile=exact_profile(erspi=10.0, response_time=1.0),
            predicates=predicates,
        )
    )
    end = plan.add_node(OutputNode())
    plan.add_arc(start, node)
    plan.add_arc(node, end)
    return annotate(plan, CacheSetting.NO_CACHE).tuples_out(node)


class TestExpressions:
    def test_variables_of_sum(self):
        expr = add("FPrice", "HPrice")
        assert expression_variables(expr) == {Variable("FPrice"), Variable("HPrice")}

    def test_evaluate_sum(self):
        expr = add("FPrice", "HPrice")
        value = evaluate_expression(
            expr, {Variable("FPrice"): 700, Variable("HPrice"): 400}
        )
        assert value == 1100

    def test_evaluate_nested(self):
        expr = BinaryExpression("*", add("A", "B"), Constant(2))
        assert evaluate_expression(expr, {Variable("A"): 1, Variable("B"): 2}) == 6

    def test_unbound_variable_raises(self):
        with pytest.raises(PredicateError):
            evaluate_expression(Variable("X"), {})

    def test_unknown_operator_rejected(self):
        with pytest.raises(PredicateError):
            BinaryExpression("/", Constant(1), Constant(2))


class TestComparison:
    def test_holds_numeric(self):
        predicate = comparison("Temperature", ">=", 28)
        assert predicate.holds({Variable("Temperature"): 30})
        assert not predicate.holds({Variable("Temperature"): 20})

    def test_holds_string_dates(self):
        predicate = comparison("Start", ">=", "2008-04-01")
        assert predicate.holds({Variable("Start"): "2008-05-01"})
        assert not predicate.holds({Variable("Start"): "2008-03-01"})

    def test_holds_arithmetic(self):
        predicate = Comparison(add("FPrice", "HPrice"), "<", Constant(2000))
        assert predicate.holds({Variable("FPrice"): 900, Variable("HPrice"): 900})
        assert not predicate.holds(
            {Variable("FPrice"): 1500, Variable("HPrice"): 800}
        )

    def test_type_mismatch_raises(self):
        predicate = comparison("X", "<", 10)
        with pytest.raises(PredicateError):
            predicate.holds({Variable("X"): "a-string"})

    def test_variables(self):
        predicate = Comparison(add("A", "B"), "<", Variable("C"))
        assert predicate.variables == {Variable("A"), Variable("B"), Variable("C")}

    def test_is_evaluable(self):
        predicate = comparison("X", "==", 1)
        assert predicate.holds({Variable("X"): 1})
        with pytest.raises(PredicateError):
            predicate.holds({Variable("Y"): 1})

    def test_unknown_operator(self):
        with pytest.raises(PredicateError):
            comparison("X", "~", 1)

    def test_equality_and_inequality_operators(self):
        eq = comparison("X", "==", 5)
        ne = comparison("X", "!=", 5)
        binding = {Variable("X"): 5}
        assert eq.holds(binding)
        assert not ne.holds(binding)


class TestSelectivity:
    def test_explicit_selectivity_wins(self):
        predicate = comparison("X", ">=", 1, selectivity=0.05)
        assert predicate.estimated_selectivity() == 0.05

    def test_default_by_operator(self):
        assert comparison("X", "==", 1).estimated_selectivity() == pytest.approx(0.1)
        assert comparison("X", ">=", 1).estimated_selectivity() == pytest.approx(1 / 3)

    def test_selectivity_bounds_enforced(self):
        with pytest.raises(PredicateError):
            comparison("X", "==", 1, selectivity=1.5)

    def test_combined_selectivity_is_product(self):
        predicates = (
            comparison("X", "==", 1, selectivity=0.5),
            comparison("Y", "==", 1, selectivity=0.2),
        )
        assert _filtered_output(predicates) == pytest.approx(10.0 * 0.1)

    def test_combined_selectivity_empty(self):
        assert _filtered_output(()) == pytest.approx(10.0)

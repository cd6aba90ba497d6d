"""Selection and comparison predicates of conjunctive queries.

The running example (Figure 3) uses predicates such as::

    Start >= '2007/3/14'
    Temperature >= 28
    FPrice + HPrice < 2000

We support comparisons between *linear expressions* over terms:
an expression is a term, or a sum/difference/product of expressions.
Each predicate can evaluate itself against a binding of variables to
values and can report its estimated *selectivity* (used by the cost
model, Section 3.4: "The selection predicates applied to all service
invocations are included for convenience in the notion of erspi").
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Union

from repro.model.terms import Constant, Term, Variable


class PredicateError(ValueError):
    """Raised on malformed predicates or evaluation of unbound variables."""


#: Default selectivity assumed for predicates when no estimate is given.
#: Mirrors the classical System-R style defaults for range predicates.
DEFAULT_SELECTIVITY: dict[str, float] = {
    "==": 0.1,
    "!=": 0.9,
    "<": 1.0 / 3.0,
    "<=": 1.0 / 3.0,
    ">": 1.0 / 3.0,
    ">=": 1.0 / 3.0,
}

#: Comparison operator symbols -> their two-argument implementations;
#: shared with the compiled predicates of ``repro.execution.slots``.
COMPARISON_OPERATORS: dict[str, Callable[[object, object], bool]] = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Arithmetic operator symbols of :class:`BinaryExpression`.
ARITHMETIC_OPERATORS: dict[str, Callable[[object, object], object]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}


@dataclass(frozen=True)
class BinaryExpression:
    """An arithmetic combination of two sub-expressions."""

    op: str
    left: "Expression"
    right: "Expression"

    def __post_init__(self) -> None:
        if self.op not in ARITHMETIC_OPERATORS:
            raise PredicateError(f"unknown arithmetic operator {self.op!r}")

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


Expression = Union[Term, BinaryExpression]


def expression_variables(expr: Expression) -> frozenset[Variable]:
    """All variables occurring in *expr*."""
    if isinstance(expr, Variable):
        return frozenset({expr})
    if isinstance(expr, Constant):
        return frozenset()
    return expression_variables(expr.left) | expression_variables(expr.right)


def evaluate_expression(expr: Expression, binding: Mapping[Variable, object]) -> object:
    """Evaluate *expr* under *binding*; raise if a variable is unbound."""
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, Variable):
        if expr not in binding:
            raise PredicateError(f"unbound variable {expr} in predicate expression")
        return binding[expr]
    left = evaluate_expression(expr.left, binding)
    right = evaluate_expression(expr.right, binding)
    return ARITHMETIC_OPERATORS[expr.op](left, right)


@dataclass(frozen=True)
class Comparison:
    """A comparison predicate ``left op right`` over expressions."""

    left: Expression
    op: str
    right: Expression
    selectivity: float | None = None

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPERATORS:
            raise PredicateError(f"unknown comparison operator {self.op!r}")
        if self.selectivity is not None and not 0.0 <= self.selectivity <= 1.0:
            raise PredicateError(
                f"selectivity must be in [0, 1], got {self.selectivity}"
            )

    @property
    def variables(self) -> frozenset[Variable]:
        """All variables mentioned by the predicate."""
        return expression_variables(self.left) | expression_variables(self.right)

    def estimated_selectivity(self) -> float:
        """Explicit selectivity if given, else the default for the operator."""
        if self.selectivity is not None:
            return self.selectivity
        return DEFAULT_SELECTIVITY[self.op]

    def is_evaluable(self, bound: frozenset[Variable]) -> bool:
        """True when every variable of the predicate is in *bound*."""
        return self.variables <= bound

    def holds(self, binding: Mapping[Variable, object]) -> bool:
        """Evaluate the predicate under *binding*."""
        left = evaluate_expression(self.left, binding)
        right = evaluate_expression(self.right, binding)
        try:
            return bool(COMPARISON_OPERATORS[self.op](left, right))
        except TypeError as exc:
            raise PredicateError(
                f"cannot compare {left!r} {self.op} {right!r}: {exc}"
            ) from exc

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


def comparison(
    left: object, op: str, right: object, selectivity: float | None = None
) -> Comparison:
    """Convenience constructor turning plain values into terms.

    >>> c = comparison("Temperature", ">=", 28)
    >>> str(c)
    'Temperature >= 28'
    """
    from repro.model.terms import term_from_literal

    def as_expression(value: object) -> Expression:
        if isinstance(value, BinaryExpression):
            return value
        return term_from_literal(value)

    return Comparison(
        left=as_expression(left),
        op=op,
        right=as_expression(right),
        selectivity=selectivity,
    )


def add(left: object, right: object) -> BinaryExpression:
    """Build ``left + right`` as an expression."""
    from repro.model.terms import term_from_literal

    def as_expression(value: object) -> Expression:
        if isinstance(value, BinaryExpression):
            return value
        return term_from_literal(value)

    return BinaryExpression(op="+", left=as_expression(left), right=as_expression(right))


def combined_selectivity(predicates: tuple[Comparison, ...]) -> float:
    """Product of the selectivities, assuming predicate independence.

    The paper assumes "domain uniformity and independence" (Section
    2.2), so the joint selectivity of several predicates is the product
    of individual selectivities.
    """
    result = 1.0
    for predicate in predicates:
        result *= predicate.estimated_selectivity()
    return result

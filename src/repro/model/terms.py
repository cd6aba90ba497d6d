"""Terms of the query language: variables and constants.

The paper (Section 3.1) denotes variables by uppercase letters and
constants by lowercase identifiers, numbers, or quoted strings.
Variables and constants are collectively called *terms*.  Terms are
immutable value objects so they can be used as dictionary keys and in
frozen sets throughout the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True, slots=True)
class Variable:
    """A query variable, written with an initial uppercase letter."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")
        if not (self.name[0].isupper() or self.name[0] == "_"):
            raise ValueError(
                f"variable name must start with an uppercase letter or '_': {self.name!r}"
            )

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


@dataclass(frozen=True, slots=True)
class Constant:
    """A constant value (string, number, date-as-string, ...)."""

    value: object

    def __post_init__(self) -> None:
        # Constants must be hashable: they are used in cache keys and
        # in frozen bindings.
        hash(self.value)

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


Term = Union[Variable, Constant]


def term_from_literal(value: object) -> Term:
    """Build a term from a plain Python value or an uppercase name.

    Strings that look like variable names (initial uppercase letter,
    alphanumeric) become :class:`Variable`; everything else becomes a
    :class:`Constant`.  Quoted strings should be unquoted by the caller
    (the datalog parser does this) and passed as ``Constant``.
    """
    if isinstance(value, Variable) or isinstance(value, Constant):
        return value
    if isinstance(value, str) and value and value[0].isupper() and value.isidentifier():
        return Variable(value)
    return Constant(value)

"""Unit tests for the term layer (variables and constants)."""

import pytest

from repro.model.atoms import Atom
from repro.model.terms import Constant, Variable, term_from_literal


class TestVariable:
    def test_name_is_kept(self):
        assert Variable("City").name == "City"

    def test_str_is_bare_name(self):
        assert str(Variable("City")) == "City"

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Variable("")

    def test_lowercase_name_rejected(self):
        with pytest.raises(ValueError):
            Variable("city")

    def test_underscore_prefix_allowed(self):
        assert Variable("_tmp").name == "_tmp"

    def test_equality_by_name(self):
        assert Variable("X") == Variable("X")
        assert Variable("X") != Variable("Y")

    def test_hashable_and_usable_as_key(self):
        bindings = {Variable("X"): 1}
        assert bindings[Variable("X")] == 1


class TestConstant:
    def test_value_kept(self):
        assert Constant(42).value == 42

    def test_string_str_is_quoted(self):
        assert str(Constant("Milano")) == "'Milano'"

    def test_number_str_is_bare(self):
        assert str(Constant(3)) == "3"

    def test_unhashable_value_rejected(self):
        with pytest.raises(TypeError):
            Constant([1, 2])

    def test_equality_by_value(self):
        assert Constant("a") == Constant("a")
        assert Constant("a") != Constant("b")
        assert Constant(1) != Constant("1")


class TestTermFromLiteral:
    def test_uppercase_string_becomes_variable(self):
        assert term_from_literal("City") == Variable("City")

    def test_lowercase_string_becomes_constant(self):
        assert term_from_literal("milano") == Constant("milano")

    def test_number_becomes_constant(self):
        assert term_from_literal(28) == Constant(28)

    def test_existing_terms_pass_through(self):
        variable = Variable("X")
        constant = Constant(5)
        assert term_from_literal(variable) is variable
        assert term_from_literal(constant) is constant

    def test_uppercase_with_space_is_constant(self):
        assert term_from_literal("New York") == Constant("New York")


class TestHelpers:
    def test_is_variable_and_is_constant(self):
        assert isinstance(term_from_literal("X"), Variable)
        assert not isinstance(term_from_literal("X"), Constant)
        assert isinstance(term_from_literal(1), Constant)
        assert Variable("X") != Constant("X")

    def test_variables_of_preserves_order_and_duplicates(self):
        terms = (Variable("X"), Constant(1), Variable("Y"), Variable("X"))
        assert Atom("s", terms).variables == (
            Variable("X"), Variable("Y"), Variable("X")
        )

    def test_constants_of(self):
        terms = (Variable("X"), Constant(1), Constant("a"))
        assert Atom("s", terms).variable_set == {Variable("X")}
        assert [t for t in terms if t not in Atom("s", terms).variable_set] == [
            Constant(1), Constant("a")
        ]

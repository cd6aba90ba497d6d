"""Unit tests for atoms and the callability test (Definition 3.1)."""

import pytest

from repro.model.atoms import Atom, atom
from repro.model.schema import AccessPattern, SchemaError, schema_of, signature
from repro.model.terms import Constant, Variable


@pytest.fixture()
def conf_atom():
    return atom("conf", "db", "Name", "Start", "End", "City")


class TestAtomBasics:
    def test_arity(self, conf_atom):
        assert conf_atom.arity == 5

    def test_variables_in_order(self, conf_atom):
        assert conf_atom.variables == (
            Variable("Name"), Variable("Start"), Variable("End"), Variable("City")
        )

    def test_constants_stay_terms(self, conf_atom):
        assert conf_atom.terms[0] == Constant("db")
        assert Constant("db") not in conf_atom.variable_set

    def test_constants(self, conf_atom):
        # A constant fills its input field by itself: no binding needed.
        assert conf_atom.input_terms(AccessPattern("ioooo")) == (Constant("db"),)
        assert conf_atom.input_variables(AccessPattern("ioooo")) == frozenset()

    def test_variable_set_deduplicates(self):
        repeated = atom("s", "X", "X", "Y")
        assert repeated.variable_set == {Variable("X"), Variable("Y")}

    def test_positions_of(self):
        # Every position of a repeated variable is one field of its pattern.
        repeated = atom("s", "X", "X", "Y")
        pattern = AccessPattern("ioo")
        assert repeated.input_terms(pattern) == (Variable("X"),)
        assert repeated.output_terms(pattern) == (Variable("X"), Variable("Y"))
        assert repeated.variables == (Variable("X"), Variable("X"), Variable("Y"))

    def test_str(self, conf_atom):
        assert str(conf_atom) == "conf('db', Name, Start, End, City)"

    def test_non_term_argument_rejected(self):
        with pytest.raises(TypeError):
            Atom("s", ("raw",))  # type: ignore[arg-type]


class TestPatternViews:
    def test_input_and_output_terms(self, conf_atom):
        pattern = AccessPattern("ioooo")
        assert conf_atom.input_terms(pattern) == (Constant("db"),)
        assert conf_atom.output_terms(pattern) == (
            Variable("Name"), Variable("Start"), Variable("End"), Variable("City")
        )

    def test_input_and_output_variables(self, conf_atom):
        pattern = AccessPattern("ooooi")
        assert conf_atom.input_variables(pattern) == {Variable("City")}
        assert Variable("Name") in conf_atom.output_variables(pattern)

    def test_pattern_arity_checked(self, conf_atom):
        with pytest.raises(SchemaError):
            conf_atom.input_terms(AccessPattern("io"))


class TestCallability:
    def test_constant_inputs_make_directly_callable(self, conf_atom):
        assert conf_atom.is_callable_given(AccessPattern("ioooo"), frozenset())

    def test_unbound_variable_input_blocks(self, conf_atom):
        assert not conf_atom.is_callable_given(AccessPattern("ooooi"), frozenset())

    def test_bound_variable_input_allows(self, conf_atom):
        bound = frozenset({Variable("City")})
        assert conf_atom.is_callable_given(AccessPattern("ooooi"), bound)

    def test_mixed_inputs(self):
        mixed = atom("f", "milano", "City", "Date")
        pattern = AccessPattern("iio")
        assert not mixed.is_callable_given(pattern, frozenset())
        assert mixed.is_callable_given(pattern, frozenset({Variable("City")}))


class TestSchemaValidation:
    def test_validate_against_ok(self, conf_atom):
        schema = schema_of(
            [signature("conf", ["T", "N", "S", "E", "C"], ["ioooo"])]
        )
        assert conf_atom.validate_against(schema).name == "conf"

    def test_validate_against_wrong_arity(self, conf_atom):
        schema = schema_of([signature("conf", ["T", "N"], ["io"])])
        with pytest.raises(SchemaError):
            conf_atom.validate_against(schema)

    def test_validate_against_unknown_service(self, conf_atom):
        schema = schema_of([signature("other", ["A"], ["o"])])
        with pytest.raises(SchemaError):
            conf_atom.validate_against(schema)

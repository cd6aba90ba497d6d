"""Unit tests for the datalog-like query parser."""

import pytest

from repro.model.parser import ParseError, parse_query
from repro.model.predicates import BinaryExpression
from repro.model.terms import Constant, Variable


class TestBasicParsing:
    def test_single_atom(self):
        q = parse_query("q(X) :- s(X).")
        assert q.name == "q"
        assert q.head == (Variable("X"),)
        assert len(q.atoms) == 1
        assert q.atoms[0].service == "s"

    def test_trailing_dot_optional(self):
        q = parse_query("q(X) :- s(X)")
        assert len(q.atoms) == 1

    def test_left_arrow_alternative(self):
        q = parse_query("q(X) <- s(X).")
        assert len(q.atoms) == 1

    def test_constants_quoted_and_numeric(self):
        q = parse_query("q(X) :- s('Milano', X, 28, 3.5).")
        terms = q.atoms[0].terms
        assert terms[0] == Constant("Milano")
        assert terms[2] == Constant(28)
        assert terms[3] == Constant(3.5)

    def test_lowercase_identifier_is_constant(self):
        q = parse_query("q(X) :- s(db, X).")
        assert q.atoms[0].terms[0] == Constant("db")

    def test_double_quoted_strings(self):
        q = parse_query('q(X) :- s("New York", X).')
        assert q.atoms[0].terms[0] == Constant("New York")


class TestPredicates:
    def test_simple_comparison(self):
        q = parse_query("q(X) :- s(X, T), T >= 28.")
        assert len(q.predicates) == 1
        assert q.predicates[0].op == ">="

    def test_equals_normalized(self):
        q = parse_query("q(X) :- s(X), X = 3.")
        assert q.predicates[0].op == "=="

    def test_arithmetic_expression(self):
        q = parse_query("q(F, H) :- s(F, H), F + H < 2000.")
        predicate = q.predicates[0]
        assert isinstance(predicate.left, BinaryExpression)
        assert predicate.holds({Variable("F"): 100, Variable("H"): 100})

    def test_parenthesized_expression(self):
        q = parse_query("q(A) :- s(A), (A + 1) * 2 <= 10.")
        assert q.predicates[0].holds({Variable("A"): 4})
        assert not q.predicates[0].holds({Variable("A"): 5})


class TestRunningExampleText:
    QUERY = """
    q(Conf, City, HPrice, FPrice, Start, End, Hotel) :-
        flight('Milano', City, Start, End, StartTime, EndTime, FPrice),
        hotel(Hotel, City, 'luxury', Start, End, HPrice),
        conf('DB', Conf, Start, End, City),
        weather(City, Temperature, Start),
        Start >= '2007-03-14', Temperature >= 28,
        FPrice + HPrice < 2000.
    """

    def test_full_query(self):
        q = parse_query(self.QUERY)
        assert q.services == ("flight", "hotel", "conf", "weather")
        assert len(q.predicates) == 3
        assert q.arity == 7
        assert len(set(q.services)) > 1


class TestErrors:
    def test_missing_implies(self):
        with pytest.raises(ParseError):
            parse_query("q(X) s(X).")

    def test_variable_head_enforced(self):
        with pytest.raises(ParseError):
            parse_query("q('a') :- s(X).")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_query("q(X) :- s(X) @ t(X).")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_query("q(X) :- s(X). extra")

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse_query("q(X) :- s(X.")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_query("")


class TestRoundTrip:
    def test_parsed_query_matches_programmatic(self):
        from repro.model.atoms import atom
        from repro.model.query import query

        parsed = parse_query("q(City) :- cities('it', City).")
        built = query("q", [Variable("City")], [atom("cities", "it", "City")])
        assert parsed.atoms == built.atoms
        assert parsed.head == built.head

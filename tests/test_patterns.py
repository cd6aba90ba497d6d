"""Unit tests for phase 1: permissibility and cogency (Example 4.1)."""

import pytest

from repro.model.atoms import atom
from repro.model.query import query
from repro.model.schema import schema_of, signature
from repro.model.terms import Variable
from repro.optimizer.patterns import (
    cogency_sorted,
    is_executable,
    most_cogent_sequences,
    permissible_sequences,
    select_patterns,
    sequence_is_more_cogent,
    sequence_is_strictly_more_cogent,
)
from repro.sources.travel import running_example_query, travel_registry


class TestExecutability:
    def test_constant_seed_chain(self):
        schema = schema_of(
            [
                signature("a", ["K", "X"], ["io"]),
                signature("b", ["X", "Y"], ["io"]),
            ]
        )
        q = query("q", [Variable("Y")], [atom("a", "k", "X"), atom("b", "X", "Y")])
        patterns = (schema.get("a").pattern("io"), schema.get("b").pattern("io"))
        assert is_executable(q, patterns)

    def test_circular_inputs_not_executable(self):
        schema = schema_of(
            [
                signature("a", ["X", "Y"], ["io"]),
                signature("b", ["Y", "X"], ["io"]),
            ]
        )
        q = query(
            "q", [Variable("X")], [atom("a", "X", "Y"), atom("b", "Y", "X")]
        )
        patterns = (schema.get("a").pattern("io"), schema.get("b").pattern("io"))
        assert not is_executable(q, patterns)

    def test_order_independence_of_fixpoint(self):
        # b must run first even though it appears second.
        schema = schema_of(
            [
                signature("a", ["X", "Y"], ["io"]),
                signature("b", ["X"], ["o"]),
            ]
        )
        q = query("q", [Variable("Y")], [atom("a", "X", "Y"), atom("b", "X")])
        patterns = (schema.get("a").pattern("io"), schema.get("b").pattern("o"))
        assert is_executable(q, patterns)

    def test_pattern_count_checked(self):
        q = query("q", [Variable("X")], [atom("a", "X")])
        with pytest.raises(ValueError):
            is_executable(q, ())


class TestExample41:
    """The paper's Example 4.1, on the real running-example schema."""

    def test_three_permissible_sequences(self):
        q = running_example_query()
        sequences = permissible_sequences(q, travel_registry().schema())
        # conf has 2 patterns x hotel has 2 patterns = 4 combinations;
        # α3 = (conf City-driven, hotel City-driven) is not permissible.
        assert len(sequences) == 3
        codes = {(s[2].code, s[1].code) for s in sequences}
        assert ("ooooi", "oiiiio") not in codes

    def test_alpha3_not_permissible(self):
        q = running_example_query()
        schema = travel_registry().schema()
        alpha3 = (
            schema.get("flight").pattern("iiiiooo"),
            schema.get("hotel").pattern("oiiiio"),
            schema.get("conf").pattern("ooooi"),
            schema.get("weather").pattern("ioi"),
        )
        assert not is_executable(q, alpha3)

    def test_most_cogent_are_alpha1_and_alpha4(self):
        q = running_example_query()
        sequences = permissible_sequences(q, travel_registry().schema())
        top = most_cogent_sequences(sequences)
        assert len(top) == 2
        codes = {(s[2].code, s[1].code) for s in top}
        assert codes == {("ioooo", "oiiiio"), ("ooooi", "oooooo")}

    def test_alpha1_dominates_alpha2(self):
        q = running_example_query()
        schema = travel_registry().schema()
        alpha1 = (
            schema.get("flight").pattern("iiiiooo"),
            schema.get("hotel").pattern("oiiiio"),
            schema.get("conf").pattern("ioooo"),
            schema.get("weather").pattern("ioi"),
        )
        alpha2 = (
            schema.get("flight").pattern("iiiiooo"),
            schema.get("hotel").pattern("oooooo"),
            schema.get("conf").pattern("ioooo"),
            schema.get("weather").pattern("ioi"),
        )
        assert sequence_is_strictly_more_cogent(alpha1, alpha2)
        assert not sequence_is_more_cogent(alpha2, alpha1)
        del q


class TestOrdering:
    def test_cogency_sorted_puts_most_cogent_first(self):
        q = running_example_query()
        sequences = permissible_sequences(q, travel_registry().schema())
        ordered = cogency_sorted(sequences)
        top = set(most_cogent_sequences(sequences))
        boundary = len(top)
        assert all(s in top for s in ordered[:boundary])
        assert all(s not in top for s in ordered[boundary:])

    def test_select_patterns_packaging(self):
        q = running_example_query()
        phase = select_patterns(q, travel_registry().schema())
        assert len(phase.permissible) == 3
        assert len(most_cogent_sequences(phase.permissible)) == 2
        assert len(phase.ordered) == 3

    def test_sequences_of_different_length_rejected(self):
        from repro.model.schema import AccessPattern

        with pytest.raises(ValueError):
            sequence_is_more_cogent(
                (AccessPattern("i"),), (AccessPattern("i"), AccessPattern("o"))
            )

"""Unit tests for access patterns, signatures, and schemas (Sec. 3.1)."""

import pytest

from repro.model.schema import (
    AccessPattern,
    Schema,
    SchemaError,
    schema_of,
    signature,
)
from repro.optimizer.patterns import most_cogent_sequences


class TestAccessPattern:
    def test_positions(self):
        pattern = AccessPattern("iooio")
        assert pattern.input_positions == (0, 3)
        assert pattern.output_positions == (1, 2, 4)
        assert pattern.arity == 5

    def test_is_input(self):
        pattern = AccessPattern("io")
        assert 0 in pattern.input_positions
        assert 0 not in pattern.output_positions
        assert 1 in pattern.output_positions
        assert 1 not in pattern.input_positions

    def test_invalid_symbols_rejected(self):
        with pytest.raises(SchemaError):
            AccessPattern("ixo")

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            AccessPattern("")

    def test_cogency_reflexive(self):
        pattern = AccessPattern("io")
        assert pattern.is_more_cogent_than(pattern)

    def test_cogency_more_inputs_wins(self):
        # Every input of 'ooooo' (none) is an input of 'ioooo'.
        more = AccessPattern("ioooo")
        less = AccessPattern("ooooo")
        assert more.is_more_cogent_than(less)
        assert not less.is_more_cogent_than(more)

    def test_cogency_incomparable(self):
        first = AccessPattern("io")
        second = AccessPattern("oi")
        assert not first.is_more_cogent_than(second)
        assert not second.is_more_cogent_than(first)

    def test_cogency_arity_mismatch(self):
        with pytest.raises(SchemaError):
            AccessPattern("io").is_more_cogent_than(AccessPattern("ioo"))


class TestServiceSignature:
    def test_basic_construction(self):
        sig = signature("conf", ["Topic", "Name", "City"], ["ioo", "ooi"])
        assert sig.arity == 3
        assert sig.pattern("ioo").code == "ioo"

    def test_unknown_pattern_lookup(self):
        sig = signature("conf", ["Topic", "Name", "City"], ["ioo"])
        with pytest.raises(SchemaError):
            sig.pattern("ooi")

    def test_pattern_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            signature("s", ["A", "B"], ["ioo"])

    def test_duplicate_patterns_rejected(self):
        with pytest.raises(SchemaError):
            signature("s", ["A", "B"], ["io", "io"])

    def test_no_patterns_rejected(self):
        with pytest.raises(SchemaError):
            signature("s", ["A"], [])

    def test_most_cogent_patterns(self):
        sig = signature("hotel", ["N", "C"], ["oi", "oo"])
        top = most_cogent_sequences([(p,) for p in sig.patterns])
        assert [s[0].code for s in top] == ["oi"]

    def test_most_cogent_keeps_incomparable(self):
        sig = signature("s", ["A", "B"], ["io", "oi"])
        top = most_cogent_sequences([(p,) for p in sig.patterns])
        assert {s[0].code for s in top} == {"io", "oi"}

    def test_domain_of(self):
        sig = signature("s", ["Topic", "City"], ["io"])
        assert sig.domain_of(1) == "City"


class TestSchema:
    def test_add_and_get(self):
        schema = Schema()
        sig = signature("s", ["A"], ["i"])
        schema.add(sig)
        assert schema.get("s") is sig
        assert "s" in schema
        assert len(schema) == 1

    def test_duplicate_rejected(self):
        schema = Schema()
        schema.add(signature("s", ["A"], ["i"]))
        with pytest.raises(SchemaError):
            schema.add(signature("s", ["A"], ["o"]))

    def test_unknown_lookup(self):
        with pytest.raises(SchemaError):
            Schema().get("nope")

    def test_schema_of_builds_from_iterable(self):
        schema = schema_of([signature("a", ["X"], ["o"]), signature("b", ["X"], ["i"])])
        assert schema.names == ("a", "b")

    def test_services_outputting_domain(self):
        from repro.extensions.expansion import seeder_candidates

        schema = schema_of(
            [
                signature("towns", ["City"], ["o"]),
                signature("lookup", ["City"], ["i"]),
                signature("pair", ["Name", "City"], ["oi"]),
            ]
        )
        # Only a pattern with City at an output field seeds City.
        found = seeder_candidates(schema, "City", frozenset())
        assert [(sig.name, pattern.code, k) for sig, pattern, k in found] == [
            ("towns", "o", 0)
        ]

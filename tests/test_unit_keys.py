"""The per-shape unit-key reader against the dict-built reference key.

A unit is named by ``(pattern code, ((position, value), ...))``: the
logical cache, the demotion mask, provenance and certificates all key
on it, and ``dict(key[1])`` is what ``service.invoke`` is handed on a
miss.  The engine reads it with a reader generated per input shape
(``repro.execution.slots._unit_key_factory``);
``repro.testing.reference_unit_key`` builds it through a position →
value dict.  Hypothesis draws input specs of one to four positions,
each a constant or a feed slot, interleaved with output positions in
any order and with slots repeated.
"""

from __future__ import annotations

import linecache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.results import SlotLayout
from repro.execution.slots import ServiceBinding, _unit_key_factory, unit_input_key
from repro.model.atoms import Atom
from repro.model.schema import AccessPattern
from repro.model.terms import Constant, Variable
from repro.plans.nodes import ServiceNode
from repro.services.profile import exact_profile
from repro.testing import reference_unit_key

FEED = SlotLayout(tuple(Variable(f"V{slot}") for slot in range(4)))
VALUES = st.one_of(st.integers(-3, 3), st.sampled_from(["a", "b", "it's"]))


def _binding(pattern: str, inputs: list) -> ServiceBinding:
    """``svc`` over *pattern*, its input positions holding *inputs* in
    order and its outputs fresh variables, compiled against ``FEED``."""
    terms, fed = [], iter(inputs)
    for position, adornment in enumerate(pattern):
        terms.append(next(fed) if adornment == "i" else Variable(f"O{position}"))
    node = ServiceNode(
        node_id="s1", atom_index=0, atom=Atom("svc", tuple(terms)),
        pattern=AccessPattern(pattern),
        profile=exact_profile(erspi=1.0, response_time=1.0),
    )
    return ServiceBinding(node, FEED)


@st.composite
def _specs(draw):
    """(pattern, input terms, feed values): 1-4 inputs, each a constant
    or one of the feed's four slots (repeats allowed), and 0-2 outputs,
    the adornments in any order."""
    inputs = draw(st.lists(
        st.one_of(VALUES.map(Constant), st.sampled_from(FEED.variables)),
        min_size=1, max_size=4,
    ))
    outputs = draw(st.integers(0, 2))
    pattern = "".join(draw(st.permutations("i" * len(inputs) + "o" * outputs)))
    values = tuple(draw(st.lists(VALUES, min_size=4, max_size=4)))
    return pattern, inputs, values


def _other_constants(inputs: list) -> list:
    """*inputs* with every constant's value changed."""
    return [
        Constant(("other", term.value)) if isinstance(term, Constant) else term
        for term in inputs
    ]


@given(spec=_specs())
@settings(max_examples=200, deadline=None)
def test_the_reader_reads_the_reference_key(spec):
    pattern, inputs, values = spec
    binding = _binding(pattern, inputs)
    key = unit_input_key(binding, values)
    reference_inputs, reference_key = reference_unit_key(
        binding.pattern_code, binding.input_spec, values
    )
    assert key == reference_key
    assert dict(key[1]) == reference_inputs
    # And straight off the atom: each input position, in order, holds
    # its constant or the feed value of its variable.
    positions = [p for p, adornment in enumerate(pattern) if adornment == "i"]
    assert key == (pattern, tuple(
        (p, term.value if isinstance(term, Constant) else values[FEED.index[term]])
        for p, term in zip(positions, inputs)
    ))


@given(spec=_specs())
@settings(max_examples=100, deadline=None)
def test_bindings_that_differ_in_a_constant_share_one_reader(spec):
    """A fresh constant (every ``params_cold`` request brings some)
    compiles no reader: the constants are arguments, not source."""
    pattern, inputs, values = spec
    binding = _binding(pattern, inputs)
    compiled = _unit_key_factory.cache_info().misses
    twin = _binding(pattern, _other_constants(inputs))
    assert _unit_key_factory.cache_info().misses == compiled
    assert twin._unit_key.__code__ is binding._unit_key.__code__
    key, twin_key = unit_input_key(binding, values), unit_input_key(twin, values)
    assert [p for p, _ in key[1]] == [p for p, _ in twin_key[1]]
    assert [
        (value != twin_value) for (_, value), (_, twin_value) in zip(key[1], twin_key[1])
    ] == [isinstance(term, Constant) for term in inputs]


def test_a_reader_is_named_by_its_shape_and_its_source_is_in_linecache():
    binding = _binding("oiii", [Variable("V2"), Constant("x"), Variable("V2")])
    code = binding._unit_key.__code__
    assert code.co_filename == "<unit key 1=2 2=c 3=2>"
    assert linecache.getlines(code.co_filename)[code.co_firstlineno - 1] == (
        "    return lambda values: (code, ((1, values[2]), k2, (3, values[2]), ))\n"
    )
    assert unit_input_key(binding, ("a", "b", "c", "d")) == (
        "oiii", ((1, "c"), (2, "x"), (3, "c"))
    )

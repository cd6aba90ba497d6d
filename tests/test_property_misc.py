"""Property-based tests: parser round trips, templates, specs, rows."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.results import Row
from repro.model.parser import parse_query
from repro.model.template import QueryTemplate, parameter
from repro.model.terms import Variable
from repro.plans.spec import PlanSpec
from repro.testing import merged_with

_names = st.text(
    alphabet="abcdefghij", min_size=1, max_size=6
).map(lambda s: s)
_variables = st.sampled_from(["X", "Y", "Z", "Value", "City"])
_constants = st.one_of(
    st.integers(0, 999),
    st.sampled_from(["milano", "db", "luxury"]),
)


@st.composite
def _simple_queries(draw):
    """Random small queries rendered in datalog syntax."""
    n_atoms = draw(st.integers(1, 3))
    used_vars: list[str] = []
    atoms = []
    for index in range(n_atoms):
        name = f"s{index}"
        args = []
        for _ in range(draw(st.integers(1, 3))):
            if draw(st.booleans()):
                var = draw(_variables)
                used_vars.append(var)
                args.append(var)
            else:
                value = draw(_constants)
                args.append(f"'{value}'" if isinstance(value, str) else str(value))
        atoms.append(f"{name}({', '.join(args)})")
    if not used_vars:
        atoms[0] = "s0(X)"
        used_vars.append("X")
    head = ", ".join(sorted(set(used_vars)))
    return f"q({head}) :- {', '.join(atoms)}."


class TestParserRoundTrip:
    @given(_simple_queries())
    @settings(max_examples=80)
    def test_parse_render_parse_fixpoint(self, text):
        """parse(str(parse(text))) == parse(text)."""
        first = parse_query(text)
        rendered = str(first)
        second = parse_query(rendered + ".")
        assert first.atoms == second.atoms
        assert first.head == second.head
        assert first.predicates == second.predicates

    def test_running_example_round_trip(self):
        from repro.sources.travel import running_example_query

        query = running_example_query()
        parsed = parse_query(str(query) + ".")
        assert parsed.atoms == query.atoms
        assert parsed.head == query.head
        # Selectivities are metadata, not syntax: compare structure.
        assert [(str(p.left), p.op, str(p.right)) for p in parsed.predicates] == [
            (str(p.left), p.op, str(p.right)) for p in query.predicates
        ]


class TestTemplateProperties:
    @given(st.sampled_from(["DB", "AI", "IR"]), st.integers(100, 2000))
    @settings(max_examples=20)
    def test_instantiation_removes_all_parameters(self, topic, budget):
        from repro.model.atoms import Atom
        from repro.model.predicates import Comparison
        from repro.model.query import ConjunctiveQuery
        from repro.model.terms import Constant

        template = QueryTemplate(
            ConjunctiveQuery(
                name="t",
                head=(Variable("C"),),
                atoms=(
                    Atom("conf", (parameter("topic"), Variable("C"),
                                  Variable("S"), Variable("E"), Variable("City"))),
                ),
                predicates=(
                    Comparison(Variable("S"), ">=", parameter("start")),
                ),
            )
        )
        query = template.instantiate({"topic": topic, "start": budget})
        assert QueryTemplate(query).parameters == ()
        assert query.atoms[0].terms[0] == Constant(topic)


class TestSpecProperties:
    @given(
        st.lists(st.sampled_from(["io", "oi", "oo"]), min_size=1, max_size=4),
        st.integers(0, 10),
    )
    @settings(max_examples=60)
    def test_json_round_trip(self, codes, seed):
        import random

        rng = random.Random(seed)
        n = len(codes)
        pairs = frozenset(
            (i, j) for i in range(n) for j in range(i + 1, n)
            if rng.random() < 0.4
        )
        fetches = {
            i: rng.randint(1, 5) for i in range(n) if rng.random() < 0.5
        }
        from repro.plans.builder import Poset

        spec = PlanSpec(
            pattern_codes=tuple(codes),
            precedence_pairs=tuple(sorted(pairs)),
            fetches=tuple(sorted(fetches.items())),
        )
        assert PlanSpec.from_json(spec.to_json()) == spec
        assert spec.poset().pairs == Poset(n=n, pairs=pairs).pairs


class TestRowProperties:
    _bindings = st.dictionaries(
        st.sampled_from([Variable("A"), Variable("B"), Variable("C")]),
        st.integers(0, 3),
        max_size=3,
    )

    @given(_bindings, _bindings)
    @settings(max_examples=80)
    def test_merge_symmetric_in_success(self, left, right):
        first = merged_with(Row(bindings=left), Row(bindings=right))
        second = merged_with(Row(bindings=right), Row(bindings=left))
        assert (first is None) == (second is None)
        if first is not None:
            assert dict(first.bindings) == dict(second.bindings)

    @given(_bindings)
    @settings(max_examples=40)
    def test_merge_with_self_is_identity(self, bindings):
        row = Row(bindings=bindings)
        merged = merged_with(row, row)
        assert merged is not None
        assert dict(merged.bindings) == dict(bindings)

    @given(_bindings, _bindings)
    @settings(max_examples=80)
    def test_merge_none_iff_conflict(self, left, right):
        conflict = any(
            left[key] != right[key] for key in left.keys() & right.keys()
        )
        merged = merged_with(Row(bindings=left), Row(bindings=right))
        assert (merged is None) == conflict

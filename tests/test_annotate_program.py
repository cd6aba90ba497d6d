"""The compiled annotation program against the per-definition reference.

``AnnotationProgram`` (``plans/annotate.py``) compiles a plan's
estimates once and evaluates them per fetch vector; it promises the
float operations of the definition in the definition's order.  The
definition is ``reference_annotate`` (``repro/testing/reference.py``),
so the two are compared with ``float.hex()`` — over every plan of the
five built-in domains' plan spaces, random fetch vectors and the three
cache settings — and so are the cost metrics on the program's view
against the same metrics on a hand-built, dict-backed annotation.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_plans
from repro.execution.cache import CacheSetting
from repro.model.atoms import atom
from repro.model.schema import AccessPattern
from repro.optimizer.fetches import FetchContext
from repro.optimizer.patterns import permissible_sequences
from repro.optimizer.topology import TopologyEnumerator
from repro.plans.annotate import AnnotationProgram, PlanAnnotation, annotate
from repro.plans.builder import PlanBuilder
from repro.plans.dag import PlanError, plan_with_nodes
from repro.plans.nodes import InputNode, OutputNode, ServiceNode
from repro.services.profile import exact_profile
from repro.testing.reference import reference_annotate

REPO = pathlib.Path(__file__).resolve().parent.parent
METRICS = [make() for make in golden_plans.METRICS.values()]


@functools.cache
def _plan_space():
    """``(builder, patterns, poset)`` for every plan of every domain:
    each permissible pattern sequence × each of its topologies."""
    space = []
    for make in golden_plans.PROFILES.values():
        registry, query = make()
        builder = PlanBuilder(query, registry)
        for patterns in permissible_sequences(query, registry.schema()):
            for poset in TopologyEnumerator(query, patterns).all_posets():
                space.append((builder, patterns, poset))
    return space


def _hexes(annotation: PlanAnnotation) -> list[tuple[str, str, str, str]]:
    return [
        (node_id, e.tuples_in.hex(), e.tuples_out.hex(), e.calls.hex())
        for node_id, e in annotation.estimates.items()
    ] + [("output", annotation.output_size.hex(), "", "")]


def _draw_plan(data):
    """A plan of the space with a random fetch vector applied to it."""
    space = _plan_space()
    builder, patterns, poset = space[data.draw(st.integers(0, len(space) - 1))]
    plan = builder.build(patterns, poset)
    setting = data.draw(st.sampled_from(list(CacheSetting)))
    program = AnnotationProgram(plan, setting)
    caps = FetchContext(plan, METRICS[0], setting)
    vector = tuple(
        data.draw(st.integers(1, caps.cap(atom_index)))
        for atom_index in program.chunked_atoms
    )
    for atom_index, factor in zip(program.chunked_atoms, vector):
        plan.service_node_for_atom(atom_index).fetches = factor
    return plan, setting, program, vector


class TestProgramAgainstReference:
    def test_the_space_covers_every_domain(self):
        # travel 95, biblio 1, bio 1239, news 9, weekend 5
        assert len(_plan_space()) == 1349

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_estimates_are_bit_identical(self, data):
        plan, setting, program, vector = _draw_plan(data)
        reference = _hexes(reference_annotate(plan, setting))
        assert _hexes(program.run(vector)) == reference
        # annotate() is one compile + one run at the nodes' factors.
        assert _hexes(annotate(plan, setting)) == reference

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_metrics_read_the_view_like_a_dict_backed_annotation(self, data):
        plan, setting, program, vector = _draw_plan(data)
        view = program.run(vector)
        by_hand = PlanAnnotation(
            cache_setting=setting,
            estimates=dict(reference_annotate(plan, setting).estimates),
            output_size=view.output_size,
        )
        for metric in METRICS:
            assert metric.cost(plan, view).hex() == metric.cost(plan, by_hand).hex()

    def test_the_view_carries_its_own_fetching_factors(self):
        """A trial vector is costed without touching the plan nodes."""
        builder, patterns, poset = next(
            entry for entry in _plan_space()
            if AnnotationProgram(
                entry[0].build(entry[1], entry[2]), CacheSetting.ONE_CALL
            ).chunked_atoms
        )
        plan = builder.build(patterns, poset)
        program = AnnotationProgram(plan, CacheSetting.ONE_CALL)
        trial = program.run([3] * len(program.chunked_atoms))
        assert all(node.fetches == 1 for node in plan.service_nodes)
        costs = [metric.cost(plan, trial).hex() for metric in METRICS]
        for atom_index in program.chunked_atoms:
            plan.service_node_for_atom(atom_index).fetches = 3
        applied = annotate(plan, CacheSetting.ONE_CALL)
        assert costs == [metric.cost(plan, applied).hex() for metric in METRICS]

    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_one_program_reused_equals_fresh_compiles(self, data):
        """No state leaks from one run into the next."""
        plan, setting, program, _ = _draw_plan(data)
        caps = FetchContext(plan, METRICS[0], setting)
        for _ in range(50):
            vector = [
                data.draw(st.integers(1, caps.cap(atom_index)))
                for atom_index in program.chunked_atoms
            ]
            fresh = AnnotationProgram(plan, setting).run(vector)
            assert _hexes(program.run(vector)) == _hexes(fresh)

    def test_a_plan_mutated_after_compilation_is_refused(self):
        builder, patterns, poset = _plan_space()[0]
        plan = builder.build(patterns, poset)
        program = AnnotationProgram(plan, CacheSetting.ONE_CALL)
        program.run()
        fed_by_another = next(
            node for node in plan.service_nodes
            if plan.input_node not in plan.predecessors(node)
        )
        plan.add_arc(plan.input_node, fed_by_another)
        with pytest.raises(PlanError, match="changed after"):
            program.run()
        # A context compiled before the mutation refuses as well.
        plan = builder.build(patterns, poset)
        context = FetchContext(plan, METRICS[0], CacheSetting.ONE_CALL)
        plan.add_node(ServiceNode(
            atom_index=99, atom=atom("extra", "X"),
            pattern=AccessPattern("o"), profile=exact_profile(1.0, 1.0),
        ))
        with pytest.raises(PlanError, match="changed after"):
            context.cost({})

    def test_wrong_vector_length_is_rejected(self):
        builder, patterns, poset = _plan_space()[0]
        program = AnnotationProgram(
            builder.build(patterns, poset), CacheSetting.NO_CACHE
        )
        with pytest.raises(ValueError, match="fetching factors"):
            program.run([1] * (len(program.chunked_atoms) + 1))


class TestEquationTwoProductOrder:
    """With three or more minimizers the float product of Eq. 2 depends
    on the order of multiplication: it is the order that breaks ties
    among candidates — joins before services, then the order the nodes
    were added to the plan (a topological order in every plan the
    builder makes) — not the iteration order of a set of node ids."""

    def _chain(self):
        # a('o' X) -> b('o' Y) -> c('o' Z) -> d(X, Y, Z -> W): each of
        # a, b, c is the minimizer of the variable it provides
        # (t_out 0.3 < 0.51 < 0.663), and their product stays below
        # d's raw input stream.
        def service(index, name, terms, code, erspi):
            return ServiceNode(
                atom_index=index, atom=atom(name, *terms),
                pattern=AccessPattern(code), profile=exact_profile(erspi, 1.0),
            )

        nodes = [
            InputNode(),
            service(0, "a", ["X"], "o", 0.3),
            service(1, "b", ["Y"], "o", 1.7),
            service(2, "c", ["Z"], "o", 1.3),
            service(3, "d", ["X", "Y", "Z", "W"], "iiio", 1.0),
            OutputNode(),
        ]
        plan = plan_with_nodes(nodes)
        for origin, destination in zip(nodes, nodes[1:]):
            plan.add_arc(origin, destination)
        return plan, nodes

    def test_product_is_taken_in_topological_order(self):
        plan, nodes = self._chain()
        annotation = annotate(plan, CacheSetting.ONE_CALL)
        a, b, c = (annotation.tuples_out(node) for node in nodes[1:4])
        in_order = ((1.0 * a) * b) * c
        assert in_order != (1.0 * c) * b * a  # the order is observable here
        assert in_order < annotation.tuples_in(nodes[4])
        assert annotation.calls(nodes[4]).hex() == in_order.hex()
        reference = reference_annotate(plan, CacheSetting.ONE_CALL)
        assert _hexes(annotation) == _hexes(reference)

    @pytest.mark.parametrize("ids", [("s1", "s2"), ("s9", "s10"), ("s10", "s9")])
    def test_ties_do_not_read_the_node_id_counter(self, ids):
        """a(X) -> b(Y) -> c(Z) -> d(X, Y -> W): ``a`` and ``b`` tie on
        ``t_out`` as the bound of ``X`` while ``b`` alone bounds ``Y``.
        The node added first wins the tie, so N(d) = {a, b}; ordered by
        node-id *string* (``"s10" < "s9"``) the tie went to ``b`` as
        soon as the process-wide counter gained a digit between the
        two, and N(d) shrank to {b}."""
        def service(index, name, terms, code, erspi, node_id=""):
            return ServiceNode(
                node_id=node_id, atom_index=index, atom=atom(name, *terms),
                pattern=AccessPattern(code), profile=exact_profile(erspi, 1.0),
            )

        nodes = [
            InputNode(),
            service(0, "a", ["X"], "o", 2.0, ids[0]),
            service(1, "b", ["Y"], "o", 1.0, ids[1]),
            service(2, "c", ["Z"], "o", 5.0, "sc"),
            service(3, "d", ["X", "Y", "W"], "iio", 1.0, "sd"),
            OutputNode(),
        ]
        plan = plan_with_nodes(nodes)
        for origin, destination in zip(nodes, nodes[1:]):
            plan.add_arc(origin, destination)
        annotation = annotate(plan, CacheSetting.ONE_CALL)
        assert annotation.tuples_in(nodes[4]) == 10.0
        assert annotation.calls(nodes[4]) == 2.0 * 2.0
        reference = reference_annotate(plan, CacheSetting.ONE_CALL)
        assert _hexes(annotation) == _hexes(reference)

    def test_optimizer_results_do_not_depend_on_the_hash_seed(self):
        """Plan costs are persisted across processes (the SQLite plan
        cache): every domain × metric must decide the same, to the last
        bit of every node estimate, under any ``PYTHONHASHSEED`` — and
        that is what the parent commit decided (the golden fixture)."""
        script = (
            "import json, golden_plans as g;"
            "print(json.dumps({case: g.run_case(*key) for case, *key in g.cases()"
            " if key[2] == 'default'}))"
        )
        golden = {
            case: entry for case, entry in golden_plans.load().items()
            if case.endswith("/default")
        }
        for seed in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=seed,
                PYTHONPATH=os.pathsep.join(
                    [str(REPO / "src"), str(REPO / "tests")]
                ),
            )
            output = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=120,
            ).stdout
            assert json.loads(output) == golden, f"PYTHONHASHSEED={seed}"

"""References the production paths are checked against (tests and benches).

Six small, obviously correct things: the full-plane dict-row *join*
(:func:`execute_join` over :func:`merged_with`) for the compiled join
of :mod:`repro.execution.joins`, a dict-row plan *interpreter*
(:func:`reference_execute`) for the engine's compiled loops, the
per-definition plan *estimates* (:func:`reference_annotate`) for the
compiled annotation program of :mod:`repro.plans.annotate`, the
from-scratch *lower bound* of a topology state
(:func:`reference_partial_bound`) for the open plans the
branch-and-bound extends, the eager-streamed engine
(:func:`eager_streamed_engine`) — the "same cells, every page fetched
up front" baseline lazy fetching is measured against — and the
re-executing session executor (:class:`ReexecutingExecutor`), the
"every growth round runs the plan again" baseline growth in place is
measured against.

The engine carries rows as slot tuples through compiled loops
(:mod:`repro.execution.slots`); the interpreter walks a plan node
by node over per-row ``dict`` bindings, resolving every variable by
name on every row: services are invoked directly (no cache, no
resilience, no laziness), output tuples are bound with
:func:`bind_outputs`, parallel joins are the full-plane
:func:`execute_join`, predicates are evaluated with
:meth:`Comparison.holds`, and the answer
is ``compose_ranking`` over everything produced.  It shares no code
with the compiled path beyond the :class:`Row` container itself.
The estimates likewise share only the result containers and the
equality-selectivity constant with the program.

Only ``tests/`` and ``benchmarks/`` import this module (``tests/test_docs.py``
guards that); nothing under ``src/repro/`` outside this package may.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.costs.base import CostMetric
from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine, ExecutionMode
from repro.execution.joins import join_order
from repro.execution.progressive import ProgressiveExecutor
from repro.execution.results import Row, compose_ranking
from repro.execution.slots import ExecutionError
from repro.model.predicates import Comparison
from repro.model.query import ConjunctiveQuery
from repro.model.schema import AccessPattern
from repro.model.terms import Constant, Variable
from repro.plans.annotate import (
    EQUALITY_OUTPUT_SELECTIVITY,
    NodeEstimate,
    PlanAnnotation,
)
from repro.plans.builder import PlanBuilder, Poset
from repro.plans.dag import PlanError, QueryPlan
from repro.plans.nodes import InputNode, JoinNode, OutputNode, ServiceNode
from repro.services.registry import JoinMethod, ServiceRegistry


def merged_with(row: Row, other: Row) -> Row | None:
    """Natural-join merge: None when shared variables disagree.

    The dict-semantics reference merge behind :func:`execute_join`: it
    resolves every variable by name per call and shares no code with
    the compiled merge plans of :mod:`repro.execution.slots`, which is
    what makes it a usable oracle for them.
    """
    merged = dict(zip(row.layout.variables, row.values))
    for variable, value in zip(other.layout.variables, other.values):
        if variable not in merged:
            merged[variable] = value
        elif merged[variable] != value:
            return None
    return Row(
        bindings=merged,
        ranks=row.ranks + other.ranks,
        provenance=row.provenance + other.provenance,
    )


def execute_join(
    method: JoinMethod,
    left: Sequence[Row],
    right: Sequence[Row],
    predicates: Sequence[Comparison] = (),
) -> list[Row]:
    """Join two row streams with a rank-preserving strategy.

    The join condition is the *natural join* on the variables shared
    by the two rows' bindings (which recombines branches forked from a
    common upstream tuple) plus the supplied comparison *predicates*
    evaluated on the merged binding.  Output order follows the
    strategy's traversal of the candidate plane, hence is consistent
    with both input orders.
    """
    output: list[Row] = []
    for i, j in join_order(method, len(left), len(right)):
        merged = merged_with(left[i], right[j])
        if merged is None:
            continue
        if all(p.holds(merged.bindings) for p in predicates):
            output.append(merged)
    return output


@dataclass(frozen=True)
class ReferenceResult:
    """What the reference produced: ranked rows, and per node the rows
    it emitted (dict-built, so their layouts are the definition of the
    node's variable order) and their number."""

    rows: list[Row]
    node_output_sizes: dict[str, int] = field(default_factory=dict)
    node_rows: dict[str, list[Row]] = field(default_factory=dict)


class _EagerStreamedEngine(ExecutionEngine):
    def _lazy_steps(self, program) -> frozenset[int]:
        return frozenset()


def eager_streamed_engine(registry: ServiceRegistry, **options) -> ExecutionEngine:
    """A ``STREAMED`` engine that materializes the streamed join's
    service inputs up front: same walk and cells as the lazy engine,
    exactly the fetches of ``PARALLEL`` mode."""
    return _EagerStreamedEngine(registry, mode=ExecutionMode.STREAMED, **options)


class ReexecutingExecutor(ProgressiveExecutor):
    """A session executor that never grows in place: once the fetch
    factors have grown it always re-executes the plan — same ladder,
    same answers, every earlier page pulled again (through the cache)."""

    def _resume_stream(self, last, k, grown=False):
        return None if grown else super()._resume_stream(last, k)


def bind_outputs(row: Row, values: tuple, terms: list) -> Row | None:
    """Extend *row* with a service result tuple; None on mismatch.

    Output positions holding constants act as selections; output
    variables already bound upstream must agree (equi-join on the
    pipe), and repeated variables within the atom must unify.
    """
    if len(values) < len(terms):
        raise ExecutionError(
            f"service returned a tuple of arity {len(values)}, "
            f"expected {len(terms)}"
        )
    bindings = dict(row.bindings)
    for term, value in zip(terms, values):
        if isinstance(term, Constant):
            if value != term.value:
                return None
        elif term in bindings:
            if bindings[term] != value:
                return None
        else:
            bindings[term] = value
    return Row(bindings=bindings, ranks=row.ranks, provenance=row.provenance)


def _run_service_node(
    node: ServiceNode, feed: list[Row], registry: ServiceRegistry
) -> list[Row]:
    assert node.atom is not None and node.pattern is not None
    service = registry.service(node.service_name)
    terms = [node.atom.term_at(position) for position in range(node.atom.arity)]
    produced: list[Row] = []
    for row in feed:
        bindings = row.bindings
        inputs: dict[int, object] = {}
        for position in node.pattern.input_positions:
            term = node.atom.term_at(position)
            if isinstance(term, Constant):
                inputs[position] = term.value
            elif term in bindings:
                inputs[position] = bindings[term]
            else:
                raise ExecutionError(
                    f"unbound input variable {term} at {node.label}"
                )
        for page in range(node.fetches):
            result = service.invoke(node.pattern, inputs, page=page)
            ranks = result.ranks or (None,) * len(result.tuples)
            for values, rank in zip(result.tuples, ranks):
                merged = bind_outputs(row, values, terms)
                if merged is None:
                    continue
                if rank is not None:
                    merged = merged.with_rank(node.node_id, rank)
                if all(p.holds(merged.bindings) for p in node.predicates):
                    produced.append(merged)
            if not result.has_more:
                break
    return produced


def reference_execute(plan: QueryPlan, registry: ServiceRegistry) -> ReferenceResult:
    """Run *plan* against *registry*, fully materialized, in dict rows.

    The returned rows are in composed rank order — what every engine
    mode must reproduce (``STREAMED`` with a ``k``: the first ``k`` of
    them).
    """
    plan.validate()
    outputs: dict[str, list[Row]] = {}
    for node in plan.topological_order():
        inputs = [outputs[p.node_id] for p in plan.predecessors(node)]
        if isinstance(node, InputNode):
            rows = [Row(bindings={})]
        elif isinstance(node, ServiceNode):
            rows = _run_service_node(node, inputs[0], registry)
        elif isinstance(node, JoinNode):
            rows = execute_join(node.method, inputs[0], inputs[1], node.predicates)
        elif isinstance(node, OutputNode):
            rows = [
                row
                for row in inputs[0]
                if all(p.holds(row.bindings) for p in node.residual_predicates)
            ]
        else:
            raise ExecutionError(f"unknown node type {type(node).__name__}")
        outputs[node.node_id] = rows
    return ReferenceResult(
        rows=compose_ranking(outputs[plan.output_node.node_id]),
        node_output_sizes={node_id: len(rows) for node_id, rows in outputs.items()},
        node_rows=outputs,
    )


# -- plan estimates, per definition (Sections 3.4 and 5.2) --------------------


def reference_annotate(plan: QueryPlan, cache_setting: CacheSetting) -> PlanAnnotation:
    """:class:`NodeEstimate` for every node of *plan*, derived from scratch.

    Walks the plan in topological order and, at every service node,
    re-derives the upstream-bound variables and the Eq. 2 bounding
    sets from the graph by their definitions.  Every float operation
    happens in the order the compiled
    :class:`~repro.plans.annotate.AnnotationProgram` uses, so the two
    must agree bit for bit (``tests/test_annotate_program.py``).
    """
    built = {node.node_id: index for index, node in enumerate(plan.nodes)}
    estimates: dict[str, NodeEstimate] = {}
    for node in plan.topological_order():
        if isinstance(node, InputNode):
            # The user always injects one single input tuple (Sec. 3.4).
            estimate = NodeEstimate(tuples_in=1.0, tuples_out=1.0, calls=0.0)
        elif isinstance(node, ServiceNode):
            estimate = _estimate_service(plan, node, estimates, cache_setting, built)
        elif isinstance(node, JoinNode):
            predecessors = plan.predecessors(node)
            if len(predecessors) != 2:
                raise PlanError(f"join {node.node_id!r} must have two predecessors")
            left, right = predecessors
            pairs = estimates[left.node_id].tuples_out * estimates[right.node_id].tuples_out
            estimate = NodeEstimate(
                tuples_in=pairs, tuples_out=pairs * node.selectivity, calls=0.0
            )
        elif isinstance(node, OutputNode):
            tuples_in = _feed_size(plan, node, estimates)
            selectivity = 1.0
            for predicate in node.residual_predicates:
                selectivity *= predicate.estimated_selectivity()
            estimate = NodeEstimate(
                tuples_in=tuples_in, tuples_out=tuples_in * selectivity, calls=0.0
            )
        else:
            raise PlanError(f"unknown node type: {type(node).__name__}")
        estimates[node.node_id] = estimate
    return PlanAnnotation(
        cache_setting=cache_setting,
        estimates=estimates,
        output_size=estimates[plan.output_node.node_id].tuples_out,
    )


def reference_partial_plan(
    query: ConjunctiveQuery,
    registry: ServiceRegistry,
    patterns: Sequence[AccessPattern],
    placed: frozenset[int],
    closure: frozenset[tuple[int, int]],
) -> QueryPlan:
    """The plan of a topology state, built from scratch.

    The placed atoms, with the predicates over their variables, are a
    query of their own; the state's plan is that query's plan under
    the state's precedence.  What the branch-and-bound built per state
    before it kept open plans.
    """
    indices = sorted(placed)
    mapping = {atom: position for position, atom in enumerate(indices)}
    sub_atoms = tuple(query.atoms[i] for i in indices)
    sub_variables = frozenset().union(*(atom.variable_set for atom in sub_atoms))
    sub_query = ConjunctiveQuery(
        name=query.name,
        head=(),
        atoms=sub_atoms,
        predicates=tuple(
            p for p in query.predicates if p.variables <= sub_variables
        ),
    )
    sub_poset = Poset(
        n=len(indices),
        pairs=frozenset((mapping[i], mapping[j]) for i, j in closure),
    )
    return PlanBuilder(sub_query, registry).build(
        tuple(patterns[i] for i in indices), sub_poset
    )


def reference_partial_bound(
    query: ConjunctiveQuery,
    registry: ServiceRegistry,
    metric: CostMetric,
    cache_setting: CacheSetting,
    patterns: Sequence[AccessPattern],
    placed: frozenset[int],
    closure: frozenset[tuple[int, int]],
) -> float:
    """The lower bound of a topology state, from its definition: the
    cost of its plan (:func:`reference_partial_plan`) at all fetching
    factors 1, which bounds every completion (Section 2.4).  What the
    optimizer's shared-prefix route is checked against
    (``tests/test_open_plans.py``).
    """
    plan = reference_partial_plan(query, registry, patterns, placed, closure)
    return metric.cost(plan, reference_annotate(plan, cache_setting))


def _feed_size(plan: QueryPlan, node, estimates: dict[str, NodeEstimate]) -> float:
    predecessors = plan.predecessors(node)
    if len(predecessors) != 1:
        raise PlanError(
            f"node {node.node_id!r} expected exactly one predecessor, "
            f"got {len(predecessors)}"
        )
    return estimates[predecessors[0].node_id].tuples_out


def _service_selectivity(plan: QueryPlan, node: ServiceNode) -> float:
    """Predicates, then one equality charge per constrained output field."""
    assert node.atom is not None and node.pattern is not None
    bound_upstream: set[Variable] = set()
    for ancestor in plan.upstream_service_nodes(node):
        assert ancestor.atom is not None
        bound_upstream |= ancestor.atom.variable_set
    selectivity = 1.0
    for predicate in node.predicates:
        selectivity *= predicate.estimated_selectivity()
    for field_position in node.pattern.output_positions:
        term = node.atom.term_at(field_position)
        if not isinstance(term, Variable) or term in bound_upstream:
            selectivity *= EQUALITY_OUTPUT_SELECTIVITY
    return selectivity


def _estimate_service(
    plan: QueryPlan,
    node: ServiceNode,
    estimates: dict[str, NodeEstimate],
    cache_setting: CacheSetting,
    built: dict[str, int],
) -> NodeEstimate:
    assert node.profile is not None
    tuples_in = _feed_size(plan, node, estimates)
    selectivity = _service_selectivity(plan, node)
    if node.profile.is_chunked:
        per_input = node.profile.chunk_size * node.fetches  # type: ignore[operator]
        tuples_out = tuples_in * per_input * selectivity
    else:
        tuples_out = tuples_in * node.profile.erspi * selectivity
    if cache_setting is CacheSetting.NO_CACHE:
        calls = tuples_in
    else:
        calls = min(tuples_in, _cached_calls(plan, node, estimates, built))
    return NodeEstimate(tuples_in=tuples_in, tuples_out=tuples_out, calls=calls)


def _cached_calls(
    plan: QueryPlan,
    node: ServiceNode,
    estimates: dict[str, NodeEstimate],
    built: dict[str, int],
) -> float:
    """Equation (2): product of the minimal contributions per input var.

    For each input variable ``X`` of *node*, the candidate bounding
    nodes are the providers of ``X`` (upstream service nodes with ``X``
    among their outputs) and every node lying between a provider and
    *node*; the minimal ``t_out`` among them bounds the number of
    distinct bindings of ``X``.  Ties go to a join before a service,
    then to the node added to the plan first (*built* maps a node id
    to its position in ``plan.nodes``).  ``N(node)`` is the *set* of
    chosen minimizers (one per variable, deduplicated), and the
    estimate is the product of their ``t_out`` values, taken in that
    same order so that the float result is defined.
    """

    def precedence(node_id: str) -> tuple[bool, int]:
        return not isinstance(plan.node(node_id), JoinNode), built[node_id]

    ancestors = plan.ancestors(node)
    minimizers: set[str] = set()
    for variable in node.input_variables:
        candidates = _bounding_nodes(plan, variable, ancestors)
        if not candidates:
            # No upstream provider: the variable is bound by the atom's
            # own constants or is supplied by the user input.
            continue
        minimizers.add(min(
            candidates,
            key=lambda nid: (estimates[nid].tuples_out, precedence(nid)),
        ))
    # No input variables, or none with a provider: a single invocation
    # covers every block once any cache is present.
    calls = 1.0
    for node_id in sorted(minimizers, key=precedence):
        calls *= estimates[node_id].tuples_out
    return calls


def _bounding_nodes(
    plan: QueryPlan, variable: Variable, ancestors: frozenset[str]
) -> set[str]:
    """Ids of the nodes among *ancestors* bounding the values of *variable*."""
    bounding: set[str] = set()
    for candidate in plan.nodes:
        if candidate.node_id not in ancestors:
            continue
        if isinstance(candidate, ServiceNode) and variable in candidate.output_variables:
            bounding.add(candidate.node_id)  # a provider of the variable
            continue
        # Intermediaries: a node m lies strictly between some provider
        # and the annotated node iff a provider is an ancestor of m (m
        # being an ancestor of the annotated node is already known).
        if isinstance(candidate, (ServiceNode, JoinNode)):
            candidate_ancestors = plan.ancestors(candidate)
            if any(
                isinstance(provider, ServiceNode)
                and provider.node_id in candidate_ancestors
                and variable in provider.output_variables
                for provider in plan.nodes
            ):
                bounding.add(candidate.node_id)
    return bounding

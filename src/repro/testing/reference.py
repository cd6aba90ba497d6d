"""References the production paths are checked against (tests and benches).

Fourteen small, obviously correct things: the composed *ranking*
(:func:`compose_ranking`, a stable sort on the aggregated rank) for
the engine's terminal top-k stream, the full-plane dict-row *join*
(:func:`execute_join` over :func:`merged_with`, visiting the cells in
the order of the paper's two strategies, :func:`join_order`) for the
compiled join
of :mod:`repro.execution.joins`, a dict-row plan *interpreter*
(:func:`reference_execute`) for the engine's compiled loops, the
per-definition plan *estimates* (:func:`reference_annotate`) for the
compiled annotation program of :mod:`repro.plans.annotate`, the
from-scratch *lower bound* of a topology state
(:func:`reference_partial_bound`) for the open plans the
branch-and-bound extends (:func:`search_states` is the search's own
route to a state's bound and closed plan), the *unmemoized search*
(:func:`unmemoized_optimizer`) for the memo of
:mod:`repro.optimizer.memo`, the *unpruned search*
(:class:`UnprunedOptimizer`) for the class bounds, the search of the
most cogent pattern sequences only (:class:`MostCogentOptimizer`), the
§4.1 restriction the full search is compared with, the eager-streamed
engine
(:func:`eager_streamed_engine`) — the "same cells, every page fetched
up front" baseline lazy fetching is measured against — and the
re-executing session executor (:class:`ReexecutingExecutor`), the
"every growth round runs the plan again" baseline growth in place is
measured against, the row-at-a-time join walk
(:class:`RowAtATimeJoinStream`) the streamed walk is checked against
pull for pull, the engine's clock as a critical-path DP over
feeds (:func:`reference_elapsed`) for ``elapsed``'s path fold, and
the attribution of each answer to its units read off the answer's own
values (:func:`reference_answer_units`) for the certificate's
record-chain one, and the unit key built through a position → value
dict (:func:`reference_unit_key`) for the per-shape key reader of
:mod:`repro.execution.slots`.

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

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence

from repro.costs.base import CostMetric
from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine
from repro.execution.joins import JoinStream, _bounds
from repro.execution.lazy import RowCursor
from repro.execution.program import JOIN, ExecutionProgram, as_program
from repro.execution.progressive import ProgressiveExecutor
from repro.execution.resilience import unit_token
from repro.execution.results import Row
from repro.execution.slots import ExecutionError, InputSpec
from repro.execution.stats import IDLE, ExecutionStats
from repro.model.predicates import Comparison
from repro.model.query import ConjunctiveQuery
from repro.model.schema import AccessPattern
from repro.model.terms import Constant, Variable
from repro.optimizer.fetches import FetchContext
from repro.optimizer.memo import PlanMemo, bound_key
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.optimizer.patterns import (
    PatternPhaseResult, PatternSequence, most_cogent_sequences,
)
from repro.plans.annotate import (
    EQUALITY_OUTPUT_SELECTIVITY,
    NodeEstimate,
    PlanAnnotation,
)
from repro.plans.builder import PlanBuilder, Poset
from repro.plans.dag import PlanError, QueryPlan
from repro.plans.nodes import InputNode, JoinNode, OutputNode, ServiceNode
from repro.services.base import InvocationResult
from repro.services.registry import JoinMethod, ServiceRegistry


def compose_ranking(rows: Sequence[Row], k: int | None = None) -> list[Row]:
    """Order *rows* by aggregated rank (stable on ties), the first *k*
    of them (all for ``None``).

    **Total order contract** (shared with the engine's terminal
    :class:`~repro.execution.joins.TopKStream`): rows are ordered by
    the key ``(rank_key, arrival index)``, where the arrival index is
    the row's position in *rows* — i.e. ties in the aggregated rank are
    broken by arrival order, which itself is consistent with the
    partial orders thanks to the rank-aware join strategies.  The
    stable sort realizes exactly this order, and so does
    ``TopKStream.top``, which is what makes every engine run — a
    top-k walk or a full scan — bit-identical to this oracle.

    The composed ranking is consistent with each service's partial
    order: a row that improves in every partial rank cannot be placed
    after one it dominates.  ``compose_ranking`` over the reference
    interpreter's rows (or over :func:`execute_join`) is the *oracle*
    every engine path (hashed, streamed, lazily fetched) is
    differentially tested against.
    """
    return sorted(rows, key=Row.rank_key)[:k]


def stage_count(method: JoinMethod, n_left: int, n_right: int) -> int:
    """Number of stages of *method*'s visit order (NL rows, MS diagonals)."""
    if n_left == 0 or n_right == 0:
        return 0
    if method is JoinMethod.NESTED_LOOP:
        return n_left
    return n_left + n_right - 1


def stage_cells(
    method: JoinMethod, n_left: int, n_right: int, stage: int
) -> Iterator[tuple[int, int]]:
    """Cells of one stage of *method*'s visit order, in emission order.

    A stage is a row of the NL plane or a diagonal (constant ``i + j``)
    of the MS plane.  The full-plane generators below walk stages
    through it: their order is the full scan's emission order, which
    a cell's arrival (:class:`~repro.execution.joins.KeyIndex`)
    encodes.
    """
    if method is JoinMethod.NESTED_LOOP:
        return ((stage, j) for j in range(n_right))
    start = max(0, stage - n_right + 1)
    stop = min(stage, n_left - 1)
    return ((i, stage - i) for i in range(start, stop + 1))


def nested_loop_order(n_left: int, n_right: int) -> Iterator[tuple[int, int]]:
    """Cell visit order of the NL strategy (outer = left/selective side)."""
    for stage in range(stage_count(JoinMethod.NESTED_LOOP, n_left, n_right)):
        yield from stage_cells(JoinMethod.NESTED_LOOP, n_left, n_right, stage)


def merge_scan_order(n_left: int, n_right: int) -> Iterator[tuple[int, int]]:
    """Cell visit order of the MS strategy: diagonals of equal i + j."""
    for stage in range(stage_count(JoinMethod.MERGE_SCAN, n_left, n_right)):
        yield from stage_cells(JoinMethod.MERGE_SCAN, n_left, n_right, stage)


def join_order(
    method: JoinMethod, n_left: int, n_right: int
) -> Iterator[tuple[int, int]]:
    """Cell visit order for *method*."""
    if n_left == 0 or n_right == 0:
        return iter(())
    if method is JoinMethod.NESTED_LOOP:
        return nested_loop_order(n_left, n_right)
    return merge_scan_order(n_left, n_right)


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
    return Row(bindings=merged, ranks=row.ranks + other.ranks)


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
    """What the reference produced: ranked rows, per node the rows it
    emitted (dict-built, so their layouts are the definition of the
    node's variable order), and their number per node in topological
    order — the index of the engine's ``stats.rows_out``."""

    rows: list[Row]
    rows_out: list[int] = field(default_factory=list)
    node_rows: dict[str, list[Row]] = field(default_factory=dict)


class _EagerStreamedEngine(ExecutionEngine):
    def execute(self, plan, head=(), *args, **kwargs):
        program = replace(as_program(plan, head), lazy=frozenset())
        return super().execute(program, head, *args, **kwargs)


def eager_streamed_engine(registry: ServiceRegistry, **options) -> ExecutionEngine:
    """An engine whose top-k walk materializes the terminal's service
    inputs up front: same walk and cells as the lazy engine, exactly
    the fetches of a full scan."""
    return _EagerStreamedEngine(registry, **options)


def reference_elapsed(program: ExecutionProgram, stats: ExecutionStats) -> float:
    """The engine's clock as a DP over feeds: a step finishes its busy
    time after the last of its feeds, and ``elapsed`` must read the
    output's finish bit for bit."""
    finish: list[float] = []
    for step in program.steps:
        busy = stats.clock.get(step.index, IDLE)[0]
        if stats.rows_out and step.kind == JOIN:
            busy = step.response_time
        start = max((finish[feed] for feed in step.feeds), default=0.0)
        finish.append(start + busy)
    return finish[-1]


def reference_unit_key(
    pattern_code: str, input_spec: InputSpec, values: tuple
) -> tuple[dict[int, object], tuple]:
    """``(inputs, unit key)`` of a feed row with *values*: the position
    → value mapping of the row's service inputs, and the ``(pattern
    code, ((position, value), ...))`` key its items form."""
    inputs = {
        position: constant if slot is None else values[slot]
        for position, constant, slot in input_spec
    }
    return inputs, (pattern_code, tuple(inputs.items()))


def reference_answer_units(
    program: ExecutionProgram, rows: Sequence[Row], substituted: Iterable = ()
) -> tuple[tuple[str, ...], ...]:
    """Each answer's unit tokens, read off the answer's own values: it
    satisfies every service step, so the feed variables that open a
    step's layout hold the inputs its unit was asked with.  A unit
    among the *substituted* ones (a certificate's ``substituted``)
    attributes to its sibling."""
    sibling = {(u.service, u.input_key): u.replacement for u in substituted}
    answers = []
    for row in rows:
        tokens = []
        for binding in program.step_bindings:
            values = tuple(map(row.value, binding.layout.variables))
            _, key = reference_unit_key(binding.pattern_code, binding.input_spec, values)
            name = binding.service_name
            tokens.append(unit_token(sibling.get((name, key), name), key))
        answers.append(tuple(sorted(tokens)))
    return tuple(answers)


class ReexecutingExecutor(ProgressiveExecutor):
    """A session executor that never grows in place: once the fetch
    factors have grown it always re-executes the plan — same ladder,
    same answers, every earlier page pulled again (through the cache)."""

    def _resume_stream(self, last, k, grown=False):
        return None if grown else super()._resume_stream(last, k)


class RowAtATimeJoinStream(JoinStream):
    """The streamed join walk as its loop ran before it held its bounds
    in locals: each demand goes through :meth:`_index_rows`, and every
    bound is read again through the index and the cursors.

    The demand rule is the walk's own — row ``n`` of the side whose
    bound is lowest, then the placed rows up to twice ``n`` — so it
    pulls the same pages in the same order, visits the same cells and
    keeps the same candidates: the pull-for-pull oracle of
    :class:`~repro.execution.joins.JoinStream`
    (``tests/test_property_walk_oracle.py``).
    """

    def _advance_stage(self, threshold, missing):
        left, right = self._left, self._right
        nested, index = self._nested, self._index
        if nested:
            right.ensure_all()
        n, m = index.added
        left_floor, right_floor = left.suffix_min(n), right.suffix_min(m)
        while True:
            left_bound, right_bound = _bounds(
                nested, n, m, left_floor, right_floor, *index.least_ranks
            )
            limit = min(left_bound, right_bound)
            if threshold is not None and threshold <= limit:
                limit = threshold
            least = index.filed[0] if index.filed else None
            if least is not None and least < limit:
                cells = index.take(limit, missing or None)
                break
            if limit is threshold or limit[0] == math.inf:
                return
            if left_bound <= right_bound:
                n = self._index_rows(0, left, right.rows, n)
                left_floor = left.suffix_min(n)
            else:
                m = self._index_rows(1, right, left.rows, m)
                right_floor = right.suffix_min(m)
        self._kernel(cells, left.rows, right.rows, self._candidates)

    def _index_rows(
        self, side: int, cursor: RowCursor, other: Sequence, added: int
    ) -> int:
        """Index row *added* of *side*, demanding it from its *cursor*,
        and the rows the cursor placed after it up to twice *added*;
        file the cells they form, and return how many rows of *side*
        are indexed."""
        cursor.ensure(added + 1)
        self._index.add(side, cursor.rows, other, 2 * added or 1, file=True)
        return self._index.added[side]


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
    return Row(bindings=bindings, ranks=row.ranks)


def _run_service_node(
    node: ServiceNode, feed: list[Row], registry: ServiceRegistry
) -> list[Row]:
    assert node.atom is not None and node.pattern is not None
    service = registry.service(node.service_name)
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
            produced.extend(bind_page(node, row, result))
            if not result.has_more:
                break
    return produced


def bind_page(node: ServiceNode, row: Row, result: InvocationResult) -> list[Row]:
    """The rows one fetched page of *node* contributes for *row*, in
    dict rows: what ``ServiceBinding.bind_page`` must produce."""
    assert node.atom is not None
    terms = [node.atom.term_at(position) for position in range(node.atom.arity)]
    produced: list[Row] = []
    ranks = result.ranks or (None,) * len(result.tuples)
    for values, rank in zip(result.tuples, ranks):
        merged = bind_outputs(row, values, terms)
        if merged is None:
            continue
        if rank is not None:
            merged = Row(
                layout=merged.layout, values=merged.values,
                ranks=merged.ranks + ((node.node_id, rank),),
            )
        if all(p.holds(merged.bindings) for p in node.predicates):
            produced.append(merged)
    return produced


def reference_execute(plan: QueryPlan, registry: ServiceRegistry) -> ReferenceResult:
    """Run *plan* against *registry*, fully materialized, in dict rows.

    The returned rows are in composed rank order — what every engine
    run must reproduce (a run with a ``k``: the first ``k`` of them).
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
        rows_out=[len(rows) for rows in outputs.values()],
        node_rows=outputs,
    )


# -- plan estimates, per definition (Sections 3.4 and 5.2) --------------------


def reference_annotate(plan: QueryPlan, cache_setting: CacheSetting) -> PlanAnnotation:
    """:class:`NodeEstimate` for every node of *plan*, derived from scratch.

    Walks the plan in topological order and, at every service node,
    re-derives the upstream-bound variables and the Eq. 2 bounding
    sets from the graph by their definitions; τ and the busy time the
    time metrics read (``F · calls · τ`` for a service at its node's
    factor, a join's τ, 0 at IN and OUT) come from the nodes.  Every
    float operation happens in the order the compiled
    :class:`~repro.plans.annotate.AnnotationProgram` uses, so the two
    must agree bit for bit (``tests/test_annotate_program.py``).
    """
    built = {node.node_id: index for index, node in enumerate(plan.nodes)}
    estimates: dict[str, NodeEstimate] = {}
    columns: tuple[list[float], ...] = tuple([0.0] * len(built) for _ in range(4))
    taus = [0.0] * len(built)
    for node in plan.topological_order():
        tau = 0.0
        if isinstance(node, InputNode):
            # The user always injects one single input tuple (Sec. 3.4).
            estimate = NodeEstimate(tuples_in=1.0, tuples_out=1.0, calls=0.0)
        elif isinstance(node, ServiceNode):
            estimate = _estimate_service(plan, node, estimates, cache_setting, built)
            tau = node.profile.response_time
        elif isinstance(node, JoinNode):
            predecessors = plan.predecessors(node)
            if len(predecessors) != 2:
                raise PlanError(f"join {node.node_id!r} must have two predecessors")
            left, right = predecessors
            pairs = estimates[left.node_id].tuples_out * estimates[right.node_id].tuples_out
            estimate = NodeEstimate(
                tuples_in=pairs, tuples_out=pairs * node.selectivity, calls=0.0
            )
            tau = node.response_time
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
        work = tau
        if isinstance(node, ServiceNode):
            work = node.fetches * estimate.calls * tau
        at = built[node.node_id]
        values = (estimate.tuples_in, estimate.tuples_out, estimate.calls, work)
        for column, value in zip(columns, values):
            column[at] = value
        taus[at] = tau
    return PlanAnnotation(
        cache_setting, estimates[plan.output_node.node_id].tuples_out,
        {node_id: built[node_id] for node_id in estimates}, columns, taus, {}, (),
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
    metric's :meth:`~repro.costs.base.CostMetric.bound` on its plan
    (:func:`reference_partial_plan`) at all fetching factors 1, which
    bounds every completion (Section 2.4).  What the optimizer's
    shared-prefix route is checked against
    (``tests/test_open_plans.py``).
    """
    plan = reference_partial_plan(query, registry, patterns, placed, closure)
    return metric.bound(
        plan, reference_annotate(plan, cache_setting), plan.path_positions()
    )


def search_states(
    optimizer: Optimizer,
    query: ConjunctiveQuery,
    states: Iterable[tuple[Sequence[AccessPattern], frozenset[int], frozenset]],
) -> Iterator[tuple[float, Callable[[], FetchContext]]]:
    """What the branch-and-bound computes for each ``(patterns, placed
    atoms, closure)`` of *states*, reached the way the search reaches
    it — the open plan of its canonical parent plus one atom, out of
    the optimizer's memo where it is there: the state's lower bound,
    read off its open plan, and a call that closes that plan as it
    stands into the context phase 3 would size.  The side
    :func:`reference_partial_bound` is compared with.
    """
    run = optimizer._begin(query)
    for patterns, placed, closure in states:
        key = bound_key(patterns, placed, closure)
        bound, state = optimizer._lower_bound(run, patterns, key)
        if state is None:
            state = optimizer._state(run, patterns, key)
        yield bound, functools.partial(optimizer._close, run, state)


class _ForgetfulMemo(PlanMemo):
    def store_state(self, key, state) -> None:
        pass

    def store_plan(self, key, entry) -> None:
        pass


def unmemoized_optimizer(
    registry: ServiceRegistry,
    metric: CostMetric,
    config: OptimizerConfig | None = None,
) -> Optimizer:
    """An optimizer whose memo keeps nothing, so every lookup misses:
    every search state is folded from the root and every topology sized
    again.  The memoized search must decide what it decides, on the
    same trajectory (``tests/test_memo.py``)."""
    optimizer = Optimizer(registry, metric, config)
    optimizer._memo = _ForgetfulMemo()
    return optimizer


class UnprunedOptimizer(Optimizer):
    """An optimizer whose class bounds discard nothing: every topology
    state is explored and every complete topology sized.  The
    branch-and-bound must decide what it decides, while exploring no
    more (``tests/test_search_oracles.py``)."""

    def _pruning(self, run) -> bool:
        return False


class MostCogentOptimizer(Optimizer):
    """An optimizer that searches only the most cogent pattern
    sequences, in phase 1's order of the permissible ones: the paper's
    "bound is better" restriction (§4.1), which the phase-1 ablation
    compares the full search with."""

    def _sequences(self, phase1: PatternPhaseResult) -> tuple[PatternSequence, ...]:
        return most_cogent_sequences(phase1.permissible)


def memo_bounds(memo: PlanMemo) -> dict:
    """The lower bound of every search state *memo* keeps whose bound
    the search asked for, by ``(pattern codes, closure)``: what
    :func:`search_states` and :func:`reference_partial_bound` are
    compared over."""
    return {
        key: state.bound for key, state in memo._bounds.items()
        if state.bound is not None
    }


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
    ancestors = plan.ancestors(node)
    for ancestor in plan.service_nodes:
        if ancestor.node_id in ancestors:
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
    for variable in node.atom.input_variables(node.pattern):
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
        if isinstance(candidate, ServiceNode) and variable in (
            candidate.atom.output_variables(candidate.pattern)
        ):
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
                and variable in provider.atom.output_variables(provider.pattern)
                for provider in plan.nodes
            ):
                bounding.add(candidate.node_id)
    return bounding


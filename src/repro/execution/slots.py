"""Everything the engine compiles against a slot layout.

Rows are a shared :class:`~repro.execution.results.SlotLayout` plus a
value tuple (see :mod:`repro.execution.results`); this module resolves
variables to **slot indices once per node** so the inner loops — the
per-cell merge of the join strategies, the per-tuple output binding of
service nodes, every predicate — run on tuple indexing instead of
hashing variable names per row:

* :class:`SlotJoinPlan` — the natural-join merge between two layouts,
  precomputed into shared-slot conflict pairs and right-only slot
  picks; its ``merged`` layout is the layout of every row the join
  emits (:func:`compile_join` bundles it with the join's compiled
  predicates into a :class:`CompiledJoin`);
* :func:`compile_comparison` / :func:`compile_predicates` — predicates
  compiled into closures over value tuples, replicating
  :meth:`~repro.model.predicates.Comparison.holds` exactly, including
  both :class:`~repro.model.predicates.PredicateError` cases: operands
  that cannot be compared, and a variable the layout does not bind
  (the closure raises on *evaluation*, like ``holds``, never at compile
  time — a join that emits no candidate never trips it);
* :func:`compile_input_spec` / :func:`unit_input_key` — a service
  node's input positions resolved against a layout, and the one place
  the ``(pattern code, ((position, value), ...))`` unit key (logical
  cache, demotion mask, provenance, certificates) is built;
* :class:`ServiceBinding` — one service node compiled against its feed
  layout: what to invoke, input spec, output-term binding program,
  output layout and node predicates.  The eager page loop and the lazy
  page source both bind result pages through the same object.

The engine compiles all of it once per plan, in
:mod:`repro.execution.program` (every engine node has one static
layout), and the joins of :mod:`repro.execution.joins` run what was
compiled there.  Nothing here falls back to another representation:
compilation cannot fail.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from repro.execution.results import ProvenanceRecord, Row, SlotLayout
from repro.model.predicates import (
    ARITHMETIC_OPERATORS,
    COMPARISON_OPERATORS,
    BinaryExpression,
    Comparison,
    Expression,
    PredicateError,
)
from repro.model.terms import Constant

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.plans.nodes import ServiceNode
    from repro.services.base import InvocationResult
    from repro.services.registry import JoinMethod

#: A compiled expression/predicate evaluates against one value tuple.
SlotExpression = Callable[[tuple], object]
SlotPredicate = Callable[[tuple], bool]

#: ``(position, constant value, None)`` for a constant input,
#: ``(position, None, slot)`` for one read from the feed row, in
#: ascending position order.
InputSpec = Sequence[tuple[int, object, "int | None"]]


#: Opcodes of a :class:`ServiceBinding` output-term binding program.
_CONST, _CHECK, _FRESH, _DUP = range(4)


class ExecutionError(RuntimeError):
    """Raised when a plan cannot be executed (unbound inputs, etc.)."""


class SlotJoinPlan:
    """Precomputed natural-join merge between two slot layouts.

    ``shared`` holds the ``(left slot, right slot)`` pairs that must
    agree for the cell to survive (the natural-join condition);
    ``right_extra`` the right slots appended to the left tuple on a
    successful merge.  ``merged`` is the output layout: the left
    variables followed by the right-only variables in right order —
    the same variable order the reference dict merge produces.

    ``left_key`` / ``right_key`` read a side's shared-slot values off a
    value tuple as one hashable key (the joins bucket rows by it): two
    rows whose keys differ cannot merge, two whose keys are equal still
    go through :meth:`merge` — a dict compares by identity first, so a
    ``nan`` key equals itself there and nowhere else.
    """

    __slots__ = (
        "left", "right", "shared", "right_extra", "merged",
        "left_key", "right_key", "_right_rest",
    )

    def __init__(self, left: SlotLayout, right: SlotLayout) -> None:
        self.left = left
        self.right = right
        shared: list[tuple[int, int]] = []
        extra: list[int] = []
        for j, variable in enumerate(right.variables):
            i = left.index.get(variable)
            if i is None:
                extra.append(j)
            else:
                shared.append((i, j))
        self.shared = tuple(shared)
        self.right_extra = tuple(extra)
        # (a getter over one slot yields the bare value, not a 1-tuple:
        # ``merge`` appends a single right-only slot itself)
        self._right_rest = itemgetter(*extra) if len(extra) > 1 else None
        self.left_key = _key_reader([i for i, _ in shared])
        self.right_key = _key_reader([j for _, j in shared])
        self.merged = (
            SlotLayout(left.variables + tuple(right.variables[j] for j in extra))
            if extra
            else left
        )

    def merge(self, left_values: tuple, right_values: tuple) -> tuple | None:
        """Merged value tuple, or None when shared slots disagree."""
        for i, j in self.shared:
            if left_values[i] != right_values[j]:
                return None
        extra = self.right_extra
        if not extra:
            return left_values
        if len(extra) == 1:
            return left_values + (right_values[extra[0]],)
        return left_values + self._right_rest(right_values)


def _key_reader(slots: Sequence[int]) -> Callable[[tuple], object]:
    """The values at *slots* of a value tuple (the bare value of a
    single slot; ``()`` for none, so every row shares one key)."""
    return itemgetter(*slots) if slots else lambda values: ()


class CompiledJoin(NamedTuple):
    """A parallel join compiled against its two input layouts.

    ``residual`` holds predicates applied after the join's own (the
    output node's residual filter, on the join a streamed execution
    early-exits: applying them inside the walk makes the top-k
    certificate count exactly the rows that survive to the answer).
    """

    method: "JoinMethod"
    merge: SlotJoinPlan
    predicates: tuple[SlotPredicate, ...]
    residual: tuple[SlotPredicate, ...]


def compile_join(
    method: "JoinMethod",
    left: SlotLayout,
    right: SlotLayout,
    predicates: Sequence[Comparison],
    residual: Sequence[Comparison] = (),
) -> CompiledJoin:
    """*method* over rows laid out as *left* and *right*."""
    merge = SlotJoinPlan(left, right)
    return CompiledJoin(
        method,
        merge,
        tuple(compile_predicates(predicates, merge.merged)),
        tuple(compile_predicates(residual, merge.merged)),
    )


def compile_expression(expression: Expression, layout: SlotLayout) -> SlotExpression:
    """*expression* as a closure over value tuples.

    A variable outside the layout compiles to a closure raising the
    unbound-variable :class:`PredicateError` of
    :func:`~repro.model.predicates.evaluate_expression` when evaluated.
    Arithmetic ``TypeError``s propagate raw, exactly as there.
    """
    if isinstance(expression, Constant):
        value = expression.value
        return lambda values: value
    if isinstance(expression, BinaryExpression):
        left = compile_expression(expression.left, layout)
        right = compile_expression(expression.right, layout)
        operation = ARITHMETIC_OPERATORS[expression.op]
        return lambda values: operation(left(values), right(values))
    slot = layout.index.get(expression)
    if slot is not None:
        return lambda values: values[slot]

    def unbound(values: tuple) -> object:
        raise PredicateError(
            f"unbound variable {expression} in predicate expression"
        )

    return unbound


def compile_comparison(predicate: Comparison, layout: SlotLayout) -> SlotPredicate:
    """*predicate* as a closure over value tuples.

    The closure replicates :meth:`Comparison.holds` bit for bit,
    including the :class:`PredicateError` message raised when the two
    operand values cannot be compared.
    """
    left = compile_expression(predicate.left, layout)
    right = compile_expression(predicate.right, layout)
    operation = COMPARISON_OPERATORS[predicate.op]
    operator_name = predicate.op

    def holds(values: tuple) -> bool:
        left_value = left(values)
        right_value = right(values)
        try:
            return bool(operation(left_value, right_value))
        except TypeError as exc:
            raise PredicateError(
                f"cannot compare {left_value!r} {operator_name} "
                f"{right_value!r}: {exc}"
            ) from exc

    return holds


def compile_predicates(
    predicates: Sequence[Comparison], layout: SlotLayout
) -> list[SlotPredicate]:
    """All of *predicates* compiled against *layout*, in order."""
    return [compile_comparison(predicate, layout) for predicate in predicates]


def compile_input_spec(node: "ServiceNode", layout: SlotLayout) -> InputSpec:
    """*node*'s input positions resolved against *layout*.

    Raises :class:`ExecutionError` when an input variable is not bound
    by the layout — no row over it could ever invoke the service.
    """
    assert node.atom is not None and node.pattern is not None
    spec: list[tuple[int, object, int | None]] = []
    for position in node.pattern.input_positions:
        term = node.atom.term_at(position)
        if isinstance(term, Constant):
            spec.append((position, term.value, None))
            continue
        slot = layout.index.get(term)
        if slot is None:
            raise ExecutionError(
                f"unbound input variable {term} at {node.label}"
            )
        spec.append((position, None, slot))
    return spec


def unit_input_key(
    pattern_code: str, input_spec: InputSpec, values: tuple
) -> tuple[dict[int, object], tuple]:
    """The service inputs of one row and the unit key they form.

    Returns ``(inputs, (pattern code, ((position, value), ...)))``: the
    position → value mapping handed to ``service.invoke`` and the key
    under which the logical cache, the demotion mask, provenance
    records and partial-result certificates all name this
    ``(service, input setting)`` unit.
    """
    inputs = {
        position: constant if slot is None else values[slot]
        for position, constant, slot in input_spec
    }
    return inputs, (pattern_code, tuple(inputs.items()))


class ServiceBinding:
    """One service node compiled against the layout of its feed rows.

    ``bind_ops`` is the output-term binding program, one operation per
    term position: ``CONST`` rejects tuples whose value differs from
    the constant (selection), ``CHECK`` rejects on disagreement with
    the feed slot (the equi-join on the pipe), ``FRESH`` appends the
    first occurrence of a new variable, ``DUP`` rejects repeated
    occurrences that fail to unify.  ``layout`` — the feed variables
    followed by the fresh ones in first-occurrence order — is shared by
    every row the node emits.  ``service_name``, ``pattern`` and
    ``profile`` say what to invoke and what it was costed at; the
    service *handle* is the run's business (its registry's).
    """

    __slots__ = (
        "node_id", "atom_index", "service_name", "pattern", "pattern_code",
        "profile", "input_spec", "bind_ops", "layout", "predicates",
    )

    def __init__(self, node: "ServiceNode", feed_layout: SlotLayout) -> None:
        assert node.atom is not None and node.pattern is not None
        self.node_id = node.node_id
        self.atom_index = node.atom_index
        self.service_name = node.service_name
        self.pattern = node.pattern
        self.pattern_code = node.pattern.code
        self.profile = node.profile
        self.input_spec = tuple(compile_input_spec(node, feed_layout))
        bind_ops: list[tuple[int, object]] = []
        fresh: dict = {}
        for position in range(node.atom.arity):
            term = node.atom.term_at(position)
            if isinstance(term, Constant):
                bind_ops.append((_CONST, term.value))
            elif term in fresh:
                bind_ops.append((_DUP, fresh[term]))
            elif term in feed_layout.index:
                bind_ops.append((_CHECK, feed_layout.index[term]))
            else:
                bind_ops.append((_FRESH, len(fresh)))
                fresh[term] = len(fresh)
        self.bind_ops = tuple(bind_ops)
        self.layout = (
            SlotLayout(feed_layout.variables + tuple(fresh))
            if fresh
            else feed_layout
        )
        self.predicates = tuple(compile_predicates(node.predicates, self.layout))

    def unit(self, feed_values: tuple) -> tuple[dict[int, object], tuple]:
        """``(inputs, input key)`` of the unit one feed row addresses."""
        return unit_input_key(self.pattern_code, self.input_spec, feed_values)

    def bind(self, feed_values: tuple, values: tuple) -> tuple | None:
        """Merged value tuple for one service result; None on mismatch."""
        fresh: list = []
        for (op, aux), value in zip(self.bind_ops, values):
            if op == _FRESH:
                fresh.append(value)
            elif op == _CHECK:
                if feed_values[aux] != value:
                    return None
            elif op == _CONST:
                if value != aux:
                    return None
            elif fresh[aux] != value:  # DUP
                return None
        return feed_values + tuple(fresh) if fresh else feed_values

    def bind_page(
        self,
        feed_row: Row,
        result: "InvocationResult",
        record: ProvenanceRecord | None = None,
    ) -> list[Row]:
        """The rows one fetched page contributes for *feed_row*.

        Binds every result tuple against the feed values, annotates the
        service rank, filters by the node predicates; *record* (when
        row provenance is on) is appended to the feed row's trail.
        """
        arity = len(self.bind_ops)
        bind = self.bind
        layout = self.layout
        predicates = self.predicates
        node_id = self.node_id
        feed_values = feed_row.values
        feed_ranks = feed_row.ranks
        provenance = (
            feed_row.provenance
            if record is None
            else feed_row.provenance + (record,)
        )
        rows: list[Row] = []
        for values, rank in zip(
            result.tuples, result.ranks or (None,) * len(result.tuples)
        ):
            if len(values) < arity:
                raise ExecutionError(
                    f"service returned a tuple of arity {len(values)}, "
                    f"expected {arity}"
                )
            merged = bind(feed_values, values)
            if merged is None:
                continue
            if predicates and not all(holds(merged) for holds in predicates):
                continue
            rows.append(
                Row(
                    layout=layout,
                    values=merged,
                    ranks=(
                        feed_ranks
                        if rank is None
                        else feed_ranks + ((node_id, rank),)
                    ),
                    provenance=provenance,
                )
            )
        return rows

"""Everything the engine compiles against a slot layout.

A bound tuple is a record whose value tuple is aligned with its node's
shared :class:`~repro.execution.results.SlotLayout` (see
:mod:`repro.execution.results`); this module resolves variables to
**slot indices once per node** so the inner loops — the per-cell merge
of the join strategies, the per-tuple output binding of service nodes,
every predicate — run on tuple indexing instead of hashing variable
names per row.  The two inner loops and the unit-key reader are
generated: one Python function per *shape*, ``exec``'d once per
process under a file name that names the shape and with its source
registered in :mod:`linecache` (so profiles tell shapes apart and
tracebacks show kernel lines), with every query value (constants,
compiled predicates) passed in as an argument and none rendered into
the source.

* :class:`SlotJoinPlan` — the natural-join merge between two layouts,
  precomputed into shared-slot conflict pairs and right-only slot
  picks; its ``merged`` layout is the layout of every row the join
  emits (:func:`compile_join` bundles it with the join's compiled
  predicates into a :class:`CompiledJoin`).  :meth:`SlotJoinPlan.kernel`
  is the one cell loop of both join forms, generated per join shape
  (shared pairs, right-only slots, predicate count): element-wise
  shared-slot checks on the two records' values, the merged tuple only
  when a predicate reads it, the predicates, the candidate;
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
  cache, demotion mask, provenance, certificates) is read off a feed
  row, by the binding's reader generated per input shape (the input
  positions and the slots they read; constants are arguments);
* :class:`ServiceBinding` — one service node compiled against its feed
  layout: what to invoke, input spec, output layout, and a page-binding
  kernel (output-term checks, node predicates, one record per surviving
  tuple) generated once per binding *shape*, with the node's constants and
  predicates passed in as arguments.  The eager page loop and the lazy
  page source both bind result pages through the same object.

The engine compiles all of it once per plan, in
:mod:`repro.execution.program` (every engine node has one static
layout), and the joins of :mod:`repro.execution.joins` run what was
compiled there.  Nothing here falls back to another representation:
compilation cannot fail.
"""

from __future__ import annotations

import linecache
from functools import lru_cache
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from repro.execution.results import Record, SlotLayout
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

#: ``kernel(cells, left_rows, right_rows, candidates)`` appends
#: ``(composed rank, arrival, left record, right record)`` to
#: *candidates* for each ``(rank, arrival, i, j)`` cell that merges and
#: passes every predicate, in cell order (see :meth:`SlotJoinPlan.kernel`
#: and ``repro.execution.joins.KeyIndex``).
JoinKernel = Callable[..., None]

#: ``(position, constant value, None)`` for a constant input,
#: ``(position, None, slot)`` for one read from the feed row, in
#: ascending position order.
InputSpec = Sequence[tuple[int, object, "int | None"]]


#: What a :class:`ServiceBinding` does at one output position (its shape).
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
    go through the element-wise checks of :meth:`kernel` — a dict
    compares by identity first, so a ``nan`` key equals itself there
    and nowhere else.
    """

    __slots__ = (
        "left", "right", "shared", "right_extra", "merged", "left_key", "right_key",
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
        self.left_key = _key_reader([i for i, _ in shared])
        self.right_key = _key_reader([j for _, j in shared])
        self.merged = (
            SlotLayout(left.variables + tuple(right.variables[j] for j in extra))
            if extra
            else left
        )

    def kernel(self, predicates: Sequence[SlotPredicate]) -> JoinKernel:
        """The cell loop of this merge over *predicates* (a join's own,
        then its residual ones), from the kernel of the merge's shape
        (:func:`_join_kernel_factory`).  The predicates are arguments,
        read when a join runs, never part of the kernel's source."""
        factory = _join_kernel_factory(self.shared, self.right_extra, len(predicates))
        return factory(*predicates)

    def record(self, left: Record, right: Record, rank_sum: int) -> Record:
        """The join record of two records the kernel found to merge (the
        shared slots are not compared again)."""
        values = left[0] + tuple([right[0][j] for j in self.right_extra])
        return (values, rank_sum, left, right)


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
    """*expression* as a callable over value tuples (a slot read is an
    ``itemgetter``, so reading a variable runs no Python frame).

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
        return itemgetter(slot)

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
    operation = COMPARISON_OPERATORS[predicate.op]
    name = predicate.op
    if isinstance(predicate.right, Constant):
        # ``expression op constant``, the common form: one call less.
        constant = predicate.right.value

        def holds_constant(values: tuple) -> bool:
            left_value = left(values)
            try:
                return bool(operation(left_value, constant))
            except TypeError as exc:
                raise _uncomparable(left_value, name, constant, exc) from exc

        return holds_constant
    right = compile_expression(predicate.right, layout)

    def holds(values: tuple) -> bool:
        left_value = left(values)
        right_value = right(values)
        try:
            return bool(operation(left_value, right_value))
        except TypeError as exc:
            raise _uncomparable(left_value, name, right_value, exc) from exc

    return holds


def _uncomparable(left, name: str, right, exc: TypeError) -> PredicateError:
    """The error :meth:`Comparison.holds` raises for *left* and *right*."""
    return PredicateError(f"cannot compare {left!r} {name} {right!r}: {exc}")


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


def unit_input_key(binding: "ServiceBinding", values: tuple) -> tuple:
    """The unit key of the feed row with *values* at *binding*.

    ``(pattern code, ((position, value), ...))``, in input-position
    order: the key under which the logical cache, the demotion mask,
    provenance records and partial-result certificates all name this
    ``(service, input setting)`` unit.  It is read by the binding's
    per-shape reader (:func:`_unit_key_factory`); ``dict(key[1])`` is
    the position → value mapping ``service.invoke`` takes.
    """
    return binding._unit_key(values)


class ServiceBinding:
    """One service node compiled against the layout of its feed rows.

    The output terms compile to one check per term position: a
    constant rejects tuples whose value differs from it (selection), a
    variable bound by the feed rejects on disagreement with its feed
    slot (the equi-join on the pipe), a repeated variable rejects
    occurrences that fail to unify with its first, and the first
    occurrence of a new variable is appended.  ``layout`` — the feed
    variables followed by the fresh ones in first-occurrence order — is
    shared by every record the node binds.  ``service_name``, ``pattern``
    and ``profile`` say what to invoke and what it was costed at; the
    service *handle* is the run's business (its registry's).

    The checks, the node predicates and the record construction run in
    a kernel generated for the binding's *shape* (:func:`_kernel_factory`)
    and built here, at compile time; the binding's constants and
    predicates are arguments of the kernel, never part of its source.
    The unit key is read by a reader built the same way from the input
    spec's shape (:func:`_unit_key_factory`): bindings that differ only
    in a constant share its code.
    """

    __slots__ = (
        "node_id", "atom_index", "service_name", "pattern", "pattern_code",
        "profile", "input_spec", "layout", "_kernel", "_unit_key",
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
        spec = self.input_spec
        self._unit_key = _unit_key_factory(tuple((p, s) for p, _, s in spec))(
            self.pattern_code, *[(p, c) for p, c, s in spec if s is None]
        )
        shape: list[tuple[int, int]] = []
        constants: list = []
        fresh: dict = {}  # variable -> position of its first occurrence
        for position in range(node.atom.arity):
            term = node.atom.term_at(position)
            if isinstance(term, Constant):
                shape.append((_CONST, len(constants)))
                constants.append(term.value)
            elif term in fresh:
                shape.append((_DUP, fresh[term]))
            elif term in feed_layout.index:
                shape.append((_CHECK, feed_layout.index[term]))
            else:
                shape.append((_FRESH, position))
                fresh[term] = position
        self.layout = (
            SlotLayout(feed_layout.variables + tuple(fresh))
            if fresh
            else feed_layout
        )
        predicates = compile_predicates(node.predicates, self.layout)
        self._kernel = _kernel_factory(tuple(shape), len(predicates))(
            self.node_id, *constants, *predicates
        )

    def bind_page(
        self,
        feed: Record,
        result: "InvocationResult",
        page: int | tuple[str, int],
    ) -> list[Record]:
        """The records one fetched page contributes for the record *feed*.

        Binds every result tuple against the feed values and filters by
        the node predicates; each surviving tuple becomes the record
        ``(values, rank sum, feed, node id, service rank, page)``, where
        *page* is the page slot the fetch seam fills in: the page index,
        or ``(sibling, page index)`` for a rerouted unit.
        """
        return self._kernel(feed, result, page)


#: Source of a binding kernel factory; :func:`_kernel_factory` fills
#: in the shape.  Values compared with ``!=`` keep the operand order of
#: the reference binder (``repro.testing.reference.bind_outputs``).
_KERNEL_SOURCE = """\
def factory(node_id{params}):
    def kernel(feed, result, page):
        feed_values = feed[0]
        base = feed[1]
        {hoist}
        records = []
        append = records.append
        for values, rank in zip(
            result.tuples, result.ranks or (None,) * len(result.tuples)
        ):
            if len(values) < {arity}:
                raise ExecutionError(
                    f"service returned a tuple of arity {{len(values)}}, "
                    "expected {arity}"
                )
            {checks}
            merged = {merged}
            {filters}
            append((
                merged, base if rank is None else base + rank,
                feed, node_id, rank, page,
            ))
        return records
    return kernel
"""


@lru_cache(maxsize=256)
def _kernel_factory(shape: tuple[tuple[int, int], ...], predicate_count: int):
    """The kernel factory of one binding shape, exec'd once per process.

    *shape* holds one ``(opcode, operand)`` pair per output position:
    the constant's index, the feed slot checked, the position a repeated
    variable first occurred at, or (fresh) the position itself.  The
    factory takes ``(node_id, *constants, *predicates)`` and returns the
    ``bind_page`` kernel over them.
    """
    params, hoist, checks, fresh = [], {}, [], []
    for position, (op, operand) in enumerate(shape):
        value = f"values[{position}]"
        if op == _CONST:
            params.append(f"c{operand}")
            checks.append(f"if {value} != c{operand}: continue")
        elif op == _CHECK:
            hoist[f"f{operand} = feed_values[{operand}]"] = None
            checks.append(f"if f{operand} != {value}: continue")
        elif op == _DUP:
            checks.append(f"if values[{operand}] != {value}: continue")
        else:
            fresh.append(f"{value},")
    tests = [f"p{index}" for index in range(predicate_count)]
    source = _KERNEL_SOURCE.format(
        params="".join(f", {name}" for name in params + tests),
        hoist="\n        ".join(hoist),
        arity=len(shape),
        checks="\n            ".join(checks),
        merged=f"feed_values + ({' '.join(fresh)})" if fresh else "feed_values",
        filters="\n            ".join(
            f"if not {test}(merged): continue" for test in tests
        ),
    )
    name = " ".join(f"{'KCFD'[op]}{operand}" for op, operand in shape)
    return _compiled(
        f"<binding kernel {name} p{predicate_count}>", source,
        {"ExecutionError": ExecutionError},
    )


@lru_cache(maxsize=256)
def _unit_key_factory(shape: tuple[tuple[int, "int | None"], ...]):
    """The unit-key reader factory of one input shape, exec'd once per
    process.

    *shape* holds one ``(position, feed slot)`` pair per input position
    (slot ``None``: a constant).  The factory takes ``(pattern code,
    *constant items)``, each constant's ``(position, value)`` item
    built once, and returns the reader: one tuple display over them and
    the feed values it reads.
    """
    params = "".join(f", k{p}" for p, slot in shape if slot is None)
    items = "".join(
        f"k{p}, " if slot is None else f"({p}, values[{slot}]), " for p, slot in shape
    )
    name = "".join(f" {p}={'c' if slot is None else slot}" for p, slot in shape)
    return _compiled(
        f"<unit key{name}>",
        f"def factory(code{params}):\n    return lambda values: (code, ({items}))\n",
        {},
    )


#: Source of a join cell kernel factory; :func:`_join_kernel_factory`
#: fills in the shape.  Shared slots are compared left operand first,
#: in the order of the reference merge
#: (``repro.testing.reference.merged_with``), and the merged tuple is
#: built only when a predicate reads it.
_JOIN_KERNEL_SOURCE = """\
def factory({params}):
    def kernel(cells, left_rows, right_rows, candidates):
        append = candidates.append
        for rank, arrival, i, j in cells:
            left_row = left_rows[i]
            right_row = right_rows[j]
            {body}
            append((rank, arrival, left_row, right_row))
    return kernel
"""


@lru_cache(maxsize=256)
def _join_kernel_factory(shared: tuple, right_extra: tuple, predicate_count: int):
    """The cell kernel factory of one join shape, exec'd once per process.

    *shared* and *right_extra* are a :class:`SlotJoinPlan`'s slot pairs
    and right-only slots; the factory takes the predicates and returns
    the kernel over them.
    """
    source = _join_kernel_source(shared, right_extra, predicate_count)
    name = "".join(
        [f"{a}={b} " for a, b in shared] + [f"+{j} " for j in right_extra]
    )
    return _compiled(f"<join kernel {name}p{predicate_count}>", source, {})


def _compiled(filename: str, source: str, namespace: dict):
    """The ``factory`` *source* defines, compiled under *filename* and
    registered in :mod:`linecache`, so a traceback or a profile through
    the kernel names its shape and shows its source lines."""
    linecache.cache[filename] = (
        len(source), None, source.splitlines(keepends=True), filename
    )
    exec(compile(source, filename, "exec"), namespace)
    return namespace["factory"]


def _join_kernel_source(shared: tuple, right_extra: tuple, predicate_count: int) -> str:
    """The source of :func:`_join_kernel_factory` for one shape."""
    tests = [f"p{index}" for index in range(predicate_count)]
    body = []
    if shared or tests:
        body.append("lv = left_row[0]")
    if shared or (tests and right_extra):
        body.append("rv = right_row[0]")
    body += [f"if lv[{a}] != rv[{b}]: continue" for a, b in shared]
    if tests:
        picks = "".join(f"rv[{j}], " for j in right_extra)
        body.append(f"merged = lv + ({picks})" if picks else "merged = lv")
        body += [f"if not {test}(merged): continue" for test in tests]
    return _JOIN_KERNEL_SOURCE.format(
        params=", ".join(tests), body="\n            ".join(body)
    )

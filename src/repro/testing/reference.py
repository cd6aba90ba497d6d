"""Dict-row reference interpreter for query plans (tests and benches).

The engine carries rows as slot tuples through compiled loops
(:mod:`repro.execution.slots`); this module is the small, obviously
correct thing those loops are checked against.  It walks a plan node
by node over per-row ``dict`` bindings, resolving every variable by
name on every row: services are invoked directly (no cache, no
resilience, no laziness), output tuples are bound with
:func:`bind_outputs`, parallel joins are the full-plane
:func:`~repro.execution.joins.execute_join` over ``Row.merged_with``,
predicates are evaluated with :meth:`Comparison.holds`, and the answer
is ``compose_ranking`` over everything produced.  It shares no code
with the compiled path beyond the :class:`Row` container itself.

Only ``tests/`` and ``benchmarks/`` import it (``tests/test_docs.py``
guards that); nothing under ``src/repro/`` outside this package may.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.execution.joins import execute_join
from repro.execution.results import Row, compose_ranking
from repro.execution.slots import ExecutionError
from repro.model.terms import Constant
from repro.plans.dag import QueryPlan
from repro.plans.nodes import InputNode, JoinNode, OutputNode, ServiceNode
from repro.services.registry import ServiceRegistry


@dataclass(frozen=True)
class ReferenceResult:
    """What the reference produced: ranked rows and per-node sizes."""

    rows: list[Row]
    node_output_sizes: dict[str, int] = field(default_factory=dict)


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
    )

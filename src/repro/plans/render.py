"""Textual rendering of query plans.

:func:`render_ascii` is an indented, topologically ordered listing
with the visual conventions of Figure 4 mapped onto text markers:
``*`` for proliferative exact services, ``~`` for search services,
``|chunked|`` for chunked ones, ``NL``/``MS`` labels on parallel joins,
and ``F=...`` fetch annotations; :func:`summarize` is its one-line
form.

Annotations (``t_in``/``t_out``/calls, as in Figure 8) can be included
when a :class:`~repro.plans.annotate.PlanAnnotation` is supplied.
"""

from __future__ import annotations

from repro.plans.annotate import PlanAnnotation
from repro.plans.dag import QueryPlan
from repro.plans.nodes import InputNode, JoinNode, PlanNode, ServiceNode


def _node_text(node: PlanNode, annotation: PlanAnnotation | None) -> str:
    text = node.label
    if isinstance(node, ServiceNode) and node.is_chunked:
        text = f"|{text}|"
    if annotation is not None and not isinstance(node, InputNode):
        estimate = annotation.of(node)
        text += (
            f"  [t_in={estimate.tuples_in:g} t_out={estimate.tuples_out:g}"
            f" calls={estimate.calls:g}]"
        )
    return text


def render_ascii(plan: QueryPlan, annotation: PlanAnnotation | None = None) -> str:
    """Render *plan* as an indented arc listing in topological order."""
    lines: list[str] = []
    depth: dict[str, int] = {}
    for node in plan.topological_order():
        predecessors = plan.predecessors(node)
        if predecessors:
            level = max(depth[p.node_id] for p in predecessors) + 1
        else:
            level = 0
        depth[node.node_id] = level
        indent = "  " * level
        origin = ""
        if predecessors:
            names = " + ".join(p.label for p in predecessors)
            origin = f"<- {names}  "
        lines.append(f"{indent}{origin}{_node_text(node, annotation)}")
    return "\n".join(lines)


def summarize(plan: QueryPlan) -> str:
    """One-line summary: services in topological order with join markers."""
    parts: list[str] = []
    for node in plan.topological_order():
        if isinstance(node, ServiceNode):
            parts.append(node.service_name)
        elif isinstance(node, JoinNode):
            parts.append(node.method.value)
    return " -> ".join(parts)

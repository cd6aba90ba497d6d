"""Query plans: DAG representation, builder, annotation, rendering."""

from repro.plans.annotate import (
    AnnotationProgram,
    NodeEstimate,
    PlanAnnotation,
    annotate,
    bulk_erspi,
)
from repro.plans.builder import PlanBuilder, Poset, chain_poset, parallel_after
from repro.plans.dag import PlanError, QueryPlan, plan_with_nodes
from repro.plans.nodes import InputNode, JoinNode, OutputNode, PlanNode, ServiceNode
from repro.plans.render import render_ascii, render_dot, summarize
from repro.plans.spec import PlanSpec

__all__ = [
    "AnnotationProgram",
    "InputNode",
    "JoinNode",
    "NodeEstimate",
    "OutputNode",
    "PlanAnnotation",
    "PlanBuilder",
    "PlanError",
    "PlanNode",
    "PlanSpec",
    "Poset",
    "QueryPlan",
    "ServiceNode",
    "annotate",
    "bulk_erspi",
    "chain_poset",
    "parallel_after",
    "plan_with_nodes",
    "render_ascii",
    "render_dot",
    "summarize",
]

"""repro — Optimization of Multi-Domain Queries on the Web (VLDB 2008).

A full reimplementation of the framework of Braga, Ceri, Daniel, and
Martinenghi: conjunctive queries over exact and search Web services
with access limitations, DAG query plans with rank-preserving joins,
several cost metrics, a three-phase branch-and-bound optimizer, and a
caching, parallel execution engine — plus the calibrated simulated
deep-Web sources used to reproduce the paper's experiments.

Quickstart::

    from repro import (
        CacheSetting, ExecutionEngine, ExecutionTimeMetric, Optimizer,
        OptimizerConfig, travel_registry, running_example_query,
    )

    registry = travel_registry()
    query = running_example_query()
    optimizer = Optimizer(registry, ExecutionTimeMetric(),
                          OptimizerConfig(k=10))
    best = optimizer.optimize(query)
    engine = ExecutionEngine(registry, CacheSetting.ONE_CALL)
    result = engine.execute(best.plan, head=query.head, k=10)
    print(result.table.render(10))
"""

from repro.costs.base import CostMetric
from repro.costs.sum_cost import (
    MonetaryCostMetric,
    RequestResponseMetric,
    SumCostMetric,
)
from repro.costs.time_cost import (
    BottleneckMetric,
    ExecutionTimeMetric,
    TimeToScreenMetric,
)
from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine, ExecutionResult
from repro.model.atoms import Atom, atom
from repro.model.parser import parse_query
from repro.model.predicates import Comparison, comparison
from repro.model.query import ConjunctiveQuery, query
from repro.model.schema import (
    AccessPattern,
    Schema,
    ServiceSignature,
    schema_of,
    signature,
)
from repro.model.terms import Constant, Variable
from repro.optimizer.optimizer import (
    OptimizedPlan,
    Optimizer,
    OptimizerConfig,
)
from repro.plans.annotate import annotate
from repro.plans.builder import PlanBuilder, Poset
from repro.plans.dag import QueryPlan
from repro.plans.render import render_ascii
from repro.services.profile import (
    ServiceKind,
    ServiceProfile,
    exact_profile,
    search_profile,
)
from repro.services.registry import JoinMethod, ServiceRegistry
from repro.services.table import TableExactService, TableSearchService
from repro.sources.travel import running_example_query, travel_registry

__version__ = "1.0.0"

__all__ = [
    "AccessPattern",
    "Atom",
    "BottleneckMetric",
    "CacheSetting",
    "Comparison",
    "ConjunctiveQuery",
    "Constant",
    "CostMetric",
    "ExecutionEngine",
    "ExecutionResult",
    "ExecutionTimeMetric",
    "JoinMethod",
    "MonetaryCostMetric",
    "OptimizedPlan",
    "Optimizer",
    "OptimizerConfig",
    "PlanBuilder",
    "Poset",
    "QueryPlan",
    "RequestResponseMetric",
    "Schema",
    "ServiceKind",
    "ServiceProfile",
    "ServiceRegistry",
    "ServiceSignature",
    "SumCostMetric",
    "TableExactService",
    "TableSearchService",
    "TimeToScreenMetric",
    "Variable",
    "annotate",
    "atom",
    "comparison",
    "exact_profile",
    "parse_query",
    "query",
    "render_ascii",
    "running_example_query",
    "schema_of",
    "search_profile",
    "signature",
    "travel_registry",
]

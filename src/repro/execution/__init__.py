"""Execution engine: caches, rank-aware joins, dataflow, statistics."""

from repro.execution.cache import (
    CacheSetting,
    LogicalCache,
    NoCache,
    OneCallCache,
    OptimalCache,
    ThreadSafeCache,
    make_cache,
)
from repro.execution.engine import (
    ChainStream,
    ExecutionEngine,
    ExecutionError,
    ExecutionMode,
    ExecutionResult,
    execute_plan,
)
from repro.execution.joins import (
    JoinStream,
    TopKStream,
    execute_join_hashed,
    join_order,
    merge_scan_order,
    nested_loop_order,
)
from repro.execution.lazy import (
    FetchedPage,
    LazyServiceCursor,
    MaterializedCursor,
    MultiFeedCursor,
    RowCursor,
)
from repro.execution.program import ExecutionProgram
from repro.execution.progressive import (
    DriftEvent,
    ProgressiveExecutor,
    ProgressiveRound,
)
from repro.execution.resilience import (
    DriftMonitor,
    DriftPolicy,
    DroppedUnit,
    PartialResultCertificate,
    PlanDrift,
    ResilienceConfig,
    RetryPolicy,
    SubstitutedUnit,
    UnresponsiveService,
    resilient_fetch,
)
from repro.execution.results import ResultTable, Row, SlotLayout, compose_ranking
from repro.execution.slots import (
    SlotJoinPlan,
    compile_comparison,
    compile_expression,
    compile_predicates,
)
from repro.execution.stats import ExecutionStats, ServiceCallStats

__all__ = [
    "CacheSetting",
    "ChainStream",
    "DriftEvent",
    "DriftMonitor",
    "DriftPolicy",
    "DroppedUnit",
    "ExecutionEngine",
    "ExecutionError",
    "ExecutionMode",
    "ExecutionProgram",
    "ExecutionResult",
    "ExecutionStats",
    "FetchedPage",
    "JoinStream",
    "LazyServiceCursor",
    "LogicalCache",
    "MaterializedCursor",
    "MultiFeedCursor",
    "NoCache",
    "OneCallCache",
    "OptimalCache",
    "PartialResultCertificate",
    "PlanDrift",
    "ProgressiveExecutor",
    "ResilienceConfig",
    "RetryPolicy",
    "RowCursor",
    "ProgressiveRound",
    "ResultTable",
    "Row",
    "ServiceCallStats",
    "SubstitutedUnit",
    "UnresponsiveService",
    "SlotJoinPlan",
    "SlotLayout",
    "ThreadSafeCache",
    "TopKStream",
    "compile_comparison",
    "compile_expression",
    "compile_predicates",
    "compose_ranking",
    "execute_join_hashed",
    "execute_plan",
    "join_order",
    "make_cache",
    "merge_scan_order",
    "nested_loop_order",
    "resilient_fetch",
]

"""Importable test instrumentation: references, fixtures and fault injection.

What tests, benchmarks and downstream experiments import without path
hacks — the composed-ranking sort the engine's terminal stream is
checked against, the full-plane dict-row join the compiled join is checked
against, the dict-row reference plan interpreter the engine is checked
against, the per-definition plan estimates the annotation program
is checked against, the from-scratch state bound the optimizer's open
plans are checked against, the unmemoized search the memo is checked
against, the unpruned search the class bounds are checked against, the
most-cogent-only search (§4.1) the full search is compared with, the
eager-streamed engine lazy fetching is
measured against, the re-executing executor growth in place is
measured against, the row-at-a-time join walk the streamed one is
checked against pull for pull, the feed DP the engine's clock is checked against
and the values-based attribution the certificate's is checked against
(:mod:`repro.testing.reference`); the brute-force
optimality oracle of the branch-and-bound
(:mod:`repro.testing.exhaustive`) and the WSMS predecessor the
ablations compare it with (:mod:`repro.testing.wsms`); the seeded
workload generator the scalability benches sweep
(:mod:`repro.testing.synthetic`); the visit-order property, the
compiled join of hand-built rows, the row → record → row adapter and
the pre-built page source the join and cursor suites drive the engine's
internals through, the ledger reads of a demand-driven walk, the
precedence shapes of hand-built plans,
the news domain's query, the up-front unit mask and the plan count of
a plan-cache file (:mod:`repro.testing.fixtures`); and the deterministic fault-injection
kit (:mod:`repro.testing.faults`).  Production modules under
``src/repro/`` never import this package, and every production module
is reachable from an entry point (``tests/test_docs.py`` guards both).
"""

from repro.testing.exhaustive import exhaustive_optimize
from repro.testing.faults import (
    FAULT_KINDS,
    FaultSchedule,
    FlakyService,
    InjectedFault,
    wrap_registry_flaky,
)
from repro.testing.fixtures import (
    ListPageSource,
    as_record,
    as_records,
    chain_poset,
    compiled_join,
    demand_blocks,
    emitted,
    is_order_rank_consistent,
    join_stream,
    joined,
    market_moving_news_query,
    mask_unit,
    parallel_after,
    step_cells,
    stored_plans,
)
from repro.testing.reference import (
    MostCogentOptimizer,
    ReexecutingExecutor,
    ReferenceResult,
    RowAtATimeJoinStream,
    UnprunedOptimizer,
    compose_ranking,
    eager_streamed_engine,
    execute_join,
    memo_bounds,
    merged_with,
    reference_annotate,
    reference_answer_units,
    reference_elapsed,
    reference_execute,
    reference_partial_bound,
    reference_partial_plan,
    reference_unit_key,
    search_states,
    unmemoized_optimizer,
)
from repro.testing.synthetic import (
    SyntheticWorkload,
    generate_workload,
    workload_family,
)
from repro.testing.wsms import (
    WsmsPlan,
    greedy_selectivity_order,
    wsms_optimize,
    wsms_poset,
)

__all__ = [
    "FAULT_KINDS",
    "FaultSchedule",
    "FlakyService",
    "InjectedFault",
    "ListPageSource",
    "MostCogentOptimizer",
    "ReexecutingExecutor",
    "ReferenceResult",
    "RowAtATimeJoinStream",
    "SyntheticWorkload",
    "UnprunedOptimizer",
    "WsmsPlan",
    "as_record",
    "as_records",
    "chain_poset",
    "compiled_join",
    "compose_ranking",
    "demand_blocks",
    "eager_streamed_engine",
    "emitted",
    "execute_join",
    "exhaustive_optimize",
    "generate_workload",
    "greedy_selectivity_order",
    "is_order_rank_consistent",
    "join_stream",
    "joined",
    "market_moving_news_query",
    "mask_unit",
    "memo_bounds",
    "merged_with",
    "parallel_after",
    "reference_annotate",
    "reference_answer_units",
    "reference_elapsed",
    "reference_execute",
    "reference_partial_bound",
    "reference_partial_plan",
    "reference_unit_key",
    "search_states",
    "step_cells",
    "stored_plans",
    "unmemoized_optimizer",
    "workload_family",
    "wrap_registry_flaky",
    "wsms_optimize",
    "wsms_poset",
]

"""Importable test instrumentation: references, fixtures and fault injection.

What tests, benchmarks and downstream experiments import without path
hacks — the full-plane dict-row join the compiled join is checked
against, the dict-row reference plan interpreter the engine is checked
against, the per-definition plan estimates the annotation program
is checked against, the from-scratch state bound the optimizer's open
plans are checked against, the eager-streamed engine lazy fetching is
measured against and the re-executing executor growth in place is
measured against (:mod:`repro.testing.reference`); the brute-force
optimality oracle of the branch-and-bound
(:mod:`repro.testing.exhaustive`) and the WSMS predecessor the
ablations compare it with (:mod:`repro.testing.wsms`); the seeded
workload generator the scalability benches sweep
(:mod:`repro.testing.synthetic`); the visit-order property, the
compiled join of hand-built rows and the pre-built page source of the
join and cursor suites
(:mod:`repro.testing.fixtures`); and the deterministic fault-injection
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
    compiled_join,
    is_order_rank_consistent,
)
from repro.testing.reference import (
    ReexecutingExecutor,
    ReferenceResult,
    eager_streamed_engine,
    execute_join,
    merged_with,
    reference_annotate,
    reference_execute,
    reference_partial_bound,
    reference_partial_plan,
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
    "ReexecutingExecutor",
    "ReferenceResult",
    "SyntheticWorkload",
    "WsmsPlan",
    "compiled_join",
    "eager_streamed_engine",
    "execute_join",
    "exhaustive_optimize",
    "generate_workload",
    "greedy_selectivity_order",
    "is_order_rank_consistent",
    "merged_with",
    "reference_annotate",
    "reference_execute",
    "reference_partial_bound",
    "reference_partial_plan",
    "workload_family",
    "wrap_registry_flaky",
    "wsms_optimize",
    "wsms_poset",
]

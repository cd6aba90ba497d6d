"""Importable test instrumentation: references and fault injection.

What tests, benchmarks and downstream experiments import without path
hacks — the full-plane dict-row join the compiled join is checked
against, the dict-row reference plan interpreter the engine is checked
against, the per-definition plan estimates the annotation program
is checked against, the from-scratch state bound the optimizer's open
plans are checked against, the eager-streamed engine lazy fetching is
measured against and the re-executing executor growth in place is
measured against (:mod:`repro.testing.reference`), and the deterministic
fault-injection kit (:mod:`repro.testing.faults`).  Production modules
under ``src/repro/`` never import this package.
"""

from repro.testing.faults import (
    FAULT_KINDS,
    FaultSchedule,
    FlakyService,
    InjectedFault,
    wrap_registry_flaky,
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

__all__ = [
    "FAULT_KINDS",
    "FaultSchedule",
    "FlakyService",
    "InjectedFault",
    "ReexecutingExecutor",
    "ReferenceResult",
    "eager_streamed_engine",
    "execute_join",
    "merged_with",
    "reference_annotate",
    "reference_execute",
    "reference_partial_bound",
    "reference_partial_plan",
    "wrap_registry_flaky",
]

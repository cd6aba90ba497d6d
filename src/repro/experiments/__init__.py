"""Section 6 of the paper, reproduced once.

Each artifact of the evaluation — Table 1, the plan space of Figure 7,
the annotated plan of Figure 8, the plan × cache grid of Figure 11, the
multithreading experiment — is computed by one ``run_*`` function whose
result has a ``title`` and a ``render()``; the paper's published values
live here and nowhere else.  ``python -m repro reproduce``,
``examples/reproduce_paper.py`` and the figure modules under
``benchmarks/`` are callers.
"""

from repro.experiments.figure11 import (
    PAPER_CALLS,
    PAPER_THREADED_HOTEL_CALLS,
    PAPER_THREADED_TIME,
    PAPER_TIMES,
    Figure11Cell,
    Figure11Result,
    MultithreadingResult,
    figure11_plans,
    run_figure11,
    run_multithreading,
)
from repro.experiments.figures import (
    PAPER_FETCHES,
    PAPER_FIGURE8,
    PAPER_FIGURE8_JOIN,
    PAPER_PLAN_COUNT,
    PAPER_TABLE1,
    CostedTopology,
    Figure7Result,
    Figure8Result,
    Table1Result,
    run_figure7,
    run_figure8,
    run_table1,
)
from repro.sources.travel import travel_registry
from repro.sources.world import build_world

__all__ = [
    "CostedTopology",
    "Figure11Cell",
    "Figure11Result",
    "Figure7Result",
    "Figure8Result",
    "MultithreadingResult",
    "PAPER_CALLS",
    "PAPER_FETCHES",
    "PAPER_FIGURE8",
    "PAPER_FIGURE8_JOIN",
    "PAPER_PLAN_COUNT",
    "PAPER_TABLE1",
    "PAPER_THREADED_HOTEL_CALLS",
    "PAPER_THREADED_TIME",
    "PAPER_TIMES",
    "Table1Result",
    "artifact",
    "figure11_plans",
    "reproduce_paper",
    "run_figure11",
    "run_figure7",
    "run_figure8",
    "run_multithreading",
    "run_table1",
]


def artifact(result, *note: str) -> str:
    """A result as the text recorded for it: title, blank line,
    ``render()``, then the caller's *note* lines."""
    return "\n".join([result.title, "", result.render(), *note])


def reproduce_paper() -> str:
    """All five artifacts of Section 6, each next to the paper's values."""
    world = build_world()
    grid = run_figure11(travel_registry(world))
    return "\n\n".join([
        artifact(run_table1(travel_registry(world), world)),
        artifact(run_figure7(travel_registry(world))),
        artifact(run_figure8(travel_registry(world))),
        artifact(
            grid,
            "",
            f"calls match paper: {grid.all_calls_match_paper}",
            f"time orderings hold: {grid.time_shape_holds()}",
        ),
        artifact(run_multithreading(travel_registry(world))),
    ])

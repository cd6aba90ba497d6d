"""Figure 11 and the multithreading experiment: the artifacts of
Section 6 that execute plans S, P and O.

:func:`run_figure11` runs the three plans under the three logical-cache
settings (per cell: calls per service and simulated total time);
:func:`run_multithreading` runs plan S under the three settings with
and without per-node thread dispatch.  Both scan the plans fully.  The
paper's values live here, and so does the threaded run: the paper runs
plans in threads only in this experiment, so :class:`ThreadedEngine`
— a seeded feed shuffle and a threaded clock over the engine's one
walk — is the experiment's, not the engine's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine, ExecutionResult, elapsed
from repro.execution.fetch import RunContext
from repro.model.query import ConjunctiveQuery
from repro.plans.builder import PlanBuilder
from repro.plans.dag import QueryPlan
from repro.services.registry import ServiceRegistry
from repro.sources.travel import (
    FLIGHT_ATOM,
    HOTEL_ATOM,
    alpha1_patterns,
    poset_optimal,
    poset_parallel,
    poset_serial,
    running_example_query,
    travel_registry,
)

PLAN_NAMES = ("S", "P", "O")

#: The paper's call counts: {(setting value, plan): (weather, flight, hotel)}.
PAPER_CALLS: dict[tuple[str, str], tuple[int, int, int]] = {
    ("no-cache", "S"): (71, 16, 284),
    ("no-cache", "P"): (71, 71, 71),
    ("no-cache", "O"): (71, 16, 16),
    ("one-call", "S"): (71, 16, 15),
    ("one-call", "P"): (71, 71, 71),
    ("one-call", "O"): (71, 16, 16),
    ("optimal", "S"): (54, 11, 10),
    ("optimal", "P"): (54, 54, 54),
    ("optimal", "O"): (54, 11, 11),
}

#: The paper's total times in seconds.
PAPER_TIMES: dict[tuple[str, str], int] = {
    ("no-cache", "S"): 374, ("no-cache", "P"): 596, ("no-cache", "O"): 218,
    ("one-call", "S"): 266, ("one-call", "P"): 598, ("one-call", "O"): 219,
    ("optimal", "S"): 176, ("optimal", "P"): 512, ("optimal", "O"): 155,
}

#: The multithreading experiment on plan S: seconds with threads (down
#: from the no-cache cell above) and hotel calls under the one-call
#: cache with threads (up from the one-call cell above).
PAPER_THREADED_TIME = 76
PAPER_THREADED_HOTEL_CALLS = 212

#: Virtual seconds one dispatch to a concurrent thread costs.
THREAD_OVERHEAD = 0.05

#: Seeds the feed shuffle of a threaded run, so the degraded one-call
#: cache it models is the same on every run.
SHUFFLE_SEED = 17


class ThreadedEngine(ExecutionEngine):
    """The engine as the multithreading experiment runs it: each
    node's calls dispatched to parallel threads.

    Every eagerly drained service step's feed is shuffled (seeded,
    from the seed again on each walk), degrading the one-call cache as
    the paper observes (284 → 212 hotel calls), and the run's elapsed
    time counts a step with remote pages busy for its longest single
    latency plus a thread overhead per dispatch instead of their sum.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: The run context of the walk the shuffle serves, and its
        #: generator: every walk (a restart too) opens a new context.
        self._walk: RunContext | None = None
        self._rng = random.Random(SHUFFLE_SEED)

    def execute(self, *args, **kwargs) -> ExecutionResult:
        """Run as the engine does; only the elapsed time is threaded —
        the ledger keeps its summed latencies."""
        result = super().execute(*args, **kwargs)
        stats = result.stats
        threaded = {
            step: (longest + THREAD_OVERHEAD * pulls, longest, pulls)
            for step, (_, longest, pulls) in stats.clock.items()
        }
        stats.elapsed = elapsed(result.program, replace(stats, clock=threaded))
        return result

    def _drain_units(self, context, step, feed, accounting):
        if context is not self._walk:
            self._walk, self._rng = context, random.Random(SHUFFLE_SEED)
        feed = list(feed)
        self._rng.shuffle(feed)
        return super()._drain_units(context, step, feed, accounting)


@dataclass(frozen=True)
class Figure11Cell:
    """One (cache setting, plan) measurement."""

    setting: str
    plan: str
    calls: tuple[int, int, int]  # weather, flight, hotel
    conf_calls: int
    elapsed: float
    answers: int

    @property
    def paper_calls(self) -> tuple[int, int, int]:
        return PAPER_CALLS[(self.setting, self.plan)]

    @property
    def paper_time(self) -> int:
        return PAPER_TIMES[(self.setting, self.plan)]

    @property
    def calls_match_paper(self) -> bool:
        return self.calls == self.paper_calls


@dataclass(frozen=True)
class Figure11Result:
    """All nine cells of the experiment."""

    cells: dict[tuple[str, str], Figure11Cell]

    title = "Figure 11 — calls per service and total times"

    def cell(self, setting: str, plan: str) -> Figure11Cell:
        return self.cells[(setting, plan)]

    @property
    def all_calls_match_paper(self) -> bool:
        return all(cell.calls_match_paper for cell in self.cells.values())

    def time_shape_holds(self) -> bool:
        """O < S < P per setting, caching never slows a plan."""
        for setting in ("no-cache", "one-call", "optimal"):
            o = self.cell(setting, "O").elapsed
            s = self.cell(setting, "S").elapsed
            p = self.cell(setting, "P").elapsed
            if not o < s < p:
                return False
        for plan in PLAN_NAMES:
            no = self.cell("no-cache", plan).elapsed
            one = self.cell("one-call", plan).elapsed
            optimal = self.cell("optimal", plan).elapsed
            if not optimal <= one + 1e-9 <= no + 1e-9:
                return False
        return True

    def render(self) -> str:
        """The grid as a text table, one row per cell."""
        lines = [
            f"{'setting':<10} {'plan':<5} {'weather':>8} {'flight':>7} "
            f"{'hotel':>6} {'time[s]':>9}   {'paper calls':<15} {'paper[s]':>8}",
        ]
        for setting in ("no-cache", "one-call", "optimal"):
            for plan in PLAN_NAMES:
                cell = self.cell(setting, plan)
                w, f, h = cell.calls
                lines.append(
                    f"{setting:<10} {plan:<5} {w:>8} {f:>7} {h:>6} "
                    f"{cell.elapsed:>9.1f}   {str(cell.paper_calls):<15} "
                    f"{cell.paper_time:>8}"
                )
        return "\n".join(lines)


def figure11_plans(
    registry: ServiceRegistry, query: ConjunctiveQuery
) -> dict[str, QueryPlan]:
    """The three plans of the experiment with their fetching factors.

    S is a single path, so Eq. 7 pushes fetches downstream (F_hotel=8);
    P and O have the parallel flight/hotel pair, so Eq. 6 gives
    F_flight=3, F_hotel=4 (Figure 8).
    """
    builder = PlanBuilder(query, registry)
    return {
        "S": builder.build(
            alpha1_patterns(), poset_serial(),
            fetches={FLIGHT_ATOM: 1, HOTEL_ATOM: 8},
        ),
        "P": builder.build(
            alpha1_patterns(), poset_parallel(),
            fetches={FLIGHT_ATOM: 3, HOTEL_ATOM: 4},
        ),
        "O": builder.build(
            alpha1_patterns(), poset_optimal(),
            fetches={FLIGHT_ATOM: 3, HOTEL_ATOM: 4},
        ),
    }


def run_figure11(
    registry: ServiceRegistry | None = None,
    query: ConjunctiveQuery | None = None,
) -> Figure11Result:
    """Execute the full 3 plans × 3 cache settings grid."""
    registry = registry or travel_registry()
    query = query or running_example_query()
    plans = figure11_plans(registry, query)
    cells: dict[tuple[str, str], Figure11Cell] = {}
    for setting in CacheSetting:
        for name, plan in plans.items():
            engine = ExecutionEngine(registry, cache_setting=setting)
            outcome = engine.execute(plan, head=query.head)
            stats = outcome.stats
            cells[(setting.value, name)] = Figure11Cell(
                setting=setting.value,
                plan=name,
                calls=(
                    stats.calls("weather"),
                    stats.calls("flight"),
                    stats.calls("hotel"),
                ),
                conf_calls=stats.calls("conf"),
                elapsed=outcome.elapsed,
                answers=len(outcome.rows),
            )
    return Figure11Result(cells=cells)


# -- Multithreading experiment ------------------------------------------------


@dataclass(frozen=True)
class MultithreadingResult:
    """Plan S under each cache setting, with and without per-node
    thread dispatch: ``{(setting, mode): (hotel calls, elapsed)}``.

    The speed-up is read off the *no-cache* pair (the paper's 374 s is
    Figure 11's no-cache cell of plan S), the degradation of the
    one-call cache off the *one-call* pair.
    """

    cells: dict[tuple[str, str], tuple[int, float]]

    title = "Multithreading experiment (plan S)"

    def hotel_calls(self, setting: str, mode: str) -> int:
        return self.cells[(setting, mode)][0]

    def elapsed(self, setting: str, mode: str) -> float:
        return self.cells[(setting, mode)][1]

    @property
    def ordered_hotel_calls(self) -> int:
        return self.hotel_calls("one-call", "parallel")

    @property
    def threaded_hotel_calls(self) -> int:
        return self.hotel_calls("one-call", "multithreaded")

    def render(self) -> str:
        lines = [f"{'cache':<10} {'mode':<15} {'hotel calls':>12} {'time[s]':>9}"]
        for (setting, mode), (calls, elapsed) in sorted(self.cells.items()):
            lines.append(f"{setting:<10} {mode:<15} {calls:>12} {elapsed:>9.1f}")
        lines += [
            "",
            "Paper: ordered one-call cache "
            f"{PAPER_CALLS[('one-call', 'S')][2]} hotel calls; "
            f"threaded {PAPER_THREADED_HOTEL_CALLS};",
            f"ours: ordered {self.ordered_hotel_calls}, "
            f"threaded {self.threaded_hotel_calls}.",
            f"Paper: plan S drops from {PAPER_TIMES[('no-cache', 'S')]} s to "
            f"{PAPER_THREADED_TIME} s with threads;",
            f"ours: {self.elapsed('no-cache', 'parallel'):.0f} s -> "
            f"{self.elapsed('no-cache', 'multithreaded'):.0f} s.",
        ]
        return "\n".join(lines)


def run_multithreading(
    registry: ServiceRegistry | None = None,
    query: ConjunctiveQuery | None = None,
) -> MultithreadingResult:
    """Execute plan S over 3 cache settings × {ordered, threaded}."""
    registry = registry or travel_registry()
    query = query or running_example_query()
    plan = figure11_plans(registry, query)["S"]
    cells = {}
    for setting in CacheSetting:
        for mode, engine in (
            ("parallel", ExecutionEngine), ("multithreaded", ThreadedEngine)
        ):
            outcome = engine(registry, cache_setting=setting).execute(
                plan, head=query.head
            )
            cells[(setting.value, mode)] = (
                outcome.stats.calls("hotel"), outcome.elapsed
            )
    return MultithreadingResult(cells=cells)

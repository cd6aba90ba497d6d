"""Table 1 and Figures 7 and 8: the artifacts of Section 6 that are
estimated rather than executed, each next to the paper's values."""

from __future__ import annotations

from dataclasses import dataclass

from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.model.query import ConjunctiveQuery
from repro.model.schema import AccessPattern
from repro.optimizer.fetches import (
    FetchContext,
    FetchResult,
    closed_form_pair,
    exhaustive_assignment,
)
from repro.optimizer.topology import TopologyEnumerator
from repro.plans.annotate import PlanAnnotation, annotate
from repro.plans.builder import PlanBuilder, Poset
from repro.plans.dag import QueryPlan
from repro.plans.render import render_ascii, summarize
from repro.services.profile import ServiceProfile
from repro.services.profiler import (
    ProfileEstimate,
    format_profile_table,
    profile_services,
)
from repro.services.registry import ServiceRegistry
from repro.sources.travel import (
    CONF_ATOM,
    FLIGHT_ATOM,
    HOTEL_ATOM,
    WEATHER_ATOM,
    alpha1_patterns,
    poset_optimal,
    poset_parallel,
    poset_serial,
    running_example_query,
    travel_registry,
)
from repro.sources.world import (
    DEEP_ROUTE_CITY,
    OTHER_TOPIC_SIZES,
    TravelWorld,
    build_world,
    city_dates,
)

#: The paper's Table 1: {service: (type, chunk size, avg response size,
#: avg response time in s)}.
PAPER_TABLE1: dict[str, tuple[str, int | None, float | None, float]] = {
    "conf": ("exact", None, 20, 1.2),
    "weather": ("exact", None, 0.05, 1.5),
    "flight": ("search", 25, None, 9.7),
    "hotel": ("search", 5, None, 4.9),
}

#: Example 5.1: the partial orders on the three atoms left once the α1
#: patterns force conf first.
PAPER_PLAN_COUNT = 19

#: Figure 8's fetching factors (Eq. 6 at k=10), its per-node
#: annotations {atom: (t_in as calls, t_out)} and the merge-scan join's
#: (candidate pairs in, expected answers out).
PAPER_FETCHES = {FLIGHT_ATOM: 3, HOTEL_ATOM: 4}
PAPER_FIGURE8 = {
    CONF_ATOM: (1, 20),
    WEATHER_ATOM: (20, 1),
    FLIGHT_ATOM: (1, 75),
    HOTEL_ATOM: (1, 20),
}
PAPER_FIGURE8_JOIN = (1500, 15)


# -- Table 1 ----------------------------------------------------------------


@dataclass(frozen=True)
class Table1Result:
    """The sampled profiles of the four travel services, and the
    profiles the optimizer has them registered under."""

    estimates: tuple[ProfileEstimate, ...]
    registered: tuple[tuple[str, ServiceProfile], ...]

    title = "Table 1 — measured service profiles (sampling probe)"

    def render(self) -> str:
        def dash(value) -> str:
            return "-" if value is None else f"{value:g}"

        paper = [
            f"{name} {kind} {dash(chunk)}/{dash(size)}/{tau:g}s"
            for name, (kind, chunk, size, tau) in PAPER_TABLE1.items()
        ]
        filtered = dash(PAPER_TABLE1["weather"][2])
        return "\n".join([
            format_profile_table(self.estimates),
            "",
            "Registered profiles used by the optimizer:",
            *(
                f"  {name:<8} {profile.describe()}"
                for name, profile in self.registered
            ),
            "",
            f"Paper (Table 1): {paper[0]}; {paper[1]};",
            f"                 {paper[2]}; {paper[3]}.",
            f"Note: the paper's {filtered} for weather is the erspi *after* the",
            "Temperature >= 28 selection; we model the raw erspi (1.0) and",
            f"attach selectivity {filtered} to the predicate, so the annotated",
            "product matches Figure 8 exactly.",
        ])


def run_table1(
    registry: ServiceRegistry | None = None,
    world: TravelWorld | None = None,
) -> Table1Result:
    """Profile the four travel services by sampling, as at registration."""
    registry = registry or travel_registry()
    world = world or build_world()
    registry.reset_all()  # probe against cold remote-side caches
    # conf over the non-DB topics (mean size 20, as in Table 1), weather
    # over sample cities, flight and hotel over hot-city routes plus the
    # deep route whose fare list exceeds one chunk.
    weather_samples = []
    for city in world.all_cities[:20]:
        start, _ = city_dates(city)
        weather_samples.append({0: city, 2: start})
    flight_samples = []
    hotel_samples = []
    for city in list(world.hot_cities[:5]) + [DEEP_ROUTE_CITY]:
        start, end = city_dates(city)
        flight_samples.append({0: "Milano", 1: city, 2: start, 3: end})
        hotel_samples.append({1: city, 2: "luxury", 3: start, 4: end})
    probes = [
        ("conf", "ioooo", [{0: topic} for topic in OTHER_TOPIC_SIZES]),
        ("weather", "ioi", weather_samples),
        ("flight", "iiiiooo", flight_samples),
        ("hotel", "oiiiio", hotel_samples),
    ]
    return Table1Result(
        estimates=tuple(profile_services([
            (registry.service(name), AccessPattern(code), samples)
            for name, code, samples in probes
        ])),
        registered=tuple(
            (name, registry.profile(name)) for name, _, _ in probes
        ),
    )


# -- Figure 7 (plan space of Example 5.1) -----------------------------------


@dataclass(frozen=True)
class CostedTopology:
    """One alternative plan with its best fetch assignment and cost."""

    poset: Poset
    plan: QueryPlan
    fetch_result: FetchResult

    @property
    def cost(self) -> float:
        return self.fetch_result.cost


@dataclass(frozen=True)
class Figure7Result:
    """Every topology for the α1 patterns, cheapest first."""

    plans: tuple[CostedTopology, ...]
    k: int

    @property
    def title(self) -> str:
        return (
            f"Figure 7 / Example 5.1 — all {len(self.plans)} plans for α1, "
            f"ETM, k={self.k}"
        )

    def render(self) -> str:
        named = {
            poset_serial().closure(): "S (Fig. 7a)",
            poset_parallel().closure(): "P (Fig. 7c)",
            poset_optimal().closure(): "O (Fig. 7d)",
        }
        lines = [f"{'rank':<5} {'cost':>8} {'h':>7} {'fetches':<14} plan"]
        for rank, row in enumerate(self.plans, start=1):
            result = row.fetch_result
            fetch_text = ",".join(
                f"F{i}={f}" for i, f in sorted(result.fetches.items())
            )
            lines.append(
                f"{rank:<5} {result.cost:>8.1f} {result.output_size:>7.2f} "
                f"{fetch_text:<14} {summarize(row.plan)}  "
                f"{named.get(row.poset.closure(), '')}"
            )
        return "\n".join(lines)


def run_figure7(
    registry: ServiceRegistry | None = None,
    query: ConjunctiveQuery | None = None,
    k: int = 10,
) -> Figure7Result:
    """Enumerate and cost every topology for the α1 patterns (ETM)."""
    registry = registry or travel_registry()
    query = query or running_example_query()
    metric = ExecutionTimeMetric()
    builder = PlanBuilder(query, registry)
    rows = []
    for poset in TopologyEnumerator(query, alpha1_patterns()).all_posets():
        plan = builder.build(alpha1_patterns(), poset)
        context = FetchContext(plan, metric, CacheSetting.ONE_CALL)
        rows.append(
            CostedTopology(
                poset=poset,
                plan=plan,
                fetch_result=exhaustive_assignment(context, k),
            )
        )
    return Figure7Result(
        plans=tuple(sorted(rows, key=lambda row: row.cost)), k=k
    )


# -- Figure 8 (annotated physical plan) --------------------------------------


@dataclass(frozen=True)
class Figure8Result:
    """The fully instantiated plan O with its annotation."""

    plan: QueryPlan
    fetches: dict[int, int]
    annotation: PlanAnnotation
    k: int

    @property
    def title(self) -> str:
        return (
            f"Figure 8 — annotated physical access plan (k={self.k}, "
            "one-call cache)"
        )

    def render(self) -> str:
        pairs, answers = PAPER_FIGURE8_JOIN
        return "\n".join([
            render_ascii(self.plan, self.annotation),
            "",
            f"Fetching factors (Eq. 6): {self.fetches}",
            f"Paper: F_flight={PAPER_FETCHES[FLIGHT_ATOM]}, "
            f"F_hotel={PAPER_FETCHES[HOTEL_ATOM]}; "
            f"t_MS: {pairs} in -> {answers} out;",
        ])


def run_figure8(
    registry: ServiceRegistry | None = None,
    query: ConjunctiveQuery | None = None,
    k: int = 10,
) -> Figure8Result:
    """Build plan O, fix the fetching factors via Eq. 6, annotate."""
    registry = registry or travel_registry()
    query = query or running_example_query()
    plan = PlanBuilder(query, registry).build(alpha1_patterns(), poset_optimal())
    context = FetchContext(plan, ExecutionTimeMetric(), CacheSetting.ONE_CALL)
    fetch_result = closed_form_pair(context, k=k)
    context.apply(fetch_result.fetches)
    return Figure8Result(
        plan=plan,
        fetches=dict(fetch_result.fetches),
        annotation=annotate(plan, CacheSetting.ONE_CALL),
        k=k,
    )

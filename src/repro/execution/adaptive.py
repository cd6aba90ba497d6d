"""Mid-flight adaptive execution: drift-triggered re-planning.

The static executors cost a plan once and run it to completion; when a
service's observed behavior leaves the profile the plan was costed at,
they keep paying the mis-costed plan's price.  The
:class:`AdaptiveExecutor` closes that loop **mid-run**: a
:class:`~repro.execution.resilience.DriftMonitor` installed on the
inner engine watches every remote fetch, and when a service's mean
latency diverges beyond the :class:`~repro.execution.resilience.
DriftPolicy` threshold it raises :class:`~repro.execution.resilience.
PlanDrift` out of the fetch seam.  The adaptive executor catches it,
re-costs against the *observed* response times (via an optional
``replan`` callback — typically an optimizer run over an
:class:`~repro.services.registry.AdjustedRegistry` view), and splices
the replacement sub-plan into the run by building a fresh inner
:class:`~repro.execution.progressive.ProgressiveExecutor` over the
**same shared logical cache** — every page the aborted attempt
fetched is answered locally, so a splice never re-pulls data.

Soundness of the splice rests on three invariants:

* **No lost work** — the aborted attempt's statistics ride on the
  ``PlanDrift`` and become an explicit aborted pseudo-round, so the
  session's accounting keeps every fetch the drifted attempt paid for;
* **No lost state** — every inner engine routes through the *same*
  :class:`~repro.execution.fetch.UnitRouting` object, so a re-plan
  can never resurrect a unit already proven bad: there is nothing to
  carry over;
* **No livelock** — the replacement monitor exempts every service
  whose drift was already absorbed (its cost *is* the observed one
  now), and ``max_replans`` bounds the splice count before the run
  finishes un-monitored on whatever plan it has.

**Zero-drift contract**: while no observation crosses the threshold
the monitor only reads, the engine's routing tables stay empty, and
the run is bit-identical — rows, ranks, and full statistics — to a
static :class:`ProgressiveExecutor` over the same plan.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.execution.cache import CacheSetting, LogicalCache, make_cache
from repro.execution.engine import ExecutionMode, ExecutionResult
from repro.execution.progressive import ProgressiveExecutor, ProgressiveRound
from repro.execution.resilience import (
    DriftMonitor,
    DriftPolicy,
    PlanDrift,
    ResilienceConfig,
)
from repro.execution.stats import ExecutionStats
from repro.model.terms import Variable
from repro.plans.dag import QueryPlan
from repro.services.registry import ServiceRegistry


@dataclass(frozen=True)
class DriftEvent:
    """One recorded mid-run adaptation, for audit and benches."""

    service: str
    observed: float
    expected: float
    fetches: int
    replanned: bool
    substituted_with: str | None

    def to_dict(self) -> dict:
        """JSON-serializable snapshot."""
        return asdict(self)


@dataclass
class AdaptiveExecutor:
    """Progressive execution that re-plans when services drift.

    A drop-in :class:`ProgressiveExecutor` replacement (``run`` /
    ``more`` / ``rounds`` / ``fetch_vector``) whose inner executor is
    rebuilt — over the same shared cache and the same demotion/reroute
    tables — every time a :class:`PlanDrift` fires.

    ``replan`` maps the observed mean response times (service name →
    virtual seconds, cumulative across all drifts so far) to a
    replacement plan; None keeps the current plan (the splice then
    only changes routing/monitoring, e.g. a sibling substitution).
    """

    registry: ServiceRegistry
    plan: QueryPlan
    head: tuple[Variable, ...] = ()
    mode: ExecutionMode = ExecutionMode.PARALLEL
    cache_setting: CacheSetting = CacheSetting.OPTIMAL
    max_rounds: int = 8
    shared_cache: LogicalCache | None = None
    reset_remote: bool = True
    resilience: ResilienceConfig | None = None
    row_provenance: bool = False
    drift: DriftPolicy = field(default_factory=DriftPolicy)
    #: Observed response times -> replacement plan; None keeps the plan.
    replan: Callable[[dict[str, float]], QueryPlan | None] | None = None
    rounds: list[ProgressiveRound] = field(default_factory=list)
    drift_events: list[DriftEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._cache = (
            self.shared_cache
            if self.shared_cache is not None
            else make_cache(self.cache_setting)
        )
        #: Services whose drift a splice already absorbed, with their
        #: observed mean response times (what ``replan`` re-costs at).
        self._overrides: dict[str, float] = {}
        self._last: ExecutionResult | None = None
        self._inner = self._build_inner(first=True)

    # -- public surface ------------------------------------------------------

    @property
    def replans(self) -> int:
        """How many times this execution spliced a replacement plan."""
        return len(self.drift_events)

    @property
    def engine(self):
        """The current inner engine (tests inspect its routing state)."""
        return self._inner.engine

    def fetch_vector(self) -> dict[int, int]:
        """Current fetching factors of the chunked nodes."""
        return self._inner.fetch_vector()

    def run(self, k: int) -> ExecutionResult:
        """Produce at least *k* answers, adapting on drift."""
        while True:
            inner = self._inner
            before = len(inner.rounds)
            try:
                result = inner.run(k)
            except PlanDrift as drift:
                self.rounds.extend(inner.rounds[before:])
                self._record_aborted_round(inner, drift)
                self._adapt(drift)
                continue
            self.rounds.extend(inner.rounds[before:])
            self._last = result
            return result

    def more(self, additional: int) -> ExecutionResult:
        """Continue the query: ask for *additional* more answers."""
        already = len(self._last.rows) if self._last else 0
        return self.run(already + additional)

    # -- splice machinery ----------------------------------------------------

    def _build_inner(self, first: bool) -> ProgressiveExecutor:
        """A fresh inner executor over the shared cache.

        Monitoring stays on only while another re-plan is still
        allowed; past ``max_replans`` the run finishes un-monitored.
        Later inners never reset the remote caches — the run is in
        flight, and wiping the servers' own caches mid-splice would
        change what the un-spliced execution observed — and they
        route through the first inner's ``UnitRouting``, which is how
        demotions and substitutions survive the splice.
        """
        monitoring = self.replans < self.drift.max_replans
        monitor = (
            DriftMonitor(self.drift, adapted=frozenset(self._overrides))
            if monitoring
            else None
        )
        inner = ProgressiveExecutor(
            registry=self.registry,
            plan=self.plan,
            head=self.head,
            mode=self.mode,
            cache_setting=self.cache_setting,
            max_rounds=self.max_rounds,
            shared_cache=self._cache,
            reset_remote=self.reset_remote if first else False,
            resilience=self.resilience,
            row_provenance=self.row_provenance,
            drift_monitor=monitor,
        )
        if not first:
            inner.engine.routing = self._inner.engine.routing
        return inner

    def _record_aborted_round(
        self, inner: ProgressiveExecutor, drift: PlanDrift
    ) -> None:
        """Keep the aborted attempt's work visible as its own round.

        The inner executor never appended a round for the attempt the
        drift aborted (the exception propagated first), but its fetches
        happened, filled the shared cache, and must stay counted.
        """
        stats = drift.stats if drift.stats is not None else ExecutionStats()
        if not stats.elapsed:
            # The abort preempted the elapsed computation; the fetched
            # branches ran in parallel, so the attempt took as long as
            # its busiest service.
            stats.elapsed = max(
                (s.busy_time for s in stats.per_service.values()), default=0.0
            )
        self.rounds.append(
            ProgressiveRound(
                fetches=inner.fetch_vector(),
                answers=0,
                new_calls=stats.total_calls,
                elapsed=stats.elapsed,
                resumed=False,
                stats=stats,
            )
        )

    def _adapt(self, drift: PlanDrift) -> None:
        """Re-cost, optionally re-plan and substitute, splice a new inner."""
        self._overrides[drift.service] = drift.observed
        replanned = False
        if self.replan is not None:
            replacement = self.replan(dict(self._overrides))
            if replacement is not None:
                self.plan = replacement
                replanned = True
        substituted_with = None
        if self.drift.substitute_siblings:
            substituted_with = self._sibling_for(drift.service)
        self.drift_events.append(
            DriftEvent(
                service=drift.service,
                observed=drift.observed,
                expected=drift.expected,
                fetches=drift.fetches,
                replanned=replanned,
                substituted_with=substituted_with,
            )
        )
        self._inner = self._build_inner(first=False)
        if substituted_with is not None:
            self._inner.engine.routing.substitute_service(
                drift.service, substituted_with
            )
        # The suspended stream (if any) belongs to the aborted plan;
        # the splice starts from a fresh execution over the shared
        # cache, which re-serves every fetched page locally.
        self._last = None

    def _sibling_for(self, service: str) -> str | None:
        """A registered equivalent able to serve every pattern the plan
        uses for *service*; None when there is none."""
        codes = {
            node.pattern.code
            for node in self.plan.service_nodes
            if node.service_name == service and node.pattern is not None
        }
        siblings = self.registry.siblings(service, tuple(sorted(codes)))
        return siblings[0] if siblings else None

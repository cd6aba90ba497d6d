"""Progressive execution: "ask for more" (Section 2.2).

"We also assume that a plan execution can be continued, by producing
more answers.  A user can either be satisfied with the first k answers,
or ask for more results of the same query ..."

The :class:`ProgressiveExecutor` runs a compiled plan with its own
fetch vector (starting at the program's) and, when the user asks for
more than it produced, grows the factors of the chunked services
(doubling, bounded by decay caps) and goes on — the program, which
other sessions may be running, is never written.  Rounds share one
logical cache (optimal by default), so
every call already issued in an earlier round is answered locally —
continuing a query only pays for the *new* fetches, exactly as a
resumed execution would.

Under ``ExecutionMode.STREAMED`` every round leaves behind a suspended
:class:`~repro.execution.joins.TopKStream` — over the final join's
inputs, or over the pipe chain of a service-terminal plan — and asking
for more first *resumes* that stream.  Over eagerly materialized
inputs a resume issues **no service call at all**, under any cache
setting.  Over lazily fetched inputs (see :mod:`repro.execution.lazy`)
the resumed walk may *grow cursor demand*: it pulls further pages
within the session's fetch budget — from the per-feed block whose rank
floor is lowest, leaving blocks the certificate already clears
untouched or unopened — recorded honestly on the resumed round's
statistics, and stored in the shared logical cache so any later
re-execution finds them for free.

When the suspended stream exhausts its budgeted universe without
reaching the requested k, the fetch factors grow, and what happens next
is compiled into the program (``ExecutionProgram.grows_in_place``):

* **growth in place** — the only growable step is the input-fed head
  of a pure pipe chain to the output, so a larger factor only *appends*
  rows, in order, to every cursor of the chain: the same stream is
  resumed again and the round pays the new pages, nothing else.  The
  units read their budget from this executor's own vector, which is all
  that had to change;
* **re-execution** — every other shape (a multi-feed growable step
  would insert rows mid-stream, a joined one add cells between stages
  already walked) runs the plan again, where the shared logical cache
  absorbs every already-fetched page.

The ladder of factors, ``MAX_ROUNDS`` and the exhaustion rule are the
same either way, and so are the answers
(:class:`repro.testing.ReexecutingExecutor` is the reference that
always re-executes).

**Drift re-planning** is armed by a ``replan`` callback.  With one, a
:class:`~repro.execution.resilience.DriftMonitor` on the engine watches
every remote fetch and raises :class:`~repro.execution.resilience.
PlanDrift` out of the fetch seam when a service turns slow against the
profile the plan was costed at (:func:`~repro.execution.resilience.
is_slow`).  ``run`` catches it, re-costs against the *observed*
response times (``replan`` — typically an optimizer run over an
:class:`~repro.services.registry.AdjustedRegistry` view; a caller that
wants the splice without a new plan passes ``lambda observed: None``),
reroutes the drifted service onto a registered sibling when one exists
and splices: the program (with its fetch vector) and the monitor are
replaced, everything else is kept.

* **No lost work** — the aborted attempt's statistics ride on the
  ``PlanDrift`` and become an explicit aborted pseudo-round;
* **No lost state** — the engine, its
  :class:`~repro.execution.fetch.UnitRouting`, the shared logical cache
  and the recorded rounds all survive a splice because nothing is
  rebuilt: a re-plan cannot resurrect a unit already proven bad, and
  never re-pulls a fetched page;
* **No livelock** — the replacement monitor exempts every service
  whose drift was already absorbed (its cost *is* the observed one
  now), and ``MAX_REPLANS`` bounds the splice count before the run
  finishes un-monitored on whatever plan it has.

**Zero-drift contract**: without ``replan`` there is no monitor and no
``PlanDrift``; with it, while no observation crosses the threshold
the monitor only reads — rows, ranks and full statistics are
bit-identical either way.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.execution.cache import CacheSetting, LogicalCache, make_cache
from repro.execution.engine import ExecutionEngine, ExecutionMode, ExecutionResult
from repro.execution.program import ExecutionProgram, as_program
from repro.execution.resilience import (
    DriftMonitor,
    PlanDrift,
    ResilienceConfig,
    UnresponsiveService,
)
from repro.execution.stats import ExecutionStats
from repro.model.terms import Variable
from repro.plans.dag import QueryPlan
from repro.services.registry import ServiceRegistry

#: Drift splices one execution may perform before it stops monitoring
#: and finishes with whatever plan it has.
MAX_REPLANS = 3

#: Bounds the *executing* rounds (those that run the plan, or continue
#: it under grown factors) since the last drift splice; plain resumed
#: stream rounds are nearly free and never count against it.
MAX_ROUNDS = 8


@dataclass
class ProgressiveRound:
    """Bookkeeping for one execution round.

    ``resumed`` marks rounds served by resuming the previous round's
    suspended stream instead of re-executing the plan.  With eagerly
    materialized join inputs such rounds issue zero service calls and
    zero fetches; with lazily fetched inputs ``new_calls`` records the
    budgeted pages the grown cursor demand actually pulled (0 while
    the walk stays within already-fetched pages).

    ``grown`` marks a resumed round that continued the walk under
    factors grown *in place* (``ExecutionProgram.grows_in_place``): it
    stands where a re-execution would, so like one it counts against
    ``MAX_ROUNDS`` — but its statistics hold only what the larger
    budget newly pulled.

    ``stats`` is the round's full :class:`ExecutionStats` — kept so a
    caller that grew through several rounds can report the *total*
    work of a request (each round's statistics object is fresh; the
    final result alone would undercount every earlier round).
    """

    fetches: dict[int, int]
    answers: int
    new_calls: int
    elapsed: float
    resumed: bool = False
    grown: bool = False
    stats: ExecutionStats | None = None


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
class ProgressiveExecutor:
    """Runs a plan under growing fetch factors until satisfied.

    **Contract**: :meth:`run` (and :meth:`more`) always returns the
    exact top answers of the plan under its *current* fetch state —
    bit-identical to a from-scratch full execution followed by
    ``compose_ranking`` — no matter how the rounds were served (fresh
    execution, stream resume, growth in place or re-execution).

    **Cost behavior**: the logical cache persists across rounds
    (``cache_setting``, optimal by default), so a continuation never
    repeats a call already made.  With ``mode=ExecutionMode.STREAMED``
    continuations resume the suspended top-k stream first — free over
    already-fetched inputs, at most a few budgeted page fetches over
    lazily fetched ones — and grow the fetch factors only when the
    stream's budgeted universe cannot prove the larger top-k.
    """

    registry: ServiceRegistry
    #: A compiled program (shared, never written) or a ``QueryPlan``,
    #: compiled here for ``head``; a program carries its own head.
    plan: QueryPlan | ExecutionProgram
    head: tuple[Variable, ...] = ()
    mode: ExecutionMode = ExecutionMode.PARALLEL
    cache_setting: CacheSetting = CacheSetting.OPTIMAL
    #: An externally owned logical cache to run against (the serving
    #: layer hands every session the same cache, so one tenant's
    #: fetches answer another tenant's overlapping calls); when None a
    #: private per-executor cache is created as before.
    shared_cache: LogicalCache | None = None
    #: Whether the first round may clear the remote servers' own
    #: caches.  Experiments want True (independence); a long-lived
    #: server wants False (sessions arrive into a warm world).
    reset_remote: bool = True
    #: Retry/partial-results behavior of every page pull
    #: (:mod:`repro.execution.resilience`); demotions persist across
    #: rounds on the engine's mask, so a continuation never re-awaits
    #: a block already proven unresponsive.
    resilience: ResilienceConfig | None = None
    #: Opt-in per-row ``(service, input key, page)`` audit records
    #: (:data:`~repro.execution.results.ProvenanceRecord`); provenance
    #: rides inside :class:`~repro.execution.results.Row`, so resumed
    #: stream rounds carry it automatically.
    row_provenance: bool = False
    #: Maps the observed mean response times (service name -> virtual
    #: seconds, cumulative across all drifts so far) to a replacement
    #: plan, or to None to keep the current one (the splice then only
    #: changes routing and monitoring, e.g. a sibling substitution).
    #: Given, it arms drift monitoring; None (the default) monitors
    #: nothing.
    replan: (
        Callable[[dict[str, float]], QueryPlan | ExecutionProgram | None] | None
    ) = None
    #: What the execution did so far: every round, every drift splice.
    rounds: list[ProgressiveRound] = field(default_factory=list, init=False)
    drift_events: list[DriftEvent] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        #: Services whose drift a splice already absorbed, with their
        #: observed mean response times (what ``replan`` re-costs at).
        self._overrides: dict[str, float] = {}
        #: Where the current splice's rounds start in ``rounds``.
        self._splice_start = 0
        self._adopt(self.plan)
        self._engine = ExecutionEngine(
            self.registry,
            cache_setting=self.cache_setting,
            mode=self.mode,
            resilience=self.resilience,
            row_provenance=self.row_provenance,
            drift_monitor=self._fresh_monitor(),
        )
        # One shared cache across all rounds: continuations are free
        # where they overlap with what was already fetched.
        self._shared_cache = (
            self.shared_cache
            if self.shared_cache is not None
            else make_cache(self.cache_setting)
        )
        self._last_result: ExecutionResult | None = None

    @property
    def engine(self) -> ExecutionEngine:
        """The underlying engine (callers reroute on its ``routing``)."""
        return self._engine

    @property
    def replans(self) -> int:
        """How many times this execution spliced on a drift."""
        return len(self.drift_events)

    def _adopt(self, plan: QueryPlan | ExecutionProgram) -> None:
        """Run *plan* from now on, from its compiled fetch vector."""
        self._program = as_program(plan, self.head)
        #: This executor's own factors, one per program step.
        self._fetches = list(self._program.fetches)

    def fetch_vector(self) -> dict[int, int]:
        """Current fetching factors of the chunked nodes, by atom index."""
        return {
            atom_index: self._fetches[step]
            for step, atom_index, _ in self._program.chunked
        }

    def _grow_fetches(self) -> bool:
        """Double every chunked factor, respecting decay caps.

        Returns False when no factor can grow any further.
        """
        grew = False
        fetches = self._fetches
        for step, _, cap in self._program.chunked:
            target = fetches[step] * 2
            if cap is not None:
                target = min(target, cap)
            if target > fetches[step]:
                fetches[step] = target
                grew = True
        return grew

    def run(self, k: int) -> ExecutionResult:
        """Produce at least *k* answers, splicing on every drift."""
        while True:
            try:
                result = self._run_rounds(k)
            except PlanDrift as drift:
                self._splice(drift)
                continue
            self._last_result = result
            return result

    def _run_rounds(self, k: int) -> ExecutionResult:
        """Serve *k* on the current plan, growing fetches as needed.

        Stops early when every factor is capped (k may be unreachable,
        as the paper notes for services with small decay bounds), or
        when a growth round processes no new raw tuples while the
        answer count stays put — the services are exhausted.  The
        exhaustion signal is ``tuples_processed`` (cache-independent),
        *not* the remote-call count: an executor running against a
        pre-warmed shared cache (the serving layer) issues zero remote
        calls while still uncovering new data, and must keep growing
        exactly as a cold executor would.
        """
        result = self._resume_stream(self._last_result, k)
        if result is None:
            result = self._execute_round(k)
            baseline_processed = result.stats.tuples_processed
        else:
            # A resume-served round must still arm the exhaustion
            # break, or the first growth round after it always burns
            # one extra re-execution against exhausted services.
            baseline_processed = self._resumed_baseline()
        while len(result.rows) < k and self._executed_rounds() < MAX_ROUNDS:
            if not self._grow_fetches():
                break  # every factor capped by its decay bound
            previous_answers = len(result.rows)
            grown = None
            if self._program.grows_in_place:
                # The larger factor only appends to the suspended
                # chain: continue the walk instead of repeating it.
                grown = self._resume_stream(result, k, grown=True)
            if grown is not None:
                # A continued round reports only what it newly pulled.
                result = grown
                processed = (
                    (baseline_processed or 0) + result.stats.tuples_processed
                )
            else:
                result = self._execute_round(k)
                processed = result.stats.tuples_processed
            latest = self.rounds[-1]
            if (
                baseline_processed is not None
                and processed <= baseline_processed
                and latest.answers == previous_answers
            ):
                break  # the services are exhausted: no more data exists
            baseline_processed = processed
        return result

    def more(self, additional: int) -> ExecutionResult:
        """Continue the query: ask for *additional* more answers."""
        already = len(self._last_result.rows) if self._last_result else 0
        return self.run(already + additional)

    def _resume_stream(
        self, last: ExecutionResult | None, k: int, grown: bool = False
    ) -> ExecutionResult | None:
        """Serve *k* by resuming *last*'s suspended stream, if possible.

        Walks that round's stream further (:meth:`~repro.
        execution.engine.ExecutionEngine.resume`).  Over
        already-fetched inputs no service is ever called; over lazily
        fetched inputs the grown demand may pull further budgeted
        pages, recorded on this round's fresh statistics.  Returns
        None only when there is no suspended stream (or it just died).
        When the stream exhausts its plane below *k*, the drained
        answers still become this round's result (re-executing with
        unchanged fetches would only recompute them), and ``run``
        proceeds directly to fetch growth.
        """
        if last is None or last.stream is None:
            return None
        try:
            result = self._engine.resume(self._program, last, k)
        except UnresponsiveService as failure:
            # A lazily fetched block died mid-resume (partial mode).
            # The suspended stream cannot retract what it already
            # placed, so reroute-or-demote the unit on the engine's
            # persistent state, drop the poisoned stream, and let
            # ``run`` fall back to a fresh execution — which serves the
            # block from its sibling (or masks it) and re-serves
            # everything else from the shared cache.
            self._engine.routing.handle_unresponsive(failure)
            self._last_result = None
            return None
        self._record_round(
            result.stats, len(result.rows), resumed=True, grown=grown
        )
        return result

    def _execute_round(self, k: int | None = None) -> ExecutionResult:
        result = self._engine.execute(
            self._program,
            k=k,
            reset_remote_caches=self.reset_remote and not self.rounds,
            shared_cache=self._shared_cache,
            fetches=self._fetches,
        )
        self._record_round(result.stats, len(result.rows))
        return result

    def _record_round(
        self, stats: ExecutionStats, answers: int, resumed: bool = False,
        grown: bool = False,
    ) -> None:
        self.rounds.append(
            ProgressiveRound(
                fetches=self.fetch_vector(),
                answers=answers,
                new_calls=stats.total_calls,
                elapsed=stats.elapsed,
                resumed=resumed,
                grown=grown,
                stats=stats,
            )
        )

    # -- drift splices -------------------------------------------------------

    def _fresh_monitor(self) -> DriftMonitor | None:
        """A monitor for the next attempt, while a re-plan is still
        allowed; past ``MAX_REPLANS`` the run finishes un-monitored."""
        if self.replan is None or self.replans >= MAX_REPLANS:
            return None
        return DriftMonitor(adapted=frozenset(self._overrides))

    def _splice(self, drift: PlanDrift) -> None:
        """Absorb one drift: record, re-cost, swap plan and monitor."""
        # The aborted attempt never appended a round (the exception
        # propagated first), but its fetches happened, filled the
        # shared cache, and must stay counted.
        stats = drift.stats if drift.stats is not None else ExecutionStats()
        if not stats.elapsed:
            # The abort preempted the elapsed computation; the fetched
            # branches ran in parallel.
            stats.elapsed = stats.busiest_service_time()
        self._record_round(stats, 0)
        self._overrides[drift.service] = drift.observed
        replacement = self.replan(dict(self._overrides))
        if replacement is not None:
            self.plan = replacement
            self._adopt(replacement)
        routing = self._engine.routing
        substituted_with = routing.sibling(
            drift.service, self._program.pattern_codes(drift.service)
        )
        self.drift_events.append(
            DriftEvent(
                service=drift.service,
                observed=drift.observed,
                expected=drift.expected,
                fetches=drift.fetches,
                replanned=replacement is not None,
                substituted_with=substituted_with,
            )
        )
        if substituted_with is not None:
            routing.substitute_service(drift.service, substituted_with)
        self._engine.drift_monitor = self._fresh_monitor()
        # The suspended stream (if any) belongs to the aborted plan;
        # the splice starts from a fresh execution over the shared
        # cache, which re-serves every fetched page locally, with the
        # executed-round budget restarted.
        self._last_result = None
        self._splice_start = len(self.rounds)

    def _resumed_baseline(self) -> int | None:
        """The exhaustion baseline after a resume-served round.

        A fresh execution's ``tuples_processed`` covers every page the
        walk demands, cached or not; the equivalent figure once a
        stream resume served the round is the *last executed* round's
        count plus every later resume's incremental pulls (resumed
        rounds record only the pages they newly demanded, so the sum
        never double-counts).  None when no round ever executed the
        plan — then there is nothing to compare a growth round against.
        """
        baseline: int | None = None
        for r in self.rounds:
            if r.stats is None:
                continue
            if not r.resumed:
                baseline = r.stats.tuples_processed
            elif baseline is not None:
                baseline += r.stats.tuples_processed
        return baseline

    def _executed_rounds(self) -> int:
        """Rounds that ran the plan, or continued it under grown
        factors, since the last splice (plain resumed rounds are free)."""
        return sum(
            1 for r in self.rounds[self._splice_start:]
            if r.grown or not r.resumed
        )

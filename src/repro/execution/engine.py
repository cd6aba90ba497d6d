"""The plan execution engine (Sections 5 and 6).

Executes a query plan as a dataflow computation, from the user's input
tuple to the composed, ranked answers:

* service nodes invoke their Web service once per incoming tuple
  (through the logical cache) and fetch up to ``F`` pages for chunked
  services, stopping early when the service reports no more results;
* pipe joins are arcs: the destination's inputs are filled from the
  origin's output bindings;
* parallel join nodes merge two branches with the rank-preserving
  nested-loop or merge-scan strategy;
* the plan's terminal — the final parallel join, or the last service
  of a service-terminal plan — runs as a
  :class:`~repro.execution.joins.TopKStream` that applies the output's
  residual predicates and composes the global ranking.

What the engine runs is a compiled
:class:`~repro.execution.program.ExecutionProgram` — the schedule,
bindings, merge plans and predicates of a plan, derived once and shared
by every run (a ``QueryPlan`` handed to :meth:`ExecutionEngine.execute`
is compiled on entry).  Bound tuples travel through all of it in one
representation — a record: a value tuple aligned with the node's
:class:`~repro.execution.results.SlotLayout`, a rank sum and the way
back to the record it was bound from (:mod:`repro.execution.results`):
every page is pulled through the one fetch seam of
:mod:`repro.execution.fetch`, joins merge value tuples through a
:class:`~repro.execution.slots.SlotJoinPlan`, and no node boundary
decodes or re-encodes anything.  An answer
:class:`~repro.execution.results.Row` is built only when the terminal
stream emits a record.  The dict-row plan interpreter the engine is
tested against lives in :mod:`repro.testing.reference` and is imported
by tests and benches only.

There is one walk, and ``k`` alone decides how much of it runs.  With
a ``k`` the terminal stream early-exits once the top-k is certified,
and the service steps only it consumes, closed up the pipe chains
above it (``ExecutionProgram.lazy``), are fetched lazily, page by page,
on the stream's demand; the stream rides along on the
:class:`ExecutionResult` so "ask for more" can resume the walk
(:meth:`ExecutionEngine.resume`) without re-executing the plan.
Without a ``k`` every service step is drained eagerly, in feed order —
page order decides the one-call cache's hits and so Figure 11's call
counts — and the same stream is drained (``top(None)``).  **Equivalence
contract**: the rows, ranks and order of a ``k`` run are the first
``k`` of the full scan's; only the cost (cells visited, pages fetched)
changes.  Time is *virtual*: services report per-fetch latencies and
:func:`elapsed` reads them off the ledger's clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Sequence

from repro.execution.cache import CacheSetting, LogicalCache, make_cache
from repro.execution.fetch import Accounting, RunContext, UnitRouting, UnitSource
from repro.execution.joins import JoinStream, TopKStream, join_rows
from repro.execution.lazy import (
    HeadTee,
    LazyServiceCursor,
    MaterializedCursor,
    MultiFeedCursor,
    RowCursor,
)
from repro.execution.program import (
    JOIN,
    OUTPUT,
    SERVICE,
    ExecutionProgram,
    Step,
    as_program,
)
from repro.execution.resilience import (
    DriftMonitor,
    PartialResultCertificate,
    ResilienceConfig,
    UnresponsiveService,
)
from repro.execution.results import ROOT, Record, ResultTable, Row, SlotLayout
from repro.execution.slots import ExecutionError, SlotPredicate
from repro.execution.stats import IDLE, ExecutionStats
from repro.model.terms import Variable
from repro.plans.dag import QueryPlan, slowest_path
from repro.services.registry import ServiceRegistry


# Kept for bench/tracing.py, which passes it to ProgressiveExecutor(mode=).
class ExecutionMode(Enum):
    STREAMED = "streamed"


def check_count(name: str, value: object) -> None:
    """A count of answers is an ``int`` >= 1 (a ``bool`` is not one),
    checked before a request touches a counter, a cache or a session."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass(frozen=True)
class ExecutionResult:
    """Everything produced by one plan execution of *program*.

    ``stream`` is the terminal :class:`TopKStream` of the walk —
    suspended after a top-k execution, drained after a full scan:
    :meth:`ExecutionEngine.resume` continues it for a larger ``k``.  Over
    eagerly materialized inputs a resume never issues a service call;
    over lazily fetched inputs it may pull further pages *within the
    session's fetch budget*: ``accounting`` holds the ledger every unit
    behind the stream charges to, rebound by the resume so those
    fetches are accounted to the resuming round.

    ``tee`` is the shared eager head of a program that grows in place
    (``ExecutionProgram.grows_in_place``), which a grown resume extends
    before it continues the stream; None for every other walk.

    ``certificate`` is the partial-result certificate of a
    partial-results execution (:mod:`repro.execution.resilience`):
    which units were dropped and which service blocks produced each
    answer.  ``None`` unless the engine runs with
    ``ResilienceConfig(partial_results=True)``; an *empty* certificate
    (no drops) is a completeness witness, not an error.
    """

    table: ResultTable
    stats: ExecutionStats
    program: ExecutionProgram
    k: int | None = None
    stream: TopKStream | None = None
    certificate: PartialResultCertificate | None = None
    accounting: Accounting | None = None
    tee: HeadTee | None = None

    @property
    def complete(self) -> bool:
        """False when the table holds only a streamed top-k head."""
        return self.table.complete

    @property
    def rows(self) -> list[Row]:
        """All produced answers in composed rank order."""
        return self.table.rows

    @property
    def elapsed(self) -> float:
        """Virtual seconds the execution took (``stats.elapsed``)."""
        return self.stats.elapsed

    def answers(self, k: int | None = None) -> list[tuple]:
        """The top-k projected answer tuples."""
        limit = k if k is not None else self.k
        return self.table.tuples(limit)


class ExecutionEngine:
    """Executes query plans against registered services."""

    def __init__(
        self,
        registry: ServiceRegistry,
        cache_setting: CacheSetting = CacheSetting.NO_CACHE,
        resilience: ResilienceConfig = ResilienceConfig(),
    ) -> None:
        self._registry = registry
        self._cache_setting = cache_setting
        #: Retry/partial-results behavior of every page pull
        #: (:mod:`repro.execution.resilience`); the default is the
        #: fail-fast path: one attempt, no partial results.
        self._resilience = resilience
        #: Demoted and rerouted units, persistent across this
        #: engine's executions (progressive rounds must not re-await a
        #: block already proven dead).
        self.routing = UnitRouting(registry, resilience)
        #: Observes remote fetch latency against each plan node's
        #: costed profile and raises
        #: :class:`~repro.execution.resilience.PlanDrift` on
        #: divergence; None (the default) never observes anything —
        #: the zero-drift bit-identity is structural, not thresholded.
        #: A drifting session installs one, and a fresh one per splice.
        self.drift_monitor: DriftMonitor | None = None

    def execute(
        self,
        plan: QueryPlan | ExecutionProgram,
        head: Sequence[Variable] = (),
        k: int | None = None,
        reset_remote_caches: bool = True,
        shared_cache: LogicalCache | None = None,
        fetches: Sequence[int] | None = None,
    ) -> ExecutionResult:
        """Run *plan* and return ranked answers plus statistics.

        *plan* is a compiled program, or a ``QueryPlan`` compiled here
        for ``head`` (the projected output variables; a program carries
        its own).  ``fetches`` is the run's fetch vector, one factor
        per program step — the compiled one by default; a session that
        grew its factors passes its own.  With a ``k`` (an ``int`` >=
        1) the plan's terminal early-exits once the top-k is provably
        complete, the table is truncated to that proven head
        (``table.complete`` records whether anything was left
        unvisited), and the suspended stream is returned for
        continuation.  Without one the plan is scanned fully and the
        table holds every answer.  ``reset_remote_caches`` clears the
        remote servers' own caches before running, so experiments are
        independent.  ``shared_cache`` lets a caller keep a logical
        cache alive across executions (progressive "ask for more"
        continuations).
        """
        if k is not None:
            check_count("k", k)
        program = as_program(plan, head)
        if fetches is None:
            fetches = program.fetches
        if reset_remote_caches:
            self._registry.reset_all()
        cache = shared_cache if shared_cache is not None else make_cache(
            self._cache_setting
        )
        accounting = Accounting(ExecutionStats())
        stats = accounting.stats
        lazy = program.lazy if k is not None else ()
        steps = program.steps
        # Partial-results restart loop: a walk stops at the first unit
        # that exhausts its retry budget, which is rerouted onto an
        # equivalent sibling service (when one is registered) or
        # demoted, and the walk re-runs with it
        # rerouted/masked (the shared logical cache makes restarts
        # cheap — every already-fetched page is answered locally).  The
        # ledger survives restarts, so aborted work stays counted (the
        # clock alone is the last walk's).  Each restart either demotes
        # a *new* unit or advances one to a sibling it never tried; both
        # are finite per plan, so the loop terminates.  A PlanDrift
        # raised by the drift monitor is *not* absorbed here: it aborts
        # the execution for the session executor to re-plan, carrying
        # the partial ledger.
        while True:
            context = RunContext(
                fetches, self._registry, cache, self.routing,
                self.routing.active, self._resilience, self.drift_monitor,
            )
            stream: TopKStream | None = None
            lazy_cursors: dict[int, LazyServiceCursor | MultiFeedCursor] = {}
            tee: HeadTee | None = None

            def feed(feeder: int) -> Sequence[Record] | RowCursor:
                """What a lazy step or the terminal join reads from
                *feeder*: its cursor when it is lazy, a copy of a
                teed head, else its records."""
                if tee is not None and feeder == 1:
                    return tee.copy()
                return lazy_cursors.get(feeder, outputs[feeder])

            stats.clock.clear()
            #: Records produced per step index; step 0 is the input
            #: node, the terminal and the output hold answer rows.
            outputs: list[list] = [[] for _ in steps]
            outputs[0] = [ROOT]
            try:
                for step in steps[1:]:
                    index = step.index
                    kind = step.kind
                    if kind == SERVICE:
                        feeder = step.feeds[0]
                        if index in lazy:
                            # A lazy feeder hands over its cursor: the
                            # walk's demand travels up the pipe chain.
                            cursor = self._open_lazy_cursor(
                                context, step, feed(feeder), accounting
                            )
                            lazy_cursors[index] = cursor
                            # The cursor's row list is live: it grows
                            # as the streamed walk demands pages, so
                            # the rows-out snapshot below sees exactly
                            # what was fetched.
                            outputs[index] = cursor.rows
                            continue
                        # An eagerly run node reports its service even
                        # when it fetched nothing (empty feed, every
                        # unit demoted or rerouted).
                        stats.cell(index, step.binding.service_name)
                        if index == 1 and lazy and program.grows_in_place:
                            # A shared head that growth will extend:
                            # drained as eagerly, through one cursor.
                            tee = HeadTee(
                                UnitSource(context, step, accounting, ROOT),
                                ROOT[1],
                            )
                            outputs[index] = tee.rows
                            continue
                        outputs[index] = self._drain_units(
                            context, step, outputs[feeder], accounting
                        )
                    elif kind == JOIN:
                        left, right = step.feeds
                        if index == program.terminal:
                            # Inputs with a deferred lazy cursor are
                            # pulled page by page by the walk; the rest
                            # are the eagerly materialized row lists.
                            stream = JoinStream(
                                step.join, feed(left), feed(right)
                            )
                            outputs[index] = stream.top(k)
                        else:
                            outputs[index] = join_rows(
                                step.join, outputs[left], outputs[right]
                            )
                    elif kind == OUTPUT:
                        feeder = step.feeds[0]
                        if stream is None:
                            # Service-terminal plan: the chain itself
                            # is the stream.
                            stream = ChainStream(
                                lazy_cursors.get(feeder, outputs[feeder]),
                                step.residual,
                                step.layout,
                            )
                            outputs[index] = stream.top(k)
                        else:
                            outputs[index] = outputs[feeder]
            except UnresponsiveService as failure:
                unit = self.routing.original(failure.unit)
                if self.routing.masked(*unit):  # pragma: no cover
                    raise ExecutionError(
                        f"demoted unit {unit!r} failed again — "
                        f"masking is broken"
                    ) from failure
                self.routing.handle_unresponsive(failure)
                continue
            break

        stats.rows_out = [len(rows) for rows in outputs]
        stats.elapsed = elapsed(program, stats)
        return self._result(
            program, k, stats, outputs[-1], stream, accounting, tee
        )

    def resume(
        self,
        program: ExecutionProgram,
        suspended: ExecutionResult,
        k: int,
        grown: bool = False,
    ) -> ExecutionResult:
        """Serve *k* by continuing *suspended*'s stream: one more round.

        *grown* says the session has grown its fetch factors since, on a
        program that grows in place: the teed head (if any) pulls its
        new pages before the stream walks on.  Growth only appends rows,
        after every old one, and the stream's bounds already cover rows
        it has not looked at.

        The stream's accounting cell is rebound to fresh statistics
        first, so every page the grown demand pulls — and a drift
        signal's or a dead unit's partial accounting — is recorded on
        this round and never mutates the round that created the stream.
        Virtual time is the slowest path over the busy time this
        round added per step, the same clock an executed round reads
        (:func:`elapsed`): the services of a pipe chain add up, parallel
        branches overlap (0.0 for the common all-from-fetched-pages
        resume).
        """
        stream, accounting = suspended.stream, suspended.accounting
        stats = ExecutionStats()
        accounting.rebind(stats)
        if grown and suspended.tee is not None:
            suspended.tee.grow()
        rows = stream.top(k)
        stats.elapsed = elapsed(program, stats)
        return self._result(
            program, k, stats, rows, stream, accounting, suspended.tee
        )

    def _result(
        self,
        program: ExecutionProgram,
        k: int | None,
        stats: ExecutionStats,
        final_rows: list[Row],
        stream: TopKStream,
        accounting: Accounting,
        tee: HeadTee | None,
    ) -> ExecutionResult:
        """Wrap up one finished walk or stream resume."""
        certificate = self.routing.certificate_for(program, final_rows)
        if certificate is not None:
            stats.demoted_blocks = len(certificate.dropped)
            stats.substituted_blocks = len(certificate.substituted)
        return ExecutionResult(
            table=ResultTable(
                head=program.head, rows=final_rows,
                complete=stream.is_complete(final_rows),
            ),
            stats=stats,
            program=program,
            k=k,
            stream=stream,
            certificate=certificate,
            accounting=accounting,
            tee=tee,
        )

    # -- node execution -----------------------------------------------------

    def _drain_units(
        self,
        context: RunContext,
        step: Step,
        feed: Sequence[Record],
        accounting: Accounting,
    ) -> list[Record]:
        """Eager execution of a service step: its records.

        Pulls every budgeted page of each feed record's unit, in order.
        """
        produced: list[Record] = []
        for row in feed:
            UnitSource(context, step, accounting, row).drain(produced)
        return produced

    @staticmethod
    def _open_lazy_cursor(
        context: RunContext,
        step: Step,
        feed: Sequence[Record] | RowCursor,
        accounting: Accounting,
    ) -> LazyServiceCursor | MultiFeedCursor:
        """A demand-driven cursor over a step's (possibly many) feeds.

        A single-feed node produces one rank-monotone row sequence (the
        feed rank is constant and service ranks only grow): a plain
        :class:`LazyServiceCursor`.  A multi-tuple feed — materialized
        rows, or the cursor of a lazy feeder — produces one such
        *block* per feed row, each over its own unit of the fetch seam
        (hence the per-input-tuple cache and call accounting of eager
        execution): the :class:`MultiFeedCursor` is handed the opener
        of units and opens them on demand, a block that waits or may
        pull a second page as its own budgeted cursor, under the
        block-interleaving certificate that keeps the streamed walk
        sound.  Non-rank-monotone
        behavior is handled inside the cursors (a full drain of the
        offending block).
        """
        open_unit = partial(UnitSource, context, step, accounting)
        if not isinstance(feed, RowCursor):
            if len(feed) == 1:
                return LazyServiceCursor(open_unit(feed[0]), feed[0][1])
            feed = MaterializedCursor(feed)
        return MultiFeedCursor(feed, open_unit)


def elapsed(program: ExecutionProgram, stats: ExecutionStats) -> float:
    """The slowest of the program's paths over each step's busy time on
    *stats*' clock, folded as a barrier by
    :func:`~repro.plans.dag.slowest_path`: a step is busy for the sum
    of its fetch latencies, and a join adds its response time once a
    walk has run it (a resume re-runs none)."""
    walked = bool(stats.rows_out)
    busy = [
        step.response_time if walked and step.kind == JOIN
        else stats.clock.get(step.index, IDLE)[0]
        for step in program.steps
    ]
    return slowest_path(program.paths, busy)


class ChainStream(TopKStream):
    """The streamed top-k walk of a service-terminal plan.

    The records of the terminal step's cursor *are* the answers, laid
    out as *layout*, in the full scan's emission order (the cursor's
    placement invariant), so a stage is "the records placed since the
    last look, or one more": each record passing the output's residual
    predicates becomes a candidate under its own rank sum, arriving
    at its index in the cursor, and everything not
    yet looked at is bounded by the cursor's ``suffix_min`` — over a
    chain of lazy cursors that is the frontier of the whole pipe chain.
    Looking at every placed row before demanding another costs no
    fetch and makes the check after it the sharpest one available.
    """

    def __init__(
        self,
        rows: Sequence[Record] | RowCursor,
        residual: Sequence[SlotPredicate],
        layout: SlotLayout,
    ) -> None:
        self._cursor = (
            rows if isinstance(rows, RowCursor) else MaterializedCursor(rows)
        )
        self._residual = tuple(residual)
        #: The records looked at so far.
        self._stage = 0
        self._begin(layout)

    @property
    def exhausted(self) -> bool:
        cursor = self._cursor
        return self._stage >= len(cursor.ranks) and cursor.exhausted

    def _advance_stage(self, threshold: tuple | None, missing: int) -> None:
        cursor = self._cursor
        start = self._stage
        if start >= len(cursor.ranks):
            cursor.ensure(start + 1)
        rows, ranks = cursor.rows, cursor.ranks
        stop = len(ranks)
        residual = self._residual
        candidates = self._candidates
        for index in range(start, stop):
            row = rows[index]
            if residual and not all(holds(row[0]) for holds in residual):
                continue
            candidates.append((ranks[index], index, row))
        self._stage = stop

    def _refuted(self, threshold: tuple) -> bool:
        stage = self._stage
        return (self._cursor.suffix_min(stage), stage) < threshold

    def _record(self, candidate: tuple) -> Record:
        return candidate[2]

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
* the output node applies residual predicates and composes the global
  ranking.

What the engine runs is a compiled
:class:`~repro.execution.program.ExecutionProgram` — the schedule,
bindings, merge plans and predicates of a plan, derived once and shared
by every run (a ``QueryPlan`` handed to :meth:`ExecutionEngine.execute`
is compiled on entry).  Rows travel through all of it in one
representation — a :class:`~repro.execution.results.SlotLayout` shared
per node plus a value tuple (:mod:`repro.execution.results`): every
page is pulled through the one fetch seam of
:mod:`repro.execution.fetch`, joins merge value tuples through a
:class:`~repro.execution.slots.SlotJoinPlan`, and no node boundary
decodes or re-encodes anything.  The dict-row plan interpreter the
engine is tested against lives in :mod:`repro.testing.reference` and
is imported by tests and benches only.

Time is *virtual*: services report per-fetch latencies and the engine
aggregates them according to its :class:`ExecutionMode`, which also
states the streamed top-k contract — under ``STREAMED`` with a ``k``
budget the plan's terminal runs as a suspended
:class:`~repro.execution.joins.TopKStream` over lazily fetched inputs
(a :class:`~repro.execution.joins.JoinStream` for a final join, a
:class:`ChainStream` for a service-terminal plan), and the stream rides
along on the :class:`ExecutionResult` so "ask for more" can resume the
walk (:meth:`ExecutionEngine.resume`) without re-executing the plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Sequence

from repro.execution.cache import CacheSetting, LogicalCache, make_cache
from repro.execution.fetch import Accounting, RunContext, UnitRouting, UnitSource
from repro.execution.joins import JoinStream, TopKStream, join_rows
from repro.execution.lazy import (
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
from repro.execution.results import ResultTable, Row, compose_ranking
from repro.execution.slots import ExecutionError, SlotPredicate
from repro.execution.stats import ExecutionStats
from repro.model.terms import Variable
from repro.plans.dag import QueryPlan
from repro.plans.nodes import PlanNode
from repro.services.registry import ServiceRegistry


#: Virtual seconds one dispatch to a concurrent thread costs under
#: ``MULTITHREADED`` (:meth:`ExecutionEngine._node_busy`).
THREAD_OVERHEAD = 0.05

#: Seeds the feed shuffle of ``MULTITHREADED`` mode, so the degraded
#: one-call cache it models is the same on every run.
SHUFFLE_SEED = 17


class ExecutionMode(Enum):
    """Scheduling modes of the engine.

    All three modes produce the *same answers* for the same plan — they
    differ in how virtual time is aggregated and how much work is done
    to produce a top-k head:

    * ``PARALLEL`` — independent branches overlap; elapsed time is the
      critical path over the plan DAG.  This is the reference
      full-materialization mode: every service is fully fetched and
      every join scans its whole candidate plane.
    * ``MULTITHREADED`` — additionally dispatches each node's calls to
      parallel threads (node busy time collapses to its largest single
      latency plus overhead); input block order is shuffled (seeded),
      degrading the one-call cache as the paper observes (284 → 212
      hotel calls).
    * ``STREAMED`` — timing as ``PARALLEL``; with a ``k`` budget the
      plan's terminal — the final parallel join, or the last service
      of a service-terminal plan — early-exits under a rank
      certificate, and the service steps only it consumes, closed up
      the pipe chains above it (``ExecutionProgram.lazy``), are fetched
      lazily, page by page, on the walk's demand.  **Equivalence
      contract**: the produced rows, ranks, and emission order are
      bit-identical to ``PARALLEL`` execution followed by
      ``compose_ranking(rows, k)``; only the cost (cells visited, pages
      fetched) changes.  Without ``k`` the execution is a plain full
      materialization.
    """

    PARALLEL = "parallel"
    MULTITHREADED = "multithreaded"
    STREAMED = "streamed"


@dataclass(frozen=True)
class ExecutionResult:
    """Everything produced by one plan execution.

    ``node_output_sizes`` traces the dataflow: the number of tuples
    each plan node emitted — the executed counterpart of the
    annotation's ``t_out`` estimates, used by the cost-model
    validation experiments.  Under a streamed execution, the streamed
    join's (and its downstream nodes') sizes count only the
    *materialized* head, not the full plane, and a demand-driven
    service step's the rows actually fetched.

    ``stream`` is the suspended :class:`TopKStream` of a streamed
    top-k execution (``None`` otherwise): :meth:`ExecutionEngine.
    resume` continues the early-exited walk for a larger ``k``.  Over
    eagerly materialized inputs a resume never issues a service call;
    over lazily fetched inputs it may pull further pages *within the
    session's fetch budget*: ``accounting`` is the cell every unit
    behind the stream charges to, rebound by the resume so those
    fetches are accounted to the resuming round.

    ``certificate`` is the partial-result certificate of a
    partial-results execution (:mod:`repro.execution.resilience`):
    which units were dropped and which service blocks produced each
    answer.  ``None`` unless the engine runs with
    ``ResilienceConfig(partial_results=True)``; an *empty* certificate
    (no drops) is a completeness witness, not an error.
    """

    table: ResultTable
    stats: ExecutionStats
    elapsed: float
    k: int | None = None
    node_output_sizes: dict[str, int] = field(default_factory=dict)
    stream: TopKStream | None = None
    certificate: PartialResultCertificate | None = None
    accounting: Accounting | None = None

    @property
    def complete(self) -> bool:
        """False when the table holds only a streamed top-k head."""
        return self.table.complete

    @property
    def rows(self) -> list[Row]:
        """All produced answers in composed rank order."""
        return self.table.rows

    def answers(self, k: int | None = None) -> list[tuple]:
        """The top-k projected answer tuples."""
        limit = k if k is not None else self.k
        return self.table.tuples(limit)

    def output_size_of(self, node: PlanNode) -> int:
        """Tuples actually emitted by *node* during this execution."""
        if not self.node_output_sizes:
            raise KeyError("node sizes were not collected")
        return self.node_output_sizes[node.node_id]


class ExecutionEngine:
    """Executes query plans against registered services."""

    def __init__(
        self,
        registry: ServiceRegistry,
        cache_setting: CacheSetting = CacheSetting.NO_CACHE,
        mode: ExecutionMode = ExecutionMode.PARALLEL,
        resilience: ResilienceConfig | None = None,
        row_provenance: bool = False,
        drift_monitor: DriftMonitor | None = None,
    ) -> None:
        self._registry = registry
        self._cache_setting = cache_setting
        self._mode = mode
        #: Retry/partial-results behavior of every page pull
        #: (:mod:`repro.execution.resilience`); None runs the
        #: historical fail-fast path bit-identically.
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
        #: A drifting session installs a fresh one per splice.
        self.drift_monitor = drift_monitor
        #: Opt-in per-row audit trail: every row produced by a service
        #: node carries a ``(service, input key, page)`` record
        #: (:data:`~repro.execution.results.ProvenanceRecord`), and
        #: joins concatenate their inputs' records.  Off by default —
        #: disabled executions build rows with the empty tuple
        #: everywhere, bit-identical to the historical engine.
        #: Provenance never influences ranks, ordering, or join
        #: decisions, so enabling it changes no answer row either.
        self._row_provenance = row_provenance

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
        grew its factors passes its own.  ``k`` is only
        advisory in the full-scan modes (all produced answers are kept;
        ``answers()`` trims).  Under ``ExecutionMode.STREAMED`` with a
        ``k`` budget, the plan's terminal early-exits once the
        top-k is provably complete, the table is truncated to that
        proven head (``table.complete`` records whether anything was
        left unvisited), and the suspended stream is returned for
        continuation.  ``reset_remote_caches`` clears the remote
        servers' own caches before running, so experiments are
        independent.  ``shared_cache`` lets a caller keep a logical
        cache alive across executions (progressive "ask for more"
        continuations).
        """
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
        streaming = self._mode is ExecutionMode.STREAMED and k is not None
        lazy = self._lazy_steps(program) if streaming else ()
        shuffled = self._mode is ExecutionMode.MULTITHREADED
        steps = program.steps
        # Partial-results restart loop: a walk stops at the first unit
        # that exhausts its retry budget, which is rerouted onto an
        # equivalent sibling service (when one is registered) or
        # demoted, and the walk re-runs with it
        # rerouted/masked (the shared logical cache makes restarts
        # cheap — every already-fetched page is answered locally).  The
        # stats object survives restarts, so aborted work stays
        # counted.  Each restart either demotes a *new* unit or
        # advances one to a sibling it never tried; both are finite per
        # plan, so the loop terminates.  A PlanDrift raised by the
        # drift monitor is *not* absorbed here: it aborts the execution
        # for the session executor to re-plan, carrying the partial
        # stats.
        while True:
            context = RunContext(
                fetches, self._registry, cache, self.routing,
                self.routing.active, self._resilience, self.drift_monitor,
                self._row_provenance,
            )
            rng = random.Random(SHUFFLE_SEED) if shuffled else None
            stream: TopKStream | None = None
            lazy_cursors: dict[int, LazyServiceCursor | MultiFeedCursor] = {}
            # (the busy time of demand-driven steps is this walk's own,
            # like the eager steps' below)
            accounting.busy.clear()
            #: Rows emitted and busy time, per step index; step 0 is
            #: the input node.
            outputs: list[list[Row]] = [[] for _ in steps]
            outputs[0] = [program.input_row]
            busy = [0.0] * len(steps)
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
                                context, step,
                                lazy_cursors.get(feeder, outputs[feeder]),
                                accounting,
                            )
                            lazy_cursors[index] = cursor
                            # The cursor's row list is live: it grows
                            # as the streamed walk demands pages, so
                            # the node-size snapshot below sees exactly
                            # what was fetched.
                            outputs[index] = cursor.rows
                            continue
                        feed = outputs[feeder]
                        if shuffled:
                            feed = list(feed)
                            rng.shuffle(feed)
                        # An eagerly run node reports its service even
                        # when it fetched nothing (empty feed, every
                        # unit demoted or rerouted).
                        stats.service(step.binding.service_name)
                        outputs[index], busy[index] = self._drain_units(
                            context, step, feed, accounting
                        )
                    elif kind == JOIN:
                        left, right = step.feeds
                        if streaming and index == program.terminal:
                            # Inputs with a deferred lazy cursor are
                            # pulled page by page by the walk; the rest
                            # are the eagerly materialized row lists.
                            stream = JoinStream(
                                step.join,
                                lazy_cursors.get(left, outputs[left]),
                                lazy_cursors.get(right, outputs[right]),
                            )
                            outputs[index] = stream.top(k)
                        else:
                            outputs[index] = join_rows(
                                step.join, outputs[left], outputs[right]
                            )
                        busy[index] = step.response_time
                    elif kind == OUTPUT:
                        feeder = step.feeds[0]
                        if streaming and stream is None:
                            # Service-terminal plan: the chain itself
                            # is the stream.
                            stream = ChainStream(
                                lazy_cursors.get(feeder, outputs[feeder]),
                                step.residual,
                            )
                            rows = stream.top(k)
                        else:
                            rows = outputs[feeder]
                            # A streamed walk already applied the
                            # residual predicates.
                            if step.residual and stream is None:
                                residual = step.residual
                                rows = [
                                    row for row in rows
                                    if all(holds(row.values) for holds in residual)
                                ]
                        outputs[index] = rows
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

        for index in lazy_cursors:
            busy[index] = accounting.busy.get(index, 0.0)
        stats.elapsed = self._elapsed(program, busy)
        produced = outputs[-1]
        if stream is not None:
            stream.trace(stats)
            final_rows = compose_ranking(produced, k)
            complete = stream.is_complete(final_rows)
        else:
            final_rows = compose_ranking(produced)
            complete = True
        return self._result(
            program, k, stats, outputs, final_rows, complete, stream,
            accounting,
        )

    def resume(
        self, program: ExecutionProgram, suspended: ExecutionResult, k: int
    ) -> ExecutionResult:
        """Serve *k* by continuing *suspended*'s stream: one more round.

        The stream's accounting cell is rebound to fresh statistics
        first, so every page the grown demand pulls — and a drift
        signal's or a dead unit's partial accounting — is recorded on
        this round and never mutates the round that created the stream.
        Virtual time is the critical path over the busy time this
        round added per step, the same clock an executed round reads:
        the services of a pipe chain add up, parallel branches overlap
        (0.0 for the common all-from-fetched-pages resume).
        """
        stream, accounting = suspended.stream, suspended.accounting
        stats = ExecutionStats()
        accounting.rebind(stats)
        fetched_before = stream.lazy_tuples_fetched
        saved_before = stream.lazy_pages_saved
        rows = stream.top(k)
        stream.trace(stats, fetched_before, saved_before)
        busy = accounting.busy
        stats.elapsed = self._elapsed(
            program, [busy.get(step.index, 0.0) for step in program.steps]
        )
        return self._result(
            program, k, stats, (), rows, stream.is_complete(rows), stream,
            accounting,
        )

    def _result(
        self,
        program: ExecutionProgram,
        k: int | None,
        stats: ExecutionStats,
        outputs: Sequence[list[Row]],
        final_rows: list[Row],
        complete: bool = True,
        stream: TopKStream | None = None,
        accounting: Accounting | None = None,
    ) -> ExecutionResult:
        """Wrap up one finished walk (*outputs*: rows per step) or
        stream resume (no *outputs*)."""
        certificate = self.routing.certificate_for(program, final_rows)
        if certificate is not None:
            stats.demoted_blocks = len(certificate.dropped)
            stats.substituted_blocks = len(certificate.substituted)
        return ExecutionResult(
            table=ResultTable(
                head=program.head, rows=final_rows, complete=complete
            ),
            stats=stats,
            elapsed=stats.elapsed,
            k=k,
            node_output_sizes={
                step.node_id: len(rows)
                for step, rows in zip(program.steps, outputs)
            },
            stream=stream,
            certificate=certificate,
            accounting=accounting,
        )

    # -- node execution -----------------------------------------------------

    def mask_unit(
        self, service: str, input_key: tuple, reason: str = "masked up front"
    ) -> None:
        """Pre-demote one unit (:meth:`UnitRouting.mask_unit`)."""
        self.routing.mask_unit(service, input_key, reason)

    def _drain_units(
        self,
        context: RunContext,
        step: Step,
        feed: Sequence[Row],
        accounting: Accounting,
    ) -> tuple[list[Row], float]:
        """Eager execution of a service step: ``(rows, busy time)``.

        Pulls every budgeted page of each feed row's unit, in order.
        """
        latencies: list[float] = []
        produced: list[Row] = []
        for row in feed:
            UnitSource(context, step, row, accounting).drain(produced, latencies)
        return produced, self._node_busy(latencies)

    def _lazy_steps(self, program: ExecutionProgram) -> frozenset[int]:
        """The service steps fetched on the streamed walk's demand."""
        return program.lazy

    @staticmethod
    def _open_lazy_cursor(
        context: RunContext,
        step: Step,
        feed: Sequence[Row] | RowCursor,
        accounting: Accounting,
    ) -> LazyServiceCursor | MultiFeedCursor:
        """A demand-driven cursor over a step's (possibly many) feeds.

        A single-feed node produces one rank-monotone row sequence (the
        feed rank is constant and service ranks only grow): a plain
        :class:`LazyServiceCursor`.  A multi-tuple feed — materialized
        rows, or the cursor of a lazy feeder — produces one such
        *block* per feed row; each becomes its own budgeted cursor over
        its own unit of the fetch seam (hence the per-input-tuple cache
        and call accounting of eager execution), opened on demand
        inside a :class:`MultiFeedCursor`, whose block-interleaving
        certificate keeps the streamed walk sound.  Non-rank-monotone
        behavior is handled inside the cursors (a full drain of the
        offending block).
        """
        open_block = partial(_open_block, context, step, accounting)
        if not isinstance(feed, RowCursor):
            if len(feed) == 1:
                return open_block(feed[0], feed[0].rank_key())
            feed = MaterializedCursor(feed)
        return MultiFeedCursor(feed, open_block, context.fetches[step.index])

    # -- timing ---------------------------------------------------------------

    def _node_busy(self, latencies: list[float]) -> float:
        """A node's busy time: the sum of its fetch latencies, or under
        ``MULTITHREADED`` (every fetch dispatched to its own thread) the
        longest one plus a thread overhead per dispatch."""
        if not latencies:
            return 0.0
        if self._mode is ExecutionMode.MULTITHREADED:
            return max(latencies) + THREAD_OVERHEAD * len(latencies)
        return sum(latencies)

    def _elapsed(self, program: ExecutionProgram, busy: Sequence[float]) -> float:
        """The critical path over the plan DAG of each step's busy time."""
        finish: list[float] = []
        for step in program.steps:
            start = max((finish[feed] for feed in step.feeds), default=0.0)
            finish.append(start + busy[step.index])
        return finish[-1]


def _open_block(
    context: RunContext, step: Step, accounting: Accounting,
    feed_row: Row, base_rank: int,
) -> LazyServiceCursor:
    """The budgeted block of one feed row: a cursor over its unit."""
    return LazyServiceCursor(
        UnitSource(context, step, feed_row, accounting), base_rank
    )


class ChainStream(TopKStream):
    """The streamed top-k walk of a service-terminal plan.

    The rows of the terminal step's cursor *are* the answers, in the
    full scan's emission order (the cursor's placement invariant), so
    a stage is "the rows placed since the last look, or one more":
    each row passing the output's residual predicates becomes a
    candidate under its own rank and arrival index, and everything not
    yet looked at is bounded by the cursor's ``suffix_min`` — over a
    chain of lazy cursors that is the frontier of the whole pipe chain.
    Looking at every placed row before demanding another costs no
    fetch and makes the check after it the sharpest one available.
    """

    def __init__(
        self,
        rows: Sequence[Row] | RowCursor,
        residual: Sequence[SlotPredicate] = (),
    ) -> None:
        self._cursor = (
            rows if isinstance(rows, RowCursor) else MaterializedCursor(rows)
        )
        self._inputs = (self._cursor,)
        self._residual = tuple(residual)
        self._begin()

    @property
    def plane_cells(self) -> int:
        return len(self._cursor.ranks)

    @property
    def exhausted(self) -> bool:
        cursor = self._cursor
        return self._stage >= len(cursor.ranks) and cursor.exhausted

    def _advance_stage(self) -> None:
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
            if residual and not all(holds(row.values) for holds in residual):
                continue
            candidates.append((ranks[index], len(candidates), row))
        self.cells_visited += stop - start
        self._stage = stop

    def _refuted(self, threshold: int) -> bool:
        return self._cursor.suffix_min(self._stage) < threshold

    def _row(self, candidate: tuple) -> Row:
        return candidate[2]


def execute_plan(
    plan: QueryPlan | ExecutionProgram,
    registry: ServiceRegistry,
    head: Sequence[Variable] = (),
    cache_setting: CacheSetting = CacheSetting.NO_CACHE,
    mode: ExecutionMode = ExecutionMode.PARALLEL,
    k: int | None = None,
) -> ExecutionResult:
    """One-call convenience wrapper around :class:`ExecutionEngine`."""
    engine = ExecutionEngine(registry, cache_setting=cache_setting, mode=mode)
    return engine.execute(plan, head=head, k=k)

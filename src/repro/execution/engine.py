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

Rows travel through all of it in one representation — a
:class:`~repro.execution.results.SlotLayout` shared per node plus a
value tuple (:mod:`repro.execution.results`): each service node is
compiled once against its feed layout into a
:class:`~repro.execution.slots.ServiceBinding`, every page is pulled
through the one fetch seam of :mod:`repro.execution.fetch`, joins merge
value tuples through a :class:`~repro.execution.slots.SlotJoinPlan`,
and no node boundary decodes or re-encodes anything.  The dict-row
plan interpreter the engine is tested against lives in
:mod:`repro.testing.reference` and is imported by tests and benches
only.

Time is *virtual*: services report per-fetch latencies and the engine
aggregates them according to its :class:`ExecutionMode`, which also
states the streamed top-k contract — under ``STREAMED`` with a ``k``
budget the final join runs as a suspended
:class:`~repro.execution.joins.JoinStream` over lazily fetched inputs,
and the stream rides along on the :class:`ExecutionResult` so "ask for
more" can resume the walk without re-executing the plan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Mapping, Sequence

from repro.execution.cache import CacheSetting, LogicalCache, make_cache
from repro.execution.fetch import Accounting, NodeFetch, UnitRouting, UnitSource
from repro.execution.joins import JoinStream, execute_join_hashed
from repro.execution.lazy import LazyServiceCursor, MultiFeedCursor
from repro.execution.resilience import (
    DriftMonitor,
    PartialResultCertificate,
    ResilienceConfig,
    UnresponsiveService,
)
from repro.execution.results import ResultTable, Row, compose_ranking
from repro.execution.slots import ExecutionError, LayoutMemo, compile_predicates
from repro.execution.stats import ExecutionStats
from repro.model.terms import Variable
from repro.plans.dag import QueryPlan
from repro.plans.nodes import InputNode, JoinNode, OutputNode, PlanNode, ServiceNode
from repro.services.registry import ServiceRegistry


#: ``collect(failures) -> (rows, busy time)`` of one scheduled service
#: node, and the scheduler that starts one (:meth:`ExecutionEngine._execute`).
Collect = Callable[[list[UnresponsiveService]], tuple[list[Row], float]]
Scheduler = Callable[[NodeFetch, Sequence[Row], Accounting], Collect]


class ExecutionMode(Enum):
    """Scheduling modes of the engine.

    All four modes produce the *same answers* for the same plan — they
    differ in how virtual time is aggregated and how much work is done
    to produce a top-k head:

    * ``SEQUENTIAL`` — one thread; elapsed time is the sum of all
      service latencies.
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
      final parallel join early-exits under a rank certificate and its
      service inputs — single- or multi-feed — are fetched lazily,
      page by page, on the walk's demand.  **Equivalence contract**: the produced rows,
      ranks, and emission order are bit-identical to ``PARALLEL``
      execution followed by ``compose_ranking(rows, k)``; only the
      cost (cells visited, pages fetched) changes.  Without ``k`` the
      execution is a plain full materialization; with ``k`` but no
      streamable final join (plans whose output is fed directly by a
      service node) it falls back to full materialization and raises
      ``ExecutionStats.streamed_fallback``, results identical.
    """

    SEQUENTIAL = "sequential"
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
    *materialized* head, not the full plane.

    ``stream`` is the suspended :class:`JoinStream` of a streamed
    top-k execution (``None`` otherwise): calling ``stream.top`` with
    a larger ``k`` resumes the early-exited walk.  Over eagerly
    materialized join inputs a resume never issues a service call;
    over lazily fetched inputs it may pull further pages *within the
    round's fetch budget*: ``accounting`` is the cell every unit
    behind the stream charges to — ``accounting.rebind(stats)`` first,
    so those fetches are accounted to the resuming round.

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
    stream: JoinStream | None = None
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
        thread_overhead: float = 0.05,
        shuffle_seed: int = 17,
        resilience: ResilienceConfig | None = None,
        row_provenance: bool = False,
        drift_monitor: DriftMonitor | None = None,
    ) -> None:
        self._registry = registry
        self._cache_setting = cache_setting
        self._mode = mode
        self._thread_overhead = thread_overhead
        self._shuffle_seed = shuffle_seed
        #: Retry/hedge/partial-results behavior of every page pull
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
        plan: QueryPlan,
        head: Sequence[Variable] = (),
        k: int | None = None,
        reset_remote_caches: bool = True,
        shared_cache: LogicalCache | None = None,
    ) -> ExecutionResult:
        """Run *plan* and return ranked answers plus statistics.

        ``head`` selects the projected output variables; ``k`` is only
        advisory in the full-scan modes (all produced answers are kept;
        ``answers()`` trims).  Under ``ExecutionMode.STREAMED`` with a
        ``k`` budget, the final parallel join early-exits once the
        top-k is provably complete, the table is truncated to that
        proven head (``table.complete`` records whether anything was
        left unvisited), and the suspended stream is returned for
        continuation.  ``reset_remote_caches`` clears the remote
        servers' own caches before running, so experiments are
        independent.  ``shared_cache`` lets a caller keep a logical
        cache alive across executions (progressive "ask for more"
        continuations).
        """
        return self._execute(plan, head, k, reset_remote_caches, shared_cache)

    def _execute(
        self,
        plan: QueryPlan,
        head: Sequence[Variable],
        k: int | None,
        reset_remote_caches: bool,
        shared_cache: LogicalCache | None,
        schedule: Scheduler | None = None,
    ) -> ExecutionResult:
        """The one plan walk and the one partial-results restart loop.

        *schedule* is the scheduler seam, consulted where a non-lazy
        service node's feed rows are drained.  None drains them inline
        (:meth:`_drain_units`).  A scheduler instead starts the node's
        work and returns a ``collect`` callable; the walk calls it when
        it reaches the node's first consumer — the FIFO topological
        order visits sibling branches before their consumers, so
        independent branches are all started before any is awaited.
        ``collect(failures)`` folds the node's statistics into the
        walk's cell, appends every unit that exhausted its retries to
        *failures* and returns ``(rows, busy time)``.
        """
        plan.validate()
        if reset_remote_caches:
            self._registry.reset_all()
        cache = shared_cache if shared_cache is not None else make_cache(
            self._cache_setting
        )
        accounting = Accounting(ExecutionStats())
        stats = accounting.stats
        streaming = self._mode is ExecutionMode.STREAMED and k is not None
        streaming_join = self._streamed_join_node(plan) if streaming else None
        # Full-materialization fallback (service-terminal plan): flag
        # it so the zeroed streaming/lazy counters cannot be mistaken
        # for a stream that visited nothing.
        stats.streamed_fallback = streaming and streaming_join is None
        lazy_candidates = (
            self._lazy_input_ids(plan, streaming_join)
            if streaming_join is not None
            else frozenset()
        )
        # Partial-results restart loop: a walk aborted by an exhausted
        # retry budget reroutes each failing unit onto an equivalent
        # sibling service (when sibling fallback is on and one exists)
        # or demotes it, then re-runs with the units rerouted/masked
        # (the shared logical cache makes restarts cheap — every
        # already-fetched page is answered locally).  The stats object
        # survives restarts, so aborted work stays counted.  Each
        # restart either demotes a *new* unit or advances a unit to a
        # sibling it never tried; both are finite per plan, so the
        # loop terminates.  A PlanDrift raised by the drift monitor is
        # *not* absorbed here: it aborts the execution for the session
        # executor to re-plan, carrying the partial stats.
        while True:
            rng = random.Random(self._shuffle_seed)
            stream: JoinStream | None = None
            lazy_cursors: dict[str, LazyServiceCursor | MultiFeedCursor] = {}
            outputs: dict[str, list[Row]] = {}
            busy: dict[str, float] = {}
            #: Scheduled service nodes not yet collected (always empty
            #: for the inline walk).
            pending: dict[str, Collect] = {}
            failures: list[UnresponsiveService] = []
            try:
                for node in plan.topological_order():
                    if pending:
                        for feeder in plan.predecessors(node):
                            collect = pending.pop(feeder.node_id, None)
                            if collect is not None:
                                outputs[feeder.node_id], busy[feeder.node_id] = (
                                    collect(failures)
                                )
                        if failures:
                            break
                    if isinstance(node, InputNode):
                        outputs[node.node_id] = [Row()]
                        busy[node.node_id] = 0.0
                    elif isinstance(node, ServiceNode):
                        feed = outputs[self._feed_node(plan, node).node_id]
                        context = self._node_fetch(node, cache)
                        if node.node_id in lazy_candidates:
                            cursor = self._open_lazy_cursor(
                                context, feed, accounting
                            )
                            lazy_cursors[node.node_id] = cursor
                            # The cursor's row list is live: it grows
                            # as the streamed walk demands pages, so
                            # the node-size snapshot below sees exactly
                            # what was fetched.
                            outputs[node.node_id] = cursor.rows
                            busy[node.node_id] = 0.0
                            continue
                        if self._mode is ExecutionMode.MULTITHREADED:
                            feed = list(feed)
                            rng.shuffle(feed)
                        # An eagerly run node reports its service even
                        # when it fetched nothing (empty feed, every
                        # unit demoted or rerouted).
                        stats.service(node.service_name)
                        if schedule is None:
                            outputs[node.node_id], busy[node.node_id] = (
                                self._drain_units(context, feed, accounting)
                            )
                        else:
                            pending[node.node_id] = schedule(
                                context, feed, accounting
                            )
                    elif isinstance(node, JoinNode):
                        if node is streaming_join:
                            stream = self._open_join_stream(
                                plan, node, outputs, lazy_cursors
                            )
                            rows = stream.top(k)
                        else:
                            rows = self._run_join_node(plan, node, outputs)
                        outputs[node.node_id] = rows
                        busy[node.node_id] = node.response_time
                    elif isinstance(node, OutputNode):
                        # A streamed join already applied the
                        # residual predicates inside its walk.
                        outputs[node.node_id] = (
                            outputs[streaming_join.node_id]
                            if streaming_join is not None
                            else self._run_output_node(plan, node, outputs)
                        )
                        busy[node.node_id] = 0.0
                    else:
                        raise ExecutionError(
                            f"unknown node type {type(node).__name__}"
                        )
            except UnresponsiveService as failure:
                failures.append(failure)
            if not failures:
                break
            # Every unit that died in this walk is handled before the
            # one restart: whatever is still in flight is collected
            # first, which also keeps its work counted.
            for collect in pending.values():
                collect(failures)
            unit = self.routing.original(failures[0].unit)
            if self.routing.masked(*unit):  # pragma: no cover
                raise ExecutionError(
                    f"demoted unit {unit!r} failed again — "
                    f"masking is broken"
                ) from failures[0]
            for failure in failures:
                # Stale failures (the unit already moved on within
                # this batch) are dropped inside the handler.
                self.routing.handle_unresponsive(failure)

        for node_id, cursor in lazy_cursors.items():
            busy[node_id] = self._node_busy(cursor.latencies)
        stats.elapsed = self._elapsed(plan, busy)
        produced = outputs[plan.output_node.node_id]
        if stream is not None:
            stream.trace(stats)
        if streaming:
            final_rows = compose_ranking(produced, k)
            if stream is not None:
                complete = stream.is_complete(final_rows)
            else:
                complete = len(final_rows) == len(produced)
        else:
            final_rows = compose_ranking(produced)
            complete = True
        return self._result(
            plan, head, k, stats, outputs, final_rows, complete, stream,
            accounting,
        )

    def _result(
        self,
        plan: QueryPlan,
        head: Sequence[Variable],
        k: int | None,
        stats: ExecutionStats,
        outputs: Mapping[str, list[Row]],
        final_rows: list[Row],
        complete: bool = True,
        stream: JoinStream | None = None,
        accounting: Accounting | None = None,
    ) -> ExecutionResult:
        """Wrap up one finished walk or stream resume."""
        certificate = self.routing.certificate_for(plan, final_rows)
        if certificate is not None:
            stats.demoted_blocks = len(certificate.dropped)
            stats.substituted_blocks = len(certificate.substituted)
        return ExecutionResult(
            table=ResultTable(
                head=tuple(head), rows=final_rows, complete=complete
            ),
            stats=stats,
            elapsed=stats.elapsed,
            k=k,
            node_output_sizes={
                node_id: len(rows) for node_id, rows in outputs.items()
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

    def _node_fetch(self, node: ServiceNode, cache: LogicalCache) -> NodeFetch:
        """*node*'s side of the fetch seam for one execution."""
        return NodeFetch(
            node, self._registry, cache, self.routing, self._resilience,
            self.drift_monitor, self._row_provenance,
        )

    def _drain_units(
        self, context: NodeFetch, feed: Sequence[Row], accounting: Accounting
    ) -> tuple[list[Row], float]:
        """Eager execution of a service node: ``(rows, busy time)``.

        Pulls every budgeted page of each feed row's unit, in order.
        """
        latencies: list[float] = []
        produced: list[Row] = []
        for row in feed:
            UnitSource(context, row, accounting).drain(produced, latencies)
        return produced, self._node_busy(latencies)

    @staticmethod
    def _feed_node(plan: QueryPlan, node: ServiceNode) -> PlanNode:
        predecessors = plan.predecessors(node)
        if len(predecessors) != 1:
            raise ExecutionError(
                f"service node {node.label} must have exactly one predecessor"
            )
        return predecessors[0]

    def _run_join_node(
        self,
        plan: QueryPlan,
        node: JoinNode,
        outputs: dict[str, list[Row]],
    ) -> list[Row]:
        left, right = (
            outputs[p.node_id] for p in self._join_predecessors(plan, node)
        )
        return execute_join_hashed(node.method, left, right, node.predicates)

    def _open_join_stream(
        self,
        plan: QueryPlan,
        node: JoinNode,
        outputs: dict[str, list[Row]],
        lazy_cursors: Mapping[str, LazyServiceCursor | MultiFeedCursor] = {},
    ) -> JoinStream:
        """Suspended streamed execution of the plan's final join.

        The output node's residual predicates are pushed into the
        stream so that the early-exit certificate counts exactly the
        rows that survive to the final answer.  Inputs with a deferred
        lazy cursor are passed as cursors (pulled page by page by the
        walk); the rest are the eagerly materialized row lists.
        """
        left, right = (
            lazy_cursors.get(p.node_id, outputs[p.node_id])
            for p in self._join_predecessors(plan, node)
        )
        return JoinStream(
            node.method,
            left,
            right,
            node.predicates,
            residual_predicates=plan.output_node.residual_predicates,
        )

    @staticmethod
    def _lazy_input_ids(
        plan: QueryPlan, streaming_join: JoinNode
    ) -> frozenset[str]:
        """Service nodes eligible for demand-driven fetching.

        A predecessor of the streamed join qualifies when it is a
        service node whose *only* consumer is that join: no other node
        may observe its output, so leaving part of it unfetched cannot
        change any other dataflow.  Feed shape no longer matters —
        single feeds get a plain lazy cursor, multi-tuple feeds a
        per-block :class:`MultiFeedCursor` (see
        :meth:`_open_lazy_cursor`).
        """
        eligible = []
        for predecessor in plan.predecessors(streaming_join):
            if not isinstance(predecessor, ServiceNode):
                continue
            successors = plan.successors(predecessor)
            if len(successors) == 1 and successors[0] is streaming_join:
                eligible.append(predecessor.node_id)
        return frozenset(eligible)

    @staticmethod
    def _open_lazy_cursor(
        context: NodeFetch, feed: Sequence[Row], accounting: Accounting
    ) -> LazyServiceCursor | MultiFeedCursor:
        """A demand-driven cursor over a node's (possibly many) feeds.

        A single-feed node produces one rank-monotone row sequence (the
        feed rank is constant and service ranks only grow), wrapped in
        a plain :class:`LazyServiceCursor`.  A multi-tuple feed
        produces one such *block* per feed row; each block becomes its
        own budgeted cursor (over its own unit of the fetch seam, hence
        the same per-input-tuple cache and call accounting as eager
        execution)
        inside a :class:`MultiFeedCursor`, whose block-interleaving
        certificate keeps the streamed walk sound.  Non-rank-monotone
        behavior is handled dynamically inside the cursors (a full
        drain of the offending block) — no input shape falls back to
        eager materialization anymore.
        """
        cursors = [
            LazyServiceCursor(
                UnitSource(context, row, accounting), base_rank=row.rank_key()
            )
            for row in feed
        ]
        if len(cursors) == 1:
            return cursors[0]
        return MultiFeedCursor(cursors)

    @staticmethod
    def _join_predecessors(plan: QueryPlan, node: JoinNode) -> list[PlanNode]:
        predecessors = plan.predecessors(node)
        if len(predecessors) != 2:
            raise ExecutionError(f"join {node.label} must have two predecessors")
        return predecessors

    @staticmethod
    def _streamed_join_node(plan: QueryPlan) -> JoinNode | None:
        """The join node eligible for streamed top-k early exit.

        Only the output node's direct join predecessor qualifies: its
        rows reach the answer without gaining further rank annotations
        or passing through row-producing nodes, so a top-k certificate
        at the join is a top-k certificate for the whole query (the
        output's residual filter is applied inside the stream).  Plans
        whose final node is a service invocation fall back to full
        materialization — nothing is skipped, results are identical.
        """
        predecessors = plan.predecessors(plan.output_node)
        if len(predecessors) == 1 and isinstance(predecessors[0], JoinNode):
            join = predecessors[0]
            if len(plan.successors(join)) == 1:
                return join
        return None

    def _run_output_node(
        self,
        plan: QueryPlan,
        node: OutputNode,
        outputs: dict[str, list[Row]],
    ) -> list[Row]:
        predecessors = plan.predecessors(node)
        if len(predecessors) != 1:
            raise ExecutionError("output node must have exactly one predecessor")
        rows = outputs[predecessors[0].node_id]
        if not node.residual_predicates:
            return list(rows)
        residual = LayoutMemo(
            lambda layout: compile_predicates(node.residual_predicates, layout)
        )
        return [
            row
            for row in rows
            if all(holds(row.values) for holds in residual[row.layout])
        ]

    # -- timing ---------------------------------------------------------------

    def _node_busy(self, latencies: list[float]) -> float:
        if not latencies:
            return 0.0
        if self._mode is ExecutionMode.MULTITHREADED:
            return self.overlapped_busy(latencies, len(latencies))
        return sum(latencies)

    def overlapped_busy(self, durations: Sequence[float], dispatches: int) -> float:
        """Busy time of work dispatched to concurrent threads: the
        longest piece plus a thread overhead per dispatch."""
        return max(durations) + self._thread_overhead * dispatches

    def _elapsed(self, plan: QueryPlan, busy: Mapping[str, float]) -> float:
        if self._mode is ExecutionMode.SEQUENTIAL:
            return sum(busy.values())
        finish: dict[str, float] = {}
        for node in plan.topological_order():
            predecessors = plan.predecessors(node)
            start = max(
                (finish[p.node_id] for p in predecessors), default=0.0
            )
            finish[node.node_id] = start + busy[node.node_id]
        return finish[plan.output_node.node_id]


def execute_plan(
    plan: QueryPlan,
    registry: ServiceRegistry,
    head: Sequence[Variable] = (),
    cache_setting: CacheSetting = CacheSetting.NO_CACHE,
    mode: ExecutionMode = ExecutionMode.PARALLEL,
    k: int | None = None,
) -> ExecutionResult:
    """One-call convenience wrapper around :class:`ExecutionEngine`."""
    engine = ExecutionEngine(registry, cache_setting=cache_setting, mode=mode)
    return engine.execute(plan, head=head, k=k)

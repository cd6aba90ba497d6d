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
:class:`~repro.execution.slots.ServiceBinding` that the eager loop,
the lazy page sources and the thread-pool row tasks share, joins merge
value tuples through a :class:`~repro.execution.slots.SlotJoinPlan`,
and no node boundary decodes or re-encodes anything.  The dict-row
plan interpreter the engine is tested against lives in
:mod:`repro.testing.reference` and is imported by tests and benches
only.

Time is *virtual*: services report per-fetch latencies and the engine
aggregates them according to the scheduling mode —

* ``SEQUENTIAL``   — one thread, total time is the sum of all latencies;
* ``PARALLEL``     — independent branches overlap: the elapsed time is
  the critical path over the DAG (the paper's engine performs
  sequential and parallel joins this way);
* ``MULTITHREADED`` — additionally, all calls of a node are dispatched
  to parallel threads: the node's busy time collapses to its largest
  single latency plus a per-thread overhead.  Parallel dispatch
  randomizes the arrival order, which degrades the one-call cache
  (the paper measures 284 → 212 hotel calls in this setting);
  we reproduce this by shuffling each node's input block order with a
  seeded RNG;
* ``STREAMED``     — timing as ``PARALLEL``, but when a ``k`` budget is
  given the final parallel join runs as a suspended
  :class:`~repro.execution.joins.JoinStream`: the candidate plane is
  walked lazily and the execution stops with a certificate that the
  top-k is complete, skipping the unvisited cells entirely.  Service
  nodes feeding that join are not materialized up front at all: a
  single-tuple feed is wrapped in a
  :class:`~repro.execution.lazy.LazyServiceCursor`, a multi-tuple feed
  in a per-feed-block
  :class:`~repro.execution.lazy.MultiFeedCursor`, and their pages are
  fetched only as the walk demands deeper rows, so early exit saves
  *remote service fetches* — the quantity the paper's cost model
  optimizes — not just join work (``lazy_calls_saved`` /
  ``lazy_tuples_fetched`` / ``lazy_blocks`` on the statistics trace
  the saving, which now covers serial plans whose final join is fed
  by proliferative upstream chains).  The result table is truncated to the proven top-k
  (``complete`` is False when answers beyond k were neither produced
  nor disproven), and the suspended stream rides along on the
  :class:`ExecutionResult` so "ask for more" can resume the walk
  without re-executing the plan.  Streamed results are bit-identical
  to ``compose_ranking`` over a full-scan execution — the oracle the
  hypothesis suite checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from repro.execution.cache import CacheSetting, LogicalCache, make_cache
from repro.execution.joins import JoinStream, execute_join_hashed
from repro.execution.lazy import (
    FetchedPage,
    LazyServiceCursor,
    MultiFeedCursor,
    NullPageSource,
)
from repro.execution.resilience import (
    DriftMonitor,
    PartialResultCertificate,
    PlanDrift,
    ResilienceConfig,
    UnresponsiveService,
    build_certificate,
    resilient_fetch,
)
from repro.execution.results import ResultTable, Row, compose_ranking
from repro.execution.slots import (
    ExecutionError,
    LayoutMemo,
    ServiceBinding,
    compile_predicates,
    service_bindings,
)
from repro.execution.stats import ExecutionStats
from repro.model.terms import Variable
from repro.plans.dag import QueryPlan
from repro.plans.nodes import InputNode, JoinNode, OutputNode, PlanNode, ServiceNode
from repro.services.registry import ServiceRegistry


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
      latency plus overhead); input block order is shuffled, degrading
      the one-call cache as the paper observes.
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
    round's fetch budget* (call ``stream.rebind_stats`` first so those
    fetches are accounted to the resuming round).

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
        lazy_streaming: bool = True,
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
        #: Units demoted by exhausted retries in partial-results mode,
        #: persistent across this engine's executions (progressive
        #: rounds must not re-await a block already proven dead).
        self._demoted: dict[tuple[str, tuple], UnresponsiveService] = {}
        #: Sibling-fallback routing state (all empty — and all fast
        #: paths untouched — until a unit actually fails over or a
        #: caller pre-routes a whole service):
        #: per-unit reroutes (original unit -> serving service name),
        self._substituted: dict[tuple[str, tuple], str] = {}
        #: whole-service reroutes (circuit breaker opened the service),
        self._service_substitutions: dict[str, str] = {}
        #: siblings already tried per unit (so a failing sibling
        #: advances to the next candidate instead of ping-ponging),
        self._unit_attempts: dict[tuple[str, tuple], set[str]] = {}
        #: reverse map (serving service, input key) -> original unit,
        #: so a sibling's own failure resolves to the unit it serves,
        self._origin: dict[tuple[str, tuple], tuple[str, tuple]] = {}
        #: and reroutes that actually served pages, for the
        #: certificate's ``substituted`` section.
        self._substitution_used: dict[tuple[str, tuple], str] = {}
        #: Observes remote fetch latency against each plan node's
        #: costed profile and raises
        #: :class:`~repro.execution.resilience.PlanDrift` on
        #: divergence; None (the default) never observes anything —
        #: the zero-drift bit-identity is structural, not thresholded.
        self._drift_monitor = drift_monitor
        #: Under STREAMED with a k budget, fetch the final join's
        #: service inputs (single- and multi-feed) on demand; False
        #: restores PR 2's eager materialization (same results, more
        #: remote fetches) — the baseline the lazy bench measures
        #: against.
        self._lazy_streaming = lazy_streaming
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
        plan.validate()
        if reset_remote_caches:
            self._registry.reset_all()
        cache = shared_cache if shared_cache is not None else make_cache(
            self._cache_setting
        )
        stats = ExecutionStats()
        streaming_join = (
            self._streamed_join_node(plan)
            if self._mode is ExecutionMode.STREAMED and k is not None
            else None
        )
        if (
            self._mode is ExecutionMode.STREAMED
            and k is not None
            and streaming_join is None
        ):
            # Full-materialization fallback (service-terminal plan):
            # flag it so the zeroed streaming/lazy counters cannot be
            # mistaken for a stream that visited nothing.
            stats.streamed_fallback = True
        lazy_candidates = (
            self._lazy_input_ids(plan, streaming_join)
            if streaming_join is not None and self._lazy_streaming
            else frozenset()
        )
        # Partial-results restart loop: a walk aborted by an exhausted
        # retry budget reroutes the failing unit onto an equivalent
        # sibling service (when sibling fallback is on and one exists)
        # or demotes it, then re-runs with the unit rerouted/masked
        # (the shared logical cache makes restarts cheap — every
        # already-fetched page is answered locally).  The stats object
        # survives restarts, so aborted work stays counted.  Each
        # restart either demotes one *new* unit or advances one unit
        # to a sibling it never tried; both are finite per plan, so
        # the loop terminates.  A PlanDrift raised by the drift
        # monitor is *not* absorbed here: it aborts the execution for
        # the adaptive layer to re-plan, carrying the partial stats.
        try:
            while True:
                rng = random.Random(self._shuffle_seed)
                stream: JoinStream | None = None
                lazy_cursors: dict[str, LazyServiceCursor | MultiFeedCursor] = {}
                outputs: dict[str, list[Row]] = {}
                busy: dict[str, float] = {}
                try:
                    for node in plan.topological_order():
                        if isinstance(node, InputNode):
                            outputs[node.node_id] = [Row()]
                            busy[node.node_id] = 0.0
                        elif isinstance(node, ServiceNode):
                            if node.node_id in lazy_candidates:
                                cursor = self._open_lazy_cursor(
                                    plan, node, outputs, cache, stats
                                )
                                lazy_cursors[node.node_id] = cursor
                                # The cursor's row list is live: it grows
                                # as the streamed walk demands pages, so
                                # the node-size snapshot below sees exactly
                                # what was fetched.
                                outputs[node.node_id] = cursor.rows
                                busy[node.node_id] = 0.0
                            else:
                                rows, node_busy = self._run_service_node(
                                    plan, node, outputs, cache, stats, rng
                                )
                                outputs[node.node_id] = rows
                                busy[node.node_id] = node_busy
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
                    unit = self._origin.get(failure.unit, failure.unit)
                    if unit in self._demoted:  # pragma: no cover
                        raise ExecutionError(
                            f"demoted unit {unit!r} failed again — "
                            f"masking is broken"
                        ) from failure
                    self.handle_unresponsive(failure)
                    continue
                break
        except PlanDrift as drift:
            if drift.stats is None:
                drift.stats = stats
            raise

        for node_id, cursor in lazy_cursors.items():
            busy[node_id] = self._node_busy(cursor.latencies)
            stats.lazy_tuples_fetched += cursor.tuples_fetched
            stats.lazy_calls_saved += cursor.pages_saved()
            stats.lazy_blocks += cursor.block_count
            stats.lazy_blocks_untouched += cursor.blocks_untouched
        stats.elapsed = self._elapsed(plan, busy)
        produced = outputs[plan.output_node.node_id]
        if stream is not None:
            stats.streamed_cells_visited = stream.cells_visited
            stats.early_exit_cells_skipped = stream.cells_skipped
        if self._mode is ExecutionMode.STREAMED and k is not None:
            final_rows = compose_ranking(produced, k)
            if stream is not None:
                complete = stream.is_complete(final_rows)
            else:
                complete = len(final_rows) == len(produced)
        else:
            final_rows = compose_ranking(produced)
            complete = True
        certificate = self.certificate_for(plan, final_rows)
        if certificate is not None:
            stats.demoted_blocks = len(certificate.dropped)
            stats.substituted_blocks = len(certificate.substituted)
        table = ResultTable(head=tuple(head), rows=final_rows, complete=complete)
        return ExecutionResult(
            table=table,
            stats=stats,
            elapsed=stats.elapsed,
            k=k,
            node_output_sizes={
                node_id: len(rows) for node_id, rows in outputs.items()
            },
            stream=stream,
            certificate=certificate,
        )

    # -- resilience ---------------------------------------------------------

    def demote(self, failure: UnresponsiveService) -> None:
        """Mask *failure*'s unit in every later walk of this engine.

        Idempotent: concurrent row tasks of a :class:`ParallelExecutor`
        can exhaust the same unit's budget twice before either failure
        is collected.
        """
        self._demoted.setdefault(failure.unit, failure)

    def mask_unit(
        self, service: str, input_key: tuple, reason: str = "masked up front"
    ) -> None:
        """Pre-demote one unit before executing.

        The oracle of the partial-results differential: re-running a
        plan on a *fault-free* registry with the certificate's dropped
        units masked up front must reproduce the partial answer
        bit-for-bit.
        """
        failure = UnresponsiveService(
            service, input_key, 0, 0, RuntimeError(reason)
        )
        self._demoted.setdefault((service, input_key), failure)

    def certificate_for(
        self, plan: QueryPlan, rows: list[Row]
    ) -> PartialResultCertificate | None:
        """The partial-result certificate; None unless partial mode."""
        if self._resilience is None or not self._resilience.partial_results:
            return None
        return build_certificate(plan, rows, self._demoted, self._substitution_used)

    def _masked(self, service: str, input_key: tuple) -> bool:
        """Whether one ``(service, input setting)`` unit is demoted."""
        return bool(self._demoted) and (service, input_key) in self._demoted

    def _routing_active(self) -> bool:
        """Whether any unit- or service-level reroute is registered.

        The zero-drift fast-path guard: with no substitutions the
        per-row hot loops never consult the routing tables, so a run
        without adaptivity stays bit-identical to the static engine.
        """
        return bool(self._substituted) or bool(self._service_substitutions)

    def _route_unit(self, service: str, input_key: tuple) -> str:
        """The service that actually serves one unit, recording the use.

        Demoted units are never rerouted — the masked check must see
        the original identity (and ``_open_lazy_cursor`` constructs
        its page source *before* checking the mask, so routing a
        demoted unit would resurrect it).  Unit-level reroutes (from
        sibling fallback) win over service-level ones (from a breaker
        pre-substitution).  Every active reroute is recorded in
        ``_origin`` (so a sibling's failure resolves back to the unit
        it stood in for) and ``_substitution_used`` (so the
        certificate names the replacement).
        """
        unit = (service, input_key)
        if unit in self._demoted:
            return service
        actual = self._substituted.get(unit)
        if actual is None:
            actual = self._service_substitutions.get(service, service)
        if actual != service:
            self._origin.setdefault((actual, input_key), unit)
            self._substitution_used[unit] = actual
        return actual

    def handle_unresponsive(self, failure: UnresponsiveService) -> None:
        """Reroute the failed unit onto a sibling, or demote it.

        The restart loop's (and the executors') failure sink.  The
        failure may name a *sibling* that was already standing in for
        an original unit — ``_origin`` resolves it back, so exhaustion
        walks the sibling chain of one logical unit instead of
        spawning chains per replacement.  Stale failures (collected by
        a parallel executor after the unit already moved on or was
        demoted) are dropped: the current server has never exhausted
        its budget.
        """
        unit = self._origin.get(failure.unit, failure.unit)
        if unit in self._demoted:
            return
        current = self._substituted.get(unit)
        if current is None:
            current = self._service_substitutions.get(unit[0], unit[0])
        if failure.service != current:
            return
        if self._resilience is not None and self._resilience.sibling_fallback:
            sibling = self._next_sibling(unit, failure.service)
            if sibling is not None:
                self._substituted[unit] = sibling
                return
        # Sibling chain exhausted (or fallback off): demote the
        # *original* unit — and forget its substitution record, or the
        # certificate would report the unit both substituted and
        # dropped.
        self._substituted.pop(unit, None)
        self._substitution_used.pop(unit, None)
        if unit != failure.unit:
            failure = UnresponsiveService(
                unit[0], unit[1], failure.page, failure.attempts, failure.cause
            )
        self.demote(failure)

    def _next_sibling(self, unit: tuple[str, tuple], failed: str) -> str | None:
        """The first registered sibling this unit has not tried yet."""
        tried = self._unit_attempts.setdefault(unit, {unit[0]})
        tried.add(failed)
        pattern_code = unit[1][0]
        for sibling in self._registry.siblings(unit[0], (pattern_code,)):
            if sibling not in tried:
                tried.add(sibling)
                return sibling
        return None

    def substitute_service(self, service: str, replacement: str) -> None:
        """Reroute every unit of *service* onto *replacement*.

        The circuit breaker's lever: a service whose breaker is open
        is served by a healthy sibling from the first fetch, without
        waiting for each unit to exhaust a retry budget first.
        Unit-level reroutes installed later still take precedence.
        """
        self._service_substitutions[service] = replacement

    def adopt_adaptive_state(self, other: "ExecutionEngine") -> None:
        """Carry another engine's demotions and reroutes into this one.

        The adaptive executor builds a fresh engine per re-plan; the
        new engine must keep masking what the old one demoted and keep
        serving rerouted units from their replacements, or a re-plan
        would silently resurrect known-bad units.
        """
        self._demoted.update(other._demoted)
        self._substituted.update(other._substituted)
        self._service_substitutions.update(other._service_substitutions)
        self._unit_attempts.update(other._unit_attempts)
        self._origin.update(other._origin)
        self._substitution_used.update(other._substitution_used)

    def _invoke_service(
        self, service, node: ServiceNode, inputs, input_key: tuple,
        page: int, stats: ExecutionStats, service_name: str | None = None,
    ):
        """One raw remote invocation, through the resilience layer.

        The seam shared by the eager page loop and the lazy page
        source: cache lookup/store and fetch accounting stay with the
        caller, so retried and hedged duplicates can never double-store
        a page or double-count a call — only the winning response is
        ever seen by the cache layer.  ``service_name`` overrides the
        node's name when the unit is rerouted onto a sibling, so
        budgets and failures attach to the service actually invoked.
        """
        name = node.service_name if service_name is None else service_name
        if self._resilience is None:
            return service.invoke(node.pattern, inputs, page=page)
        return resilient_fetch(
            self._resilience, name, input_key, page,
            lambda: service.invoke(node.pattern, inputs, page=page),
            stats,
        )

    # -- node execution -----------------------------------------------------

    def _run_service_node(
        self,
        plan: QueryPlan,
        node: ServiceNode,
        outputs: dict[str, list[Row]],
        cache: LogicalCache,
        stats: ExecutionStats,
        rng: random.Random,
        bindings: LayoutMemo | None = None,
    ) -> tuple[list[Row], float]:
        """Invoke *node* once per feed row; ``(rows, busy time)``.

        *bindings* lets a caller that runs the node row by row (the
        thread-pool executor) compile the node once instead of per
        call.
        """
        feed = list(outputs[self._feed_node(plan, node).node_id])
        if self._mode is ExecutionMode.MULTITHREADED:
            rng.shuffle(feed)
        service = self._registry.service(node.service_name)
        service_stats = stats.service(node.service_name)
        # Adaptivity hooks, hoisted so the zero-drift run pays one
        # truthiness check per node, not per row: with no reroutes
        # ``routing`` is False and every row uses the hoisted service
        # objects above, bit-identically to the static engine.
        routing = self._routing_active()
        monitor = self._drift_monitor
        if bindings is None:
            bindings = service_bindings(node)
        latencies: list[float] = []
        produced: list[Row] = []
        for row in feed:
            binding = bindings[row.layout]
            inputs, input_key = binding.unit(row.values)
            if self._masked(node.service_name, input_key):
                # A demoted unit contributes nothing: no rows, no
                # calls, no hits (the certificate records the drop).
                continue
            if routing:
                serving_name = self._route_unit(node.service_name, input_key)
                if serving_name != node.service_name:
                    row_service = self._registry.service(serving_name)
                    row_stats = stats.service(serving_name)
                else:
                    row_service, row_stats = service, service_stats
            else:
                serving_name = node.service_name
                row_service, row_stats = service, service_stats
            issued_remote = False
            for page in range(node.fetches):
                cached = cache.lookup(serving_name, input_key, page)
                if cached is not None:
                    result = cached
                else:
                    result = self._invoke_service(
                        row_service, node, inputs, input_key, page, stats,
                        service_name=serving_name,
                    )
                    cache.store(serving_name, input_key, page, result)
                    row_stats.record_fetch(
                        result.latency, result.from_remote_cache,
                        len(result.tuples),
                    )
                    latencies.append(result.latency)
                    issued_remote = True
                    # Drift is judged against the node's costed profile,
                    # so only fetches served by the profiled service
                    # feed the monitor — sibling traffic is not the
                    # original's drift.
                    if monitor is not None and serving_name == node.service_name:
                        monitor.observe(
                            node.service_name, node.profile, result.latency
                        )
                stats.tuples_processed += len(result.tuples)
                produced.extend(
                    binding.bind_page(
                        row, result,
                        (serving_name, input_key, page)
                        if self._row_provenance
                        else None,
                    )
                )
                if not result.has_more:
                    break
            if issued_remote:
                row_stats.calls += 1
            else:
                row_stats.cache_hits += 1
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
        left, right = self._join_inputs(plan, node, outputs)
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
        predecessors = plan.predecessors(node)
        if len(predecessors) != 2:
            raise ExecutionError(f"join {node.label} must have two predecessors")
        left, right = (
            lazy_cursors.get(p.node_id, outputs[p.node_id]) for p in predecessors
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

    def _open_lazy_cursor(
        self,
        plan: QueryPlan,
        node: ServiceNode,
        outputs: dict[str, list[Row]],
        cache: LogicalCache,
        stats: ExecutionStats,
    ) -> LazyServiceCursor | MultiFeedCursor:
        """A demand-driven cursor over *node*'s (possibly many) feeds.

        A single-feed node produces one rank-monotone row sequence (the
        feed rank is constant and service ranks only grow), wrapped in
        a plain :class:`LazyServiceCursor`.  A multi-tuple feed
        produces one such *block* per feed row; each block becomes its
        own budgeted cursor (with its own page source, hence the same
        per-input-tuple cache and call accounting as eager execution)
        inside a :class:`MultiFeedCursor`, whose block-interleaving
        certificate keeps the streamed walk sound.  Non-rank-monotone
        behavior is handled dynamically inside the cursors (a full
        drain of the offending block) — no input shape falls back to
        eager materialization anymore.
        """
        feed = outputs[self._feed_node(plan, node).node_id]
        bindings = service_bindings(node)
        cursors = []
        for row in feed:
            source = _LazyServicePageSource(
                self, node, row, bindings[row.layout], cache, stats
            )
            if self._masked(node.service_name, source.input_key):
                # A demoted block is exhausted from birth: it places no
                # rows, issues no fetch, and its infinite floor lets
                # the block-interleaving certificate skip it entirely.
                cursors.append(
                    LazyServiceCursor(
                        NullPageSource(), base_rank=row.rank_key()
                    )
                )
            else:
                cursors.append(
                    LazyServiceCursor(source, base_rank=row.rank_key())
                )
        if len(cursors) == 1:
            return cursors[0]
        return MultiFeedCursor(cursors)

    def _join_inputs(
        self,
        plan: QueryPlan,
        node: JoinNode,
        outputs: dict[str, list[Row]],
    ) -> tuple[list[Row], list[Row]]:
        predecessors = plan.predecessors(node)
        if len(predecessors) != 2:
            raise ExecutionError(f"join {node.label} must have two predecessors")
        return outputs[predecessors[0].node_id], outputs[predecessors[1].node_id]

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
            return max(latencies) + self._thread_overhead * len(latencies)
        return sum(latencies)

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


class _LazyServicePageSource:
    """Fetches one service node's pages on demand (engine collaborator).

    Implements the :class:`~repro.execution.lazy.PageSource` protocol
    for a single-feed service node: each ``fetch(page)`` performs the
    logical-cache lookup, the remote invocation, the statistics
    accounting, and the output binding that eager execution would have
    performed for that page — just later, and only if demanded.
    ``budget`` is the node's fetching factor, so the lazy universe is
    exactly the eager one.

    Call/hit accounting matches the eager engine's per-input-tuple
    semantics within each statistics *epoch* (one execution, or one
    resumed round after :meth:`swap_stats`): the first remote page of
    an epoch counts one call; an epoch served purely from the logical
    cache counts one cache hit.
    """

    def __init__(
        self,
        engine: ExecutionEngine,
        node: ServiceNode,
        feed_row: Row,
        binding: ServiceBinding,
        cache: LogicalCache,
        stats: ExecutionStats,
    ) -> None:
        self._node = node
        self._feed_row = feed_row
        self._binding = binding
        self._cache = cache
        self._stats = stats
        self._inputs, self.input_key = binding.unit(feed_row.values)
        self._engine = engine
        # Routed once at construction: a reroute installed mid-stream
        # takes effect on the next restart, never mid-block (a block's
        # pages must all come from one server for rank soundness).
        if engine._routing_active():
            self._serving_name = engine._route_unit(
                node.service_name, self.input_key
            )
        else:
            self._serving_name = node.service_name
        self._service = engine._registry.service(self._serving_name)
        self.budget = node.fetches
        self._rank_floor = 0
        self._epoch_pages = 0
        self._epoch_remote = False
        self._epoch_counted_hit = False

    def swap_stats(self, stats: object) -> None:
        """Start a new accounting epoch on *stats* (resumed rounds)."""
        assert isinstance(stats, ExecutionStats)
        self._stats = stats
        self._epoch_pages = 0
        self._epoch_remote = False
        self._epoch_counted_hit = False

    def fetch(self, page: int) -> FetchedPage:
        node = self._node
        name = self._serving_name
        service_stats = self._stats.service(name)
        cached = self._cache.lookup(name, self.input_key, page)
        latency: float | None = None
        if cached is not None:
            result = cached
        else:
            assert node.pattern is not None
            result = self._engine._invoke_service(
                self._service, node, self._inputs, self.input_key, page,
                self._stats, service_name=name,
            )
            self._cache.store(name, self.input_key, page, result)
            service_stats.record_fetch(
                result.latency, result.from_remote_cache, len(result.tuples)
            )
            latency = result.latency
            monitor = self._engine._drift_monitor
            # Same rule as the eager seam: only profiled-service
            # fetches feed the drift monitor.
            if monitor is not None and name == node.service_name:
                monitor.observe(node.service_name, node.profile, result.latency)
        if cached is None:
            if not self._epoch_remote:
                service_stats.calls += 1
                if self._epoch_counted_hit:
                    service_stats.cache_hits -= 1
                    self._epoch_counted_hit = False
                self._epoch_remote = True
        elif self._epoch_pages == 0:
            service_stats.cache_hits += 1
            self._epoch_counted_hit = True
        self._epoch_pages += 1
        self._stats.tuples_processed += len(result.tuples)

        rows = self._binding.bind_page(
            self._feed_row, result,
            (name, self.input_key, page)
            if self._engine._row_provenance
            else None,
        )
        if result.ranks:
            self._rank_floor = max(self._rank_floor, result.ranks[-1] + 1)
        return FetchedPage(
            rows=tuple(rows),
            raw_tuples=len(result.tuples),
            has_more=result.has_more,
            rank_floor=self._rank_floor,
            latency=latency,
        )


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

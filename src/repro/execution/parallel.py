"""Parallel plan execution on real threads (Section 6's multithreading).

The virtual-time engine *models* parallelism: under
``ExecutionMode.PARALLEL`` the elapsed time is the DAG critical path,
and under ``MULTITHREADED`` a node's busy time collapses to its
largest single call latency.  The paper's multithreading experiment,
though, is a statement about *real* execution — dispatching the
service calls of a plan to concurrent threads turned a 374 s run into
76 s.  :class:`ParallelExecutor` is that execution path: it walks the
same query plans the engine does, but runs them on a
``ThreadPoolExecutor``, overlapping both **independent plan branches**
(nodes whose precedence constraints are already satisfied, exposed by
``plans/dag.py``) and the **per-feed-tuple service calls** within one
node — the dominant source of parallelism, since a proliferative feed
turns one node into hundreds of independent remote calls.

**Determinism.**  Worker scheduling is nondeterministic, but nothing
observable depends on it:

* every per-feed-row task is indexed by its feed position and the
  produced rows are concatenated in feed order after all tasks of the
  node complete — the same order the engine's sequential loop emits;
* the logical cache is wrapped in a lock-guarded
  :class:`~repro.execution.cache.ThreadSafeCache`, and each row task
  holds the per-input-setting ``key_lock`` across its whole lookup →
  invoke → store page loop, so exactly one worker resolves each
  distinct input setting and call/hit counts match sequential
  execution (no double-counted remote calls);
* per-row statistics are accumulated into a task-local
  :class:`~repro.execution.stats.ExecutionStats` (the task's own
  accounting cell) and folded in with ``ExecutionStats.merge`` after
  the node completes — all counters are sums, so merge order is
  irrelevant;
* the one-call cache is inherently order-dependent (its hit pattern
  depends on which call came *last*), so under
  ``CacheSetting.ONE_CALL`` the worker count is forced to 1 — same
  answers with any setting, but call counts would otherwise depend on
  scheduling.

Hence results are bit-identical — rows, ranks, emission order, call
counts — to ``ExecutionEngine(mode=PARALLEL)`` on the same plan, which
``tests/test_parallel.py`` checks differentially.

**Timing.**  ``stats.elapsed`` stays *virtual* (critical path over the
DAG, with a node's busy time collapsing to its largest per-row latency
plus a per-call thread overhead when more than one worker runs);
``stats.wall_time`` records the real seconds the pool took, and
``stats.parallel_workers`` the effective worker count — the quantities
the hotpaths bench sweeps.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Mapping, Sequence

from repro.execution.cache import (
    CacheSetting,
    LogicalCache,
    ThreadSafeCache,
    make_cache,
)
from repro.execution.engine import (
    ExecutionEngine,
    ExecutionError,
    ExecutionMode,
    ExecutionResult,
)
from repro.execution.fetch import Accounting, NodeFetch
from repro.execution.resilience import ResilienceConfig, UnresponsiveService
from repro.execution.results import Row, compose_ranking
from repro.execution.stats import ExecutionStats
from repro.model.terms import Variable
from repro.plans.dag import QueryPlan
from repro.plans.nodes import InputNode, JoinNode, OutputNode, ServiceNode


class ParallelExecutor:
    """Executes query plans on a thread pool (see the module docstring)."""

    def __init__(
        self,
        registry,
        cache_setting: CacheSetting = CacheSetting.NO_CACHE,
        workers: int = 4,
        thread_overhead: float = 0.05,
        resilience: ResilienceConfig | None = None,
        row_provenance: bool = False,
    ) -> None:
        self._registry = registry
        self._cache_setting = cache_setting
        self._workers = max(1, workers)
        self._thread_overhead = thread_overhead
        #: Join/output/binding logic is delegated to a composed engine
        #: (PARALLEL mode: no feed shuffle, critical-path timing), so
        #: the two execution paths cannot drift apart.  The resilience
        #: config rides along: every row task drains its unit through
        #: the fetch seam the sequential engine uses, and demotions
        #: accumulate on the composed engine's routing.
        self._engine = ExecutionEngine(
            registry,
            cache_setting=cache_setting,
            mode=ExecutionMode.PARALLEL,
            thread_overhead=thread_overhead,
            resilience=resilience,
            row_provenance=row_provenance,
        )

    @property
    def workers(self) -> int:
        """The configured worker count (before the one-call clamp)."""
        return self._workers

    def effective_workers(self) -> int:
        """Workers actually used: 1 under the order-dependent one-call
        cache, the configured count otherwise."""
        if self._cache_setting is CacheSetting.ONE_CALL:
            return 1
        return self._workers

    def execute(
        self,
        plan: QueryPlan,
        head: Sequence[Variable] = (),
        k: int | None = None,
        reset_remote_caches: bool = True,
        shared_cache: LogicalCache | None = None,
    ) -> ExecutionResult:
        """Run *plan* on the pool and return ranked answers plus stats.

        The signature mirrors :meth:`ExecutionEngine.execute`; results
        are always fully materialized (``complete`` is True and no
        stream rides along — parallel dispatch and demand-driven
        laziness pull in opposite directions, so progressive sessions
        keep using the streamed engine).  A ``shared_cache`` is wrapped
        in a :class:`ThreadSafeCache` unless it already is one; stores
        reach the wrapped cache, so warming a long-lived serving cache
        works (:meth:`repro.serving.service.QueryService.prefetch`).
        """
        plan.validate()
        if reset_remote_caches:
            self._registry.reset_all()
        started = time.perf_counter()
        inner = (
            shared_cache
            if shared_cache is not None
            else make_cache(self._cache_setting)
        )
        cache = inner if isinstance(inner, ThreadSafeCache) else ThreadSafeCache(inner)
        workers = self.effective_workers()
        stats = ExecutionStats()
        stats.parallel_workers = workers
        # Partial-results restart loop (mirrors the engine's): a row
        # task that exhausts its retry budget raises
        # UnresponsiveService; every such failure still in flight is
        # drained, the units are demoted on the composed engine, and
        # the walk re-runs with the units masked — the shared cache
        # makes restarts cheap.  The stats object survives restarts so
        # aborted work stays counted.
        while True:
            outputs: dict[str, list[Row]] = {}
            busy: dict[str, float] = {}
            order = list(plan.topological_order())
            done: set[str] = set()
            #: Service nodes whose row tasks are submitted but not yet
            #: collected, in submission order.
            in_flight: list[tuple[ServiceNode, list]] = []
            failures: list[UnresponsiveService] = []
            with ThreadPoolExecutor(max_workers=workers) as pool:
                try:
                    while order or in_flight:
                        progressed = False
                        for node in list(order):
                            predecessors = plan.predecessors(node)
                            if any(
                                p.node_id not in done for p in predecessors
                            ):
                                continue
                            if isinstance(node, ServiceNode):
                                # Fan the node out per feed row;
                                # collection is deferred so sibling
                                # branches that become ready in this
                                # sweep overlap on the pool.
                                futures = self._submit_service_node(
                                    plan, node, outputs, cache, pool
                                )
                                in_flight.append((node, futures))
                                order.remove(node)
                                continue
                            if isinstance(node, InputNode):
                                outputs[node.node_id] = [Row()]
                                busy[node.node_id] = 0.0
                            elif isinstance(node, JoinNode):
                                outputs[node.node_id] = (
                                    self._engine._run_join_node(
                                        plan, node, outputs
                                    )
                                )
                                busy[node.node_id] = node.response_time
                            elif isinstance(node, OutputNode):
                                outputs[node.node_id] = (
                                    self._engine._run_output_node(
                                        plan, node, outputs
                                    )
                                )
                                busy[node.node_id] = 0.0
                            else:
                                raise ExecutionError(
                                    f"unknown node type {type(node).__name__}"
                                )
                            done.add(node.node_id)
                            order.remove(node)
                            progressed = True
                        if progressed:
                            continue
                        if not in_flight:  # pragma: no cover - cycle guard
                            raise ExecutionError("plan made no progress")
                        # Nothing inline-runnable: collect the oldest
                        # in-flight node (its successors may unblock
                        # further submissions while younger siblings
                        # keep computing).
                        node, futures = in_flight.pop(0)
                        rows, node_busy = self._collect_service_node(
                            node, futures, stats, workers
                        )
                        outputs[node.node_id] = rows
                        busy[node.node_id] = node_busy
                        done.add(node.node_id)
                except UnresponsiveService as error:
                    failures.append(error)
                    # Drain the remaining in-flight tasks: concurrent
                    # units may have exhausted their budgets too, and
                    # demoting them all now saves one restart each.
                    for _, futures in in_flight:
                        for future in futures:
                            try:
                                future.result()
                            except UnresponsiveService as also:
                                failures.append(also)
                            except Exception:
                                # Deterministic: recurs on the restart
                                # and propagates there if permanent.
                                pass
            if not failures:
                break
            for failure in failures:
                # Reroute-or-demote; stale failures (the unit already
                # moved to a sibling on an earlier iteration of this
                # drain) are dropped inside the handler.
                self._engine.routing.handle_unresponsive(failure)
        stats.elapsed = self._engine._elapsed(plan, busy)
        stats.wall_time = time.perf_counter() - started
        final_rows = compose_ranking(outputs[plan.output_node.node_id])
        return self._engine._result(plan, head, k, stats, outputs, final_rows)

    # -- service fan-out -----------------------------------------------------

    def _submit_service_node(
        self,
        plan: QueryPlan,
        node: ServiceNode,
        outputs: Mapping[str, list[Row]],
        cache: ThreadSafeCache,
        pool: ThreadPoolExecutor,
    ) -> list:
        """One pool task per feed row, in feed order.

        The node's fetch context is built here, on the scheduling
        thread, which also compiles the node against every layout the
        feed holds (one, for engine-produced feeds) and resolves each
        row's unit key — the row tasks only ever read the shared
        context.
        """
        feed_id = self._engine._feed_node(plan, node).node_id
        context = self._engine._node_fetch(node, cache)
        futures = []
        for row in outputs[feed_id]:
            _, input_key = context.compiled[row.layout].unit(row.values)
            futures.append(
                pool.submit(self._service_row_task, context, row, input_key)
            )
        return futures

    def _service_row_task(
        self, context: NodeFetch, row: Row, input_key: tuple
    ) -> tuple[list[Row], float, int, ExecutionStats]:
        """Resolve one feed row against its node (runs on a pool worker).

        Drains the row's unit through the engine's eager loop over a
        single-row feed, under the input setting's single-flight lock
        — held across the whole drain so concurrent duplicate settings
        cannot double-count a call.  Returns the produced rows, the
        row's remote busy time, whether it issued a remote call, and
        its task-local statistics.
        """
        local = ExecutionStats()
        with context.cache.key_lock(context.node.service_name, input_key):
            produced, row_busy = self._engine._drain_units(
                context, (row,), Accounting(local)
            )
        # The task touches exactly one logical unit, so the total is
        # that unit's calls no matter which service (the node's own or
        # a rerouted sibling) ended up serving it.
        return produced, row_busy, local.total_calls, local

    def _collect_service_node(
        self,
        node: ServiceNode,
        futures: list,
        stats: ExecutionStats,
        workers: int,
    ) -> tuple[list[Row], float]:
        """Await all row tasks, merging rows (feed order) and counters."""
        produced: list[Row] = []
        row_busys: list[float] = []
        remote_calls = 0
        for future in futures:
            rows, row_busy, calls, local = future.result()
            produced.extend(rows)
            if row_busy:
                row_busys.append(row_busy)
            remote_calls += calls
            stats.merge(local)
        if not row_busys:
            node_busy = 0.0
        elif workers > 1:
            # Concurrent rows overlap: the node is busy for its longest
            # row plus a dispatch overhead per remote call (the same
            # accounting the MULTITHREADED virtual mode applies).
            node_busy = max(row_busys) + self._thread_overhead * remote_calls
        else:
            node_busy = sum(row_busys)
        return produced, node_busy

"""Parallel plan execution on real threads (Section 6's multithreading).

The virtual-time engine *models* parallelism: under
``ExecutionMode.PARALLEL`` the elapsed time is the DAG critical path,
and under ``MULTITHREADED`` a node's busy time collapses to its
largest single call latency.  The paper's multithreading experiment,
though, is a statement about *real* execution — dispatching the
service calls of a plan to concurrent threads turned a 374 s run into
76 s.  :class:`ParallelExecutor` is that execution path.  It does not
walk plans: it is the *scheduler* of the engine's one walk
(:meth:`ExecutionEngine._execute`), submitting each service node's
feed rows to a ``ThreadPoolExecutor`` where the inline walk drains
them in place, and handing the walk a collector it calls at the node's
first consumer.  That overlaps both **independent plan branches** (the
walk's FIFO topological order starts sibling branches before it awaits
any of them) and the **per-feed-tuple service calls** within one node
— the dominant source of parallelism, since a proliferative feed turns
one node into hundreds of independent remote calls.

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
  accounting cell) and folded into the walk's with
  ``ExecutionStats.merge`` when the node is collected — all counters
  are sums, so merge order is irrelevant.  A task whose unit exhausts
  its retries hands its tally back *with* the failure, and the
  collector merges every task of the node before the engine's restart
  loop sees any failure, so aborted work stays counted exactly as on
  the inline walk;
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
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from typing import Sequence

from repro.execution.cache import (
    CacheSetting,
    LogicalCache,
    ThreadSafeCache,
    make_cache,
)
from repro.execution.engine import (
    Collect,
    ExecutionEngine,
    ExecutionMode,
    ExecutionResult,
)
from repro.execution.fetch import Accounting, RunContext, UnitSource
from repro.execution.program import ExecutionProgram, Step
from repro.execution.resilience import ResilienceConfig, UnresponsiveService
from repro.execution.results import Row
from repro.execution.stats import ExecutionStats
from repro.model.terms import Variable
from repro.plans.dag import QueryPlan


class ParallelExecutor:
    """Executes query plans on a thread pool (see the module docstring)."""

    def __init__(
        self,
        registry,
        cache_setting: CacheSetting = CacheSetting.NO_CACHE,
        workers: int = 4,
        resilience: ResilienceConfig | None = None,
        row_provenance: bool = False,
    ) -> None:
        self._cache_setting = cache_setting
        self._workers = max(1, workers)
        #: The engine whose walk this executor schedules (PARALLEL
        #: mode: no feed shuffle, critical-path timing).  Joins,
        #: restarts, routing and the result all stay there.
        self._engine = ExecutionEngine(
            registry,
            cache_setting=cache_setting,
            mode=ExecutionMode.PARALLEL,
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
        plan: QueryPlan | ExecutionProgram,
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
        started = time.perf_counter()
        inner = (
            shared_cache
            if shared_cache is not None
            else make_cache(self._cache_setting)
        )
        cache = inner if isinstance(inner, ThreadSafeCache) else ThreadSafeCache(inner)
        workers = self.effective_workers()
        with ThreadPoolExecutor(max_workers=workers) as pool:

            def schedule(
                context: RunContext,
                step: Step,
                feed: Sequence[Row],
                accounting: Accounting,
            ) -> Collect:
                # One task per feed row, submitted in feed order from
                # the walking thread, which also resolves each row's
                # unit key — the tasks only read the context.
                unit = step.binding.unit
                futures = [
                    pool.submit(
                        _row_task, context, step, row, unit(row.values)[1]
                    )
                    for row in feed
                ]
                return partial(self._collect, futures, accounting.stats)

            result = self._engine._execute(
                plan, head, k, reset_remote_caches, cache, schedule
            )
        result.stats.parallel_workers = workers
        result.stats.wall_time = time.perf_counter() - started
        return result

    def _collect(
        self,
        futures: list[Future],
        stats: ExecutionStats,
        failures: list[UnresponsiveService],
    ) -> tuple[list[Row], float]:
        """Await every row task of a node: rows in feed order, counters
        merged, exhausted units appended to *failures*."""
        produced: list[Row] = []
        row_busys: list[float] = []
        remote_calls = 0
        for future in futures:
            rows, row_busy, local, failure = future.result()
            stats.merge(local)
            if failure is not None:
                failures.append(failure)
                continue
            produced.extend(rows)
            if row_busy:
                row_busys.append(row_busy)
            # The task touches exactly one logical unit, so the total
            # is that unit's calls no matter which service (the node's
            # own or a rerouted sibling) ended up serving it.
            remote_calls += local.total_calls
        if not row_busys:
            return produced, 0.0
        if self.effective_workers() > 1:
            # Concurrent rows overlap: the node is busy for its longest
            # row plus a dispatch overhead per remote call.
            return produced, self._engine.overlapped_busy(row_busys, remote_calls)
        return produced, sum(row_busys)


def _row_task(
    context: RunContext, step: Step, row: Row, input_key: tuple
) -> tuple[list[Row], float, ExecutionStats, UnresponsiveService | None]:
    """Drain one feed row's unit (runs on a pool worker).

    Holds the input setting's single-flight lock across the whole
    drain, so concurrent duplicate settings cannot double-count a call.
    Returns the produced rows, the row's remote busy time, its
    task-local statistics and — when the unit exhausted its retries in
    partial-results mode — the failure, so the tally of the attempts
    that led to it is not lost with the exception.
    """
    local = ExecutionStats()
    produced: list[Row] = []
    latencies: list[float] = []
    failure = None
    with context.cache.key_lock(step.binding.service_name, input_key):
        try:
            UnitSource(context, step, row, Accounting(local)).drain(
                produced, latencies
            )
        except UnresponsiveService as error:
            failure = error
    return produced, sum(latencies), local, failure

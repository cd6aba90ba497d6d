"""Execution statistics: service calls, cache hits, and timings.

These counters regenerate the measurements of Figure 11: the number of
calls issued to each service under the various plans and cache
settings, and the total (virtual) execution time.

Terminology: a **call** is one input parameter setting submitted to the
remote service (what the paper's charts count); a **fetch** is one
remote page request — a chunked call with fetching factor ``F``
performs up to ``F`` fetches.  Calls fully absorbed by the logical
cache are counted as ``cache_hits`` and never reach the remote side.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ServiceCallStats:
    """Counters for one service within one execution.

    ``tuples_fetched`` counts the raw tuples received from the remote
    side (before binding and filtering) — the quantity lazy fetching
    reduces, and what the lazy bench compares against eager streaming.
    """

    calls: int = 0
    fetches: int = 0
    cache_hits: int = 0
    remote_cache_hits: int = 0
    busy_time: float = 0.0
    tuples_fetched: int = 0

    def record_fetch(
        self, latency: float, from_remote_cache: bool, tuples: int = 0
    ) -> None:
        """Account one remote page fetch returning *tuples* raw tuples."""
        self.fetches += 1
        self.busy_time += latency
        self.tuples_fetched += tuples
        if from_remote_cache:
            self.remote_cache_hits += 1


@dataclass
class ExecutionStats:
    """Per-service counters plus global totals for one execution.

    ``streamed_cells_visited`` / ``early_exit_cells_skipped`` trace the
    streamed top-k pipeline: how many candidate-plane cells the final
    join actually visited and how many it proved unable to enter the
    top-k without visiting them (for a service-terminal plan, whose
    pipe chain is the stream, a cell is a row of the terminal step).
    Both stay 0 for full-scan executions (and
    ``early_exit_cells_skipped`` is 0 whenever ``k`` covers the fetched
    plane, as proving a full-plane top-k complete requires visiting
    every cell).

    ``lazy_tuples_fetched`` / ``lazy_calls_saved`` trace demand-driven
    service fetching: raw tuples pulled through lazy input cursors,
    and budgeted page fetches those cursors never issued (the remote
    work early exit saved — an upper bound when a service would have
    run dry mid-budget, exact otherwise).  Both stay 0 when no input
    was fetched lazily.  On a resumed progressive round both counters
    are *deltas* against the suspended stream's cumulative totals — a
    resume that pulls pages an earlier round counted as saved reports
    a negative ``lazy_calls_saved`` — so summing either counter over a
    session's rounds always yields the stream's true current total.

    ``lazy_blocks`` / ``lazy_blocks_untouched`` are the per-block view
    of the same saving: a lazy cursor owns one budgeted block per feed
    tuple (one for single-feed nodes, many for multi-feed nodes of
    serial plans), and an *untouched* block never issued a single page
    fetch — its entire budget is remote work saved.  Over a chain of
    lazy steps a feed is itself fetched on demand, so all three count
    the feed tuples *known so far*, summed over every demand-driven
    step of the plan: a feed tuple the walk never pulled stands for no
    block yet, and the saving it implies shows in the fetch totals
    alone.
    """

    per_service: dict[str, ServiceCallStats] = field(default_factory=dict)
    elapsed: float = 0.0
    streamed_cells_visited: int = 0
    early_exit_cells_skipped: int = 0
    lazy_tuples_fetched: int = 0
    lazy_calls_saved: int = 0
    lazy_blocks: int = 0
    lazy_blocks_untouched: int = 0
    #: Raw tuples that flowed through the logical-cache layer this
    #: execution, whether served from the cache or fetched remotely.
    #: Unlike ``tuples_fetched`` this is *cache-independent*: two
    #: executions of the same plan with the same fetch state process
    #: the same tuples no matter how warm their caches are — which is
    #: what lets progressive fetch growth detect data exhaustion
    #: without misreading cache-absorbed rounds as "no more data".
    tuples_processed: int = 0
    #: Resilience-layer counters (:mod:`repro.execution.resilience`);
    #: all stay 0 when no resilience config is active — the bit-
    #: identity contract.  ``retries`` counts re-attempts taken after
    #: a transient page failure, ``retry_backoff`` the virtual seconds
    #: of backoff those re-attempts charged, ``wasted_fetches`` every
    #: remote round trip that failed — deliberately *not* part of the
    #: per-service ``fetches``, which count only the responses that
    #: arrived, so fault-free accounting differentials stay exact and
    #: ``invocations == fetches + wasted_fetches``.
    #: ``demoted_blocks`` is the number of units a partial-results run
    #: dropped (``len(certificate.dropped)``).
    retries: int = 0
    retry_backoff: float = 0.0
    wasted_fetches: int = 0
    demoted_blocks: int = 0
    #: Units a partial-results run rerouted onto a sibling service
    #: instead of dropping (``len(certificate.substituted)``).
    substituted_blocks: int = 0

    def service(self, name: str) -> ServiceCallStats:
        """The (auto-created) counters for service *name*."""
        if name not in self.per_service:
            self.per_service[name] = ServiceCallStats()
        return self.per_service[name]

    def calls(self, name: str) -> int:
        """Number of calls issued to service *name*."""
        return self.service(name).calls

    @property
    def total_calls(self) -> int:
        """Calls across all services."""
        return sum(s.calls for s in self.per_service.values())

    @property
    def total_fetches(self) -> int:
        """Remote page fetches across all services."""
        return sum(s.fetches for s in self.per_service.values())

    @property
    def total_cache_hits(self) -> int:
        """Logical-cache hits across all services."""
        return sum(s.cache_hits for s in self.per_service.values())

    @property
    def total_tuples_fetched(self) -> int:
        """Raw tuples received from remote services, across all services."""
        return sum(s.tuples_fetched for s in self.per_service.values())

    def busiest_service_time(self) -> float:
        """The longest per-service busy time: the virtual duration of
        work whose services ran on parallel branches."""
        return max((s.busy_time for s in self.per_service.values()), default=0.0)

    def summary(self) -> str:
        """Readable multi-line rendering."""
        lines = [f"elapsed: {self.elapsed:.1f}s  calls: {self.total_calls}"]
        if self.streamed_cells_visited or self.early_exit_cells_skipped:
            lines.append(
                f"  streamed: cells_visited={self.streamed_cells_visited}"
                f" early_exit_cells_skipped={self.early_exit_cells_skipped}"
            )
        if self.lazy_tuples_fetched or self.lazy_calls_saved:
            lines.append(
                f"  lazy: tuples_fetched={self.lazy_tuples_fetched}"
                f" calls_saved={self.lazy_calls_saved}"
            )
        if self.lazy_blocks:
            lines.append(
                f"  lazy blocks: {self.lazy_blocks}"
                f" untouched={self.lazy_blocks_untouched}"
            )
        if self.retries or self.wasted_fetches:
            lines.append(
                f"  resilience: retries={self.retries}"
                f" backoff={self.retry_backoff:.1f}s"
                f" wasted_fetches={self.wasted_fetches}"
            )
        if self.demoted_blocks or self.substituted_blocks:
            lines.append(
                f"  partial: demoted_blocks={self.demoted_blocks}"
                f" substituted_blocks={self.substituted_blocks}"
            )
        for name in sorted(self.per_service):
            stats = self.per_service[name]
            lines.append(
                f"  {name:<10} calls={stats.calls:<5} fetches={stats.fetches:<5}"
                f" cache_hits={stats.cache_hits:<5}"
                f" remote_hits={stats.remote_cache_hits:<5}"
                f" busy={stats.busy_time:.1f}s"
            )
        return "\n".join(lines)

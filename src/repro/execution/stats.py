"""Execution statistics: the per-step ledger of one execution.

These counters regenerate the measurements of Figure 11: the number of
calls issued to each service under the various plans and cache
settings, and the total (virtual) execution time.

Terminology: a **call** is one input parameter setting submitted to the
remote service (what the paper's charts count); a **fetch** is one
remote page request — a chunked call with fetching factor ``F``
performs up to ``F`` fetches.  Calls fully absorbed by the logical
cache are counted as ``cache_hits`` and never reach the remote side.

Every such fact is a column of one ledger, keyed by program step
(``Step.index``, the step's place in the program's topological order,
which is not always the plan position its node id names — map the two
by ``Step.node_id``): a
cell per ``(step, serving service)`` for the counters, and per step the
rows the walk emitted and the virtual clock.  Per-service totals are
sums over the cells, so a service called at two steps shows each step
on its own and their sum as the service's.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from typing import Iterable


@dataclass
class ServiceCallStats:
    """The counters of one ledger cell, or of a service's cells summed.

    ``tuples_fetched`` counts the raw tuples received from the remote
    side (before binding and filtering) — the quantity lazy fetching
    reduces, and what the lazy bench compares against eager streaming.
    ``busy_time`` is the remote latency charged, aborted walks of a
    partial-results restart included.
    """

    calls: int = 0
    fetches: int = 0
    cache_hits: int = 0
    remote_cache_hits: int = 0
    busy_time: float = 0.0
    tuples_fetched: int = 0


def _summed(cells: Iterable[ServiceCallStats]) -> ServiceCallStats:
    """Column sums of *cells*, in their order."""
    return ServiceCallStats(*(sum(column) for column in zip(*map(astuple, cells))))


#: A step's clock before its first remote page: ``(busy, longest, pulls)``.
IDLE = (0.0, 0.0, 0)


@dataclass
class ExecutionStats:
    """The ledger of one execution, plus its global counters.

    ``cells`` holds one :class:`ServiceCallStats` per ``(step index,
    serving service)`` — a unit rerouted onto a sibling charges the
    sibling's cell at the same step.  Only the fetch seam
    (``UnitSource.fetch``, through :meth:`cell` and :meth:`charge`)
    writes them; an eagerly run step opens its original service's cell
    before fetching, so it is listed even when it fetched nothing, and
    a demand-driven step's service appears once touched.  A
    partial-results restart keeps its cells, so aborted walks stay
    counted.  ``rows_out`` is written by the walk once it completes
    (empty on a resumed round, which re-runs no step).  ``clock`` is
    what virtual time reads (:func:`repro.execution.engine.elapsed`):
    per step, ``(busy, longest, pulls)`` over the remote pages of the
    current walk only — the latencies summed in pull order, the
    longest one, and their count.

    Demand-driven execution keeps no books of its own: what a lazy or
    streamed walk pulled, and what it left unpulled, are reads of this
    ledger — the fetches, tuples, calls and hits of its steps' cells,
    and ``rows_out`` of their feeders (a feed row no call or hit
    answered is a block that never fetched) — set against an eager run
    of the same plan for the work it saved.
    """

    cells: dict[tuple[int, str], ServiceCallStats] = field(default_factory=dict)
    rows_out: list[int] = field(default_factory=list)
    clock: dict[int, tuple[float, float, int]] = field(default_factory=dict)
    elapsed: float = 0.0
    #: Raw tuples that flowed through the logical-cache layer this
    #: execution, whether served from the cache or fetched remotely.
    #: Unlike ``tuples_fetched`` this is *cache-independent*: two
    #: executions of the same plan with the same fetch state process
    #: the same tuples no matter how warm their caches are — which is
    #: what lets progressive fetch growth detect data exhaustion
    #: without misreading cache-absorbed rounds as "no more data".
    tuples_processed: int = 0
    #: Resilience-layer counters (:mod:`repro.execution.resilience`);
    #: all stay 0 while every page pull succeeds — the bit-identity
    #: contract.  ``retries`` counts re-attempts taken after
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

    def cell(self, step: int, service: str) -> ServiceCallStats:
        """The (auto-created) cell of *service* serving step *step*."""
        key = (step, service)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = ServiceCallStats()
        return cell

    def charge(
        self, cell: ServiceCallStats, step: int, latency: float,
        from_remote_cache: bool, tuples: int,
    ) -> None:
        """Account one remote page of *tuples* raw tuples: on *cell*
        (which serves *step*) and on the step's clock."""
        cell.fetches += 1
        cell.busy_time += latency
        cell.tuples_fetched += tuples
        if from_remote_cache:
            cell.remote_cache_hits += 1
        busy, longest, pulls = self.clock.get(step, IDLE)
        self.clock[step] = (busy + latency, max(longest, latency), pulls + 1)

    @property
    def per_service(self) -> dict[str, ServiceCallStats]:
        """Every serving service's cells summed, in order of first use."""
        names = dict.fromkeys(name for _, name in self.cells)
        return {name: self.service(name) for name in names}

    def service(self, name: str) -> ServiceCallStats:
        """Service *name*'s counters, summed over the steps it served."""
        return _summed(
            cell for (_, served), cell in self.cells.items() if served == name
        )

    def calls(self, name: str) -> int:
        """Number of calls issued to service *name*."""
        return self.service(name).calls

    @property
    def total_calls(self) -> int:
        """Calls across all services."""
        return sum(cell.calls for cell in self.cells.values())

    @property
    def total_fetches(self) -> int:
        """Remote page fetches across all services."""
        return sum(cell.fetches for cell in self.cells.values())

    @property
    def total_cache_hits(self) -> int:
        """Logical-cache hits across all services."""
        return sum(cell.cache_hits for cell in self.cells.values())

    @property
    def total_tuples_fetched(self) -> int:
        """Raw tuples received from remote services, across all services."""
        return sum(cell.tuples_fetched for cell in self.cells.values())

    def summary(self) -> str:
        """Readable multi-line rendering."""
        lines = [f"elapsed: {self.elapsed:.1f}s  calls: {self.total_calls}"]
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
        per_service = self.per_service
        for name in sorted(per_service):
            stats = per_service[name]
            lines.append(
                f"  {name:<10} calls={stats.calls:<5} fetches={stats.fetches:<5}"
                f" cache_hits={stats.cache_hits:<5}"
                f" remote_hits={stats.remote_cache_hits:<5}"
                f" busy={stats.busy_time:.1f}s"
            )
        return "\n".join(lines)

"""The multi-tenant query-serving facade.

:class:`QueryService` turns the one-shot optimize-then-execute
pipeline into a server: ``submit(query, k)`` answers with the top-k
rows plus a session id, ``ask_for_more(session_id)`` continues a
suspended session, and repeated traffic is amortized three ways —

* the **plan cache** (:mod:`repro.serving.plan_cache`) skips the
  branch-and-bound search entirely when the normalized query
  fingerprint + registry epoch + (metric, k, cache setting) were seen
  before, in this process or a previous one;
* the **shared service cache** — one
  :class:`~repro.execution.cache.LogicalCache` spanning *all* requests
  and sessions, so a page fetched for one tenant answers every later
  overlapping call for free;
* **progressive sessions** (:mod:`repro.serving.sessions`) — each
  submission leaves a suspended stream behind, so asking for more
  resumes instead of re-optimizing or re-executing.

Responses are plain data (:class:`QueryResponse`,
``to_dict``/``to_json``): projected rows, composed ranks, execution
statistics, and *cache provenance* — whether the plan came from the
optimizer, the memory tier, or the disk tier.

**Equivalence contract**: a plan-cache hit runs the entry's compiled
:class:`~repro.execution.program.ExecutionProgram` (a disk hit compiles
it from the stored :class:`~repro.plans.spec.PlanSpec` once) against
the shared caches; the produced rows, ranks, and order are
bit-identical to a cold optimize+execute on a fresh service (the
hypothesis suite in ``tests/test_serving.py`` enforces this
differentially).

**Concurrency contract**: one :class:`QueryService` may be driven by
any number of client threads.  Shared state is guarded piecewise —
the plan cache and its stats behind the cache's internal lock, the
session registry behind the manager's lock, the shared service cache
behind a :class:`~repro.execution.cache.ThreadSafeCache` wrapper, and
the serving counters behind a stats lock — and plan resolution is
**single-flight per key**: concurrent submissions of the same
(query, context) serialize on a per-key mutex held across the whole
lookup → optimize → store critical section, so the optimizer runs at
most once per key per race and hit/miss accounting matches a
sequential replay exactly.  Answers need no such argument: they are a
pure function of (registry content, query, k) — logical caches change
call counts, never tuples — so any interleaving is bit-identical to
the sequential schedule (``tests/test_serving_concurrency.py`` and
the serving bench's worker sweep pin both properties).  The lock
order is plan cache → sessions → service cache; no code path acquires
in the opposite direction, so the layer cannot deadlock (see
``docs/ARCHITECTURE.md``, "Concurrency").
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.costs.base import CostMetric
from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import (
    CacheSetting,
    KeyedMutex,
    ThreadSafeCache,
    make_cache,
)
from repro.execution.engine import ExecutionMode, ExecutionResult
from repro.execution.fetch import UnitRouting
from repro.execution.program import ExecutionProgram
from repro.execution.progressive import ProgressiveExecutor, ProgressiveRound
from repro.execution.resilience import ResilienceConfig
from repro.model.parser import parse_query
from repro.model.query import ConjunctiveQuery
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.plans.spec import PlanSpec
from repro.serving.breaker import CircuitBreaker
from repro.serving.fingerprint import (
    optimizer_config_token,
    plan_cache_key,
    query_fingerprint,
)
from repro.serving.plan_cache import PlanCache
from repro.serving.sessions import SessionError, SessionManager
from repro.services.registry import AdjustedRegistry, ServiceRegistry

#: Every request is planned with the optimizer's defaults and runs
#: streamed (so a session suspends cheaply) over an optimal logical
#: cache; the plan-cache key still carries both, as it always has.
OPTIMIZER_CONFIG = OptimizerConfig()
CACHE_SETTING = CacheSetting.OPTIMAL
_CONFIG_TOKEN = optimizer_config_token(OPTIMIZER_CONFIG)


@dataclass(frozen=True)
class QueryResponse:
    """One JSON-serializable answer to ``submit``/``ask_for_more``.

    ``rows`` are the projected head tuples in composed rank order;
    ``rank_keys`` the aggregated rank of each row; ``ranks`` the
    per-row provenance (``(node_id, service rank index)`` pairs).
    ``provenance`` records where the plan came from: ``"optimized"``
    (cache miss, branch-and-bound ran), ``"memory"`` / ``"disk"``
    (plan-cache tiers), or ``"session"`` (a resumed continuation —
    no plan lookup at all).

    ``partial`` is the partial-result certificate of a service running
    with ``ResilienceConfig(partial_results=True)``: which service
    units were dropped by exhausted retries and which blocks produced
    each answer (see
    :class:`~repro.execution.resilience.PartialResultCertificate`).
    ``None`` when partial mode is off; a dict with ``"partial": False``
    and no drops is a completeness witness.

    ``row_provenance`` is the opt-in per-row audit trail
    (``QueryService(row_provenance=True)``): one record list per
    answer row, each record a dict with ``service`` (service name),
    ``input`` (the ``[pattern code, [[position, value], ...]]`` cache
    key the call was made under), ``page`` (the 0-based page index the
    tuple came from), and ``epoch`` (the registry content epoch the
    answer was computed against).  ``None`` when disabled — and the
    key is then omitted from :meth:`to_dict`/:meth:`to_json` entirely,
    so disabled responses are byte-identical to pre-provenance ones.
    """

    session_id: str
    k: int
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    rank_keys: tuple[int, ...]
    ranks: tuple[tuple[tuple[str, int], ...], ...]
    complete: bool
    provenance: str
    #: Estimated cost of the served plan; None for session resumes
    #: (no plan was looked up or costed).
    plan_cost: float | None
    metric: str
    fingerprint: str
    epoch: str
    stats: dict
    partial: dict | None = None
    row_provenance: tuple[tuple[dict, ...], ...] | None = None

    def to_dict(self) -> dict:
        """Plain-data rendering (everything JSON-serializable)."""
        rendered = {
            "session_id": self.session_id,
            "k": self.k,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "rank_keys": list(self.rank_keys),
            "ranks": [
                [[node_id, rank] for node_id, rank in row_ranks]
                for row_ranks in self.ranks
            ],
            "complete": self.complete,
            "provenance": self.provenance,
            "plan_cost": self.plan_cost,
            "metric": self.metric,
            "fingerprint": self.fingerprint,
            "epoch": self.epoch,
            "stats": self.stats,
            "partial": self.partial,
        }
        # Omitted (not null) when disabled: the rendering of a
        # provenance-off response must not change by a byte.
        if self.row_provenance is not None:
            rendered["row_provenance"] = [
                list(row_records) for row_records in self.row_provenance
            ]
        return rendered

    def to_json(self) -> str:
        """The response as a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True, default=str)


@dataclass
class ServingStats:
    """Request-level accounting for one :class:`QueryService`.

    Mutated only under the service's stats lock; read freely (every
    field is a single int, and snapshots tolerate being one increment
    behind a concurrent request).
    """

    requests: int = 0
    continuations: int = 0
    optimizer_runs: int = 0
    optimizer_annotate_calls: int = 0
    #: Phase-3 fetch vectors run through annotation programs, the
    #: programs compiled from a whole plan and the atoms placed on open
    #: plans (``SearchStats``): the estimation work
    #: ``optimizer_annotate_calls`` does not see.
    optimizer_fetch_vectors_evaluated: int = 0
    optimizer_programs_compiled: int = 0
    optimizer_atoms_placed: int = 0
    #: Mid-run plan splices performed by adaptive executions.
    replans: int = 0

    def to_dict(self) -> dict:
        """JSON-serializable snapshot."""
        return {
            "requests": self.requests,
            "continuations": self.continuations,
            "optimizer_runs": self.optimizer_runs,
            "optimizer_annotate_calls": self.optimizer_annotate_calls,
            "optimizer_fetch_vectors_evaluated": (
                self.optimizer_fetch_vectors_evaluated
            ),
            "optimizer_programs_compiled": self.optimizer_programs_compiled,
            "optimizer_atoms_placed": self.optimizer_atoms_placed,
            "replans": self.replans,
        }


@dataclass
class QueryService:
    """Serves queries over one registry with shared caches + sessions.

    ``plan_cache`` may be shared between several services (a fleet of
    tenants over different registries): keys embed each registry's
    content epoch, so entries never cross tenants, and per-tenant
    store quotas (``PlanCache(tenant_quota=...)``) keep one tenant
    from flooding the shared store — this service tags its stores
    with the registry epoch (one quota bucket per registry content
    version).  All public methods are thread-safe (see the module
    docstring for the locking structure).
    """

    registry: ServiceRegistry
    metric: CostMetric = field(default_factory=ExecutionTimeMetric)
    k_default: int = 10
    plan_cache: PlanCache = field(default_factory=PlanCache)
    #: One logical cache across all requests; False gives each session
    #: a private cache (the no-sharing baseline).
    share_service_cache: bool = True
    #: Admission control for the shared service cache: at most this
    #: many cached pages, evicted LRU-first (None: unbounded — fine
    #: for experiments, a leak for a long-lived server).  Eviction can
    #: only cost extra remote calls, never change answers.
    service_cache_capacity: int | None = None
    #: Retry/partial-results behavior for every execution this
    #: service runs (:mod:`repro.execution.resilience`); None serves
    #: with the historical fail-fast engine, bit-identically.
    resilience: ResilienceConfig | None = None
    #: Opt-in per-row provenance: responses carry, for every answer
    #: row, the ``(service, input key, page, epoch)`` records of the
    #: service pulls that produced it.  Answer rows, ranks, and order
    #: are unchanged either way (provenance is an audit trail the
    #: engine threads through :class:`~repro.execution.results.Row`);
    #: disabled responses render byte-identically to before.
    row_provenance: bool = False
    #: Opt-in mid-flight adaptivity (:mod:`repro.serving.breaker`):
    #: the per-service circuit breakers accumulate observed health
    #: across requests and feed adjusted response times back into plan
    #: costs, executions re-plan when a service turns slow mid-run
    #: (:class:`~repro.execution.progressive.ProgressiveExecutor`), and
    #: open breakers reroute onto registered sibling services.  Runs
    #: in partial-results mode, where substitutions are recorded.
    #: None keeps the static serving path, bit-identically.
    breaker: CircuitBreaker | None = None
    sessions: SessionManager = field(default_factory=SessionManager, init=False)
    stats: ServingStats = field(default_factory=ServingStats, init=False)

    def __post_init__(self) -> None:
        # Adaptive serving needs partial-results accounting: the
        # certificate is where substitutions are recorded.
        self._exec_resilience = self.resilience
        if self.breaker is not None:
            self._exec_resilience = replace(
                self.resilience or ResilienceConfig(), partial_results=True
            )
        # The shared cache is hit by every client thread, so it is
        # always lock-wrapped.
        self._service_cache: ThreadSafeCache | None = (
            ThreadSafeCache(
                make_cache(CACHE_SETTING, capacity=self.service_cache_capacity)
            )
            if self.share_service_cache
            else None
        )
        self._stats_lock = threading.Lock()
        # Single-flight for plan resolution: one mutex per plan-cache
        # key *currently being resolved*, so fresh-constant traffic (a
        # new key per request) leaves nothing behind.
        self._plan_locks = KeyedMutex()

    # -- the request surface --------------------------------------------

    def submit(
        self, query: ConjunctiveQuery | str, k: int | None = None
    ) -> QueryResponse:
        """Answer the top-``k`` of *query*, opening a session.

        Accepts a parsed :class:`ConjunctiveQuery` or datalog text.
        The plan is taken from the plan cache when the fingerprint and
        optimization context match; otherwise the optimizer runs and
        its decisions are stored for every later submission.
        """
        if isinstance(query, str):
            query = parse_query(query)
        k = self.k_default if k is None else k
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        with self._stats_lock:
            self.stats.requests += 1
        plan, cost, provenance, fingerprint, epoch, annotate_calls = (
            self._resolve_plan(query, k, registry=self._planning_registry())
        )
        executor = self._make_executor(query, plan, k)
        result = executor.run(k)
        self._feed_breaker(executor.rounds, result)
        replans = executor.replans
        if replans:
            with self._stats_lock:
                self.stats.replans += replans
        session = self.sessions.create(
            query=query, executor=executor, delivered=len(result.rows),
            epoch=epoch,
        )
        return self._respond(
            session.session_id, query, result, k, provenance, cost,
            fingerprint, epoch, annotate_calls, executor.rounds,
            replans=replans,
        )

    def ask_for_more(
        self, session_id: str, additional: int | None = None
    ) -> QueryResponse:
        """Continue a session: *additional* more answers (default k).

        Raises :class:`~repro.serving.sessions.SessionError` when the
        session is unknown, expired, or released — the caller then
        re-submits (which is exactly one plan-cache hit away from the
        continuation it lost).  Concurrent resumes of the *same*
        session serialize on the session's lock (the suspended stream
        is single-consumer); different sessions resume in parallel.
        """
        additional = self.k_default if additional is None else additional
        if additional < 1:
            raise ValueError(f"additional must be >= 1, got {additional}")
        session = self.sessions.get(session_id)
        with session.lock:
            executor = session.executor
            if executor is None:  # released between get() and here
                raise SessionError(
                    f"session {session_id!r} is unknown, expired, or released"
                )
            with self._stats_lock:
                self.stats.requests += 1
                self.stats.continuations += 1
            rounds_before = len(executor.rounds)
            replans_before = executor.replans
            result = executor.more(additional)
            new_rounds = executor.rounds[rounds_before:]
            self._feed_breaker(new_rounds, result)
            replans = executor.replans - replans_before
            if replans:
                with self._stats_lock:
                    self.stats.replans += replans
            session.delivered = len(result.rows)
            query = session.query
            # The epoch pinned at submit time, NOT the registry's
            # current one: the continuation still executes the plan it
            # was created with, so a mid-session registry update must
            # not relabel its answers as computed under the new epoch.
            return self._respond(
                session_id, query, result, session.delivered, "session",
                None, query_fingerprint(query),
                session.epoch, 0,
                new_rounds,
                replans=replans,
            )

    def release(self, session_id: str) -> bool:
        """Close a session's continuation state; False when unknown."""
        return self.sessions.release(session_id)

    def snapshot(self) -> dict:
        """JSON-serializable state of the whole serving layer."""
        with self._stats_lock:
            serving = self.stats.to_dict()
        state = {
            "serving": serving,
            "plan_cache": self.plan_cache.stats.to_dict(),
            "sessions": {
                "active": len(self.sessions),
                **self.sessions.stats.to_dict(),
            },
        }
        if self._service_cache is not None:
            # The optimal cache inside the lock wrapper.
            inner = self._service_cache.inner
            state["service_cache"] = {
                "type": type(inner).__name__,
                "entries": len(inner),
                "capacity": inner.capacity,
                "evictions": inner.evictions,
            }
        if self.breaker is not None:
            with self._stats_lock:
                state["breaker"] = self.breaker.snapshot()
        return state

    # -- internals -------------------------------------------------------

    def _resolve_plan(
        self, query: ConjunctiveQuery, k: int, registry
    ) -> tuple:
        """Plan *query* through the shared plan cache (optimize on miss).

        Returns ``(program, cost, provenance, fingerprint, epoch,
        annotate_calls)`` — the request-independent half of
        :meth:`submit`.  The program is the plan-cache entry's, shared
        with every other user of the key; it is written in the
        variables of the query that first compiled it, which by the
        fingerprint equal this query's up to renaming (:meth:`_respond`
        projects by its head).

        ``registry`` is what the plan is costed against:
        :meth:`_planning_registry` for a submission, the drift-adjusted
        view for a re-plan.  An
        :class:`~repro.services.registry.AdjustedRegistry` view costs
        plans at observed response times, and its adjusted content
        epoch keys those plans separately, so they never poison the
        unadjusted epoch's cache entries.

        The per-key mutex is held across the whole lookup → optimize →
        store window, so of N threads racing a cold key exactly one
        optimizes and stores while the other N-1 block and then hit
        the just-stored entry — ``optimizer_runs`` and plan-cache
        hit/miss/store counts match a sequential replay under any
        schedule.  Plan *building* (spec → fresh plan objects) happens
        outside the mutex: it touches no shared mutable state.
        """
        fingerprint = query_fingerprint(query)
        epoch = registry.content_epoch()
        key = plan_cache_key(
            fingerprint, epoch, self.metric.name, k,
            CACHE_SETTING.value, _CONFIG_TOKEN,
        )
        annotate_calls = 0
        head = tuple(query.head)
        with self._plan_locks.holding(key):
            hit = self.plan_cache.lookup(key)
            if hit is not None:
                cost = hit.cost
                provenance = hit.tier
                program = hit.program
                if program is None:
                    program = ExecutionProgram.compile(
                        hit.spec.build(query, registry), head
                    )
                    self.plan_cache.attach(key, program)
            else:
                config = replace(
                    OPTIMIZER_CONFIG, k=k, cache_setting=CACHE_SETTING
                )
                optimized = Optimizer(
                    registry, self.metric, config
                ).optimize(query)
                program = ExecutionProgram.compile(optimized.plan, head)
                cost = optimized.cost
                provenance = "optimized"
                search = optimized.stats
                annotate_calls = search.annotate_calls
                with self._stats_lock:
                    self.stats.optimizer_runs += 1
                    self.stats.optimizer_annotate_calls += annotate_calls
                    self.stats.optimizer_fetch_vectors_evaluated += (
                        search.fetch_vectors_evaluated
                    )
                    self.stats.optimizer_programs_compiled += (
                        search.programs_compiled
                    )
                    self.stats.optimizer_atoms_placed += search.atoms_placed
                self.plan_cache.store(
                    key, PlanSpec.from_optimized(optimized), cost,
                    self.metric.name, epoch,
                    tenant=epoch, program=program,
                )
        return program, cost, provenance, fingerprint, epoch, annotate_calls

    # -- adaptivity ------------------------------------------------------

    def _planning_registry(self):
        """The registry view plans are costed against right now.

        The base registry, except when the breaker holds observed
        response-time overrides for currently *open* services — then
        an :class:`AdjustedRegistry` view raising those services'
        costed response times (and folding the overrides into the
        content epoch).
        """
        if self.breaker is None:
            return self.registry
        overrides = self.breaker.response_time_overrides()
        if not overrides:
            return self.registry
        return AdjustedRegistry(self.registry, overrides)

    def _make_executor(
        self, query: ConjunctiveQuery, plan: ExecutionProgram, k: int
    ) -> ProgressiveExecutor:
        """The per-submission executor: re-planning on drift when
        adaptive."""

        def replan(observed: dict) -> ExecutionProgram | None:
            # Merge breaker knowledge (cross-request) with this run's
            # drift observations, re-resolve through the plan cache
            # under the adjusted view; the adjusted epoch keys the
            # spliced plan separately.
            merged = dict(self.breaker.response_time_overrides())
            merged.update(observed)
            view = AdjustedRegistry(self.registry, merged)
            new_plan, _, _, _, _, _ = self._resolve_plan(
                query, k, registry=view
            )
            return new_plan

        executor = ProgressiveExecutor(
            registry=self.registry,
            plan=plan,
            mode=ExecutionMode.STREAMED,
            cache_setting=CACHE_SETTING,
            shared_cache=self._service_cache,
            reset_remote=False,
            resilience=self._exec_resilience,
            row_provenance=self.row_provenance,
            replan=replan if self.breaker is not None else None,
        )
        self._apply_breaker_routing(executor.engine.routing, plan)
        return executor

    def _apply_breaker_routing(
        self, routing: UnitRouting, plan: ExecutionProgram
    ) -> None:
        """Reroute breaker-open services onto healthy siblings up front.

        A unit of an open service would otherwise burn a full retry
        budget before sibling fallback kicks in; pre-substituting
        serves it from the sibling from the first fetch.  Recorded on
        the certificate exactly like a failure-driven substitution.
        """
        if self.breaker is None:
            return
        down = self.breaker.open_services()
        for name in down:
            codes = plan.pattern_codes(name)
            if not codes:
                continue
            sibling = routing.sibling(name, codes, avoid=down)
            if sibling is not None:
                routing.substitute_service(name, sibling)

    def _feed_breaker(
        self, rounds: Sequence[ProgressiveRound], result: ExecutionResult
    ) -> None:
        """Fold one request's observed service health into the breaker.

        Per service: total remote fetches and mean fetch latency over
        the request's rounds (compared against the *default-pattern*
        profiled response time — the profile the service registered
        as its statistical norm), plus whether the service failed the
        request — its units dropped by partial results *or* served by
        a sibling (a substitution is a failure of the original, even
        though the answer survived).  Services the request never
        touched are not reported (no traffic proves nothing).
        """
        if self.breaker is None:
            return
        totals: dict[str, tuple[int, float]] = {}
        for r in rounds:
            if r.stats is None:
                continue
            for name, per_service in r.stats.per_service.items():
                fetches, busy = totals.get(name, (0, 0.0))
                totals[name] = (
                    fetches + per_service.fetches,
                    busy + per_service.busy_time,
                )
        unhealthy: set[str] = set()
        certificate = result.certificate
        if certificate is not None:
            unhealthy = set(certificate.dropped_services) | {
                unit.service for unit in certificate.substituted
            }
        with self._stats_lock:
            for name in sorted(set(totals) | unhealthy):
                fetches, busy = totals.get(name, (0, 0.0))
                self.breaker.record(
                    name,
                    fetches=fetches,
                    mean_latency=busy / fetches if fetches else None,
                    expected=self.registry.profile(name).response_time,
                    dropped=name in unhealthy,
                )

    def _respond(
        self,
        session_id: str,
        query: ConjunctiveQuery,
        result: ExecutionResult,
        k: int,
        provenance: str,
        cost: float | None,
        fingerprint: str,
        epoch: str,
        annotate_calls: int,
        rounds: Sequence[ProgressiveRound],
        replans: int = 0,
    ) -> QueryResponse:
        top = result.table.top(k)
        # A request that grew through several progressive rounds did
        # the work of *all* of them — each round's statistics object
        # is fresh, so totals are summed over the request's rounds,
        # not read off the final result alone.
        round_stats = [r.stats for r in rounds if r.stats is not None]
        stats = {
            "service_calls": sum(s.total_calls for s in round_stats),
            "page_fetches": sum(s.total_fetches for s in round_stats),
            "cache_hits": sum(s.total_cache_hits for s in round_stats),
            "tuples_fetched": sum(
                s.total_tuples_fetched for s in round_stats
            ),
            "elapsed_virtual_s": round(
                sum(s.elapsed for s in round_stats), 6
            ),
            "rounds": len(rounds),
            "annotate_calls": annotate_calls,
            "answers_available": len(result.rows),
            # Resilience-layer trace (all 0 when no config is active):
            # wasted work never enters the per-service accounting above.
            "retries": sum(s.retries for s in round_stats),
            "wasted_fetches": sum(s.wasted_fetches for s in round_stats),
            # Adaptivity trace (0 when adaptive serving is off): plan
            # splices this request performed, and units served by a
            # sibling instead of being dropped.
            "replans": replans,
            "substituted_blocks": max(
                (s.substituted_blocks for s in round_stats), default=0
            ),
        }
        certificate = result.certificate
        row_provenance = (
            tuple(self._provenance_records(row, epoch) for row in top)
            if self.row_provenance
            else None
        )
        return QueryResponse(
            session_id=session_id,
            k=k,
            columns=tuple(variable.name for variable in query.head),
            # The executed program's head: the query's own variables,
            # or those of the renaming-equivalent query that compiled it.
            rows=tuple(row.project(result.table.head) for row in top),
            rank_keys=tuple(row.rank_key() for row in top),
            ranks=tuple(row.ranks for row in top),
            complete=result.table.complete,
            provenance=provenance,
            plan_cost=cost,
            metric=self.metric.name,
            fingerprint=fingerprint,
            epoch=epoch,
            stats=stats,
            partial=certificate.to_dict() if certificate else None,
            row_provenance=row_provenance,
        )

    @staticmethod
    def _provenance_records(row, epoch: str) -> tuple[dict, ...]:
        """One answer row's provenance, JSON-ready and epoch-stamped.

        Each engine record is ``(service, (pattern, ((pos, value),
        ...)), page)``; the rendering stamps the registry content epoch
        the answer was computed against, giving the
        ``(service, input key, page index, epoch)`` record format.
        """
        return tuple(
            {"epoch": epoch, "input": input_key, "page": page, "service": service}
            for service, input_key, page in row.provenance
        )

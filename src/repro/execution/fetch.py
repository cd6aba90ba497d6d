"""The fetch seam: one path for every service page the engine pulls.

The paper's engine pays for and counts exactly one thing — a service
*call* made of up to ``F`` page *fetches* through the logical cache
(Sections 5–6, Figure 11).  Every page of every execution style goes
through :meth:`UnitSource.fetch`: the eager loop drains a unit's
budget, the lazy cursors hold the same unit as their
:class:`~repro.execution.lazy.PageSource` and pull on the streamed
walk's demand, and a resumed stream keeps pulling from the units it
was suspended with.

Three objects own the seam's state:

* :class:`RunContext` — what is constant for one walk of a compiled
  program (:mod:`repro.execution.program`): the run's fetch vector and
  registry, the logical cache, resilience config and drift monitor;
* :class:`UnitSource` — the ``(service, input setting)`` unit one
  feed record addresses; opening it **masks**, then **routes**, and its
  ``fetch(page)`` does, in this order, **lookup** → **resilient
  fetch** → **store** → **charge** → **observe** → **call/hit
  accounting** → **bind** (one record per surviving tuple, its page
  slot the page index), the counters going to its cell of the
  execution's ledger (:class:`~repro.execution.stats.ExecutionStats`).
  Retries sit *below* the store: only the response that arrived is
  ever stored or counted, so a retried pull can neither double-store a
  page nor double-count a call;
* :class:`Accounting` — which ledger all units of one execution
  charge to.  Resuming a suspended stream is one :meth:`Accounting.rebind`:
  every page pulled afterwards — its retries, wasted fetches and
  backoff included — lands on the resuming round's statistics, and
  the round that created the stream is never mutated.

:class:`UnitRouting` holds what outlives a single execution: which
units are demoted (masked) and which are served by a sibling service.
An engine keeps one for its lifetime, and a session keeps its engine
across drift splices, so a re-plan carries nothing over by hand.

:func:`page_records` reads an answer's page pulls back off its record
chain, only when a response renders them or a partial-result
certificate attributes the answer to its units: the feed record, the
page slot and the step's binding are all a pull left behind.  It is the
one way from a record to its unit.
"""

from __future__ import annotations

from typing import Collection, Iterable, NamedTuple, Sequence

from repro.execution.cache import LogicalCache
from repro.execution.lazy import FetchedPage
from repro.execution.resilience import (
    DriftMonitor,
    PartialResultCertificate,
    ResilienceConfig,
    UnresponsiveService,
    build_certificate,
    resilient_fetch,
)
from repro.execution.program import ExecutionProgram, Step
from repro.execution.results import Record, Row
from repro.execution.slots import ServiceBinding, unit_input_key
from repro.execution.stats import ExecutionStats
from repro.services.registry import ServiceRegistry

Unit = tuple[str, tuple]

#: One page pull behind an answer: ``(service name, input key, page)``
#: — which service invocation (with which bound inputs) and which page
#: of its chunked output contributed a tuple to the row.  The input
#: key is the ``(pattern code, ((position, value), ...))`` key
#: :class:`UnitSource` caches and accounts the unit under, so a record
#: names exactly one logical-cache unit and one
#: :class:`PartialResultCertificate` block.
ProvenanceRecord = tuple[str, tuple, int]

#: What a unit has charged in its current accounting epoch.
_NOTHING, _HIT, _CALL = 0, 1, 2


class Accounting:
    """The ledger every unit of one execution charges to, by epoch.

    ``epoch`` numbers the rounds charged so far.  Call/hit accounting
    is per unit *per epoch* (the first remote page of an epoch counts
    one call; an epoch served purely from the logical cache counts one
    hit), so :meth:`rebind` is all a resumed round needs: units notice
    the new epoch on their next fetch and start counting afresh on the
    new statistics.
    """

    __slots__ = ("stats", "epoch")

    def __init__(self, stats: ExecutionStats) -> None:
        self.stats = stats
        self.epoch = 0

    def rebind(self, stats: ExecutionStats) -> None:
        """Charge every later page to *stats* (a resumed round)."""
        self.stats = stats
        self.epoch += 1


class UnitRouting:
    """Demotions and sibling substitutions of ``(service, input)`` units.

    All tables start empty, and while they are the per-row hot paths
    consult none of them — a run without failures or adaptivity is
    bit-identical to one without routing at all.
    """

    def __init__(
        self, registry: ServiceRegistry, resilience: ResilienceConfig
    ) -> None:
        self._registry = registry
        self._resilience = resilience
        #: Units demoted by exhausted retries in partial-results mode
        #: (progressive rounds must not re-await a block proven dead).
        self.demoted: dict[Unit, UnresponsiveService] = {}
        #: Per-unit reroutes (original unit -> serving service name),
        self._substituted: dict[Unit, str] = {}
        #: whole-service reroutes (circuit breaker opened the service),
        self._service_substitutions: dict[str, str] = {}
        #: servers that already failed each unit (so a failing sibling
        #: advances to the next candidate instead of ping-ponging),
        self._failed_servers: dict[Unit, set[str]] = {}
        #: reverse map (serving service, input key) -> original unit,
        #: so a sibling's own failure resolves to the unit it serves,
        self._origin: dict[Unit, Unit] = {}
        #: and reroutes that actually served pages, for the
        #: certificate's ``substituted`` section.
        self._substitution_used: dict[Unit, str] = {}

    @property
    def active(self) -> bool:
        """Whether any unit- or service-level reroute is registered."""
        return bool(self._substituted) or bool(self._service_substitutions)

    def masked(self, service: str, input_key: tuple) -> bool:
        """Whether one ``(service, input setting)`` unit is demoted."""
        return bool(self.demoted) and (service, input_key) in self.demoted

    def original(self, unit: Unit) -> Unit:
        """The unit *unit* stands in for (itself unless a sibling)."""
        return self._origin.get(unit, unit)

    def _serving(self, unit: Unit) -> str:
        """Who serves *unit* now: its own reroute, else its service's."""
        actual = self._substituted.get(unit)
        if actual is None:
            actual = self._service_substitutions.get(unit[0], unit[0])
        return actual

    def route(self, service: str, input_key: tuple) -> str:
        """The service that actually serves one unit, recording the use.

        Only ever asked about units that are not demoted
        (opening a :class:`UnitSource` checks the mask first — routing
        a demoted unit would resurrect it).  Unit-level reroutes (from
        sibling fallback) win over service-level ones (from a breaker
        pre-substitution).  Every active reroute is recorded in
        ``_origin`` (so a sibling's failure resolves back to the unit
        it stood in for) and ``_substitution_used`` (so the certificate
        names the replacement).
        """
        unit = (service, input_key)
        actual = self._serving(unit)
        if actual != service:
            self._origin.setdefault((actual, input_key), unit)
            self._substitution_used[unit] = actual
        return actual

    def handle_unresponsive(self, failure: UnresponsiveService) -> None:
        """Reroute the failed unit onto a sibling, or demote it.

        The failure sink of every restart loop.  The failure may name
        a *sibling* that was already standing in for an original unit
        — ``_origin`` resolves it back, so exhaustion walks the sibling
        chain of one logical unit instead of spawning chains per
        replacement.  A failure of a server the unit no longer uses,
        or of a unit already demoted, is stale and dropped: the current
        server has never exhausted its budget.
        """
        unit = self.original(failure.unit)
        if unit in self.demoted:
            return
        if failure.service != self._serving(unit):
            return
        tried = self._failed_servers.setdefault(unit, set())
        tried.add(failure.service)
        sibling = self.sibling(unit[0], (unit[1][0],), avoid=tried)
        if sibling is not None:
            self._substituted[unit] = sibling
            return
        # Sibling chain exhausted (or none registered): demote the
        # *original* unit — and forget its substitution record, or the
        # certificate would report the unit both substituted and
        # dropped.
        self._substituted.pop(unit, None)
        self._substitution_used.pop(unit, None)
        if unit != failure.unit:
            failure = UnresponsiveService(
                unit[0], unit[1], failure.page, failure.attempts, failure.cause
            )
        # The first failure recorded for a unit is the one the
        # certificate keeps.
        self.demoted.setdefault(unit, failure)

    def sibling(
        self,
        service: str,
        pattern_codes: Sequence[str],
        avoid: Collection[str] = (),
    ) -> str | None:
        """The registered equivalent of *service* to serve it instead.

        The first sibling in registry order able to serve every access
        pattern in *pattern_codes* and not in *avoid*; None when there
        is none.  The one sibling chooser: a unit that exhausted its
        retries, a service that drifted and a service whose breaker is
        open all reroute through it.
        """
        for candidate in self._registry.siblings(service, pattern_codes):
            if candidate not in avoid:
                return candidate
        return None

    def reroute(
        self,
        service: str,
        program: ExecutionProgram,
        avoid: Collection[str] = (),
    ) -> str | None:
        """Serve every unit of *service* from a sibling from now on.

        The one path that reroutes a whole service: a service whose
        breaker is open (before the first fetch) and a service that
        drifted (at a splice).  The sibling is :meth:`sibling`'s choice
        for every access pattern *program* invokes *service* with;
        returns it, or None — nothing rerouted — when there is none or
        *program* never invokes *service*.
        """
        codes = program.pattern_codes(service)
        replacement = self.sibling(service, codes, avoid) if codes else None
        if replacement is not None:
            self.substitute_service(service, replacement)
        return replacement

    def substitute_service(self, service: str, replacement: str) -> None:
        """Reroute every unit of *service* onto *replacement*.

        The circuit breaker's lever: a service whose breaker is open
        is served by a healthy sibling from the first fetch, without
        waiting for each unit to exhaust a retry budget first.
        Unit-level reroutes installed later still take precedence.
        """
        self._service_substitutions[service] = replacement

    def certificate_for(
        self, program: ExecutionProgram, rows: list[Row]
    ) -> PartialResultCertificate | None:
        """The partial-result certificate; None unless partial mode.

        Each answer is attributed to the units its record chain was
        pulled from (:func:`page_records`): a unit a sibling served to
        the sibling its page slot names.
        """
        if not self._resilience.partial_results:
            return None
        bindings = program.step_bindings
        return build_certificate(
            (binding.service_name for binding in bindings),
            (
                ((name, key) for name, key, _ in page_records(row.record, bindings))
                for row in rows
            ),
            self.demoted,
            self._substitution_used,
        )


class RunContext(NamedTuple):
    """One walk's side of the seam: what every unit it opens shares.

    The program says *what* to invoke; this says where and how often:
    service handles come from the run's own ``registry`` (a unit
    resolves its own at its first remote page), budgets from the run's
    own ``fetches`` vector (one factor per program step).
    ``routed`` is ``routing.active`` when the walk started, so a
    zero-drift run pays one truthiness test per unit and consults no
    table.
    """

    fetches: Sequence[int]
    registry: ServiceRegistry
    cache: LogicalCache
    routing: UnitRouting
    routed: bool
    resilience: ResilienceConfig
    monitor: DriftMonitor | None


class UnitSource:
    """One unit's pages, fetched through the logical cache on request.

    Opening a unit **masks**, then **routes** it.  A demoted unit has
    budget 0: no rows, no fetches, no calls, no hits (the certificate
    records the drop), and as a lazy block it is exhausted from birth
    — an infinite floor the interleaving certificate skips.  A unit is
    routed once, here: a reroute installed mid-stream takes effect on
    the next restart, never mid-block (a block's pages must all come
    from one server for rank soundness).

    Otherwise ``budget`` is the node's fetching factor in the run's
    vector — the eager and the lazy universe are the same — read on
    every use: a session that grows its own vector in place lifts the
    budget of every unit its suspended walk still holds.
    Call/hit accounting is the per-input-tuple rule of the paper's
    charts, within each accounting epoch (:class:`Accounting`): the
    first remote page counts one call, a unit answered purely by the
    logical cache counts one hit — on the ledger cell of its step and
    serving service, opened at its first page of each epoch.
    """

    __slots__ = (
        "input_key", "_context", "_accounting", "_feed", "_step",
        "_demoted", "_binding", "_name", "_service",
        "_rank_floor", "_epoch", "_counted", "_cell",
    )

    def __init__(
        self,
        context: RunContext,
        step: Step,
        accounting: Accounting,
        feed: Record,
    ) -> None:
        binding = step.binding
        name = binding.service_name
        input_key = unit_input_key(binding, feed[0])
        demoted = context.routing.demoted
        self._demoted = bool(demoted) and (name, input_key) in demoted
        if context.routed and not self._demoted:
            name = context.routing.route(name, input_key)
        self._step = step.index
        self.input_key = input_key
        self._context = context
        self._accounting = accounting
        self._feed = feed
        self._binding = binding
        self._name = name
        #: The serving service's handle in the run's registry, resolved
        #: at the first page the logical cache cannot answer.
        self._service = None
        self._rank_floor = 0
        # No epoch yet: the first page opens the cell.
        self._epoch = -1
        self._counted = _NOTHING
        self._cell = None

    @property
    def budget(self) -> int:
        """Pages this unit may pull: 0 once demoted, else the step's
        factor in the run's fetch vector right now."""
        return 0 if self._demoted else self._context.fetches[self._step]

    def drain(self, produced: list[Record]) -> None:
        """Pull every budgeted page, in order: the eager execution of
        one unit, whose records extend *produced*."""
        for page in range(self.budget):
            rows, has_more, _ = self.fetch(page)
            produced.extend(rows)
            if not has_more:
                break

    def fetch(self, page: int) -> FetchedPage:
        context = self._context
        binding = self._binding
        name = self._name
        input_key = self.input_key
        accounting = self._accounting
        stats = accounting.stats
        if self._epoch != accounting.epoch:
            self._epoch = accounting.epoch
            self._counted = _NOTHING
            self._cell = stats.cell(self._step, name)
        cell = self._cell
        result = context.cache.lookup(name, input_key, page)
        if result is None:
            service = self._service
            if service is None:
                service = self._service = context.registry.service(name)
            # The invoke mapping is built only for a page the cache misses.
            inputs, pattern = dict(input_key[1]), binding.pattern
            # Budgets and failures attach to *name*: the service
            # actually invoked, which is a sibling when rerouted.
            result = resilient_fetch(
                context.resilience, name, input_key, page,
                lambda: service.invoke(pattern, inputs, page=page),
                stats,
            )
            context.cache.store(name, input_key, page, result)
            raw_tuples = len(result.tuples)
            latency = result.latency
            stats.charge(
                cell, self._step, latency, result.from_remote_cache, raw_tuples
            )
            # Drift is judged against the node's costed profile, so
            # only fetches served by the profiled service feed the
            # monitor — sibling traffic is not the original's drift.
            if context.monitor is not None and name == binding.service_name:
                context.monitor.observe(name, binding.profile, latency, stats)
            if self._counted != _CALL:
                cell.calls += 1
                if self._counted == _HIT:
                    cell.cache_hits -= 1
                self._counted = _CALL
        else:
            raw_tuples = len(result.tuples)
            if self._counted == _NOTHING:
                cell.cache_hits += 1
                self._counted = _HIT
        stats.tuples_processed += raw_tuples
        rows = binding.bind_page(
            self._feed, result,
            # A rerouted unit's records also name the sibling serving it.
            page if name == binding.service_name else (name, page),
        )
        if result.ranks and result.ranks[-1] >= self._rank_floor:
            self._rank_floor = result.ranks[-1] + 1
        return FetchedPage(rows, result.has_more, self._rank_floor)


def page_records(
    record: Record, bindings: Iterable[ServiceBinding]
) -> tuple[ProvenanceRecord, ...]:
    """The page pulls behind *record*, root first (a join's left chain
    before its right one), one per service record on its chain: a
    record both sides of a join share (a head two lookups read) is
    walked, and its pull listed, once.

    *bindings* are the service bindings of the program that built the
    chain.  Of each service record, the binding of its node names the
    service, its feed record's values give the input key (through
    :func:`~repro.execution.slots.unit_input_key`, the key the unit was
    fetched under) and its page slot the page — with the sibling's
    name when a sibling served the unit.
    """
    by_node = {binding.node_id: binding for binding in bindings}
    pulls: list[ProvenanceRecord] = []
    # Records by identity: every record of the chain stays alive while
    # it is walked.
    walked: set[int] = set()

    def walk(record: Record) -> None:
        if id(record) in walked:
            return
        walked.add(id(record))
        if len(record) == 4:
            walk(record[2])
            walk(record[3])
        elif len(record) == 6:
            _, _, feed, node_id, _, page = record
            walk(feed)
            binding = by_node[node_id]
            name, page = page if type(page) is tuple else (binding.service_name, page)
            pulls.append((name, unit_input_key(binding, feed[0]), page))

    walk(record)
    return tuple(pulls)

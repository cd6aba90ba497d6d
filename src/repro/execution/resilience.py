"""Resilient page pulls: retry/backoff, honest partial results.

The paper's cost model optimizes over remote services that in any real
deployment fail, stall, and straggle.  The fault-injection kit
(:mod:`repro.testing.faults`) proves failures *surface* cleanly; this
module makes the engine *survive* them, in two independently
switchable layers wired into the one page-pull seam
(:meth:`repro.execution.fetch.UnitSource.fetch`):

* **Retry with backoff** (``ResilienceConfig.attempts``) — a transient
  page failure (:class:`~repro.services.base.TransientServiceError`,
  ``ConnectionError``, ``TimeoutError``) is re-invoked up to the
  attempt cap, with seeded *deterministic* exponential backoff
  (:func:`backoff`) charged to virtual time (services never sleep, so
  neither does the retry loop: the backoff delay is folded into the
  winning fetch's reported latency).  **Determinism argument**: every
  quantity involved — the attempt sequence, the backoff delays (hashed
  from ``(seed, service, input key, attempt)``), the final outcome — is
  a pure function of the attempt cap and the service's own (seeded)
  behavior, never of wall-clock time or scheduling.

* **Partial results** (``partial_results=True``) — when retries are
  exhausted, the failing unit (one ``(service, input setting)`` block)
  is *demoted* instead of aborting the query (or, when an equivalent
  service is registered, rerouted onto it and recorded as
  substituted): the engine masks the unit and re-runs the walk (the
  logical cache makes restarts cheap),
  returning top-k over the responsive blocks plus a
  :class:`PartialResultCertificate` naming every dropped unit and
  attributing each returned answer to the service blocks that produced
  it.  **Honesty argument**: demotion-by-masking makes the partial
  answer *exactly* the top-k of the plan over the registry with the
  dropped units excluded up front — the oracle the differential suite
  replays — so answers are never silently dropped: either a unit is in
  the certificate, or its data was fully considered.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.digest import sha256
from repro.execution.slots import InputSpec, unit_input_key
from repro.services.base import InvocationResult, TransientServiceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.execution.results import Row
    from repro.execution.stats import ExecutionStats
    from repro.services.profile import ServiceProfile

#: Exception types the retry layer treats as transient.  Anything else
#: (schema violations, programming errors) propagates immediately.
TRANSIENT_ERRORS = (TransientServiceError, ConnectionError, TimeoutError)


class UnresponsiveService(RuntimeError):
    """One ``(service, input setting)`` unit exhausted its retry budget.

    Raised by :func:`resilient_fetch` only in partial-results mode; the
    engine catches it, demotes the unit, and re-runs the walk with the
    unit masked.  Outside partial mode the *original* transient error
    propagates instead, preserving historical fail-fast behavior.
    """

    def __init__(
        self,
        service: str,
        input_key: tuple,
        page: int,
        attempts: int,
        cause: BaseException,
    ) -> None:
        super().__init__(
            f"{service} unresponsive for {input_key!r} "
            f"(page {page}, {attempts} attempts): {cause}"
        )
        self.service = service
        self.input_key = input_key
        self.page = page
        self.attempts = attempts
        self.cause = cause

    @property
    def unit(self) -> tuple[str, tuple]:
        """The demotion key: ``(service name, input key)``."""
        return (self.service, self.input_key)


#: Backoff before re-attempt *n* (1-based) is
#: ``min(MAX_DELAY, BASE_DELAY * MULTIPLIER**(n-1))`` virtual seconds,
#: scaled by a jitter in ``[1-JITTER, 1+JITTER]`` hashed from
#: ``(JITTER_SEED, service, input key, n)``.
BASE_DELAY = 0.5
MULTIPLIER = 2.0
MAX_DELAY = 30.0
JITTER = 0.1
JITTER_SEED = 0


def backoff(service: str, input_key: tuple, attempt: int) -> float:
    """Virtual delay before re-attempt *attempt* (1-based): a pure
    function of its arguments, so retried executions are
    bit-reproducible."""
    delay = min(MAX_DELAY, BASE_DELAY * MULTIPLIER ** (attempt - 1))
    key = repr((JITTER_SEED, service, input_key, attempt))
    digest = sha256(key.encode("utf-8")).digest()
    draw = int.from_bytes(digest[:8], "big") / 2.0**64
    return delay * (1.0 - JITTER + 2.0 * JITTER * draw)


@dataclass(frozen=True)
class ResilienceConfig:
    """Which resilience layers are active for an engine.

    ``attempts`` is the total invocation budget per page pull (1 means
    no retry); ``partial_results`` demotes a unit whose budget ran out
    instead of failing the query, or serves it from a registered
    sibling (:meth:`~repro.execution.fetch.UnitRouting.sibling`) when
    one exists — recorded in the certificate's ``substituted``
    section, never silent.  The defaults are behaviorally identical to
    running without a config (the bit-identity contract the
    differential suite pins).
    """

    attempts: int = 1
    partial_results: bool = False

    def __post_init__(self) -> None:
        # A budget below one would never invoke the service at all.
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")


# -- service health ---------------------------------------------------------

#: A service is *slow* once its mean observed fetch latency exceeds
#: ``LATENCY_FACTOR`` times the response time it was costed at, over at
#: least ``MIN_FETCHES`` fetches (one slow page is a straggler; a
#: consistently slow service is a mis-costed plan).
LATENCY_FACTOR = 3.0
MIN_FETCHES = 3


def is_slow(fetches: int, mean_latency: float, expected: float) -> bool:
    """The one health rule: the drift monitor re-plans on it, the
    circuit breaker counts it as an unhealthy request."""
    return (
        fetches >= MIN_FETCHES
        and expected > 0
        and mean_latency > LATENCY_FACTOR * expected
    )


class PlanDrift(RuntimeError):
    """A service's observed latency left the profile it was costed at.

    Control-flow exception raised by :class:`DriftMonitor` out of the
    engine's fetch seam; :meth:`~repro.execution.progressive.
    ProgressiveExecutor.run` catches it, re-optimizes against the
    observed response times, and splices the replacement plan mid-run.  The
    seam that raised it attaches the execution's partial
    :class:`~repro.execution.stats.ExecutionStats` as ``stats`` so the
    aborted attempt's work stays accounted.
    """

    def __init__(
        self, service: str, observed: float, expected: float, fetches: int
    ) -> None:
        super().__init__(
            f"{service} drifted: mean latency {observed:.2f}s over "
            f"{fetches} fetches vs costed response time {expected:.2f}s"
        )
        self.service = service
        self.observed = observed
        self.expected = expected
        self.fetches = fetches
        self.stats: "ExecutionStats | None" = None


class DriftMonitor:
    """Per-execution observer of remote fetch latency vs. plan cost.

    The engine calls :meth:`observe` after every *remote* page fetch
    (cache hits tell nothing about the service).  The monitor never
    touches the execution's statistics, so a run whose observations
    stay under the threshold is bit-identical to an unmonitored run —
    the zero-drift half of the adaptive differential contract.

    ``adapted`` names services whose drift was already absorbed by a
    re-plan (their costed profile *is* the observed one now); they are
    exempt, or every spliced plan would immediately re-trip on the
    same slow service.  Substituted units report under the sibling's
    name with no plan-node profile of their own, so they are never
    observed either.
    """

    def __init__(self, adapted: frozenset[str] = frozenset()) -> None:
        self.adapted = set(adapted)
        self._counts: dict[str, int] = {}
        self._totals: dict[str, float] = {}

    def observe(
        self, service: str, profile: "ServiceProfile | None", latency: float
    ) -> None:
        """Record one remote fetch; raise :class:`PlanDrift` on divergence."""
        if service in self.adapted or profile is None:
            return
        expected = profile.response_time
        if expected <= 0:
            return
        count = self._counts.get(service, 0) + 1
        total = self._totals.get(service, 0.0) + latency
        self._counts[service] = count
        self._totals[service] = total
        mean = total / count
        if is_slow(count, mean, expected):
            raise PlanDrift(service, mean, expected, count)


def resilient_fetch(
    config: ResilienceConfig,
    service: str,
    input_key: tuple,
    page: int,
    invoke: Callable[[], InvocationResult],
    stats: "ExecutionStats",
) -> InvocationResult:
    """One page pull under *config*: retry, then demote.

    ``invoke`` performs one raw remote invocation (no cache lookup, no
    accounting — the fetch seam keeps those outside, so only the
    response that arrived is ever stored or counted).  Returns that
    :class:`InvocationResult`, with accumulated backoff folded into
    its reported latency.  Raises :class:`UnresponsiveService` when
    retries are exhausted in partial-results mode, the final transient
    error otherwise.
    """
    attempt = 0
    overhead = 0.0  # virtual: backoff charged to the fetch that succeeds
    while True:
        try:
            result = invoke()
        except TRANSIENT_ERRORS as error:
            stats.wasted_fetches += 1
            attempt += 1
            if attempt >= config.attempts:
                if config.partial_results:
                    raise UnresponsiveService(
                        service, input_key, page, attempt, error
                    ) from error
                raise
            delay = backoff(service, input_key, attempt)
            stats.retries += 1
            stats.retry_backoff += delay
            overhead += delay
            continue
        if overhead:
            result = replace(result, latency=result.latency + overhead)
        return result


# -- partial-result certificates -------------------------------------------


def unit_token(service: str, input_key: tuple) -> str:
    """Canonical rendering of one ``(service, input setting)`` unit.

    Input items are sorted so the token is independent of the engine's
    position-iteration order; used both for dropped units and for
    per-answer attribution, so the two cross-reference exactly.
    """
    pattern_code, items = input_key
    return f"{service}[{pattern_code} {sorted(items)!r}]"


@dataclass(frozen=True)
class DroppedUnit:
    """One demoted block: a service input setting that never answered."""

    service: str
    input_key: tuple
    page: int
    attempts: int
    reason: str

    @property
    def unit(self) -> tuple[str, tuple]:
        return (self.service, self.input_key)

    @property
    def token(self) -> str:
        return unit_token(self.service, self.input_key)

    def to_dict(self) -> dict:
        return {
            "service": self.service,
            "unit": self.token,
            "page": self.page,
            "attempts": self.attempts,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class SubstitutedUnit:
    """One rerouted block: a unit served by an equivalent sibling.

    The unit's own service was unresponsive (or drifted far from its
    costed profile), and ``replacement`` — a registered service with
    the same signature domains and profile kind — answered its input
    setting instead.  Unlike a :class:`DroppedUnit` the unit's data
    *is* in the answer, just from the sibling; recording it keeps the
    certificate honest about which remote actually served each block.
    """

    service: str
    input_key: tuple
    replacement: str

    @property
    def unit(self) -> tuple[str, tuple]:
        return (self.service, self.input_key)

    @property
    def token(self) -> str:
        return unit_token(self.service, self.input_key)

    def to_dict(self) -> dict:
        return {
            "service": self.service,
            "unit": self.token,
            "replacement": self.replacement,
        }


@dataclass(frozen=True)
class PartialResultCertificate:
    """What a partial-results execution dropped, and what remains.

    ``dropped`` lists every demoted unit (empty for a fault-free run —
    the certificate is then a *completeness* witness).
    ``dropped_services`` names each service with at least one dropped
    block; such a service may still appear in answers through its
    *other*, responsive blocks — ``answer_units`` (one tuple of unit
    tokens per returned answer, in answer order) shows exactly which
    blocks produced each row, and by construction never intersects
    ``dropped``.  ``substituted`` lists every unit rerouted onto an
    equivalent sibling service (empty unless a substitution actually
    fired, so fault-free renderings are
    unchanged in content); a substituted unit's answers attribute to
    the *replacement* service's token in ``answer_units``.
    """

    dropped: tuple[DroppedUnit, ...]
    responsive_services: tuple[str, ...]
    dropped_services: tuple[str, ...]
    answer_units: tuple[tuple[str, ...], ...]
    substituted: tuple[SubstitutedUnit, ...] = ()

    @property
    def is_partial(self) -> bool:
        """True when at least one unit was dropped."""
        return bool(self.dropped)

    def to_dict(self) -> dict:
        return {
            "partial": self.is_partial,
            "dropped": [unit.to_dict() for unit in self.dropped],
            "responsive_services": list(self.responsive_services),
            "dropped_services": list(self.dropped_services),
            "answer_units": [list(units) for units in self.answer_units],
            "substituted": [unit.to_dict() for unit in self.substituted],
        }


def _answer_units(
    answer_specs: "Sequence[tuple[str, str, InputSpec]]",
    row: "Row",
    substituted: Mapping[tuple[str, tuple], str] = {},
) -> tuple[str, ...]:
    """The unit tokens of the blocks that produced one answer row.

    Every answer satisfies every service atom of the plan, and the
    input setting of each service node *for this answer* is recoverable
    from the answer's own values through the node's input spec compiled
    against the answer layout (*answer_specs*, part of the compiled
    program) — so attribution needs no execution-time bookkeeping at
    all.  A unit rerouted onto a sibling attributes to the
    *replacement* service's token: the answer really came from it.
    """
    tokens = []
    for serving, pattern_code, input_spec in answer_specs:
        _, input_key = unit_input_key(pattern_code, input_spec, row.values)
        if substituted:
            serving = substituted.get((serving, input_key), serving)
        tokens.append(unit_token(serving, input_key))
    return tuple(sorted(tokens))


def build_certificate(
    answer_specs: "Sequence[tuple[str, str, InputSpec]]",
    rows: "list[Row]",
    demoted: Mapping[tuple[str, tuple], UnresponsiveService],
    substituted: Mapping[tuple[str, tuple], str] = {},
) -> PartialResultCertificate:
    """The partial-result certificate for one finished execution of
    the program whose ``answer_specs`` these are."""
    plan_services = sorted({name for name, _, _ in answer_specs})
    dropped = tuple(
        DroppedUnit(
            service=failure.service,
            input_key=failure.input_key,
            page=failure.page,
            attempts=failure.attempts,
            reason=str(failure.cause),
        )
        for (service, _), failure in sorted(
            demoted.items(), key=lambda item: repr(item[0])
        )
        if service in plan_services
    )
    dropped_services = sorted({unit.service for unit in dropped})
    responsive = tuple(
        name for name in plan_services if name not in dropped_services
    )
    substitutions = tuple(
        SubstitutedUnit(
            service=service, input_key=input_key, replacement=replacement
        )
        for (service, input_key), replacement in sorted(
            substituted.items(), key=lambda item: repr(item[0])
        )
        if service in plan_services
    )
    return PartialResultCertificate(
        dropped=dropped,
        responsive_services=responsive,
        dropped_services=tuple(dropped_services),
        answer_units=tuple(
            _answer_units(answer_specs, row, substituted)
            for row in rows
        ),
        substituted=substitutions,
    )

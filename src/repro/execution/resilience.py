"""Resilient page pulls: retry/backoff, honest partial results.

The paper's cost model optimizes over remote services that in any real
deployment fail, stall, and straggle.  The fault-injection kit
(:mod:`repro.testing.faults`) proves failures *surface* cleanly; this
module makes the engine *survive* them, in two independently
switchable layers wired into the one page-pull seam
(:meth:`repro.execution.fetch.UnitSource.fetch`):

* **Retry with backoff** (:class:`RetryPolicy`) — a transient page
  failure (:class:`~repro.services.base.TransientServiceError`,
  ``ConnectionError``, ``TimeoutError``) is re-invoked up to a per-
  service attempt cap, with seeded *deterministic* exponential backoff
  charged to virtual time (services never sleep, so neither does the
  retry loop: the backoff delay is folded into the winning fetch's
  reported latency).  A per-call ``deadline`` bounds the cumulative
  backoff a single page pull may accumulate.  **Determinism argument**:
  every quantity involved — the attempt sequence, the backoff delays
  (hashed from ``(seed, service, input key, attempt)``), the final
  outcome — is a pure function of the policy and the service's own
  (seeded) behavior, never of wall-clock time or scheduling.

* **Partial results** (``partial_results=True``) — when retries are
  exhausted, the failing unit (one ``(service, input setting)`` block)
  is *demoted* instead of aborting the query: the engine masks the
  unit and re-runs the walk (the logical cache makes restarts cheap),
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

from dataclasses import dataclass, field, replace
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


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic retry/backoff for transient page failures.

    ``attempts`` is the total invocation budget per page pull (1 means
    no retry); ``per_service`` overrides it for named services.
    Backoff for re-attempt *n* (1-based) is
    ``min(max_delay, base_delay * multiplier**(n-1))`` scaled by a
    seeded jitter in ``[1-jitter, 1+jitter]`` — a pure function of
    ``(seed, service, input key, n)``, so retried executions are
    bit-reproducible.  ``deadline`` bounds the cumulative backoff one
    page pull may accumulate: a retry whose delay would exceed it is
    not taken (the pull fails as if the attempt cap were reached).
    All delays are *virtual* seconds, folded into the winning fetch's
    reported latency — nothing ever sleeps.
    """

    attempts: int = 3
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1
    seed: int = 0
    deadline: float | None = None
    per_service: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # A value outside these ranges would make a backoff negative,
        # and a negative delay folded into a fetch's latency runs
        # virtual time backwards.
        caps = {"attempts": self.attempts}
        for service, cap in self.per_service.items():
            caps[f"per_service[{service!r}]"] = cap
        for name, cap in caps.items():
            if cap < 1:
                raise ValueError(f"{name} must be >= 1, got {cap}")
        for name, delay in (
            ("base_delay", self.base_delay), ("max_delay", self.max_delay)
        ):
            if delay < 0:
                raise ValueError(f"{name} must be >= 0, got {delay}")
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {self.deadline}")

    def attempts_for(self, service: str) -> int:
        """The attempt cap for *service*."""
        return self.per_service.get(service, self.attempts)

    def backoff(self, service: str, input_key: tuple, attempt: int) -> float:
        """Virtual delay before re-attempt *attempt* (1-based)."""
        delay = min(
            self.max_delay, self.base_delay * self.multiplier ** (attempt - 1)
        )
        if not self.jitter:
            return delay
        key = repr((self.seed, service, input_key, attempt))
        digest = sha256(key.encode("utf-8")).digest()
        draw = int.from_bytes(digest[:8], "big") / 2.0**64
        return delay * (1.0 - self.jitter + 2.0 * self.jitter * draw)


@dataclass(frozen=True)
class ResilienceConfig:
    """Which resilience layers are active for an engine.

    All fields default to off; a config with every layer off is
    behaviorally identical to running without one (the bit-identity
    contract the differential suite pins).

    ``sibling_fallback`` (requires ``partial_results``) reroutes a unit
    whose retries are exhausted onto an equivalent registered service
    (:meth:`~repro.services.registry.ServiceRegistry.siblings`) before
    demoting it: the answer keeps the unit's data as served by the
    sibling, and the certificate's ``substituted`` section names every
    rerouted unit — honesty is preserved because a substitution is
    *recorded*, never silent.
    """

    retry: RetryPolicy | None = None
    partial_results: bool = False
    sibling_fallback: bool = False


# -- drift detection --------------------------------------------------------


@dataclass(frozen=True)
class DriftPolicy:
    """When observed service behavior diverges enough to re-plan.

    A service has *drifted* when the mean observed latency of its
    remote fetches in one execution exceeds ``latency_factor`` times
    the ``response_time`` of the profile its plan node was costed
    with, after at least ``min_fetches`` observations (one slow page
    is a straggler; a consistently slow service is a mis-costed plan —
    re-planning's job).  ``max_replans`` bounds how many times one
    adaptive execution may re-plan before it stops monitoring and
    finishes with whatever plan it has.
    ``substitute_siblings`` additionally reroutes the drifted
    service's units onto an equivalent registered sibling (when one
    exists) in the spliced plan, so the remaining pages are pulled at
    the sibling's healthy latency; the substitution is recorded on the
    partial certificate exactly like a failure-driven fallback.
    """

    latency_factor: float = 3.0
    min_fetches: int = 3
    max_replans: int = 3
    substitute_siblings: bool = True


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

    def __init__(
        self, policy: DriftPolicy, adapted: frozenset[str] = frozenset()
    ) -> None:
        self.policy = policy
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
        if count < self.policy.min_fetches:
            return
        mean = total / count
        if mean > self.policy.latency_factor * expected:
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
    retry = config.retry
    cap = retry.attempts_for(service) if retry is not None else 1
    attempt = 0
    overhead = 0.0  # virtual: backoff charged to the fetch that succeeds
    while True:
        try:
            result = invoke()
        except TRANSIENT_ERRORS as error:
            stats.wasted_fetches += 1
            attempt += 1
            exhausted = attempt >= cap
            delay = 0.0
            if not exhausted:
                assert retry is not None
                delay = retry.backoff(service, input_key, attempt)
                if (
                    retry.deadline is not None
                    and overhead + delay > retry.deadline
                ):
                    exhausted = True
            if exhausted:
                if config.partial_results:
                    raise UnresponsiveService(
                        service, input_key, page, attempt, error
                    ) from error
                raise
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
    equivalent sibling service (empty unless sibling fallback or
    adaptive substitution actually fired, so fault-free renderings are
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

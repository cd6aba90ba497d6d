"""Per-service circuit breakers: cross-request health for the server.

The execution layer's resilience (:mod:`repro.execution.resilience`)
is per-run: every execution rediscovers a sick service by burning its
own retry budget against it.  A long-lived :class:`~repro.serving.
service.QueryService` can do better — it sees the *same* services
across many requests, so observed call/fetch/retry health accumulated
here feeds back into planning before the next request pays the price.

Classic three-state machine, per service:

* **closed** — healthy; requests flow normally.  Each unhealthy
  request (the service's units were dropped, or its mean fetch
  latency ran beyond ``latency_factor`` × its profiled response time
  over at least ``min_fetches`` fetches) increments a consecutive-
  failure count; reaching ``failure_threshold`` opens the breaker.
* **open** — the service is presumed sick.  The serving layer costs
  plans against its *observed* response time (via
  :class:`~repro.services.registry.AdjustedRegistry`) and, when an
  equivalent sibling is registered, reroutes the service's units onto
  the sibling from the first fetch.  After ``cooldown`` (virtual or
  wall seconds — the clock is injectable) the breaker half-opens.
* **half-open** — one probe's worth of trust: the cost overrides are
  lifted so the next request exercises the service at face value; a
  healthy request closes the breaker, an unhealthy one re-opens it
  (and restarts the cooldown).

The breaker never *blocks* a request — this layer trades cost, not
availability: an open breaker changes plan costs and routing, and
every effect is visible in the response (certificate substitutions,
the adjusted content epoch) rather than silently applied.

Thread safety: state transitions are wardened by the serving layer's
stats lock (one breaker per service object, fed after each request);
the breaker itself is plain data.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from repro.execution.resilience import DriftPolicy


class BreakerState(Enum):
    """Health state of one service's breaker."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """When a service's breaker opens, and for how long.

    ``failure_threshold`` consecutive unhealthy requests open the
    breaker; a request is unhealthy when the service's units were
    dropped by partial results, or its mean observed fetch latency
    exceeded ``latency_factor`` times its profiled response time over
    at least ``min_fetches`` fetches.  ``cooldown`` (seconds on the
    injected clock) is how long an open breaker waits before granting
    a half-open probe.
    """

    failure_threshold: int = 2
    latency_factor: float = 3.0
    min_fetches: int = 3
    cooldown: float = 30.0


@dataclass(frozen=True)
class AdaptivePolicy:
    """Bundle of every adaptivity knob the serving layer exposes.

    ``drift`` governs mid-run re-planning (the session executor's
    :class:`~repro.execution.resilience.DriftPolicy`), ``breaker``
    the cross-request circuit breaker, and ``sibling_fallback``
    whether exhausted or breaker-open services are served by
    registered equivalents (recorded on the certificate).
    """

    drift: DriftPolicy = field(default_factory=DriftPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    sibling_fallback: bool = True


class CircuitBreaker:
    """Per-service three-state breaker with injectable clock."""

    def __init__(
        self,
        policy: BreakerPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy if policy is not None else BreakerPolicy()
        self._clock = clock
        #: Consecutive unhealthy requests per service (closed state).
        self._failures: dict[str, int] = {}
        #: When each open breaker opened (absent = closed).
        self._opened_at: dict[str, float] = {}
        #: Open breakers that already granted their half-open probe.
        self._half_open: set[str] = set()
        #: Last meaningful observed mean fetch latency per service.
        self._latency: dict[str, float] = {}

    # -- state ----------------------------------------------------------

    def state(self, service: str) -> BreakerState:
        """The breaker state, transitioning open → half-open lazily."""
        opened_at = self._opened_at.get(service)
        if opened_at is None:
            return BreakerState.CLOSED
        if service in self._half_open:
            return BreakerState.HALF_OPEN
        if self._clock() - opened_at >= self.policy.cooldown:
            self._half_open.add(service)
            return BreakerState.HALF_OPEN
        return BreakerState.OPEN

    def open_services(self) -> tuple[str, ...]:
        """Services whose breaker is open right now (not half-open)."""
        return tuple(
            sorted(
                service
                for service in list(self._opened_at)
                if self.state(service) is BreakerState.OPEN
            )
        )

    def response_time_overrides(self) -> dict[str, float]:
        """Observed response times to cost open services at.

        Only **open** breakers contribute: a half-open probe must run
        the service at face value (or the probe never happens), and a
        closed breaker has nothing to correct.
        """
        return {
            service: self._latency[service]
            for service in list(self._opened_at)
            if self.state(service) is BreakerState.OPEN
            and service in self._latency
        }

    # -- feeding --------------------------------------------------------

    def record(
        self,
        service: str,
        *,
        fetches: int = 0,
        mean_latency: float | None = None,
        expected: float = 0.0,
        dropped: bool = False,
    ) -> None:
        """Feed one request's observed health for *service*.

        ``fetches``/``mean_latency`` summarize the request's remote
        traffic to the service, ``expected`` is the profiled response
        time it was costed at, ``dropped`` whether partial results
        demoted any of its units.  A request with no signal at all
        (no fetches, nothing dropped) leaves the breaker untouched —
        a service the plan never used proves nothing.
        """
        meaningful_latency = (
            mean_latency is not None
            and fetches >= self.policy.min_fetches
        )
        if meaningful_latency:
            self._latency[service] = mean_latency
        slow = (
            meaningful_latency
            and expected > 0
            and mean_latency > self.policy.latency_factor * expected
        )
        if dropped or slow:
            self._trip(service)
        elif fetches > 0:
            self._recover(service)

    def _trip(self, service: str) -> None:
        current = self.state(service)
        if current is BreakerState.HALF_OPEN:
            # Failed probe: re-open and restart the cooldown.
            self._opened_at[service] = self._clock()
            self._half_open.discard(service)
            return
        if current is BreakerState.OPEN:
            return
        count = self._failures.get(service, 0) + 1
        self._failures[service] = count
        if count >= self.policy.failure_threshold:
            self._opened_at[service] = self._clock()
            self._half_open.discard(service)

    def _recover(self, service: str) -> None:
        self._failures.pop(service, None)
        if self.state(service) is BreakerState.HALF_OPEN:
            # Healthy probe: close fully and forget the episode.
            self._opened_at.pop(service, None)
            self._half_open.discard(service)
            self._latency.pop(service, None)

    # -- reporting ------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable view of every non-closed breaker."""
        tracked = set(self._opened_at) | set(self._failures)
        return {
            service: {
                "state": self.state(service).value,
                "consecutive_failures": self._failures.get(service, 0),
                "observed_response_time": self._latency.get(service),
            }
            for service in sorted(tracked)
        }

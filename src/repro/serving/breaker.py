"""Per-service circuit breakers: cross-request health for the server.

The execution layer's resilience (:mod:`repro.execution.resilience`)
is per-run: every execution rediscovers a sick service by burning its
own retry budget against it.  A long-lived :class:`~repro.serving.
service.QueryService` can do better — it sees the *same* services
across many requests, so observed call/fetch/retry health accumulated
here feeds back into planning before the next request pays the price.

Classic three-state machine, per service:

* **closed** — healthy; requests flow normally.  Each unhealthy
  request (the service's units were dropped or rerouted, or it was
  slow by the one health rule,
  :func:`~repro.execution.resilience.is_slow`) increments a
  consecutive-failure count; reaching ``FAILURE_THRESHOLD`` opens the
  breaker.
* **open** — the service is presumed sick.  The serving layer costs
  plans against its *observed* response time (via
  :class:`~repro.services.registry.AdjustedRegistry`) and, when an
  equivalent sibling is registered, reroutes the service's units onto
  the sibling from the first fetch.  ``COOLDOWN`` seconds after it
  opened (on the injectable clock) the breaker half-opens.
* **half-open** — one probe's worth of trust: the cost overrides are
  lifted so the next request exercises the service at face value; a
  healthy request closes the breaker, an unhealthy one re-opens it
  (and restarts the cooldown).

The breaker never *blocks* a request — this layer trades cost, not
availability: an open breaker changes plan costs and routing, and
every effect is visible in the response (certificate substitutions,
the adjusted content epoch) rather than silently applied.

Thread safety: writes are wardened by the serving layer's stats lock
(one breaker per service object, fed after each request); the breaker
itself is plain data.  Reading a state writes nothing — half-open is
a function of the clock (opened and ``COOLDOWN`` elapsed) — so a read
outside the lock can never undo a concurrent transition.
"""

from __future__ import annotations

import time
from enum import Enum
from typing import Callable

from repro.execution.resilience import MIN_FETCHES, is_slow

#: Consecutive unhealthy requests that open a closed breaker.
FAILURE_THRESHOLD = 2
#: Seconds on the breaker's clock an open breaker waits before
#: granting a half-open probe.
COOLDOWN = 30.0


class BreakerState(Enum):
    """Health state of one service's breaker."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-service three-state breaker with injectable clock."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        #: Consecutive unhealthy requests per service (closed state).
        self._failures: dict[str, int] = {}
        #: When each open breaker opened (absent = closed).
        self._opened_at: dict[str, float] = {}
        #: Last meaningful observed mean fetch latency per service.
        self._latency: dict[str, float] = {}

    # -- state ----------------------------------------------------------

    def state(self, service: str) -> BreakerState:
        """The breaker state: an open breaker is half-open once
        ``COOLDOWN`` has elapsed since it opened."""
        opened_at = self._opened_at.get(service)
        if opened_at is None:
            return BreakerState.CLOSED
        if self._clock() - opened_at >= COOLDOWN:
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
        slow = False
        if mean_latency is not None and fetches >= MIN_FETCHES:
            self._latency[service] = mean_latency
            slow = is_slow(fetches, mean_latency, expected)
        if dropped or slow:
            self._trip(service)
        elif fetches > 0:
            self._recover(service)

    def _trip(self, service: str) -> None:
        current = self.state(service)
        if current is BreakerState.HALF_OPEN:
            # Failed probe: re-open and restart the cooldown.
            self._opened_at[service] = self._clock()
            return
        if current is BreakerState.OPEN:
            return
        count = self._failures.get(service, 0) + 1
        self._failures[service] = count
        if count >= FAILURE_THRESHOLD:
            self._opened_at[service] = self._clock()

    def _recover(self, service: str) -> None:
        self._failures.pop(service, None)
        if self.state(service) is BreakerState.HALF_OPEN:
            # Healthy probe: close fully and forget the episode.
            self._opened_at.pop(service, None)
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

"""Deterministic fault injection for registry services.

The lazy/streamed pipeline's core promise is *oracle equivalence*: any
subset of the remote work it chooses to skip must not change the
answers.  That promise is only testable against misbehaving services
if every execution path observes the **same** misbehavior — so the
:class:`FaultSchedule` decides faults as a pure function of
``(seed, service, pattern, inputs, page)``, never of call order or
call count.  The lazy path, the eager streamed path, and the
full-fetch oracle each pull their own subset of pages out of one and
the same faulted world.

Injected fault kinds (applied to one page's
:class:`~repro.services.base.InvocationResult`):

* ``fail`` — the fetch raises :class:`InjectedFault` instead of
  returning a page (a remote error surfacing mid-walk);
* ``truncate`` — the page silently loses its last tuple (short reads);
* ``duplicate`` — the page repeats its last tuple and rank (at-least-
  once delivery);
* ``reorder`` — the page's tuples and ranks are reversed in place
  (out-of-order ranks: within the page the rank sequence regresses,
  which must trip the lazy cursors' monotonicity guard and force the
  full-fetch fallback for the offending block);
* ``delay`` — the page arrives intact but its reported latency is
  multiplied by ``delay_factor`` (a straggling remote — the stimulus
  drift detection responds to).  Data and rank floors
  are untouched, so all differential contracts are unaffected; only
  virtual time changes.

``truncate``/``duplicate``/``reorder``/``delay`` keep the reported
rank floors *sound* (a truncated or reversed page only under-reports
the smallest later rank — never over-reports it), so the differential
contract stays exact: all execution paths must return bit-identical
answers over the faulted world.  ``fail`` is the only fault allowed to
change an outcome, and then only into a clean :class:`InjectedFault` —
never into silently dropped answers.

**Retries and the ``attempt`` dimension.**  The schedule's purity in
``(seed, service, pattern, inputs, page)`` means a failed page would
fail *forever* — correct for cross-path differentials, useless for
testing retry.  :meth:`FaultSchedule.decide` therefore accepts an
``attempt`` index which enters the hash key **only when positive**, so
attempt 0 reproduces the historical decisions bit-for-bit while
re-attempts get fresh independent draws.  :class:`FlakyService` counts
invocations per ``(pattern, inputs, page)`` key (under a lock —
retried attempts of parallel workers may race) when constructed with
``attempt_aware=True``; the default remains the pure call-count-free
behavior the oracle-equivalence suites rely on.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter
from dataclasses import dataclass, replace
from typing import Mapping

from repro.model.schema import AccessPattern
from repro.services.base import (
    InvocationResult,
    Service,
    TransientServiceError,
)


class InjectedFault(TransientServiceError):
    """Raised in place of a page result by a scheduled page failure."""


#: Order in which the schedule's rate bands are consumed.  ``delay``
#: was appended last so older seeds keep their historical decisions
#: for the original four kinds.
FAULT_KINDS = ("fail", "truncate", "duplicate", "reorder", "delay")


@dataclass(frozen=True)
class FaultSchedule:
    """Seeded, call-order-independent fault decisions.

    Each fetch key is hashed to a uniform draw in ``[0, 1)``; the
    kinds' rate bands are consumed in :data:`FAULT_KINDS` order, so
    the per-kind probabilities are exactly the configured rates (as
    long as they sum to at most 1).
    """

    seed: int
    fail_rate: float = 0.0
    truncate_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    delay_rate: float = 0.0
    #: Multiplier applied to a delayed page's reported latency.
    delay_factor: float = 25.0

    def decide(
        self,
        service: str,
        pattern_code: str,
        inputs: Mapping[int, object],
        page: int,
        attempt: int = 0,
    ) -> str | None:
        """The fault kind for this fetch, or None for a clean page.

        ``attempt`` joins the hash key only when positive: attempt 0
        decisions are identical to the attempt-free historical ones,
        and each re-attempt of the same page draws independently.
        """
        base = (self.seed, service, pattern_code, sorted(inputs.items()), page)
        key = repr(base if attempt == 0 else base + (attempt,))
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        draw = int.from_bytes(digest[:8], "big") / 2.0**64
        for kind, rate in zip(
            FAULT_KINDS,
            (
                self.fail_rate,
                self.truncate_rate,
                self.duplicate_rate,
                self.reorder_rate,
                self.delay_rate,
            ),
        ):
            if draw < rate:
                return kind
            draw -= rate
        return None


class FlakyService:
    """A registry service wrapper that injects page-level faults.

    Everything except :meth:`invoke` delegates to the wrapped service,
    so the wrapper can be registered in a
    :class:`~repro.services.registry.ServiceRegistry` like any other
    service (signature, profiles, latency model, and resets all pass
    through).  ``injected`` counts the faults that actually fired on
    this instance — note that different execution paths pull different
    page subsets, so the counter is per-run evidence that faults were
    exercised, not a cross-path invariant.

    With ``attempt_aware=True`` the wrapper counts invocations per
    ``(pattern, inputs, page)`` key and feeds the count to
    :meth:`FaultSchedule.decide` as the ``attempt`` index, so a page
    that failed once can succeed on retry (each attempt draws
    independently).  The default False keeps decisions a pure function
    of the fetch key — what the cross-path differential suites need.
    """

    def __init__(
        self,
        inner: Service,
        schedule: FaultSchedule,
        attempt_aware: bool = False,
    ) -> None:
        self._inner = inner
        self._schedule = schedule
        self._attempt_aware = attempt_aware
        self._attempts: Counter = Counter()
        self._attempts_lock = threading.Lock()
        self.injected: Counter[str] = Counter()

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def invoke(
        self,
        pattern: AccessPattern,
        inputs: Mapping[int, object],
        page: int = 0,
    ) -> InvocationResult:
        result = self._inner.invoke(pattern, inputs, page=page)
        attempt = 0
        if self._attempt_aware:
            key = (pattern.code, tuple(sorted(inputs.items())), page)
            with self._attempts_lock:
                attempt = self._attempts[key]
                self._attempts[key] += 1
        kind = self._schedule.decide(
            self._inner.name, pattern.code, inputs, page, attempt=attempt
        )
        if kind is None:
            return result
        self.injected[kind] += 1
        if kind == "fail":
            raise InjectedFault(
                f"injected page failure: {self._inner.name} page {page}"
            )
        if kind == "delay":
            return replace(
                result, latency=result.latency * self._schedule.delay_factor
            )
        if not result.tuples:
            return result  # nothing to corrupt on an empty page
        if kind == "truncate":
            return replace(
                result,
                tuples=result.tuples[:-1],
                ranks=result.ranks[:-1] if result.ranks else (),
            )
        if kind == "duplicate":
            return replace(
                result,
                tuples=result.tuples + (result.tuples[-1],),
                ranks=(
                    result.ranks + (result.ranks[-1],) if result.ranks else ()
                ),
            )
        assert kind == "reorder"
        return replace(
            result,
            tuples=tuple(reversed(result.tuples)),
            ranks=tuple(reversed(result.ranks)) if result.ranks else (),
        )


def wrap_registry_flaky(
    registry, schedule: FaultSchedule, attempt_aware: bool = False
) -> dict:
    """Wrap every service of *registry* in-place; returns the wrappers.

    Reaches into the registry's service table deliberately: the
    wrappers must replace the originals under the same names without
    bumping the registration revision semantics tests rely on.
    """
    wrappers = {}
    for name in registry.names:
        wrapper = FlakyService(
            registry.service(name), schedule, attempt_aware=attempt_aware
        )
        registry._services[name] = wrapper
        wrappers[name] = wrapper
    return wrappers

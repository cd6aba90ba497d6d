"""The service abstraction: invocation protocol and latency model.

A service exposes its :class:`~repro.model.schema.ServiceSignature`
(name, abstract domains, feasible access patterns) and a
:class:`~repro.services.profile.ServiceProfile`.  Invocations bind
values to the input positions of a chosen access pattern and receive a
(possibly paged) set of full-arity tuples.

Services never sleep: they *report* a latency for each invocation and
the execution engine advances a virtual clock accordingly.  This keeps
experiments deterministic and fast while reproducing the paper's
timing structure (Section 6), including the observed effect that
remote servers answer repeated identical requests from their own cache
much faster (the "Bookings.com effect").
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Mapping

from repro.model.schema import AccessPattern, SchemaError, ServiceSignature
from repro.services.profile import ServiceProfile


class InvocationError(ValueError):
    """Raised for invalid invocations (wrong pattern, missing inputs)."""


class TransientServiceError(RuntimeError):
    """A page-level failure worth retrying (timeout, dropped response).

    The resilience layer (:mod:`repro.execution.resilience`) retries
    invocations that raise this marker (or a builtin
    ``ConnectionError``/``TimeoutError``) under its
    :class:`~repro.execution.resilience.RetryPolicy`; any other
    exception — :class:`InvocationError`, schema violations — is a
    *permanent* fault and propagates immediately.  The fault-injection
    kit's :class:`~repro.testing.faults.InjectedFault` subclasses this
    marker, so injected page failures are retryable by construction.
    """


#: Fraction of the nominal response time charged for a repeated call
#: answered from the remote server's own cache.
REMOTE_CACHE_FACTOR = 0.05


@dataclass(frozen=True)
class InvocationResult:
    """Outcome of one service invocation (one fetch, if chunked).

    ``tuples`` are full-arity tuples in the signature's positional
    order.  For search services they arrive in decreasing relevance;
    the relevance measure itself stays opaque, as in the paper, but
    ``ranks`` exposes the global rank index (0-based) of each tuple in
    the service's result list so rank-aware joins can preserve order.
    """

    tuples: tuple[tuple, ...]
    latency: float
    has_more: bool
    from_remote_cache: bool = False
    ranks: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.ranks and len(self.ranks) != len(self.tuples):
            raise InvocationError("ranks must align with tuples")

    def __len__(self) -> int:
        return len(self.tuples)


@dataclass
class LatencyModel:
    """Latency of one invocation, with optional remote-side caching.

    ``remote_caching`` reproduces servers that answer repeated
    identical requests quickly; the paper observes this for
    Bookings.com but not for Expedia.

    The check-then-add on ``_seen`` is the one piece of mutable service
    state the client threads of a
    :class:`~repro.serving.service.QueryService` race on when their
    requests invoke one service, so it runs under a per-model lock —
    inside the model rather than around :meth:`Service.invoke`, because
    serializing whole invocations would also serialize any real work
    (e.g. a service that sleeps) across the requests.
    """

    response_time: float
    remote_caching: bool = False
    repeat_factor: float = REMOTE_CACHE_FACTOR
    _seen: set = field(default_factory=set, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def latency_for(self, key: object) -> tuple[float, bool]:
        """Return ``(latency, was_remote_cache_hit)`` for a call keyed by *key*."""
        with self._lock:
            if self.remote_caching and key in self._seen:
                return self.response_time * self.repeat_factor, True
            if self.remote_caching:
                self._seen.add(key)
        return self.response_time, False

    def reset(self) -> None:
        """Forget the remote server's cache (e.g. between experiments)."""
        with self._lock:
            self._seen.clear()


class Service(ABC):
    """Base class for all services (exact and search)."""

    def __init__(
        self,
        signature: ServiceSignature,
        profile: ServiceProfile,
        remote_caching: bool = False,
        pattern_profiles: Mapping[str, ServiceProfile] | None = None,
    ) -> None:
        self._signature = signature
        #: The feasible pattern codes, built once: every invocation
        #: checks its pattern against them.
        self._pattern_codes = frozenset(p.code for p in signature.patterns)
        self._profile = profile
        self._pattern_profiles = dict(pattern_profiles or {})
        for code in self._pattern_profiles:
            signature.pattern(code)  # validate the override targets
        self._latency = LatencyModel(
            response_time=profile.response_time, remote_caching=remote_caching
        )

    @property
    def signature(self) -> ServiceSignature:
        """The service's interface."""
        return self._signature

    @property
    def profile(self) -> ServiceProfile:
        """The service's default statistical profile."""
        return self._profile

    def profile_for(self, pattern_code: str | None = None) -> ServiceProfile:
        """The profile to use when invoking with a given access pattern.

        Different patterns of the same service can return answer sets of
        very different sizes (the whole point of the "bound is better"
        heuristic), so profiles may be registered per pattern; the
        default profile is used when no override exists.
        """
        if pattern_code is not None and pattern_code in self._pattern_profiles:
            return self._pattern_profiles[pattern_code]
        return self._profile

    @property
    def name(self) -> str:
        """The service name."""
        return self._signature.name

    @property
    def latency_model(self) -> LatencyModel:
        """The latency model (exposed for experiment setup/reset)."""
        return self._latency

    def invoke(
        self,
        pattern: AccessPattern,
        inputs: Mapping[int, object],
        page: int = 0,
    ) -> InvocationResult:
        """Invoke the service.

        Parameters
        ----------
        pattern:
            One of the service's feasible access patterns.
        inputs:
            Values for every input position of *pattern* (by zero-based
            argument position).
        page:
            For chunked services, the zero-based fetch index; bulk
            services only accept page 0.
        """
        self._validate_invocation(pattern, inputs, page)
        tuples, ranks, has_more = self._compute(pattern, inputs, page)
        key = (pattern.code, tuple(sorted(inputs.items())), page)
        latency, cached = self._latency.latency_for(key)
        return InvocationResult(
            tuples=tuple(tuples),
            latency=latency,
            has_more=has_more,
            from_remote_cache=cached,
            ranks=tuple(ranks),
        )

    def reset(self) -> None:
        """Reset per-experiment state (remote cache)."""
        self._latency.reset()

    @abstractmethod
    def _compute(
        self,
        pattern: AccessPattern,
        inputs: Mapping[int, object],
        page: int,
    ) -> tuple[list[tuple], list[int], bool]:
        """Produce ``(tuples, ranks, has_more)`` for one invocation."""

    def _validate_invocation(
        self,
        pattern: AccessPattern,
        inputs: Mapping[int, object],
        page: int,
    ) -> None:
        if pattern.code not in self._pattern_codes:
            raise InvocationError(
                f"pattern {pattern.code!r} is not feasible for service {self.name!r}"
            )
        if pattern.arity != self._signature.arity:
            raise SchemaError(
                f"pattern {pattern.code!r} does not fit service {self.name!r}"
            )
        positions = pattern.input_positions
        # As many keys as input positions and every position among
        # them: for a mapping that is "none missing, none extra", and
        # deciding it allocates nothing — this runs once per remote
        # page.  The two lists exist only to word an error.
        complete = len(inputs) == len(positions)
        if complete:
            for k in positions:
                if k not in inputs:
                    complete = False
                    break
        if not complete:
            missing = [k for k in positions if k not in inputs]
            if missing:
                raise InvocationError(
                    f"missing input positions {missing} for {self.name!r} "
                    f"with pattern {pattern.code!r}"
                )
            extra = [k for k in inputs if k not in positions]
            if extra:
                raise InvocationError(
                    f"values supplied for non-input positions {extra} "
                    f"of {self.name!r}"
                )
        if page < 0:
            raise InvocationError(f"page must be non-negative, got {page}")
        if page > 0 and not self._profile.is_chunked:
            raise InvocationError(
                f"service {self.name!r} is bulk: only page 0 is available"
            )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"

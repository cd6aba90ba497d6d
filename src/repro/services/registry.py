"""Service registration (Section 5): the optimizer's view of the world.

The registry stores, for every known service, its implementation
object, signature, and profile; for every pair of services, the
preferred parallel-join method ("for each pair of services, it is
known which parallel join method should be used"); and estimated
selectivities for join predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Iterator, Mapping

from repro.digest import content_digest
from repro.model.schema import Schema, SchemaError, ServiceSignature, schema_of
from repro.services.base import Service
from repro.services.profile import ServiceProfile


class JoinMethod(Enum):
    """Parallel join strategies of the paper (Figure 5)."""

    NESTED_LOOP = "NL"
    MERGE_SCAN = "MS"


#: Default selectivity of an equi-join predicate between two services
#: when no estimate has been registered.  The running example uses 0.01
#: for the hotel/flight join (Example 5.1).
DEFAULT_JOIN_SELECTIVITY = 0.01


class RegistryError(KeyError):
    """Raised when a lookup fails."""


@dataclass
class ServiceRegistry:
    """Holds services, join-method choices, and join selectivities."""

    _services: dict[str, Service] = field(default_factory=dict)
    _join_methods: dict[frozenset, JoinMethod] = field(default_factory=dict)
    _join_selectivities: dict[frozenset, float] = field(default_factory=dict)
    #: Bumped by every registration; lets :meth:`content_epoch` cache
    #: its digest instead of re-hashing per serving request.
    _revision: int = field(default=0, repr=False)
    _epoch_cache: tuple | None = field(default=None, repr=False)

    # -- registration --------------------------------------------------

    def register(self, service: Service) -> None:
        """Register *service*; names must be unique."""
        if service.name in self._services:
            raise SchemaError(f"service {service.name!r} already registered")
        self._services[service.name] = service
        self._revision += 1

    def register_join_method(
        self, service_a: str, service_b: str, method: JoinMethod
    ) -> None:
        """Fix the parallel-join method for a pair of services.

        The paper says the NL/MS choice "can be made at service
        registration time, by analyzing their statistical behavior".
        """
        self._join_methods[frozenset({service_a, service_b})] = method
        self._revision += 1

    def register_join_selectivity(
        self, service_a: str, service_b: str, selectivity: float
    ) -> None:
        """Record the estimated selectivity of the equi-join predicate."""
        if not 0.0 <= selectivity <= 1.0:
            raise ValueError(f"selectivity must be in [0, 1], got {selectivity}")
        self._join_selectivities[frozenset({service_a, service_b})] = selectivity
        self._revision += 1

    # -- lookups --------------------------------------------------------

    def service(self, name: str) -> Service:
        """The registered service object named *name*."""
        try:
            return self._services[name]
        except KeyError:
            raise RegistryError(f"service {name!r} is not registered") from None

    def profile(self, name: str, pattern_code: str | None = None) -> ServiceProfile:
        """The profile of service *name* (optionally pattern-specific)."""
        return self.service(name).profile_for(pattern_code)

    def signature(self, name: str) -> ServiceSignature:
        """The signature of service *name*."""
        return self.service(name).signature

    def __contains__(self, name: str) -> bool:
        return name in self._services

    def __iter__(self) -> Iterator[Service]:
        return iter(self._services.values())

    def __len__(self) -> int:
        return len(self._services)

    @property
    def names(self) -> tuple[str, ...]:
        """All registered service names, in registration order."""
        return tuple(self._services)

    def schema(self) -> Schema:
        """A :class:`Schema` view over all registered signatures."""
        return schema_of(service.signature for service in self)

    def join_method(self, service_a: str, service_b: str) -> JoinMethod:
        """Preferred parallel-join method for a pair of services.

        If no explicit registration exists, apply the paper's rule of
        thumb: nested loop when one side is known to produce its top
        tuples within few fetches (it has a small decay bound or is an
        exact selective service), merge-scan when there is no a priori
        distinction — "Since no decay is known for either hotel or
        flight, merge-scan is used" (Example 5.1).
        """
        key = frozenset({service_a, service_b})
        if key in self._join_methods:
            return self._join_methods[key]
        profile_a = self.profile(service_a)
        profile_b = self.profile(service_b)
        if self._tops_out_quickly(profile_a) != self._tops_out_quickly(profile_b):
            return JoinMethod.NESTED_LOOP
        return JoinMethod.MERGE_SCAN

    def join_selectivity(self, service_a: str, service_b: str) -> float:
        """Estimated selectivity of the equi-join between two services."""
        key = frozenset({service_a, service_b})
        return self._join_selectivities.get(key, DEFAULT_JOIN_SELECTIVITY)

    def reset_all(self) -> None:
        """Reset per-experiment state (remote caches) of every service."""
        for service in self:
            service.reset()

    def siblings(
        self, name: str, pattern_codes: Iterable[str] | None = None
    ) -> tuple[str, ...]:
        """Registered services equivalent to *name*, for fallback.

        A sibling serves the same relation shape: identical signature
        domains (same attributes in the same order) and the same
        profile kind (exact vs. search — mixing the two would change
        ranking semantics).  When ``pattern_codes`` is given, every
        listed access pattern must be feasible on the sibling too, so
        a rerouted unit can be invoked with the unit's own inputs
        unchanged.  Candidates come back in registration order (the
        deterministic preference order) and never include *name*
        itself.  Whether a sibling's *content* matches is the
        operator's contract — the certificate records every
        substitution precisely so that contract is auditable.
        """
        base = self.signature(name)
        base_kind = self.profile(name).kind
        codes = tuple(pattern_codes) if pattern_codes is not None else ()
        candidates = []
        for other in self.names:
            if other == name:
                continue
            sig = self.signature(other)
            if tuple(sig.domains) != tuple(base.domains):
                continue
            if self.profile(other).kind is not base_kind:
                continue
            try:
                for code in codes:
                    sig.pattern(code)
            except SchemaError:
                continue
            candidates.append(other)
        return tuple(candidates)

    def content_epoch(self) -> str:
        """Stable content hash of everything the optimizer reads.

        Covers, for every registered service, its signature (name,
        domains, feasible patterns) and the per-pattern profile
        fingerprints, plus the registered join methods, join
        selectivities, and the default selectivity.  Every collection
        is serialized in sorted order, so the digest is independent of
        registration order and of dict iteration order — two
        registries with the same content always agree.

        This is the *epoch* a persistent plan cache keys on: plans
        optimized under one epoch are only replayed while the epoch is
        unchanged, and any profile drift (re-profiled services, new
        selectivity estimates) strands them automatically.

        The digest is cached per registration revision (profiles are
        frozen and content changes only enter through ``register*``
        calls), so the serving hot path pays a dict probe, not a
        re-hash, per request.
        """
        cached = self._epoch_cache
        if cached is not None and cached[0] == self._revision:
            return cached[1]
        services = []
        for name in sorted(self._services):
            service = self._services[name]
            sig = service.signature
            codes = sorted(p.code for p in sig.patterns)
            services.append(
                {
                    "name": name,
                    "domains": list(sig.domains),
                    "patterns": codes,
                    "profiles": {
                        code: service.profile_for(code).fingerprint()
                        for code in codes
                    },
                    "default_profile": service.profile.fingerprint(),
                }
            )
        payload = {
            "services": services,
            "join_methods": sorted(
                (sorted(pair), method.value)
                for pair, method in self._join_methods.items()
            ),
            "join_selectivities": sorted(
                (sorted(pair), selectivity)
                for pair, selectivity in self._join_selectivities.items()
            ),
            "default_join_selectivity": DEFAULT_JOIN_SELECTIVITY,
        }
        digest = content_digest(payload)
        self._epoch_cache = (self._revision, digest)
        return digest

    @staticmethod
    def _tops_out_quickly(profile: ServiceProfile) -> bool:
        max_fetches = profile.max_fetches()
        if max_fetches is not None and max_fetches <= 2:
            return True
        return profile.is_exact and profile.is_selective


class AdjustedRegistry:
    """A registry view with observed response-time overrides.

    The adaptivity layer's bridge from *observed* service health back
    into *plan costs*: :meth:`profile` returns the base registry's
    profile with ``response_time`` raised to the observed value (never
    lowered — a service answering faster than profiled needs no
    re-plan), so an :class:`~repro.optimizer.optimizer.Optimizer` or
    :class:`~repro.plans.builder.PlanBuilder` run against the view
    costs plans at what the service is *actually* doing.

    :meth:`content_epoch` folds the overrides into the base epoch, so
    every plan-cache key resolved under an adjusted view is distinct
    from (and never poisons) the unadjusted epoch's entries, and the
    moment the adjustments change — a breaker opens, closes, or
    re-observes — stale adjusted plans strand automatically, exactly
    like any other profile drift.  With no overrides the view is
    transparent: base profiles, base epoch, bit-identical costing.

    Everything else (service objects, signatures, join methods, ...)
    delegates to the base registry via ``__getattr__``; executions
    against the view invoke the *real* services.
    """

    def __init__(
        self, base: ServiceRegistry, response_times: Mapping[str, float]
    ) -> None:
        self._base = base
        self._response_times = {
            name: rt for name, rt in response_times.items() if rt > 0
        }

    def profile(
        self, name: str, pattern_code: str | None = None
    ) -> ServiceProfile:
        profile = self._base.profile(name, pattern_code)
        observed = self._response_times.get(name)
        if observed is None or observed <= profile.response_time:
            return profile
        return replace(profile, response_time=observed)

    def content_epoch(self) -> str:
        base_epoch = self._base.content_epoch()
        if not self._response_times:
            return base_epoch
        return content_digest(
            {
                "base": base_epoch,
                "adjusted_response_times": sorted(
                    self._response_times.items()
                ),
            }
        )

    def __contains__(self, name: str) -> bool:
        return name in self._base

    def __iter__(self) -> Iterator[Service]:
        return iter(self._base)

    def __len__(self) -> int:
        return len(self._base)

    def __getattr__(self, attribute: str):
        return getattr(self._base, attribute)

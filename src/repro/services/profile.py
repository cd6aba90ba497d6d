"""Service profiles: the statistics driving optimization (Sections 2.1, 3.1).

For uniformity with the paper we keep the same letters:

* ``ξ`` (xi)  — *erspi*, the expected result size per invocation;
* ``τ`` (tau) — the average response time of one invocation/fetch;
* ``cs``     — the chunk size of a chunked service;
* ``d``      — the decay of a search service: the number of tuples
  after which ranking is known to decrease below the threshold of
  interest, when available.

A service whose erspi exceeds 1 is *proliferative*; between 0 and 1 it
is *selective*.  Search services are normally highly proliferative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from repro.digest import content_digest


class ServiceKind(Enum):
    """Exact services behave relationally; search services rank results."""

    EXACT = "exact"
    SEARCH = "search"


class ProfileError(ValueError):
    """Raised for inconsistent profile parameters."""


@dataclass(frozen=True)
class ServiceProfile:
    """Statistical characterization of a service.

    Attributes
    ----------
    kind:
        :class:`ServiceKind.EXACT` or :class:`ServiceKind.SEARCH`.
    erspi:
        Expected result size per invocation (ξ).  For chunked services
        this is the expected number of available results per call
        (what a full scan would return); per-fetch output is governed
        by ``chunk_size`` instead.
    response_time:
        Average response time of one invocation/fetch in seconds (τ).
    chunk_size:
        Tuples per fetch for chunked services, ``None`` for bulk ones.
    decay:
        Number of tuples after which a search service's ranking decays
        below interest (``None`` when unknown).
    cost_per_call:
        Monetary/abstract cost of one invocation, used by the sum cost
        metric; the request-response metric fixes this to 1.
    """

    kind: ServiceKind
    erspi: float
    response_time: float
    chunk_size: int | None = None
    decay: int | None = None
    cost_per_call: float = 1.0

    def __post_init__(self) -> None:
        if self.erspi < 0:
            raise ProfileError(f"erspi must be non-negative, got {self.erspi}")
        if self.response_time < 0:
            raise ProfileError(
                f"response time must be non-negative, got {self.response_time}"
            )
        if self.chunk_size is not None and self.chunk_size <= 0:
            raise ProfileError(f"chunk size must be positive, got {self.chunk_size}")
        if self.decay is not None and self.decay <= 0:
            raise ProfileError(f"decay must be positive, got {self.decay}")
        if self.cost_per_call < 0:
            raise ProfileError(
                f"cost per call must be non-negative, got {self.cost_per_call}"
            )
        if self.kind is ServiceKind.SEARCH and self.chunk_size is None:
            raise ProfileError("search services must be chunked (define chunk_size)")

    @property
    def is_search(self) -> bool:
        """True for search (ranked) services."""
        return self.kind is ServiceKind.SEARCH

    @property
    def is_exact(self) -> bool:
        """True for exact (relational) services."""
        return self.kind is ServiceKind.EXACT

    @property
    def is_chunked(self) -> bool:
        """True when results are returned in fixed-size pages."""
        return self.chunk_size is not None

    @property
    def is_selective(self) -> bool:
        """erspi in (0, 1]: invocations shrink the tuple flow."""
        return self.erspi <= 1.0

    @property
    def is_proliferative(self) -> bool:
        """erspi above 1: invocations multiply the tuple flow."""
        return self.erspi > 1.0

    def max_fetches(self) -> int | None:
        """Upper bound on the fetching factor implied by the decay.

        After ``ceil(d / cs)`` fetches a search service returns no more
        relevant data (Section 4.3.2); ``None`` when no decay is known
        or the service is not chunked.
        """
        if self.decay is None or self.chunk_size is None:
            return None
        return max(1, math.ceil(self.decay / self.chunk_size))

    def fingerprint(self) -> str:
        """Stable content hash of the profile's statistics.

        Two profiles hash equally iff every field driving the
        optimizer's cost estimates is equal; the rendering sorts its
        keys, so the digest is independent of any construction or
        dict ordering.  Plan caches use this (via a registry epoch)
        as their invalidation key: a drifted profile changes the
        digest and strands the stale plans.
        """
        return content_digest(
            {
                "kind": self.kind.value,
                "erspi": self.erspi,
                "response_time": self.response_time,
                "chunk_size": self.chunk_size,
                "decay": self.decay,
                "cost_per_call": self.cost_per_call,
            }
        )

    def describe(self) -> str:
        """One-line rendering used by the Table 1 benchmark."""
        kind = self.kind.value
        chunk = str(self.chunk_size) if self.chunk_size is not None else "-"
        return (
            f"{kind:<7} chunk={chunk:<4} erspi={self.erspi:<7.3g} "
            f"tau={self.response_time:.3g}s"
        )


def exact_profile(
    erspi: float,
    response_time: float,
    chunk_size: int | None = None,
    cost_per_call: float = 1.0,
) -> ServiceProfile:
    """Profile of an exact service (optionally chunked)."""
    return ServiceProfile(
        kind=ServiceKind.EXACT,
        erspi=erspi,
        response_time=response_time,
        chunk_size=chunk_size,
        cost_per_call=cost_per_call,
    )


def search_profile(
    chunk_size: int,
    response_time: float,
    erspi: float | None = None,
    decay: int | None = None,
    cost_per_call: float = 1.0,
) -> ServiceProfile:
    """Profile of a (chunked, ranked) search service.

    When *erspi* is omitted it defaults to the chunk size: a single
    fetch is the unit of invocation, and search services are assumed to
    fill their first page.
    """
    return ServiceProfile(
        kind=ServiceKind.SEARCH,
        erspi=float(chunk_size) if erspi is None else erspi,
        response_time=response_time,
        chunk_size=chunk_size,
        decay=decay,
        cost_per_call=cost_per_call,
    )

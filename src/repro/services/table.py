"""Table-backed services: relations exposed through access patterns.

These are the workhorse implementations used by the simulated deep-Web
sources: a service is a finite relation (a list of full-arity tuples)
together with a signature and a profile.  Invoking the service with an
access pattern selects the rows matching the input values.

* :class:`TableExactService` returns matching rows unranked, either in
  bulk or paged in arbitrary (storage) order.
* :class:`TableSearchService` scores matching rows with a ranking
  function, orders them by decreasing relevance, and returns them in
  chunks.  The score stays out of the visible tuple (the paper notes
  the relevance measure is normally opaque), but rank indexes are
  exposed for rank-aware joins.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from repro.model.schema import AccessPattern, ServiceSignature
from repro.services.base import InvocationError, Service
from repro.services.profile import ServiceProfile

#: Scores rows for search services: maps a full-arity tuple to a float,
#: larger meaning more relevant.
ScoreFunction = Callable[[tuple], float]


class TableService(Service):
    """Common machinery for relation-backed services."""

    def __init__(
        self,
        signature: ServiceSignature,
        profile: ServiceProfile,
        rows: Iterable[Sequence],
        remote_caching: bool = False,
        pattern_profiles: Mapping[str, ServiceProfile] | None = None,
    ) -> None:
        super().__init__(
            signature,
            profile,
            remote_caching=remote_caching,
            pattern_profiles=pattern_profiles,
        )
        self._rows: list[tuple] = []
        for row in rows:
            materialized = tuple(row)
            if len(materialized) != signature.arity:
                raise InvocationError(
                    f"row {materialized!r} has {len(materialized)} fields, "
                    f"but service {signature.name!r} has arity {signature.arity}"
                )
            self._rows.append(materialized)

    @property
    def rows(self) -> tuple[tuple, ...]:
        """The full underlying relation (for tests and profiling)."""
        return tuple(self._rows)

    def _matching_rows(
        self, pattern: AccessPattern, inputs: Mapping[int, object]
    ) -> list[tuple]:
        """Rows whose input positions equal the supplied values."""
        positions = pattern.input_positions
        return [
            row
            for row in self._rows
            if all(row[k] == inputs[k] for k in positions)
        ]

    def _page_slice(self, matches: list[tuple], page: int) -> tuple[list[tuple], bool]:
        """Slice *matches* into the requested page, honoring chunking."""
        chunk = self.profile.chunk_size
        if chunk is None:
            return matches, False
        start = page * chunk
        stop = start + chunk
        return matches[start:stop], stop < len(matches)


class TableExactService(TableService):
    """An exact service over a stored relation (bulk or chunked)."""

    def _compute(
        self,
        pattern: AccessPattern,
        inputs: Mapping[int, object],
        page: int,
    ) -> tuple[list[tuple], list[int], bool]:
        matches = self._matching_rows(pattern, inputs)
        selected, has_more = self._page_slice(matches, page)
        return selected, [], has_more


class TableSearchService(TableService):
    """A search service: ranked, chunked results over a stored relation."""

    def __init__(
        self,
        signature: ServiceSignature,
        profile: ServiceProfile,
        rows: Iterable[Sequence],
        score: ScoreFunction,
        remote_caching: bool = False,
        pattern_profiles: Mapping[str, ServiceProfile] | None = None,
    ) -> None:
        if not profile.is_search:
            raise InvocationError(
                f"TableSearchService requires a search profile for {signature.name!r}"
            )
        super().__init__(
            signature,
            profile,
            rows,
            remote_caching=remote_caching,
            pattern_profiles=pattern_profiles,
        )
        self._score = score

    def _compute(
        self,
        pattern: AccessPattern,
        inputs: Mapping[int, object],
        page: int,
    ) -> tuple[list[tuple], list[int], bool]:
        matches = self._matching_rows(pattern, inputs)
        # Decreasing relevance; ties broken by storage order for
        # determinism (sort is stable).
        ranked = sorted(matches, key=self._score, reverse=True)
        decay = self.profile.decay
        if decay is not None:
            # Beyond the decay bound, ranking is known to be below the
            # threshold of interest: the service stops serving tuples.
            ranked = ranked[:decay]
        selected, has_more = self._page_slice(ranked, page)
        chunk = self.profile.chunk_size or len(ranked)
        first_rank = page * chunk
        ranks = list(range(first_rank, first_rank + len(selected)))
        return selected, ranks, has_more

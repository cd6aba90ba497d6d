"""Sampling-based service profiling (Section 5, "Service registration").

"The registration ... gives estimates (by sampling) of its erspi,
average response time, and chunk values.  The estimates are
periodically updated, also taking advantage of subsequent invocations."

:class:`ServiceProfiler` issues test invocations against a service with
a supplied set of sample inputs, and derives an empirical profile:
average result size per invocation (erspi), average response time, and
the observed chunk size.  The Table 1 benchmark regenerates the paper's
service characterization this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.model.schema import AccessPattern
from repro.services.base import Service
from repro.services.profile import ServiceKind


@dataclass(frozen=True)
class ProfileEstimate:
    """Empirical estimates gathered from sample invocations."""

    service: str
    kind: ServiceKind
    invocations: int
    average_result_size: float
    average_response_time: float
    chunk_size: int | None

    def table_row(self) -> tuple[str, str, str, str, str]:
        """A Table 1-style row: name, type, chunk, avg size, avg time.

        Search services report chunk size but no average response size;
        exact services the opposite — exactly as in the paper's table.
        """
        is_search = self.kind is ServiceKind.SEARCH
        chunk = str(self.chunk_size) if is_search and self.chunk_size else "-"
        size = "-" if is_search else f"{self.average_result_size:g}"
        return (
            self.service,
            self.kind.value,
            chunk,
            size,
            f"{self.average_response_time:g}",
        )


class ServiceProfiler:
    """Estimates service statistics from sample invocations."""

    def __init__(self, service: Service) -> None:
        self._service = service

    def estimate(
        self,
        pattern: AccessPattern,
        sample_inputs: Iterable[Mapping[int, object]],
        fetches_per_input: int = 1,
    ) -> ProfileEstimate:
        """Probe the service with *sample_inputs* and summarize.

        Each sample input is invoked ``fetches_per_input`` times (or
        until the service reports no more pages).  For chunked
        services, erspi is measured per fetch; the chunk size is taken
        to be the maximum page size observed (pages are full except
        possibly the last one).
        """
        total_tuples = 0
        total_latency = 0.0
        calls = 0
        max_page = 0
        for inputs in sample_inputs:
            page = 0
            while page < fetches_per_input:
                result = self._service.invoke(pattern, inputs, page=page)
                calls += 1
                total_tuples += len(result)
                total_latency += result.latency
                max_page = max(max_page, len(result))
                if not result.has_more:
                    break
                page += 1
        if calls == 0:
            raise ValueError("at least one sample input is required")
        profile = self._service.profile
        observed_chunk = max_page if profile.is_chunked else None
        return ProfileEstimate(
            service=self._service.name,
            kind=profile.kind,
            invocations=calls,
            average_result_size=total_tuples / calls,
            average_response_time=total_latency / calls,
            chunk_size=observed_chunk,
        )


def profile_services(
    probes: Sequence[tuple[Service, AccessPattern, Sequence[Mapping[int, object]]]],
) -> list[ProfileEstimate]:
    """Profile several services; returns one estimate per probe."""
    estimates = []
    for service, pattern, samples in probes:
        estimates.append(ServiceProfiler(service).estimate(pattern, samples))
    return estimates


def format_profile_table(estimates: Iterable[ProfileEstimate]) -> str:
    """Render estimates as the paper's Table 1."""
    header = ("Service", "Type", "Chunk size", "Avg response size", "Avg response time")
    rows = [header] + [e.table_row() for e in estimates]
    widths = [max(len(row[k]) for row in rows) for k in range(len(header))]
    lines = []
    for index, row in enumerate(rows):
        line = "  ".join(cell.ljust(widths[k]) for k, cell in enumerate(row))
        lines.append(line.rstrip())
        if index == 0:
            lines.append("-" * len(line))
    return "\n".join(lines)

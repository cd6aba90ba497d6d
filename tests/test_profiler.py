"""Unit tests for the sampling-based service profiler (Section 5)."""

import pytest

from repro.model.schema import AccessPattern, signature
from repro.services.profile import ServiceKind, exact_profile, search_profile
from repro.services.profiler import (
    ServiceProfiler,
    format_profile_table,
    profile_services,
)
from repro.services.table import TableExactService, TableSearchService


@pytest.fixture()
def conf_like():
    rows = []
    for topic, size in [("AI", 25), ("IR", 20), ("SE", 15)]:
        rows.extend((topic, f"{topic}-{i}") for i in range(size))
    return TableExactService(
        signature("conf", ["Topic", "Name"], ["io"]),
        exact_profile(erspi=20.0, response_time=1.2),
        rows,
    )


@pytest.fixture()
def flight_like():
    rows = [("MIL", f"f{i}") for i in range(60)]
    return TableSearchService(
        signature("flight", ["From", "Name"], ["io"]),
        search_profile(chunk_size=25, response_time=9.7),
        rows,
        score=lambda row: -float(row[1][1:]),
    )


class TestEstimates:
    def test_erspi_estimate_is_sample_mean(self, conf_like):
        estimate = ServiceProfiler(conf_like).estimate(
            AccessPattern("io"), [{0: "AI"}, {0: "IR"}, {0: "SE"}]
        )
        assert estimate.average_result_size == pytest.approx(20.0)
        assert estimate.invocations == 3

    def test_response_time_estimate(self, conf_like):
        estimate = ServiceProfiler(conf_like).estimate(
            AccessPattern("io"), [{0: "AI"}]
        )
        assert estimate.average_response_time == pytest.approx(1.2)

    def test_chunk_size_observed(self, flight_like):
        estimate = ServiceProfiler(flight_like).estimate(
            AccessPattern("io"), [{0: "MIL"}], fetches_per_input=2
        )
        assert estimate.chunk_size == 25
        assert estimate.kind is ServiceKind.SEARCH

    def test_no_samples_rejected(self, conf_like):
        with pytest.raises(ValueError):
            ServiceProfiler(conf_like).estimate(AccessPattern("io"), [])

    def test_as_profile_roundtrip(self, flight_like):
        # A search service's estimate restates the profile it was built with.
        estimate = ServiceProfiler(flight_like).estimate(
            AccessPattern("io"), [{0: "MIL"}]
        )
        rebuilt = search_profile(
            chunk_size=estimate.chunk_size,
            response_time=estimate.average_response_time,
        )
        assert rebuilt.fingerprint() == flight_like.profile.fingerprint()

    def test_search_estimate_reads_chunk_and_latency(self, flight_like):
        estimate = ServiceProfiler(flight_like).estimate(
            AccessPattern("io"), [{0: "MIL"}]
        )
        assert estimate.chunk_size == 25
        assert estimate.average_response_time == pytest.approx(9.7)


class TestTableRendering:
    def test_table_rows_follow_paper_conventions(self, conf_like, flight_like):
        estimates = profile_services(
            [
                (conf_like, AccessPattern("io"), [{0: "AI"}]),
                (flight_like, AccessPattern("io"), [{0: "MIL"}]),
            ]
        )
        conf_row = estimates[0].table_row()
        flight_row = estimates[1].table_row()
        # Exact services report avg size, no chunk; search the opposite.
        assert conf_row[2] == "-" and conf_row[3] != "-"
        assert flight_row[2] == "25" and flight_row[3] == "-"

    def test_format_profile_table(self, conf_like):
        estimates = profile_services(
            [(conf_like, AccessPattern("io"), [{0: "AI"}])]
        )
        text = format_profile_table(estimates)
        assert "Service" in text and "conf" in text
        assert len(text.splitlines()) == 3  # header, rule, one row

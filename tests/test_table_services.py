"""Unit tests for table-backed exact and search services."""

import pytest

from repro.model.schema import AccessPattern, signature
from repro.services.base import InvocationError
from repro.services.profile import exact_profile, search_profile
from repro.services.table import TableExactService, TableSearchService


@pytest.fixture()
def cities():
    return TableExactService(
        signature("cities", ["Country", "City"], ["io", "oo"]),
        exact_profile(erspi=2.0, response_time=1.0),
        [("it", "Roma"), ("it", "Milano"), ("fr", "Paris")],
    )


@pytest.fixture()
def spots():
    return TableSearchService(
        signature("spots", ["City", "Spot", "Score"], ["ioo"]),
        search_profile(chunk_size=2, response_time=2.0),
        [
            ("Roma", "Colosseo", 10),
            ("Roma", "Pantheon", 9),
            ("Roma", "Trastevere", 7),
            ("Roma", "Testaccio", 5),
            ("Milano", "Duomo", 9),
        ],
        score=lambda row: float(row[2]),
    )


class TestExactService:
    def test_invoke_filters_by_inputs(self, cities):
        result = cities.invoke(AccessPattern("io"), {0: "it"})
        assert set(result.tuples) == {("it", "Roma"), ("it", "Milano")}
        assert not result.has_more

    def test_invoke_all_output_pattern(self, cities):
        result = cities.invoke(AccessPattern("oo"), {})
        assert len(result) == 3

    def test_no_matches_is_empty_not_error(self, cities):
        result = cities.invoke(AccessPattern("io"), {0: "de"})
        assert result.tuples == ()

    def test_missing_input_rejected(self, cities):
        with pytest.raises(InvocationError):
            cities.invoke(AccessPattern("io"), {})

    def test_extra_input_rejected(self, cities):
        with pytest.raises(InvocationError):
            cities.invoke(AccessPattern("io"), {0: "it", 1: "Roma"})

    def test_unknown_pattern_rejected(self, cities):
        with pytest.raises(InvocationError):
            cities.invoke(AccessPattern("oi"), {1: "Roma"})

    def test_bulk_service_rejects_pages(self, cities):
        with pytest.raises(InvocationError):
            cities.invoke(AccessPattern("io"), {0: "it"}, page=1)

    @pytest.mark.parametrize(
        "pattern, inputs, page, error, message",
        [
            # Borrowed from another signature: its code is not one of
            # this service's feasible patterns (checked against the
            # code set built once in the constructor) ...
            (signature("other", ["A", "B", "C"], ["iio"]).pattern("iio"),
             {0: "it", 1: "Roma"}, 0, InvocationError,
             "pattern 'iio' is not feasible for service 'cities'"),
            (AccessPattern("io"), {}, 0, InvocationError,
             "missing input positions [0] for 'cities' with pattern 'io'"),
            (AccessPattern("io"), {0: "it", 1: "Roma"}, 0, InvocationError,
             "values supplied for non-input positions [1] of 'cities'"),
            (AccessPattern("io"), {0: "it"}, -1, InvocationError,
             "page must be non-negative, got -1"),
            (AccessPattern("io"), {0: "it"}, 1, InvocationError,
             "service 'cities' is bulk: only page 0 is available"),
        ],
    )
    def test_invalid_invocations_keep_their_typed_errors(
        self, cities, pattern, inputs, page, error, message
    ):
        with pytest.raises(error) as raised:
            cities.invoke(pattern, inputs, page=page)
        assert str(raised.value) == message

    def test_latency_reported(self, cities):
        result = cities.invoke(AccessPattern("io"), {0: "it"})
        assert result.latency == pytest.approx(1.0)

    def test_row_arity_validated(self):
        with pytest.raises(InvocationError):
            TableExactService(
                signature("s", ["A", "B"], ["io"]),
                exact_profile(erspi=1, response_time=1),
                [("only-one",)],
            )


class TestSearchService:
    def test_results_ranked_by_score(self, spots):
        result = spots.invoke(AccessPattern("ioo"), {0: "Roma"})
        assert [row[1] for row in result.tuples] == ["Colosseo", "Pantheon"]

    def test_chunking_and_has_more(self, spots):
        first = spots.invoke(AccessPattern("ioo"), {0: "Roma"}, page=0)
        assert len(first) == 2 and first.has_more
        second = spots.invoke(AccessPattern("ioo"), {0: "Roma"}, page=1)
        assert len(second) == 2 and not second.has_more
        third = spots.invoke(AccessPattern("ioo"), {0: "Roma"}, page=2)
        assert len(third) == 0

    def test_ranks_are_global_indexes(self, spots):
        second = spots.invoke(AccessPattern("ioo"), {0: "Roma"}, page=1)
        assert second.ranks == (2, 3)

    def test_decay_truncates_results(self):
        service = TableSearchService(
            signature("s", ["K", "V"], ["io"]),
            search_profile(chunk_size=2, response_time=1.0, decay=3),
            [("k", f"v{i}") for i in range(10)],
            score=lambda row: -float(row[1][1:]),
        )
        first = service.invoke(AccessPattern("io"), {0: "k"}, page=0)
        second = service.invoke(AccessPattern("io"), {0: "k"}, page=1)
        assert len(first) == 2 and first.has_more
        assert len(second) == 1 and not second.has_more  # decayed at 3

    def test_search_profile_required(self):
        with pytest.raises(InvocationError):
            TableSearchService(
                signature("s", ["K"], ["i"]),
                exact_profile(erspi=1, response_time=1),
                [],
                score=lambda row: 0.0,
            )


class TestRemoteCaching:
    def test_repeat_call_is_fast(self):
        service = TableExactService(
            signature("s", ["K", "V"], ["io"]),
            exact_profile(erspi=1, response_time=10.0),
            [("a", 1)],
            remote_caching=True,
        )
        first = service.invoke(AccessPattern("io"), {0: "a"})
        repeat = service.invoke(AccessPattern("io"), {0: "a"})
        assert first.latency == pytest.approx(10.0)
        assert not first.from_remote_cache
        assert repeat.latency < 1.0
        assert repeat.from_remote_cache

    def test_reset_clears_remote_cache(self):
        service = TableExactService(
            signature("s", ["K", "V"], ["io"]),
            exact_profile(erspi=1, response_time=10.0),
            [("a", 1)],
            remote_caching=True,
        )
        service.invoke(AccessPattern("io"), {0: "a"})
        service.reset()
        fresh = service.invoke(AccessPattern("io"), {0: "a"})
        assert fresh.latency == pytest.approx(10.0)

    def test_no_remote_caching_by_default(self):
        service = TableExactService(
            signature("s", ["K", "V"], ["io"]),
            exact_profile(erspi=1, response_time=10.0),
            [("a", 1)],
        )
        service.invoke(AccessPattern("io"), {0: "a"})
        repeat = service.invoke(AccessPattern("io"), {0: "a"})
        assert repeat.latency == pytest.approx(10.0)


class TestPatternProfiles:
    def test_profile_for_override(self):
        service = TableExactService(
            signature("s", ["A", "B"], ["io", "oo"]),
            exact_profile(erspi=2.0, response_time=1.0),
            [],
            pattern_profiles={"oo": exact_profile(erspi=50.0, response_time=1.0)},
        )
        assert service.profile_for("io").erspi == 2.0
        assert service.profile_for("oo").erspi == 50.0
        assert service.profile_for(None).erspi == 2.0

    def test_override_must_target_feasible_pattern(self):
        from repro.model.schema import SchemaError

        with pytest.raises(SchemaError):
            TableExactService(
                signature("s", ["A", "B"], ["io"]),
                exact_profile(erspi=2.0, response_time=1.0),
                [],
                pattern_profiles={"oi": exact_profile(erspi=1.0, response_time=1.0)},
            )

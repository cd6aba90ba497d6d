"""Unit tests for service profiles (erspi, chunking, decay)."""

import pytest

from repro.services.profile import (
    ProfileError,
    ServiceKind,
    ServiceProfile,
    exact_profile,
    search_profile,
)


class TestConstruction:
    def test_exact_profile(self):
        profile = exact_profile(erspi=20.0, response_time=1.2)
        assert profile.kind is ServiceKind.EXACT
        assert profile.is_exact and not profile.is_search
        assert not profile.is_chunked

    def test_search_profile_defaults_erspi_to_chunk(self):
        profile = search_profile(chunk_size=25, response_time=9.7)
        assert profile.erspi == 25.0
        assert profile.is_chunked

    def test_search_requires_chunking(self):
        with pytest.raises(ProfileError):
            ServiceProfile(
                kind=ServiceKind.SEARCH, erspi=10, response_time=1.0
            )

    def test_negative_erspi_rejected(self):
        with pytest.raises(ProfileError):
            exact_profile(erspi=-1, response_time=1.0)

    def test_negative_response_time_rejected(self):
        with pytest.raises(ProfileError):
            exact_profile(erspi=1, response_time=-1.0)

    def test_zero_chunk_rejected(self):
        with pytest.raises(ProfileError):
            exact_profile(erspi=1, response_time=1.0, chunk_size=0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ProfileError):
            exact_profile(erspi=1, response_time=1.0, cost_per_call=-1)


class TestClassification:
    def test_selective_vs_proliferative(self):
        assert exact_profile(erspi=0.05, response_time=1).is_selective
        assert exact_profile(erspi=1.0, response_time=1).is_selective
        assert exact_profile(erspi=20.0, response_time=1).is_proliferative

    def test_search_is_normally_proliferative(self):
        assert search_profile(chunk_size=25, response_time=1).is_proliferative


class TestDecay:
    def test_max_fetches_from_decay(self):
        profile = search_profile(chunk_size=10, response_time=1, decay=30)
        assert profile.max_fetches() == 3

    def test_max_fetches_rounds_up(self):
        profile = search_profile(chunk_size=10, response_time=1, decay=25)
        assert profile.max_fetches() == 3

    def test_max_fetches_at_least_one(self):
        profile = search_profile(chunk_size=10, response_time=1, decay=3)
        assert profile.max_fetches() == 1

    def test_no_decay_means_unbounded(self):
        assert search_profile(chunk_size=10, response_time=1).max_fetches() is None

    def test_bulk_service_has_no_fetch_bound(self):
        assert exact_profile(erspi=1, response_time=1).max_fetches() is None

    def test_invalid_decay_rejected(self):
        with pytest.raises(ProfileError):
            search_profile(chunk_size=10, response_time=1, decay=0)


class TestHelpers:
    def test_with_cost(self):
        cheap = exact_profile(erspi=1, response_time=1)
        priced = exact_profile(erspi=1, response_time=1, cost_per_call=2.5)
        assert priced.cost_per_call == 2.5
        assert cheap.cost_per_call == 1.0
        # The price is part of the statistics a cached plan is keyed by.
        assert priced.fingerprint() != cheap.fingerprint()

    def test_describe_mentions_kind_and_chunk(self):
        text = search_profile(chunk_size=5, response_time=4.9).describe()
        assert "search" in text
        assert "chunk=5" in text

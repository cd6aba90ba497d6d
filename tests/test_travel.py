"""Tests for the travel services (Figure 2 schema, Table 1 profiles)."""

import pytest

from repro.model.schema import AccessPattern
from repro.services.registry import JoinMethod
from repro.sources.travel import (
    CONF_TAU,
    FLIGHT_CHUNK,
    FLIGHT_TAU,
    HOTEL_CHUNK,
    HOTEL_TAU,
    WEATHER_TAU,
    travel_registry,
)


class TestSchema:
    def test_figure2_services(self):
        schema = travel_registry().schema()
        assert set(schema.names) == {"conf", "weather", "flight", "hotel"}

    def test_conf_has_two_patterns(self):
        codes = {p.code for p in travel_registry().schema().get("conf").patterns}
        assert codes == {"ioooo", "ooooi"}

    def test_hotel_second_pattern_all_output(self):
        codes = {p.code for p in travel_registry().schema().get("hotel").patterns}
        assert "oooooo" in codes


class TestProfiles:
    """The Table 1 characterization."""

    def test_conf_profile(self, registry):
        profile = registry.profile("conf")
        assert profile.is_exact and not profile.is_chunked
        assert profile.erspi == pytest.approx(20.0)
        assert profile.response_time == pytest.approx(CONF_TAU)

    def test_weather_profile(self, registry):
        profile = registry.profile("weather")
        assert profile.is_exact
        assert profile.response_time == pytest.approx(WEATHER_TAU)

    def test_flight_profile(self, registry):
        profile = registry.profile("flight")
        assert profile.is_search
        assert profile.chunk_size == FLIGHT_CHUNK
        assert profile.response_time == pytest.approx(FLIGHT_TAU)

    def test_hotel_profile(self, registry):
        profile = registry.profile("hotel")
        assert profile.is_search
        assert profile.chunk_size == HOTEL_CHUNK
        assert profile.response_time == pytest.approx(HOTEL_TAU)

    def test_city_driven_conf_is_less_proliferative(self, registry):
        assert registry.profile("conf", "ooooi").erspi < registry.profile(
            "conf", "ioooo"
        ).erspi


class TestBehaviour:
    def test_conf_db_call_returns_71(self, registry):
        result = registry.service("conf").invoke(
            AccessPattern("ioooo"), {0: "DB"}
        )
        assert len(result) == 71

    def test_weather_lookup(self, registry, world):
        city = world.hot_cities[0]
        from repro.sources.world import city_dates

        start, _ = city_dates(city)
        result = registry.service("weather").invoke(
            AccessPattern("ioi"), {0: city, 2: start}
        )
        assert len(result) == 1
        assert result.tuples[0][1] >= 28

    def test_flight_ranked_by_price(self, registry, world):
        from repro.sources.world import city_dates

        city = "Cancun"
        start, end = city_dates(city)
        result = registry.service("flight").invoke(
            AccessPattern("iiiiooo"),
            {0: "Milano", 1: city, 2: start, 3: end},
        )
        prices = [row[6] for row in result.tuples]
        assert prices == sorted(prices)
        assert len(result) == 20  # within one chunk of 25

    def test_hotel_chunking(self, registry, world):
        from repro.sources.world import city_dates

        city = "Cancun"
        start, end = city_dates(city)
        result = registry.service("hotel").invoke(
            AccessPattern("oiiiio"),
            {1: city, 2: "luxury", 3: start, 4: end},
        )
        assert len(result) == 5
        assert not result.has_more  # exactly one chunk of luxury hotels

    def test_hotel_has_remote_caching_flight_does_not(self, registry, world):
        from repro.sources.world import city_dates

        city = "Cancun"
        start, end = city_dates(city)
        hotel_inputs = {1: city, 2: "luxury", 3: start, 4: end}
        hotel = registry.service("hotel")
        hotel.invoke(AccessPattern("oiiiio"), hotel_inputs)
        repeat = hotel.invoke(AccessPattern("oiiiio"), hotel_inputs)
        assert repeat.from_remote_cache

        flight_inputs = {0: "Milano", 1: city, 2: start, 3: end}
        flight = registry.service("flight")
        flight.invoke(AccessPattern("iiiiooo"), flight_inputs)
        again = flight.invoke(AccessPattern("iiiiooo"), flight_inputs)
        assert not again.from_remote_cache

    def test_flight_hotel_join_method_is_merge_scan(self, registry):
        # "Since no decay is known for either hotel or flight,
        # merge-scan is used" (Example 5.1).
        assert registry.join_method("flight", "hotel") is JoinMethod.MERGE_SCAN

"""Calibration tests for the synthetic travel world (Section 6 arithmetic)."""

import pytest

from repro.sources.world import (
    HOT_CITY_CONFS,
    HOT_CITY_FLIGHTS,
    MILD_CITIES,
    build_world,
    city_dates,
    city_temperature,
)


@pytest.fixture(scope="module")
def calibrated_world():
    return build_world()


class TestConferenceCalibration:
    def test_71_db_tuples(self, calibrated_world):
        db = [r for r in calibrated_world.conf_rows if r[0] == "DB"]
        assert len(db) == 71

    def test_54_distinct_cities(self, calibrated_world):
        db = [r for r in calibrated_world.conf_rows if r[0] == "DB"]
        assert len({r[4] for r in db}) == 54

    def test_16_hot_tuples_over_11_cities(self, calibrated_world):
        db = [r for r in calibrated_world.conf_rows if r[0] == "DB"]
        hot = [r for r in db if r[4] in HOT_CITY_CONFS]
        assert len(hot) == 16
        assert len({r[4] for r in hot}) == 11

    def test_colocated_events_share_dates(self, calibrated_world):
        db = [r for r in calibrated_world.conf_rows if r[0] == "DB"]
        per_city = {}
        for row in db:
            per_city.setdefault(row[4], set()).add((row[2], row[3]))
        assert all(len(dates) == 1 for dates in per_city.values())
        # Hence exactly 54 distinct (city, dates) combinations: the
        # optimal cache reduces weather calls from 71 to 54.
        assert len({(r[4], r[2], r[3]) for r in db}) == 54

    def test_no_consecutive_duplicate_cities(self, calibrated_world):
        db = [r for r in calibrated_world.conf_rows if r[0] == "DB"]
        cities = [r[4] for r in db]
        assert all(a != b for a, b in zip(cities, cities[1:]))

    def test_db_rows_inside_window(self, calibrated_world):
        db = [r for r in calibrated_world.conf_rows if r[0] == "DB"]
        assert all("2008-04-01" <= r[2] and r[3] <= "2008-09-28" for r in db)


class TestWeatherCalibration:
    def test_hot_iff_temperature_at_least_28(self, calibrated_world):
        for city, temperature, _ in calibrated_world.weather_rows:
            if city in HOT_CITY_CONFS:
                assert temperature >= 28
            else:
                assert temperature < 28

    def test_city_temperature_helper_agrees(self):
        assert city_temperature("Cancun") >= 28
        assert city_temperature("London") < 28

    def test_one_weather_row_per_city(self, calibrated_world):
        cities = [row[0] for row in calibrated_world.weather_rows]
        assert len(cities) == len(set(cities)) == 54


class TestFlightCalibration:
    def test_mombasa_has_no_flights(self, calibrated_world):
        assert not any(r[1] == "Mombasa" for r in calibrated_world.flight_rows)

    def test_flight_counts_per_hot_city(self, calibrated_world):
        for city, expected in HOT_CITY_FLIGHTS.items():
            actual = sum(1 for r in calibrated_world.flight_rows if r[1] == city)
            assert actual == expected, city

    def test_284_tuples_flow_in_plan_s(self):
        # Sum over the 16 weather-passing conf tuples of the flights to
        # their city: the hotel call count of plan S without caching.
        flows = sum(HOT_CITY_CONFS[c] * HOT_CITY_FLIGHTS[c] for c in HOT_CITY_CONFS)
        assert flows == 284

    def test_flights_match_conference_dates(self, calibrated_world):
        for _, city, out_date, ret_date, _, _, _ in calibrated_world.flight_rows:
            assert (out_date, ret_date) == city_dates(city)


class TestHotelCalibration:
    def test_five_luxury_hotels_everywhere(self, calibrated_world):
        luxury = {}
        for row in calibrated_world.hotel_rows:
            if row[2] == "luxury":
                luxury[row[1]] = luxury.get(row[1], 0) + 1
        assert set(luxury.values()) == {5}
        assert len(luxury) == 54

    def test_standard_hotels_exist(self, calibrated_world):
        categories = {row[2] for row in calibrated_world.hotel_rows}
        assert categories == {"luxury", "standard"}

    def test_budget_answers_exist(self, calibrated_world):
        # Enough flight+hotel pairs under 2000 for k=10 answers.
        flights = {}
        for row in calibrated_world.flight_rows:
            flights.setdefault(row[1], []).append(row[6])
        cheap_pairs = 0
        for row in calibrated_world.hotel_rows:
            if row[2] != "luxury" or row[1] not in flights:
                continue
            cheap_pairs += sum(
                1 for price in flights[row[1]] if price + row[5] < 2000
            )
        assert cheap_pairs >= 10


class TestDeterminism:
    def test_build_world_is_reproducible(self, calibrated_world):
        again = build_world()
        assert again.conf_rows == calibrated_world.conf_rows
        assert again.flight_rows == calibrated_world.flight_rows
        assert again.hotel_rows == calibrated_world.hotel_rows
        assert again.weather_rows == calibrated_world.weather_rows

    def test_city_lists_disjoint_and_sized(self, calibrated_world):
        assert len(calibrated_world.hot_cities) == 11
        assert len(calibrated_world.mild_cities) == len(MILD_CITIES)
        assert not set(calibrated_world.hot_cities) & set(
            calibrated_world.mild_cities
        )

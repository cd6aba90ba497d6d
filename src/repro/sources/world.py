"""The calibrated synthetic travel world (Section 6 substitute).

The paper wrapped live sources (conference-service.com, accuweather,
expedia, bookings.com).  We replace them with a deterministic synthetic
world engineered so that the narrative arithmetic of Section 6 holds
exactly:

* ``conf('DB', ...)`` returns **71** tuples over **54** distinct cities
  ("some cities host several events"); co-located events share the
  same dates, so the number of distinct (city, dates) combinations is
  also 54 — which is why the optimal cache reduces weather calls from
  71 to 54;
* **16** of the 71 tuples are in cities with average temperature ≥ 28°C,
  spread over **11** distinct hot cities;
* exactly one hot city (Mombasa) has **no** flights from Milano; the
  flights of the other ten are calibrated so that the 16 weather-passing
  tuples yield **284** flight tuples in total (the number of hotel calls
  of plan S without caching);
* conference tuples are emitted city-interleaved, so consecutive
  duplicates never occur at the weather/flight nodes (the one-call
  cache does not reduce their 71/16 calls, as in Figure 11), while the
  284 flight tuples arrive in per-city blocks (the one-call cache cuts
  hotel calls to 15: one block per weather-passing tuple, minus the
  empty Mombasa block);
* every city has exactly 5 luxury hotels (one full chunk of the hotel
  service).

All values are fixed tables — no randomness — so every experiment is
reproducible bit-for-bit.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

#: Hot cities (average temperature >= 28°C) with the number of 'DB'
#: conferences each hosts.  Totals: 16 tuples over 11 cities.
HOT_CITY_CONFS: dict[str, int] = {
    "Cancun": 3,
    "Phuket": 2,
    "Dubai": 2,
    "Singapore": 2,
    "Miami": 1,
    "Honolulu": 1,
    "Bangkok": 1,
    "Doha": 1,
    "Manila": 1,
    "Casablanca": 1,
    "Mombasa": 1,
}

#: Flights Milano -> hot city; Mombasa deliberately has none.  The
#: weighted sum over conference tuples equals 284 (see module test).
HOT_CITY_FLIGHTS: dict[str, int] = {
    "Cancun": 20,
    "Phuket": 22,
    "Dubai": 21,
    "Singapore": 19,
    "Miami": 17,
    "Honolulu": 18,
    "Bangkok": 16,
    "Doha": 20,
    "Manila": 15,
    "Casablanca": 14,
    "Mombasa": 0,
}

#: Temperate cities.  The first 12 host 2 'DB' conferences, the rest 1:
#: 12 * 2 + 31 = 55 tuples, for a grand total of 71 over 54 cities.
MILD_CITIES: tuple[str, ...] = (
    "Amsterdam", "Athens", "Auckland", "Barcelona", "Beijing", "Berlin",
    "Bern", "Bologna", "Boston", "Bratislava", "Brussels", "Bucharest",
    "Budapest", "Copenhagen", "Dublin", "Edinburgh", "Geneva", "Hamburg",
    "Helsinki", "Krakow", "Lisbon", "Ljubljana", "London", "Lyon",
    "Madrid", "Montreal", "Munich", "Oslo", "Ottawa", "Paris", "Porto",
    "Prague", "Riga", "Rome", "Seattle", "Sofia", "Stockholm", "Tallinn",
    "Toronto", "Vancouver", "Vienna", "Warsaw", "Zurich",
)

#: Number of mild cities hosting two co-located 'DB' events.
MILD_DOUBLE_COUNT = 12

#: Cities with flights from Milano besides the hot ones (for realism in
#: the fully parallel plan, which calls flight for every conf tuple).
#: Amsterdam is a deep route (more fares than one chunk) so service
#: profiling can observe the true chunk size; mild cities never pass
#: the temperature filter, so this does not disturb the calibration.
MILD_CITIES_WITH_FLIGHTS = MILD_CITIES[:5]
MILD_FLIGHTS_PER_CITY = 8
DEEP_ROUTE_CITY = MILD_CITIES[0]
DEEP_ROUTE_FLIGHTS = 32

#: Query window: 'DB' conferences within six months of this date.
WINDOW_START = "2008-04-01"
WINDOW_END = "2008-09-28"

#: Other topics, used to profile the conf service (their mean response
#: size is the erspi the paper reports in Table 1: 20).
OTHER_TOPIC_SIZES: dict[str, int] = {"AI": 25, "IR": 20, "SE": 15, "OS": 20}

#: Luxury hotels per city — exactly one chunk of the hotel service.
LUXURY_HOTELS_PER_CITY = 5
STANDARD_HOTELS_PER_CITY = 4


@dataclass(frozen=True)
class TravelWorld:
    """The four relations backing the travel services."""

    conf_rows: tuple[tuple, ...]
    weather_rows: tuple[tuple, ...]
    flight_rows: tuple[tuple, ...]
    hotel_rows: tuple[tuple, ...]
    hot_cities: tuple[str, ...]
    mild_cities: tuple[str, ...]

    @property
    def all_cities(self) -> tuple[str, ...]:
        """All 54 conference cities."""
        return self.hot_cities + self.mild_cities


def _city_order() -> list[str]:
    """All cities in a fixed, interleaving-friendly order."""
    return sorted(list(HOT_CITY_CONFS) + list(MILD_CITIES))


def city_dates(city: str) -> tuple[str, str]:
    """The (shared) start/end dates of the events hosted by *city*.

    Deterministic spread over the six-month window; co-located events
    share these dates, keeping distinct (city, dates) combinations at
    exactly one per city.
    """
    cities = _city_order()
    index = cities.index(city)
    base = datetime.date(2008, 4, 1)
    start = base + datetime.timedelta(days=(index * 3) % 175)
    end = start + datetime.timedelta(days=3)
    return start.isoformat(), end.isoformat()


def _conf_multiplicities() -> dict[str, int]:
    multiplicities = dict(HOT_CITY_CONFS)
    for position, city in enumerate(MILD_CITIES):
        multiplicities[city] = 2 if position < MILD_DOUBLE_COUNT else 1
    return multiplicities


def _build_conf_rows() -> list[tuple]:
    """'DB' rows city-interleaved (no consecutive duplicate city), plus
    rows for the profiling topics."""
    multiplicities = _conf_multiplicities()
    rows: list[tuple] = []
    remaining = dict(multiplicities)
    cycle = 0
    while any(count > 0 for count in remaining.values()):
        for city in _city_order():
            if remaining[city] <= 0:
                continue
            start, end = city_dates(city)
            name = f"{city} DB Symposium {cycle + 1}"
            rows.append(("DB", name, start, end, city))
            remaining[city] -= 1
        cycle += 1
    for topic, size in OTHER_TOPIC_SIZES.items():
        cities = _city_order()
        for index in range(size):
            city = cities[(index * 7) % len(cities)]
            start, end = city_dates(city)
            rows.append((topic, f"{city} {topic} Workshop {index + 1}", start, end, city))
    return rows


def city_temperature(city: str) -> int:
    """Average temperature of *city*: >= 28 iff the city is hot."""
    cities = _city_order()
    index = cities.index(city)
    if city in HOT_CITY_CONFS:
        return 29 + index % 5
    return 12 + index % 12


def _build_weather_rows(conf_rows: list[tuple]) -> list[tuple]:
    seen: set[tuple[str, str]] = set()
    rows: list[tuple] = []
    for _, _, start, _, city in conf_rows:
        key = (city, start)
        if key in seen:
            continue
        seen.add(key)
        rows.append((city, city_temperature(city), start))
    return rows


def _build_flight_rows() -> list[tuple]:
    rows: list[tuple] = []
    flights_per_city = dict(HOT_CITY_FLIGHTS)
    for city in MILD_CITIES_WITH_FLIGHTS:
        flights_per_city[city] = MILD_FLIGHTS_PER_CITY
    flights_per_city[DEEP_ROUTE_CITY] = DEEP_ROUTE_FLIGHTS
    for city, count in sorted(flights_per_city.items()):
        start, end = city_dates(city)
        for index in range(count):
            out_time = f"{6 + index % 14:02d}:00"
            ret_time = f"{8 + index % 13:02d}:30"
            price = 180 + (index * 37 + len(city) * 11) % 900
            rows.append(("Milano", city, start, end, out_time, ret_time, price))
    return rows


def _build_hotel_rows() -> list[tuple]:
    rows: list[tuple] = []
    for city_index, city in enumerate(_city_order()):
        start, end = city_dates(city)
        for index in range(LUXURY_HOTELS_PER_CITY):
            price = 260 + (index * 83 + city_index * 17) % 640
            rows.append((f"{city} Grand {index + 1}", city, "luxury", start, end, price))
        for index in range(STANDARD_HOTELS_PER_CITY):
            price = 80 + (index * 53 + city_index * 13) % 240
            rows.append((f"{city} Inn {index + 1}", city, "standard", start, end, price))
    return rows


def build_world() -> TravelWorld:
    """Build the deterministic calibrated travel world."""
    conf_rows = _build_conf_rows()
    return TravelWorld(
        conf_rows=tuple(conf_rows),
        weather_rows=tuple(_build_weather_rows(conf_rows)),
        flight_rows=tuple(_build_flight_rows()),
        hotel_rows=tuple(_build_hotel_rows()),
        hot_cities=tuple(sorted(HOT_CITY_CONFS)),
        mild_cities=tuple(sorted(MILD_CITIES)),
    )

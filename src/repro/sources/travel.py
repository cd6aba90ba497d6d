"""The travel services and running-example query (Sections 2.5, 3, 6).

Exposes the four services of Figure 2 over the calibrated synthetic
world, with the Table 1 profiles::

    conf     exact    erspi 20   τ 1.2 s
    weather  exact    erspi 1*   τ 1.5 s   (* 0.05 effective, see below)
    flight   search   chunk 25   τ 9.7 s
    hotel    search   chunk 5    τ 4.9 s   (remote-side caching, as the
                                            paper observes for Bookings)

Selectivity bookkeeping, chosen so that the arithmetic of Example 5.1
and Figure 8 is reproduced exactly:

* the paper folds selection predicates into erspi.  Table 1's 0.05 for
  weather is the erspi *with* the ``Temperature >= 28`` filter; we
  register the raw erspi (1: one weather tuple per city/date) and give
  the temperature predicate an explicit selectivity of 0.05, so the
  annotated product ``ξ_conf · ξ_weather = 20 · 0.05 = 1`` matches
  Figure 8;
* the date-window predicates carry selectivity 1 (the conf profile of
  20 answers per topic already refers to the upcoming window);
* ``FPrice + HPrice < 2000`` carries the estimated selectivity 0.01 —
  "the join's estimated erspi is 0.01" in Example 5.1; it is applied
  at the flight/hotel merge point (plan O) or after the hotel node
  (serial plans).
"""

from __future__ import annotations

from repro.model.atoms import Atom
from repro.model.predicates import BinaryExpression, Comparison
from repro.model.query import ConjunctiveQuery
from repro.model.schema import ServiceSignature, signature
from repro.model.terms import Constant, Variable
from repro.optimizer.patterns import PatternSequence
from repro.plans.builder import Poset
from repro.services.profile import exact_profile, search_profile
from repro.services.registry import ServiceRegistry
from repro.services.table import TableExactService, TableSearchService
from repro.sources.world import TravelWorld, build_world

#: Atom positions in the running-example query body (Figure 3 order).
FLIGHT_ATOM = 0
HOTEL_ATOM = 1
CONF_ATOM = 2
WEATHER_ATOM = 3

#: Table 1 response times (seconds).
CONF_TAU = 1.2
WEATHER_TAU = 1.5
FLIGHT_TAU = 9.7
HOTEL_TAU = 4.9

#: Table 1 chunk sizes.
FLIGHT_CHUNK = 25
HOTEL_CHUNK = 5

#: Profile erspi values (see module docstring for the weather caveat).
CONF_ERSPI = 20.0
CONF_CITY_ERSPI = 2.8  # ~151 events over 54 cities with the ooooi pattern
WEATHER_RAW_ERSPI = 1.0
WEATHER_FILTER_SELECTIVITY = 0.05
PRICE_PREDICATE_SELECTIVITY = 0.01


def conf_signature() -> ServiceSignature:
    """conf{ioooo,ooooi}(Topic, Name, Start, End, City)."""
    return signature(
        "conf",
        ["Topic", "ConfName", "Date", "Date", "City"],
        ["ioooo", "ooooi"],
    )


def weather_signature() -> ServiceSignature:
    """weather{ioi}(City, Temperature, Date)."""
    return signature("weather", ["City", "Temperature", "Date"], ["ioi"])


def flight_signature() -> ServiceSignature:
    """flight{iiiiooo}(From, To, OutDate, RetDate, OutTime, RetTime, Price)."""
    return signature(
        "flight",
        ["City", "City", "Date", "Date", "Time", "Time", "Price"],
        ["iiiiooo"],
    )


def hotel_signature() -> ServiceSignature:
    """hotel{oiiiio,oooooo}(Name, City, Category, CheckIn, CheckOut, Price).

    The second, all-output pattern is the paper's hotel₂ (Example 4.1:
    "hotel₂ only has output fields").
    """
    return signature(
        "hotel",
        ["HotelName", "City", "Category", "Date", "Date", "Price"],
        ["oiiiio", "oooooo"],
    )


def travel_registry(world: TravelWorld | None = None) -> ServiceRegistry:
    """Registry with the four services over the calibrated world."""
    world = world or build_world()
    registry = ServiceRegistry()
    registry.register(
        TableExactService(
            conf_signature(),
            exact_profile(erspi=CONF_ERSPI, response_time=CONF_TAU),
            world.conf_rows,
            # The city-driven pattern returns far fewer tuples per call
            # than the topic-driven one (a couple of events per city vs
            # 20 per topic) — erspi is pattern-specific.
            pattern_profiles={
                "ooooi": exact_profile(
                    erspi=CONF_CITY_ERSPI, response_time=CONF_TAU
                )
            },
        )
    )
    registry.register(
        TableExactService(
            weather_signature(),
            exact_profile(erspi=WEATHER_RAW_ERSPI, response_time=WEATHER_TAU),
            world.weather_rows,
        )
    )
    registry.register(
        TableSearchService(
            flight_signature(),
            search_profile(chunk_size=FLIGHT_CHUNK, response_time=FLIGHT_TAU),
            world.flight_rows,
            score=lambda row: -float(row[6]),  # cheapest flights first
        )
    )
    registry.register(
        TableSearchService(
            hotel_signature(),
            search_profile(chunk_size=HOTEL_CHUNK, response_time=HOTEL_TAU),
            world.hotel_rows,
            score=lambda row: -float(row[5]),  # cheapest hotels first
            remote_caching=True,  # the Bookings.com effect (Section 6)
        )
    )
    return registry


def running_example_query() -> ConjunctiveQuery:
    """The query of Figure 3 (atom order as printed in the paper)."""
    city = Variable("City")
    start = Variable("Start")
    end = Variable("End")
    out_time = Variable("OutTime")
    ret_time = Variable("RetTime")
    f_price = Variable("FPrice")
    hotel_name = Variable("Hotel")
    h_price = Variable("HPrice")
    conf_name = Variable("Conf")
    temperature = Variable("Temperature")

    flight_atom = Atom(
        "flight",
        (Constant("Milano"), city, start, end, out_time, ret_time, f_price),
    )
    hotel_atom = Atom(
        "hotel",
        (hotel_name, city, Constant("luxury"), start, end, h_price),
    )
    conf_atom = Atom("conf", (Constant("DB"), conf_name, start, end, city))
    weather_atom = Atom("weather", (city, temperature, start))

    from repro.sources.world import WINDOW_END, WINDOW_START

    predicates = (
        Comparison(start, ">=", Constant(WINDOW_START), selectivity=1.0),
        Comparison(end, "<=", Constant(WINDOW_END), selectivity=1.0),
        Comparison(
            temperature, ">=", Constant(28),
            selectivity=WEATHER_FILTER_SELECTIVITY,
        ),
        Comparison(
            BinaryExpression("+", f_price, h_price),
            "<",
            Constant(2000),
            selectivity=PRICE_PREDICATE_SELECTIVITY,
        ),
    )
    return ConjunctiveQuery(
        name="q",
        head=(
            conf_name, city, hotel_name, f_price, h_price,
            start, end, out_time, ret_time,
        ),
        atoms=(flight_atom, hotel_atom, conf_atom, weather_atom),
        predicates=predicates,
    )


def alpha1_patterns() -> PatternSequence:
    """α1: conf₁ (topic-driven), flight, hotel₁, weather."""
    return (
        flight_signature().pattern("iiiiooo"),
        hotel_signature().pattern("oiiiio"),
        conf_signature().pattern("ioooo"),
        weather_signature().pattern("ioi"),
    )


def poset_serial() -> Poset:
    """Plan S: conf → weather → flight → hotel (Figure 7a)."""
    return Poset(
        n=4,
        pairs=frozenset(
            {
                (CONF_ATOM, WEATHER_ATOM),
                (WEATHER_ATOM, FLIGHT_ATOM),
                (FLIGHT_ATOM, HOTEL_ATOM),
            }
        ),
    )


def poset_parallel() -> Poset:
    """Plan P: conf, then weather/flight/hotel in parallel (Figure 7c)."""
    return Poset(
        n=4,
        pairs=frozenset(
            {
                (CONF_ATOM, WEATHER_ATOM),
                (CONF_ATOM, FLIGHT_ATOM),
                (CONF_ATOM, HOTEL_ATOM),
            }
        ),
    )


def poset_optimal() -> Poset:
    """Plan O: conf → weather → (flight ∥ hotel) (Figures 7d and 8)."""
    return Poset(
        n=4,
        pairs=frozenset(
            {
                (CONF_ATOM, WEATHER_ATOM),
                (WEATHER_ATOM, FLIGHT_ATOM),
                (WEATHER_ATOM, HOTEL_ATOM),
            }
        ),
    )

"""Seeded workload generators and the fleets they run against.

The seed reaches the program only as generated datalog *text*: every
request is ``(domain, text, k)`` and enters through
``QueryService.submit``.  A workload is a fleet configuration (which
registries, which caches), a request stream, and a script saying what
one client does with each request.

Streams are *stratified*: a block holds every template in exact
proportion (Zipf(1.1) shares by largest remainder, or the fixed
domain mix of ``params_cold``) and the seed only shuffles each block.
Two seeds therefore offer the same mix in a different order, which is
what lets runs with different seeds be compared at all — a sampled
Zipf stream moves the median by which template happens to be popular.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from repro.serving import PlanCache, QueryService
from repro.services.registry import ServiceRegistry
from repro.sources.biblio import biblio_registry, generate_corpus
from repro.sources.bio import bio_registry
from repro.sources.news import news_registry
from repro.sources.travel import travel_registry
from repro.sources.weekend import weekend_registry

import spec

ZIPF_EXPONENT = 1.1
BLOCK = 200

# -- query text -----------------------------------------------------------

TRAVEL = (
    "q(Conf, City, Hotel, FPrice, HPrice, Start, End, OutTime, RetTime) :- "
    "flight('Milano', City, Start, End, OutTime, RetTime, FPrice), "
    "hotel(Hotel, City, 'luxury', Start, End, HPrice), "
    "conf('DB', Conf, Start, End, City), weather(City, Temperature, Start), "
    "Start >= '2008-04-01', End <= '2008-09-28', "
    "Temperature >= {temperature}, FPrice + HPrice < {budget}."
)
BIO = (
    "homologs(Human, Mouse, Domain, Score) :- kegg('{pathway}', Human), "
    "uniprot(Human, 'human', Gene), blast(Human, Mouse, Score), "
    "uniprot(Mouse, 'mouse', MouseGene), interpro(Mouse, Domain, Repeats), "
    "Score >= {score}, Repeats >= {repeats}."
)
NEWS = (
    "marketnews(Company, Headline, Date, Change) :- "
    "newssearch('{topic}', Article, Headline, Company, Date), "
    "quotes(Company, Date, Change), profile(Company, '{sector}', Country), "
    "Change >= {move}, Date >= '2008-03-{day:02d}'."
)
WEEKEND = (
    "weekend(City, Date, Price, Venue) :- "
    "lowcost('Milano', City, Date, Price), "
    "concerts(City, Date, '{composer}', Venue), "
    "Date >= '2008-04-{day:02d}', Date <= '2008-04-30', Price <= {budget}."
)
EXPERTS = (
    "experts(Author, Project, Paper, Year) :- "
    "pubsearch('{topic}', Paper, Title, Year), authors(Paper, Author), "
    "projects(Author, Project, Programme), Year >= {year}."
)


@dataclass(frozen=True)
class Request:
    """One query as a client sends it."""

    domain: str
    text: str
    k: int


def _news(topic: str, sector: str, move: int = 5, day: int = 1) -> str:
    return NEWS.format(topic=topic, sector=sector, move=move, day=day)


def _weekend(budget: int, composer: str = "Mahler", day: int = 1) -> str:
    return WEEKEND.format(composer=composer, day=day, budget=budget)


def zipf_population(k: int, domains=("travel", "bio", "news", "weekend")):
    """The 13 template instances in popularity order (rank 1 first).

    The order is fixed, not seeded, and chosen so the percentiles sit
    inside a latency class instead of on a boundary between two: the
    cheap domains hold ranks 1-2, travel (the slowest, ~10% of ops)
    rank 3 so p95 falls among travel requests, bio rank 4.
    """
    ranked = [
        ("news", _news("merger", "tech")),
        ("weekend", _weekend(120)),
        ("travel", TRAVEL.format(temperature=28, budget=2000)),
        ("bio", BIO.format(pathway="glycolysis", score=500, repeats=2)),
        ("news", _news("earnings", "tech")),
        ("weekend", _weekend(100)),
        ("news", _news("recall", "tech")),
        ("news", _news("lawsuit", "tech")),
        ("news", _news("merger", "energy")),
        ("weekend", _weekend(150)),
        ("news", _news("earnings", "energy")),
        ("news", _news("recall", "energy")),
        ("news", _news("lawsuit", "energy")),
    ]
    return [
        Request(domain, text, k) for domain, text in ranked if domain in domains
    ]


def zipf_block(population: list[Request], size: int = BLOCK) -> list[Request]:
    """*size* requests holding each template in its exact Zipf share."""
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(population))]
    quotas = [size * weight / sum(weights) for weight in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(
        range(len(quotas)), key=lambda i: (counts[i] - quotas[i], i)
    )
    for index in by_remainder[: size - sum(counts)]:
        counts[index] += 1
    return [
        request for request, count in zip(population, counts) for _ in range(count)
    ]


def shuffled_blocks(block: list[Request], rng: random.Random) -> Iterator[Request]:
    """Endless stream: the block again and again, reshuffled each time."""
    while True:
        order = list(block)
        rng.shuffle(order)
        yield from order


# Fresh-constant generators for ``params_cold``: (weight in a block of
# 25, domain, parameter space).  Travel is 8% of ops and close to
# half of the time; the shares put p50 among weekend requests and p95
# among travel requests.
_TOPICS = ("merger", "earnings", "recall", "lawsuit")
_SECTORS = ("tech", "energy", "retail", "biotech")
_COMPOSERS = ("Mahler", "Beethoven", "Brahms", "Bruckner", "Verdi")
_PATHWAYS = ("glycolysis", "tca-cycle", "apoptosis")


def _fresh_travel(rng):
    return TRAVEL.format(
        temperature=rng.randrange(24, 31), budget=rng.randrange(1200, 3000)
    )


def _fresh_bio(rng):
    return BIO.format(
        pathway=rng.choice(_PATHWAYS),
        score=rng.randrange(200, 900),
        repeats=rng.randrange(1, 5),
    )


def _fresh_news(rng):
    return _news(
        rng.choice(_TOPICS), rng.choice(_SECTORS),
        move=rng.randrange(0, 15), day=rng.randrange(1, 29),
    )


def _fresh_weekend(rng):
    return _weekend(
        rng.randrange(30, 171), composer=rng.choice(_COMPOSERS),
        day=rng.randrange(1, 21),
    )


_COLD_MIX = (
    (2, "travel", _fresh_travel),
    (5, "bio", _fresh_bio),
    (9, "weekend", _fresh_weekend),
    (9, "news", _fresh_news),
)


def fresh_constant_stream(rng: random.Random, k: int) -> Iterator[Request]:
    """Endless stream of never-repeating queries in the fixed mix.

    None equals a primed template either: each must miss the plan cache.
    The constants come from a generator of their own, the same for every
    seed, and the seed shuffles each block like everywhere else: within
    a domain one choice of constants costs the optimizer twice another,
    and a run holds about ten travel requests, so constants drawn per
    seed moved throughput by 13% from seed to seed.
    """
    constants = random.Random(spec.SEED)
    seen = {request.text for request in zipf_population(k)}
    while True:
        block = []
        for count, domain, draw in _COLD_MIX:
            while count:
                text = draw(constants)
                if text not in seen:
                    seen.add(text)
                    block.append(Request(domain, text, k))
                    count -= 1
        rng.shuffle(block)
        yield from block


def biblio_keys() -> list[Request]:
    """4 topics x 5 year thresholds x 4 values of k = 80 keys."""
    return [
        Request("biblio", EXPERTS.format(topic=topic, year=year), k)
        for topic in ("service computing", "data integration", "ranking", "mashups")
        for year in (2003, 2004, 2005, 2006, 2007)
        for k in (5, 10, 20, 40)
    ]


# -- fleets ---------------------------------------------------------------

IN_MEMORY = {
    "travel": travel_registry,
    "bio": bio_registry,
    "news": news_registry,
    "weekend": weekend_registry,
}


@dataclass(frozen=True)
class FleetConfig:
    """Everything that distinguishes one workload's serving fleet."""

    registries: dict[str, Callable[[], ServiceRegistry]]
    share_service_cache: bool = True
    service_cache_capacity: int | None = None
    #: Plan cache is a SQLite WAL file, and set-up restarts the fleet
    #: from it so the first pass is served by the disk tier.
    sqlite_plan_cache: bool = False
    #: > 0: every service really sleeps its reported latency x this.
    sleep_scale: float = 0.0
    #: Memory tier of the plan cache (the program's default; 0 = off).
    plan_cache_capacity: int = 128

    def plan_cache(self, directory: Path) -> PlanCache:
        path = directory / "plans.sqlite" if self.sqlite_plan_cache else None
        return PlanCache(path=path, capacity=self.plan_cache_capacity)

    def registry(self, domain: str, slept: dict[int, float]) -> ServiceRegistry:
        registry = self.registries[domain]()
        if self.sleep_scale:
            wrap_invoke(registry, partial(_sleeping, self.sleep_scale, slept))
        return registry


def wrap_invoke(registry: ServiceRegistry, around) -> None:
    """Replace each service's ``invoke`` by ``around(invoke)``.

    A delegating proxy installed on the instance, so the registry, its
    content epoch and every profile stay exactly what the program built.
    """
    for service in registry:
        service.invoke = around(service.invoke)


def _sleeping(scale: float, slept: dict[int, float], invoke):
    def sleeping_invoke(pattern, inputs, page=0):
        result = invoke(pattern, inputs, page)
        begun = time.perf_counter()
        time.sleep(result.latency * scale)
        me = threading.get_ident()
        slept[me] = slept.get(me, 0.0) + time.perf_counter() - begun
        return result

    return sleeping_invoke


@dataclass
class Fleet:
    """One ``QueryService`` per domain behind one shared plan cache.

    ``submit``/``more``/``release`` are the whole client surface: text
    in, JSON string out, so the timed region ends at the serialized
    answer like the shipped ``python -m repro serve`` loop.
    """

    config: FleetConfig
    directory: Path
    #: Seconds each client thread has slept in the sleeping proxies.
    slept: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.plan_cache = self.config.plan_cache(self.directory)
        self.services = {
            domain: QueryService(
                registry=self.config.registry(domain, self.slept),
                plan_cache=self.plan_cache,
                share_service_cache=self.config.share_service_cache,
                service_cache_capacity=self.config.service_cache_capacity,
            )
            for domain in self.config.registries
        }

    def submit(self, request: Request) -> tuple[str, str]:
        response = self.services[request.domain].submit(request.text, k=request.k)
        return response.to_json(), response.session_id

    def more(self, request: Request, session_id: str, additional: int) -> str:
        service = self.services[request.domain]
        return service.ask_for_more(session_id, additional).to_json()

    def release(self, request: Request, session_id: str) -> bool:
        return self.services[request.domain].release(session_id)

    def session_counts(self) -> tuple[int, int]:
        """(active sessions, capacity evictions) over the whole fleet."""
        sections = [s.snapshot()["sessions"] for s in self.services.values()]
        return (
            sum(section["active"] for section in sections),
            sum(section["evicted"] for section in sections),
        )

    def optimizer_runs(self) -> int:
        return sum(s.stats.optimizer_runs for s in self.services.values())

    def close(self) -> None:
        self.plan_cache.close()


def oracle_fleet(config: FleetConfig, directory: Path) -> Fleet:
    """The cold oracle: no plan cache, no shared service cache, no sleep.

    Answers are a pure function of (registry content, query, k), so the
    oracle need not share the workload's cache settings — only its data.
    """
    cold = FleetConfig(
        registries=config.registries,
        share_service_cache=False,
        plan_cache_capacity=0,
    )
    return Fleet(cold, directory)


# -- the workload table ---------------------------------------------------

SUBMIT = ("submit",)
# Three continuations, not the issue's four: with four, the median
# operation sits on the boundary between two latency classes (a news
# continuation, 0.1 ms, and a weekend one, 0.4 ms) and flips between
# them from run to run; with three it lies 7% of the operations inside
# the weekend class.
SESSION = ("submit", "more", "more", "more", "release")
#: Answers each ``more`` step of the session script asks for.
MORE = 3


@dataclass(frozen=True)
class Workload:
    name: str
    config: FleetConfig
    #: Distinct requests primed in set-up (none: nothing can be primed).
    primed: tuple[Request, ...]
    #: seed -> endless request stream.
    stream: Callable[[random.Random], Iterator[Request]]
    #: Requests per block of the stream; every block holds the same mix.
    block: int
    script: tuple[str, ...] = SUBMIT
    clients: int = 1
    #: Requests of the warm-up pass.  The default is what the Zipf mix
    #: needs to fill every service's session table (64 sessions; bio is
    #: 7.6% of requests): only then does each submit also evict and free
    #: an old session, which is the steady state of a running server.
    warmup_requests: int = 1000
    #: Requests of the fixed-size passes of a traced run at the
    #: declared run length (scaled with --seconds).
    trace_requests: int = 1200

    def streams(self, seed: int) -> list[Iterator[Request]]:
        """One endless stream per client, each a function of the seed."""
        return [
            self.stream(random.Random(seed * 8 + client))
            for client in range(self.clients)
        ]


def build(name: str, quick: bool = False) -> Workload:
    """The workload called *name*; ``quick`` shrinks the biblio data only."""
    in_memory = FleetConfig(registries=IN_MEMORY)
    clients = 2 if name in spec.THREADED else 1
    if name in ("zipf_warm", "zipf_threads"):
        population = zipf_population(k=5)
        return Workload(
            name,
            FleetConfig(
                registries=IN_MEMORY, sqlite_plan_cache=name == "zipf_threads"
            ),
            primed=tuple(population),
            stream=partial(shuffled_blocks, zipf_block(population)), block=BLOCK,
            clients=clients,
        )
    if name == "sessions_more":
        population = zipf_population(k=3)
        return Workload(
            name, in_memory, primed=tuple(population),
            stream=partial(shuffled_blocks, zipf_block(population)), block=BLOCK,
            script=SESSION, warmup_requests=20, trace_requests=600,
        )
    if name == "params_cold":
        # The zipf_warm fleet, primed the same way: the 13 templates
        # share pages (not plans) with the fresh-constant queries.
        return Workload(
            name, in_memory, primed=tuple(zipf_population(k=5)),
            stream=partial(fresh_constant_stream, k=5),
            block=sum(count for count, _, _ in _COLD_MIX),
            warmup_requests=10, trace_requests=50,
        )
    if name == "biblio_indexed":
        keys = [r for r in biblio_keys() if not quick or r.k <= 10]
        corpus = generate_corpus(5_000 if quick else 50_000)
        return Workload(
            name,
            FleetConfig(
                registries={
                    "biblio": partial(
                        biblio_registry, backend="sqlite", corpus=corpus
                    )
                },
                service_cache_capacity=64,
            ),
            primed=tuple(keys), stream=partial(shuffled_blocks, keys),
            block=len(keys),
            warmup_requests=40, trace_requests=80,
        )
    if name == "sleepy_threads":
        population = zipf_population(k=5, domains=("news", "weekend"))
        return Workload(
            name,
            FleetConfig(
                registries={d: IN_MEMORY[d] for d in ("news", "weekend")},
                share_service_cache=False, sleep_scale=0.0005,
            ),
            primed=tuple(population),
            stream=partial(shuffled_blocks, zipf_block(population)), block=BLOCK,
            clients=clients, warmup_requests=20, trace_requests=100,
        )
    raise KeyError(f"unknown workload {name!r}")

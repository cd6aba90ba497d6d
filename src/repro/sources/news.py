"""The news-management domain (Section 6: "We have also applied the
framework to other domains, such as news management ...").

Services:

* ``newssearch(Topic, Article, Headline, Company, Date)`` — a search
  service over a news index, most relevant articles first, chunked,
  with a decay (old/low-relevance articles are not worth paging);
* ``quotes(Company, Date, Change)`` — exact: daily stock movement of a
  company (one tuple per company/date);
* ``profile(Company, Sector, Country)`` — exact company directory,
  accessible by company or by sector.

``examples/news_monitor.py`` asks it, per topic and sector, for the
companies in the news and their stock's move on that day.
"""

from __future__ import annotations

from repro.model.schema import ServiceSignature, signature
from repro.services.profile import exact_profile, search_profile
from repro.services.registry import ServiceRegistry
from repro.services.table import TableExactService, TableSearchService

NEWS_CHUNK = 10
NEWS_DECAY = 40
NEWS_TAU = 1.9
QUOTES_TAU = 0.7
PROFILE_TAU = 0.6

_COMPANIES = (
    ("Acme", "tech", "us"), ("Bolt", "tech", "de"), ("Crate", "retail", "us"),
    ("Dyno", "energy", "no"), ("Ember", "energy", "us"), ("Flux", "tech", "it"),
    ("Grain", "retail", "fr"), ("Helix", "biotech", "ch"),
    ("Ion", "energy", "uk"), ("Jolt", "tech", "us"),
)
_TOPICS = ("merger", "earnings", "recall", "lawsuit")
_DATES = tuple(f"2008-03-{day:02d}" for day in range(3, 29, 5))


def newssearch_signature() -> ServiceSignature:
    """newssearch{ioooo}(Topic, Article, Headline, Company, Date)."""
    return signature(
        "newssearch",
        ["Topic", "Article", "Headline", "Company", "Date"],
        ["ioooo"],
    )


def quotes_signature() -> ServiceSignature:
    """quotes{iio}(Company, Date, Change)."""
    return signature("quotes", ["Company", "Date", "Change"], ["iio"])


def profile_signature() -> ServiceSignature:
    """profile{ioo,oio}(Company, Sector, Country)."""
    return signature("profile", ["Company", "Sector", "Country"], ["ioo", "oio"])


def _news_rows() -> list[tuple]:
    rows = []
    counter = 0
    for topic_index, topic in enumerate(_TOPICS):
        for rank in range(30):
            counter += 1
            company = _COMPANIES[(rank + topic_index) % len(_COMPANIES)][0]
            date = _DATES[(rank * 2 + topic_index) % len(_DATES)]
            rows.append(
                (
                    topic,
                    f"A{counter:04d}",
                    f"{company} {topic} story {rank + 1}",
                    company,
                    date,
                )
            )
    return rows


def _quote_rows() -> list[tuple]:
    rows = []
    for index, (company, _, _) in enumerate(_COMPANIES):
        for date_index, date in enumerate(_DATES):
            change = ((index * 7 + date_index * 13) % 21) - 6  # -6 .. +14
            rows.append((company, date, change))
    return rows


def _relevance(rows: list[tuple]):
    order = {row[1]: index for index, row in enumerate(rows)}

    def score(row: tuple) -> float:
        # Earlier article ids are more relevant within their topic.
        return -float(order[row[1]])

    return score


def news_registry() -> ServiceRegistry:
    """Registry with the three news-domain services."""
    registry = ServiceRegistry()
    news_rows = _news_rows()
    registry.register(
        TableSearchService(
            newssearch_signature(),
            search_profile(
                chunk_size=NEWS_CHUNK, response_time=NEWS_TAU, decay=NEWS_DECAY
            ),
            news_rows,
            score=_relevance(news_rows),
        )
    )
    registry.register(
        TableExactService(
            quotes_signature(),
            exact_profile(erspi=1.0, response_time=QUOTES_TAU),
            _quote_rows(),
        )
    )
    registry.register(
        TableExactService(
            profile_signature(),
            exact_profile(erspi=1.0, response_time=PROFILE_TAU),
            [(name, sector, country) for name, sector, country in _COMPANIES],
            pattern_profiles={
                "oio": exact_profile(erspi=3.0, response_time=PROFILE_TAU)
            },
        )
    )
    return registry

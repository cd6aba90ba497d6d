"""What the optimizer decides does not depend on a constant's value.

Two draws of the constants of one bench template, from the ranges
``params_cold`` draws them from (``bench/workloads.py``), are planned
alike: the same pattern sequence, poset and fetching factors
(``PlanSpec.from_optimized``) at the same cost, to the bit.  With the
guard in ``tests/test_docs.py`` that ``optimizer/``, ``plans/`` and
``costs/`` never read a constant's value, this is the first slice of
template-level plan reuse (ROADMAP item 9).
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costs.time_cost import ExecutionTimeMetric
from repro.model.parser import parse_query
from repro.optimizer.optimizer import Optimizer
from repro.plans.spec import PlanSpec
from repro.serving.service import CACHE_SETTING, OPTIMIZER_CONFIG
from repro.sources.bio import bio_registry
from repro.sources.news import news_registry
from repro.sources.travel import travel_registry
from repro.sources.weekend import weekend_registry

#: Per domain: the registry, the template and its constants' ranges.
TEMPLATES = {
    "travel": (travel_registry, (
        "q(Conf, City, Hotel, FPrice, HPrice, Start, End, OutTime, RetTime) :- "
        "flight('Milano', City, Start, End, OutTime, RetTime, FPrice), "
        "hotel(Hotel, City, 'luxury', Start, End, HPrice), "
        "conf('DB', Conf, Start, End, City), weather(City, Temperature, Start), "
        "Start >= '2008-04-01', End <= '2008-09-28', "
        "Temperature >= {temperature}, FPrice + HPrice < {budget}."
    ), {
        "temperature": st.integers(24, 30), "budget": st.integers(1200, 2999),
    }),
    "bio": (bio_registry, (
        "homologs(Human, Mouse, Domain, Score) :- kegg('{pathway}', Human), "
        "uniprot(Human, 'human', Gene), blast(Human, Mouse, Score), "
        "uniprot(Mouse, 'mouse', MouseGene), interpro(Mouse, Domain, Repeats), "
        "Score >= {score}, Repeats >= {repeats}."
    ), {
        "pathway": st.sampled_from(["glycolysis", "tca-cycle", "apoptosis"]),
        "score": st.integers(200, 899), "repeats": st.integers(1, 4),
    }),
    "news": (news_registry, (
        "marketnews(Company, Headline, Date, Change) :- "
        "newssearch('{topic}', Article, Headline, Company, Date), "
        "quotes(Company, Date, Change), profile(Company, '{sector}', Country), "
        "Change >= {move}, Date >= '2008-03-{day:02d}'."
    ), {
        "topic": st.sampled_from(["merger", "earnings", "recall", "lawsuit"]),
        "sector": st.sampled_from(["tech", "energy", "retail", "biotech"]),
        "move": st.integers(0, 14), "day": st.integers(1, 28),
    }),
    "weekend": (weekend_registry, (
        "weekend(City, Date, Price, Venue) :- "
        "lowcost('Milano', City, Date, Price), "
        "concerts(City, Date, '{composer}', Venue), "
        "Date >= '2008-04-{day:02d}', Date <= '2008-04-30', Price <= {budget}."
    ), {
        "composer": st.sampled_from(
            ["Mahler", "Beethoven", "Brahms", "Bruckner", "Verdi"]
        ),
        "day": st.integers(1, 20), "budget": st.integers(30, 170),
    }),
}

#: What ``QueryService`` plans a fresh query with (k as the bench asks).
CONFIG = replace(OPTIMIZER_CONFIG, k=5, cache_setting=CACHE_SETTING)


@pytest.fixture(scope="module")
def registries():
    return {domain: make() for domain, (make, _, _) in TEMPLATES.items()}


@pytest.mark.parametrize("domain", sorted(TEMPLATES))
@given(data=st.data())
@settings(max_examples=6, deadline=None)
def test_two_draws_of_a_template_are_planned_alike(registries, domain, data):
    _, template, ranges = TEMPLATES[domain]
    first, second = (
        Optimizer(registries[domain], ExecutionTimeMetric(), CONFIG).optimize(
            parse_query(template.format(**data.draw(st.fixed_dictionaries(ranges))))
        )
        for _ in range(2)
    )
    assert PlanSpec.from_optimized(first) == PlanSpec.from_optimized(second)
    assert first.cost.hex() == second.cost.hex()

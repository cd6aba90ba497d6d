"""Figure 1 — the three-phase optimization funnel, plus the search's
exact counts (``figure1_phases.txt``, ``counts_optimizer.txt``).

Benchmarks the optimizer itself: the branch-and-bound search must find
the same optimum as exhaustive enumeration while completing fewer
plans, and the phase-level statistics regenerate the funnel of
Figure 1 (pattern sequences → topologies → fully instantiated plans).

The *search counts* pin what a search does per domain, under the
serving configuration with ETM and with SCM: the states it explored
and pruned, the bounds it computed, the atoms it placed, the bounds it
inherited from an immediate sub-state (a state pruned without being
built), how many topologies reached phase 3 and the fetch vectors they
evaluated, each search's optimum equal to the exhaustive baseline's.  What a bound
costs in µs, and phase 3's fetch vectors per second, are timings:
``test_bench_timings.py`` measures them.
"""

import pytest

from benchmarks.conftest import table, write_artifact
from repro.testing import UnprunedOptimizer, market_moving_news_query
from repro.testing.exhaustive import exhaustive_optimize
from repro.costs.sum_cost import RequestResponseMetric, SumCostMetric
from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.model.parser import parse_query
from repro.optimizer.optimizer import Optimizer, OptimizerConfig

pytestmark = pytest.mark.bench

K = 10


def _optimize(registry, travel_query, search=Optimizer):
    optimizer = search(
        registry,
        ExecutionTimeMetric(),
        OptimizerConfig(k=K, cache_setting=CacheSetting.ONE_CALL),
    )
    return optimizer.optimize(travel_query)


class TestBnbQuality:
    def test_bnb_matches_exhaustive_optimum(self, registry, travel_query):
        bnb = _optimize(registry, travel_query)
        oracle = exhaustive_optimize(
            travel_query, registry, ExecutionTimeMetric(), K,
            cache_setting=CacheSetting.ONE_CALL,
        )
        assert bnb.cost == pytest.approx(oracle.cost)
        assert oracle.expected_answers >= K

    def test_funnel_statistics(self, registry, travel_query, out_dir):
        pruned = _optimize(registry, travel_query)
        unpruned = _optimize(registry, travel_query, UnprunedOptimizer)
        oracle = exhaustive_optimize(
            travel_query, registry, ExecutionTimeMetric(), K,
            cache_setting=CacheSetting.ONE_CALL,
        )
        assert pruned.stats.plans_completed <= unpruned.stats.plans_completed

        rr = Optimizer(
            registry, RequestResponseMetric(),
            OptimizerConfig(k=K, cache_setting=CacheSetting.ONE_CALL),
        ).optimize(travel_query)

        lines = [
            "Figure 1 — optimization funnel of the running example",
            "",
            "Branch-and-bound (ETM):",
            f"  {pruned.stats.summary()}",
            f"  optimum cost {pruned.cost:.1f}, plan {pruned.describe()}",
            "",
            "Without pruning:",
            f"  {unpruned.stats.summary()}",
            "",
            "Exhaustive oracle:",
            f"  {oracle.stats.summary()}",
            f"  optimum cost {oracle.cost:.1f} (identical optimum)",
            "",
            "Request-response metric picks a more sequential plan:",
            f"  {rr.describe()}",
        ]
        write_artifact(out_dir, "figure1_phases.txt", "\n".join(lines))


#: The running example as the serving layer receives it (the travel
#: template of the frozen bench): parsed text, so the predicates carry
#: default selectivities, not the calibrated ones of
#: ``running_example_query``.
TRAVEL_SERVED = (
    "q(Conf, City, Hotel, FPrice, HPrice, Start, End, OutTime, RetTime) :- "
    "flight('Milano', City, Start, End, OutTime, RetTime, FPrice), "
    "hotel(Hotel, City, 'luxury', Start, End, HPrice), "
    "conf('DB', Conf, Start, End, City), weather(City, Temperature, Start), "
    "Start >= '2008-04-01', End <= '2008-09-28', "
    "Temperature >= 28, FPrice + HPrice < 2000."
)

#: The serving configuration every search below runs under.
SEARCH_CONFIG = OptimizerConfig(k=5, cache_setting=CacheSetting.OPTIMAL)


def search_problems():
    """``(name, registry, query)`` of the searches measured here and
    timed by ``test_bench_timings.py``."""
    from repro.sources.biblio import biblio_registry, experts_query
    from repro.sources.bio import bio_registry, glycolysis_homolog_query
    from repro.sources.news import news_registry
    from repro.sources.travel import running_example_query, travel_registry
    from repro.sources.weekend import mahler_weekend_query, weekend_registry

    travel = travel_registry()
    return [
        ("travel", travel, running_example_query()),
        ("travel-served", travel, parse_query(TRAVEL_SERVED)),
        ("biblio", biblio_registry(), experts_query()),
        ("bio", bio_registry(), glycolysis_homolog_query()),
        ("news", news_registry(), market_moving_news_query()),
        ("weekend", weekend_registry(), mahler_weekend_query()),
    ]


def _search_counts(name, registry, query, metric) -> dict:
    best = Optimizer(registry, metric, SEARCH_CONFIG).optimize(query)
    stats = best.stats
    oracle = exhaustive_optimize(
        query, registry, metric, SEARCH_CONFIG.k, SEARCH_CONFIG.cache_setting
    )
    assert best.cost.hex() == oracle.cost.hex(), name
    # A state costs one placed atom (a pruned state drops its open plan;
    # the few that are then extended after all are folded twice), or
    # none when its bound is inherited.
    assert stats.atoms_placed <= 1.1 * stats.topology_states_explored + 2, name
    return {
        "domain": name,
        "metric": metric.name,
        "states_explored": stats.topology_states_explored,
        "states_pruned": stats.topology_states_pruned,
        "bounds_computed": stats.memo_bound_misses,
        "atoms_placed": stats.atoms_placed,
        "bounds_inherited": stats.bounds_inherited,
        "topologies_in_phase3": stats.fetch_evaluations,
        "fetch_vectors_evaluated": stats.fetch_vectors_evaluated,
        "annotate_calls": stats.annotate_calls,
    }


def test_write_counts_optimizer(registry, travel_query, out_dir):
    rows = [
        _search_counts(name, problem_registry, query, metric)
        for name, problem_registry, query in search_problems()
        for metric in (ExecutionTimeMetric(), SumCostMetric())
    ]
    by_key = {(row["domain"], row["metric"]): row for row in rows}
    # Phase 3 sizes the topologies that can still beat the incumbent.
    assert by_key["travel-served", "execution-time"]["topologies_in_phase3"] <= 10
    travel = _optimize(registry, travel_query).stats
    write_artifact(out_dir, "counts_optimizer.txt", "\n\n".join([
        table(f"Search counts: k={SEARCH_CONFIG.k}, optimal cache, optimum "
              "equal to the exhaustive baseline's", rows),
        table(f"Travel search: k={K}, one-call cache, ETM", [{
            "annotate_calls": travel.annotate_calls,
            "programs_compiled": travel.programs_compiled,
            "fetch_vectors_evaluated": travel.fetch_vectors_evaluated,
        }]),
    ]))

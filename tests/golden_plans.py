"""Golden optimizer decisions: what the search chose before PR 13.

PR 13 replaced the per-definition ``annotate()`` with a compiled
annotation program and promised the same floats in the same order, so
every plan, cost and counter of the search must be what the parent
commit produced.  ``fixtures/golden_plans.json`` holds those values;
``observe`` renders an :class:`OptimizedPlan` the same way, and
``python tests/golden_plans.py`` (run with the *parent's* ``src`` on
``PYTHONPATH``) regenerates the file.  Only names that already existed
at the parent are used here.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib

from repro.costs.sum_cost import (
    MonetaryCostMetric,
    RequestResponseMetric,
    SumCostMetric,
)
from repro.costs.time_cost import (
    BottleneckMetric,
    ExecutionTimeMetric,
    TimeToScreenMetric,
)
from repro.execution.cache import CacheSetting
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.sources.biblio import biblio_registry, experts_query
from repro.sources.bio import bio_registry, glycolysis_homolog_query
from repro.sources.news import market_moving_news_query, news_registry
from repro.sources.travel import running_example_query, travel_registry
from repro.sources.weekend import mahler_weekend_query, weekend_registry

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "golden_plans.json"

PROFILES = {
    "travel": lambda: (travel_registry(), running_example_query()),
    "biblio": lambda: (biblio_registry(), experts_query()),
    "bio": lambda: (bio_registry(), glycolysis_homolog_query()),
    "news": lambda: (news_registry(), market_moving_news_query()),
    "weekend": lambda: (weekend_registry(), mahler_weekend_query()),
}

METRICS = {
    metric.name: metric
    for metric in (
        ExecutionTimeMetric,
        BottleneckMetric,
        TimeToScreenMetric,
        SumCostMetric,
        RequestResponseMetric,
        MonetaryCostMetric,
    )
}

#: The optimizer's defaults, what the serving layer runs (bench/), and
#: the no-cache branch of the estimates.
CONFIGS = {
    "default": OptimizerConfig(),
    "serving": OptimizerConfig(k=5, cache_setting=CacheSetting.OPTIMAL),
    "no-cache": OptimizerConfig(k=3, cache_setting=CacheSetting.NO_CACHE),
}

#: Every ``SearchStats`` field of the parent commit.
PARENT_STATS = (
    "pattern_sequences_considered",
    "pattern_sequences_pruned",
    "topology_states_explored",
    "topology_states_pruned",
    "plans_completed",
    "fetch_evaluations",
    "incumbent_updates",
    "annotate_calls",
    "memo_bound_hits",
    "memo_bound_misses",
    "memo_plan_hits",
    "memo_plan_misses",
)


def observe(result) -> dict:
    """The decision and the search trajectory, JSON-comparable."""
    return {
        "patterns": [pattern.code for pattern in result.patterns],
        "poset": sorted(list(pair) for pair in result.poset.closure()),
        "fetches": sorted(list(item) for item in result.fetches.items()),
        "cost": result.cost.hex(),
        "expected_answers": result.expected_answers.hex(),
        # Every node estimate in topological order, as one digest.
        "estimates": hashlib.sha256(
            " ".join(
                f"{e.tuples_in.hex()} {e.tuples_out.hex()} {e.calls.hex()}"
                for e in result.annotation.estimates.values()
            ).encode()
        ).hexdigest()[:16],
        # In PARENT_STATS order.
        "stats": [getattr(result.stats, name) for name in PARENT_STATS],
    }


def cases():
    """``(case id, profile, metric, config)`` for every golden entry."""
    for profile in PROFILES:
        for metric in METRICS:
            for config in CONFIGS:
                yield f"{profile}/{metric}/{config}", profile, metric, config


@functools.cache
def run_case(profile: str, metric: str, config: str) -> dict:
    """A cold search and its re-run on the same (now warm) optimizer.

    Cached: ``test_optimizer.py`` checks the cold half of an entry and
    ``test_memo.py`` the warm half, off one pair of runs.
    """
    registry, query = PROFILES[profile]()
    optimizer = Optimizer(registry, METRICS[metric](), CONFIGS[config])
    cold = observe(optimizer.optimize(query))
    warm = observe(optimizer.optimize(query))
    # The warm run must decide what the cold one did; only its counters
    # (all memo hits) are worth a second copy.
    decision = {field: value for field, value in cold.items() if field != "stats"}
    assert {f: v for f, v in warm.items() if f != "stats"} == decision, (profile, metric, config)
    return {**cold, "warm_stats": warm["stats"]}


@functools.cache
def load() -> dict:
    """The committed golden entries, by case id."""
    return json.loads(FIXTURE.read_text())


if __name__ == "__main__":
    golden = {case: run_case(*key) for case, *key in cases()}
    lines = [
        f"{json.dumps(case)}: {json.dumps(golden[case], sort_keys=True)}"
        for case in sorted(golden)
    ]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(golden)} cases -> {FIXTURE}")

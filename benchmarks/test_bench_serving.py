"""Multi-tenant serving trajectory (``BENCH_serving.json``).

Replays a Zipf-distributed stream of query-template instances from the
four built-in domains (travel, news, bio, weekend) against the serving
layer and measures what the subsystem was built to amortize:

* **plan-cache hit rate** — the fraction of submissions answered
  without running the branch-and-bound optimizer (one shared
  :class:`~repro.serving.plan_cache.PlanCache` spans all four domain
  services: keys embed each registry's content epoch, so entries never
  cross tenants);
* **optimizer work saved** — total ``annotate`` calls, the search's
  unit of work, versus the no-cache baseline that re-optimizes every
  submission;
* **service calls saved** — remote calls under the shared logical
  cache versus the baseline's per-request private caches;
* **restart warmth** — a second fleet pointed at the same plan-cache
  file starts with zero misses (the disk tier);
* **concurrency** — N worker threads replay the same Zipf stream
  round-robin against one shared fleet; every answer must be
  bit-identical to the sequential cold oracle and the plan-cache
  accounting must match the sequential schedule exactly
  (single-flight: misses == distinct templates touched, for any N).

Every column is an exact count.  Wall-clock throughput and latency of
these same fleets are measured by the frozen bench (``bench/run.py``:
``params_cold``, ``zipf_warm``, ``zipf_threads``), which normalises for
the host and checks every timed answer; this file does not repeat them.

Every distinct template is also verified differentially: the warm
fleet's answer (plan rebuilt from the cached spec, pages largely from
the shared cache) must be bit-identical — rows, composed ranks,
per-service rank values, completeness — to a cold submit on a fresh
service with empty caches.

The file is a trajectory: every full run appends an entry with its
environment stamp (``_bench_env.append_history``).  Plan caches live
under pytest's ``tmp_path``; nothing but the trajectory is written to
``benchmarks/out/``.
"""

from __future__ import annotations

import random
import threading

import pytest
from _bench_env import (
    QUICK,
    append_history,
    bench_out_name,
    bench_scale,
    env_stamp,
)

from repro.serving import PlanCache, QueryService
from repro.sources.bio import bio_registry, glycolysis_homolog_query
from repro.sources.news import market_moving_news_query, news_registry
from repro.sources.travel import running_example_query, travel_registry
from repro.sources.weekend import mahler_weekend_query, weekend_registry

pytestmark = pytest.mark.bench

REQUESTS = bench_scale(300, 80)
K = 5
ZIPF_EXPONENT = 1.1
SEED = 20080824
WORKER_COUNTS = bench_scale((1, 2, 4, 8), (1, 4))

_REGISTRIES = {
    "travel": travel_registry,
    "news": news_registry,
    "bio": bio_registry,
    "weekend": weekend_registry,
}


def _templates() -> list[tuple[str, str, object]]:
    """(domain, label, query) for every distinct template instance."""
    population: list[tuple[str, str, object]] = [
        ("travel", "travel/showcase", running_example_query()),
        ("bio", "bio/glycolysis", glycolysis_homolog_query()),
    ]
    for topic in ("merger", "earnings", "recall", "lawsuit"):
        for sector in ("tech", "energy"):
            population.append(
                (
                    "news",
                    f"news/{topic}-{sector}",
                    market_moving_news_query(topic, sector),
                )
            )
    for budget in (100, 120, 150):
        population.append(
            ("weekend", f"weekend/b{budget}", mahler_weekend_query(budget))
        )
    return population


def _zipf_stream(population_size: int, requests: int) -> list[int]:
    """A seeded Zipf-distributed index stream over the population."""
    rng = random.Random(SEED)
    order = list(range(population_size))
    rng.shuffle(order)  # which template is popular is itself random
    weights = [
        1.0 / (order.index(i) + 1) ** ZIPF_EXPONENT
        for i in range(population_size)
    ]
    return rng.choices(range(population_size), weights=weights, k=requests)


def _fleet(plan_cache: PlanCache) -> dict[str, QueryService]:
    """One QueryService per domain, all sharing *plan_cache*."""
    return {
        domain: QueryService(
            registry=build(), k_default=K, plan_cache=plan_cache
        )
        for domain, build in _REGISTRIES.items()
    }


def _baseline_fleet() -> dict[str, QueryService]:
    """No plan cache, no shared service cache: every submit is cold."""
    return {
        domain: QueryService(
            registry=build(),
            k_default=K,
            plan_cache=PlanCache(capacity=0),
            share_service_cache=False,
        )
        for domain, build in _REGISTRIES.items()
    }


def _replay(fleet, population, stream) -> dict:
    service_calls = 0
    page_fetches = 0
    annotate_calls = 0
    for index in stream:
        domain, _, query = population[index]
        response = fleet[domain].submit(query, k=K)
        service_calls += response.stats["service_calls"]
        page_fetches += response.stats["page_fetches"]
        annotate_calls += response.stats["annotate_calls"]
    return {
        "requests": len(stream),
        "service_calls": service_calls,
        "page_fetches": page_fetches,
        "optimizer_annotate_calls": annotate_calls,
    }


def _answer_signature(response):
    return (
        response.columns,
        response.rows,
        response.rank_keys,
        tuple(
            tuple(rank for _, rank in row_ranks) for row_ranks in response.ranks
        ),
        response.complete,
    )


def _threaded_replay(fleet, population, stream, workers) -> list:
    """Replay *stream* round-robin across *workers* barrier-started
    threads against one shared fleet; returns the answer signature of
    every request, indexed by position in the stream."""
    signatures: list = [None] * len(stream)
    barrier = threading.Barrier(workers)
    errors: list[BaseException] = []

    def run(worker_index):
        try:
            barrier.wait()
            for position in range(worker_index, len(stream), workers):
                domain, _, query = population[stream[position]]
                response = fleet[domain].submit(query, k=K)
                signatures[position] = _answer_signature(response)
        except BaseException as error:  # pragma: no cover - fail loudly
            errors.append(error)

    threads = [
        threading.Thread(target=run, args=(index,), name=f"bench-w{index}")
        for index in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return signatures


class TestServingTrajectory:
    def test_write_bench_serving(self, out_dir, tmp_path):
        population = _templates()
        stream = _zipf_stream(len(population), REQUESTS)
        touched = sorted({index for index in stream})

        # Cold baseline: every submission optimizes and fetches afresh.
        cold = _replay(_baseline_fleet(), population, stream)

        # Warm fleet: shared persistent plan cache + shared service
        # caches.
        cache_path = tmp_path / "plans.sqlite"
        plan_cache = PlanCache(path=cache_path)
        fleet = _fleet(plan_cache)
        warm = _replay(fleet, population, stream)
        warm["plan_cache"] = plan_cache.stats.to_dict()
        hit_rate = plan_cache.stats.hit_rate

        # Restarted fleet: fresh processes, same plan-cache file.
        restarted_cache = PlanCache(path=cache_path)
        restarted = _replay(_fleet(restarted_cache), population, stream)
        restarted["plan_cache"] = restarted_cache.stats.to_dict()

        # Differential: warm answers are bit-identical to cold ones.
        # The cold signatures double as the sequential oracle for the
        # concurrency sweep below (answers are a pure function of
        # registry content, query, and k).
        fresh = _baseline_fleet()
        oracle: dict[int, tuple] = {}
        for index in touched:
            domain, label, query = population[index]
            warm_answer = fleet[domain].submit(query, k=K)
            assert warm_answer.provenance == "memory", label
            cold_answer = fresh[domain].submit(query, k=K)
            oracle[index] = _answer_signature(cold_answer)
            assert _answer_signature(warm_answer) == oracle[
                index
            ], f"warm answer diverged from cold for {label}"

        # The acceptance criteria of the subsystem.
        assert hit_rate >= 0.8, f"warm hit rate {hit_rate:.2%} below 80%"
        assert (
            warm["optimizer_annotate_calls"]
            < cold["optimizer_annotate_calls"]
        )
        assert warm["service_calls"] < cold["service_calls"]
        assert restarted_cache.stats.misses == 0, "disk tier must start warm"

        # Concurrency sweep: N threads share one fleet.  Bit-identity
        # and sequential accounting must hold for every worker count.
        sweep = []
        sqlite_path = None
        for workers in WORKER_COUNTS:
            sqlite_path = tmp_path / f"plans_w{workers}.sqlite"
            swept_cache = PlanCache(path=sqlite_path)
            swept_fleet = _fleet(swept_cache)
            signatures = _threaded_replay(
                swept_fleet, population, stream, workers
            )
            for position, signature in enumerate(signatures):
                assert signature == oracle[stream[position]], (
                    f"answer diverged from sequential oracle at request "
                    f"{position} with {workers} workers"
                )
            # Single-flight pins the accounting to the sequential
            # schedule: one miss (and one optimize) per touched
            # template, independent of the thread count.
            assert swept_cache.stats.lookups == REQUESTS
            assert swept_cache.stats.misses == len(touched)
            assert sum(
                s.stats.optimizer_runs for s in swept_fleet.values()
            ) == len(touched)
            if not QUICK:
                assert swept_cache.stats.hit_rate >= 0.95, (
                    f"hit rate regressed: {swept_cache.stats.hit_rate:.2%}"
                )
            sweep.append(
                {
                    "workers": workers,
                    "requests": len(stream),
                    "plan_cache": swept_cache.stats.to_dict(),
                    "hit_rate": round(swept_cache.stats.hit_rate, 4),
                }
            )
            swept_cache.close()

        # Restart warm start: a fresh fleet over the last
        # sweep's database replays every touched template with zero
        # misses and zero optimizer runs.
        warm_start_cache = PlanCache(path=sqlite_path)
        warm_start_fleet = _fleet(warm_start_cache)
        for index in touched:
            domain, label, query = population[index]
            response = warm_start_fleet[domain].submit(query, k=K)
            assert response.provenance == "disk", label
            assert _answer_signature(response) == oracle[index], label
        assert warm_start_cache.stats.misses == 0, (
            "disk tier must start warm after restart"
        )
        warm_start = {
            "requests": len(touched),
            "plan_cache": warm_start_cache.stats.to_dict(),
        }
        warm_start_cache.close()

        payload = {
            "env": env_stamp(),
            "workload": {
                "requests": REQUESTS,
                "k": K,
                "distinct_templates": len(population),
                "templates_touched": len(touched),
                "zipf_exponent": ZIPF_EXPONENT,
                "domains": sorted(_REGISTRIES),
                "baseline": "per-request optimization, no plan cache, "
                "private service caches",
            },
            "cold_baseline": cold,
            "warm_fleet": warm,
            "restarted_fleet": restarted,
            "concurrency": {
                "worker_counts": list(WORKER_COUNTS),
                "sweep": sweep,
                "restart_from_sqlite": warm_start,
            },
            "savings": {
                "plan_cache_hit_rate": round(hit_rate, 4),
                "optimizer_annotate_calls_saved": (
                    cold["optimizer_annotate_calls"]
                    - warm["optimizer_annotate_calls"]
                ),
                "service_calls_saved": (
                    cold["service_calls"] - warm["service_calls"]
                ),
            },
        }
        append_history(out_dir / bench_out_name("BENCH_serving.json"), payload)

    def test_bench_serving_warm_submit(self, benchmark):
        service = QueryService(registry=news_registry(), k_default=K)
        query = market_moving_news_query()
        service.submit(query, k=K)  # prime plan + service caches
        response = benchmark(lambda: service.submit(query, k=K))
        assert response.provenance == "memory"
        assert response.stats["service_calls"] == 0

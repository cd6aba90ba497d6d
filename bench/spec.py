"""What the benchmark declares: workloads, metrics, bounds.

Imports nothing from the program, so ``test_contract.py`` can check it
against ``BENCHMARK.json`` in milliseconds.  ``BENCHMARK.json`` is the
rendering of this module by :func:`benchmark_json`.  Which end-to-end
metric each per-layer metric should move, and on which workload, is the
table in README.md: the contract's schema has no key for it.
"""

from __future__ import annotations

#: Default seed.  README.md names the hold-out seed for later claims.
SEED = 20080824

#: How long one run measures.  Also ``run_seconds`` in BENCHMARK.json.
RUN_SECONDS = 10

#: name -> why the workload exists (one line, <= 200 characters).
WORKLOADS = {
    "zipf_warm": (
        "1 client, Zipf(1.1) over 13 primed templates, everything cached: "
        "parse/fingerprint/plan-cache hit/build/execute/JSON do all the "
        "work, optimizer and services none"
    ),
    "params_cold": (
        "1 client, every query carries fresh constants: each lookup is a "
        "plan-cache miss + store, the optimizer does >= 80% of the work; "
        "serving-path changes must show no change"
    ),
    "biblio_indexed": (
        "1 client, 80 primed expert queries over a 50k-paper SQLite "
        "corpus, service cache capped at 64 pages: the working set exceeds "
        "the cache, remote calls and lazy joins dominate"
    ),
    "sessions_more": (
        "1 client, submit(k=3) + 3x ask_for_more(3) + release over the "
        "zipf_warm fleet: resumes suspended streams, the session manager "
        "and the continuation path of the executor"
    ),
    "zipf_threads": (
        "2 closed-loop client threads on one fleet restarted from a SQLite "
        "WAL plan cache: CPU-bound contention on the stats, plan-cache, "
        "service-cache and session locks"
    ),
    "sleepy_threads": (
        "2 client threads, news+weekend services really sleep, no shared "
        "service cache: service waits dominate, a lock held across a "
        "remote call shows here and not in zipf_threads"
    ),
}

#: Workloads driven by two client threads (the rest have one client).
THREADED = ("zipf_threads", "sleepy_threads")

# name, unit, better, bound (share of the parent's median the metric may
# worsen by before a later PR is rejected).  Times are on the nominal
# host (harness.py); each bound is three times the widest quartile
# spread ten seeds of identical code showed, but for the median latency
# of zipf_threads (README.md, "End-to-end metrics"), and set-up's is
# the widest as the contract asks.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.20),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

# name, unit, better, exact (repeats exactly for one seed on a
# single-client workload).  A metric reads 0 on a workload that does not
# exercise it.  The last three were asked for as end-to-end metrics; the
# contract wants those on every workload, never 0, within a spread bound.
PER_LAYER = (
    ("model.parser.parse_ms", "ms", "lower", False),
    ("serving.fingerprint.fingerprint_ms", "ms", "lower", False),
    ("serving.fingerprint.key_ms", "ms", "lower", False),
    ("serving.plan_cache.lookup_ms", "ms", "lower", False),
    ("serving.plan_cache.hit_rate", "ratio", "higher", True),
    ("serving.plan_cache.disk_lookup_ms", "ms", "lower", False),
    ("serving.plan_cache.disk_hits", "count", "higher", True),
    ("serving.plan_cache.store_ms", "ms", "lower", False),
    ("serving.plan_cache.evictions", "count", "lower", True),
    ("plans.spec.build_ms", "ms", "lower", False),
    ("optimizer.optimize_ms", "ms", "lower", False),
    ("optimizer.annotate_calls", "count", "lower", True),
    ("optimizer.topology_states_explored", "count", "lower", True),
    ("optimizer.memo_hit_rate", "ratio", "higher", True),
    ("optimizer.cost_ratio_p50", "ratio", "lower", True),
    ("optimizer.cost_ratio_max", "ratio", "lower", True),
    ("execution.run_ms", "ms", "lower", False),
    ("execution.self_ms", "ms", "lower", False),
    ("execution.more_ms", "ms", "lower", False),
    ("execution.more_self_ms", "ms", "lower", False),
    ("execution.cache_hits", "count", "higher", True),
    ("execution.cache_hit_rate", "ratio", "higher", True),
    ("execution.page_fetches", "count", "lower", True),
    ("execution.tuples_fetched", "count", "lower", True),
    ("execution.results.top_ms", "ms", "lower", False),
    ("services.invoke_ms", "ms", "lower", False),
    ("services.invoke_count", "count", "lower", True),
    ("services.invoke_us_per_call", "us", "lower", False),
    ("services.sleep_s", "s", "lower", False),
    ("services.overlap", "ratio", "higher", False),
    ("serving.response.to_json_ms", "ms", "lower", False),
    ("serving.response.bytes", "B", "lower", True),
    ("serving.service.residual_ms", "ms", "lower", False),
    ("serving.sessions.active", "count", "lower", True),
    ("serving.sessions.evictions", "count", "lower", True),
    ("threads.scaling", "ratio", "higher", False),
    ("trace.overhead_share", "ratio", "lower", False),
    ("trace.untraced_op_ms", "ms", "lower", False),
    ("host.slowdown", "ratio", "lower", False),
    ("latency_p99_ms", "ms", "lower", False),
    ("virtual_time_to_k_s", "s/op", "lower", True),
    ("service_calls_per_request", "calls/op", "lower", True),
)

E2E_NAMES = tuple(row[0] for row in END_TO_END)
LAYER_NAMES = tuple(row[0] for row in PER_LAYER)
UNITS = {row[0]: row[1] for row in END_TO_END + PER_LAYER}
BOUNDS = {row[0]: row[3] for row in END_TO_END}
EXACT = frozenset(row[0] for row in PER_LAYER if row[3])


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json`` at the repository root."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _ in PER_LAYER
        ],
    }

"""The traced pass: spans recorded from outside, at each layer boundary.

``TracedFleet`` offers the same three calls as ``workloads.Fleet`` but,
instead of going through ``QueryService``, replays each request through
the layers' public functions in the order ``QueryService`` calls them —
``parse_query`` -> ``query_fingerprint`` / ``plan_cache_key`` ->
``PlanCache.lookup`` -> ``PlanSpec.build`` or ``Optimizer.optimize`` +
``PlanCache.store`` -> ``ProgressiveExecutor.run`` / ``.more`` (every
registered service behind a timing proxy) -> ``ResultTable.top`` +
``Row.project`` -> ``QueryResponse.to_json`` — and records one span
``(request, span, parent, name, start, end)`` around each call.  Spans
stay in memory and are written out when the run ends.  What the replay
leaves out (executor construction, session bookkeeping, statistics
assembly, the service's locks) is not hidden: it is reported as
``serving.service.residual_ms`` against the *untraced* pass.

Spans inside the program are ROADMAP item 1, a later change; this file
must then shrink to reading them.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path

from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting, ThreadSafeCache, make_cache
from repro.execution.engine import ExecutionMode
from repro.execution.progressive import ProgressiveExecutor
from repro.model.parser import parse_query
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.plans.spec import PlanSpec
from repro.serving import QueryResponse, SessionManager
from repro.serving.fingerprint import (
    optimizer_config_token,
    plan_cache_key,
    query_fingerprint,
)

from workloads import FleetConfig, Request, wrap_invoke

#: Spans that are a layer's whole contribution to one operation; their
#: per-op means are what ``residual_ms`` subtracts from the op mean.
LAYER_SPANS = (
    "model.parser.parse",
    "serving.fingerprint.fingerprint",
    "serving.fingerprint.key",
    "serving.plan_cache.lookup",
    "serving.plan_cache.store",
    "plans.spec.build",
    "optimizer.optimize",
    "execution.run",
    "execution.more",
    "execution.results.top",
    "serving.response.to_json",
)


class Recorder:
    """In-memory span list; one open-span stack (the replay has one client)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: "setup", "warmup" or "run"; prefixes the request identifiers.
        self.phase = "setup"
        self.request = "setup-0"
        self._open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def leaf(self, name: str, start: float, end: float) -> None:
        """A childless span, recorded after the fact (cheapest form)."""
        spans = self.spans
        spans.append((self.request, len(spans), self._open[-1], name, start, end, None))

    def write(self, path: Path) -> None:
        with path.open("w") as out:
            for request, span, parent, name, start, end, attrs in self.spans:
                line = {
                    "request": request, "span": span, "parent": parent,
                    "name": name, "start": start, "end": end,
                }
                if attrs:
                    line.update(attrs)
                out.write(json.dumps(line) + "\n")


class _Span:
    __slots__ = ("_recorder", "_name", "_index", "_parent", "_start", "attrs")

    def __init__(self, recorder: Recorder, name: str) -> None:
        self._recorder = recorder
        self._name = name
        self.attrs: dict | None = None

    def __enter__(self) -> "_Span":
        recorder = self._recorder
        self._index = len(recorder.spans)
        self._parent = recorder._open[-1] if recorder._open else None
        recorder.spans.append(())  # the slot keeps spans in start order
        recorder._open.append(self._index)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        recorder = self._recorder
        recorder._open.pop()
        recorder.spans[self._index] = (
            recorder.request, self._index, self._parent, self._name,
            self._start, end, self.attrs,
        )


class TracedFleet:
    """``workloads.Fleet``'s surface, one span per layer call."""

    def __init__(self, recorder: Recorder, config: FleetConfig,
                 directory: Path) -> None:
        self.recorder = recorder
        self.config = config
        self.slept: dict[int, float] = {}
        self.plan_cache = config.plan_cache(directory)
        self.metric = ExecutionTimeMetric()
        self.cache_setting = CacheSetting.OPTIMAL
        self.registries = {}
        self.shared_caches = {}
        # One manager per domain, as each QueryService owns one: its
        # capacity bounds the suspended executors the replay keeps alive.
        self.sessions = {domain: SessionManager() for domain in config.registries}
        for domain in config.registries:
            registry = config.registry(domain, self.slept)
            wrap_invoke(registry, self._timed)
            self.registries[domain] = registry
            self.shared_caches[domain] = (
                ThreadSafeCache(
                    make_cache(
                        self.cache_setting,
                        capacity=config.service_cache_capacity,
                    )
                )
                if config.share_service_cache
                else None
            )
        self._operations = 0

    def _timed(self, invoke):
        leaf = self.recorder.leaf

        def timed_invoke(pattern, inputs, page=0):
            begun = time.perf_counter()
            result = invoke(pattern, inputs, page)
            leaf("services.invoke", begun, time.perf_counter())
            return result

        return timed_invoke

    def _operation(self, kind: str) -> _Span:
        """The root span of one client operation."""
        self._operations += 1
        recorder = self.recorder
        recorder.request = f"{recorder.phase}-{self._operations}"
        root = recorder.span("request")
        root.attrs = {"op": kind}
        return root

    def submit(self, request: Request) -> tuple[str, str]:
        span = self.recorder.span
        registry = self.registries[request.domain]
        k = request.k
        with self._operation("submit"):
            with span("model.parser.parse"):
                query = parse_query(request.text)
            with span("serving.fingerprint.fingerprint"):
                fingerprint = query_fingerprint(query)
            with span("serving.fingerprint.key"):
                epoch = registry.content_epoch()
                config = replace(
                    OptimizerConfig(), k=k, cache_setting=self.cache_setting
                )
                key = plan_cache_key(
                    fingerprint, epoch, self.metric.name, k,
                    self.cache_setting.value, optimizer_config_token(config),
                )
            with span("serving.plan_cache.lookup") as lookup:
                hit = self.plan_cache.lookup(key)
                lookup.attrs = {"tier": hit.tier if hit else "miss"}
            annotate_calls = 0
            if hit is not None:
                cost, provenance = hit.cost, hit.tier
                with span("plans.spec.build"):
                    plan = hit.spec.build(query, registry)
            else:
                with span("optimizer.optimize") as optimize:
                    optimized = Optimizer(
                        registry, self.metric, config
                    ).optimize(query)
                    search = optimized.stats
                    optimize.attrs = {
                        "annotate_calls": search.annotate_calls,
                        "topology_states_explored":
                            search.topology_states_explored,
                        "memo_hits": search.memo_hits,
                        "memo_misses": search.memo_misses,
                    }
                plan, cost, provenance = optimized.plan, optimized.cost, "optimized"
                annotate_calls = search.annotate_calls
                with span("serving.plan_cache.store"):
                    self.plan_cache.store(
                        key, PlanSpec.from_optimized(optimized), cost,
                        self.metric.name, epoch, tenant=epoch,
                    )
            executor = ProgressiveExecutor(
                registry=registry,
                plan=plan,
                head=tuple(query.head),
                mode=ExecutionMode.STREAMED,
                cache_setting=self.cache_setting,
                shared_cache=self.shared_caches[request.domain],
                reset_remote=False,
            )
            with span("execution.run"):
                result = executor.run(k)
            with span("serving.sessions.create"):
                session = self.sessions[request.domain].create(
                    query=query, executor=executor,
                    delivered=len(result.rows), epoch=epoch,
                )
            return self._respond(
                session.session_id, query, result, k, provenance, cost,
                fingerprint, epoch, annotate_calls, executor.rounds,
            ), session.session_id

    def more(self, request: Request, session_id: str, additional: int) -> str:
        span = self.recorder.span
        with self._operation("more"):
            with span("serving.sessions.get"):
                session = self.sessions[request.domain].get(session_id)
            executor, query = session.executor, session.query
            before = len(executor.rounds)
            with span("execution.more"):
                result = executor.more(additional)
            session.delivered = len(result.rows)
            with span("serving.fingerprint.fingerprint"):
                fingerprint = query_fingerprint(query)
            return self._respond(
                session_id, query, result, session.delivered, "session", None,
                fingerprint, session.epoch, 0, executor.rounds[before:],
            )

    def release(self, request: Request, session_id: str) -> bool:
        with self._operation("release"), self.recorder.span(
            "serving.sessions.release"
        ):
            return self.sessions[request.domain].release(session_id)

    def _respond(self, session_id, query, result, k, provenance, cost,
                 fingerprint, epoch, annotate_calls, rounds) -> str:
        span = self.recorder.span
        with span("execution.results.top"):
            top = result.table.top(k)
            rows = tuple(row.project(query.head) for row in top)
            rank_keys = tuple(row.rank_key() for row in top)
            ranks = tuple(row.ranks for row in top)
        round_stats = [r.stats for r in rounds if r.stats is not None]
        stats = {
            "service_calls": sum(s.total_calls for s in round_stats),
            "page_fetches": sum(s.total_fetches for s in round_stats),
            "cache_hits": sum(s.total_cache_hits for s in round_stats),
            "tuples_fetched": sum(s.total_tuples_fetched for s in round_stats),
            "elapsed_virtual_s": round(sum(s.elapsed for s in round_stats), 6),
            "rounds": len(rounds),
            "annotate_calls": annotate_calls,
            "answers_available": len(result.rows),
            "retries": 0, "hedged_pulls": 0, "hedged_wins": 0,
            "wasted_fetches": 0, "replans": 0, "substituted_blocks": 0,
        }
        response = QueryResponse(
            session_id=session_id, k=k,
            columns=tuple(variable.name for variable in query.head),
            rows=rows, rank_keys=rank_keys, ranks=ranks,
            complete=result.table.complete, provenance=provenance,
            plan_cost=cost, metric=self.metric.name, fingerprint=fingerprint,
            epoch=epoch, stats=stats,
        )
        with span("serving.response.to_json"):
            return response.to_json()

    def close(self) -> None:
        self.plan_cache.close()


def span_metrics(spans: list[tuple], operations: int) -> dict[str, float]:
    """Every per-layer metric that the spans alone determine.

    Time metrics are means per operation of the measured ("run") pass,
    whatever the operation was, so they add up to the operation mean.
    A span's self time is its duration minus the part its child spans
    cover (children never overlap here: one client, synchronous calls).
    ``disk_lookup_ms`` alone also looks at set-up, where a restarted
    fleet takes its disk-tier hits.
    """
    totals: dict[str, float] = {}
    covered: dict[int, float] = {}
    searches, disk, roots, invokes = [], [], 0, 0
    for request, _, parent, name, start, end, attrs in spans:
        if name == "serving.plan_cache.lookup" and attrs["tier"] == "disk":
            disk.append(end - start)
        if not request.startswith("run-"):
            continue
        totals[name] = totals.get(name, 0.0) + (end - start)
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
        if name == "optimizer.optimize":
            searches.append(attrs)
        roots += name == "request"
        invokes += name == "services.invoke"
    if roots != operations:
        raise RuntimeError(f"{roots} traced operations, {operations} untraced")
    in_children = {"execution.run": 0.0, "execution.more": 0.0}
    for _, index, _, name, _, _, _ in spans:
        if name in in_children:
            in_children[name] += covered.get(index, 0.0)

    def per_op_ms(name: str) -> float:
        return totals.get(name, 0.0) * 1e3 / operations

    def search_sum(key: str) -> int:
        return sum(search[key] for search in searches)

    memo = search_sum("memo_hits") + search_sum("memo_misses")
    metrics = {name + "_ms": per_op_ms(name) for name in LAYER_SPANS}
    metrics.update({
        "serving.plan_cache.disk_lookup_ms":
            sum(disk) * 1e3 / len(disk) if disk else 0.0,
        "optimizer.annotate_calls": search_sum("annotate_calls") / operations,
        "optimizer.topology_states_explored":
            search_sum("topology_states_explored") / operations,
        "optimizer.memo_hit_rate": search_sum("memo_hits") / memo if memo else 0.0,
        "execution.self_ms": per_op_ms("execution.run")
        - in_children["execution.run"] * 1e3 / operations,
        "execution.more_self_ms": per_op_ms("execution.more")
        - in_children["execution.more"] * 1e3 / operations,
        "services.invoke_ms": per_op_ms("services.invoke"),
        "services.invoke_count": invokes / operations,
        "services.invoke_us_per_call":
            totals.get("services.invoke", 0.0) * 1e6 / invokes if invokes else 0.0,
    })
    return metrics

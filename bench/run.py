"""One command that measures the serving stack.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
is one run of one workload (the form ``BENCHMARK.json`` names): the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs every workload, untraced then traced,
each in a fresh subprocess, prints every metric by name with its unit
and writes ``bench/out/latest.json`` (``--quick``: a shrunken smoke run
into ``bench/out/quick.json``, not comparable with anything;
``--repeat N``: the whole set N times, failing when two repeats
disagree by more than the declared bounds).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import spec  # noqa: E402  (after the path is set)

OUT = BENCH / "out"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Length of one round of a threaded workload's measured phase.
ROUND_SECONDS = 1.0
#: Slices of the fixed pass of a traced run (see ``_traced_run``).
TRACE_SLICES = 4


def _one_run(args) -> int:
    # Imported here so the parent of a whole-set run stays light; a
    # checkout without the program fails here, before anything is printed.
    from workloads import build

    workload = build(args.workload, quick=args.quick)
    scratch = OUT / f"tmp-{os.getpid()}"
    try:
        if args.trace:
            result = _traced_run(workload, args, scratch)
        else:
            result = _untraced_run(workload, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    units = spec.UNITS
    for name, value in result["metrics"].items():
        print(f"{workload.name:16s} {name:40s} {value:14.6g} {units[name]}")
    result["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _scaled(requests: int, args) -> int:
    """A pass sized for the declared run length, at this run's length."""
    return max(1, round(requests * args.seconds / spec.RUN_SECONDS))


def _warmup(workload, stream, args) -> list:
    """The warm-up pass; leaves *stream* at the start of a block."""
    size = _scaled(workload.warmup_requests, args)
    blocks = -(-size // workload.block)
    return list(islice(stream, blocks * workload.block))[:size]


def _accounting_failures(fleet, workload, base_misses: int, ops) -> int:
    """Single-flight accounting: one miss and one optimizer run per
    distinct key the fleet had not seen, under any number of clients."""
    fresh = {op.request for op in ops if op.step == 0} - set(workload.primed)
    expected = base_misses + len(fresh)
    stats = fleet.plan_cache.stats
    problems = []
    if stats.misses != expected:
        problems.append(f"plan-cache misses {stats.misses} != {expected}")
    if fleet.optimizer_runs() != expected:
        problems.append(f"optimizer runs {fleet.optimizer_runs()} != {expected}")
    if workload.config.sqlite_plan_cache and stats.disk_hits != len(workload.primed):
        problems.append(f"disk hits {stats.disk_hits} != {len(workload.primed)}")
    for problem in problems:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    return len(problems)


def _untraced_run(workload, args, scratch: Path) -> dict:
    from harness import (
        Oracle, drive, host_slowdown, peak_rss_mb, percentile, set_up,
    )

    # Every time below is on the nominal host: what the clock read,
    # divided by how much slower than nominal the yardstick ran around
    # it (harness.py).  Set-ups have a reading before and one after.
    fleet = None
    setup_times = []
    host = [host_slowdown()]
    for _ in range(1 if args.quick else SETUP_REPEATS):
        if fleet is not None:
            fleet.close()
        begun = time.perf_counter()
        fleet, base_misses = set_up(workload, scratch / "fleet")
        took = time.perf_counter() - begun
        host.append(host_slowdown())
        waited = sum(fleet.slept.values())  # priming, in sleeping services
        setup_times.append(
            waited + (took - waited) * 2 / (host[-2] + host[-1])
        )
    oracle = Oracle(workload, scratch / "oracle")
    for request in workload.primed:
        oracle.expected(request)
    streams = workload.streams(args.seed)
    warm_ops, _ = drive(fleet, workload, [_warmup(workload, streams[0], args)])
    if workload.clients == 1:
        ops, wall = drive(
            fleet, workload, streams, seconds=args.seconds, measure_host=True
        )
    else:
        # Two clients cannot read the host while they run (see drive):
        # they run in short rounds with a reading between each two.
        ops, wall = [], 0.0
        deadline = time.perf_counter() + args.seconds
        while (left := deadline - time.perf_counter()) > 0:
            done, took = drive(
                fleet, workload, streams, seconds=min(ROUND_SECONDS, left)
            )
            host.append(host_slowdown())
            wall += took
            ops += [
                op._replace(slowdown=(host[-2] + host[-1]) / 2) for op in done
            ]
    rss = peak_rss_mb()
    failed = oracle.failures(ops)
    failed += _accounting_failures(fleet, workload, base_misses, warm_ops + ops)
    fleet.close()
    # The stream holds its mix exactly in every block, so the single
    # client's unfinished last block is checked but not measured.
    measured = ops
    per_block = workload.block * len(workload.script)
    if workload.clients == 1 and len(ops) >= per_block:
        measured = ops[:len(ops) - len(ops) % per_block]
    # A closed-loop client with no think time completes 1 / (its mean
    # operation time) per second; the fleet, the sum over its clients.
    clients = [[op.normal for op in measured if op.client == c]
               for c in range(workload.clients)]
    throughput = sum(len(own) / sum(own) for own in clients)
    normal = sorted(op.normal for op in measured)
    raw = sorted(op.seconds for op in measured)
    print(f"{workload.name}: {len(measured)} of {len(ops)} operations "
          f"measured; host slowdown {sum(raw) / sum(normal):.3f} over them, "
          f"{statistics.mean(host[:SETUP_REPEATS + 1]):.3f} around set-up; "
          f"as the clock read: {len(ops) / wall:.6g} per second of the "
          f"phase, p50 {percentile(raw, 0.50) * 1e3:.6g} ms, "
          f"p95 {percentile(raw, 0.95) * 1e3:.6g} ms")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {
            "setup_s": statistics.median(setup_times),
            "throughput_rps": throughput,
            "latency_p50_ms": percentile(normal, 0.50) * 1e3,
            "latency_p95_ms": percentile(normal, 0.95) * 1e3,
            "peak_rss_mb": rss,
        },
    }


def _traced_run(workload, args, scratch: Path) -> dict:
    from harness import (
        Log, Oracle, drive, host_slowdown, percentile, play, set_up, signature,
    )
    from tracing import LAYER_SPANS, Recorder, TracedFleet, span_metrics

    stream = workload.streams(args.seed)[0]
    warmup = _warmup(workload, stream, args)
    requests = list(islice(stream, _scaled(workload.trace_requests, args)))
    oracle = Oracle(workload, scratch / "oracle")

    # Two fleets in the same state: the real one behind QueryService,
    # and the traced replay of it, layer by layer.
    fleet, base_misses = set_up(workload, scratch / "fleet")
    warm_ops, _ = drive(fleet, workload, [warmup])
    recorder = Recorder()
    traced, _ = set_up(workload, scratch / "traced", partial(TracedFleet, recorder))
    recorder.phase = "warmup"
    drive(traced, workload, [warmup])
    recorder.phase = "run"

    # The same fixed pass on both, one client, request by request in
    # alternating order (real-traced, traced-real, ...): a host that
    # speeds up or slows down during the run does so for both alike.
    # A threaded workload also gets each slice of the pass from its own
    # clients, interleaved for the same reason.
    cache_before = fleet.plan_cache.stats.to_dict()
    evicted_before = fleet.session_counts()[1]
    sides = ((fleet, Log()), (traced, Log()))
    own_ops, own_wall, slept = [], 0.0, 0.0
    host = []
    size = -(-len(requests) // TRACE_SLICES)
    for start in range(0, len(requests), size):
        part = requests[start:start + size]
        host.append(host_slowdown())
        gc.collect()
        gc.freeze()
        for index, request in enumerate(part):
            for side, log in sides[::1 if index % 2 == 0 else -1]:
                play(side, request, workload.script, log)
        if workload.clients > 1:
            before = sum(fleet.slept.values())
            done, took = drive(
                fleet, workload,
                [part[c::workload.clients] for c in range(workload.clients)],
            )
            own_ops += done
            own_wall += took
            slept += sum(fleet.slept.values()) - before
    ops, traced_ops = sides[0][1].ops(), sides[1][1].ops()
    wall = sum(op.seconds for op in ops)
    cache_after = fleet.plan_cache.stats.to_dict()
    active, evicted = fleet.session_counts()
    traced.close()
    scaling = 0.0
    if workload.clients > 1:
        scaling = (len(own_ops) / own_wall) / (len(ops) / wall)
    else:
        own_ops, own_wall = ops, wall
    failed = oracle.failures(ops) + _accounting_failures(
        fleet, workload, base_misses, warm_ops + ops
    )
    if own_ops is not ops:
        failed += oracle.failures(own_ops)
    failed += sum(
        signature(a.out) != signature(b.out) for a, b in zip(ops, traced_ops)
    ) + abs(len(ops) - len(traced_ops))
    disk_hits = fleet.plan_cache.stats.disk_hits
    fleet.close()
    OUT.mkdir(exist_ok=True)
    recorder.write(OUT / f"trace_{workload.name}.jsonl")

    # Per-layer metrics: from the spans, from the answers' own statistics
    # (exact counts), and from the fleet's counters around the pass.
    metrics = span_metrics(recorder.spans, len(ops))
    layer_sum_ms = sum(metrics[name + "_ms"] for name in LAYER_SPANS)
    untraced_op_ms = sum(op.seconds for op in ops) * 1e3 / len(ops)
    traced_op_ms = sum(op.seconds for op in traced_ops) * 1e3 / len(ops)
    answers = [json.loads(op.out) for op in ops if isinstance(op.out, str)]
    stat = lambda key: sum(a["stats"][key] for a in answers)  # noqa: E731
    calls, hits = stat("service_calls"), stat("cache_hits")
    cost_ratios = sorted(oracle.cost_ratio[request] for request in set(requests))
    cache = {key: cache_after[key] - cache_before[key] for key in cache_after}
    found = cache["memory_hits"] + cache["disk_hits"]
    own_latencies = sorted(op.seconds for op in own_ops)
    metrics.update({
        "serving.plan_cache.hit_rate": found / (found + cache["misses"]),
        "serving.plan_cache.disk_hits": disk_hits,
        "serving.plan_cache.evictions": cache["evictions"],
        "optimizer.cost_ratio_p50": percentile(cost_ratios, 0.5),
        "optimizer.cost_ratio_max": cost_ratios[-1],
        "execution.cache_hits": hits / len(ops),
        "execution.cache_hit_rate": hits / (hits + calls) if hits + calls else 0.0,
        "execution.page_fetches": stat("page_fetches") / len(ops),
        "execution.tuples_fetched": stat("tuples_fetched") / len(ops),
        "services.sleep_s": slept,
        "services.overlap": slept / own_wall,
        "serving.response.bytes": sum(len(a) for a in (
            op.out for op in ops if isinstance(op.out, str))) / len(ops),
        "serving.service.residual_ms": untraced_op_ms - layer_sum_ms,
        "serving.sessions.active": active,
        "serving.sessions.evictions": evicted - evicted_before,
        "threads.scaling": scaling,
        "trace.overhead_share": (traced_op_ms - untraced_op_ms) / untraced_op_ms,
        "trace.untraced_op_ms": untraced_op_ms,
        "host.slowdown": statistics.mean(host),
        "latency_p99_ms":
            percentile(own_latencies, 0.99) * 1e3
            if len(own_latencies) >= 1000 else 0.0,
        "virtual_time_to_k_s": stat("elapsed_virtual_s") / len(ops),
        "service_calls_per_request": calls / len(ops),
    })
    if set(metrics) != set(spec.LAYER_NAMES):
        raise RuntimeError(
            f"undeclared: {sorted(set(metrics) ^ set(spec.LAYER_NAMES))}"
        )
    return {
        "correct": failed == 0,
        "attempted": len(warm_ops) + len(ops) + len(traced_ops)
        + (len(own_ops) if own_ops is not ops else 0),
        "failed": failed,
        "metrics": {name: float(metrics[name]) for name in spec.LAYER_NAMES},
    }


# -- the whole set ---------------------------------------------------------


def _environment(args) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=BENCH, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
    }


def _subprocess_run(args, name: str, trace: int) -> dict:
    command = [
        sys.executable, str(BENCH / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=180)
    if not done.stdout.strip():
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{name} --trace {trace} printed no result")
    sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
    result = json.loads(done.stdout.strip().rsplit("\n", 1)[-1])
    if not result["correct"]:
        sys.stderr.write(done.stderr)
    return result


def _one_set(args, names) -> dict:
    """Every workload once, untraced then traced: {workload: {...}}.

    One subprocess at a time, so nothing competes with the workload
    being measured — except in a quick run, which is not comparable
    anyway and uses both cores to stay a smoke test.
    """
    jobs = [(name, trace) for name in names for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2 if args.quick else 1) as pool:
        results = dict(
            zip(jobs, pool.map(lambda job: _subprocess_run(args, *job), jobs))
        )

    def values(result: dict) -> dict:
        return {name: m["value"] for name, m in result["metrics"].items()}

    measured = {}
    for name in names:
        untraced, traced = results[name, 0], results[name, 1]
        measured[name] = {
            "why": spec.WORKLOADS[name],
            "clients": 2 if name in spec.THREADED else 1,
            "ops": untraced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "failed_share": (untraced["failed"] + traced["failed"])
            / (untraced["attempted"] + traced["attempted"]),
            "end_to_end": values(untraced),
            "per_layer": values(traced),
        }
    return measured


def _disagreements(first: dict, second: dict) -> list[str]:
    """Where two sets of the same code and seed differ beyond the bounds."""
    problems = []
    for name in first:
        for metric, bound in spec.BOUNDS.items():
            a, b = first[name]["end_to_end"][metric], second[name]["end_to_end"][metric]
            if abs(a - b) / min(a, b) > bound:
                problems.append(f"{name} {metric}: {a:.6g} vs {b:.6g} (> {bound:.0%})")
        if name in spec.THREADED:
            continue
        for metric in sorted(spec.EXACT):
            a, b = first[name]["per_layer"][metric], second[name]["per_layer"][metric]
            if a != b:
                problems.append(f"{name} {metric}: {a!r} != {b!r} (exact count)")
    return problems


def _whole_set(args) -> int:
    names = list(spec.WORKLOADS)
    sets = [_one_set(args, names) for _ in range(args.repeat)]
    report = {"environment": _environment(args), "workloads": sets[-1]}
    problems = [
        f"{name}: {measured['failed']} failed operations"
        for one in sets for name, measured in one.items() if measured["failed"]
    ]
    if args.repeat > 1:
        for later in sets[1:]:
            problems += _disagreements(sets[0], later)
        report["repeats"] = {
            name: {
                metric: statistics.quantiles(
                    [one[name]["end_to_end"][metric] for one in sets], n=4,
                    method="inclusive",
                )
                for metric in spec.E2E_NAMES
            }
            for name in names
        }
        for name, quartiles in report["repeats"].items():
            for metric, (q1, q2, q3) in quartiles.items():
                print(f"{name:16s} {metric:20s} quartiles over {args.repeat} "
                      f"repeats: {q1:.6g} {q2:.6g} {q3:.6g} {spec.UNITS[metric]}")
    report["problems"] = problems
    OUT.mkdir(exist_ok=True)
    target = OUT / ("quick.json" if args.quick else "latest.json")
    target.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {target.relative_to(BENCH.parent)}"
          + (" (quick: not comparable)" if args.quick else ""))
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(spec.WORKLOADS),
                        help="run this workload once, in process")
    parser.add_argument("--seed", type=int, default=spec.SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 0.5 if args.quick else float(spec.RUN_SECONDS)
    if args.workload:
        return _one_run(args)
    return _whole_set(args)


if __name__ == "__main__":
    sys.exit(main())

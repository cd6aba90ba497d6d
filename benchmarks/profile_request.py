"""Where one request's CPU time goes: a signal-sampling profile of a
frozen-bench fleet.

``python benchmarks/profile_request.py --workload zipf_warm --requests 4000``
builds the workload's fleet exactly as ``bench/run.py`` does (set-up,
priming, the workload's own warm-up pass), then plays ``--requests``
requests of the seeded stream while ``ITIMER_PROF`` (set to 0.5 ms of
CPU time; a kernel with a coarser tick fires at its tick) interrupts
the process; each interrupt records the Python stack.  It prints, per
``file:function``, the **inclusive** share (the function was somewhere
on the stack) and the **self** share (it was the innermost frame).  ``bench/`` is only read: nothing under it is written
or changed, and no number printed here is a benchmark result — claims
are made with ``bench/run.py`` pairs; this says where to look.

Why not ``cProfile``: its per-call hook costs about as much as a short
Python function body, so call-heavy leaves are over-reported and the
ranking is wrong exactly where a hot path is made of many tiny calls.
A timer signal adds no per-call cost; the handler runs between
bytecodes, a few microseconds per sample.  Read shares, not the
``ms/request`` line, which the profiler and the host both inflate.  On
``zipf_warm`` before per-shape binding kernels and the text memo,
sampling put ``ServiceBinding.bind_page`` at 27% of a warm request
inclusive, the per-tuple ``ServiceBinding.bind`` at 15% self,
``parse_query`` at 11% and ``query_fingerprint`` at 2% over 13 distinct
texts (cProfile: 25%, 10%, 11%, 2%).  After them the kernel, row
construction included, is 20%, and parsing and fingerprinting no longer
appear; ``throughput_rps`` moved ×1.31 over 11 alternating
``bench/run.py`` pairs.

On ``sessions_more`` (4000 requests, seed 7) before the join cell
kernel, the cell loop of the streamed join — ``JoinStream._advance_stage``'s
own time, ``SlotJoinPlan.merge`` (also called once per emitted row) and
the generator that called the join and residual predicates, their
closures included — held 9.4% of the samples (1.8% + 4.1% + 3.5%).
After it, the generated ``<join kernel>`` with the predicates it calls,
plus ``_advance_stage``'s own time, holds 3.9% (3.7% + 0.3%), and the
emitted rows' ``_merged_row`` 1.6% more, its ``Row`` included;
``_advance_stage`` inclusive, which also holds the cursors' page pulls,
went 46.7% → 40.2%.  ``latency_p95_ms`` moved −14.4% over 10
alternating ``bench/run.py`` pairs.

On ``zipf_warm`` (4000 requests, seed 7) while every bound tuple was a
``Row``, ``Row.__init__`` held 8.3% self and ``Row.rank_key`` with its
generator 4.1% inclusive, and the pass ran 301/27/2 collections of
generations 0/1/2.  Once a bound tuple is a record until it is emitted
as an answer, ``emit`` holds 1.0% inclusive (``Row.__init__`` 0.3%),
the pass runs 18/1/0 collections, and each generated kernel is its own
row, named by its shape (``<binding kernel C2 K0 F2 p0>``);
``throughput_rps`` moved ×1.23 over 10 alternating ``bench/run.py``
pairs.

A workload with a session script also gets, before the profile, the
mean time and the share of all operation time of each (operation,
domain), with a ``more`` split by how its session served it: resumed
(the suspended walk went on), grown (it went on under grown fetch
factors) or re-executed (the plan ran again).  The split is read from
the session executor's rounds, which the timed ``more`` looks up.

This is the one-off profile ROADMAP item 1 asks a PR to record until
that item's spans exist inside the program; the outputs committed next
to it are ``benchmarks/out/profile_<workload>_{before,after}.txt``.
"""

from __future__ import annotations

import argparse
import gc
import signal
import sys
import tempfile
import time
from collections import Counter
from itertools import islice
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "bench"))

#: CPU seconds between two samples.
INTERVAL = 0.0005


class Sampler:
    """Counts the frames seen by a CPU-time interval timer."""

    def __init__(self) -> None:
        self.samples = 0
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()

    def _sample(self, signum, frame) -> None:
        self.samples += 1
        seen = set()
        innermost = True
        while frame is not None:
            code = frame.f_code
            key = (code.co_filename, code.co_qualname)
            if innermost:
                self.self_time[key] += 1
                innermost = False
            if key not in seen:
                seen.add(key)
                self.inclusive[key] += 1
            frame = frame.f_back

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def report(self, top: int) -> str:
        def name(key) -> str:
            filename, function = key
            path = Path(filename)
            try:
                path = path.relative_to(REPO)
            except ValueError:
                path = Path(path.name)
            return f"{path}:{function}"

        lines = [f"{'incl %':>7s} {'self %':>7s}  file:function"]
        for key, count in self.inclusive.most_common(top):
            lines.append(
                f"{100 * count / self.samples:7.2f} "
                f"{100 * self.self_time[key] / self.samples:7.2f}  {name(key)}"
            )
        return "\n".join(lines)


def classify_continuations(fleet) -> list[str]:
    """Have *fleet* note, for each ``more`` it serves, how its session
    executor served it — ``re-executed`` when a new round ran the plan
    again, else ``grown`` when one continued under grown factors, else
    ``resumed`` — in the order the continuations were played."""
    kinds: list[str] = []
    serve = fleet.more

    def more(request, session_id, additional):
        service = fleet.services[request.domain]
        executor = service.sessions.get(session_id).executor
        before = len(executor.rounds)
        out = serve(request, session_id, additional)
        rounds = executor.rounds[before:]
        kinds.append(
            "re-executed" if not all(r.resumed for r in rounds)
            else "grown" if any(r.grown for r in rounds)
            else "resumed"
        )
        return out

    fleet.more = more
    return kinds


def breakdown(script, log, kinds: list[str]) -> str:
    """Mean time and share of all operation time per (operation,
    domain), a ``more`` split by how it was served (*kinds*)."""
    continuations = iter(kinds)
    seconds: dict[tuple[str, str], list[float]] = {}
    for request, step, spent in zip(log.requests, log.steps, log.seconds):
        operation = script[step]
        if operation == "more":
            operation = f"more ({next(continuations)})"
        seconds.setdefault((operation, request.domain), []).append(spent)
    total = sum(log.seconds)
    lines = [
        f"{'operation':<18s} {'domain':<8s} {'ops':>6s} {'mean ms':>8s} "
        f"{'share %':>8s}"
    ]
    for (operation, domain), spent in sorted(seconds.items()):
        lines.append(
            f"{operation:<18s} {domain:<8s} {len(spent):6d} "
            f"{1e3 * sum(spent) / len(spent):8.3f} {100 * sum(spent) / total:8.2f}"
        )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="zipf_warm")
    parser.add_argument("--requests", type=int, default=4000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--top", type=int, default=60)
    args = parser.parse_args()

    from harness import Log, play, set_up
    from workloads import build

    workload = build(args.workload)
    with tempfile.TemporaryDirectory() as scratch:
        fleet, _ = set_up(workload, Path(scratch) / "fleet")
        stream = workload.streams(args.seed)[0]
        log = Log()
        for request in islice(stream, workload.warmup_requests):
            play(fleet, request, workload.script, log)
        requests = list(islice(stream, args.requests))
        kinds = classify_continuations(fleet)
        # As the bench's measured pass: set-up data is not re-scanned
        # by the collections the requests themselves bring on.
        gc.collect()
        gc.freeze()
        log = Log()
        sampler = Sampler()
        collections = [0, 0, 0]

        def count(phase: str, info: dict) -> None:
            if phase == "start":
                collections[info["generation"]] += 1

        gc.callbacks.append(count)
        begun = time.perf_counter()
        try:
            with sampler:
                for request in requests:
                    play(fleet, request, workload.script, log)
        finally:
            wall = time.perf_counter() - begun
            gc.callbacks.remove(count)
        fleet.close()
    failed = sum(out is None for out in log.outs)
    print(
        f"{workload.name}: {len(requests)} requests, {len(log.outs)} operations "
        f"({failed} failed) in {wall:.2f} s = {1e3 * wall / len(requests):.3f} "
        f"ms/request; {sampler.samples} samples (timer set to {INTERVAL * 1e3} "
        f"ms of CPU; the kernel's tick bounds the real rate); garbage "
        f"collections gen0/gen1/gen2: {'/'.join(map(str, collections))}"
    )
    if len(workload.script) > 1:
        print(breakdown(workload.script, log, kinds))
    print(sampler.report(args.top))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

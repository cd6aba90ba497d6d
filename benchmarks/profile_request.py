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
ranking is wrong exactly where a hot path is made of many tiny calls —
on ``zipf_warm`` it put ``ServiceBinding.bind`` first at 7% of a warm
request when sampling shows 2.4%, and a kernel specialised on that
reading moved ``throughput_rps`` by nothing.  A timer signal adds no
per-call cost; the handler runs between bytecodes, a few microseconds
per sample.

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
        # As the bench's measured pass: set-up data is not re-scanned
        # by the collections the requests themselves bring on.
        gc.collect()
        gc.freeze()
        log = Log()
        sampler = Sampler()
        begun = time.perf_counter()
        with sampler:
            for request in requests:
                play(fleet, request, workload.script, log)
        wall = time.perf_counter() - begun
        fleet.close()
    failed = sum(out is None for out in log.outs)
    print(
        f"{workload.name}: {len(requests)} requests, {len(log.outs)} operations "
        f"({failed} failed) in {wall:.2f} s = {1e3 * wall / len(requests):.3f} "
        f"ms/request; {sampler.samples} samples (timer set to {INTERVAL * 1e3} "
        f"ms of CPU; the kernel's tick bounds the real rate)"
    )
    print(sampler.report(args.top))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

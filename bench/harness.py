"""Closed-loop clients, set-up, and the cold oracle.

Closed loop because the shipped front end (``python -m repro serve``)
answers one line before it reads the next: each client sends its next
request only after the previous answer arrived, with no think time.
Clients are threads of this one process, at most two (``nproc`` is 2).

The host is a few cores of a shared machine and runs the same code up to
twice as slowly for a minute at a time, so wall time alone cannot be
compared between two runs.  A measuring client therefore interleaves its
requests with slices of a *yardstick* — fixed pure-Python work, timed on
the thread's own CPU clock — and every operation's time is divided by
how much slower than nominal the yardstick ran around it.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import NamedTuple

from workloads import MORE, Fleet, Request, Workload, oracle_fleet


#: CPU seconds one yardstick slice takes on the nominal host (this VM
#: when its neighbours are quiet): what "slowdown 1.0" means.
NOMINAL_SLICE_S = 0.00015
#: Yardstick time a measuring client spends per second in operations.
YARDSTICK_SHARE = 0.05
#: Slices averaged into one local slowdown (about 0.4 s of operations:
#: the host's speed changes over seconds, one slice alone is noisy).
SEGMENT_SLICES = 100


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _successor(value: int) -> int:
    return value + 1


_DOCUMENT = [{f"k{i}": [i, str(i), float(i)] for i in range(20)} for _ in range(5)]


def yardstick() -> float:
    """One slice of fixed work; the CPU seconds this thread spent on it.

    The mix an interpreter-bound server lives on: calls, attribute
    access, dict inserts under tuple keys, a keyed sort, formatting and
    a JSON dump.  Thread CPU time, so that waiting for the other
    client's GIL turn does not read as a slow host.
    """
    begun = time.thread_time()
    table = {}
    for i in range(200):
        table[(i, "x")] = _Point(i, _successor(i))
    total = 0
    for point in table.values():
        total += point.a + point.b
    sorted(table, key=lambda key: -key[0])
    json.dumps(_DOCUMENT)
    "%s-%d" % ("abc", total)
    return time.thread_time() - begun


def host_slowdown(seconds: float = 0.05) -> float:
    """How many times slower than nominal the host is right now."""
    slices = []
    spent = 0.0
    while spent < seconds:
        slices.append(yardstick())
        spent += slices[-1]
    return spent / len(slices) / NOMINAL_SLICE_S


class Op(NamedTuple):
    """One timed operation: call -> JSON string (or release -> bool)."""

    request: Request
    step: int  # index in the workload's script
    seconds: float  # wall, as the client's clock read it
    out: object  # the JSON text, the release flag, or None on an exception
    client: int
    waited: float  # of ``seconds``, spent in the benchmark's sleeping services
    slowdown: float  # the host's, around the operation (1.0: not measured)

    @property
    def normal(self) -> float:
        """``seconds`` on the nominal host: the imposed waits as they
        were, the rest divided by the host's slowdown."""
        return self.waited + (self.seconds - self.waited) / self.slowdown


class Log:
    """What one client did, as parallel lists of existing objects.

    Appending allocates no garbage-collected container, so keeping the
    log does not by itself bring on collections in the program under
    test; ``ops`` assembles the records after the clock has stopped.
    """

    def __init__(self, client: int = 0) -> None:
        self.client = client
        self.requests: list[Request] = []
        self.steps: list[int] = []
        self.seconds: list[float] = []
        self.waited: list[float] = []
        self.outs: list[object] = []
        #: Yardstick slices: CPU seconds, and how many operations the
        #: client had finished when each was taken.
        self.slices: list[float] = []
        self.slice_at: list[int] = []
        self.busy = 0.0
        self.measuring = 0.0

    def keep_up(self) -> None:
        """Take yardstick slices until they are their share of the time
        spent in operations: long operations get as dense a reading of
        the host as short ones."""
        while self.measuring < YARDSTICK_SHARE * self.busy:
            took = yardstick()
            self.measuring += took
            self.slices.append(took)
            self.slice_at.append(len(self.seconds))

    def slowdowns(self) -> list[float]:
        """The host's slowdown around each operation.

        Slices are averaged in runs of ``SEGMENT_SLICES`` (a short last
        run joins the one before); a run covers the operations from its
        first slice to the next run's.
        """
        count = len(self.seconds)
        if not self.slices:
            return [1.0] * count
        starts = list(range(0, len(self.slices), SEGMENT_SLICES))
        if len(starts) > 1 and len(self.slices) - starts[-1] < SEGMENT_SLICES // 2:
            starts.pop()
        factors: list[float] = []
        for index, start in enumerate(starts):
            last = index + 1 == len(starts)
            stop = len(self.slices) if last else starts[index + 1]
            until = count if last else self.slice_at[stop]
            mean = sum(self.slices[start:stop]) / (stop - start)
            factors += [mean / NOMINAL_SLICE_S] * (until - len(factors))
        return factors

    def ops(self) -> list[Op]:
        return [
            Op(*fields, self.client, waited, slowdown)
            for *fields, waited, slowdown in zip(
                self.requests, self.steps, self.seconds, self.outs,
                self.waited, self.slowdowns(),
            )
        ]


def play(fleet, request: Request, script, log: Log) -> None:
    """One client runs the script for one request, timing every step."""
    session_id = None
    waits = fleet.slept
    me = threading.get_ident()
    for step, kind in enumerate(script):
        waited = waits.get(me, 0.0)
        begun = time.perf_counter()
        try:
            if kind == "submit":
                out, session_id = fleet.submit(request)
            elif kind == "more":
                out = fleet.more(request, session_id, MORE)
            else:
                out = fleet.release(request, session_id)
        except Exception:  # a failed op is counted, the client goes on
            out = None
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - begun
        log.busy += seconds
        log.seconds.append(seconds)
        log.waited.append(waits.get(me, 0.0) - waited)
        log.requests.append(request)
        log.steps.append(step)
        log.outs.append(out)


def drive(fleet, workload: Workload, sources, seconds: float | None = None,
          measure_host: bool = False) -> tuple[list[Op], float]:
    """Run one closed-loop client thread per request source.

    With *seconds* the sources are endless streams and a client starts
    no new request after the deadline; without, each source is a list
    played to its end — a pass of fixed size, which is what makes the
    counts of a traced run repeat.  With *measure_host* the client
    takes its yardstick slices between requests — one client only: a
    slice taken while another client computes reads the contention
    between the two, not the host.  Returns every client's operations
    (each client's in the order it ran them) and the wall time from
    the common start to the last client's end.
    """
    logs = [Log(client) for client in range(len(sources))]
    barrier = threading.Barrier(len(sources) + 1)

    def client(index: int) -> None:
        barrier.wait()
        deadline = None if seconds is None else time.perf_counter() + seconds
        for request in sources[index]:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            play(fleet, request, workload.script, logs[index])
            if measure_host:
                logs[index].keep_up()

    threads = [
        threading.Thread(target=client, args=(index,), name=f"client-{index}")
        for index in range(len(sources))
    ]
    # Everything alive now (registries, the corpus, earlier logs) is
    # set-up or benchmark data: freezing it keeps full collections
    # during the pass proportional to what the pass itself allocates.
    gc.collect()
    gc.freeze()
    for thread in threads:
        thread.start()
    barrier.wait()
    begun = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - begun
    return [op for log in logs for op in log.ops()], wall


def set_up(workload: Workload, directory: Path, make_fleet=Fleet):
    """Build the workload's fleet and bring it to its steady state.

    Registries, services and caches are built, every primed request is
    played once (plans optimized and stored, pages fetched); a workload
    over the SQLite plan tier is then closed and rebuilt over the same
    file and primed again, so that pass is served by the disk tier.
    Returns the fleet and how many plan-cache misses it has had to take.
    """
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    fleet = make_fleet(workload.config, directory)
    prime(fleet, workload)
    if workload.config.sqlite_plan_cache:
        fleet.close()
        fleet = make_fleet(workload.config, directory)
        prime(fleet, workload)
        return fleet, 0
    return fleet, len(workload.primed)


def prime(fleet, workload: Workload) -> None:
    log = Log()
    for request in workload.primed:
        play(fleet, request, workload.script, log)
    if any(out is None for out in log.outs):
        raise RuntimeError(f"{workload.name}: priming failed")


def signature(out: object) -> object:
    """What must equal the oracle's: the answer, not the accounting."""
    if not isinstance(out, str):
        return out
    answer = json.loads(out)
    return (
        answer["columns"],
        answer["rows"],
        answer["rank_keys"],
        [[rank for _, rank in row] for row in answer["ranks"]],
        answer["complete"],
    )


class Oracle:
    """Expected answer signatures from a cold service, one per script step."""

    def __init__(self, workload: Workload, directory: Path) -> None:
        self._workload = workload
        self._fleet = oracle_fleet(workload.config, directory)
        self._expected: dict[Request, list] = {}
        #: request -> predicted plan cost / observed virtual seconds of
        #: its cold submit: the two sides of the paper's cost model.
        self.cost_ratio: dict[Request, float] = {}

    def expected(self, request: Request) -> list:
        known = self._expected.get(request)
        if known is None:
            log = Log()
            play(self._fleet, request, self._workload.script, log)
            known = self._expected[request] = [signature(out) for out in log.outs]
            cold = json.loads(log.outs[0])
            self.cost_ratio[request] = (
                cold["plan_cost"] / cold["stats"]["elapsed_virtual_s"]
            )
        return known

    def failures(self, ops: list[Op]) -> int:
        """Operations that raised or whose answer differs from the oracle's."""
        failed = 0
        for op in ops:
            expected = self.expected(op.request)[op.step]
            if op.out is None or signature(op.out) != expected:
                failed += 1
        return failed


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of pre-sorted values."""
    rank = max(0, min(len(ordered) - 1, int(fraction * len(ordered) + 0.5) - 1))
    return ordered[rank]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

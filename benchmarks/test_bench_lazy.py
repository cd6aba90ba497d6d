"""Demand-driven lazy fetching exact counts (``counts_lazy.txt``).

Counts what the lazy fetch subsystem was built to save: **remote
service work** — calls, page fetches, and raw tuples pulled — for
top-k executions at k ∈ {1, 10, 100}, against the eager streamed
baseline (PR 2: early exit saves join work, but every service is still
fully materialized up front) and the full-scan oracle.

The workloads:

* **pair** — the paper's two-search-services shape on the
  rank-monotone plane: both services return their tuples in rank
  order (rank = position), every cell of the candidate plane is a
  matching combination, and the composed rank of cell ``(i, j)`` is
  ``i + j`` — exactly the regime where a pull-based rank-join touches
  ``O(k)`` rows per side;
* **serial** — a serial-shaped plan: a ranked ``feeder`` proliferates
  into FEEDS tuples, each feeding the multi-feed ``lefts`` node (one
  budgeted block per feed tuple), merged with a single-feed
  ``rights`` service at the final join.  This is the shape PR 5's
  :class:`~repro.execution.lazy.MultiFeedCursor` exists for: before
  it, multi-feed inputs were materialized eagerly and serial plans
  saved no remote work at all;
* **deep chain** — a service-terminal plan, no join at all: a ranked
  search ``head`` feeding 1 / 2 / 3 levels of exact lookups over tables
  of two sizes.  The whole pipe chain is demand-driven (a feed may be a
  cursor), so page fetches must grow with k — exactly ``ceil(k / chunk)
  + depth * k`` — and be flat in table size and in depth × fan-out;
  plus one multi-round session (F too small for k) where growth in
  place must pay the new pages of each round, not every round again;
* **joined session** — the same ladder on the news domain's shape: a
  search head shared by two multi-feed exact lookups that the terminal
  join merges, NL and MS.  Growth continues under the join, so in place
  pulls every page once, and re-execution pulls the earlier rounds'
  pages again;
* **template sessions** — the session script of the frozen bench's
  ``sessions_more`` workload (submit k = 3, then three ``more 3``) on
  each of its templates, each on a fresh service: per round, the cells
  the join walks ran through their kernel, the candidates they kept
  and the pages pulled.  The kernels are wrapped to count
  (``_counting_kernels``); a service-terminal plan runs none;
* **nested-loop template sessions** — the same script on the news and
  weekend templates with every service pair registered nested loop
  (``register_join_method``): per round, the answers, pages, remote
  calls, kernel cells and ``complete``.  The frozen bench streams no
  nested-loop join, so this table is what pins a nested-loop walk
  that grows in place (news);
* **template cursors** — one submit of each bench template at k = 3
  and k = 5, each on a fresh service: the remote calls it made and the
  block cursors its multi-feed cursors built.  A one-page block the
  fetch policy takes at once is placed as a page, with no cursor; the
  cursor class is wrapped to count (``_counting_block_cursors``);
* **template demands** — the same submits, counted along the demand
  path (``_counting_demands``): the rows the terminal join walk files
  in its key index, the walk's demands (``MultiFeedCursor.ensure``
  entries) and the opening runs they start (``_open_next`` entries),
  the blocks opened, the bound reads (``suffix_min`` entries of every
  cursor class) and the pages pulled through the fetch seam, cache hits
  included; and why each block cursor was
  built: its block opened above the frontier, opened beside a block
  that waits, or may pull a second page.

Three engines run each plan:

* **oracle** — the dict-row reference interpreter
  (``repro.testing.reference_execute``) + ``compose_ranking`` (the
  equivalence reference);
* **eager** — ``repro.testing.eager_streamed_engine``: early exit on
  the join walk, eager service materialization (the PR 2 engine, kept
  as a reference fixture);
* **lazy** — the top-k walk (``execute(k=...)``): the final join
  pulls its single-feed inputs through lazy cursors.

The acceptance assertion is the point of the subsystem: at k = 1 and
k = 10 the lazy execution must fetch **strictly fewer service tuples**
than eager streaming (and never more at any k), while the emitted
rows stay bit-identical to the oracle.

Every column is a ledger read: the totals, the tuples of the
demand-driven steps, and their blocks — one per feed row the feeder
produced, *untouched* when no call or cache hit answered it
(``repro.testing.demand_blocks``).  ``pages_saved`` is the eager run's
page total less the lazy run's.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import pytest

from benchmarks.conftest import table, write_artifact
from repro.execution.cache import CacheSetting
from repro.execution import joins, lazy
from repro.execution.engine import ExecutionEngine
from repro.execution.fetch import UnitSource
from repro.execution.progressive import ProgressiveExecutor
from repro.execution.slots import SlotJoinPlan
from repro.model.atoms import Atom
from repro.model.query import ConjunctiveQuery
from repro.model.schema import signature
from repro.model.terms import Constant, Variable
from repro.plans.builder import PlanBuilder, Poset
from repro.serving import QueryService
from repro.services.profile import exact_profile, search_profile
from repro.services.registry import JoinMethod, ServiceRegistry
from repro.services.table import TableExactService, TableSearchService
from repro.testing import (
    ReexecutingExecutor,
    chain_poset,
    compose_ranking,
    demand_blocks,
    eager_streamed_engine,
    reference_execute,
    step_cells,
)

pytestmark = pytest.mark.bench

SIDE = 60
CHUNK = 10
FETCHES = -(-SIDE // CHUNK)  # enough budget to drain either service
KS = (1, 10, 100)

#: Serial-plan workload: FEEDS feeder tuples, each opening one block
#: of PER ranked tuples on the multi-feed node.
FEEDS = 6
PER = 10
SERIAL_CHUNK = 5
SERIAL_FETCHES = -(-PER // SERIAL_CHUNK)


#: Deep-chain workload: table sizes, lookup levels under the head, and
#: the head's page budget (what an optimizer sized for k = 100 at a
#: selectivity below 1 would allow).
CHAIN_TABLES = (200, 2_000)
CHAIN_DEPTHS = (1, 2, 3)
CHAIN_FETCHES = 20


def _chain_plan(depth: int, rows: int, fetches: int = CHAIN_FETCHES):
    """``head('q', X0), l1(X0, X1), ..., l<depth>(X<depth-1>, X<depth>)``.

    The head ranks *rows* keys (rank = position, CHUNK a page); every
    lookup level is an exact bulk service holding one row per key.
    """
    registry = ServiceRegistry()
    registry.register(
        TableSearchService(
            signature("head", ["Q", "X0"], ["io"]),
            search_profile(chunk_size=CHUNK, response_time=1.0),
            [("q", x) for x in range(rows)],
            score=lambda row: float(-row[1]),
        )
    )
    atoms = [Atom("head", (Constant("q"), Variable("X0")))]
    for level in range(1, depth + 1):
        registry.register(
            TableExactService(
                signature(f"l{level}", [f"K{level}", f"V{level}"], ["io"]),
                exact_profile(erspi=1.0, response_time=1.0),
                [(x, x) for x in range(rows)],
            )
        )
        atoms.append(
            Atom(f"l{level}", (Variable(f"X{level - 1}"), Variable(f"X{level}")))
        )
    query = ConjunctiveQuery(
        name="lazychain",
        head=tuple(Variable(f"X{level}") for level in range(depth + 1)),
        atoms=tuple(atoms),
        predicates=(),
    )
    plan = PlanBuilder(query, registry).build(
        tuple(
            registry.signature(atom.service).pattern("io") for atom in atoms
        ),
        chain_poset(depth + 1, range(depth + 1)),
        fetches={0: fetches},
    )
    return registry, tuple(query.head), plan


def _plan(method: JoinMethod):
    """Two single-feed search services over the SIDE×SIDE plane."""
    registry = ServiceRegistry()
    for name, var in (("lefts", "L"), ("rights", "R")):
        registry.register(
            TableSearchService(
                signature(name, ["Q", "K", var], ["ioo"]),
                search_profile(chunk_size=CHUNK, response_time=1.0),
                [("q", 0, index) for index in range(SIDE)],
                score=lambda row: float(-row[2]),
            )
        )
    registry.register_join_method("lefts", "rights", method)
    key, left_var, right_var = Variable("K"), Variable("L"), Variable("R")
    query = ConjunctiveQuery(
        name="lazybench",
        head=(key, left_var, right_var),
        atoms=(
            Atom("lefts", (Constant("q"), key, left_var)),
            Atom("rights", (Constant("q"), key, right_var)),
        ),
        predicates=(),
    )
    plan = PlanBuilder(query, registry).build(
        (
            registry.signature("lefts").pattern("ioo"),
            registry.signature("rights").pattern("ioo"),
        ),
        Poset(n=2),
        fetches={0: FETCHES, 1: FETCHES},
    )
    return registry, tuple(query.head), plan


def _serial_plan(method: JoinMethod):
    """feeder → multi-feed lefts (FEEDS blocks), joined with rights."""
    registry = ServiceRegistry()
    registry.register(
        TableSearchService(
            signature("feeder", ["Q", "X"], ["io"]),
            search_profile(chunk_size=FEEDS, response_time=1.0),
            [("q", x) for x in range(FEEDS)],
            score=lambda row: float(-row[1]),
        )
    )
    registry.register(
        TableSearchService(
            signature("lefts", ["X", "K", "L"], ["ioo"]),
            search_profile(chunk_size=SERIAL_CHUNK, response_time=1.0),
            [(x, 0, index) for x in range(FEEDS) for index in range(PER)],
            score=lambda row: float(-row[2]),
        )
    )
    registry.register(
        TableSearchService(
            signature("rights", ["Q", "K", "R"], ["ioo"]),
            search_profile(chunk_size=SERIAL_CHUNK, response_time=1.0),
            [("q", 0, index) for index in range(PER)],
            score=lambda row: float(-row[2]),
        )
    )
    registry.register_join_method("lefts", "rights", method)
    key = Variable("K")
    x, left_var, right_var = Variable("X"), Variable("L"), Variable("R")
    query = ConjunctiveQuery(
        name="lazyserial",
        head=(key, left_var, right_var),
        atoms=(
            Atom("feeder", (Constant("q"), x)),
            Atom("lefts", (x, key, left_var)),
            Atom("rights", (Constant("q"), key, right_var)),
        ),
        predicates=(),
    )
    plan = PlanBuilder(query, registry).build(
        (
            registry.signature("feeder").pattern("io"),
            registry.signature("lefts").pattern("ioo"),
            registry.signature("rights").pattern("ioo"),
        ),
        Poset(n=3, pairs=frozenset({(0, 1)})),
        fetches={0: 1, 1: SERIAL_FETCHES, 2: SERIAL_FETCHES},
    )
    return registry, tuple(query.head), plan


#: Joined multi-round session: HEAD_KEYS head rows, HEAD_CHUNK a page,
#: each key looked up on both sides (LOOKUP_ROWS rows per key and side,
#: every pair matching), JOINED_K answers: the F = 1 ladder is 1, 2, 4, 8.
HEAD_KEYS = 40
HEAD_CHUNK = 4
LOOKUP_ROWS = 2
JOINED_K = 100


def _teed_plan(method: JoinMethod):
    """``head('q', X) -> {lefts(X, K, L), rights(X, K, R)} -> join``:
    the head is shared by two multi-feed exact lookups the terminal
    join merges (the shape of the news domain), F = 1."""
    registry = ServiceRegistry()
    registry.register(
        TableSearchService(
            signature("head", ["Q", "X"], ["io"]),
            search_profile(chunk_size=HEAD_CHUNK, response_time=1.0),
            [("q", x) for x in range(HEAD_KEYS)],
            score=lambda row: float(-row[1]),
        )
    )
    for name in ("lefts", "rights"):
        registry.register(
            TableExactService(
                signature(name, ["X", "K", "V"], ["ioo"]),
                exact_profile(erspi=LOOKUP_ROWS, response_time=1.0),
                [(x, 0, v) for x in range(HEAD_KEYS) for v in range(LOOKUP_ROWS)],
            )
        )
    registry.register_join_method("lefts", "rights", method)
    x, key, left_var, right_var = (Variable(n) for n in ("X", "K", "L", "R"))
    query = ConjunctiveQuery(
        name="lazyteed",
        head=(x, key, left_var, right_var),
        atoms=(
            Atom("head", (Constant("q"), x)),
            Atom("lefts", (x, key, left_var)),
            Atom("rights", (x, key, right_var)),
        ),
        predicates=(),
    )
    plan = PlanBuilder(query, registry).build(
        (
            registry.signature("head").pattern("io"),
            registry.signature("lefts").pattern("ioo"),
            registry.signature("rights").pattern("ioo"),
        ),
        Poset(n=3, pairs=frozenset({(0, 1), (0, 2)})),
        fetches={0: 1},
    )
    return registry, tuple(query.head), plan


class _PageLog:
    """Counts every ``(service, inputs, page)`` that reaches the service
    it wraps."""

    def __init__(self, inner, name: str, log: Counter) -> None:
        self._inner, self._name, self._log = inner, name, log

    def invoke(self, pattern, inputs, page=0):
        self._log[self._name, tuple(sorted(inputs.items())), page] += 1
        return self._inner.invoke(pattern, inputs, page=page)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _session_rounds(cls, registry, head, plan, k) -> tuple[dict, Counter]:
    """One no-cache session of *cls* asked for *k* answers: its rounds'
    counts and how often each page reached a service."""
    log: Counter = Counter()
    for name in registry.names:
        registry._services[name] = _PageLog(registry.service(name), name, log)
    executor = cls(
        registry=registry, plan=plan, head=head,
        cache_setting=CacheSetting.NO_CACHE,
    )
    assert len(executor.run(k).rows) == k
    rounds = executor.rounds
    return {
        "rounds": len(rounds),
        "ladder": [r.fetches[0] for r in rounds],
        "page_fetches_per_round": [r.stats.total_fetches for r in rounds],
        "tuples_processed_per_round": [r.stats.tuples_processed for r in rounds],
        "page_fetches": sum(r.stats.total_fetches for r in rounds),
        "tuples_processed": sum(r.stats.tuples_processed for r in rounds),
    }, log


def _measure(engine: ExecutionEngine, plan, head, k) -> tuple[list, dict]:
    """The rows of a top-k run of *plan* and its ledger's counts."""
    result = engine.execute(plan, head=head, k=k)
    stats = result.stats
    blocks = demand_blocks(result)
    return [(r.bindings, r.ranks) for r in result.rows], {
        "service_calls": stats.total_calls,
        "page_fetches": stats.total_fetches,
        "tuples_fetched": stats.total_tuples_fetched,
        "lazy_tuples_fetched": sum(
            step_cells(stats, index).tuples_fetched for index in blocks
        ),
        "lazy_blocks": sum(known for known, _ in blocks.values()),
        "lazy_blocks_untouched": sum(
            known - touched for known, touched in blocks.values()
        ),
    }


def _measure_pair(registry, plan, head, k) -> tuple[list, dict, list, dict]:
    """The eager and the lazy streamed run of *plan*, the lazy one with
    the pages it saved: the eager run's total less its own."""
    eager_rows, eager = _measure(eager_streamed_engine(registry), plan, head, k)
    lazy_rows, lazy = _measure(ExecutionEngine(registry), plan, head, k)
    lazy["pages_saved"] = eager["page_fetches"] - lazy["page_fetches"]
    return eager_rows, eager, lazy_rows, lazy


def _joined_points(make_plan, universe: int) -> list[dict]:
    """Eager vs. lazy streaming of *make_plan*'s plan per method and k,
    both checked against the oracle; *universe* is the join's plane."""
    points = []
    for method in (JoinMethod.MERGE_SCAN, JoinMethod.NESTED_LOOP):
        for k in KS:
            registry, head, plan = make_plan(method)
            expected = [
                (r.bindings, r.ranks) for r in
                compose_ranking(reference_execute(plan, registry).rows, k)
            ]
            eager_rows, eager, lazy_rows, lazy = _measure_pair(
                registry, plan, head, k
            )
            # Oracle equivalence: identical rows, ranks, and order.
            assert eager_rows == expected and lazy_rows == expected
            # The acceptance property: early exit saves remote work,
            # strictly at small k, never costing extra.
            assert lazy["tuples_fetched"] <= eager["tuples_fetched"]
            assert lazy["page_fetches"] <= eager["page_fetches"]
            if k < universe:
                assert lazy["tuples_fetched"] < eager["tuples_fetched"], (
                    method, k,
                )
            if method is JoinMethod.MERGE_SCAN and k == 10:
                assert len(lazy_rows) == 10 and lazy["pages_saved"] > 0
            for run, counts in (("eager", eager), ("lazy", lazy)):
                points.append({"method": method.value, "k": k, "run": run,
                               **counts})
    return points


@contextmanager
def _counting_kernels(counts: Counter):
    """Every join kernel built inside adds the cells it is handed to
    ``counts["kernel_cells"]`` and the candidates it keeps to
    ``counts["candidates"]``."""
    build = SlotJoinPlan.kernel

    def counting(plan, predicates):
        kernel = build(plan, predicates)

        def counted(cells, *args):
            candidates = args[-1]
            kept = len(candidates)
            counts["kernel_cells"] += len(cells)
            kernel(cells, *args)
            counts["candidates"] += len(candidates) - kept

        return counted

    SlotJoinPlan.kernel = counting
    try:
        yield
    finally:
        SlotJoinPlan.kernel = build


@contextmanager
def _counting_block_cursors(counts: Counter):
    """Every block cursor a multi-feed cursor builds inside adds one to
    ``counts["block_cursors"]`` (a single-feed step's cursor is built
    by the engine, and a teed head is its own class: neither counts)."""
    build = lazy.LazyServiceCursor

    class Counted(build):
        def __init__(self, *args) -> None:
            counts["block_cursors"] += 1
            super().__init__(*args)

    lazy.LazyServiceCursor = Counted
    try:
        yield
    finally:
        lazy.LazyServiceCursor = build


@contextmanager
def _counting_demands(counts: Counter):
    """The demand path of every walk inside, counted in *counts*: rows
    filed by a join walk, ``MultiFeedCursor.ensure`` and ``_open_next``
    entries, blocks opened, ``suffix_min`` entries, pages pulled through
    the fetch seam (cache hits too), and the block cursors built, by
    why (``cursors_above``: opened above the frontier with nothing
    open; ``cursors_beside``: opened beside an open block;
    ``cursors_paging``: its unit may pull a second page)."""
    build = lazy.LazyServiceCursor
    add = joins.KeyIndex.add
    init = lazy.MultiFeedCursor.__init__
    open_next = lazy.MultiFeedCursor._open_next
    cursors: list = []
    beside: list[bool] = []

    def counting(method, key):
        def call(self, *args):
            counts[key] += 1
            return method(self, *args)

        return call

    def filing(index, side, rows, other, stop, file=False):
        before = index.added[side]
        cells = add(index, side, rows, other, stop, file)
        if file:
            counts["rows_filed"] += index.added[side] - before
        return cells

    def registering(cursor, *args):
        cursors.append(cursor)
        init(cursor, *args)

    def opening(cursor, *args):
        counts["opens"] += 1
        beside.append(bool(cursor._blocks))
        try:
            return open_next(cursor, *args)
        finally:
            beside.pop()

    class Counted(build):
        def __init__(self, source, base_rank=0) -> None:
            if beside[-1]:
                counts["cursors_beside"] += 1
            elif source.budget > 1:
                counts["cursors_paging"] += 1
            else:
                counts["cursors_above"] += 1
            super().__init__(source, base_rank)

    replacements = {
        (joins.KeyIndex, "add"): filing,
        (lazy.MultiFeedCursor, "__init__"): registering,
        (lazy.MultiFeedCursor, "ensure"): counting(
            lazy.MultiFeedCursor.ensure, "demands"
        ),
        (lazy.MultiFeedCursor, "_open_next"): opening,
        (UnitSource, "fetch"): counting(UnitSource.fetch, "pages_pulled"),
        **{
            (cls, "suffix_min"): counting(cls.suffix_min, "bound_reads")
            for cls in (
                lazy.MaterializedCursor, lazy.LazyServiceCursor,
                lazy.MultiFeedCursor,
            )
        },
    }
    saved = {(cls, name): cls.__dict__[name] for cls, name in replacements}
    for (cls, name), replacement in replacements.items():
        setattr(cls, name, replacement)
    lazy.LazyServiceCursor = Counted
    try:
        yield
    finally:
        lazy.LazyServiceCursor = build
        for (cls, name), method in saved.items():
            setattr(cls, name, method)
        counts["blocks_opened"] += sum(cursor._opened for cursor in cursors)


def _bench_workloads():
    """The frozen bench's ``workloads`` module."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def _template_cursors() -> list[dict]:
    """One submit of each bench template (popularity order, each on a
    fresh service) at k = 3 and k = 5: its answers, its remote calls
    and the block cursors built."""
    workloads = _bench_workloads()
    points = []
    for k in (3, 5):
        for number, request in enumerate(workloads.zipf_population(k=k), 1):
            service = QueryService(workloads.IN_MEMORY[request.domain]())
            counts: Counter = Counter()
            with _counting_block_cursors(counts):
                response = service.submit(request.text, request.k)
            executor = service.sessions.get(response.session_id).executor
            points.append({
                "template": f"{number}:{request.domain}",
                "k": k,
                "answers": len(response.rows),
                "calls": sum(r.stats.total_calls for r in executor.rounds),
                "block_cursors": counts["block_cursors"],
            })
    return points


def _template_demands() -> list[dict]:
    """One submit of each bench template (popularity order, each on a
    fresh service) at k = 3 and k = 5: the demand path of its walk
    (``_counting_demands``)."""
    workloads = _bench_workloads()
    points = []
    for k in (3, 5):
        for number, request in enumerate(workloads.zipf_population(k=k), 1):
            service = QueryService(workloads.IN_MEMORY[request.domain]())
            counts: Counter = Counter()
            with _counting_demands(counts):
                service.submit(request.text, request.k)
            points.append({
                "template": f"{number}:{request.domain}",
                "k": k,
                "rows_filed": counts["rows_filed"],
                "demands": counts["demands"],
                "opens": counts["opens"],
                "blocks_opened": counts["blocks_opened"],
                "bound_reads": counts["bound_reads"],
                "pages_pulled": counts["pages_pulled"],
                "cursors_above": counts["cursors_above"],
                "cursors_beside": counts["cursors_beside"],
                "cursors_paging": counts["cursors_paging"],
            })
    return points


def _session_script(service: QueryService, request, more: int):
    """``sessions_more``'s script (submit, then three ``more``) on
    *service*: per round, its name, the response, the join kernels'
    counts (``_counting_kernels``) and the executor rounds it ran."""
    counts: Counter = Counter()
    session = None
    for round_ in ("submit", "more", "more", "more"):
        counts.clear()
        with _counting_kernels(counts):
            if session is None:
                response = service.submit(request.text, request.k)
                session = response.session_id
                executor = service.sessions.get(session).executor
                before = 0
            else:
                before = len(executor.rounds)
                response = service.ask_for_more(session, more)
        yield round_, response, counts, executor.rounds[before:]


def _template_sessions() -> list[dict]:
    """Per round of ``sessions_more``'s script on each bench template
    (popularity order, each on a fresh service): the join walks'
    kernel cells and kept candidates, and the pages pulled."""
    workloads = _bench_workloads()
    assert workloads.SESSION.count("more") == 3
    points = []
    for number, request in enumerate(workloads.zipf_population(k=3), 1):
        service = QueryService(workloads.IN_MEMORY[request.domain]())
        for round_, response, counts, rounds in _session_script(
            service, request, workloads.MORE
        ):
            points.append({
                "template": f"{number}:{request.domain}",
                "round": round_,
                "answers": len(response.rows),
                "kernel_cells": counts["kernel_cells"],
                "candidates": counts["candidates"],
                "pages": sum(r.stats.total_fetches for r in rounds),
            })
    return points


def _nested_loop_sessions() -> list[dict]:
    """Per round of ``sessions_more``'s script on each news and weekend
    bench template, with every pair of the domain's services registered
    nested loop (a fresh service each): its answers, pages, remote
    calls, join kernel cells, and whether the answers are complete.
    The news plan's terminal join grows in place; the weekend plan is
    service-terminal, so it runs no join under either method."""
    workloads = _bench_workloads()
    points = []
    for number, request in enumerate(workloads.zipf_population(k=3), 1):
        if request.domain not in ("news", "weekend"):
            continue
        registry = workloads.IN_MEMORY[request.domain]()
        for first, second in combinations(registry.names, 2):
            registry.register_join_method(first, second, JoinMethod.NESTED_LOOP)
        for round_, response, counts, rounds in _session_script(
            QueryService(registry), request, workloads.MORE
        ):
            points.append({
                "template": f"{number}:{request.domain}",
                "round": round_,
                "rows": len(response.rows),
                "pages": sum(r.stats.total_fetches for r in rounds),
                "calls": sum(r.stats.total_calls for r in rounds),
                "kernel_cells": counts["kernel_cells"],
                "complete": response.complete,
            })
    return points


def test_write_counts_lazy(out_dir):
    pair = _joined_points(_plan, SIDE)
    serial = _joined_points(_serial_plan, FEEDS * PER)
    for point in serial:
        if point["run"] == "lazy":
            # the feeder is demand-driven too (its only consumer is
            # lazy): its block, FEEDS on lefts, the rights cursor
            assert point["lazy_blocks"] == FEEDS + 2
            if point["k"] == 1:
                assert point["lazy_blocks_untouched"] > 0

    chain_points = []
    fetches: dict[tuple[int, int, int], int] = {}
    for rows in CHAIN_TABLES:
        for depth in CHAIN_DEPTHS:
            for k in KS:
                registry, head, plan = _chain_plan(depth, rows)
                eager_rows, eager, lazy_rows, lazy = _measure_pair(
                    registry, plan, head, k
                )
                assert len(lazy_rows) == k and lazy_rows == eager_rows
                # Traffic grows with k: the head pages that hold k keys,
                # and one lookup per key and level.
                assert lazy["page_fetches"] == -(-k // CHUNK) + depth * k
                if k == KS[-1]:
                    assert 2 * lazy["page_fetches"] <= eager["page_fetches"]
                fetches[rows, depth, k] = lazy["page_fetches"]
                for run, counts in (("eager", eager), ("lazy", lazy)):
                    chain_points.append({"table_rows": rows, "levels": depth,
                                         "k": k, "run": run, **counts})
    small, large = CHAIN_TABLES
    for depth in CHAIN_DEPTHS:
        by_k = [fetches[small, depth, k] for k in KS]
        assert by_k == sorted(by_k)  # non-decreasing in k
        for k in KS:
            # flat in table size, and in depth x fan-out: a level more
            # costs its own lookups, never a multiple
            assert fetches[small, depth, k] == fetches[large, depth, k]
            assert fetches[small, depth, k] <= depth * fetches[small, 1, k]

    # One multi-round session: F = 1 page holds 10 keys, k = 100 needs
    # the ladder 1, 2, 4, 8, 16.  No cache, so every pull is a remote
    # fetch: in place pays each page once — what one walk with a large
    # enough F pays — re-execution pays every earlier round again.
    multi_round = []
    depth, k = CHAIN_DEPTHS[-1], KS[-1]
    for name, cls in (
        ("in_place", ProgressiveExecutor),
        ("re_executing", ReexecutingExecutor),
    ):
        registry, head, plan = _chain_plan(depth, small, fetches=1)
        executor = cls(
            registry=registry, plan=plan, head=head,
            cache_setting=CacheSetting.NO_CACHE,
        )
        assert len(executor.run(k).rows) == k
        rounds = executor.rounds
        multi_round.append({
            "session": name,
            "rounds": len(rounds),
            "ladder": [r.fetches[0] for r in rounds],
            "page_fetches_per_round": [r.stats.total_fetches for r in rounds],
            "page_fetches": sum(r.stats.total_fetches for r in rounds),
            "tuples_processed": sum(r.stats.tuples_processed for r in rounds),
            "virtual_s": round(sum(r.elapsed for r in rounds), 6),
        })
    in_place, re_executing = multi_round
    assert in_place["ladder"] == re_executing["ladder"]
    assert in_place["page_fetches"] == fetches[small, depth, k]
    assert in_place["page_fetches"] < re_executing["page_fetches"]
    assert re_executing["page_fetches"] == sum(
        # round r re-walks from page 0 to where it stops
        min(pages * CHUNK, k) * depth + -(-min(pages * CHUNK, k) // CHUNK)
        for pages in re_executing["ladder"]
    )

    # The same session under the terminal join: the head, shared by two
    # multi-feed lookups, grows in place too, and each page is pulled
    # once; re-execution pulls every earlier round's pages again.
    joined_rounds = []
    for method in (JoinMethod.MERGE_SCAN, JoinMethod.NESTED_LOOP):
        sessions = {}
        for name, cls in (
            ("in_place", ProgressiveExecutor),
            ("re_executing", ReexecutingExecutor),
        ):
            registry, head, plan = _teed_plan(method)
            counts, log = _session_rounds(cls, registry, head, plan, JOINED_K)
            sessions[name] = counts
            joined_rounds.append(
                {"method": method.value, "session": name, **counts}
            )
            if name == "in_place":
                assert max(log.values()) == 1
        in_place, re_executing = sessions["in_place"], sessions["re_executing"]
        assert in_place["ladder"] == re_executing["ladder"] == [1, 2, 4, 8]
        assert in_place["page_fetches"] < re_executing["page_fetches"]
        assert in_place["tuples_processed"] < re_executing["tuples_processed"]

    write_artifact(out_dir, "counts_lazy.txt", "\n\n".join([
        table(f"Pair: two single-feed search services, {SIDE}x{SIDE} "
              f"rank-monotone plane, chunk {CHUNK}, {FETCHES}-page budget; "
              "eager vs. lazy streaming, rows equal to the oracle's", pair),
        table(f"Serial: feeder -> multi-feed lefts ({FEEDS} blocks of {PER}), "
              f"joined with rights, chunk {SERIAL_CHUNK}", serial),
        table(f"Deep chain: search head -> 1/2/3 levels of exact lookups, "
              f"chunk {CHUNK}, {CHAIN_FETCHES}-page head budget; lazy pages "
              "= ceil(k / chunk) + levels * k", chain_points),
        table(f"Multi-round session: F=1, k={k}, {depth} lookup levels, "
              f"{small}-row tables, no cache", multi_round),
        table(f"Multi-round session under the terminal join: search head "
              f"(chunk {HEAD_CHUNK}) -> two multi-feed exact lookups "
              f"({LOOKUP_ROWS} rows a key) -> join, F=1, k={JOINED_K}, "
              "no cache", joined_rounds),
        table("Template sessions: sessions_more's script (submit k=3, then "
              "three more 3) on each bench template, a fresh service each; "
              "per round, the join kernels' cells and kept candidates, and "
              "the pages pulled", _template_sessions()),
        table("Nested-loop template sessions: sessions_more's script on "
              "each news and weekend bench template, every service pair "
              "registered nested loop, a fresh service each; per round, the "
              "answers, pages, remote calls, join kernels' cells and "
              "whether the answers are complete (weekend runs no join)",
              _nested_loop_sessions()),
        table("Template cursors: one submit of each bench template at k=3 "
              "and k=5, a fresh service each; its answers, remote calls and "
              "the block cursors built (a one-page block taken at once is a "
              "page, not a cursor)", _template_cursors()),
        table("Template demands: one submit of each bench template at k=3 "
              "and k=5, a fresh service each; the rows the terminal join "
              "walk filed, its demands (MultiFeedCursor.ensure entries) and "
              "the opening runs they started (_open_next entries), the "
              "blocks opened, the bound reads (suffix_min entries), the "
              "pages pulled (cache hits too), and the block cursors built "
              "by why: opened above the frontier, beside a block that "
              "waits, or paging on",
              _template_demands()),
    ]))

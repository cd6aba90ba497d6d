"""Fixtures of the plan, join, lazy-cursor and resilience suites.

:func:`is_order_rank_consistent` is the domination property the visit
orders of :mod:`repro.execution.joins` are checked against;
:func:`as_record` / :func:`as_records` turn hand-built rows into the
records the engine's joins, streams, cursors and binding kernels run
on, and :func:`emitted` turns records back into rows through the
engine's own :func:`~repro.execution.results.emit`; :func:`joined` and
:func:`join_stream` run the two join forms over hand-built rows through
them — the one adapter the suites that drive those internals with
``Row`` objects go through; :func:`compiled_join` compiles the join of hand-built rows as a program
compiles one; :class:`ListPageSource` is a page source over pre-built
pages of rows (served as records), which the suites drive the cursors
of :mod:`repro.execution.lazy` with, and :func:`step_cells` /
:func:`demand_blocks` read a demand-driven walk's work off its ledger.
:func:`chain_poset` and
:func:`parallel_after` are the two precedence shapes hand-built plans
use, :func:`market_moving_news_query` the query the news domain is
tested and benched with, :func:`mask_unit` the oracle side of the
partial-results differential, and :func:`stored_plans` counts the plans
a plan cache's SQLite file holds.  Nothing the engine runs calls any
of them.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Hashable, Iterable, Sequence

from repro.execution.engine import ExecutionEngine, ExecutionResult
from repro.execution.joins import JoinStream, join_rows
from repro.execution.lazy import FetchedPage, RowCursor
from repro.execution.resilience import UnresponsiveService
from repro.execution.results import Record, Row, SlotLayout, emit
from repro.execution.slots import CompiledJoin, compile_join
from repro.execution.stats import ExecutionStats, ServiceCallStats
from repro.model.atoms import Atom
from repro.model.predicates import Comparison
from repro.model.query import ConjunctiveQuery
from repro.model.terms import Constant, Variable
from repro.plans.builder import Poset
from repro.plans.dag import PlanError
from repro.services.registry import JoinMethod


def as_record(row: Row) -> Record:
    """The record chain *row* stands for: ``emit(as_record(row),
    row.layout) == row``.

    One service record per entry of the row's ``ranks`` over a root
    that holds the row's values, each carrying the row's values and the
    rank sum so far — so the last one carries ``row.rank_key()``.
    """
    record = (row.values, 0)
    total = 0
    for node_id, rank in row.ranks:
        total += rank
        record = (row.values, total, record, node_id, rank, None)
    return record


def as_records(rows: Iterable[Row]) -> list[Record]:
    """:func:`as_record` of each row, in order."""
    return [as_record(row) for row in rows]


def emitted(records: Iterable[Record], layout: SlotLayout) -> list[Row]:
    """The rows the engine emits for *records* laid out as *layout*."""
    return [emit(record, layout) for record in records]


def joined(join: CompiledJoin, left: Sequence[Row], right: Sequence[Row]) -> list[Row]:
    """:func:`~repro.execution.joins.join_rows` over hand-built rows:
    their records in, the rows the join's records emit out."""
    records = join_rows(join, as_records(left), as_records(right))
    return emitted(records, join.merge.merged)


def join_stream(
    join: CompiledJoin,
    left: Sequence[Row] | RowCursor,
    right: Sequence[Row] | RowCursor,
) -> JoinStream:
    """A :class:`~repro.execution.joins.JoinStream` over hand-built rows
    (their records) or cursors; its :meth:`top` emits rows itself."""
    return JoinStream(join, *(
        side if isinstance(side, RowCursor) else as_records(side)
        for side in (left, right)
    ))


def compiled_join(
    method: JoinMethod,
    left: Sequence[Hashable],
    right: Sequence[Hashable],
    predicates: Sequence[Comparison] = (),
    residual: Sequence[Comparison] = (),
) -> CompiledJoin:
    """The join :func:`~repro.execution.joins.join_rows` and
    :class:`~repro.execution.joins.JoinStream` run over rows hand-built
    with ``Row(bindings=...)`` over the variables *left* and *right*, in
    that order.  Nothing checks the rows against them, exactly as the
    engine checks nothing against its program's layouts."""
    return compile_join(
        method, SlotLayout(left), SlotLayout(right), predicates, residual
    )


def is_order_rank_consistent(order: Sequence[tuple[int, int]]) -> bool:
    """Check the domination property of a visit order.

    True iff whenever cell ``a`` componentwise dominates cell ``b``
    (``a <= b`` in both coordinates, one strictly), ``a`` appears
    before ``b``.

    Runs one ``O(n log n)`` staircase sweep instead of comparing all
    cell pairs: cells are visited in emission order while a Pareto
    frontier of the maximal cells seen so far is maintained, sorted by
    ascending ``i`` (hence strictly descending ``j``).  A violation is
    exactly a new cell lying weakly below-left of an already-emitted
    one, which only the frontier can witness.
    """
    position = {cell: index for index, cell in enumerate(order)}
    xs: list[int] = []  # frontier i-coordinates, ascending
    ys: list[int] = []  # matching j-coordinates, strictly descending
    for i, j in sorted(position, key=position.__getitem__):
        # The frontier cell with the smallest i' >= i carries the
        # largest j' among all emitted cells with i' >= i.
        lo, hi = 0, len(xs)
        while lo < hi:
            mid = (lo + hi) // 2
            if xs[mid] < i:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(xs) and ys[lo] >= j:
            # Some earlier distinct cell is >= (i, j) componentwise:
            # the new cell dominates it yet is emitted later.
            return False
        # Frontier cells covered by the new one ((i', j') <= (i, j))
        # form a contiguous run ending just before the insertion point.
        start, end = 0, lo
        while start < end:
            mid = (start + end) // 2
            if ys[mid] <= j:
                end = mid
            else:
                start = mid + 1
        del xs[start:lo]
        del ys[start:lo]
        xs.insert(start, i)
        ys.insert(start, j)
    return True


@dataclass
class ListPageSource:
    """A :class:`PageSource` over pre-built pages (tests, adapters).

    ``pages`` holds the produced rows of each page, handed to the cursor
    as records (:func:`as_record`); ``rank_floors``
    optionally gives the per-page floor for later tuples (defaults to
    the count of rows seen so far, the search-service convention).
    ``budget`` defaults to every page (0 is a demoted unit's).
    ``fetch_log`` records every page requested, in order: what a test
    reads the pulled work from.
    """

    pages: list[list[Row]]
    budget: int | None = None
    rank_floors: list[int] | None = None
    fetch_log: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.budget is None:
            self.budget = len(self.pages)

    @property
    def rows_pulled(self) -> int:
        """Rows of every page fetched so far, as many times as fetched."""
        pages = self.pages
        return sum(len(pages[page]) for page in self.fetch_log if page < len(pages))

    def fetch(self, page: int) -> FetchedPage:
        self.fetch_log.append(page)
        rows = as_records(self.pages[page]) if page < len(self.pages) else ()
        seen = sum(len(p) for p in self.pages[: page + 1])
        floor = (
            self.rank_floors[page]
            if self.rank_floors is not None
            else seen
        )
        return FetchedPage(
            rows=rows,
            has_more=page + 1 < len(self.pages),
            rank_floor=floor,
        )


def step_cells(stats: ExecutionStats, index: int) -> ServiceCallStats:
    """The ledger cells of step *index* summed, over every service that
    served it (zeros when none did)."""
    cells = [astuple(cell) for (step, _), cell in stats.cells.items() if step == index]
    return ServiceCallStats(*map(sum, zip(*cells)))


def demand_blocks(result: ExecutionResult) -> dict[int, tuple[int, int]]:
    """Per demand-driven step of a streamed *result*, read off its
    ledger: ``(feed rows, touched blocks)`` — the rows its feeder had
    produced when the walk suspended, one block each, and the blocks
    that fetched or were answered by the cache (a call or a hit apiece).
    A feed row no call or hit answered is a block that never fetched."""
    stats = result.stats
    blocks = {}
    for step in result.program.steps:
        if step.index in result.program.lazy:
            cells = step_cells(stats, step.index)
            blocks[step.index] = (
                stats.rows_out[step.feeds[0]], cells.calls + cells.cache_hits
            )
    return blocks


def chain_poset(n: int, order: Iterable[int]) -> Poset:
    """A total order visiting atoms in *order* (a serial pipeline)."""
    sequence = list(order)
    if sorted(sequence) != list(range(n)):
        raise PlanError(f"order {sequence} is not a permutation of 0..{n - 1}")
    pairs = {
        (sequence[i], sequence[i + 1]) for i in range(len(sequence) - 1)
    }
    return Poset(n=n, pairs=frozenset(pairs))


def parallel_after(n: int, first: int) -> Poset:
    """Atom *first* before all others, which run in parallel."""
    pairs = {(first, j) for j in range(n) if j != first}
    return Poset(n=n, pairs=frozenset(pairs))


def market_moving_news_query(
    topic: str = "merger", sector: str = "tech", min_move: int = 5
) -> ConjunctiveQuery:
    """News on *topic* about *sector* companies whose stock moved."""
    article = Variable("Article")
    headline = Variable("Headline")
    company = Variable("Company")
    date = Variable("Date")
    change = Variable("Change")
    country = Variable("Country")
    atoms = (
        Atom("newssearch", (Constant(topic), article, headline, company, date)),
        Atom("quotes", (company, date, change)),
        Atom("profile", (company, Constant(sector), country)),
    )
    predicates = (
        Comparison(change, ">=", Constant(min_move), selectivity=0.3),
    )
    return ConjunctiveQuery(
        name="marketnews",
        head=(company, headline, date, change),
        atoms=atoms,
        predicates=predicates,
    )


def mask_unit(engine: ExecutionEngine, service: str, input_key: tuple) -> None:
    """Demote one unit of *engine* before it executes anything.

    The oracle of the partial-results differential: re-running a plan
    on a *fault-free* registry with the certificate's dropped units
    masked up front must reproduce the partial answer bit-for-bit.
    """
    failure = UnresponsiveService(
        service, input_key, 0, 0, RuntimeError("masked up front")
    )
    engine.routing.demoted.setdefault((service, input_key), failure)


def stored_plans(path: Path | str) -> int:
    """How many plans the SQLite plan-cache file at *path* holds, read
    through a connection of its own (the tier keeps no count)."""
    import sqlite3  # only where a connection is opened

    connection = sqlite3.connect(path)
    try:
        return connection.execute("SELECT COUNT(*) FROM plans").fetchone()[0]
    finally:
        connection.close()

"""Fixtures of the join and lazy-cursor suites.

:func:`is_order_rank_consistent` is the domination property the visit
orders of :mod:`repro.execution.joins` are checked against;
:func:`compiled_join` compiles the join of hand-built rows as a program
compiles one; :class:`ListPageSource` is a page source over pre-built
pages, which the suites drive the cursors of
:mod:`repro.execution.lazy` with.  Nothing the engine runs calls any
of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.execution.lazy import FetchedPage
from repro.execution.results import Row, SlotLayout
from repro.execution.slots import CompiledJoin, compile_join
from repro.model.predicates import Comparison
from repro.services.registry import JoinMethod


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

    ``pages`` holds the produced rows of each page; ``rank_floors``
    optionally gives the per-page floor for later tuples (defaults to
    the count of rows seen so far, the search-service convention).
    """

    pages: list[list[Row]]
    budget: int = 0
    rank_floors: list[int] | None = None
    raw_counts: list[int] | None = None
    fetch_log: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.budget <= 0:
            self.budget = len(self.pages)

    def fetch(self, page: int) -> FetchedPage:
        self.fetch_log.append(page)
        rows = tuple(self.pages[page]) if page < len(self.pages) else ()
        seen = sum(len(p) for p in self.pages[: page + 1])
        floor = (
            self.rank_floors[page]
            if self.rank_floors is not None
            else seen
        )
        raw = (
            self.raw_counts[page]
            if self.raw_counts is not None
            else len(rows)
        )
        return FetchedPage(
            rows=rows,
            raw_tuples=raw,
            has_more=page + 1 < len(self.pages),
            rank_floor=floor,
        )

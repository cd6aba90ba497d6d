"""Rank-preserving parallel join strategies (Section 3.3, Figure 5).

Representing the items returned by the two joined services on two
Cartesian axes, each point of the plane is a candidate join result.
The two strategies scan this space in different orders:

* **nested loop (NL)** — used when one service is highly selective and
  yields its top tuples within few fetches: all its tuples are
  retrieved first (the outer side), then the plane is scanned
  column-by-column as the other service's tuples become available;
* **merge-scan (MS)** — used when there is no a priori distinction:
  both services are fetched in parallel and the plane is traversed
  "diagonally", visiting cell ``(i, j)`` in order of increasing
  ``i + j``.

Both traversals emit pairs in a global order *consistent with the
partial orders* of the two inputs: if pair ``(i, j)`` componentwise
dominates ``(i', j')`` (``i <= i'``, ``j <= j'``, at least one strict),
it is emitted first.  This is the property tested by the hypothesis
suite.

There is one join: a :class:`~repro.execution.slots.CompiledJoin`
(merge plan + predicates, compiled against the one layout of each side)
run in one of the two orders.  Only cells whose two rows agree on the
shared-variable key can join, and both forms find them through one
:class:`KeyIndex`, so the engine pays per *matching* pair instead of
per cell: :func:`join_rows` materializes the join — it indexes both
sides and visits the matching cells in the full scan's emission order
— and :class:`JoinStream` walks it lazily, indexing a row when the walk
first needs it.  Both hand their cells to one loop, the kernel generated
for the join's shape (:meth:`~repro.execution.slots.SlotJoinPlan.kernel`),
and both take the join its program compiled, over rows the program's
steps laid out as it was compiled for, and check no layout.
The full-plane dict-row scan they are tested against is
``execute_join`` in :mod:`repro.testing.reference`.

:class:`JoinStream` is the streaming early-exit pipeline on top of the
same plane: it walks it lazily — either order visits the matching cells
in rank order, ties broken by arrival — and suspends as soon as a
certificate proves that no unvisited cell can still enter the requested
top-k, making the cost of a top-k answer proportional to ``k`` rather
than to ``n × m``.  Its output is bit-identical (rows,
ranks, and order) to ``compose_ranking`` over the reference scan.
"""

from __future__ import annotations

import heapq
import math
from operator import itemgetter
from typing import Sequence

from repro.execution.lazy import MaterializedCursor, RowCursor
from repro.execution.results import Record, Row, SlotLayout, emit
from repro.execution.slots import CompiledJoin, SlotJoinPlan
from repro.services.registry import JoinMethod

#: A cell's arrival packs two row indexes into one int, the first one
#: shifted this far (no side holds ``2 ** 32`` rows).
SHIFT = 32


def _one_key(values: tuple) -> tuple:
    """The key of every row once a join's rows share one bucket."""
    return ()


def _bounds(
    nested: bool, n: int, m: int, left_floor: float, right_floor: float,
    left_least: float, right_least: float,
) -> tuple[tuple, tuple]:
    """Lower ``(rank, arrival)`` bounds on the cells over left rows from
    *n* on and on those over right rows from *m* on.

    A side's *floor* bounds the rank of its rows past the indexed ones
    (its cursor's ``suffix_min``; ``+inf`` once it is fetched and
    indexed), its *least* is the least rank of its indexed rows, and
    the lesser of the two bounds every row of it.  A cell ``(i, j)``
    arrives at ``(i + j, i)`` in a merge scan, so at or after ``(n,
    n)`` when ``i >= n`` and ``(m, 0)`` when ``j >= m``; at ``(i, j)``
    in a *nested* loop, so at or after ``(n, 0)`` and ``(0, m)``."""
    left_all = left_floor if left_floor < left_least else left_least
    right_all = right_floor if right_floor < right_least else right_least
    if nested:
        return (left_floor + right_all, n << SHIFT), (left_all + right_floor, m)
    return (
        (left_floor + right_all, n << SHIFT | n),
        (left_all + right_floor, m << SHIFT),
    )


class KeyIndex:
    """The rows of a join's two sides, by the values of the slots their
    layouts share (side 0 is the left one), and the matching cells they
    form.

    Two rows can merge only when their keys are equal, so a join that
    indexes its rows here pays per *matching* pair instead of per cell
    of the plane: :meth:`add` files each new row under its key and
    returns the cells it forms with the rows of the other side already
    filed under the same one.  Every matching pair is thereby reported
    exactly once — when the later of its two rows is added.  Row
    *indexes* are kept, never rows.  This is the one place a join's key
    buckets are built: :func:`matching_cells` adds both sides at once,
    :class:`JoinStream` a row at a time.

    A cell is ``(rank, arrival, i, j)``: the composed rank of rows
    ``i`` and ``j`` (the sum of their records' rank sums), the cell's
    **arrival** — its coordinate in the full scan's emission order,
    merge-scan ``(i + j, i)``, nested loop ``(i, j)``, packed in one int
    (:data:`SHIFT`) — and the two indexes; the join's kernel takes cells
    as they are.  Appending rows never moves a coordinate, so ``(rank,
    arrival)`` is the documented ``(rank, emission order)`` tie order of
    :func:`~repro.testing.reference.compose_ranking` over any plane the
    rows grow into.  A streamed walk keeps the cells it cannot visit
    yet in a heap (:meth:`add` with ``file``) and takes them in that order
    (:meth:`take`).

    A key value that is unhashable (a service may return lists) puts
    every row, from the one that has it on, in one bucket: each later
    row pairs with every row of the other side, and the kernel refuses
    the cells that do not merge.  Pairs of earlier rows under different
    keys were never reported, and never merge.
    """

    __slots__ = ("_sides", "added", "least_ranks", "_nested", "filed")

    def __init__(self, plan: SlotJoinPlan, method: JoinMethod) -> None:
        lefts, rights = {}, {}
        #: Per side: its key reader, its buckets — key → the ascending
        #: indexes of the rows added so far, the bare index while there
        #: is one (a key is often unique, and a suspended stream holds
        #: its buckets: a list per row is what the collector would
        #: walk) — and the other side's.
        self._sides = (
            (plan.left_key, lefts, rights), (plan.right_key, rights, lefts)
        )
        #: Per side, how many rows were added.  This and the two lists
        #: below are the index's own, updated in place, which a walk
        #: reads as they change and never writes.
        self.added = [0, 0]
        #: Per side, the least rank of a row added so far (``+inf``
        #: while there is none).
        self.least_ranks = [math.inf, math.inf]
        self._nested = method is JoinMethod.NESTED_LOOP
        #: The cells filed and not taken yet, as a heap: the first is
        #: the one of least ``(rank, arrival)``.
        self.filed: list[tuple] = []

    def add(
        self,
        side: int,
        rows: Sequence[Record],
        other: Sequence[Record],
        stop: int,
        file: bool = False,
    ) -> list[tuple]:
        """Add the rows of *side* not added yet, up to index *stop*
        (exclusive; at most ``len(rows)``), and return the cells each
        forms with the rows of the *other* side already added under its
        key, row by row, each row's in ascending index order — or, with
        *file*, keep them in the heap and return none."""
        start = self.added[side]
        if stop > len(rows):
            stop = len(rows)
        cells: list[tuple] = []
        if start >= stop:
            return cells
        self.added[side] = stop
        key_of, own, other_buckets = self._sides[side]
        nested = self._nested
        least = self.least_ranks[side]
        for index in range(start, stop):
            values, rank = rows[index][0], rows[index][1]
            if rank < least:
                least = self.least_ranks[side] = rank
            try:
                key = key_of(values)
                bucket = own.setdefault(key, index)
            except TypeError:  # unhashable binding value: one bucket
                self._pool(side, index)
                key_of, own, other_buckets = self._sides[side]
                key = ()
                bucket = own.setdefault(key, index)
            if bucket is not index:  # not the first row under this key
                if type(bucket) is list:
                    bucket.append(index)
                else:
                    own[key] = [bucket, index]
            partners = other_buckets.get(key)
            if partners is None:
                continue
            if type(partners) is not list:
                partners = (partners,)
            if side:  # index is a right row j, the partners left rows i
                cells += [
                    (other[i][1] + rank,
                     i << SHIFT | index if nested else (i + index) << SHIFT | i,
                     i, index)
                    for i in partners
                ]
            else:
                cells += [
                    (rank + other[j][1],
                     index << SHIFT | j if nested else (index + j) << SHIFT | index,
                     index, j)
                    for j in partners
                ]
        if file and cells:
            filed = self.filed
            for cell in cells:
                heapq.heappush(filed, cell)
            return []
        return cells

    def _pool(self, side: int, index: int) -> None:
        """Put every row added so far in one bucket, and every later one
        (*index* is the first row of *side* not added yet)."""
        counts = list(self.added)
        counts[side] = index
        lefts, rights = (
            {(): list(range(count))} if count else {} for count in counts
        )
        self._sides = ((_one_key, lefts, rights), (_one_key, rights, lefts))

    def take(self, limit: tuple, most: int | None = None) -> list[tuple]:
        """The filed cells that precede *limit*, a ``(rank, arrival)``
        key no filed cell has, in ``(rank, arrival)`` order: the first
        *most* of them, or all."""
        filed = self.filed
        cells = []
        while filed and filed[0] < limit and len(cells) != most:
            cells.append(heapq.heappop(filed))
        return cells

    def drain(self, left: Sequence[Record], right: Sequence[Record]) -> list[tuple]:
        """Every cell of the ``left × right`` plane not taken yet — the
        filed ones and those of the rows not added yet — in emission
        order."""
        cells = self.filed[:]
        self.filed.clear()
        cells += self.add(0, left, right, len(left))
        cells += self.add(1, right, left, len(right))
        cells.sort(key=itemgetter(1))
        return cells


def matching_cells(
    join: CompiledJoin, left: Sequence[Record], right: Sequence[Record]
) -> list[tuple]:
    """The cells of the whole ``left × right`` plane whose two rows
    share their key, in the join's emission order (:class:`KeyIndex`)."""
    return KeyIndex(join.merge, join.method).drain(left, right)


def join_rows(
    join: CompiledJoin, left: Sequence[Record], right: Sequence[Record]
) -> list[Record]:
    """The join of records laid out as *join* was compiled for,
    materialized.

    Instead of scanning the whole ``n × m`` candidate plane, both sides
    are bucketed once by the values of the slots their layouts share;
    only cells whose key values agree on both axes can survive the
    natural-join merge, so all other cells are skipped without being
    visited (with no shared variable every cell lands in the one empty
    key's bucket — the full plane, as it must be).  The surviving cells
    are then traversed in the strategy's global rank order (NL:
    lexicographic ``(i, j)``; MS: diagonal ``(i + j, i)``) — the exact
    relative order the full-plane scan visits them in
    (``repro.testing.reference.join_order``) — which
    preserves the documented domination property across buckets, not
    just inside each one, through the join's cell kernel
    (:meth:`~repro.execution.slots.SlotJoinPlan.kernel`, the loop
    :class:`JoinStream` runs too).  Output order is therefore consistent
    with both input orders, and every join record is laid out as
    ``merged``.  A key value that is unhashable (a service may return
    lists) visits the whole plane from its row on.
    """
    _, plan, predicates, _ = join
    candidates: list[tuple] = []
    plan.kernel(predicates)(matching_cells(join, left, right), left, right, candidates)
    record = plan.record
    return [
        record(left_record, right_record, rank)
        for rank, _, left_record, right_record in candidates
    ]


class TopKStream:
    """The resumable top-k certificate loop of a streamed walk.

    A walk keeps every surviving row as a candidate ``(composed rank,
    arrival, ...)``, where arrivals are distinct and ordered as the full
    scan emits the rows, making tuple comparison the documented
    ``(rank, arrival)`` tie order of
    :func:`~repro.testing.reference.compose_ranking`.  :meth:`top`
    advances it until a lower bound on the ``(rank, arrival)`` key of
    everything *unvisited* reaches the k-th best candidate's: keys are
    distinct, so nothing unvisited can enter the top-k.  The walk then
    suspends; a later, larger ``k`` resumes it where it stopped.

    Subclasses say what a step of the walk is (:meth:`_advance_stage`),
    bound the unvisited rest through their input cursors'
    ``suffix_min`` (:meth:`_refuted`), tell when nothing is left
    (:attr:`exhausted`) and give an emitted candidate's record
    (:meth:`_record`): :class:`JoinStream` walks the candidate plane of
    a join, :class:`~repro.execution.engine.ChainStream` the records of
    a service-terminal plan.  Candidates hold records; the answer
    :class:`~repro.execution.results.Row` of a candidate is built when
    :meth:`top` first emits it (:func:`~repro.execution.results.emit`,
    over the stream's ``layout``) and kept by arrival, so a resumed
    stream hands back the rows it delivered before instead of building
    them again.  What a walk pulled is on the ledger its cursors' units
    charge; the stream itself keeps no books.
    """

    def _begin(self, layout: SlotLayout) -> None:
        self._candidates: list[tuple] = []
        self._layout = layout
        #: The rows emitted so far, by arrival.
        self._emitted: dict[int, Row] = {}

    # -- what a walk is (subclasses) ------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True when every cell of the fully fetched plane was visited."""
        raise NotImplementedError

    def _advance_stage(self, threshold: tuple | None, missing: int) -> None:
        """Take the next step of the walk, appending the candidates it
        visits: *threshold* is the key of the k-th best candidate, and
        a step need visit nothing past it; while fewer are known it is
        None, and *missing* candidates are lacking (0 in a drain)."""
        raise NotImplementedError

    def _refuted(self, threshold: tuple) -> bool:
        """True when something unvisited may still precede
        *threshold*, a ``(rank, arrival)`` key: some lower bound on a
        part of the unvisited rest is smaller.  Asked while something
        is left to visit."""
        raise NotImplementedError

    def _record(self, candidate: tuple) -> Record:
        """The record of a candidate."""
        raise NotImplementedError

    def _drain(self) -> None:
        """Visit everything left."""
        while not self.exhausted:
            self._advance_stage(None, 0)

    def _row(self, candidate: tuple) -> Row:
        """The answer row of *candidate*."""
        arrival = candidate[1]
        row = self._emitted.get(arrival)
        if row is None:
            row = self._emitted[arrival] = emit(self._record(candidate), self._layout)
        return row

    def is_complete(self, rows: Sequence[Row]) -> bool:
        """True when *rows* (a :meth:`top` result) is *every* answer the
        current plane can produce: the walk exhausted and the top-k
        truncation dropped nothing.  This is the single definition of
        the ``ResultTable.complete`` flag for streamed executions."""
        return self.exhausted and len(rows) == len(self._candidates)

    # -- the certificate loop -------------------------------------------------

    def top(self, k: int | None = None) -> list[Row]:
        """The top-*k* composed rows; resumes the suspended walk.

        **Contract**: the returned rows, their ranks, and their order
        are bit-identical to ``compose_ranking(all_rows, k)`` where
        ``all_rows`` is what the full scan over the *fully fetched*
        inputs emits (for a join: the residual-filtered full-plane
        join) — regardless of how much was actually visited or fetched.
        ``None`` drains everything and returns every row in composed
        order.

        **Cost**: a join walk visits the matching cells in rank order,
        so it runs through its kernel only the cells that rank at or
        before the k-th answer and the ones a tie at the bound lets
        through — ``O(k)`` cells on any ranks; a chain walk visits
        ``O(k)`` rows on rank-monotone inputs.  Over lazy cursors a
        walk pulls only the pages its bounds demand — so a small ``k``
        costs a handful of remote fetches.  The
        certificate check keeps an incremental bounded max-heap of the
        current k best ``(rank, arrival)`` keys (rebuilt once per call,
        O(log k) per new candidate), so a late-firing exit costs one
        heap update per candidate rather than a rescan of the whole
        candidate list after every step.
        """
        candidates = self._candidates
        if k is None:
            self._drain()
            return [self._row(candidate) for candidate in sorted(candidates)]
        if k == 0:
            return []
        # Max-heap (negated keys) of the k smallest (rank, arrival).
        worst_first = [
            (-candidate[0], -candidate[1], candidate)
            for candidate in heapq.nsmallest(k, candidates)
        ]
        heapq.heapify(worst_first)
        while not self.exhausted:
            threshold, missing = None, k - len(worst_first)
            if not missing:
                threshold = (-worst_first[0][0], -worst_first[0][1])
                if not self._refuted(threshold):
                    break
            seen = len(candidates)
            self._advance_stage(threshold, missing)
            for candidate in candidates[seen:]:
                key = (-candidate[0], -candidate[1], candidate)
                if len(worst_first) < k:
                    heapq.heappush(worst_first, key)
                elif key > worst_first[0]:
                    heapq.heappushpop(worst_first, key)
        return [self._row(candidate) for *_, candidate in sorted(worst_first, reverse=True)]


class JoinStream(TopKStream):
    """Streaming early-exit top-k execution of a rank-preserving join.

    The stream walks the strategy's candidate plane lazily, keeping
    every surviving cell as a candidate ``(composed rank, arrival, left
    record, right record)`` (:class:`KeyIndex` gives both).  Only
    *matching* cells are visited: rows enter the key index as the walk
    first needs them, and a cell whose rows differ in their key is
    never looked at.

    Both orders visit the matching cells in ``(rank, arrival)`` order,
    the order they emit them in.  Cells of two indexed rows are filed
    in the index's heap, so the smallest one is known exactly; every
    other unvisited cell holds a row not indexed yet, and one lower
    bound per side covers them: cells over left rows ``i >= n`` (``n``
    left rows indexed) rank at least ``left.suffix_min(n) +
    right.suffix_min(0)``, cells over right rows ``j >= m`` at least
    ``left.suffix_min(0) + right.suffix_min(m)``, each arriving no
    earlier than its region's first coordinate (:func:`_bounds`).  A
    step visits the filed cells that precede both bounds and the k-th
    candidate, or, when none does, indexes more rows of the side whose
    bound is lowest (demanding the next one from its cursor, and taking
    the rows it placed up to twice the indexed count).  The two
    orders differ only in their arrival coordinates — merge scan ``(i
    + j, i)``, nested loop ``(i, j)`` — and in that a nested-loop step
    first fetches its whole inner (right) side, the one the strategy
    retrieves before it scans.

    After each step the :class:`TopKStream` loop compares the k-th best
    candidate's ``(rank, arrival)`` with the **certificate**, the least
    of those bounds (a cell ``(i, j)`` merges ``left[i]`` and
    ``right[j]``, so its composed rank is exactly the sum of their
    records' rank sums).

    **Lazy inputs.**  Either input may be a
    :class:`~repro.execution.lazy.RowCursor` instead of a materialized
    sequence; plain sequences are wrapped in a
    :class:`~repro.execution.lazy.MaterializedCursor`.  The walk then
    *pulls* records on demand — a demand the next row of the side it
    indexes, which may pull pages, and the rows already placed up to
    twice the indexed count, which pull none (a nested-loop step the
    full inner side first) — and reads back only that side's bound.
    The bounds cover never-fetched rows through the
    cursors' :meth:`~repro.execution.lazy.RowCursor.suffix_min`: a
    single-feed service input is bounded by its rank floor, a
    multi-feed input (:class:`~repro.execution.lazy.MultiFeedCursor`)
    by the min over its per-feed blocks' floors and buffered ranks;
    cursors that observe a rank regression fall back to a full fetch of
    the offending block.  Early exit therefore saves *remote page
    fetches*, not just join work, while the emitted rows stay exactly
    the oracle's.

    Hence :meth:`top` is bit-identical — same rows, same ranks, same
    order — to filtering the reference full-plane join of the
    fully-fetched inputs (``repro.testing.reference.execute_join``) by
    the join's ``residual`` predicates and then applying
    ``compose_ranking(..., k)``
    (filter first, then compose: the same order the engine's output
    node applies them in), while visiting only a part of the plane.
    Resuming re-uses every candidate already collected — no cell is
    ever visited twice (over lazy inputs it may pull further budgeted
    pages).
    """

    def __init__(
        self,
        join: CompiledJoin,
        left: Sequence[Record] | RowCursor,
        right: Sequence[Record] | RowCursor,
    ) -> None:
        """A stream over input records laid out as *join* was compiled
        for: nothing is compiled, and no layout checked, per stream."""
        self._join = join
        self._nested = join.method is JoinMethod.NESTED_LOOP
        #: The cell loop, over the join's predicates as this stream runs it.
        self._kernel = join.merge.kernel(join.predicates + join.residual)
        self._left = left if isinstance(left, RowCursor) else MaterializedCursor(left)
        self._right = (
            right if isinstance(right, RowCursor) else MaterializedCursor(right)
        )
        #: The join record of a candidate is built when it is emitted
        #: (:meth:`_record`): a suspended stream keeps every candidate
        #: for its session's lifetime but emits k.
        self._begin(join.merge.merged)
        #: The rows the walk indexed so far, by key, and the matching
        #: cells they form that it has not visited yet.
        self._index = KeyIndex(join.merge, join.method)

    # -- state ---------------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True when every cell of the (fully fetched) plane was visited."""
        left, right = self._left, self._right
        if left.exhausted and not left.rows:
            return True
        if right.exhausted and not right.rows:
            return True
        if not (left.exhausted and right.exhausted):
            return False
        index = self._index
        return not index.filed and index.added == [len(left.rows), len(right.rows)]

    # -- the walk ------------------------------------------------------------

    def _advance_stage(self, threshold: tuple | None, missing: int) -> None:
        """Take one step: visit the cells that come next.

        Visit the filed cells that precede both sides' bounds
        (:func:`_bounds`) and *threshold* (at most the *missing* ones
        while there is no threshold); while there are none, index more
        rows of the side whose bound is lowest — the only way to raise
        it — until some precede, or nothing unvisited can (the walk is
        then certified or exhausted).  A demand asks the side's cursor
        for row ``n`` (``n`` rows indexed) and indexes the rows it
        placed up to twice ``n``, filing the cells they form: taking
        placed rows pulls no page, and doubling keeps the bound reads
        per indexed row few while indexing at most twice the rows a
        step needed.  A nested-loop step first fetches the whole inner
        side.  The cells of a step come from the key index alone and go
        through the join's kernel in ``(rank, arrival)`` order.

        The loop holds what it reads in locals: the index's counts,
        least ranks and filed heap change in place, and a side's floor
        changes only through its own demands (a lazy input has no other
        consumer), so each demand reads one bound, its own side's.
        """
        left, right = self._left, self._right
        nested, index = self._nested, self._index
        if nested:
            right.ensure_all()
        added, least_ranks, filed = index.added, index.least_ranks, index.filed
        left_rows, right_rows = left.rows, right.rows
        inf = math.inf
        n, m = added
        left_floor, right_floor = left.suffix_min(n), right.suffix_min(m)
        while True:
            left_bound, right_bound = _bounds(
                nested, n, m, left_floor, right_floor, *least_ranks
            )
            limit = left_bound if left_bound < right_bound else right_bound
            if threshold is not None and threshold <= limit:
                limit = threshold
            if filed and filed[0] < limit:
                cells = index.take(limit, missing or None)
                break
            if limit is threshold or limit[0] == inf:
                return  # certified, or nothing is left to index
            if left_bound <= right_bound:
                left.ensure(n + 1)
                index.add(0, left_rows, right_rows, 2 * n or 1, file=True)
                n = added[0]
                left_floor = left.suffix_min(n)
            else:
                right.ensure(m + 1)
                index.add(1, right_rows, left_rows, 2 * m or 1, file=True)
                m = added[1]
                right_floor = right.suffix_min(m)
        self._kernel(cells, left_rows, right_rows, self._candidates)

    def _drain(self) -> None:
        """Fetch both inputs and visit every matching cell left in one
        kernel call, in emission order."""
        left, right = self._left, self._right
        left.ensure_all()
        right.ensure_all()
        cells = self._index.drain(left.rows, right.rows)
        if cells:
            self._kernel(cells, left.rows, right.rows, self._candidates)

    def _record(self, candidate: tuple) -> Record:
        """The join record of a candidate, built when it is emitted."""
        rank_sum, _, left_record, right_record = candidate
        return self._join.merge.record(left_record, right_record, rank_sum)

    def _refuted(self, threshold: tuple) -> bool:
        """True when an unvisited cell may still precede *threshold*:
        the least filed cell, or one of the two sides' bounds
        (:func:`_bounds`).  Reading a bound pulls nothing (a cursor
        whose ranks regressed has drained by the time it is asked).
        """
        left, right = self._left, self._right
        index = self._index
        filed = index.filed
        if filed and filed[0] < threshold:
            return True
        n, m = index.added
        left_bound, right_bound = _bounds(
            self._nested, n, m, left.suffix_min(n), right.suffix_min(m),
            *index.least_ranks,
        )
        return left_bound < threshold or right_bound < threshold

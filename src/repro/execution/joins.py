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
run in one of the two visit orders.  Only cells whose two rows agree on
the shared-variable key can join, and both forms find them through one
:class:`KeyIndex`, so the engine pays per *matching* pair instead of
per cell: :func:`join_rows` materializes the join — it indexes both
sides and visits the matching cells in the global rank order — and
:class:`JoinStream` walks it lazily, indexing a row when a stage first
can touch it.  Both hand their cells to one loop, the kernel generated
for the join's shape (:meth:`~repro.execution.slots.SlotJoinPlan.kernel`),
and both take the join its program compiled, over rows the program's
steps laid out as it was compiled for, and check no layout.
The full-plane dict-row scan they are tested against is
``execute_join`` in :mod:`repro.testing.reference`.

:class:`JoinStream` is the streaming early-exit pipeline on top of the
same visit orders: it walks the plane lazily, stage by stage, and
suspends as soon as a certificate proves that no unvisited cell can
still enter the requested top-k — making the cost of a top-k answer
proportional to ``k`` rather than to ``n × m``.  Its output is
bit-identical (rows, ranks, and order) to ``compose_ranking`` over the
reference scan.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Iterator, Sequence

from repro.execution.lazy import HeadTee, MaterializedCursor, RowCursor
from repro.execution.results import Record, Row, SlotLayout, emit
from repro.execution.slots import CompiledJoin, SlotJoinPlan
from repro.services.registry import JoinMethod


def stage_count(method: JoinMethod, n_left: int, n_right: int) -> int:
    """Number of stages of *method*'s visit order (NL rows, MS diagonals)."""
    if n_left == 0 or n_right == 0:
        return 0
    if method is JoinMethod.NESTED_LOOP:
        return n_left
    return n_left + n_right - 1


def stage_cells(
    method: JoinMethod, n_left: int, n_right: int, stage: int
) -> Iterator[tuple[int, int]]:
    """Cells of one stage of *method*'s visit order, in emission order.

    A stage is a row of the NL plane or a diagonal (constant ``i + j``)
    of the MS plane.  This is the single source of truth for the cell
    order: the full-plane generators below and the streamed
    :class:`JoinStream` (one call per stage, over the lengths fetched
    so far) both walk stages through it, which is what keeps their
    emission orders identical by construction.
    """
    if method is JoinMethod.NESTED_LOOP:
        return ((stage, j) for j in range(n_right))
    start = max(0, stage - n_right + 1)
    stop = min(stage, n_left - 1)
    return ((i, stage - i) for i in range(start, stop + 1))


def nested_loop_order(n_left: int, n_right: int) -> Iterator[tuple[int, int]]:
    """Cell visit order of the NL strategy (outer = left/selective side)."""
    for stage in range(stage_count(JoinMethod.NESTED_LOOP, n_left, n_right)):
        yield from stage_cells(JoinMethod.NESTED_LOOP, n_left, n_right, stage)


def merge_scan_order(n_left: int, n_right: int) -> Iterator[tuple[int, int]]:
    """Cell visit order of the MS strategy: diagonals of equal i + j."""
    for stage in range(stage_count(JoinMethod.MERGE_SCAN, n_left, n_right)):
        yield from stage_cells(JoinMethod.MERGE_SCAN, n_left, n_right, stage)


def join_order(
    method: JoinMethod, n_left: int, n_right: int
) -> Iterator[tuple[int, int]]:
    """Cell visit order for *method*."""
    if n_left == 0 or n_right == 0:
        return iter(())
    if method is JoinMethod.NESTED_LOOP:
        return nested_loop_order(n_left, n_right)
    return merge_scan_order(n_left, n_right)


class KeyIndex:
    """The rows of a join's two sides, by the values of the slots their
    layouts share (side 0 is the left one).

    Two rows can merge only when their keys are equal, so a join that
    indexes its rows here pays per *matching* pair instead of per cell
    of the plane: :meth:`add` files each new row under its key and
    hands back the rows of the other side already filed under the same
    one.  Every matching pair is thereby reported exactly once — when
    the later of its two rows is added.  Row *indexes* are kept, never
    rows.  This is the one place a join's key buckets are built:
    :func:`join_rows` adds a whole side per call, :class:`JoinStream`
    a row per stage.
    """

    __slots__ = ("_sides", "_added")

    def __init__(self, plan: SlotJoinPlan) -> None:
        lefts, rights = {}, {}
        #: Per side: its key reader, its buckets — key → the ascending
        #: indexes of the rows added so far, the bare index while there
        #: is one (a key is often unique, and a suspended stream holds
        #: its buckets: a list per row is what the collector would
        #: walk) — and the other side's.
        self._sides = (
            (plan.left_key, lefts, rights), (plan.right_key, rights, lefts)
        )
        self._added = [0, 0]

    def add(
        self, side: int, rows: Sequence[Record], stop: int
    ) -> Sequence[tuple[int, Sequence[int]]]:
        """Add the rows of *side* not added yet, up to index *stop*
        (exclusive; at most ``len(rows)``), and return ``(index, the
        other side's indexes under the same key)`` for each that has
        any.  Raises ``TypeError`` on an unhashable key value."""
        start = self._added[side]
        if stop > len(rows):
            stop = len(rows)
        if start >= stop:
            return ()
        self._added[side] = stop
        key_of, own, other = self._sides[side]
        matches = []
        for index in range(start, stop):
            key = key_of(rows[index][0])
            bucket = own.setdefault(key, index)
            if bucket is not index:  # not the first row under this key
                if type(bucket) is list:
                    bucket.append(index)
                else:
                    own[key] = [bucket, index]
            partners = other.get(key)
            if partners is not None:
                if type(partners) is not list:
                    partners = (partners,)
                matches.append((index, partners))
        return matches


def matching_cells(
    join: CompiledJoin, left: Sequence[Record], right: Sequence[Record]
) -> list[tuple[int, int]]:
    """The cells of the whole ``left × right`` plane whose two rows
    share their key, in the join's emission order — every cell when a
    key value is unhashable and the sides cannot be bucketed."""
    method = join.method
    try:
        index = KeyIndex(join.merge)
        index.add(1, right, len(right))
        cells = [(i, j) for i, js in index.add(0, left, len(left)) for j in js]
    except TypeError:  # unhashable binding value: cannot bucket
        return list(join_order(method, len(left), len(right)))
    if method is not JoinMethod.NESTED_LOOP:
        cells.sort(key=lambda cell: (cell[0] + cell[1], cell[0]))
    return cells


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
    relative order :func:`join_order` would visit them in — which
    preserves the documented domination property across buckets, not
    just inside each one, through the join's cell kernel
    (:meth:`~repro.execution.slots.SlotJoinPlan.kernel`, the loop
    :class:`JoinStream` runs too).  Output order is therefore consistent
    with both input orders, and every join record is laid out as
    ``merged``.  A key value that is unhashable (a service may return
    lists) visits the whole plane instead.
    """
    _, plan, predicates, _ = join
    candidates: list[tuple] = []
    # The output keeps cell order and never ranks a candidate, so the
    # rows' positions stand in for the rank lists a stream passes.
    plan.kernel(predicates)(
        matching_cells(join, left, right), left, right,
        range(len(left)), range(len(right)), candidates,
    )
    record = plan.record
    return [
        record(left_record, right_record, left_record[1] + right_record[1])
        for _, _, left_record, right_record in candidates
    ]


class TopKStream:
    """The resumable top-k certificate loop of a streamed walk.

    A walk visits *stages* in the full scan's emission order, keeping
    every surviving row as a candidate ``(composed rank, arrival index,
    ...)`` — arrival indexes are the candidate's position in the
    full-scan emission order, making tuple comparison the documented
    ``(rank, arrival)`` tie order of
    :func:`~repro.testing.reference.compose_ranking`.  :meth:`top`
    advances it until a lower bound on the composed rank of everything
    *unvisited* reaches the k-th best candidate's: an unvisited row can
    at best tie, and ties are broken by emission order, which every
    unvisited row loses against every collected candidate.  The walk
    then suspends; a later, larger ``k`` resumes it where it stopped.

    Subclasses say what a stage is (:meth:`_advance_stage`), bound the
    unvisited rest through their input cursors' ``suffix_min``
    (:meth:`_refuted`), tell when nothing is left
    (:attr:`exhausted`) and give an emitted candidate's record
    (:meth:`_record`): :class:`JoinStream` walks the candidate plane of
    a join, :class:`~repro.execution.engine.ChainStream` the records of
    a service-terminal plan.  Candidates hold records; the answer
    :class:`~repro.execution.results.Row` of a candidate is built when
    :meth:`top` first emits it (:func:`~repro.execution.results.emit`,
    over the stream's ``layout``) and kept by arrival index, so a
    resumed stream hands back the rows it delivered before instead of
    building them again.  What a walk pulled is on the ledger its
    cursors' units charge; the stream itself keeps no books.
    """

    def _begin(self, layout: SlotLayout) -> None:
        self._stage = 0
        self._candidates: list[tuple] = []
        self._layout = layout
        #: The rows emitted so far, by arrival index.
        self._emitted: dict[int, Row] = {}

    # -- what a walk is (subclasses) ------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True when every cell of the fully fetched plane was visited."""
        raise NotImplementedError

    def _advance_stage(self) -> None:
        """Visit the next stage, appending its candidates."""
        raise NotImplementedError

    def _refuted(self, threshold: int) -> bool:
        """True when something unvisited may still rank below
        *threshold*: some lower bound on a part of the unvisited rest
        is smaller.  Asked while something is left to visit."""
        raise NotImplementedError

    def _record(self, candidate: tuple) -> Record:
        """The record of a candidate."""
        raise NotImplementedError

    def _drain(self) -> None:
        """Visit every stage left."""
        while not self.exhausted:
            self._advance_stage()

    def grow(self, tee: HeadTee | None) -> None:
        """Take in the rows a grown fetch budget appends to the inputs
        (``ExecutionProgram.grows_in_place``), after *tee* appended the
        teed head's new pages: the stream is then the walk of the grown
        plane suspended after the same stages.  Rows appended to a
        chain's cursor come after every placed one, so a chain walks on
        as it is."""
        if tee is not None:
            tee.grow()

    def _row(self, arrival: int) -> Row:
        """The answer row of the candidate that arrived *arrival*-th."""
        row = self._emitted.get(arrival)
        if row is None:
            row = self._emitted[arrival] = emit(
                self._record(self._candidates[arrival]), self._layout
            )
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

        **Cost**: visits ``O(k)`` stages on rank-monotone inputs
        instead of the whole plane, and over lazy cursors pulls only
        the pages those stages demand — so a small ``k`` costs a
        handful of remote fetches.  The certificate check keeps an
        incremental bounded max-heap of the current k best ``(rank,
        arrival)`` keys (rebuilt once per call, O(log k) per new
        candidate), so a late-firing exit costs one heap update per
        candidate rather than a rescan of the whole candidate list
        after every stage.
        """
        candidates = self._candidates
        if k is None:
            self._drain()
            return [self._row(candidate[1]) for candidate in sorted(candidates)]
        # Max-heap (negated keys) of the k smallest (rank, arrival).
        worst_first = [
            (-candidate[0], -candidate[1])
            for candidate in heapq.nsmallest(k, candidates)
        ]
        heapq.heapify(worst_first)
        while not self.exhausted and not self._certified(worst_first, k):
            seen = len(candidates)
            self._advance_stage()
            for candidate in candidates[seen:]:
                key = (-candidate[0], -candidate[1])
                if len(worst_first) < k:
                    heapq.heappush(worst_first, key)
                elif key > worst_first[0]:
                    heapq.heappushpop(worst_first, key)
        selected = sorted((-rank, -arrival) for rank, arrival in worst_first)
        return [self._row(arrival) for _, arrival in selected]

    def _certified(self, worst_first: list[tuple[int, int]], k: int) -> bool:
        """True when nothing unvisited can still enter the top-*k*.

        *worst_first* is the bounded max-heap of the current k best
        candidate keys; its root carries the k-th smallest rank.
        """
        if k == 0:
            return True
        if len(worst_first) < k:
            return False
        return not self._refuted(-worst_first[0][0])


class JoinStream(TopKStream):
    """Streaming early-exit top-k execution of a rank-preserving join.

    The stream walks the strategy's candidate plane lazily, one *stage*
    at a time — a row of the NL plane, a diagonal of the MS plane — in
    exactly the order :func:`join_order` would visit the cells, keeping
    every surviving cell as a candidate.  A stage costs its
    *matching* cells: rows are indexed by key as the stages reach them
    (:meth:`_matching_cells`), and a cell whose rows differ in their
    key is counted, not merged.  After each stage the
    :class:`TopKStream` loop compares the composed rank of the current
    k-th best candidate with the **certificate**: a lower bound on the
    composed rank of every cell not yet visited, derived from suffix
    minima of the two inputs' aggregated rank keys (a cell ``(i, j)``
    merges ``left[i]`` and ``right[j]``, so its composed rank is
    exactly the sum of their records' rank sums).

    **Lazy inputs.**  Either input may be a
    :class:`~repro.execution.lazy.RowCursor` instead of a materialized
    sequence; plain sequences are wrapped in a
    :class:`~repro.execution.lazy.MaterializedCursor`.  The walk then
    *pulls* records on demand — an MS diagonal ``s`` needs only the first
    ``s + 1`` rows of each side, an NL row stage needs one more outer
    row (plus the full inner side) — and the certificate bounds the
    cells over never-fetched rows through the cursors'
    :meth:`~repro.execution.lazy.RowCursor.suffix_min`: a single-feed
    service input is bounded by its rank floor, a multi-feed input
    (:class:`~repro.execution.lazy.MultiFeedCursor`) by the min over
    its per-feed blocks' floors and buffered ranks; cursors that
    observe a rank regression fall back to a full fetch of the
    offending block.  Early exit therefore saves *remote page
    fetches*, not just join work, while the emitted rows stay exactly
    the oracle's.

    Hence :meth:`top` is bit-identical — same rows, same ranks, same
    order — to filtering the reference full-plane join of the
    fully-fetched inputs (``repro.testing.reference.execute_join``) by
    the join's ``residual`` predicates and then applying
    ``compose_ranking(..., k)``
    (filter first, then compose: the same order the engine's output
    node applies them in), while visiting only a prefix of the plane.
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
        self._method = join.method
        #: The cell loop, over the join's predicates as this stream runs it.
        self._kernel = join.merge.kernel(join.predicates + join.residual)
        self._left = left if isinstance(left, RowCursor) else MaterializedCursor(left)
        self._right = (
            right if isinstance(right, RowCursor) else MaterializedCursor(right)
        )
        #: Candidates are (composed rank, arrival index, left record,
        #: right record) — arrivals are distinct, so the records are
        #: never compared.  The join record is built when a candidate is
        #: emitted (:meth:`_record`): a suspended stream keeps every
        #: candidate for its session's lifetime but emits k.
        self._begin(join.merge.merged)
        #: The rows a stage could touch so far, by key (``None`` once a
        #: key turned out unhashable: every later stage scans its
        #: cells), and — merge-scan — the matching cells found for
        #: diagonals not visited yet, as diagonal → left indexes.
        self._index = KeyIndex(join.merge)
        self._filed: defaultdict[int, list[int]] = defaultdict(list)
        #: The left row whose term refuted the last certificate check.
        self._refuter = 0

    # -- state ---------------------------------------------------------------

    @property
    def method(self) -> JoinMethod:
        """The join strategy whose visit order is being streamed."""
        return self._method

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
        return self._stage >= stage_count(
            self._method, len(left.rows), len(right.rows)
        )

    # -- the walk ------------------------------------------------------------

    def _advance_stage(self) -> None:
        """Visit the next stage, collecting candidates.

        Demands exactly the rows the stage can touch: one more outer
        row for NL (plus the whole inner side, which every NL stage
        scans), one more row *per side* for an MS diagonal.  After the
        demand, the known lengths determine the stage's exact cell set:
        an unexhausted cursor holds at least ``stage + 1`` rows, so the
        boundary formulas of :func:`stage_cells` apply unchanged (a
        stage past the last one — the demand found a side exhausted —
        has no cells).  Of those cells only the ones whose rows share
        their key (:meth:`_matching_cells`) go through the join's
        kernel; the others cost nothing.
        """
        stage = self._stage
        method = self._method
        left, right = self._left, self._right
        left.ensure(stage + 1)
        if method is JoinMethod.NESTED_LOOP:
            right.ensure_all()
        else:
            right.ensure(stage + 1)
        left_rows, right_rows = left.rows, right.rows
        n, m = len(left_rows), len(right_rows)
        if stage < stage_count(method, n, m):
            cells = self._matching_cells(stage, left_rows, right_rows)
            if cells:
                self._kernel(
                    cells, left_rows, right_rows, left.ranks, right.ranks,
                    self._candidates,
                )
        self._stage += 1

    def _drain(self) -> None:
        """Visit every stage left; a walk not begun over two fully
        fetched inputs visits the whole plane's matching cells in one
        kernel call — the cells, in the order, the stages would visit."""
        left, right = self._left, self._right
        if self._stage or not (left.exhausted and right.exhausted):
            return super()._drain()
        cells = matching_cells(self._join, left.rows, right.rows)
        self._kernel(
            cells, left.rows, right.rows, left.ranks, right.ranks, self._candidates
        )
        self._stage = stage_count(self._method, len(left.rows), len(right.rows))

    def grow(self, tee: HeadTee | None) -> None:
        """Take in the cells appended rows form on visited stages.

        Growth only appends: new rows come after every old one on both
        inputs, so no old cell moves and the unvisited stages are still
        visited in emission order.  But an appended row on one side
        pairs with old rows of the other on stages already walked:
        those *late cells* are demanded and indexed now (every row the
        visited stages reach), run through the join's kernel, and the
        arrival indexes re-based once to the grown plane's emission
        order (:meth:`_rebase`).  The certificate needs nothing: it
        bounds stages from the current one on, over the grown cursors.
        """
        left, right = self._left, self._right
        known = len(left.rows), len(right.rows)
        super().grow(tee)
        stage = self._stage
        if not stage:
            return
        left.ensure(stage)
        if self._method is JoinMethod.NESTED_LOOP:
            right.ensure_all()
        else:
            right.ensure(stage)
        candidates = self._candidates
        seen = len(candidates)
        self._kernel(
            self._late_cells(stage, *known),
            left.rows, right.rows, left.ranks, right.ranks, candidates,
        )
        if len(candidates) > seen:
            self._rebase()

    def _late_cells(
        self, stage: int, n_known: int, m_known: int
    ) -> list[tuple[int, int]]:
        """The cells of stages before *stage* that hold a row past the
        *n_known* left and *m_known* right rows known before growth:
        the matching ones, through the key index, which then holds
        every row the visited stages reach (a merge-scan pair on a later
        diagonal is filed for it) — or, once a key is unhashable, all of
        them, for the kernel to refuse the ones that do not merge."""
        left_rows, right_rows = self._left.rows, self._right.rows
        nested = self._method is JoinMethod.NESTED_LOOP
        m = len(right_rows)
        if self._index is not None:
            try:
                add = self._index.add
                pairs = [
                    (i, j)
                    for j, found in add(1, right_rows, m if nested else stage)
                    for i in found
                ]
                pairs += [
                    (i, j) for i, found in add(0, left_rows, stage) for j in found
                ]
            except TypeError:  # unhashable key value: cannot bucket
                self._index = None
                self._filed.clear()
            else:
                if nested:
                    return pairs
                for i, j in pairs:
                    if i + j >= stage:
                        self._filed[i + j].append(i)
                return [(i, j) for i, j in pairs if i + j < stage]
        return [
            (i, j)
            for i in range(min(stage, len(left_rows)))
            for j in range(
                m_known if i < n_known else 0, m if nested else min(m, stage - i)
            )
        ]

    def _rebase(self) -> None:
        """Number the candidates by the grown plane's emission order —
        merge-scan ``(i + j, i)``, nested loop ``(i, j)`` — carrying the
        rows already emitted to their new arrival indexes."""
        at_left, at_right = (
            {id(row): index for index, row in enumerate(side.rows)}
            for side in (self._left, self._right)
        )
        nested = self._method is JoinMethod.NESTED_LOOP

        def cell(candidate: tuple) -> tuple[int, int]:
            i, j = at_left[id(candidate[2])], at_right[id(candidate[3])]
            return (i, j) if nested else (i + j, i)

        order = sorted(self._candidates, key=cell)
        emitted = self._emitted
        self._emitted = {
            arrival: emitted[candidate[1]]
            for arrival, candidate in enumerate(order)
            if candidate[1] in emitted
        }
        self._candidates[:] = [
            (rank, arrival, left_row, right_row)
            for arrival, (rank, _, left_row, right_row) in enumerate(order)
        ]

    def _matching_cells(
        self, stage: int, left_rows: list[Record], right_rows: list[Record]
    ) -> Sequence[tuple[int, int]]:
        """The cells of *stage* whose two rows share their key, in the
        emission order of :func:`stage_cells`.

        Rows enter the key index when a stage first can touch them —
        an MS diagonal ``s`` indexes row ``s`` of each side, the first
        NL stage the whole inner side — and a matching pair is found
        exactly once, when the later of its two rows is indexed.  An MS
        pair ``(i, j)`` is then filed under its diagonal ``i + j``,
        which is never one already passed (the later row's index is at
        least the current stage), and a diagonal's cells leave the index
        when it is visited.  A cell absent from the index has two
        different keys, so ``merge`` would have refused it: skipping it
        changes no candidate or arrival index.

        An unhashable key value ends the indexing for good: this stage
        and every later one scan all their cells, as the stream did
        before it had an index.
        """
        index = self._index
        if index is not None:
            try:
                if self._method is JoinMethod.NESTED_LOOP:
                    index.add(1, right_rows, len(right_rows))
                    return [
                        (i, j)
                        for i, matches in index.add(0, left_rows, stage + 1)
                        for j in matches
                    ]
                filed = self._filed
                for i, matches in index.add(0, left_rows, stage + 1):
                    for j in matches:
                        filed[i + j].append(i)
                for j, matches in index.add(1, right_rows, stage + 1):
                    for i in matches:
                        filed[i + j].append(i)
                found = filed.pop(stage, None)
                if not found:
                    return ()
                found.sort()
                return [(i, stage - i) for i in found]
            except TypeError:  # unhashable key value: cannot bucket
                self._index = None
                self._filed.clear()
        return list(
            stage_cells(self._method, len(left_rows), len(right_rows), stage)
        )

    def _record(self, candidate: tuple) -> Record:
        """The join record of a candidate, built when it is emitted."""
        rank_sum, _, left_record, right_record = candidate
        return self._join.merge.record(left_record, right_record, rank_sum)

    def _refuted(self, threshold: int) -> bool:
        """True when an unvisited cell may still rank below *threshold*.

        The unvisited cells are covered by lower bounds, one **term**
        per part.  NL (row stages): all cells of rows ``>= stage`` are
        unvisited, one term ``min(left ranks from stage) + min(right
        ranks)``.  MS (diagonal stages): the unvisited region is
        ``i + j >= stage``; rows ``i >= stage`` may pair with any
        column (one term), rows ``i < stage`` only with columns
        ``j >= stage - i`` (one term each).  Cursor ``suffix_min``
        bounds never-fetched rows through their rank floor, so the
        terms stay sound for partially fetched lazy inputs: every
        fetched index below ``stage`` has its own term (the previous
        stage's demand guarantees the fetched prefix reaches
        ``min(stage, n)``), and everything beyond the fetched prefix is
        covered by a floor term.

        The walk goes on while *any* term is below the threshold — the
        same predicate as "the smallest term is" — so the check stops at
        the first such term and tries first the row that refuted the
        last check: a row's term only rises as the stages pass, and it
        usually refutes until the walk is nearly done.  Reading a bound
        pulls nothing (a cursor whose ranks regressed has drained by the
        time it is asked), so the order the terms are read in is free.
        """
        left, right = self._left, self._right
        stage = self._stage
        if self._method is JoinMethod.NESTED_LOOP:
            return left.suffix_min(stage) + right.suffix_min(0) < threshold
        n_known, m_known = len(left.rows), len(right.rows)
        start = max(0, stage - m_known + 1) if right.exhausted else 0
        stop = min(stage, n_known)
        left_ranks = left.ranks
        suffix_min = right.suffix_min
        last = self._refuter
        if (
            start <= last < stop
            and left_ranks[last] + suffix_min(stage - last) < threshold
        ):
            return True
        if (
            (not left.exhausted or stage < n_known)
            and left.suffix_min(stage) + suffix_min(0) < threshold
        ):
            return True
        for i in range(start, stop):
            if left_ranks[i] + suffix_min(stage - i) < threshold:
                self._refuter = i
                return True
        return False

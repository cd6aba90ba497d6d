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
can touch it.  Both take the join its program compiled, over rows the
program's steps laid out as it was compiled for, and check no layout.
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

from repro.execution.lazy import MaterializedCursor, RowCursor
from repro.execution.results import Row
from repro.execution.slots import CompiledJoin, SlotJoinPlan
from repro.execution.stats import ExecutionStats
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
        self, side: int, rows: Sequence[Row], stop: int
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
            key = key_of(rows[index].values)
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


def join_rows(
    join: CompiledJoin, left: Sequence[Row], right: Sequence[Row]
) -> list[Row]:
    """The join of rows laid out as *join* was compiled for, materialized.

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
    just inside each one.  Output order is therefore consistent with
    both input orders, and every emitted row shares the ``merged``
    layout.  A key value that is unhashable (a service may return
    lists) visits the whole plane instead.
    """
    method, plan, compiled, _ = join
    try:
        index = KeyIndex(plan)
        index.add(1, right, len(right))
        cells = [
            (i, j) for i, matches in index.add(0, left, len(left)) for j in matches
        ]
    except TypeError:  # unhashable binding value: cannot bucket
        cells = list(join_order(method, len(left), len(right)))
    else:
        if method is not JoinMethod.NESTED_LOOP:
            cells.sort(key=lambda cell: (cell[0] + cell[1], cell[0]))
    merge = plan.merge
    merged_layout = plan.merged
    output: list[Row] = []
    for i, j in cells:
        left_row, right_row = left[i], right[j]
        merged = merge(left_row.values, right_row.values)
        if merged is None:
            continue
        if compiled and not all(holds(merged) for holds in compiled):
            continue
        output.append(
            Row(
                layout=merged_layout,
                values=merged,
                ranks=left_row.ranks + right_row.ranks,
                provenance=left_row.provenance + right_row.provenance,
            )
        )
    return output


class TopKStream:
    """The resumable top-k certificate loop of a streamed walk.

    A walk visits *stages* in the full scan's emission order, keeping
    every surviving row as a candidate ``(composed rank, arrival index,
    ...)`` — arrival indexes are the candidate's position in the
    full-scan emission order, making tuple comparison the documented
    ``(rank, arrival)`` tie order of
    :func:`~repro.execution.results.compose_ranking`.  :meth:`top`
    advances it until a lower bound on the composed rank of everything
    *unvisited* reaches the k-th best candidate's: an unvisited row can
    at best tie, and ties are broken by emission order, which every
    unvisited row loses against every collected candidate.  The walk
    then suspends; a later, larger ``k`` resumes it where it stopped.

    Subclasses say what a stage is (:meth:`_advance_stage`), bound the
    unvisited rest through their input cursors' ``suffix_min``
    (:meth:`_refuted`), tell when nothing is left
    (:attr:`exhausted`) and build an emitted candidate's row
    (:meth:`_row`): :class:`JoinStream` walks the candidate plane of a
    join, :class:`~repro.execution.engine.ChainStream` the rows of a
    service-terminal plan.  The bookkeeping a round reports
    (:meth:`trace`) sums over ``_inputs``, the cursors the walk pulls.
    """

    _inputs: tuple[RowCursor, ...]

    def _begin(self) -> None:
        self._stage = 0
        self._candidates: list[tuple] = []
        self.cells_visited = 0

    # -- what a walk is (subclasses) ------------------------------------------

    @property
    def plane_cells(self) -> int:
        """Cells (rows, for a chain) the fetched inputs span right now."""
        raise NotImplementedError

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

    def _row(self, candidate: tuple) -> Row:
        """The answer row of an emitted candidate."""
        raise NotImplementedError

    # -- bookkeeping ----------------------------------------------------------

    @property
    def cells_skipped(self) -> int:
        """Fetched-plane cells proven unable to enter the top-k without
        being visited."""
        return self.plane_cells - self.cells_visited

    @property
    def candidate_count(self) -> int:
        """Candidates collected so far (past every predicate)."""
        return len(self._candidates)

    @property
    def lazy_tuples_fetched(self) -> int:
        """Raw service tuples pulled through lazy input cursors so far."""
        return sum(cursor.tuples_fetched for cursor in self._inputs)

    @property
    def lazy_pages_saved(self) -> int:
        """Budgeted page fetches still unissued right now.

        A point-in-time snapshot that shrinks as resumes pull further
        pages (and grows when a session grows the budget itself) —
        re-read it after each :meth:`top` call for the current figure.
        """
        return sum(cursor.pages_saved() for cursor in self._inputs)

    def trace(
        self, stats: ExecutionStats, fetched_before: int = 0,
        saved_before: int = 0,
    ) -> None:
        """Write the walk's bookkeeping onto one round's *stats*.

        The tuples and pages-saved counters are cumulative on the
        stream, and earlier rounds already reported their share: a
        resumed round passes the totals it started from and reports
        only the *change* its own pulls caused (a negative
        ``lazy_calls_saved`` when the grown demand fetched pages an
        earlier round had counted as saved), so the per-round values
        sum to the stream's true current totals.
        """
        stats.streamed_cells_visited = self.cells_visited
        stats.early_exit_cells_skipped = self.cells_skipped
        stats.lazy_tuples_fetched = self.lazy_tuples_fetched - fetched_before
        stats.lazy_calls_saved = self.lazy_pages_saved - saved_before
        stats.lazy_blocks = sum(c.block_count for c in self._inputs)
        stats.lazy_blocks_untouched = sum(
            c.blocks_untouched for c in self._inputs
        )

    def is_complete(self, rows: Sequence[Row]) -> bool:
        """True when *rows* (a :meth:`top` result) is *every* answer the
        current plane can produce: the walk exhausted and the top-k
        truncation dropped nothing.  This is the single definition of
        the ``ResultTable.complete`` flag for streamed executions."""
        return self.exhausted and len(rows) == self.candidate_count

    # -- the certificate loop -------------------------------------------------

    def top(self, k: int | None = None) -> list[Row]:
        """The top-*k* composed rows; resumes the suspended walk.

        **Contract**: the returned rows, their ranks, and their order
        are bit-identical to ``compose_ranking(all_rows, k)`` where
        ``all_rows`` is what the full scan over the *fully fetched*
        inputs emits (for a join: the residual-filtered full-plane
        join) — regardless of how much was actually visited or fetched.
        ``None`` (or a negative ``k``, mirroring
        :func:`~repro.execution.results.compose_ranking`) drains
        everything and returns every row in composed order.

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
        if k is not None and k < 0:
            k = None
        candidates = self._candidates
        if k is None:
            while not self.exhausted:
                self._advance_stage()
            return [self._row(candidate) for candidate in sorted(candidates)]
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
        return [self._row(candidates[arrival]) for _, arrival in selected]

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
    every surviving merged row as a candidate.  A stage costs its
    *matching* cells: rows are indexed by key as the stages reach them
    (:meth:`_matching_cells`), and a cell whose rows differ in their
    key is counted, not merged.  After each stage the
    :class:`TopKStream` loop compares the composed rank of the current
    k-th best candidate with the **certificate**: a lower bound on the
    composed rank of every cell not yet visited, derived from suffix
    minima of the two inputs' aggregated rank keys (a cell ``(i, j)``
    merges ``left[i]`` and ``right[j]``, so its composed rank is
    exactly ``left[i].rank_key() + right[j].rank_key()``).

    **Lazy inputs.**  Either input may be a
    :class:`~repro.execution.lazy.RowCursor` instead of a materialized
    sequence; plain sequences are wrapped in a
    :class:`~repro.execution.lazy.MaterializedCursor`.  The walk then
    *pulls* rows on demand — an MS diagonal ``s`` needs only the first
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
    pages).  ``cells_visited`` / ``cells_skipped`` expose the
    early-exit bookkeeping for the execution statistics.
    """

    def __init__(
        self,
        join: CompiledJoin,
        left: Sequence[Row] | RowCursor,
        right: Sequence[Row] | RowCursor,
    ) -> None:
        """A stream over inputs laid out as *join* was compiled for:
        nothing is compiled, and no layout checked, per stream."""
        self._join = join
        self._method = join.method
        self._left = left if isinstance(left, RowCursor) else MaterializedCursor(left)
        self._right = (
            right if isinstance(right, RowCursor) else MaterializedCursor(right)
        )
        self._inputs = (self._left, self._right)
        #: Candidates are (composed rank, arrival index, left row, right
        #: row) — arrivals are distinct, so the rows are never compared.
        #: The merged row is built when a candidate is emitted
        #: (:meth:`_row`): a suspended stream keeps every candidate for
        #: its session's lifetime but emits k.
        self._begin()
        #: Rows past the join predicates (before any residual filter),
        #: and cells a stage handed to ``merge`` (``cells_visited``
        #: counts every cell of the stages passed, mergeable or not).
        self.join_rows_emitted = 0
        self.merges_attempted = 0
        #: The rows a stage could touch so far, by key (``None`` once a
        #: key turned out unhashable: every later stage scans its
        #: cells), and — merge-scan — the matching cells found for
        #: diagonals not visited yet, as diagonal → left indexes.
        self._index = KeyIndex(join.merge)
        self._filed: defaultdict[int, list[int]] = defaultdict(list)
        #: The left row whose term refuted the last certificate check.
        self._refuter = 0

    # -- bookkeeping ---------------------------------------------------------

    @property
    def method(self) -> JoinMethod:
        """The join strategy whose visit order is being streamed."""
        return self._method

    @property
    def plane_cells(self) -> int:
        """Cells of the currently *fetched* candidate plane.

        For materialized inputs this is the full ``n × m`` plane; for
        lazy inputs it counts only fetched rows — cells over rows that
        were never pulled are accounted as saved remote work by the
        lazy-fetch statistics, not as skipped cells.
        """
        return len(self._left.rows) * len(self._right.rows)

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
        their key (:meth:`_matching_cells`) are merged; the others are
        counted as visited and cost nothing.
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
            self.cells_visited += (
                m if method is JoinMethod.NESTED_LOOP
                else min(stage, n - 1) - max(0, stage - m + 1) + 1
            )
            cells = self._matching_cells(stage, left_rows, right_rows)
            if cells:
                self.merges_attempted += len(cells)
                _, plan, predicates, residual = self._join
                merge = plan.merge
                left_ranks, right_ranks = left.ranks, right.ranks
                candidates = self._candidates
                for i, j in cells:
                    left_row, right_row = left_rows[i], right_rows[j]
                    merged = merge(left_row.values, right_row.values)
                    if merged is None:
                        continue
                    if predicates and not all(
                        holds(merged) for holds in predicates
                    ):
                        continue
                    self.join_rows_emitted += 1
                    if residual and not all(holds(merged) for holds in residual):
                        continue
                    candidates.append(
                        (left_ranks[i] + right_ranks[j], len(candidates),
                         left_row, right_row)
                    )
        self._stage += 1

    def _matching_cells(
        self, stage: int, left_rows: list[Row], right_rows: list[Row]
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
        changes no candidate, arrival index or counter.

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

    def _row(self, candidate: tuple) -> Row:
        """The merged row of a candidate, built when it is emitted."""
        _, _, left_row, right_row = candidate
        plan = self._join.merge
        return Row(
            layout=plan.merged,
            values=plan.merge(left_row.values, right_row.values),
            ranks=left_row.ranks + right_row.ranks,
            provenance=left_row.provenance + right_row.provenance,
        )

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

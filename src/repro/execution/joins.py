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

:func:`execute_join` scans the full plane with the dict-semantics
``Row.merged_with`` and is kept as the reference oracle (it shares no
code with the compiled merge plans of :mod:`repro.execution.slots`);
:func:`execute_join_hashed` partitions the plane by the shared-variable
key first (only same-key cells can join) and visits the surviving
cells in the same global rank order over the rows' value tuples, so
the engine pays per *matching* pair instead of per cell.

:class:`JoinStream` is the streaming early-exit pipeline on top of the
same visit orders: it walks the plane lazily, stage by stage, and
suspends as soon as a certificate proves that no unvisited cell can
still enter the requested top-k — making the cost of a top-k answer
proportional to ``k`` rather than to ``n × m``.  Its output is
bit-identical (rows, ranks, and order) to
``compose_ranking(execute_join(...), k)``.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Iterator, Sequence

from repro.execution.lazy import MaterializedCursor, RowCursor
from repro.execution.results import Row, SlotLayout
from repro.execution.slots import CompiledJoin, LayoutMemo, compile_join
from repro.execution.stats import ExecutionStats
from repro.model.predicates import Comparison
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
    :class:`JoinStream` both walk stages through it, which is what
    keeps their emission orders identical by construction.
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


def execute_join(
    method: JoinMethod,
    left: Sequence[Row],
    right: Sequence[Row],
    predicates: Sequence[Comparison] = (),
) -> list[Row]:
    """Join two row streams with a rank-preserving strategy.

    The join condition is the *natural join* on the variables shared
    by the two rows' bindings (which recombines branches forked from a
    common upstream tuple) plus the supplied comparison *predicates*
    evaluated on the merged binding.  Output order follows the
    strategy's traversal of the candidate plane, hence is consistent
    with both input orders.
    """
    output: list[Row] = []
    for i, j in join_order(method, len(left), len(right)):
        merged = left[i].merged_with(right[j])
        if merged is None:
            continue
        if all(p.holds(merged.bindings) for p in predicates):
            output.append(merged)
    return output


def _shares_layout(rows: Sequence[Row], layout: SlotLayout) -> bool:
    """True when every row of *rows* is laid out as *layout*."""
    return all(row.layout is layout or row.layout == layout for row in rows)


def execute_join_hashed(
    method: JoinMethod,
    left: Sequence[Row],
    right: Sequence[Row],
    predicates: Sequence[Comparison] = (),
) -> list[Row]:
    """Hash-accelerated :func:`execute_join` with identical results.

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
    just inside each one.  Merge and predicates run on the rows' value
    tuples through one :class:`~repro.execution.slots.CompiledJoin`
    (:func:`join_rows`, which the engine calls directly with its
    program's); every emitted row shares its ``merged`` layout.

    Falls back to the reference scan for a side whose rows do not all
    share one layout (no engine node produces one); a key value that is
    unhashable visits the whole plane.
    """
    if not left or not right:
        return []
    left_layout, right_layout = left[0].layout, right[0].layout
    if not (
        _shares_layout(left, left_layout) and _shares_layout(right, right_layout)
    ):
        return execute_join(method, left, right, predicates)
    return join_rows(
        compile_join(method, left_layout, right_layout, predicates), left, right
    )


def join_rows(
    join: CompiledJoin, left: Sequence[Row], right: Sequence[Row]
) -> list[Row]:
    """The hashed join of rows laid out as *join* was compiled for."""
    method, plan, compiled, _ = join
    try:
        right_buckets: dict[tuple, list[int]] = {}
        for j, row in enumerate(right):
            values = row.values
            key = tuple(values[slot] for _, slot in plan.shared)
            right_buckets.setdefault(key, []).append(j)
        cells: list[tuple[int, int]] = []
        for i, row in enumerate(left):
            values = row.values
            key = tuple(values[slot] for slot, _ in plan.shared)
            matches = right_buckets.get(key)
            if matches:
                cells.extend((i, j) for j in matches)
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


class JoinStream:
    """Streaming early-exit top-k execution of a rank-preserving join.

    The stream walks the strategy's candidate plane lazily, one *stage*
    at a time — a row of the NL plane, a diagonal of the MS plane — in
    exactly the order :func:`join_order` would visit the cells, keeping
    every surviving merged row as a candidate.  After each stage it
    compares the composed rank of the current k-th best candidate with
    a **certificate**: a lower bound on the composed rank of every
    cell not yet visited, derived from suffix minima of the two inputs'
    aggregated rank keys (a cell ``(i, j)`` merges ``left[i]`` and
    ``right[j]``, so its composed rank is exactly
    ``left[i].rank_key() + right[j].rank_key()``).  Once the bound is
    no smaller than the k-th candidate's rank the walk suspends: an
    unvisited cell can at best *tie*, and ties are broken by emission
    order (see :func:`~repro.execution.results.compose_ranking`), which
    every unvisited cell loses against every collected candidate.

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
    order — to filtering ``execute_join(method, left, right,
    predicates)`` over the fully-fetched inputs by
    *residual_predicates* and then applying ``compose_ranking(..., k)``
    (filter first, then compose: the same order the engine's output
    node applies them in), while visiting only a prefix of the plane.
    The stream is **resumable**: calling :meth:`top` again with a
    larger ``k`` continues the suspended walk from the first unvisited
    stage, re-using every candidate already collected — no cell is
    ever visited twice (resuming over lazy inputs may pull further
    budgeted pages).  ``cells_visited`` / ``cells_skipped`` expose the
    early-exit bookkeeping for the execution statistics.
    """

    def __init__(
        self,
        method: JoinMethod,
        left: Sequence[Row] | RowCursor,
        right: Sequence[Row] | RowCursor,
        predicates: Sequence[Comparison] = (),
        residual_predicates: Sequence[Comparison] = (),
    ) -> None:
        join_predicates = tuple(predicates)
        residual = tuple(residual_predicates)

        # (The closure must not capture ``self``: a suspended stream
        # would then sit in a reference cycle and outlive its session
        # until a GC run.)
        def compile_pair(layouts: tuple[SlotLayout, SlotLayout]) -> CompiledJoin:
            return compile_join(method, *layouts, join_predicates, residual)

        self._start(method, left, right, LayoutMemo(compile_pair))

    @classmethod
    def over(
        cls,
        join: CompiledJoin,
        left: Sequence[Row] | RowCursor,
        right: Sequence[Row] | RowCursor,
    ) -> "JoinStream":
        """A stream over inputs laid out as *join* was compiled for
        (the engine's entry: nothing is compiled per stream)."""
        stream = cls.__new__(cls)
        stream._start(
            join.method, left, right, {(join.merge.left, join.merge.right): join}
        )
        return stream

    def _start(self, method, left, right, compiled) -> None:
        self._method = method
        self._left = left if isinstance(left, RowCursor) else MaterializedCursor(left)
        self._right = (
            right if isinstance(right, RowCursor) else MaterializedCursor(right)
        )
        #: The :class:`CompiledJoin` per (left layout, right layout)
        #: pair met by the walk.  Engine inputs have exactly one pair,
        #: compiled with the plan; a hand-built row with another layout
        #: selects another entry of the same loop.
        self._compiled = compiled
        self._stage = 0
        #: (composed rank, arrival index, left row, right row) — arrival
        #: indexes are the candidate's position in the full-scan
        #: emission order, making tuple comparison the documented
        #: (rank, arrival) tie order (arrivals are distinct, so the rows
        #: are never compared).  The merged row is built when a
        #: candidate is emitted (:meth:`_row`): a suspended stream keeps
        #: every candidate for its session's lifetime but emits k.
        self._candidates: list[tuple[float, int, Row, Row]] = []
        self._join_rows_emitted = 0
        self.cells_visited = 0

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
    def cells_skipped(self) -> int:
        """Fetched-plane cells proven unable to enter the top-k without
        being visited."""
        return self.plane_cells - self.cells_visited

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

    @property
    def candidate_count(self) -> int:
        """Candidates collected so far (post join + residual predicates)."""
        return len(self._candidates)

    @property
    def lazy_tuples_fetched(self) -> int:
        """Raw service tuples pulled through lazy input cursors so far."""
        return self._left.tuples_fetched + self._right.tuples_fetched

    @property
    def lazy_pages_saved(self) -> int:
        """Budgeted page fetches still unissued right now.

        A point-in-time snapshot that only shrinks as resumes pull
        further pages — re-read it after each :meth:`top` call for the
        current figure.
        """
        return self._left.pages_saved() + self._right.pages_saved()

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
        left, right = self._left, self._right
        stats.streamed_cells_visited = self.cells_visited
        stats.early_exit_cells_skipped = self.cells_skipped
        stats.lazy_tuples_fetched = self.lazy_tuples_fetched - fetched_before
        stats.lazy_calls_saved = self.lazy_pages_saved - saved_before
        stats.lazy_blocks = left.block_count + right.block_count
        stats.lazy_blocks_untouched = (
            left.blocks_untouched + right.blocks_untouched
        )

    @property
    def join_rows_emitted(self) -> int:
        """Rows past the join predicates (before any residual filter)."""
        return self._join_rows_emitted

    def is_complete(self, rows: Sequence[Row]) -> bool:
        """True when *rows* (a :meth:`top` result) is *every* answer the
        current plane can produce: the walk exhausted and the top-k
        truncation dropped nothing.  This is the single definition of
        the ``ResultTable.complete`` flag for streamed executions."""
        return self.exhausted and len(rows) == self.candidate_count

    # -- the walk ------------------------------------------------------------

    def _advance_stage(self) -> None:
        """Visit every cell of the next stage, collecting candidates.

        Demands exactly the rows the stage can touch: one more outer
        row for NL (plus the whole inner side, which every NL stage
        scans), one more row *per side* for an MS diagonal.  After the
        demand, the known lengths determine the stage's exact cell set:
        an unexhausted cursor holds at least ``stage + 1`` rows, so the
        boundary formulas of :func:`stage_cells` apply unchanged.
        """
        stage = self._stage
        left, right = self._left, self._right
        left.ensure(stage + 1)
        if self._method is JoinMethod.NESTED_LOOP:
            right.ensure_all()
        else:
            right.ensure(stage + 1)
        n, m = len(left.rows), len(right.rows)
        if self._method is JoinMethod.NESTED_LOOP:
            cells: Iterable[tuple[int, int]] = (
                ((stage, j) for j in range(m)) if stage < n else ()
            )
        else:
            start = max(0, stage - m + 1)
            stop = min(stage, n - 1)
            cells = ((i, stage - i) for i in range(start, stop + 1))
        left_rows, right_rows = left.rows, right.rows
        left_ranks, right_ranks = left.ranks, right.ranks
        left_layout = right_layout = None
        for i, j in cells:
            self.cells_visited += 1
            left_row, right_row = left_rows[i], right_rows[j]
            if left_row.layout is not left_layout or (
                right_row.layout is not right_layout
            ):
                left_layout, right_layout = left_row.layout, right_row.layout
                _, plan, predicates, residual = self._compiled[
                    left_layout, right_layout
                ]
            merged = plan.merge(left_row.values, right_row.values)
            if merged is None:
                continue
            if predicates and not all(holds(merged) for holds in predicates):
                continue
            self._join_rows_emitted += 1
            if residual and not all(holds(merged) for holds in residual):
                continue
            self._candidates.append(
                (left_ranks[i] + right_ranks[j], len(self._candidates),
                 left_row, right_row)
            )
        self._stage += 1

    def _row(self, candidate: tuple) -> Row:
        """The merged row of a candidate, built when it is emitted."""
        _, _, left_row, right_row = candidate
        plan = self._compiled[left_row.layout, right_row.layout].merge
        return Row(
            layout=plan.merged,
            values=plan.merge(left_row.values, right_row.values),
            ranks=left_row.ranks + right_row.ranks,
            provenance=left_row.provenance + right_row.provenance,
        )

    def _remaining_lower_bound(self) -> float:
        """Lower bound on the composed rank of every unvisited cell.

        NL (row stages): all cells of rows ``>= stage`` are unvisited,
        so the bound is ``min(left ranks from stage) + min(right
        ranks)``.  MS (diagonal stages): the unvisited region is
        ``i + j >= stage``; rows ``i >= stage`` may pair with any
        column (one suffix lookup), rows ``i < stage`` only with
        columns ``j >= stage - i`` (one suffix lookup each).  Cursor
        ``suffix_min`` bounds never-fetched rows through their rank
        floor, so the bound stays sound for partially fetched lazy
        inputs: every fetched index below ``stage`` is covered by the
        per-row loop (the previous stage's demand guarantees the
        fetched prefix reaches ``min(stage, n)``), and everything
        beyond the fetched prefix is covered by a floor term.
        """
        if self.exhausted:
            return math.inf
        left, right = self._left, self._right
        stage = self._stage
        if self._method is JoinMethod.NESTED_LOOP:
            return left.suffix_min(stage) + right.suffix_min(0)
        n_known, m_known = len(left.rows), len(right.rows)
        best = math.inf
        if not left.exhausted or stage < n_known:
            best = left.suffix_min(stage) + right.suffix_min(0)
        start = max(0, stage - m_known + 1) if right.exhausted else 0
        left_ranks = left.ranks
        for i in range(start, min(stage, n_known)):
            bound = left_ranks[i] + right.suffix_min(stage - i)
            if bound < best:
                best = bound
        return best

    def top(self, k: int | None = None) -> list[Row]:
        """The top-*k* composed rows; resumes the suspended walk.

        **Contract**: the returned rows, their ranks, and their order
        are bit-identical to ``compose_ranking(full_join_rows, k)``
        where ``full_join_rows`` is the residual-filtered full-plane
        join over the *fully fetched* inputs — regardless of how much
        of the plane was actually visited or fetched.  ``None`` (or a
        negative ``k``, mirroring
        :func:`~repro.execution.results.compose_ranking`) drains the
        whole plane and returns every row in composed order.

        **Cost**: visits ``O(k)`` stages on rank-monotone inputs
        instead of the ``n × m`` plane, and over lazy cursors pulls
        only the pages those stages demand — so a small ``k`` costs a
        handful of remote fetches.  The certificate check keeps an
        incremental bounded max-heap of the current k best ``(rank,
        arrival)`` keys (rebuilt once per call, O(log k) per new
        candidate), so a late-firing exit costs one heap update per
        candidate rather than a rescan of the whole candidate list
        after every stage.
        """
        if k is not None and k < 0:
            k = None
        if k is None:
            while not self.exhausted:
                self._advance_stage()
            return [self._row(candidate) for candidate in sorted(self._candidates)]
        # Max-heap (negated keys) of the k smallest (rank, arrival).
        worst_first = [
            (-rank, -arrival)
            for rank, arrival, _, _ in heapq.nsmallest(k, self._candidates)
        ]
        heapq.heapify(worst_first)
        while not self.exhausted and not self._certified(worst_first, k):
            seen = len(self._candidates)
            self._advance_stage()
            for rank, arrival, _, _ in self._candidates[seen:]:
                key = (-rank, -arrival)
                if len(worst_first) < k:
                    heapq.heappush(worst_first, key)
                elif key > worst_first[0]:
                    heapq.heappushpop(worst_first, key)
        selected = sorted((-rank, -arrival) for rank, arrival in worst_first)
        return [self._row(self._candidates[arrival]) for _, arrival in selected]

    def _certified(self, worst_first: list[tuple[int, int]], k: int) -> bool:
        """True when no unvisited cell can still enter the top-*k*.

        *worst_first* is the bounded max-heap of the current k best
        candidate keys; its root carries the k-th smallest rank.
        """
        if k == 0:
            return True
        if len(worst_first) < k:
            return False
        threshold = -worst_first[0][0]
        return self._remaining_lower_bound() >= threshold


def execute_join_streamed(
    method: JoinMethod,
    left: Sequence[Row] | RowCursor,
    right: Sequence[Row] | RowCursor,
    predicates: Sequence[Comparison] = (),
    k: int | None = None,
) -> list[Row]:
    """Streamed early-exit top-k join (one-shot :class:`JoinStream`).

    Returns rows bit-identical to
    ``compose_ranking(execute_join(method, left, right, predicates), k)``
    while visiting only as much of the candidate plane as needed to
    prove the top-k complete.  Callers that want to resume the walk
    later ("ask for more") should hold a :class:`JoinStream` instead.
    """
    return JoinStream(method, left, right, predicates).top(k)

"""Demand-driven lazy service fetching for the streamed pipeline.

The streamed top-k pipeline of :mod:`repro.execution.joins` saves
*join work*: it early-exits the candidate-plane walk once a certificate
proves the top-k complete.  The paper's cost model, however, is
dominated by **remote service invocations and page fetches** — to save
those, the inputs of the streamed join must themselves be fetched on
demand, pulled page by page as the walk's stages require them (the
pull-based discipline of rank-join/HRJN-style operators).

This module provides the cursor abstraction that makes that sound:

* :class:`RowCursor` — the interface :class:`~repro.execution.joins.
  JoinStream` pulls its two inputs through: a growing fetched prefix of
  rows (``rows`` / ``ranks``), demand methods (:meth:`~RowCursor.
  ensure`, :meth:`~RowCursor.ensure_all`), and the certificate hook
  :meth:`~RowCursor.suffix_min` bounding every row — fetched or not —
  from a given index on;
* :class:`MaterializedCursor` — wraps an already-materialized list of
  rows (what eager execution produces); everything is known up front;
* :class:`LazyServiceCursor` — wraps a service invocation (through a
  :class:`PageSource`: a unit of the engine's fetch seam) and fetches
  pages only when the walk demands deeper rows.

**Soundness of the certificate with partially fetched inputs.**  The
streamed join suspends when a lower bound on the composed rank of every
*unvisited* cell reaches the current k-th candidate's rank.  With lazy
inputs, unvisited cells include cells over rows that were never
fetched.  A :class:`LazyServiceCursor` is *rank-monotone* when the
rank keys of its produced rows arrive in non-decreasing order — which
is structurally guaranteed for a service node fed by a **single** input
tuple, because every produced row's rank key is the feed row's constant
rank plus the service's own 0-based rank index, and search services
emit rank indexes in increasing order across pages (exact services add
no rank at all, so the sequence is constant).  For such a cursor the
page source's **rank floor** (the smallest service-rank any not-yet-
fetched tuple can have, i.e. the number of raw tuples already seen)
plus the feed row's base rank is a sound lower bound on every unfetched
row, so :meth:`~RowCursor.suffix_min` never underestimates.  If
monotonicity is ever observed to fail (a defensive guard — it cannot
happen for single-feed table services), the cursor **falls back to a
full fetch**: it drains the remaining budgeted pages, after which the
exact suffix minima over the complete row list are used, exactly as in
eager execution.

**Multi-feed nodes: per-feed blocks.**  A service node fed by *many*
input tuples produces one rank-monotone run of rows — a **block** —
per feed tuple, concatenated in feed order; the concatenation as a
whole is not monotone (each block restarts the service's rank sequence
at the feed row's base rank).  :class:`MultiFeedCursor` lifts the
single-feed argument to this shape: it owns one budgeted
:class:`LazyServiceCursor` per block and keeps two invariants —

* **placement** — the exposed ``rows`` list is always a *prefix of
  the eager concatenation*: a block's rows are appended (globally
  "placed") only once every earlier block is exhausted, so emission
  order, arrival indexes, and therefore tie-breaking are identical to
  eager execution by construction;
* **block-interleaving certificate** — ``suffix_min`` combines the
  exact suffix minima over the placed prefix with a bound on every
  *unplaced* row: the min, over all blocks at or after the placement
  front, of the block's exact fetched-but-unplaced ranks and (while
  the block is unexhausted) its rank floor.  A demanded row's rank is
  final only once **every** unexhausted block's floor exceeds it —
  the same floor-participation invariant proved for single feeds,
  lifted to a min-over-blocks.

Pages are pulled from the unexhausted block with the **lowest floor**
(ties broken toward the earliest feed, which keeps placement moving):
raising the smallest floor is the only way the min-over-blocks bound
can improve, so the interleaving is exactly the greedy that lets the
certificate fire with the fewest page fetches, while blocks whose
floor already exceeds the demanded threshold are never drained.  The
pulled pages are always a *subset of the eager universe*, so under
the no-cache and optimal cache settings remote fetches never exceed
eager materialization's; the one-call cache is the one exception —
its hits depend on arrival *order*, so interleaved pulls can miss
where eager's contiguous per-feed order would have hit (answers are
unaffected either way; only the fetch count can differ by the lost
locality).

The **fetch universe** of a lazy cursor is identical to what eager
execution would materialize: at most the node's fetch budget ``F``
pages, stopping early when the service reports no more results.  Lazy
fetching therefore never changes *which* rows exist — only how many of
them are actually pulled — which is what keeps the streamed pipeline
bit-identical (rows, ranks, emission order) to the full-scan oracle.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Protocol, Sequence

from repro.execution.results import Row


class FetchedPage(NamedTuple):
    """One page pulled through a :class:`PageSource`.

    ``rows`` are the *produced* rows of the page: service tuples bound
    against the feed row, filtered by the node's predicates — exactly
    what eager execution would have appended for this page.
    ``raw_tuples`` counts the tuples the service returned before
    binding/filtering.  ``rank_floor`` is a lower bound on the
    service-rank index of every tuple in any *later* page (0 when the
    service is unranked), and ``latency`` is the reported fetch latency
    (``None`` when the page was answered by the logical cache and no
    remote fetch happened).
    """

    rows: Sequence[Row]
    raw_tuples: int
    has_more: bool
    rank_floor: int = 0
    latency: float | None = None


class PageSource(Protocol):
    """What a :class:`LazyServiceCursor` pulls pages from.

    The engine's implementation is the fetch seam's
    :class:`~repro.execution.fetch.UnitSource`: one ``fetch(page)``
    performs the cache lookup, the remote invocation, the statistics
    accounting, and the output binding for that page.  ``budget`` is
    the node's fetching factor ``F`` — the cursor never requests a
    page beyond it.  Where the accounting lands is the source's own
    business (the seam's units share one rebindable cell), so cursors
    and streams carry no statistics plumbing at all.
    """

    budget: int

    def fetch(self, page: int) -> FetchedPage: ...


class RowCursor:
    """A pull-based input of the streamed join.

    The fetched prefix is exposed as ``rows`` (and the parallel
    ``ranks`` list of their aggregated rank keys); :meth:`ensure`
    grows it on demand.  :meth:`suffix_min` is the certificate hook:
    a sound lower bound on the rank key of **every** row — fetched or
    not — whose index is ``>= start``.  Subclasses must keep it sound;
    the early-exit guarantee of the streamed pipeline rests on it.
    """

    rows: list[Row]
    ranks: list[int]
    #: Lazy-fetch bookkeeping (all zero for materialized rows): raw
    #: tuples pulled, per-feed blocks behind the cursor, blocks that
    #: never issued a page fetch.
    tuples_fetched = 0
    block_count = 0
    blocks_untouched = 0

    def pages_saved(self) -> int:
        """Budgeted page fetches never issued."""
        return 0

    @property
    def exhausted(self) -> bool:
        """True when no further row can ever be fetched."""
        raise NotImplementedError

    def ensure(self, count: int) -> None:
        """Fetch until at least *count* rows are known, or exhausted."""
        raise NotImplementedError

    def ensure_all(self) -> None:
        """Fetch the whole universe (what eager execution holds)."""
        raise NotImplementedError

    def suffix_min(self, start: int) -> float:
        """Lower bound on ``rank_key`` of every row at index >= *start*.

        Covers unfetched rows too; ``+inf`` when no such row exists.
        """
        raise NotImplementedError


def _suffix_minima(values: Sequence[int]) -> list[float]:
    """``out[i] = min(values[i:])`` with ``out[len(values)] = +inf``."""
    minima: list[float] = [math.inf] * (len(values) + 1)
    for index in range(len(values) - 1, -1, -1):
        minima[index] = min(values[index], minima[index + 1])
    return minima


def _extend_suffix_minima(
    ranks: list[int], suffix: list[float], new_ranks: Sequence[int]
) -> None:
    """Append *new_ranks* to *ranks*, keeping *suffix* its suffix minima.

    Appending rows can only *lower* existing suffix entries, and only
    up to the first index the new minimum cannot improve — so the
    back-propagation stops there instead of rebuilding the whole array
    (an immediate stop in the monotone case, keeping a full drain
    linear instead of quadratic).
    """
    old_count = len(ranks)
    ranks.extend(new_ranks)
    suffix.pop()  # the +inf sentinel, re-appended below
    running = math.inf
    tail: list[float] = [0.0] * len(new_ranks)
    for index in range(len(new_ranks) - 1, -1, -1):
        running = min(running, new_ranks[index])
        tail[index] = running
    suffix.extend(tail)
    suffix.append(math.inf)
    for index in range(old_count - 1, -1, -1):
        updated = min(ranks[index], suffix[index + 1])
        if updated == suffix[index]:
            break
        suffix[index] = updated


class MaterializedCursor(RowCursor):
    """A cursor over rows that are already fully materialized.

    This is the adapter between eager upstream execution and the
    streamed join: suffix minima are computed once, ``ensure`` is a
    no-op, and the certificate behaves exactly as in the original
    (PR 2) fully-materialized pipeline.
    """

    def __init__(self, rows: Sequence[Row]) -> None:
        self.rows = list(rows)
        self.ranks = [row.rank_key() for row in self.rows]
        self._suffix = _suffix_minima(self.ranks)

    @property
    def exhausted(self) -> bool:
        return True

    def ensure(self, count: int) -> None:
        return None

    def ensure_all(self) -> None:
        return None

    def suffix_min(self, start: int) -> float:
        if start >= len(self.ranks):
            return math.inf
        return self._suffix[start]


class LazyServiceCursor(RowCursor):
    """Demand-driven cursor over one service node's paged results.

    Pages are pulled from the :class:`PageSource` only
    when the streamed walk demands rows that are not yet fetched; the
    universe (at most ``source.budget`` pages, stopping early when the
    service runs dry) is identical to eager materialization, so results
    stay bit-identical to the full-scan oracle while unfetched pages
    are *saved remote work*.

    ``base_rank`` is the feed row's aggregated rank (constant across
    all produced rows).  While the observed row ranks stay monotone,
    ``suffix_min`` bounds the unfetched suffix by ``base_rank +
    rank_floor`` (see the module docstring for the soundness argument);
    on a monotonicity violation the cursor drains the remaining budget
    and the exact suffix minima take over.

    Cost counters: ``pages_fetched`` / ``tuples_fetched`` /
    ``latencies`` describe the remote work actually performed;
    :meth:`pages_saved` is the number of budgeted page fetches that
    were never issued (an upper bound on the saving when the service
    would have run dry mid-budget, exact otherwise — eager execution
    stops at the same ``has_more`` signals the cursor observes).
    """

    block_count = 1  # one feed tuple, one block

    def __init__(self, source: PageSource, base_rank: int = 0) -> None:
        self._source = source
        self._base_rank = base_rank
        self.rows = []
        self.ranks = []
        self._suffix: list[float] = [math.inf]
        self._monotone = True
        self._saw_end = False
        self._rank_floor = 0
        self.pages_fetched = 0
        self.tuples_fetched = 0
        self.latencies: list[float] = []

    @property
    def exhausted(self) -> bool:
        return self._saw_end or self.pages_fetched >= self._source.budget

    @property
    def budget(self) -> int:
        """The fetch budget ``F`` of the wrapped node."""
        return self._source.budget

    @property
    def is_monotone(self) -> bool:
        """False once a rank regression was observed (floor untrusted)."""
        return self._monotone

    @property
    def floor(self) -> float:
        """Lower bound on every not-yet-fetched row's aggregated rank.

        ``+inf`` once exhausted (no such row can exist); otherwise the
        feed row's base rank plus the service's reported rank floor.
        Only meaningful while :attr:`is_monotone` holds.
        """
        if self.exhausted:
            return math.inf
        return self._base_rank + self._rank_floor

    @property
    def blocks_untouched(self) -> int:
        """Blocks that never issued a single page fetch."""
        return 0 if self.pages_fetched else 1

    def pages_saved(self) -> int:
        """Budgeted page fetches never issued (0 once the service ran dry)."""
        if self._saw_end:
            return 0
        return max(0, self._source.budget - self.pages_fetched)

    def ensure(self, count: int) -> None:
        while len(self.rows) < count and not self.exhausted:
            self._fetch_next()
        if not self._monotone:
            self.ensure_all()

    def ensure_all(self) -> None:
        while not self.exhausted:
            self._fetch_next()

    def pull_page(self) -> None:
        """Fetch exactly one more budgeted page (no-op when exhausted).

        Drains the remaining budget on an observed monotonicity
        violation, so callers holding many blocks
        (:class:`MultiFeedCursor`) keep the invariant that every
        *unexhausted* block is rank-monotone and its floor sound.
        """
        if self.exhausted:
            return
        self._fetch_next()
        if not self._monotone:
            self.ensure_all()

    def suffix_min(self, start: int) -> float:
        if not self._monotone and not self.exhausted:
            # An observed violation means the source's rank sequence is
            # untrustworthy; drain to the exact suffix minima instead.
            self.ensure_all()
        floor = self.floor
        if start < len(self.ranks):
            # Indexes >= start span both fetched rows (exact suffix
            # minima) and every unfetched row (bounded by the floor —
            # which can undercut the fetched suffix, so it must always
            # participate while rows may still arrive).
            return min(self._suffix[start], floor)
        return floor

    def _fetch_next(self) -> None:
        page = self._source.fetch(self.pages_fetched)
        self.pages_fetched += 1
        self.tuples_fetched += page.raw_tuples
        if page.latency is not None:
            self.latencies.append(page.latency)
        if not page.has_more:
            self._saw_end = True
        previous_last = self.ranks[-1] if self.ranks else -math.inf
        new_ranks: list[int] = []
        for row in page.rows:
            rank = row.rank_key()
            if rank < previous_last:
                self._monotone = False
            previous_last = max(previous_last, rank)
            self.rows.append(row)
            new_ranks.append(rank)
        self._rank_floor = max(self._rank_floor, page.rank_floor)
        _extend_suffix_minima(self.ranks, self._suffix, new_ranks)


class MultiFeedCursor(RowCursor):
    """Demand-driven cursor over a multi-feed service node's blocks.

    One budgeted :class:`LazyServiceCursor` per feed tuple ("block").
    The exposed ``rows`` list is always a prefix of the eager
    feed-order concatenation: a block's fetched rows are *placed*
    (appended globally) only once every earlier block is exhausted,
    which preserves the oracle's emission order — and therefore
    arrival-index tie-breaking — by construction.  Rows fetched into
    blocks behind the placement front stay buffered inside their block
    until placement reaches them; they still sharpen the certificate
    through their exact ranks.

    **Certificate** (see the module docstring): :meth:`suffix_min`
    combines the exact suffix minima over the placed prefix with the
    min over all blocks at or after the front of
    ``block.suffix_min(placed_in_block)`` — exact ranks for buffered
    rows, the block's rank floor for unfetched ones.  The floor of
    every unexhausted block always participates, so a demanded row's
    rank is final only once every unexhausted block's floor exceeds
    it: the single-feed floor-participation invariant, lifted to a
    min-over-blocks.

    **Fetch policy**: :meth:`ensure` pulls one page at a time from the
    unexhausted block with the lowest floor (ties toward the earliest
    feed).  Raising the smallest floor is the only way the
    min-over-blocks bound can improve, and the earliest-feed tie-break
    keeps the placement front moving; the pulled set is always a
    subset of the eager universe, so page pulls never exceed eager
    materialization's (see the module docstring for the one-call-cache
    caveat on *remote* fetch counts).

    **Heaps** (O(log B) per pull instead of O(B) scans): block
    selection and the unplaced bound are served by two lazy-deletion
    heaps.  ``_floor_heap`` holds ``(floor, index)`` entries; floors
    only ever rise (a block's floor changes only through its own
    pulls), so a popped entry is validated against the block's current
    floor and re-keyed when stale — ties break toward the earliest
    feed index exactly as the linear scan did, because stale entries
    always carry a *lower* floor and therefore surface (and are
    corrected) before any entry they could unfairly displace.
    ``_bound_heap`` holds ``(candidate, index)`` entries with
    ``candidate = block.suffix_min(placed)``; the invariant is that
    every block at or after the front with a finite candidate has an
    entry **no larger than** its true candidate, which holds because
    candidates rise under placement advances and floor raises, and the
    one event that can lower them — a non-monotone pull draining a
    block into exact suffix minima below its old floor — is followed
    by pushing a fresh exact entry in :meth:`_pull_block`.  Popped
    entries are validated by recomputation and re-keyed; a root entry
    that validates exactly is the true minimum.
    """

    def __init__(self, blocks: Sequence[LazyServiceCursor]) -> None:
        self._blocks = list(blocks)
        self.rows = []
        self.ranks = []
        self._suffix: list[float] = [math.inf]
        #: Rows of each block already placed into the global list.
        self._placed = [0] * len(self._blocks)
        self._front = 0
        self._bound_cache: float | None = None
        #: Running cost counters (updated at pull time, never recomputed).
        self._tuples_fetched = sum(b.tuples_fetched for b in self._blocks)
        self._pages_saved = sum(b.pages_saved() for b in self._blocks)
        self._untouched = sum(
            1 for b in self._blocks if b.pages_fetched == 0
        )
        self._advance_placement()
        self._floor_heap: list[tuple[float, int]] = []
        self._bound_heap: list[tuple[float, int]] = []
        for index in range(self._front, len(self._blocks)):
            block = self._blocks[index]
            if not block.exhausted:
                self._floor_heap.append((block.floor, index))
            candidate = block.suffix_min(self._placed[index])
            if candidate < math.inf:
                self._bound_heap.append((candidate, index))
        heapq.heapify(self._floor_heap)
        heapq.heapify(self._bound_heap)

    @property
    def exhausted(self) -> bool:
        return self._front >= len(self._blocks)

    @property
    def block_count(self) -> int:
        """Feed blocks (one per feed tuple) behind this cursor."""
        return len(self._blocks)

    @property
    def blocks_untouched(self) -> int:
        """Blocks that never issued a single page fetch."""
        return self._untouched

    @property
    def tuples_fetched(self) -> int:
        """Raw service tuples pulled across all blocks."""
        return self._tuples_fetched

    @property
    def latencies(self) -> list[float]:
        """Remote fetch latencies across all blocks."""
        return [
            latency for block in self._blocks for latency in block.latencies
        ]

    def pages_saved(self) -> int:
        """Budgeted page fetches never issued, summed over blocks."""
        return self._pages_saved

    def ensure(self, count: int) -> None:
        while len(self.rows) < count and not self.exhausted:
            self._pull_lowest_floor()

    def ensure_all(self) -> None:
        for block in self._blocks:
            if not block.exhausted:
                self._pull(block, block.ensure_all)
        # Every block is exhausted: nothing is left to pull and once
        # placement catches up the unplaced bound is +inf for good.
        self._floor_heap.clear()
        self._bound_heap.clear()
        self._bound_cache = None
        self._advance_placement()

    def suffix_min(self, start: int) -> float:
        if self._bound_cache is None:
            self._bound_cache = self._unplaced_bound()
        bound = self._bound_cache
        if start < len(self.ranks):
            # Indexes >= start span placed rows (exact suffix minima)
            # and every unplaced row (covered by the bound, which must
            # always participate while rows may still arrive).
            return min(self._suffix[start], bound)
        return bound

    # -- internals ----------------------------------------------------------

    def _unplaced_bound(self) -> float:
        """Lower bound on the rank of every not-yet-placed row.

        Unplaced rows live in blocks at or after the placement front:
        buffered rows are bounded by their exact ranks, unfetched rows
        by the owning block's floor — both of which
        ``block.suffix_min(placed)`` provides (for the front block all
        fetched rows are placed, so only its floor contributes).

        Served by ``_bound_heap`` with validation on pop: entries are
        lower bounds of their blocks' true candidates (see the class
        docstring for why), so a root whose recomputed candidate equals
        its key is the exact minimum; stale roots are re-keyed in place
        and infinite/behind-the-front ones discarded.
        """
        heap = self._bound_heap
        while heap:
            candidate, index = heap[0]
            if index < self._front:
                heapq.heappop(heap)
                continue
            actual = self._blocks[index].suffix_min(self._placed[index])
            if actual == candidate:
                return candidate
            if actual == math.inf:
                heapq.heappop(heap)
                continue
            heapq.heapreplace(heap, (actual, index))
        return math.inf

    def _pull_lowest_floor(self) -> None:
        """Fetch one page from the unexhausted block with the lowest floor.

        Served by ``_floor_heap`` with validation on pop: floors only
        rise, so a popped entry whose floor no longer matches its block
        is stale and gets re-keyed; exhausted blocks are discarded.
        Ties surface the earliest feed index first, matching the linear
        scan this replaces.
        """
        heap = self._floor_heap
        while heap:
            floor, index = heapq.heappop(heap)
            block = self._blocks[index]
            if block.exhausted:
                continue
            if block.floor != floor:
                heapq.heappush(heap, (block.floor, index))
                continue
            self._pull_block(index, block)
            return

    def _pull(self, block: LazyServiceCursor, pull) -> None:
        """Run *pull* on an unexhausted *block*, keeping the counters.

        One pull may drain many pages (``ensure_all``, or the
        non-monotone fallback of ``pull_page``), so the counters move
        by before/after deltas rather than fixed increments.
        """
        tuples_before = block.tuples_fetched
        saved_before = block.pages_saved()
        untouched = block.pages_fetched == 0
        pull()
        self._tuples_fetched += block.tuples_fetched - tuples_before
        self._pages_saved += block.pages_saved() - saved_before
        if untouched:
            self._untouched -= 1

    def _pull_block(self, index: int, block: LazyServiceCursor) -> None:
        """Pull one page from *block*, maintaining counters and heaps.

        The fresh bound entry pushed at the end restores the bound-heap
        invariant even when a non-monotone drain *lowered* the block's
        candidate.
        """
        self._pull(block, block.pull_page)
        if not block.exhausted:
            heapq.heappush(self._floor_heap, (block.floor, index))
        self._bound_cache = None
        self._advance_placement()
        if index >= self._front:
            heapq.heappush(
                self._bound_heap,
                (block.suffix_min(self._placed[index]), index),
            )

    def _advance_placement(self) -> None:
        """Place newly placeable rows, advancing the front over drained
        blocks.  Keeps ``rows`` a prefix of the eager concatenation."""
        blocks = self._blocks
        while self._front < len(blocks):
            block = blocks[self._front]
            placed = self._placed[self._front]
            if placed < len(block.rows):
                self.rows.extend(block.rows[placed:])
                _extend_suffix_minima(
                    self.ranks, self._suffix, block.ranks[placed:]
                )
                self._placed[self._front] = len(block.rows)
            if not block.exhausted:
                break
            self._front += 1


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

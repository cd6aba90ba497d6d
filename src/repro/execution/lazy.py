"""Demand-driven lazy service fetching for the streamed pipeline.

The streamed top-k pipeline of :mod:`repro.execution.joins` saves
*join work*: it early-exits the candidate-plane walk once a certificate
proves the top-k complete.  The paper's cost model, however, is
dominated by **remote service invocations and page fetches** — to save
those, the inputs of the streamed walk must themselves be fetched on
demand, pulled page by page as its stages require them (the pull-based
discipline of rank-join/HRJN-style operators) — and so must *their*
inputs, up every pipe chain only the walk consumes.

This module provides the cursor abstraction that makes that sound:

* :class:`RowCursor` — the interface a stream
  (:class:`~repro.execution.joins.TopKStream`) pulls its inputs
  through, and a cursor its feed: a growing fetched prefix of
  rows (``rows`` / ``ranks``), demand methods (:meth:`~RowCursor.
  ensure`, :meth:`~RowCursor.ensure_all`), and the certificate hook
  :meth:`~RowCursor.suffix_min` bounding every row — fetched or not —
  from a given index on;
* :class:`MaterializedCursor` — wraps an already-materialized list of
  rows (what eager execution produces); everything is known up front;
* :class:`LazyServiceCursor` — wraps a service invocation (through a
  :class:`PageSource`: a unit of the engine's fetch seam) and fetches
  pages only when the walk demands deeper rows;
* :class:`MultiFeedCursor` — one such cursor per row of a *feed
  cursor*, opened as the demand reaches them.

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
:class:`LazyServiceCursor` per block — opened in feed order, when the
fetch policy first needs it — and keeps two invariants —

* **placement** — the exposed ``rows`` list is always a *prefix of
  the eager concatenation*: a block's rows are appended (globally
  "placed") only once every earlier block is exhausted, so emission
  order, arrival indexes, and therefore tie-breaking are identical to
  eager execution by construction;
* **block-interleaving certificate** — ``suffix_min`` combines the
  exact suffix minima over the placed prefix with a bound on every
  *unplaced* row: the min, over all open blocks at or after the
  placement front, of the block's exact fetched-but-unplaced ranks and
  (while the block is unexhausted) its rank floor — and the
  **frontier**, the feed cursor's own bound on the feed rows whose
  block is not open yet (a produced row never ranks below its feed
  row).  A demanded row's rank is final only once **every**
  unexhausted block's floor, and the frontier, exceed it — the same
  floor-participation invariant proved for single feeds, lifted to a
  min-over-blocks and, through the frontier, up the chain.

Pages are pulled from the unexhausted block with the **lowest floor**
(ties broken toward the earliest feed, which keeps placement moving),
and the next block is opened when the frontier is lower than them all:
raising the smallest term is the only way the bound can improve, so
the interleaving is exactly the greedy that lets the certificate fire
with the fewest page fetches, while blocks whose floor already exceeds
the demanded threshold are never drained — or never opened.  The
pulled pages are always a *subset of the eager universe*, so under
the no-cache and optimal cache settings remote fetches never exceed
eager materialization's; the one-call cache is the one exception —
its hits depend on arrival *order*, so interleaved pulls can miss
where eager's contiguous per-feed order would have hit (answers are
unaffected either way; only the fetch count can differ by the lost
locality).

**Chains: a feed may be a cursor.**  The feed of a
:class:`MultiFeedCursor` is a :class:`RowCursor` — materialized when
the step above ran eagerly, lazy when that step has no other consumer
either (``ExecutionProgram.lazy`` is the closure).  Asking for one more
row at the bottom then asks each level above for at most one more row
of its own, and both invariants carry over by induction on depth: the
frontier is sound because the feed's ``suffix_min`` is, and placement
is the eager order because blocks are opened in the feed's placed
order, which is.  A suspended chain holds its open blocks and integer
rank arrays, not the rows that travelled through it: a passed block is
dropped and a feed row is *taken* (:meth:`RowCursor.take`) when its
block opens.

The **fetch universe** of a lazy cursor is identical to what eager
execution would materialize: at most the node's fetch budget ``F``
pages, stopping early when the service reports no more results.  Lazy
fetching therefore never changes *which* rows exist — only how many of
them are actually pulled — which is what keeps the streamed pipeline
bit-identical (rows, ranks, emission order) to the full-scan oracle.
The budget is read from the source on every use: a session that grows
its fetch factors under a suspended walk (growth in place,
:mod:`repro.execution.progressive`) enlarges the universe, and the
cursors simply are no longer exhausted.
"""

from __future__ import annotations

import heapq
import math
from itertools import accumulate
from typing import Callable, NamedTuple, Protocol, Sequence

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
    """A pull-based input of a streamed walk, or of another cursor.

    The fetched prefix is exposed as ``rows`` (and the parallel
    ``ranks`` list of their aggregated rank keys); :meth:`ensure`
    grows it on demand.  :meth:`suffix_min` is the certificate hook:
    a sound lower bound on the rank key of **every** row — fetched or
    not — whose index is ``>= start``.  Subclasses must keep it sound;
    the early-exit guarantee of the streamed pipeline rests on it.
    """

    rows: list[Row]
    ranks: list[int]
    #: ``min(ranks[i:])`` per index (``+inf`` last), for as many ranks
    #: as a certificate has asked about so far: brought up to date on
    #: use (:meth:`_known_min`), so rows that are placed and consumed
    #: without anyone bounding them cost an append and nothing else.
    _suffix: list[float]
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

    def _known_min(self, start: int) -> float:
        """The exact ``min(ranks[start:])`` over the rows known so far
        (``+inf`` past them)."""
        ranks = self.ranks
        if start >= len(ranks):
            return math.inf
        suffix = self._suffix
        if len(suffix) <= len(ranks):
            _extend_suffix_minima(ranks, suffix)
        return suffix[start]

    def take(self, index: int) -> Row:
        """Hand row *index* to a consumer that reads each row once, in
        order (a cursor fed by this one), and stop holding it.

        The slot stays, so lengths, indexes and ``ranks`` are unchanged:
        a suspended chain retains the rows still in flight, not every
        row that ever travelled through it.
        """
        row = self.rows[index]
        self.rows[index] = None
        return row


def _extend_suffix_minima(ranks: list[int], suffix: list[float]) -> None:
    """Extend *suffix* — ``suffix[i] = min(ranks[i:])`` over a prefix of
    *ranks*, ``+inf`` last — to all of *ranks*.

    The appended ranks can only *lower* existing entries, to their own
    minimum, and — suffix minima never decrease along the array — only
    on a trailing run of them, so the back-propagation stops at the
    first entry the new minimum cannot improve instead of rebuilding
    the whole array (an immediate stop in the monotone case, keeping a
    full drain linear instead of quadratic).
    """
    covered = len(suffix) - 1
    tail = list(accumulate(reversed(ranks[covered:]), min))
    tail.reverse()
    suffix.pop()  # the +inf sentinel, re-appended below
    suffix.extend(tail)
    suffix.append(math.inf)
    lowest = tail[0]
    index = covered - 1
    while index >= 0 and suffix[index] > lowest:
        suffix[index] = lowest
        index -= 1


class MaterializedCursor(RowCursor):
    """A cursor over rows that are already fully materialized.

    This is the adapter between eager upstream execution and the
    streamed join: everything is known, ``ensure`` is a no-op, and the
    certificate behaves exactly as in the original (PR 2)
    fully-materialized pipeline.
    """

    def __init__(self, rows: Sequence[Row]) -> None:
        self.rows = list(rows)
        self.ranks = [row.rank_key() for row in self.rows]
        self._suffix = [math.inf]

    @property
    def exhausted(self) -> bool:
        return True

    def ensure(self, count: int) -> None:
        return None

    def ensure_all(self) -> None:
        return None

    def suffix_min(self, start: int) -> float:
        return self._known_min(start)


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

    Cost counters: ``pages_fetched`` / ``tuples_fetched`` describe the
    remote work actually performed (its virtual time is the source's
    business, like every other statistic);
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
        if self._saw_end or self.pages_fetched >= self._source.budget:
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
        ranks = self.ranks
        if start < len(ranks):
            # Indexes >= start span both fetched rows (exact suffix
            # minima: of non-decreasing ranks, the first) and every
            # unfetched row (bounded by the floor — which can undercut
            # the fetched suffix, so it must always participate while
            # rows may still arrive).
            exact = ranks[start] if self._monotone else self._known_min(start)
            return exact if exact < floor else floor
        return floor

    def _fetch_next(self) -> None:
        page = self._source.fetch(self.pages_fetched)
        self.pages_fetched += 1
        self.tuples_fetched += page.raw_tuples
        if not page.has_more:
            self._saw_end = True
        ranks = self.ranks
        highest = ranks[-1] if ranks else -math.inf
        for row in page.rows:
            rank = row.rank_key()
            if rank < highest:
                self._monotone = False
            else:
                highest = rank
            ranks.append(rank)
        self.rows.extend(page.rows)
        if page.rank_floor > self._rank_floor:
            self._rank_floor = page.rank_floor


class MultiFeedCursor(RowCursor):
    """Demand-driven cursor over a multi-feed service node's blocks.

    One budgeted :class:`LazyServiceCursor` per feed tuple ("block"),
    *opened* — ``open_block(feed row, its rank)`` — in feed order as
    the feed cursor places rows and the fetch policy asks for them; a
    materialized feed (:class:`MaterializedCursor`) is the case where
    every feed row is known up front.  The exposed ``rows`` list is
    always a prefix of the eager feed-order concatenation: a block's
    fetched rows are *placed* (appended globally) only once every
    earlier block is exhausted, which preserves the oracle's emission
    order — and therefore arrival-index tie-breaking — by construction.
    Rows fetched into blocks behind the placement front stay buffered
    inside their block until placement reaches them; they still sharpen
    the certificate through their exact ranks.

    **Certificate** (see the module docstring): :meth:`suffix_min`
    combines the exact suffix minima over the placed prefix with a
    bound on every unplaced row: the min over all *open* blocks at or
    after the front of ``block.suffix_min(placed_in_block)`` — exact
    ranks for buffered rows, the block's rank floor for unfetched ones
    — and the **frontier** ``feed.suffix_min(opened)``, which bounds
    every row of every block not opened yet (a row's rank is its feed
    row's plus a non-negative service rank).  The floor of every
    unexhausted block and the frontier always participate, so a
    demanded row's rank is final only once all of them exceed it: the
    single-feed floor-participation invariant, lifted to a
    min-over-blocks and, through the frontier, up the chain.

    **Fetch policy**: :meth:`ensure` takes one step at a time — a page
    from the unexhausted open block with the lowest floor (ties toward
    the earliest feed), or, when the frontier is lower than every open
    floor, the next block is opened (demanding one more feed row, which
    is how the walk's demand travels up a pipe chain).  Raising the
    smallest term is the only way the bound can improve, and the
    earliest-feed tie-break keeps the placement front moving; over a
    materialized feed the pages pulled, and their order, are exactly
    those of a cursor that opens every block up front, because an
    unopened block's floor *is* its feed row's rank.  The pulled set is
    always a subset of the eager universe, so page pulls never exceed
    eager materialization's (see the module docstring for the
    one-call-cache caveat on *remote* fetch counts).

    **Retention**: a suspended cursor holds its open blocks and the
    integer rank arrays, not what it pulled: a block the placement
    front has passed is dropped (the counters are running totals, so
    nothing is lost with it) and each feed row is *taken* from the feed
    cursor (:meth:`RowCursor.take`) when its block opens.

    **Heaps** (O(log B) per pull instead of O(B) scans): block
    selection and the open-block bound are served by two lazy-deletion
    heaps.  ``_floor_heap`` holds ``(floor, index)`` entries; floors
    only ever rise (a block's floor changes only through its own
    pulls), so a popped entry is validated against the block's current
    floor and re-keyed when stale — ties break toward the earliest
    feed index exactly as a linear scan would, because stale entries
    always carry a *lower* floor and therefore surface (and are
    corrected) before any entry they could unfairly displace.
    ``_bound_heap`` holds ``(candidate, index)`` entries with
    ``candidate = block.suffix_min(placed)``; the invariant is that
    every open block at or after the front with a finite candidate has
    an entry **no larger than** its true candidate, which holds because
    candidates rise under placement advances and floor raises, and the
    one event that can lower them — a non-monotone pull draining a
    block into exact suffix minima below its old floor — is followed
    by pushing a fresh exact entry in :meth:`_file`.  Popped
    entries are validated by recomputation and re-keyed; a root entry
    that validates exactly is the true minimum.
    """

    def __init__(
        self,
        feed: RowCursor,
        open_block: Callable[[Row, int], LazyServiceCursor],
        budget: int,
    ) -> None:
        self._feed = feed
        self._open_block = open_block
        #: Pages one block may pull (the node's fetching factor): what
        #: a known feed row whose block is not open yet still saves.
        self._budget = budget
        self.rows = []
        self.ranks = []
        self._suffix: list[float] = [math.inf]
        #: Open blocks the placement front has not passed, by feed index.
        self._blocks: dict[int, LazyServiceCursor] = {}
        #: Feed rows consumed so far: blocks ``0 .. opened - 1`` exist(ed).
        self._opened = 0
        #: The first block placement has not passed, and how many of
        #: its rows are placed (every later block has none placed).
        self._front = 0
        self._placed = 0
        #: The bound on the unplaced rows of the open blocks, until the
        #: next pull or open.  Over a materialized feed — whose frontier
        #: moves only when this cursor opens a block — it holds the
        #: frontier too; a lazy feed's is read afresh every time (its
        #: budget may grow under a suspended walk).
        self._open_bound: float | None = None
        self._feed_is_known = isinstance(feed, MaterializedCursor)
        self._floor_heap: list[tuple[float, int]] = []
        self._bound_heap: list[tuple[float, int]] = []
        #: Running cost counters over every block ever opened (updated
        #: at open and pull time, never recomputed: dropped blocks stay
        #: counted).  The bookkeeping below adds the feed rows known but
        #: not opened yet: a block stands for every feed row the feed
        #: cursor has placed.
        self._tuples_fetched = 0
        self._untouched = 0

    @property
    def exhausted(self) -> bool:
        feed = self._feed
        return (
            self._front >= self._opened
            and self._opened >= len(feed.ranks)
            and feed.exhausted
        )

    @property
    def block_count(self) -> int:
        """Feed blocks (one per feed tuple known so far) behind this
        cursor, and up the feed chain."""
        feed = self._feed
        return len(feed.ranks) + feed.block_count

    @property
    def blocks_untouched(self) -> int:
        """Blocks that never issued a single page fetch, opened or not."""
        feed = self._feed
        return (
            self._untouched + len(feed.ranks) - self._opened
            + feed.blocks_untouched
        )

    @property
    def tuples_fetched(self) -> int:
        """Raw service tuples pulled across all blocks and up the chain."""
        return self._tuples_fetched + self._feed.tuples_fetched

    def pages_saved(self) -> int:
        """Budgeted page fetches never issued, summed over the blocks
        (a dropped one has none left) and the feed chain."""
        feed = self._feed
        return (
            sum(block.pages_saved() for block in self._blocks.values())
            + (len(feed.ranks) - self._opened) * self._budget
            + feed.pages_saved()
        )

    def ensure(self, count: int) -> None:
        rows = self.rows
        while len(rows) < count and not self.exhausted:
            self._step()

    def ensure_all(self) -> None:
        feed = self._feed
        feed.ensure_all()
        while self._opened < len(feed.ranks):
            self._open_next()
        for block in list(self._blocks.values()):
            if not block.exhausted:
                self._pull(block, block.ensure_all)
        # Every block is exhausted: nothing is left to pull and once
        # placement catches up the unplaced bound is +inf for good.
        self._floor_heap.clear()
        self._bound_heap.clear()
        self._open_bound = None
        self._advance_placement()

    def suffix_min(self, start: int) -> float:
        bound = self._open_bound
        known = self._feed_is_known
        if bound is None:
            bound = self._open_blocks_bound()
            if known:
                bound = min(bound, self._feed.suffix_min(self._opened))
            self._open_bound = bound
        if not known:
            frontier = self._feed.suffix_min(self._opened)
            if frontier < bound:
                bound = frontier
        # Indexes >= start span placed rows (exact suffix minima) and
        # every unplaced row (covered by the bound, which must always
        # participate while rows may still arrive).
        exact = self._known_min(start)
        return exact if exact < bound else bound

    # -- internals ----------------------------------------------------------

    def _open_blocks_bound(self) -> float:
        """Lower bound on the rank of every unplaced row of an open block.

        Unplaced rows of open blocks live at or after the placement
        front: buffered rows are bounded by their exact ranks,
        unfetched rows by the owning block's floor — both of which
        ``block.suffix_min(placed)`` provides (for the front block all
        fetched rows are placed, so only its floor contributes).

        Served by ``_bound_heap`` with validation on pop: entries are
        lower bounds of their blocks' true candidates (see the class
        docstring for why), so a root whose recomputed candidate equals
        its key is the exact minimum; stale roots are re-keyed in place
        and infinite/behind-the-front ones discarded.
        """
        heap = self._bound_heap
        front = self._front
        while heap:
            candidate, index = heap[0]
            if index < front:
                heapq.heappop(heap)
                continue
            actual = self._blocks[index].suffix_min(
                self._placed if index == front else 0
            )
            if actual == candidate:
                return candidate
            if actual == math.inf:
                heapq.heappop(heap)
                continue
            heapq.heapreplace(heap, (actual, index))
        return math.inf

    def _step(self) -> None:
        """One step of the fetch policy.

        Fetches one page from the unexhausted open block with the
        lowest floor, unless the frontier undercuts it — then the next
        block is opened instead.  Served by ``_floor_heap`` with
        validation on pop: floors only rise, so an entry whose floor no
        longer matches its block is stale and gets re-keyed; exhausted
        and dropped blocks are discarded.  Ties surface the earliest
        feed index first, and an open block before the frontier (whose
        index is past them all), matching a linear scan over every
        block of the feed.
        """
        heap = self._floor_heap
        blocks = self._blocks
        while heap:
            floor, index = heap[0]
            block = blocks.get(index)
            # (an exhausted block's floor is +inf)
            current = math.inf if block is None else block.floor
            if current == math.inf:
                heapq.heappop(heap)
            elif current != floor:
                heapq.heapreplace(heap, (current, index))
            elif floor <= self._feed.suffix_min(self._opened):
                heapq.heappop(heap)
                self._pull_block(index, block)
                return
            else:
                break
        self._open_next(pull=True)

    def _open_next(self, pull: bool = False) -> None:
        """Open the block of the next feed row, demanding it from the
        feed (a no-op when the feed runs dry instead).

        With *pull* (the fetch policy asking) a block that would be the
        policy's very next choice — nothing else is open and nothing
        unseen is lower — has its first page fetched right away, and
        when that page exhausts it (every block of a bulk service) its
        rows are placed and the block is done: the front moves past it
        without a heap or table entry ever existing for it.
        """
        feed = self._feed
        index = self._opened
        feed.ensure(index + 1)
        if index >= len(feed.ranks):
            return
        rank = feed.ranks[index]
        block = self._open_block(feed.take(index), rank)
        self._opened = index + 1
        self._open_bound = None
        if pull and not self._blocks and rank <= feed.suffix_min(index + 1):
            block.pull_page()
            self._tuples_fetched += block.tuples_fetched
            if block.exhausted:
                if not block.pages_fetched:  # demoted from birth
                    self._untouched += 1
                self.rows.extend(block.rows)
                self.ranks.extend(block.ranks)
                self._front = index + 1
                return
        else:
            self._untouched += 1
        self._blocks[index] = block
        self._file(index, block)

    def _file(self, index: int, block: LazyServiceCursor) -> None:
        """Place what *block* has that can be placed and (re-)enter it
        in the heaps, after it was opened or pulled.

        The fresh bound entry restores the bound-heap invariant even
        when a non-monotone drain *lowered* the block's candidate.
        """
        if index == self._front:
            self._advance_placement()
            if index < self._front:  # exhausted, passed and dropped
                return
        floor = block.floor
        if floor < math.inf:
            heapq.heappush(self._floor_heap, (floor, index))
        candidate = block.suffix_min(self._placed if index == self._front else 0)
        if candidate < math.inf:
            heapq.heappush(self._bound_heap, (candidate, index))

    def _pull(self, block: LazyServiceCursor, pull) -> None:
        """Run *pull* on an unexhausted *block*, keeping the counters.

        One pull may drain many pages (``ensure_all``, or the
        non-monotone fallback of ``pull_page``), so the tuple counter
        moves by a before/after delta rather than a fixed increment.
        """
        tuples_before = block.tuples_fetched
        if not block.pages_fetched:
            self._untouched -= 1
        pull()
        self._tuples_fetched += block.tuples_fetched - tuples_before

    def _pull_block(self, index: int, block: LazyServiceCursor) -> None:
        """Pull one page from *block*, maintaining counters and heaps."""
        self._pull(block, block.pull_page)
        self._open_bound = None
        self._file(index, block)

    def _advance_placement(self) -> None:
        """Place newly placeable rows, advancing the front over drained
        blocks (and dropping them).  Keeps ``rows`` a prefix of the
        eager concatenation."""
        blocks = self._blocks
        while self._front < self._opened:
            block = blocks[self._front]
            placed = self._placed
            if placed < len(block.rows):
                self.rows.extend(block.rows[placed:])
                self.ranks.extend(block.ranks[placed:])
                self._placed = len(block.rows)
            if not block.exhausted:
                break
            del blocks[self._front]
            self._front += 1
            self._placed = 0
        if not blocks:
            # Every heap entry names a dropped block now.
            self._floor_heap.clear()
            self._bound_heap.clear()

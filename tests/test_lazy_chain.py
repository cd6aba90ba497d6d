"""The oracle suite for demand-driven pipe chains and growth in place.

A service-terminal plan streams its whole single-consumer pipe chain:
every service step above the answer is a lazy cursor fed by the cursor
above it, and a session whose only growable step is the chain's head
continues the suspended walk under grown factors instead of running the
plan again.  Five layers, each against something that shares no code
with the path it checks:

* **chains vs. the reference interpreter** — random chains of depth
  1–4 over synthetic table services must return exactly
  ``compose_ranking(reference_execute(...), k)`` under every cache
  setting, pulling a subset of what the eager-streamed fixture pulls;
* **growth in place vs. growth by re-execution** — the same random
  session script against :class:`~repro.testing.ReexecutingExecutor`:
  same ladder, same answers, fewer tuples processed;
* **the cursor over a growing feed** — step by step against the
  linear-scan reference of ``tests/test_lazy_multifeed.py``, and over
  a materialized feed pull for pull against the policy that opened
  every block up front;
* **serving** — ``ask_for_more`` on service-terminal templates is a
  resume;
* **faults mid-chain** — restart, demotion and drift splice keep the
  certificate and the accounting identity of the eager walk.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_lazy_multifeed import _LinearScanReference, _cursor_over, _paged
from test_resilience import _count_invocations

from repro.execution.cache import CacheSetting, OptimalCache
from repro.execution.engine import ChainStream, ExecutionEngine, ExecutionMode
from repro.execution.lazy import (
    LazyServiceCursor,
    MaterializedCursor,
    MultiFeedCursor,
)
from repro.execution.program import ExecutionProgram
from repro.execution.progressive import ProgressiveExecutor
from repro.execution.resilience import ResilienceConfig
from repro.execution.results import Row, compose_ranking
from repro.model.atoms import Atom
from repro.model.predicates import Comparison
from repro.model.query import ConjunctiveQuery
from repro.model.schema import signature
from repro.model.terms import Constant, Variable
from repro.plans.builder import PlanBuilder, chain_poset
from repro.services.profile import exact_profile, search_profile
from repro.services.registry import ServiceRegistry
from repro.services.table import TableExactService, TableSearchService
from repro.testing import (
    FaultSchedule,
    FlakyService,
    ListPageSource,
    ReexecutingExecutor,
    eager_streamed_engine,
    reference_execute,
)


def _signature(rows):
    """Bindings and per-service rank values (node ids differ from one
    build of a plan to the next)."""
    return [(dict(r.bindings), [rank for _, rank in r.ranks]) for r in rows]


# -- random chain worlds -----------------------------------------------------

#: Per level: ranked?, chunk size (None: bulk, exact services only),
#: fetching factor.
_level = st.tuples(st.booleans(), st.one_of(st.none(), st.integers(1, 5)),
                   st.integers(1, 4))


@st.composite
def _chains(draw, growable: bool = False):
    """``(levels, seed, residual threshold or None)`` of a random chain.

    *growable*: only the head is chunked (every later level is an
    exact bulk service) — the shape growth in place is compiled for.
    """
    depth = draw(st.integers(1, 4))
    levels = [draw(_level) for _ in range(depth)]
    if growable:
        ranked, chunk, fetches = levels[0]
        levels = [(ranked, chunk or 2, fetches)] + [(False, None, 1)] * (depth - 1)
    seed = draw(st.integers(0, 10**6))
    residual = draw(st.one_of(st.none(), st.integers(0, 9)))
    return levels, seed, residual


def _chain_world(levels, seed, residual=None):
    """``s0('q', X0, V0), s1(X0, X1, V1), ...`` as a pipe-chain plan.

    Keys are drawn from three values, so blocks repeat (logical-cache
    hits) and fan-out is random, empty blocks included; ``Vi`` scores
    the ranked levels.  With *residual* the last level's ``V <= t``
    predicate is moved to the output node, where only the streamed
    walk can apply it.
    """
    rng = random.Random(seed)
    registry = ServiceRegistry()
    atoms, head = [], []
    for index, (ranked, chunk, _) in enumerate(levels):
        name = f"s{index}"
        if index == 0:
            rows = [("q", rng.randrange(3), rng.randrange(10))
                    for _ in range(rng.randrange(8))]
        else:
            rows = [(key, rng.randrange(3), rng.randrange(10))
                    for key in range(3) for _ in range(rng.randrange(4))]
        # Each level scores its own domain: no level is another's
        # sibling, so partial results drop a dead unit, never reroute it.
        sig = signature(name, ["In", "Out", f"Val{index}"], ["ioo"])
        if ranked:
            service = TableSearchService(
                sig, search_profile(chunk_size=chunk or 2, response_time=1.0),
                rows, score=lambda row: float(-row[2]),
            )
        else:
            service = TableExactService(
                sig, exact_profile(erspi=2.0, response_time=1.0, chunk_size=chunk),
                rows,
            )
        registry.register(service)
        feed = Constant("q") if index == 0 else Variable(f"X{index - 1}")
        out, val = Variable(f"X{index}"), Variable(f"V{index}")
        atoms.append(Atom(name, (feed, out, val)))
        head += [out, val]
    predicates = ()
    if residual is not None:
        predicates = (Comparison(head[-1], "<=", Constant(residual)),)
    query = ConjunctiveQuery(
        name="chain", head=tuple(head), atoms=tuple(atoms), predicates=predicates
    )
    depth = len(levels)
    plan = PlanBuilder(query, registry).build(
        tuple(registry.signature(f"s{i}").pattern("ioo") for i in range(depth)),
        chain_poset(depth, range(depth)),
        fetches={i: fetches for i, (_, _, fetches) in enumerate(levels)},
    )
    if residual is not None:
        last = plan.predecessors(plan.output_node)[0]
        plan.output_node.residual_predicates = tuple(last.predicates)
        last.predicates = ()
    return registry, tuple(query.head), plan


_SETTINGS = (
    (CacheSetting.NO_CACHE, None),
    (CacheSetting.OPTIMAL, None),
    (CacheSetting.OPTIMAL, 3),
)


def _run(engine, plan, head, k, capacity):
    return engine.execute(
        plan, head=head, k=k,
        shared_cache=OptimalCache(capacity=capacity) if capacity else None,
    )


class TestChainsMatchTheReference:
    @given(_chains(), st.integers(0, 12))
    @settings(max_examples=70, deadline=None)
    def test_rows_ranks_and_order_equal_the_interpreter(self, chain, k):
        levels, seed, residual = chain
        registry, head, plan = _chain_world(levels, seed, residual)
        expected = compose_ranking(reference_execute(plan, registry).rows, k)
        program = ExecutionProgram.compile(plan, head)
        assert program.lazy == frozenset(range(1, len(levels) + 1))
        for setting, capacity in _SETTINGS:
            lazy = _run(
                ExecutionEngine(
                    registry, cache_setting=setting, mode=ExecutionMode.STREAMED
                ),
                program, head, k, capacity,
            )
            eager = _run(
                eager_streamed_engine(registry, cache_setting=setting),
                program, head, k, capacity,
            )
            assert _signature(lazy.rows) == _signature(expected)
            assert _signature(eager.rows) == _signature(expected)
            assert isinstance(lazy.stream, ChainStream)
            # The pages pulled are a subset of the eager universe ...
            assert lazy.stats.tuples_processed <= eager.stats.tuples_processed
            if capacity is None:
                # ... so without evictions (whose victims depend on the
                # order pages arrive in) remote traffic never exceeds
                # the eager walk's.
                assert lazy.stats.total_fetches <= eager.stats.total_fetches
                assert (
                    lazy.stats.total_tuples_fetched
                    <= eager.stats.total_tuples_fetched
                )
            # A complete answer is the whole answer.
            if lazy.complete:
                assert _signature(lazy.rows) == _signature(
                    reference_execute(plan, registry).rows
                )
            # Draining the suspended walk yields everything.
            assert _signature(lazy.stream.top(None)) == _signature(
                reference_execute(plan, registry).rows
            )

    @given(_chains(), st.integers(0, 6), st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_resumed_chain_stays_exact_and_never_repulls(self, chain, k1, extra):
        levels, seed, residual = chain
        registry, head, plan = _chain_world(levels, seed, residual)
        everything = reference_execute(plan, registry).rows
        engine = ExecutionEngine(registry, mode=ExecutionMode.STREAMED)
        first = engine.execute(plan, head=head, k=k1)
        assert _signature(first.rows) == _signature(
            compose_ranking(everything, k1)
        )
        program = ExecutionProgram.compile(plan, head)
        more = engine.resume(program, first, k1 + extra)
        assert _signature(more.rows) == _signature(
            compose_ranking(everything, k1 + extra)
        )
        # NO_CACHE: every pull is a remote fetch, so the two rounds
        # together pulling no more than one eager walk means no page
        # was pulled twice.
        eager = eager_streamed_engine(registry).execute(
            plan, head=head, k=k1 + extra
        )
        assert (
            first.stats.total_fetches + more.stats.total_fetches
            <= eager.stats.total_fetches
        )

    @given(_chains(), st.integers(0, 10**6), st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_corrupted_pages_never_change_the_answer(self, chain, fault_seed, k):
        """Truncated, duplicated and reordered pages: a block whose
        ranks regress drains itself, and the chain still agrees with a
        full scan of the same faulted world."""
        levels, seed, residual = chain
        registry, head, plan = _chain_world(levels, seed, residual)
        schedule = FaultSchedule(
            seed=fault_seed, truncate_rate=0.15, duplicate_rate=0.15,
            reorder_rate=0.3,
        )
        for name in registry.names:
            registry._services[name] = FlakyService(
                registry.service(name), schedule
            )
        lazy = ExecutionEngine(registry, mode=ExecutionMode.STREAMED).execute(
            plan, head=head, k=k
        )
        oracle = ExecutionEngine(registry, mode=ExecutionMode.PARALLEL).execute(
            plan, head=head
        )
        assert _signature(lazy.rows) == _signature(compose_ranking(oracle.rows, k))
        assert lazy.stats.total_fetches <= oracle.stats.total_fetches


# -- growth in place vs. growth by re-execution ------------------------------

_script = st.lists(
    st.tuples(st.sampled_from(("run", "more")), st.integers(0, 9)),
    min_size=1, max_size=5,
)


def _play(executor, script):
    """The observable trace of a session script, step by step."""
    trace = []
    for verb, n in script:
        result = executor.run(n) if verb == "run" else executor.more(n)
        trace.append((
            _signature(result.rows),
            [r.rank_key() for r in result.rows],
            result.complete,
            executor.fetch_vector(),
        ))
    return trace


class TestGrowthInPlace:
    @given(_chains(growable=True), _script)
    @settings(max_examples=70, deadline=None)
    def test_same_ladder_and_answers_as_re_execution(self, chain, script):
        levels, seed, residual = chain
        executors = []
        for cls in (ProgressiveExecutor, ReexecutingExecutor):
            registry, head, plan = _chain_world(levels, seed, residual)
            executors.append(cls(
                registry=registry, plan=plan, head=head,
                mode=ExecutionMode.STREAMED,
            ))
        in_place, re_executing = executors
        assert in_place._program.grows_in_place
        assert _play(in_place, script) == _play(re_executing, script)
        assert [r.fetches for r in in_place.rounds] == [
            r.fetches for r in re_executing.rounds
        ]
        # A continued round stands exactly where a re-execution stands.
        assert [r.grown or not r.resumed for r in in_place.rounds] == [
            not r.resumed for r in re_executing.rounds
        ]
        assert not any(r.grown for r in re_executing.rounds)
        ours = sum(r.stats.tuples_processed for r in in_place.rounds)
        theirs = sum(r.stats.tuples_processed for r in re_executing.rounds)
        assert ours <= theirs
        grown = [i for i, r in enumerate(in_place.rounds) if r.grown]
        if grown and any(
            r.stats.tuples_processed for r in in_place.rounds[: grown[0]]
        ):
            # The re-execution pays every earlier round again.
            assert ours < theirs

    def test_growth_pays_new_pages_only(self):
        """Head of one tuple a page, F = 1, k = 6: five growth rounds.
        In place processes each tuple once; re-execution processes the
        first round's six times."""
        rounds = {}
        for cls in (ProgressiveExecutor, ReexecutingExecutor):
            registry = ServiceRegistry()
            registry.register(TableSearchService(
                signature("s0", ["In", "Out", "Val"], ["ioo"]),
                search_profile(chunk_size=1, response_time=1.0),
                [("q", x, x) for x in range(40)],
                score=lambda row: float(-row[2]),
            ))
            registry.register(TableExactService(
                signature("s1", ["In", "Out", "Val"], ["ioo"]),
                exact_profile(erspi=1.0, response_time=2.0),
                [(x, x, 0) for x in range(40)],
            ))
            query = ConjunctiveQuery(
                name="ladder",
                head=(Variable("X0"), Variable("X1")),
                atoms=(
                    Atom("s0", (Constant("q"), Variable("X0"), Variable("V0"))),
                    Atom("s1", (Variable("X0"), Variable("X1"), Variable("V1"))),
                ),
                predicates=(),
            )
            plan = PlanBuilder(query, registry).build(
                tuple(registry.signature(f"s{i}").pattern("ioo") for i in range(2)),
                chain_poset(2, range(2)), fetches={0: 1},
            )
            executor = cls(
                registry=registry, plan=plan, head=tuple(query.head),
                mode=ExecutionMode.STREAMED,
            )
            result = executor.run(6)
            assert len(result.rows) == 6
            rounds[cls] = executor.rounds
        ours, theirs = rounds[ProgressiveExecutor], rounds[ReexecutingExecutor]
        assert [r.fetches for r in ours] == [r.fetches for r in theirs] == [
            {0: 1}, {0: 2}, {0: 4}, {0: 8},
        ]
        assert [r.grown for r in ours] == [False, True, True, True]
        # New pages only: 1, then 1, 2 and the 2 of 4 the walk needs.
        assert [r.stats.service("s0").fetches for r in ours] == [1, 1, 2, 2]
        assert [r.stats.tuples_processed for r in ours] == [2, 2, 4, 4]
        # The re-execution walks from page 0 every round (its pages
        # answered by the session's cache, but processed all the same).
        assert [r.stats.tuples_processed for r in theirs] == [2, 4, 8, 12]
        # Series, not max: a continued round's virtual time adds the
        # head's second to the lookup's two, per new tuple.
        assert [r.elapsed for r in ours] == [3.0, 3.0, 6.0, 6.0]

    def test_multi_feed_or_joined_growable_steps_still_re_execute(self):
        from repro.serving import QueryService
        from repro.sources.weekend import mahler_weekend_query, weekend_registry

        # Weekend: concerts -> lowcost, the growable step is multi-feed.
        service = QueryService(registry=weekend_registry())
        response = service.submit(mahler_weekend_query(), k=3)
        executor = service.sessions.get(response.session_id).executor
        program = executor._program
        assert program.lazy and not program.grows_in_place
        executor.run(10_000)
        growth = [r for r in executor.rounds[1:] if not r.resumed]
        assert growth and not any(r.grown for r in executor.rounds)
        # A growable step under a join: the travel plan.
        from repro.sources.travel import (
            alpha1_patterns, poset_optimal, running_example_query, travel_registry,
        )

        registry = travel_registry()
        query = running_example_query()
        plan = PlanBuilder(query, registry).build(alpha1_patterns(), poset_optimal())
        assert not ExecutionProgram.compile(plan, query.head).grows_in_place
        # Two growable steps on one chain: a middle factor would insert
        # rows mid-stream, not append them.
        _, head, plan = _chain_world([(True, 2, 1), (True, 2, 1)], seed=1)
        assert not ExecutionProgram.compile(plan, head).grows_in_place


# -- the cursor over a growing feed ------------------------------------------


class _LoggedSource(ListPageSource):
    """A page source that also appends ``(owner, page)`` to a shared log."""

    def __init__(self, log, owner, **fields):
        super().__init__(**fields)
        self._log, self._owner = log, owner

    def fetch(self, page):
        self._log.append((self._owner, page))
        return super().fetch(page)


def _floors(ranks, pages):
    """Tightest sound floor after each page: the next rank to come."""
    floors, seen = [], 0
    for page in pages:
        seen += len(page)
        floors.append(ranks[seen] if seen < len(ranks) else 10**9)
    return floors


def _block_cursors(spec, chunk, log):
    """One logged block per ``(base rank, service ranks)`` + eager rows."""
    budget = max((len(_paged(r, chunk)) for _, r in spec), default=1)
    blocks, eager = [], []
    for index, (base, service_ranks) in enumerate(spec):
        ordered = sorted(service_ranks)
        rows = [
            Row(bindings={Variable("B"): index, Variable("I"): i},
                ranks=(("feed", base), ("svc", rank)))
            for i, rank in enumerate(ordered)
        ]
        eager += rows
        pages = _paged(rows, chunk)
        blocks.append(LazyServiceCursor(
            _LoggedSource(log, index, pages=pages, budget=budget,
                          rank_floors=_floors(ordered, pages)),
            base_rank=base,
        ))
    return blocks, eager, budget


_spec = st.lists(
    st.tuples(st.integers(0, 6), st.lists(st.integers(0, 6), max_size=5)),
    max_size=6,
)


def _lazy_feed(spec, feed_chunk, log):
    """The feed of *spec*'s blocks as a lazy cursor: one row per block,
    carrying its base rank, paged by *feed_chunk*."""
    feed_rows = [
        Row(bindings={Variable("F"): index}, ranks=(("feed", base),))
        for index, (base, _) in enumerate(spec)
    ]
    pages = _paged(feed_rows, feed_chunk)
    return LazyServiceCursor(_LoggedSource(
        log, "feed", pages=pages,
        rank_floors=_floors([base for base, _ in spec], pages),
    ))


class _ScanningPolicy:
    """The fetch policy by linear scans, over cursors of its own.

    Every block of a feed row pulled so far is a candidate, by its
    ``(floor, index)``; the rows the feed has not produced yet compete
    through the feed's own bound and win only when strictly lower.
    Placement is recomputed from scratch: the rows of every known block
    up to the first one that is not exhausted.
    """

    def __init__(self, spec, chunk, feed_chunk, log):
        self.blocks, _, _ = _block_cursors(spec, chunk, log)
        self.feed = _lazy_feed(spec, feed_chunk, log)

    def _known(self):
        return self.blocks[: len(self.feed.ranks)]

    def placed(self) -> int:
        known = self._known()
        front = next(
            (i for i, b in enumerate(known) if not b.exhausted), len(known)
        )
        return sum(len(b.rows) for b in known[: front + 1])

    def ensure(self, count: int) -> None:
        while self.placed() < count:
            known = self._known()
            live = [(b.floor, i) for i, b in enumerate(known) if not b.exhausted]
            if live and min(live)[0] <= self.feed.suffix_min(len(known)):
                known[min(live)[1]].pull_page()
            elif self.feed.exhausted:
                return
            else:
                self.feed.ensure(len(known) + 1)


class TestCursorOverAGrowingFeed:
    @given(_spec, st.integers(1, 3), st.integers(1, 3), st.booleans(),
           st.lists(st.integers(1, 4), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_pulls_bound_and_counters_match_the_linear_scans(
        self, spec, chunk, feed_chunk, sort_feed, demands
    ):
        """The feed is itself a lazy cursor: blocks exist only for the
        feed rows pulled so far, and the feed's own bound competes."""
        if sort_feed:  # a monotone feed is the common case; cover both
            spec = sorted(spec, key=lambda block: block[0])
        log, policy_log = [], []
        blocks, eager, budget = _block_cursors(spec, chunk, log)
        feed = _lazy_feed(spec, feed_chunk, log)
        opening = iter(blocks)
        cursor = MultiFeedCursor(feed, lambda row, rank: next(opening), budget)
        cursor.all_blocks = blocks
        policy = _ScanningPolicy(spec, chunk, feed_chunk, policy_log)
        reference = _LinearScanReference
        for demand in demands:
            target = len(cursor.rows) + demand
            cursor.ensure(target)
            policy.ensure(target)
            # the same pages, from the same owners, in the same order
            assert log == policy_log
            assert len(cursor.rows) == policy.placed()
            # placement: always a prefix of the eager concatenation
            assert _signature(cursor.rows) == _signature(eager[: len(cursor.rows)])
            # the bound, and the counters, as scans over the cursor's
            # own blocks compute them
            for start in range(len(cursor.rows) + 2):
                assert cursor.suffix_min(start) == min(
                    [r.rank_key() for r in cursor.rows[start:]]
                    + [reference.unplaced_bound(cursor)]
                )
            untouched, tuples, saved = reference.counters(cursor)
            assert cursor.blocks_untouched - feed.blocks_untouched == untouched
            assert cursor.tuples_fetched - feed.tuples_fetched == tuples
            assert cursor.pages_saved() - feed.pages_saved() == saved
        cursor.ensure_all()
        assert _signature(cursor.rows) == _signature(eager)
        assert cursor.exhausted and cursor.suffix_min(0) == min(
            [r.rank_key() for r in eager], default=math.inf
        )
        # nothing was ever pulled twice
        assert len(log) == len(set(log))

    @given(_spec, st.integers(1, 3), st.lists(st.integers(1, 4), max_size=8))
    @settings(max_examples=120, deadline=None)
    def test_materialized_feed_pulls_what_opening_every_block_pulled(
        self, spec, chunk, demands
    ):
        """Pull for pull: the policy that opened every block up front
        and scanned them all for the lowest ``(floor, index)``."""
        log, parent_log = [], []
        blocks, eager, _ = _block_cursors(spec, chunk, log)
        cursor = _cursor_over(blocks)
        parents, _, _ = _block_cursors(spec, chunk, parent_log)

        def parent_placed():
            front = next(
                (i for i, b in enumerate(parents) if not b.exhausted), len(parents)
            )
            return sum(len(b.rows) for b in parents[: front + 1])

        for demand in demands:
            target = len(cursor.rows) + demand
            cursor.ensure(target)
            while parent_placed() < target:
                live = [
                    (b.floor, i) for i, b in enumerate(parents) if not b.exhausted
                ]
                if not live:
                    break
                parents[min(live)[1]].pull_page()
            assert log == parent_log
            assert len(cursor.rows) == parent_placed()
        assert _signature(cursor.rows) == _signature(eager[: len(cursor.rows)])

    def test_a_non_monotone_block_drains_itself_only(self):
        """Over a lazy feed too: the regressing block falls back to a
        full fetch the moment it is observed, its neighbours stay lazy
        and the feed is not pulled any further for it."""
        log = []
        (clean, late), _, budget = _block_cursors(
            [(3, [0, 1, 2, 3]), (9, [0, 1, 2, 3])], 2, log
        )
        rows = [
            Row(bindings={Variable("I"): i}, ranks=(("feed", 0), ("svc", rank)))
            for i, rank in enumerate([5, 1, 2, 3])
        ]
        regressing = LazyServiceCursor(_LoggedSource(
            log, "bad", pages=_paged(rows, 2), rank_floors=[1, 10**9]
        ))
        feed_rows = [
            Row(bindings={Variable("F"): i}, ranks=(("feed", base),))
            for i, base in enumerate([0, 3, 9])
        ]
        feed = LazyServiceCursor(_LoggedSource(
            log, "feed", pages=_paged(feed_rows, 1), rank_floors=[3, 9, 10**9]
        ))
        opening = iter([regressing, clean, late])
        cursor = MultiFeedCursor(feed, lambda row, rank: next(opening), budget)
        cursor.ensure(1)
        assert regressing.exhausted and regressing.pages_fetched == 2
        assert clean.pages_fetched == 0 and late.pages_fetched == 0
        assert feed.pages_fetched == 1
        assert cursor.suffix_min(0) == 1  # exact minima over the drained block

    def test_a_suspended_chain_retains_open_blocks_not_what_it_pulled(self):
        """Passed blocks are dropped and consumed feed rows released:
        the counters are running totals and survive."""
        log = []
        spec = [(base, [0, 1]) for base in range(50)]
        blocks, eager, budget = _block_cursors(spec, 2, log)
        feed_rows = [
            Row(bindings={Variable("F"): i}, ranks=(("feed", base),))
            for i, (base, _) in enumerate(spec)
        ]
        feed = MaterializedCursor(feed_rows)
        opening = iter(blocks)
        cursor = MultiFeedCursor(feed, lambda row, rank: next(opening), budget)
        cursor.ensure(60)
        assert len(cursor.rows) == 60
        assert len(cursor._blocks) <= 1  # the front, at most
        assert feed.rows[:30] == [None] * 30 and feed.rows[40] is not None
        assert cursor.tuples_fetched == 60
        assert cursor.block_count == 50 and cursor.blocks_untouched == 20


# -- serving: ask_for_more on service-terminal templates ----------------------


#: The service-terminal templates of the frozen bench's Zipf fleet.
_TEMPLATES = {
    "weekend": (
        "weekend(City, Date, Price, Venue) :- "
        "lowcost('Milano', City, Date, Price), "
        "concerts(City, Date, 'Mahler', Venue), "
        "Date >= '2008-04-01', Date <= '2008-04-30', Price <= 120."
    ),
    "bio": (
        "homologs(Human, Mouse, Domain, Score) :- kegg('glycolysis', Human), "
        "uniprot(Human, 'human', Gene), blast(Human, Mouse, Score), "
        "uniprot(Mouse, 'mouse', MouseGene), interpro(Mouse, Domain, Repeats), "
        "Score >= 500, Repeats >= 2."
    ),
}


class TestServingResumes:
    @pytest.mark.parametrize("domain", sorted(_TEMPLATES))
    def test_more_is_a_resume_and_adds_up_to_one_submit(self, domain):
        from repro.serving import QueryService
        from repro.sources.bio import bio_registry
        from repro.sources.weekend import weekend_registry

        make_registry = {"weekend": weekend_registry, "bio": bio_registry}[domain]
        text = _TEMPLATES[domain]

        def session(service):
            """submit(3) + 3 x more(3): responses and the rounds of each."""
            first = service.submit(text, k=3)
            executor = service.sessions.get(first.session_id).executor
            assert isinstance(executor._last_result.stream, ChainStream)
            responses, rounds = [first], [list(executor.rounds)]
            for _ in range(3):
                before = len(executor.rounds)
                responses.append(service.ask_for_more(first.session_id, 3))
                rounds.append(executor.rounds[before:])
            return responses, rounds

        service = QueryService(registry=make_registry())
        responses, rounds = session(service)
        for response, (latest,) in zip(responses[1:], rounds[1:]):
            # One round, and it is the suspended walk going on.
            assert response.stats["rounds"] == 1
            assert latest.resumed and not latest.grown
        at_once = QueryService(registry=make_registry()).submit(text, k=12)
        last = responses[-1]
        assert (last.rows, last.rank_keys, last.complete) == (
            at_once.rows, at_once.rank_keys, at_once.complete
        )
        assert [[rank for _, rank in row] for row in last.ranks] == [
            [rank for _, rank in row] for row in at_once.ranks
        ]
        # Step by step pulls what one submit pulls, page for page:
        # nothing is fetched, or even looked up, twice on the way.
        for counter in (
            "service_calls", "page_fetches", "tuples_fetched", "cache_hits",
        ):
            assert sum(r.stats[counter] for r in responses) == (
                at_once.stats[counter]
            ), counter
        # A second session of the same query finds every page in the
        # service's shared cache: its continuations call no service,
        # and process tuples only for pages new to *this* session.
        responses, rounds = session(service)
        for response, (latest,) in zip(responses[1:], rounds[1:]):
            assert response.stats["rounds"] == 1
            assert response.stats["service_calls"] == 0
            assert response.stats["page_fetches"] == 0
            assert (latest.stats.tuples_processed == 0) == (
                response.stats["cache_hits"] == 0
            )
        assert rounds[-1][0].stats.tuples_processed == 0


# -- faults mid-chain ---------------------------------------------------------


#: ranked head (chunk 2, F 3) -> ranked middle (chunk 2, F 2) -> lookup.
_FAULT_CHAIN = [(True, 2, 3), (True, 2, 2), (False, None, 1)]
_PARTIAL = ResilienceConfig(attempts=2, partial_results=True)


class TestFaultsMidChain:
    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_partial_results_restart(self, seed, fault_seed, k):
        """A unit that dies mid-chain costs a restart, is dropped with
        a certificate, and every invocation stays accounted."""

        def run(make_engine):
            registry, head, plan = _chain_world(_FAULT_CHAIN, seed)
            schedule = FaultSchedule(seed=fault_seed, fail_rate=0.25)
            for name in registry.names:
                registry._services[name] = FlakyService(
                    registry.service(name), schedule, attempt_aware=True
                )
            proxies = _count_invocations(registry)
            result = make_engine(registry).execute(plan, head=head, k=k)
            return sum(p.invocations for p in proxies.values()), result

        outcomes = {}
        for name, make_engine in (
            ("lazy", lambda registry: ExecutionEngine(
                registry, mode=ExecutionMode.STREAMED, resilience=_PARTIAL)),
            ("eager", lambda registry: eager_streamed_engine(
                registry, resilience=_PARTIAL)),
        ):
            invocations, result = run(make_engine)
            stats = result.stats
            assert invocations == stats.total_fetches + stats.wasted_fetches
            assert result.certificate is not None
            assert stats.demoted_blocks == len(result.certificate.dropped)
            outcomes[name] = result
        # The two walks pull different pages, so (retries drawing per
        # attempt) they meet different failures; what each must equal
        # is the masked oracle: the eager walk over a clean world with
        # the dropped units masked up front — answer and certificate.
        for result in outcomes.values():
            registry, head, plan = _chain_world(_FAULT_CHAIN, seed)
            oracle_engine = eager_streamed_engine(
                registry, resilience=ResilienceConfig(partial_results=True)
            )
            for unit in result.certificate.dropped:
                oracle_engine.mask_unit(unit.service, unit.input_key)
            oracle = oracle_engine.execute(plan, head=head, k=k)
            assert _signature(oracle.rows) == _signature(result.rows)
            assert [u.token for u in oracle.certificate.dropped] == [
                u.token for u in result.certificate.dropped
            ]
            assert oracle.certificate.answer_units == (
                result.certificate.answer_units
            )

    @given(st.integers(0, 10**6), st.integers(0, 2), st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_a_demoted_unit_is_a_block_exhausted_from_birth(self, seed, key, k):
        results = []
        for make_engine in (
            lambda registry: ExecutionEngine(
                registry, mode=ExecutionMode.STREAMED,
                resilience=ResilienceConfig(partial_results=True)),
            lambda registry: eager_streamed_engine(
                registry, resilience=ResilienceConfig(partial_results=True)),
        ):
            registry, head, plan = _chain_world(_FAULT_CHAIN, seed)
            proxies = _count_invocations(registry)
            engine = make_engine(registry)
            engine.mask_unit("s1", ("ioo", ((0, key),)))
            result = engine.execute(plan, head=head, k=k)
            assert sum(p.invocations for p in proxies.values()) == (
                result.stats.total_fetches + result.stats.wasted_fetches
            )
            results.append(result)
        lazy, eager = results
        assert _signature(lazy.rows) == _signature(eager.rows)
        assert [u.token for u in lazy.certificate.dropped] == [
            u.token for u in eager.certificate.dropped
        ]
        assert lazy.certificate.answer_units == eager.certificate.answer_units
        x0 = Variable("X0")
        assert all(row.bindings[x0] != key for row in lazy.rows)
        assert lazy.stats.calls("s1") <= eager.stats.calls("s1")

    def test_a_drift_splice_mid_chain_keeps_rows_and_accounting(self):
        """The middle service answers 25x slower than costed: the chain
        aborts on the drift, the splice re-serves every pulled page
        from the session's cache and the answers are the static run's."""

        registry, head, plan = _chain_world(_FAULT_CHAIN, seed=3)
        registry._services["s1"] = FlakyService(
            registry.service("s1"), FaultSchedule(seed=7, delay_rate=1.0)
        )
        proxies = _count_invocations(registry)
        executor = ProgressiveExecutor(
            registry=registry, plan=plan, head=head,
            mode=ExecutionMode.STREAMED, replan=lambda observed: None,
        )
        result = executor.run(4)
        more = executor.more(3)
        assert executor.replans == 1
        (event,) = executor.drift_events
        assert event.service == "s1"
        aborted = executor.rounds[0]
        assert aborted.answers == 0 and aborted.stats.total_fetches > 0
        # the aborted walk's series time: head page + the slow lookup
        assert aborted.elapsed >= 25.0
        static_registry, head, static_plan = _chain_world(_FAULT_CHAIN, seed=3)
        static = ProgressiveExecutor(
            registry=static_registry, plan=static_plan, head=head,
            mode=ExecutionMode.STREAMED,
        )
        assert _signature(result.rows) == _signature(static.run(4).rows)
        assert _signature(more.rows) == _signature(static.more(3).rows)
        stats = [r.stats for r in executor.rounds]
        assert sum(p.invocations for p in proxies.values()) == sum(
            s.total_fetches + s.wasted_fetches for s in stats
        )
        # ... and no page pulled before the splice is pulled again.
        assert sum(s.total_fetches for s in stats) == sum(
            r.stats.total_fetches for r in static.rounds
        )

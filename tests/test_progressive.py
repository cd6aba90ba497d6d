"""Tests for progressive execution ("ask for more", Section 2.2)."""

import pytest

from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine, ExecutionMode
from repro.execution.progressive import MAX_ROUNDS, ProgressiveExecutor
from repro.execution.results import compose_ranking
from repro.plans.builder import PlanBuilder, chain_poset
from repro.sources.travel import (
    FLIGHT_ATOM,
    HOTEL_ATOM,
    alpha1_patterns,
    poset_optimal,
)
from repro.testing import FaultSchedule, FlakyService, eager_streamed_engine


@pytest.fixture()
def executor(registry, travel_query):
    plan = PlanBuilder(travel_query, registry).build(
        alpha1_patterns(), poset_optimal(),
        fetches={FLIGHT_ATOM: 1, HOTEL_ATOM: 1},
    )
    return ProgressiveExecutor(
        registry=registry, plan=plan, head=tuple(travel_query.head)
    )


class TestRun:
    def test_reaches_k(self, executor):
        result = executor.run(k=10)
        assert len(result.rows) >= 10

    def test_single_round_when_enough(self, executor):
        executor.run(k=1)
        assert len(executor.rounds) == 1

    def test_fetches_grow_monotonically(self, executor):
        executor.run(k=100)
        vectors = [r.fetches for r in executor.rounds]
        for earlier, later in zip(vectors, vectors[1:]):
            for atom_index in earlier:
                assert later[atom_index] >= earlier[atom_index]

    def test_continuation_reuses_cache(self, registry, travel_query):
        plan = PlanBuilder(travel_query, registry).build(
            alpha1_patterns(), poset_optimal(),
            fetches={FLIGHT_ATOM: 1, HOTEL_ATOM: 1},
        )
        executor = ProgressiveExecutor(
            registry=registry, plan=plan, head=tuple(travel_query.head)
        )
        first = executor.run(k=5)
        before = first.stats.calls("weather")
        more = executor.more(20)
        # The continuation round answers all previously-issued calls
        # from the shared optimal cache: weather needs no new calls.
        assert more.stats.calls("weather") <= before
        assert more.stats.total_cache_hits > 0
        assert len(more.rows) >= len(first.rows)

    def test_more_is_incremental(self, executor):
        first = executor.run(k=3)
        extended = executor.more(10)
        assert len(extended.rows) >= min(13, len(first.rows) + 1)

    def test_round_history_is_an_output_of_each_executor(
        self, registry, travel_query, executor
    ):
        """A run's rounds and drift events are what the executor records,
        never what a caller hands it, and the round cap is the module's
        ``MAX_ROUNDS``: each executor starts with its own empty history."""
        for name in ("rounds", "drift_events", "max_rounds"):
            with pytest.raises(TypeError, match=name):
                ProgressiveExecutor(
                    registry=registry, plan=executor.plan,
                    head=tuple(travel_query.head), **{name: []},
                )
        other = ProgressiveExecutor(
            registry=registry, plan=executor.plan,
            head=tuple(travel_query.head),
        )
        executor.run(k=5)
        assert executor.rounds and (other.rounds, other.drift_events) == ([], [])


class TestStreamedResume:
    """STREAMED continuations resume the suspended JoinStream: asking
    for more walks further into the already-materialized candidate
    plane, so no service call issued in an earlier round is ever
    repeated — under *any* logical-cache setting."""

    def _executor(self, registry, travel_query, setting, lazy=True):
        plan = PlanBuilder(travel_query, registry).build(
            alpha1_patterns(), poset_optimal(),
            fetches={FLIGHT_ATOM: 2, HOTEL_ATOM: 2},
        )
        executor = ProgressiveExecutor(
            registry=registry,
            plan=plan,
            head=tuple(travel_query.head),
            mode=ExecutionMode.STREAMED,
            cache_setting=setting,
        )
        if not lazy:
            executor._engine = eager_streamed_engine(
                registry, cache_setting=setting
            )
        return executor

    @pytest.mark.parametrize("setting", list(CacheSetting), ids=lambda s: s.value)
    def test_resumed_stream_issues_no_service_calls(
        self, registry, travel_query, setting
    ):
        """With eager materialization (the eager-streamed reference
        engine swapped in under the executor) the
        suspended plane is fully fetched up front, so a resume is pure
        walk: zero service interaction under every cache setting.
        (Lazy resumes may pull budgeted pages; their honest accounting
        is pinned by :class:`TestLazyStreamedResume` and
        ``tests/test_lazy_multifeed.py``.)"""
        executor = self._executor(registry, travel_query, setting, lazy=False)
        first = executor.run(k=2)
        assert first.stream is not None
        assert len(first.rows) == 2
        more = executor.more(3)
        latest = executor.rounds[-1]
        assert latest.resumed
        assert latest.new_calls == 0
        # No service interaction at all: the resumed round issues no
        # call, no fetch, and not even a logical-cache lookup — the
        # counters stay at zero under every cache setting.
        assert more.stats.total_calls == 0
        assert more.stats.total_fetches == 0
        assert more.stats.total_cache_hits == 0
        assert len(more.rows) == 5
        # The resumed stream shares the suspended walk's bookkeeping.
        assert more.stats.streamed_cells_visited == first.stream.cells_visited
        assert (
            more.stats.streamed_cells_visited
            + more.stats.early_exit_cells_skipped
            == first.stream.plane_cells
        )

    def test_resumed_rows_match_full_scan_oracle(self, registry, travel_query):
        executor = self._executor(registry, travel_query, CacheSetting.OPTIMAL)
        executor.run(k=2)
        more = executor.more(3)
        oracle_plan = PlanBuilder(travel_query, registry).build(
            alpha1_patterns(), poset_optimal(),
            fetches={FLIGHT_ATOM: 2, HOTEL_ATOM: 2},
        )
        oracle = ExecutionEngine(registry, mode=ExecutionMode.PARALLEL).execute(
            oracle_plan, head=tuple(travel_query.head)
        )
        expected = compose_ranking(oracle.rows, 5)
        assert [dict(r.bindings) for r in more.rows] == [
            dict(r.bindings) for r in expected
        ]
        assert [r.rank_key() for r in more.rows] == [
            r.rank_key() for r in expected
        ]

    def test_free_resumed_rounds_do_not_consume_growth_budget(
        self, registry, travel_query
    ):
        """MAX_ROUNDS bounds executing rounds only: any number of free
        stream-resume rounds must leave fetch growth available."""
        executor = self._executor(registry, travel_query, CacheSetting.OPTIMAL)
        executor.run(k=1)
        for _ in range(MAX_ROUNDS + 2):
            executor.more(1)  # all served by the suspended stream
        assert len(executor.rounds) > MAX_ROUNDS
        assert all(r.resumed for r in executor.rounds[1:])
        fetches_before = executor.fetch_vector()
        executor.run(k=10_000)  # beyond the plane: must grow fetches
        fetches_after = executor.fetch_vector()
        assert any(
            fetches_after[index] > fetches_before[index]
            for index in fetches_before
        )

    @pytest.mark.parametrize("setting", list(CacheSetting), ids=lambda s: s.value)
    def test_exhausted_stream_falls_back_to_fetch_growth(
        self, registry, travel_query, setting
    ):
        executor = self._executor(registry, travel_query, setting)
        first = executor.run(k=2)
        produced = first.stream.top(None)
        huge = len(produced) + 1000
        result = executor.run(k=huge)
        grown = [r for r in executor.rounds[1:] if not r.resumed]
        assert grown, "growth rounds expected once the stream exhausts"
        assert len(result.rows) > len(first.rows)


class TestLazyStreamedResume:
    """Progressive + lazy interaction: stream-resume rounds over
    *lazily fetched* inputs stay zero-service-call whenever the walk
    stays within already-fetched pages — under every CacheSetting —
    and when the grown demand does pull budgeted pages, the fetches
    are recorded on the resumed round, never on an earlier one."""

    @staticmethod
    def _single_feed_executor(setting, side, chunk, fetches):
        from repro.model.schema import signature
        from repro.services.profile import search_profile
        from repro.services.registry import JoinMethod, ServiceRegistry
        from repro.services.table import TableSearchService
        from repro.model.atoms import Atom
        from repro.model.query import ConjunctiveQuery
        from repro.model.terms import Constant, Variable
        from repro.plans.builder import Poset

        registry = ServiceRegistry()
        for name, var in (("lefts", "L"), ("rights", "R")):
            registry.register(
                TableSearchService(
                    signature(name, ["Q", "K", var], ["ioo"]),
                    search_profile(chunk_size=chunk, response_time=1.0),
                    [("q", 0, i) for i in range(side)],
                    score=lambda row: float(-row[2]),
                )
            )
        registry.register_join_method("lefts", "rights", JoinMethod.MERGE_SCAN)
        key, lv, rv = Variable("K"), Variable("L"), Variable("R")
        query = ConjunctiveQuery(
            name="lazyprog",
            head=(key, lv, rv),
            atoms=(
                Atom("lefts", (Constant("q"), key, lv)),
                Atom("rights", (Constant("q"), key, rv)),
            ),
            predicates=(),
        )
        plan = PlanBuilder(query, registry).build(
            (
                registry.signature("lefts").pattern("ioo"),
                registry.signature("rights").pattern("ioo"),
            ),
            Poset(n=2),
            fetches={0: fetches, 1: fetches},
        )
        executor = ProgressiveExecutor(
            registry=registry,
            plan=plan,
            head=tuple(query.head),
            mode=ExecutionMode.STREAMED,
            cache_setting=setting,
        )
        return registry, query, plan, executor

    @pytest.mark.parametrize("setting", list(CacheSetting), ids=lambda s: s.value)
    def test_resume_within_fetched_pages_is_zero_service_call(self, setting):
        """The lazily fetched page already covers the grown k: the
        resumed round must issue no call, no fetch, and no cache
        lookup, under every cache setting."""
        registry, query, plan, executor = self._single_feed_executor(
            setting, side=8, chunk=16, fetches=1
        )
        first = executor.run(k=1)
        assert first.stream is not None
        assert first.stats.lazy_tuples_fetched == 16  # one page per side
        more = executor.more(3)
        latest = executor.rounds[-1]
        assert latest.resumed
        assert latest.new_calls == 0
        assert more.stats.total_calls == 0
        assert more.stats.total_fetches == 0
        assert more.stats.total_cache_hits == 0
        assert more.stats.lazy_tuples_fetched == 0
        assert len(more.rows) == 4
        oracle = ExecutionEngine(registry, mode=ExecutionMode.PARALLEL).execute(
            plan, head=tuple(query.head)
        )
        expected = compose_ranking(oracle.rows, 4)
        assert [dict(r.bindings) for r in more.rows] == [
            dict(r.bindings) for r in expected
        ]
        assert [r.rank_key() for r in more.rows] == [
            r.rank_key() for r in expected
        ]

    @pytest.mark.parametrize("setting", list(CacheSetting), ids=lambda s: s.value)
    def test_budgeted_resume_fetches_are_recorded_honestly(self, setting):
        """A resume that outgrows the fetched pages pulls more budgeted
        pages: still a resumed round (no plan re-execution), with the
        remote work on *its* counters and the first round's frozen."""
        registry, query, plan, executor = self._single_feed_executor(
            setting, side=20, chunk=2, fetches=10
        )
        first = executor.run(k=1)
        first_fetches = first.stats.total_fetches
        assert first_fetches == 2  # one page per side
        more = executor.more(7)  # k=8 needs rows beyond page 0
        latest = executor.rounds[-1]
        assert latest.resumed
        assert latest.new_calls > 0
        assert more.stats.total_fetches > 0
        assert more.stats.lazy_tuples_fetched > 0
        # Remote latency makes the resumed round's virtual time real:
        # the two lazy cursors sit on parallel branches, so the round
        # lasts as long as its busier step.
        assert latest.elapsed > 0.0
        assert more.elapsed == latest.elapsed
        busy = [busy for busy, _, _ in more.stats.clock.values()]
        assert latest.elapsed == max(busy)
        # The savings snapshot shrinks to what is still unissued.
        assert more.stats.lazy_calls_saved < first.stats.lazy_calls_saved
        # The stale-counter regression: round 1's stats stay frozen.
        assert first.stats.total_fetches == first_fetches
        assert len(more.rows) == 8
        oracle = ExecutionEngine(registry, mode=ExecutionMode.PARALLEL).execute(
            plan, head=tuple(query.head)
        )
        expected = compose_ranking(oracle.rows, 8)
        assert [r.rank_key() for r in more.rows] == [
            r.rank_key() for r in expected
        ]
        # Resumed rounds never count against the execution budget.
        assert executor._executed_rounds() == 1

    def test_lazy_resume_composes_with_shared_cache_on_reexecution(self):
        """Pages pulled by a resumed stream land in the shared logical
        cache: a later fetch-growth re-execution finds them for free."""
        registry, query, plan, executor = self._single_feed_executor(
            CacheSetting.OPTIMAL, side=6, chunk=2, fetches=2
        )
        executor.run(k=1)
        huge = 100  # beyond the 36-cell plane: must grow fetches
        result = executor.run(k=huge)
        grown = [r for r in executor.rounds[1:] if not r.resumed]
        assert grown, "growth rounds expected once the stream exhausts"
        assert result.stats.total_cache_hits > 0
        assert len(result.rows) == 36


class TestAccountingRegressions:
    """Resumed-round accounting: the bug-batch regressions."""

    def test_resumed_round_reports_lazy_calls_saved_as_a_delta(self):
        """Regression: a resumed round copied the stream's *cumulative*
        ``lazy_pages_saved`` into its own ``lazy_calls_saved``, double
        counting every earlier round's savings.  Fixed, the resumed
        round reports the delta its own pulls caused (negative when it
        fetched pages an earlier round counted as saved), and the
        per-round values sum to the stream's true current total."""
        _, _, _, executor = TestLazyStreamedResume._single_feed_executor(
            CacheSetting.OPTIMAL, side=20, chunk=2, fetches=10
        )
        first = executor.run(k=1)
        assert first.stats.lazy_calls_saved > 0
        more = executor.more(7)  # outgrows page 0: pulls budgeted pages
        latest = executor.rounds[-1]
        assert latest.resumed
        assert more.stats.total_fetches > 0
        assert more.stats.lazy_calls_saved < 0
        assert more.stream is not None
        assert (
            sum(r.stats.lazy_calls_saved for r in executor.rounds)
            == more.stream.lazy_pages_saved
        )

    def test_resume_served_round_seeds_the_exhaustion_baseline(self):
        """Regression: when the first round of a ``run`` was served by
        a stream resume, ``baseline_processed`` stayed None, so the
        first growth round could never trigger the exhaustion break
        and every continuation past the data burned one extra
        re-execution."""
        _, _, _, executor = TestLazyStreamedResume._single_feed_executor(
            CacheSetting.OPTIMAL, side=4, chunk=2, fetches=2
        )
        executor.run(k=2)
        assert executor._executed_rounds() == 1
        result = executor.run(k=100)  # far beyond the 16-answer plane
        assert executor.rounds[1].resumed  # served by resume first
        assert len(result.rows) == 16
        # Exactly one growth re-execution: the resumed round seeded the
        # baseline, so the first growth round (which demands the same
        # tuples and finds no new answers) detects exhaustion itself.
        assert executor._executed_rounds() == 2


class TestResumedChainVirtualTime:
    """The services of a pipe chain run in series: a resumed round's
    virtual time is the critical path over what the round itself
    fetched per step — a sum down the chain, not the busiest service."""

    @staticmethod
    def _chain(replan=None):
        from repro.model.atoms import Atom
        from repro.model.query import ConjunctiveQuery
        from repro.model.schema import signature
        from repro.model.terms import Constant, Variable
        from repro.services.profile import exact_profile, search_profile
        from repro.services.registry import ServiceRegistry
        from repro.services.table import TableExactService, TableSearchService

        registry = ServiceRegistry()
        registry.register(
            TableSearchService(
                signature("papers", ["Q", "P"], ["io"]),
                search_profile(chunk_size=2, response_time=1.0),
                [("q", p) for p in range(12)],
                score=lambda row: float(-row[1]),
            )
        )
        registry.register(
            TableExactService(
                signature("authors", ["P", "A"], ["io"]),
                exact_profile(erspi=2.0, response_time=2.0),
                [(p, 10 * p + a) for p in range(12) for a in range(2)],
            )
        )
        registry.register(
            TableExactService(
                signature("projects", ["A", "J"], ["io"]),
                exact_profile(erspi=1.0, response_time=0.5),
                [(10 * p + a, 100 * p + a) for p in range(12) for a in range(2)],
            )
        )
        p, a, j = Variable("P"), Variable("A"), Variable("J")
        query = ConjunctiveQuery(
            name="experts",
            head=(p, a, j),
            atoms=(
                Atom("papers", (Constant("q"), p)),
                Atom("authors", (p, a)),
                Atom("projects", (a, j)),
            ),
            predicates=(),
        )
        plan = PlanBuilder(query, registry).build(
            tuple(
                registry.signature(name).pattern("io")
                for name in ("papers", "authors", "projects")
            ),
            chain_poset(3, [0, 1, 2]),
            fetches={0: 6},
        )
        return ProgressiveExecutor(
            registry=registry, plan=plan, head=tuple(query.head),
            mode=ExecutionMode.STREAMED, replan=replan,
        )

    def test_execute_then_resume_lasts_as_long_as_one_execution(self):
        stepwise, at_once = self._chain(), self._chain()
        stepwise.run(3)
        more = stepwise.run(9)
        assert stepwise.rounds[-1].resumed
        whole = at_once.run(9)
        assert [r.rank_key() for r in more.rows] == [
            r.rank_key() for r in whole.rows
        ]
        assert len(at_once.rounds) == 1
        assert sum(r.elapsed for r in stepwise.rounds) == whole.elapsed
        # ... which is every page of every level, end to end: the head
        # (1.0 a page), its authors (2.0) and their projects (0.5).
        stats = whole.stats
        assert whole.elapsed == sum(
            stats.service(name).busy_time
            for name in ("papers", "authors", "projects")
        )
        # A resumed round's chain adds up its own steps' busy time too.
        resumed = stepwise.rounds[-1]
        busy = [busy for busy, _, _ in resumed.stats.clock.values()]
        assert resumed.elapsed == sum(busy) > max(busy) > 0

    def test_an_attempt_aborted_by_drift_lasts_its_whole_chain(self):
        """The second service answers 25x slower than costed: the
        attempt it aborts is timed by the clock every round reads, down
        the chain, not by its busiest service alone."""
        executor = self._chain(replan=lambda observed: None)
        registry = executor.registry
        registry._services["authors"] = FlakyService(
            registry.service("authors"), FaultSchedule(seed=7, delay_rate=1.0)
        )
        executor.run(9)
        assert [event.service for event in executor.drift_events] == ["authors"]
        aborted = executor.rounds[0]
        assert aborted.answers == 0
        busy = [
            aborted.stats.service(name).busy_time
            for name in ("papers", "authors", "projects")
        ]
        assert aborted.elapsed == sum(busy) > max(busy) > 0


class TestCaps:
    def test_decay_caps_stop_growth(self, tiny_query):
        from repro.model.schema import signature
        from repro.services.profile import exact_profile, search_profile
        from repro.services.registry import ServiceRegistry
        from repro.services.table import TableExactService, TableSearchService

        registry = ServiceRegistry()
        registry.register(
            TableExactService(
                signature("cities", ["Country", "City"], ["io"]),
                exact_profile(erspi=1.0, response_time=1.0),
                [("it", "Roma")],
            )
        )
        registry.register(
            TableSearchService(
                signature("spots", ["City", "Spot", "Score"], ["ioo"]),
                search_profile(chunk_size=2, response_time=1.0, decay=4),
                [("Roma", f"s{i}", 10) for i in range(20)],
                score=lambda row: float(row[2]),
            )
        )
        plan = PlanBuilder(tiny_query, registry).build(
            (
                registry.signature("cities").pattern("io"),
                registry.signature("spots").pattern("ioo"),
            ),
            chain_poset(2, [0, 1]),
        )
        executor = ProgressiveExecutor(
            registry=registry, plan=plan, head=tuple(tiny_query.head)
        )
        result = executor.run(k=50)
        # decay 4 caps the factor at 2, so at most 4 tuples ever.
        assert len(result.rows) <= 4
        final = executor.rounds[-1].fetches
        assert final[1] == 2

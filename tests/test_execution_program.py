"""The compiled physical plan (``repro.execution.program``).

One :class:`ExecutionProgram` per plan-cache entry is shared by every
session and thread of the key.  These tests pin what makes that sound:
a memory hit builds nothing, a session grows its own fetch vector and
never the program, the program names no registry object, concurrent
runs leave it untouched, and its static layouts are the ones the
dict-row reference derives row by row.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import threading
import weakref

import pytest

from golden_plans import PROFILES, load
from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine
from repro.execution.program import ExecutionProgram
from repro.execution.slots import ServiceBinding
from repro.model.parser import parse_query
from repro.plans.builder import PlanBuilder
from repro.plans.dag import QueryPlan
from repro.plans.spec import PlanSpec
from repro.serving import PlanCache, QueryService
from repro.sources.news import news_registry
from repro.sources.weekend import mahler_weekend_query, weekend_registry
from repro.testing import market_moving_news_query, reference_execute


def _signature(response):
    return (
        response.columns,
        response.rows,
        response.rank_keys,
        tuple(tuple(rank for _, rank in ranks) for ranks in response.ranks),
        response.complete,
    )


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestMemoryHit:
    def test_a_hit_builds_nothing_and_sessions_share_the_program(self, monkeypatch):
        service = QueryService(registry=weekend_registry(), plan_cache=PlanCache())
        first = service.submit(mahler_weekend_query(), k=3)
        assert first.provenance == "optimized"
        calls = [
            _count_calls(monkeypatch, PlanBuilder, "build"),
            _count_calls(monkeypatch, ServiceBinding, "__init__"),
            _count_calls(monkeypatch, QueryPlan, "validate"),
        ]
        second = service.submit(mahler_weekend_query(), k=3)
        assert second.provenance == "memory"
        assert calls == [[], [], []]
        assert _signature(second) == _signature(first)
        programs = [
            service.sessions.get(response.session_id).executor.plan
            for response in (first, second)
        ]
        assert isinstance(programs[0], ExecutionProgram)
        assert programs[0] is programs[1]

    def test_a_renamed_query_runs_the_shared_program_under_its_own_names(self):
        service = QueryService(registry=weekend_registry(), plan_cache=PlanCache())
        text = (
            "weekend(City, Date, Price, Venue) :- "
            "lowcost('Milano', City, Date, Price), "
            "concerts(City, Date, 'Mahler', Venue), Price <= 120."
        )
        renamed = (
            text.replace("City", "Where").replace("Date", "When")
            .replace("Price", "Fare").replace("Venue", "Hall")
        )
        first = service.submit(parse_query(text), k=3)
        second = service.submit(parse_query(renamed), k=3)
        assert second.provenance == "memory"
        assert second.columns == ("Where", "When", "Fare", "Hall")
        assert second.rows == first.rows and first.rows

    def test_a_disk_hit_compiles_once_and_admits_the_program(self, tmp_path, monkeypatch):
        path = tmp_path / "plans.sqlite"
        cold = QueryService(registry=weekend_registry(), plan_cache=PlanCache(path))
        expected = cold.submit(mahler_weekend_query(), k=3)
        cold.plan_cache.close()
        service = QueryService(registry=weekend_registry(), plan_cache=PlanCache(path))
        builds = _count_calls(monkeypatch, PlanBuilder, "build")
        responses = [service.submit(mahler_weekend_query(), k=3) for _ in range(3)]
        assert [r.provenance for r in responses] == ["disk", "memory", "memory"]
        assert len(builds) == 1
        assert all(_signature(r) == _signature(expected) for r in responses)
        service.plan_cache.close()

    def test_without_a_memory_tier_every_request_compiles(self, monkeypatch):
        service = QueryService(
            registry=weekend_registry(), plan_cache=PlanCache(capacity=0)
        )
        compiles = _count_calls(monkeypatch, ExecutionProgram, "compile")
        for _ in range(2):
            assert service.submit(mahler_weekend_query(), k=3).provenance == "optimized"
        assert len(compiles) == 2

    def test_the_program_leaves_with_its_entry(self):
        cache = PlanCache(capacity=1)
        service = QueryService(
            registry=weekend_registry(), plan_cache=cache, share_service_cache=False
        )
        response = service.submit(mahler_weekend_query(), k=3)
        program = weakref.ref(
            service.sessions.get(response.session_id).executor.plan
        )
        service.release(response.session_id)
        assert program() is not None  # the cache entry holds it
        gc.disable()
        try:
            cache.store("other", PlanSpec((), (), ()), 0.0, "m", response.epoch)
            assert program() is None  # unreachable without a collector run
        finally:
            gc.enable()


class TestFetchVectorIsRunOwned:
    def test_a_grown_session_leaves_the_next_one_at_the_compiled_factors(self):
        def fresh():
            return QueryService(
                registry=weekend_registry(), plan_cache=PlanCache(),
                share_service_cache=False,
            )

        service = fresh()
        grown = service.submit(mahler_weekend_query(), k=3)
        executor = service.sessions.get(grown.session_id).executor
        compiled = executor.fetch_vector()
        for _ in range(3):
            service.ask_for_more(grown.session_id, 3)
        assert executor.fetch_vector() == {0: 2 * compiled[0]}
        after = service.submit(mahler_weekend_query(), k=3)
        cold_service = fresh()
        cold = cold_service.submit(mahler_weekend_query(), k=3)
        assert after.provenance == "memory" and cold.provenance == "optimized"
        assert _signature(after) == _signature(cold)
        def round_fetches(owner, response):
            executor = owner.sessions.get(response.session_id).executor
            return [round_.fetches for round_ in executor.rounds]

        assert round_fetches(service, after) == [compiled]
        assert round_fetches(cold_service, cold) == [compiled]
        assert {**after.stats, "annotate_calls": 0} == {
            **cold.stats, "annotate_calls": 0
        }
        # ... and growing never wrote the shared program.
        program = executor.plan
        assert executor.fetch_vector()[0] != program.fetches[program.chunked[0][0]]


def _identities(program):
    """The identity of every attribute of *program* and of its steps'."""
    return (
        {name: id(getattr(program, name)) for name in program.__dataclass_fields__},
        [tuple(map(id, step)) for step in program.steps],
    )


def test_a_news_session_grown_in_place_leaves_the_program_as_compiled():
    service = QueryService(registry=news_registry(), plan_cache=PlanCache())
    response = service.submit(market_moving_news_query(), k=3)
    executor = service.sessions.get(response.session_id).executor
    program = executor.plan
    assert program.grows_in_place
    before, compiled = _identities(program), dataclasses.replace(program)
    for _ in range(4):
        service.ask_for_more(response.session_id, 5)
    assert any(round_.grown for round_ in executor.rounds)
    assert executor.fetch_vector() != {
        atom: program.fetches[step] for step, atom, _ in program.chunked
    }
    assert _identities(program) == before
    assert all(
        getattr(program, name) == getattr(compiled, name)
        for name in program.__dataclass_fields__
    )


class TestNoCapturedRegistry:
    def test_services_over_equal_registries_share_plans_not_handles(self):
        def counted_service(plan_cache):
            registry = news_registry()
            calls = []
            for remote in registry:
                def counting(pattern, inputs, page=0, invoke=remote.invoke):
                    calls.append(page)
                    return invoke(pattern, inputs, page)
                remote.invoke = counting
            service = QueryService(
                registry=registry, plan_cache=plan_cache, share_service_cache=False
            )
            return service, calls

        plan_cache = PlanCache()
        (first, first_calls), (second, second_calls) = (
            counted_service(plan_cache), counted_service(plan_cache)
        )
        assert first.registry is not second.registry
        answer = first.submit(market_moving_news_query(), k=3)
        made = len(first_calls)
        assert made and not second_calls
        again = second.submit(market_moving_news_query(), k=3)
        assert again.provenance == "memory"  # the first service's entry
        assert len(first_calls) == made  # ... and none of its services
        assert len(second_calls) == made
        assert _signature(again) == _signature(answer)


@pytest.mark.concurrency
def test_threads_share_one_program_without_writing_it():
    registry = news_registry()
    query = market_moving_news_query()
    service = QueryService(registry=registry, plan_cache=PlanCache())
    response = service.submit(query, k=5)
    program = service.sessions.get(response.session_id).executor.plan
    identities = {
        name: id(getattr(program, name)) for name in program.__dataclass_fields__
    }
    steps = [tuple(map(id, step)) for step in program.steps]

    def run():
        engine = ExecutionEngine(registry, cache_setting=CacheSetting.OPTIMAL)
        result = engine.execute(program, k=5, reset_remote_caches=False)
        return result.answers(), result.rows, dataclasses.asdict(result.stats)

    expected = run()
    outcomes: list = []
    barrier = threading.Barrier(4)

    def worker():
        barrier.wait()
        for _ in range(200):
            outcomes.append(run())

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert len(outcomes) == 800
    assert all(outcome == expected for outcome in outcomes)
    assert identities == {
        name: id(getattr(program, name)) for name in program.__dataclass_fields__
    }
    assert steps == [tuple(map(id, step)) for step in program.steps]


def _news_session(service, query, script):
    """Play *script* (answers per ``more``) on a news session of
    *service*: what each round answered and recorded."""
    response = service.submit(query, k=3)
    executor = service.sessions.get(response.session_id).executor
    answers = [response.rows]
    for additional in script:
        answers.append(service.ask_for_more(response.session_id, additional).rows)
    rounds = [
        (r.fetches, r.answers, r.resumed, r.grown, dataclasses.asdict(r.stats))
        for r in executor.rounds
    ]
    service.release(response.session_id)
    return answers, rounds


@pytest.mark.concurrency
def test_threads_grow_news_sessions_in_place_on_one_service():
    """Two threads drive news sessions through growth on one service —
    one program per template, one logical cache — and every session
    answers and records what a sequential replay of it does.  A first
    pass warms the cache, so every later page is a hit whoever asks."""
    service = QueryService(registry=news_registry(), plan_cache=PlanCache())
    sessions = [
        (market_moving_news_query("merger"), (3, 10, 10)),
        (market_moving_news_query("earnings"), (5, 20)),
    ]
    for query, script in sessions:
        _news_session(service, query, script)
    expected = [_news_session(service, query, script) for query, script in sessions]
    assert all(
        any(grown for _, _, _, grown, _ in rounds) for _, rounds in expected
    )
    outcomes: list = [[], []]
    barrier = threading.Barrier(2)

    def worker(which):
        barrier.wait()
        query, script = sessions[which]
        for _ in range(30):
            outcomes[which].append(_news_session(service, query, script))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for which in range(2):
        assert len(outcomes[which]) == 30
        assert all(outcome == expected[which] for outcome in outcomes[which])


def _golden_plans():
    seen = set()
    for case, entry in sorted(load().items()):
        profile = case.split("/")[0]
        spec = PlanSpec(
            tuple(entry["patterns"]),
            tuple(tuple(pair) for pair in entry["poset"]),
            tuple(tuple(item) for item in entry["fetches"]),
        )
        if (profile, spec) not in seen:
            seen.add((profile, spec))
            case = f"{profile}-{len(seen)}"
            # The slowest case of the suite: run by CI's ``-m slow`` step.
            marks = pytest.mark.slow if case == "bio-6" else ()
            yield pytest.param(profile, spec, id=case, marks=marks)


@pytest.mark.parametrize("profile, spec", _golden_plans())
def test_compiled_layouts_are_the_layouts_rows_are_emitted_in(profile, spec):
    registry, query = PROFILES[profile]()
    plan = spec.build(query, registry)
    program = ExecutionProgram.compile(plan, tuple(query.head))
    assert [step.node_id for step in program.steps] == [
        node.node_id for node in plan.topological_order()
    ]
    reference = reference_execute(plan, registry)
    emitted = 0
    for step in program.steps:
        for row in reference.node_rows[step.node_id][:1]:
            assert step.layout == row.layout, step.node_id
            emitted += 1
    assert emitted > 1
    result = ExecutionEngine(registry).execute(program)
    assert result.stats.rows_out == reference.rows_out
    assert all(row.layout is program.steps[-1].layout for row in result.rows)
    assert result.answers() == [
        row.project(query.head) for row in reference.rows
    ]

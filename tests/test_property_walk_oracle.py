"""Pull for pull: the streamed join walk against its row-at-a-time oracle.

:class:`~repro.testing.RowAtATimeJoinStream` is the walk as its loop
ran before it held its bounds in locals: every demand goes through a
method that asks the cursor, files the placed rows and reads the
index's counts again, and every bound is read through the index and
the cursors.  The engine's walk must do exactly what it did: per round
the same pages pulled through the fetch seam, in the same order
(``(step, unit, page)``, cache hits included), the same ledger, the
same candidates (``(rank, arrival)``, in the order visited), the same
answers and the same ``complete``.

The plans are drawn over:

* both join methods and all three cache settings;
* a multi-feed left side over a *lazy* feed (a ranked feeder whose only
  consumer it is, the right side a single-feed service) or both sides
  multi-feed over one *known* feed (a head two steps read, drained
  eagerly);
* one-page blocks (the multi-feed factors at 1) or chunked ones (a
  factor above 1, pages of a drawn chunk);

and each runs ``top(k1)``, then ``top(k2)`` for a larger ``k2`` on the
suspended stream, then a drain (``top(None)``).
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.execution import engine as engine_module
from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine
from repro.execution.fetch import UnitSource
from repro.model.atoms import Atom
from repro.model.query import ConjunctiveQuery
from repro.model.schema import signature
from repro.model.terms import Constant, Variable
from repro.plans.builder import PlanBuilder, Poset
from repro.services.profile import search_profile
from repro.services.registry import JoinMethod, ServiceRegistry
from repro.services.table import TableSearchService
from repro.testing import RowAtATimeJoinStream

_keys = st.lists(st.integers(0, 2), min_size=1, max_size=5)


def _search(registry, name, variables, rows, chunk):
    registry.register(
        TableSearchService(
            signature(name, variables, ["i" + "o" * (len(variables) - 1)]),
            search_profile(chunk_size=chunk, response_time=1.0),
            rows,
            score=lambda row: float(-row[-1]),
        )
    )


def _plan(known, feeds, left_keys, right_keys, chunks, factors, method):
    """``feeder('q', X)`` feeding ``lefts(X, K, L)``, joined by *method*
    with ``rights``: ``rights(X, K, R)``, fed by the feeder too, when
    the feed is *known* (two steps read it, so it is drained first),
    else ``rights('q', K, R)`` (the feeder is lazy: ``lefts`` is its
    only consumer).  *factors* are those of ``lefts`` and ``rights``."""
    registry = ServiceRegistry()
    _search(registry, "feeder", ["Q", "X"], [("q", x) for x in feeds], 2)
    block_rows = [
        (x, key, index)
        for x in sorted(set(feeds))
        for index, key in enumerate(left_keys)
    ]
    _search(registry, "lefts", ["X", "K", "L"], block_rows, chunks[0])
    if known:
        rows = [
            (x, key, index)
            for x in sorted(set(feeds))
            for index, key in enumerate(right_keys)
        ]
    else:
        rows = [("q", key, index) for index, key in enumerate(right_keys)]
    _search(registry, "rights", ["X" if known else "Q", "K", "R"], rows, chunks[1])
    registry.register_join_method("lefts", "rights", method)
    x, key, left_var, right_var = (Variable(n) for n in ("X", "K", "L", "R"))
    query = ConjunctiveQuery(
        name="walk",
        head=(key, left_var, right_var),
        atoms=(
            Atom("feeder", (Constant("q"), x)),
            Atom("lefts", (x, key, left_var)),
            Atom("rights", (x if known else Constant("q"), key, right_var)),
        ),
        predicates=(),
    )
    plan = PlanBuilder(query, registry).build(
        tuple(
            registry.signature(name).pattern("io" if name == "feeder" else "ioo")
            for name in ("feeder", "lefts", "rights")
        ),
        Poset(n=3, pairs=frozenset({(0, 1), (0, 2)} if known else {(0, 1)})),
        fetches={0: 4, 1: factors[0], 2: factors[1]},
    )
    return registry, tuple(query.head), plan


@contextmanager
def _page_log(log: list):
    """Every page pulled through the fetch seam inside, as ``(step,
    unit, page)``, appended to *log* in order."""
    fetch = UnitSource.fetch

    def logged(source, page):
        log.append((source._step, source.input_key, page))
        return fetch(source, page)

    with mock.patch.object(UnitSource, "fetch", logged):
        yield


def _round(result, log):
    """What a round must agree on: its pulls, ledger, candidates,
    answers and ``complete``."""
    stream = result.stream
    return {
        "pulls": list(log),
        "ledger": dict(result.stats.per_service),
        "candidates": [candidate[:2] for candidate in stream._candidates],
        "answers": [(row.bindings, row.ranks) for row in result.rows],
        "complete": result.table.complete,
    }


def _session(make, setting, k1, k2, oracle):
    """``top(k1)``, ``top(k2)`` and a drain on a fresh registry: per
    round, what :func:`_round` reads.  The *oracle* session walks its
    join with :class:`RowAtATimeJoinStream`."""
    registry, head, plan = make()
    engine = ExecutionEngine(registry, cache_setting=setting)
    rounds = []
    log: list = []
    with _page_log(log):
        if oracle:
            with mock.patch.object(engine_module, "JoinStream", RowAtATimeJoinStream):
                result = engine.execute(plan, head=head, k=k1)
            assert type(result.stream) is RowAtATimeJoinStream
        else:
            result = engine.execute(plan, head=head, k=k1)
        rounds.append(_round(result, log))
        log.clear()
        result = engine.resume(result.program, result, k2)
        rounds.append(_round(result, log))
        log.clear()
        rows = result.stream.top(None)
        rounds.append({
            "pulls": list(log),
            "candidates": [c[:2] for c in result.stream._candidates],
            "answers": [(row.bindings, row.ranks) for row in rows],
            "complete": result.stream.is_complete(rows),
        })
    return rounds


class TestTheWalkPullsWhatTheOracleWalkPulls:
    @given(
        st.booleans(),  # a known feed, or a lazy one
        st.lists(st.integers(0, 3), min_size=1, max_size=4),  # feeder keys
        _keys,
        _keys,
        st.tuples(st.integers(1, 3), st.integers(1, 3)),  # chunks
        st.tuples(st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 4])),
        st.sampled_from(list(JoinMethod)),
        st.sampled_from(list(CacheSetting)),
        st.integers(1, 6),
        st.integers(1, 6),
    )
    @settings(max_examples=200, deadline=None)
    # The left page places two rows and only the first has a partner.
    # A walk that filed every placed row at once would have filed both,
    # found the plane exhausted and called its first round complete;
    # the walk files the demanded row only, as the oracle does.
    @example(
        False, [0], [1, 0], [1], (2, 1), (1, 1), JoinMethod.NESTED_LOOP,
        CacheSetting.NO_CACHE, 1, 1,
    )
    def test_round_for_round(
        self, known, feeds, left_keys, right_keys, chunks, factors, method,
        setting, k1, more,
    ):
        def make():
            return _plan(known, feeds, left_keys, right_keys, chunks, factors, method)

        walk = _session(make, setting, k1, k1 + more, oracle=False)
        oracle = _session(make, setting, k1, k1 + more, oracle=True)
        assert walk == oracle

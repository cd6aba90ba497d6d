"""Per-row provenance: truthful audit records, read off the path.

Every answer row can be rendered with the ``(service, input key, page
index)`` of each page pull that contributed to it
(:data:`~repro.execution.fetch.ProvenanceRecord`), epoch-stamped at
the serving layer.  The engine keeps no provenance of its own: a row
keeps the record chain it was emitted from, and
:func:`~repro.execution.fetch.page_records` derives the pulls from it
— the service from the step's binding, the input key from the feed
record's values, the page (and a serving sibling's name) from the
record's page slot.  The contracts pinned here:

* **Off by default, and free**: with ``row_provenance`` disabled (the
  ``QueryService`` default) the JSON response is byte-identical to an
  enabled one's minus the ``row_provenance`` key, which is *absent*,
  not null.
* **Truthful**: replaying the invocation named by a record (same
  service, pattern, inputs, page) returns a page holding a tuple that
  agrees with the row on its atom's terms — provenance is an audit
  trail, not an annotation.  This holds on the paths most likely to
  lie: a unit a sibling served, a session that grew in place or
  resumed, a session spliced onto another plan.
* **Complete**: in every run (a full scan, a top-k walk over lazily or
  eagerly fetched inputs) and through continuations, every answer row
  carries a record for every service atom on its path.
"""

from __future__ import annotations

import json

import pytest

from repro.execution.engine import ExecutionEngine
from repro.execution.fetch import page_records
from repro.execution.progressive import ProgressiveExecutor
from repro.execution.results import ROOT, Row, SlotLayout, emit
from repro.execution.slots import ServiceBinding
from repro.model.atoms import Atom
from repro.model.parser import parse_query
from repro.model.schema import AccessPattern
from repro.model.terms import Constant, Variable
from repro.plans.builder import PlanBuilder
from repro.plans.nodes import ServiceNode
from repro.serving import QueryService
from repro.services.profile import search_profile
from repro.sources.biblio import biblio_registry, experts_query
from repro.sources.news import news_registry
from repro.sources.travel import travel_registry
from repro.testing import chain_poset, eager_streamed_engine

from tests.test_adaptive import RESILIENT, build_world, make_flaky
from tests.test_lazy_chain import _NEWS_TEMPLATE, _TRAVEL_TEMPLATE

PUBSEARCH_ONLY = (
    "q(P, T, Y) :- pubsearch('service computing', P, T, Y)."
)


def _optimize(registry, query, k=8):
    from repro.costs.time_cost import ExecutionTimeMetric
    from repro.optimizer.optimizer import Optimizer, OptimizerConfig

    return Optimizer(
        registry, ExecutionTimeMetric(), OptimizerConfig(k=k)
    ).optimize(query).plan


def _tiny_plan(registry, query):
    patterns = tuple(registry.signature(a.service).patterns[0] for a in query.atoms)
    return PlanBuilder(query, registry).build(
        patterns, chain_poset(2, [0, 1]), fetches={1: 2}
    )


def _pulls(result):
    """Every answer's page pulls, derived from its record chain against
    the program that ran it."""
    bindings = result.program.step_bindings
    return [page_records(row.record, bindings) for row in result.rows]


def _binding(node_id, service, terms, pattern, feed_layout=SlotLayout(())):
    """A ``ServiceBinding`` of ``service(*terms)`` over *feed_layout*."""
    return ServiceBinding(
        ServiceNode(
            node_id=node_id, atom_index=0, atom=Atom(service, tuple(terms)),
            pattern=AccessPattern(pattern),
            profile=search_profile(chunk_size=2, response_time=1.0),
        ),
        feed_layout,
    )


def _replays(registry, atom, answer, pull):
    """True when the page *pull* names, invoked again, holds a tuple
    that agrees with *answer* (variable name → value) on every term of
    *atom*: each constant, and each variable the answer binds."""
    name, (pattern_code, bound), page = pull
    service = registry.service(name)
    replayed = service.invoke(
        service.signature.pattern(pattern_code), dict(bound), page
    )
    return any(
        all(
            values[position] == term.value if isinstance(term, Constant)
            else values[position] == answer.get(term.name, values[position])
            for position, term in enumerate(atom.terms)
        )
        for values in replayed.tuples
    )


def _assert_replayable(registry, query, answer, pulls, siblings=None):
    """A pull for every atom of *query* (a head two join sides share
    is on both sides' paths), each replaying truthfully; a pull naming
    a sibling (a key of *siblings*) replays against the sibling under
    the original service's atom."""
    siblings = siblings or {}
    atoms = {atom.service: atom for atom in query.atoms}
    assert {siblings.get(name, name) for name, _, _ in pulls} == set(atoms)
    for pull in pulls:
        atom = atoms[siblings.get(pull[0], pull[0])]
        assert pull[2] >= 0
        assert _replays(registry, atom, answer, pull), (answer, pull)


def _rendered_pulls(response):
    """``(answer, pulls)`` per row of a rendered response."""
    rendered = response.to_dict()
    return [
        (
            dict(zip(rendered["columns"], row)),
            [(r["service"], r["input"], r["page"]) for r in records],
        )
        for row, records in zip(rendered["rows"], rendered["row_provenance"])
    ]


class TestRowMechanics:
    def test_a_row_compares_without_its_record(self):
        layout = SlotLayout((Variable("X"),))
        binding = _binding("s1", "a", (Variable("X"),), "o")
        record = ((1,), 0, ROOT, "s1", None, 2)
        row = emit(record, layout)
        assert row.record is record
        assert page_records(row.record, [binding]) == (("a", ("o", ()), 2),)
        hand_built = Row(bindings={Variable("X"): 1})
        assert hand_built.record is None
        assert row == hand_built

    def test_merge_concatenates(self):
        x, y = Variable("X"), Variable("Y")
        left = ((1,), 0, ROOT, "s1", None, 0)
        right = ((2,), 3, ROOT, "s2", 3, ("b_backup", 3))
        joined = ((1, 2), 3, left, right)
        bindings = [
            _binding("s1", "a", (Constant("i"), x), "io"),
            _binding("s2", "b", (Constant("i"), y), "io"),
        ]
        # The left chain's pulls, then the right chain's — a sibling's
        # name where it served the page.
        assert page_records(joined, bindings) == (
            ("a", ("io", ((0, "i"),)), 0),
            ("b_backup", ("io", ((0, "i"),)), 3),
        )
        assert page_records(joined, bindings) == (
            page_records(left, bindings) + page_records(right, bindings)
        )

    def test_with_provenance_appends(self, tiny_registry, tiny_query):
        # A joined row's records follow the order its pages were pulled.
        result = ExecutionEngine(tiny_registry).execute(
            _tiny_plan(tiny_registry, tiny_query), head=tiny_query.head
        )
        assert result.rows
        for pulls in _pulls(result):
            assert [pull[0] for pull in pulls] == ["cities", "spots"]

    def test_with_rank_preserves(self, tiny_registry, tiny_query):
        # The pulls of the ranked services line up with the row's ranks.
        result = ExecutionEngine(tiny_registry).execute(
            _tiny_plan(tiny_registry, tiny_query)
        )
        services = {
            step.node_id: step.binding.service_name
            for step in result.program.steps if step.binding
        }
        assert all(row.ranks for row in result.rows)
        for row, pulls in zip(result.rows, _pulls(result)):
            ranked = [services[node_id] for node_id, _ in row.ranks]
            assert [pull[0] for pull in pulls if pull[0] in ranked] == ranked


def _run(registry, query, *, lazy=True, k=8):
    """The execution of the plan optimized for 8 answers: its top *k*
    (a full scan for ``None``), the terminal's inputs fetched lazily
    or up front."""
    plan = _optimize(registry, query)
    engine = (
        ExecutionEngine(registry) if lazy else eager_streamed_engine(registry)
    )
    return engine.execute(plan, head=query.head, k=k)


class TestEngineProvenance:
    MODES = [
        ("full-scan", dict(k=None)),
        ("top-k-lazy", dict(lazy=True)),
        ("top-k-eager", dict(lazy=False)),
    ]
    modes = pytest.mark.parametrize(
        "kwargs", [kwargs for _, kwargs in MODES],
        ids=[name for name, _ in MODES],
    )

    @modes
    def test_every_row_tagged_and_answers_unchanged(self, kwargs):
        query = experts_query()
        plain = _run(biblio_registry(), query, **kwargs).rows
        tagged = _run(biblio_registry(), query, **kwargs)
        # Rank *labels* are registry-local auto-assigned ids, so a
        # cross-registry differential compares bindings + rank values.
        signature_of = lambda rows: [  # noqa: E731
            (r.bindings, tuple(rank for _, rank in r.ranks)) for r in rows
        ]
        assert signature_of(plain) == signature_of(tagged.rows)
        assert plain  # the query has answers
        services = {name for name in ("pubsearch", "authors", "projects")}
        for pulls in _pulls(tagged):
            named = {pull[0] for pull in pulls}
            # One record per service atom the row was joined from.
            assert named == services
            assert all(page >= 0 for _, _, page in pulls)

    @modes
    def test_records_replay_truthfully(self, kwargs):
        # Every record of every row of the three-atom experts plan.
        registry = biblio_registry()
        query = experts_query()
        result = _run(registry, query, **kwargs)
        assert result.rows
        for row, pulls in zip(result.rows, _pulls(result)):
            answer = {v.name: value for v, value in row.bindings.items()}
            _assert_replayable(registry, query, answer, pulls)

    def test_a_one_atom_record_replays_the_answer(self):
        registry = biblio_registry()
        query = parse_query(PUBSEARCH_ONLY)
        result = _run(registry, query)
        assert result.rows
        for row, pulls in zip(result.rows, _pulls(result)):
            assert len(pulls) == 1
            service_name, (pattern_code, bound), page = pulls[0]
            service = registry.service(service_name)
            replayed = service.invoke(
                service.signature.pattern(pattern_code), dict(bound), page
            )
            answer = row.project(query.head)
            assert any(
                tuple_[1:4] == answer for tuple_ in replayed.tuples
            ), (answer, replayed.tuples)


class TestReplayedPaths:
    """The paths on which a record is most likely to lie."""

    def test_a_sibling_served_unit_names_the_sibling(self):
        registry, query, _ = build_world(sibling=True)
        make_flaky(registry, "lefts", fail_rate=1.0)
        response = QueryService(
            registry=registry, resilience=RESILIENT, row_provenance=True
        ).submit(query, k=4)
        assert response.partial["substituted"]
        rows = _rendered_pulls(response)
        assert rows
        for answer, pulls in rows:
            assert "lefts" not in {pull[0] for pull in pulls}
            _assert_replayable(
                registry, query, answer, pulls, {"lefts_backup": "lefts"}
            )

    def test_news_growth_in_place_carries_every_record(self):
        registry = news_registry()
        service = QueryService(registry=registry, row_provenance=True)
        first = service.submit(_NEWS_TEMPLATE, k=3)
        more = service.ask_for_more(first.session_id, 12)
        executor = service.sessions.get(first.session_id).executor
        assert any(r.grown for r in executor.rounds)
        assert len(more.rows) > len(first.rows)
        query = parse_query(_NEWS_TEMPLATE)
        for answer, pulls in _rendered_pulls(more):
            # Both lookups read the one shared head record: one pull.
            assert [pull[0] for pull in pulls].count("newssearch") == 1
            _assert_replayable(registry, query, answer, pulls)

    def test_a_resumed_travel_round_carries_every_record(self):
        registry = travel_registry()
        service = QueryService(registry=registry, row_provenance=True)
        first = service.submit(_TRAVEL_TEMPLATE, k=3)
        more = service.ask_for_more(first.session_id, 3)
        executor = service.sessions.get(first.session_id).executor
        assert executor.rounds[-1].resumed
        assert len(more.rows) > len(first.rows)
        query = parse_query(_TRAVEL_TEMPLATE)
        for answer, pulls in _rendered_pulls(more):
            _assert_replayable(registry, query, answer, pulls)

    def test_a_spliced_session_replays_against_its_new_program(self):
        # The replacement plan runs rights before lefts, so its node ids
        # name other services than the aborted plan's did.
        registry, query, plan = build_world(sibling=True, fetches=3)
        make_flaky(registry, "lefts", delay_rate=1.0)
        chained = PlanBuilder(query, registry).build(
            (
                registry.signature("lefts").pattern("ioo"),
                registry.signature("rights").pattern("ioo"),
            ),
            chain_poset(2, [1, 0]),
            fetches={0: 3, 1: 3},
        )
        executor = ProgressiveExecutor(
            registry=registry, plan=plan, head=tuple(query.head),
            replan=lambda observed: chained,
        )
        result = executor.run(36)
        (event,) = executor.drift_events
        assert event.replanned and event.substituted_with == "lefts_backup"
        assert result.rows
        for row, pulls in zip(result.rows, _pulls(result)):
            answer = {v.name: value for v, value in row.bindings.items()}
            assert [pull[0] for pull in pulls] == ["rights", "lefts_backup"]
            _assert_replayable(
                registry, query, answer, pulls, {"lefts_backup": "lefts"}
            )


class TestServingProvenance:
    def _service(self, enabled, registry=None, plan_cache=None):
        kwargs = {} if plan_cache is None else {"plan_cache": plan_cache}
        return QueryService(
            registry=registry if registry is not None else biblio_registry(),
            row_provenance=enabled,
            **kwargs,
        )

    @staticmethod
    def _canonical(rendered: dict) -> dict:
        """Rendered response with rank labels made submission-stable.

        Rank labels are plan-node ids minted fresh on every plan
        materialization (two *identical disabled* submissions already
        differ in them), so the byte-identity claim is over the
        response modulo that pre-existing gensym: labels are renamed
        to their order of first appearance.
        """
        names: dict[str, str] = {}
        ranks = [
            [
                [names.setdefault(label, f"n{len(names)}"), rank]
                for label, rank in row
            ]
            for row in rendered["ranks"]
        ]
        return {**rendered, "ranks": ranks}

    def test_disabled_response_is_byte_identical(self):
        # One registry (rank values are registry-order-dependent),
        # remote latency state reset between submissions so each sees
        # an equally cold world.
        registry = biblio_registry()
        off = self._service(False, registry).submit(experts_query(), k=6)
        registry.reset_all()
        off_again = self._service(False, registry).submit(experts_query(), k=6)
        registry.reset_all()
        on = self._service(True, registry).submit(experts_query(), k=6)
        rendered_off = off.to_dict()
        rendered_on = on.to_dict()
        assert "row_provenance" not in rendered_off
        assert json.dumps(rendered_off, sort_keys=True) == off.to_json()
        provenance = rendered_on.pop("row_provenance")
        assert len(provenance) == len(rendered_off["rows"])
        # The gensym baseline: two disabled submissions agree only up
        # to label renaming — and the enabled one agrees to exactly
        # the same degree, i.e. provenance changed no answer bytes.
        assert self._canonical(off_again.to_dict()) == self._canonical(
            rendered_off
        )
        assert self._canonical(rendered_on) == self._canonical(rendered_off)

    def test_records_are_epoch_stamped_dicts(self):
        response = self._service(True).submit(experts_query(), k=6)
        rendered = response.to_dict()
        assert rendered["rows"]
        for row_records in rendered["row_provenance"]:
            assert row_records  # no answer row without an audit trail
            for record in row_records:
                assert set(record) == {"service", "input", "page", "epoch"}
                assert record["epoch"] == response.epoch
                assert record["page"] >= 0

    def test_continuations_carry_provenance(self):
        service = self._service(True)
        first = service.submit(experts_query(), k=3)
        more = service.ask_for_more(first.session_id, 4)
        rendered = more.to_dict()
        assert len(rendered["row_provenance"]) == len(rendered["rows"])
        assert len(rendered["rows"]) > len(first.rows)
        assert all(records for records in rendered["row_provenance"])

    def test_json_round_trip(self):
        response = self._service(True).submit(experts_query(), k=4)
        decoded = json.loads(response.to_json())
        rendered = json.loads(
            json.dumps(response.to_dict()["row_provenance"])
        )  # tuples flatten to JSON arrays
        assert decoded["row_provenance"] == rendered

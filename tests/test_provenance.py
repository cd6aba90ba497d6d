"""Per-row provenance: truthful audit records, zero-cost when off.

Every answer row can carry the ``(service, input key, page index)``
of each page pull that contributed to it
(:data:`~repro.execution.results.ProvenanceRecord`), epoch-stamped at
the serving layer.  The contracts pinned here:

* **Off by default, and free**: with ``row_provenance`` disabled
  (everywhere the default) every row's provenance is empty, rows and
  ranks are bit-identical to a provenance-enabled run, and the JSON
  response is byte-identical — the ``row_provenance`` key is *absent*,
  not null.
* **Truthful**: replaying the invocation named by a record (same
  service, pattern, inputs, page) returns a page actually containing
  the row's contribution — provenance is an audit trail, not an
  annotation.
* **Complete**: under every execution mode (sequential, parallel,
  streamed lazy/eager) and through continuations, every answer row
  carries one record per service atom it was joined from.
"""

from __future__ import annotations

import json

import pytest

from repro.execution.engine import ExecutionEngine, ExecutionMode
from repro.execution.results import Row
from repro.model.parser import parse_query
from repro.serving import QueryService
from repro.sources.biblio import biblio_registry, experts_query
from repro.testing import eager_streamed_engine, merged_with

PUBSEARCH_ONLY = (
    "q(P, T, Y) :- pubsearch('service computing', P, T, Y)."
)


def _optimize(registry, query, k=8):
    from repro.costs.time_cost import ExecutionTimeMetric
    from repro.optimizer.optimizer import Optimizer, OptimizerConfig

    return Optimizer(
        registry, ExecutionTimeMetric(), OptimizerConfig(k=k)
    ).optimize(query).plan


class TestRowMechanics:
    def test_with_provenance_appends(self):
        row = Row(bindings={"X": 1})
        tagged = row.with_provenance(("svc", ("i", ((0, "a"),)), 0))
        again = tagged.with_provenance(("svc", ("i", ((0, "a"),)), 1))
        assert row.provenance == ()
        assert len(again.provenance) == 2

    def test_merge_concatenates(self):
        left = Row(bindings={"X": 1}).with_provenance(("a", ("i", ()), 0))
        right = Row(bindings={"Y": 2}).with_provenance(("b", ("i", ()), 3))
        merged = merged_with(left, right)
        assert merged is not None
        assert merged.provenance == left.provenance + right.provenance

    def test_with_rank_preserves(self):
        row = Row(bindings={"X": 1}).with_provenance(("a", ("i", ()), 0))
        assert row.with_rank("s1", 4).provenance == row.provenance


def _rows(registry, query, *, enabled, mode=ExecutionMode.PARALLEL,
          lazy=True, k=8):
    plan = _optimize(registry, query, k)
    engine = (
        ExecutionEngine(registry, mode=mode, row_provenance=enabled)
        if lazy
        else eager_streamed_engine(registry, row_provenance=enabled)
    )
    return engine.execute(plan, head=query.head, k=k).rows


class TestEngineProvenance:
    MODES = [
        ("parallel", dict(mode=ExecutionMode.PARALLEL)),
        ("streamed-lazy", dict(mode=ExecutionMode.STREAMED, lazy=True)),
        ("streamed-eager", dict(mode=ExecutionMode.STREAMED, lazy=False)),
    ]

    @pytest.mark.parametrize(
        "kwargs", [kwargs for _, kwargs in MODES],
        ids=[name for name, _ in MODES],
    )
    def test_every_row_tagged_and_answers_unchanged(self, kwargs):
        query = experts_query()
        plain = _rows(biblio_registry(), query, enabled=False, **kwargs)
        tagged = _rows(biblio_registry(), query, enabled=True, **kwargs)
        # Rank *labels* are registry-local auto-assigned ids, so a
        # cross-registry differential compares bindings + rank values.
        signature_of = lambda rows: [  # noqa: E731
            (r.bindings, tuple(rank for _, rank in r.ranks)) for r in rows
        ]
        assert signature_of(plain) == signature_of(tagged)
        assert plain  # the query has answers
        assert all(row.provenance == () for row in plain)
        services = {name for name in ("pubsearch", "authors", "projects")}
        for row in tagged:
            named = {record[0] for record in row.provenance}
            # One record per service atom the row was joined from.
            assert named == services
            assert all(page >= 0 for _, _, page in row.provenance)

    def test_records_replay_truthfully(self):
        registry = biblio_registry()
        query = parse_query(PUBSEARCH_ONLY)
        rows = _rows(registry, query, enabled=True)
        assert rows
        for row in rows:
            assert len(row.provenance) == 1
            service_name, (pattern_code, bound), page = row.provenance[0]
            service = registry.service(service_name)
            replayed = service.invoke(
                service.signature.pattern(pattern_code), dict(bound), page
            )
            answer = row.project(query.head)
            assert any(
                tuple_[1:4] == answer for tuple_ in replayed.tuples
            ), (answer, replayed.tuples)


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

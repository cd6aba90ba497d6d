"""Unit tests for result rows and ranking composition."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.results import (
    ROOT,
    ResultTable,
    Row,
    SlotLayout,
    emit,
)
from repro.execution.fetch import page_records
from repro.model.terms import Constant, Variable
from repro.testing import as_record, compose_ranking, merged_with

from tests.test_provenance import _binding


def _row(ranks=(), **bindings):
    return Row(
        bindings={Variable(k): v for k, v in bindings.items()},
        ranks=tuple(ranks),
    )


class TestRow:
    def test_value(self):
        row = _row(City="Roma")
        assert row.value(Variable("City")) == "Roma"

    def test_rank_key_sums_indexes(self):
        row = _row(ranks=[("a", 2), ("b", 5)])
        assert row.rank_key() == 7

    def test_with_rank_appends(self, tiny_registry, tiny_query):
        from repro.execution.engine import ExecutionEngine
        from repro.plans.builder import PlanBuilder
        from repro.testing import chain_poset

        plan = PlanBuilder(tiny_query, tiny_registry).build(
            tuple(
                tiny_registry.signature(a.service).patterns[0]
                for a in tiny_query.atoms
            ),
            chain_poset(2, [0, 1]),
            fetches={1: 2},
        )
        rows = ExecutionEngine(tiny_registry).execute(plan).rows
        spots = plan.service_node_for_atom(1).node_id
        # One rank per search node a row passed; the bulk cities node adds none.
        assert rows and all([node for node, _ in row.ranks] == [spots] for row in rows)
        roma = [row.rank_key() for row in rows if row.value(Variable("City")) == "Roma"]
        assert sorted(roma) == [0, 1, 2]

    def test_merge_compatible(self):
        merged = merged_with(_row(City="Roma", F=1), _row(City="Roma", H=2))
        assert merged is not None
        assert merged.bindings[Variable("F")] == 1
        assert merged.bindings[Variable("H")] == 2

    def test_merge_conflicting_returns_none(self):
        assert merged_with(_row(City="Roma"), _row(City="Milano")) is None

    def test_merge_concatenates_ranks(self):
        merged = merged_with(_row(ranks=[("a", 1)], A=1), _row(ranks=[("b", 2)], B=2))
        assert merged.ranks == (("a", 1), ("b", 2))

    def test_project(self):
        row = _row(City="Roma", Price=90)
        assert row.project([Variable("Price"), Variable("City")]) == (90, "Roma")


class TestComposeRanking:
    def test_orders_by_aggregate_rank(self):
        rows = [_row(ranks=[("a", 3)], X=1), _row(ranks=[("a", 1)], X=2)]
        ordered = compose_ranking(rows)
        assert [r.bindings[Variable("X")] for r in ordered] == [2, 1]

    def test_stable_on_ties(self):
        rows = [_row(ranks=[("a", 1)], X=1), _row(ranks=[("a", 1)], X=2)]
        ordered = compose_ranking(rows)
        assert [r.bindings[Variable("X")] for r in ordered] == [1, 2]

    def test_dominated_rows_never_precede(self):
        better = _row(ranks=[("a", 0), ("b", 1)], X="good")
        worse = _row(ranks=[("a", 2), ("b", 3)], X="bad")
        ordered = compose_ranking([worse, better])
        assert ordered[0].bindings[Variable("X")] == "good"

    def test_top_k_heap_path_matches_full_sort(self):
        """Name kept from when a bounded ``k`` took a heap selection:
        today ``k`` truncates the full sort."""
        rows = [
            _row(ranks=[("a", rank)], X=index)
            for index, rank in enumerate([5, 1, 3, 1, 0, 4, 1, 2])
        ]
        full = compose_ranking(rows)
        assert [r.rank_key() for r in full] == [0, 1, 1, 1, 2, 3, 4, 5]
        for k in range(len(rows) + 2):
            assert compose_ranking(rows, k=k) == full[:k]
        assert compose_ranking(rows, k=None) == full

    def test_duplicate_ranks_heap_path_keeps_arrival_order(self):
        """The documented (rank_key, arrival) contract under a bounded
        ``k``: with many duplicate composed ranks, the first *k* rows
        are the *earliest-arriving* of each tie class, in arrival order
        — exactly the full stable sort truncated, and exactly what the
        streamed pipeline emits."""
        rows = [
            _row(ranks=[("a", rank)], X=index)
            for index, rank in enumerate([1, 1, 0, 1, 0, 1, 0, 1, 1])
        ]
        full = compose_ranking(rows)
        # ties resolved by arrival: all rank-0 rows first (X = 2, 4, 6),
        # then the rank-1 rows in arrival order.
        assert [r.bindings[Variable("X")] for r in full] == [2, 4, 6, 0, 1, 3, 5, 7, 8]
        for k in range(len(rows) + 1):
            assert compose_ranking(rows, k=k) == full[:k]

    def test_identical_rows_tie_broken_by_position(self):
        """Even fully identical rows (equal bindings *and* ranks) keep
        their positions under a bounded ``k``: Row objects are never
        compared, only their rank keys."""
        row = _row(ranks=[("a", 1)], X=0)
        rows = [row, _row(ranks=[("a", 1)], X=0), row]
        for k in range(len(rows) + 1):
            ranked = compose_ranking(rows, k=k)
            assert ranked == rows[:k]
            assert all(a is b for a, b in zip(ranked, rows))


class TestResultTable:
    def test_top_and_tuples(self):
        head = (Variable("City"),)
        table = ResultTable(
            head=head,
            rows=[_row(City="Roma"), _row(City="Milano"), _row(City="Paris")],
        )
        assert len(table) == 3
        assert table.tuples(2) == [("Roma",), ("Milano",)]
        assert len(table.top(2)) == 2

    def test_render_contains_header_and_rows(self):
        head = (Variable("City"), Variable("Price"))
        table = ResultTable(head=head, rows=[_row(City="Roma", Price=90)])
        text = table.render()
        assert "City" in text and "Price" in text
        assert "Roma" in text and "90" in text
        assert text.splitlines()[1].startswith("-")

    def test_render_empty(self):
        table = ResultTable(head=(Variable("City"),))
        assert "City" in table.render()


class TestRecords:
    """Until it is emitted a bound tuple is a record; ``emit`` reads an
    answer's ranks off the record's chain and keeps the chain, from
    which ``page_records`` derives its page pulls."""

    def test_emit_walks_service_records_and_joins(self):
        a, b, c = Variable("A"), Variable("B"), Variable("C")
        layout = SlotLayout((a, b))
        first = ((1,), 2, ROOT, "s1", 2, 1)
        # s2's unit was served by the sibling "sib".
        unranked = ((1, 5), 2, first, "s2", None, ("sib", 0))
        other = ((7,), 3, ROOT, "s3", 3, 4)
        joined = ((1, 5, 7), 5, unranked, other)
        assert emit(unranked, layout) == Row(
            layout=layout, values=(1, 5), ranks=(("s1", 2),)
        )
        row = emit(joined, SlotLayout((*layout.variables, c)))
        assert row.ranks == (("s1", 2), ("s3", 3))
        assert row.rank_key() == joined[1]
        assert row.record is joined
        bindings = [
            _binding("s1", "svc", (Constant("q"), a), "io"),
            _binding("s2", "ex", (a, b), "io", SlotLayout((a,))),
            _binding("s3", "other", (Constant("q"), c), "io"),
        ]
        assert page_records(row.record, bindings) == (
            ("svc", ("io", ((0, "q"),)), 1),
            ("sib", ("io", ((0, 1),)), 0),
            ("other", ("io", ((0, "q"),)), 4),
        )
        assert emit(ROOT, SlotLayout(())) == Row()
        assert page_records(ROOT, bindings) == ()

    @given(
        st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 9)), max_size=4),
        st.lists(st.integers(0, 3), min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_hand_built_row_round_trips_through_its_record(self, ranks, values):
        row = Row(
            bindings={Variable(f"V{i}"): value for i, value in enumerate(values)},
            ranks=tuple(ranks),
        )
        record = as_record(row)
        assert record[1] == row.rank_key()
        emitted = emit(record, row.layout)
        assert emitted == row
        assert emitted.record is record


class TestRowsBuiltPerAnswer:
    def test_the_warm_templates_build_at_most_two_rows_per_answer(
        self, monkeypatch
    ):
        """The frozen bench's 13 ``zipf_warm`` templates on one primed
        fleet: a warm request builds a ``Row`` for an answer it returns
        and hardly any other (31 per answer when every bound tuple was
        one)."""
        from pathlib import Path

        from repro.serving import PlanCache, QueryService

        monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
        from workloads import IN_MEMORY, zipf_population

        plan_cache = PlanCache()
        services = {
            domain: QueryService(registry=registry(), plan_cache=plan_cache)
            for domain, registry in IN_MEMORY.items()
        }
        population = zipf_population(k=5)
        for request in population:  # priming, as the bench's set-up
            services[request.domain].submit(request.text, k=request.k)
        built = []
        init = Row.__init__

        def counting(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Row, "__init__", counting)
        answers = 0
        for _ in range(3):
            for request in population:
                response = services[request.domain].submit(request.text, k=request.k)
                answers += len(response.rows)
        assert answers > 0
        assert len(built) <= 2 * answers

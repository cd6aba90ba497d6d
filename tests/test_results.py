"""Unit tests for result rows and ranking composition."""

from repro.execution.results import ResultTable, Row, compose_ranking
from repro.model.terms import Variable
from repro.testing import merged_with


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

    def test_with_rank_appends(self):
        row = _row(ranks=[("a", 1)]).with_rank("b", 4)
        assert row.ranks == (("a", 1), ("b", 4))

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
        rows = [
            _row(ranks=[("a", rank)], X=index)
            for index, rank in enumerate([5, 1, 3, 1, 0, 4, 1, 2])
        ]
        full = compose_ranking(rows)
        for k in range(len(rows) + 2):
            assert compose_ranking(rows, k=k) == full[:k]
        assert compose_ranking(rows, k=None) == full

    def test_duplicate_ranks_heap_path_keeps_arrival_order(self):
        """Regression for the documented (rank_key, arrival) contract:
        with many duplicate composed ranks, the heap path must return
        the *earliest-arriving* rows of each tie class, in arrival
        order — exactly the full stable sort truncated, and exactly
        what the streamed pipeline emits."""
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
        """Even fully identical rows (equal bindings *and* ranks) must
        not trip the heap path: the arrival index decorates the heap
        entries, so Row objects are never compared."""
        row = _row(ranks=[("a", 1)], X=0)
        rows = [row, _row(ranks=[("a", 1)], X=0), row]
        for k in range(len(rows) + 1):
            assert compose_ranking(rows, k=k) == rows[:k]


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

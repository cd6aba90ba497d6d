"""Figure 7 / Example 5.1 — the plan space of the running example.

Once conf is forced first by the α1 access patterns, the remaining
three atoms admit exactly 19 alternative plans (the partial orders on
three elements).  ``repro.experiments.run_figure7`` enumerates and
costs all of them under the execution-time metric, regenerating the
comparison the paper walks through: the serial plan (a), the pruned
prefix (b), the all-parallel plan (c), and the optimal plan (d) =
Figure 8's plan O.
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.experiments import PAPER_PLAN_COUNT, artifact, run_figure7
from repro.sources.travel import poset_optimal, poset_parallel, poset_serial

pytestmark = pytest.mark.bench


def _cost_of(costed, poset):
    """The cost of the plan whose precedence closure is *poset*'s."""
    (row,) = [row for row in costed.plans if row.poset.closure() == poset.closure()]
    return row.cost


@pytest.fixture()
def costed(registry, travel_query):
    return run_figure7(registry, travel_query)


class TestFigure7:
    def test_bench_plan_space_costing(
        self, benchmark, registry, travel_query, out_dir
    ):
        costed = benchmark(run_figure7, registry, travel_query)
        assert len(costed.plans) == PAPER_PLAN_COUNT
        self.test_write_figure7_table(costed, out_dir)

    def test_exactly_19_plans(self, costed):
        assert len(costed.plans) == PAPER_PLAN_COUNT

    def test_plan_o_is_the_cheapest_feasible(self, costed):
        feasible = [row for row in costed.plans if row.fetch_result.feasible]
        best = min(feasible, key=lambda row: row.cost)
        assert best.poset.closure() == poset_optimal().closure()

    def test_parallel_plan_is_among_the_worst(self, costed):
        """Plan P 'turns out to be the worst choice, since the
        selective effect of weather is lost' (Section 6): under ETM it
        costs several times the optimum."""
        best = min(row.cost for row in costed.plans)
        assert _cost_of(costed, poset_parallel()) > 3 * best

    def test_serial_beats_parallel_under_etm(self, costed):
        assert _cost_of(costed, poset_serial()) < _cost_of(costed, poset_parallel())

    def test_write_figure7_table(self, costed, out_dir):
        write_artifact(out_dir, "figure7_plan_space.txt", artifact(costed))

"""Figure 8 — the fully instantiated physical access plan.

Checks every annotation ``repro.experiments.run_figure8`` regenerates
against the figure: the fetching factors from Eq. 6 (F_flight=3,
F_hotel=4 at k=10), the per-node t_in/t_out values, and the merge-scan
join's 1500 candidate pairs shrinking to 15 expected answers under the
estimated join erspi of 0.01.
"""

import pytest

from benchmarks.conftest import write_artifact
from repro.experiments import (
    PAPER_FETCHES,
    PAPER_FIGURE8,
    PAPER_FIGURE8_JOIN,
    artifact,
    run_figure8,
)

pytestmark = pytest.mark.bench


class TestFigure8:
    def test_bench_annotation_pipeline(
        self, benchmark, registry, travel_query, out_dir
    ):
        figure = benchmark(run_figure8, registry, travel_query)
        assert figure.annotation.output_size == pytest.approx(
            PAPER_FIGURE8_JOIN[1]
        )
        self.test_all_annotations(registry, travel_query, out_dir)

    def test_fetching_factors(self, registry, travel_query):
        assert run_figure8(registry, travel_query).fetches == PAPER_FETCHES

    def test_all_annotations(self, registry, travel_query, out_dir):
        figure = run_figure8(registry, travel_query)
        plan, annotation = figure.plan, figure.annotation
        for atom_index, (calls, t_out) in PAPER_FIGURE8.items():
            node = plan.service_node_for_atom(atom_index)
            assert annotation.calls(node) == pytest.approx(calls), atom_index
            assert annotation.tuples_out(node) == pytest.approx(t_out), atom_index
        join = plan.join_nodes[0]
        pairs, answers = PAPER_FIGURE8_JOIN
        assert annotation.tuples_in(join) == pytest.approx(pairs)
        assert annotation.tuples_out(join) == pytest.approx(answers)
        write_artifact(
            out_dir, "figure8_annotation.txt",
            artifact(
                figure,
                "       t_in/t_out per node as asserted above — exact match.",
            ),
        )

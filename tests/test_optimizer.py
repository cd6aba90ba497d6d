"""Integration tests for the three-phase branch-and-bound optimizer."""

import pytest

import golden_plans
from repro.costs.sum_cost import RequestResponseMetric
from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.optimizer.optimizer import Optimizer, OptimizerConfig, optimize_query
from repro.plans.dag import PlanError
from repro.sources.travel import poset_optimal, running_example_query


class TestConfig:
    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(k=0)

    def test_invalid_heuristic_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(fetch_heuristic="magic")


class TestRunningExampleOptimum:
    def test_etm_picks_plan_o(self, registry, travel_query):
        """Under the execution-time metric the optimizer selects the
        paper's plan O: conf → weather → (flight ∥ hotel) → MS."""
        optimizer = Optimizer(
            registry,
            ExecutionTimeMetric(),
            OptimizerConfig(k=10, cache_setting=CacheSetting.ONE_CALL),
        )
        best = optimizer.optimize(travel_query)
        assert best.poset.closure() == poset_optimal().closure()
        assert [p.code for p in best.patterns] == [
            "iiiiooo", "oiiiio", "ioooo", "ioi"
        ]
        assert best.expected_answers >= 10
        assert best.cost == pytest.approx(40.9)

    def test_etm_fetches_satisfy_k(self, registry, travel_query):
        optimizer = Optimizer(
            registry, ExecutionTimeMetric(), OptimizerConfig(k=10)
        )
        best = optimizer.optimize(travel_query)
        product = best.fetches[0] * best.fetches[1]
        assert product >= 8  # K' = ceil(10 / 1.25)

    def test_rr_prefers_more_sequencing(self, registry, travel_query):
        """Sequencing selective services favors invocation-count
        metrics (Section 4.2.1)."""
        optimizer = Optimizer(
            registry, RequestResponseMetric(), OptimizerConfig(k=10)
        )
        best = optimizer.optimize(travel_query)
        # The RR-optimal plan sequences at least one search service
        # after the other instead of running them in parallel.
        closure = best.poset.closure()
        assert (1, 0) in closure or (0, 1) in closure

    def test_heuristics_only_mode_still_feasible(self, registry, travel_query):
        optimizer = Optimizer(
            registry,
            ExecutionTimeMetric(),
            OptimizerConfig(k=10, max_topologies_per_sequence=0),
        )
        best = optimizer.optimize(travel_query)
        assert best.expected_answers >= 10

    def test_most_cogent_only_finds_same_plan(self, registry, travel_query):
        full = Optimizer(
            registry, ExecutionTimeMetric(), OptimizerConfig(k=10)
        ).optimize(travel_query)
        cogent = Optimizer(
            registry,
            ExecutionTimeMetric(),
            OptimizerConfig(k=10, most_cogent_only=True),
        ).optimize(travel_query)
        assert cogent.cost == pytest.approx(full.cost)


class TestPruning:
    def test_pruning_preserves_optimum(self, registry, travel_query):
        pruned = Optimizer(
            registry, ExecutionTimeMetric(), OptimizerConfig(k=10, prune=True)
        ).optimize(travel_query)
        unpruned = Optimizer(
            registry, ExecutionTimeMetric(), OptimizerConfig(k=10, prune=False)
        ).optimize(travel_query)
        assert pruned.cost == pytest.approx(unpruned.cost)

    def test_pruning_reduces_work(self, registry, travel_query):
        pruned = Optimizer(
            registry, ExecutionTimeMetric(), OptimizerConfig(k=10, prune=True)
        ).optimize(travel_query)
        unpruned = Optimizer(
            registry, ExecutionTimeMetric(), OptimizerConfig(k=10, prune=False)
        ).optimize(travel_query)
        assert pruned.stats.plans_completed <= unpruned.stats.plans_completed
        assert pruned.stats.topology_states_pruned > 0


class TestSmallDomains:
    def test_tiny_query(self, tiny_registry, tiny_query):
        best = optimize_query(
            tiny_query, tiny_registry, RequestResponseMetric(), k=3
        )
        assert best.expected_answers >= 3
        assert len(best.plan.service_nodes) == 2

    def test_bio_query(self):
        from repro.sources.bio import bio_registry, glycolysis_homolog_query

        best = optimize_query(
            glycolysis_homolog_query(), bio_registry(), ExecutionTimeMetric(), k=5
        )
        assert best.expected_answers >= 5
        # blast's decay bounds its fetching factor to 3 chunks.
        blast_node = best.plan.service_node_for_atom(2)
        assert blast_node.fetches <= 3

    def test_weekend_query(self):
        from repro.sources.weekend import mahler_weekend_query, weekend_registry

        best = optimize_query(
            mahler_weekend_query(), weekend_registry(), ExecutionTimeMetric(), k=3
        )
        assert best.expected_answers >= 3


class TestErrors:
    def test_unanswerable_query_raises(self, tiny_registry):
        from repro.model.atoms import atom
        from repro.model.query import query
        from repro.model.terms import Variable

        # spots requires City in input, nothing can provide it.
        blocked = query(
            "q", [Variable("Spot")], [atom("spots", "City", "Spot", "Score")]
        )
        optimizer = Optimizer(
            tiny_registry, ExecutionTimeMetric(), OptimizerConfig(k=1)
        )
        with pytest.raises(PlanError):
            optimizer.optimize(blocked)

    def test_describe_is_informative(self, tiny_registry, tiny_query):
        best = optimize_query(
            tiny_query, tiny_registry, RequestResponseMetric(), k=3
        )
        text = best.describe()
        assert "cost=" in text and "plan:" in text


def test_estimation_work_is_accounted(registry, travel_query):
    """``annotate_calls`` is the search's view; phase 3 evaluates most
    estimates, one program per plan, and says so."""
    optimizer = Optimizer(registry, ExecutionTimeMetric(), OptimizerConfig(k=10))
    cold = optimizer.optimize(travel_query).stats
    # One program per search-level annotation: bound, completed plan,
    # materialization — and phase 3 reuses its plan's program across
    # every vector it tries.
    assert cold.programs_compiled == cold.annotate_calls
    assert cold.fetch_vectors_evaluated > cold.fetch_evaluations > 0
    assert "fetch vectors=" in cold.summary() and "programs=" in cold.summary()
    warm = optimizer.optimize(travel_query).stats
    assert (warm.programs_compiled, warm.fetch_vectors_evaluated) == (1, 0)


@pytest.mark.parametrize(
    "case, profile, metric, config", list(golden_plans.cases()),
    ids=[case for case, *_ in golden_plans.cases()],
)
def test_the_search_decides_what_the_parent_commit_decided(
    case, profile, metric, config
):
    """Golden plans: patterns, poset, fetches, ``cost.hex()``, every node
    estimate and every parent-era ``SearchStats`` counter equal what the
    commit before the annotation program produced (tests/golden_plans.py)."""
    golden = dict(golden_plans.load()[case])
    observed = dict(golden_plans.run_case(profile, metric, config))
    del golden["warm_stats"], observed["warm_stats"]  # test_memo.py
    assert observed == golden

"""Integration tests for the three-phase branch-and-bound optimizer."""

import pytest

import golden_plans
from repro.costs.sum_cost import RequestResponseMetric, SumCostMetric
from repro.costs.time_cost import BottleneckMetric, ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.plans.dag import PlanError
from repro.sources.travel import poset_optimal, running_example_query
from repro.testing import MostCogentOptimizer, UnprunedOptimizer


class TestConfig:
    @pytest.mark.parametrize("k", [0, -1, 2.5, True, "3", None])
    def test_invalid_k_rejected(self, k):
        """k is a count, checked as every other entry point checks one."""
        with pytest.raises(ValueError):
            OptimizerConfig(k=k)


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

    def test_most_cogent_only_finds_same_plan(self, registry, travel_query):
        full = Optimizer(
            registry, ExecutionTimeMetric(), OptimizerConfig(k=10)
        ).optimize(travel_query)
        cogent = MostCogentOptimizer(
            registry, ExecutionTimeMetric(), OptimizerConfig(k=10)
        ).optimize(travel_query)
        assert cogent.cost == pytest.approx(full.cost)


class TestPruning:
    def test_pruning_preserves_optimum(self, registry, travel_query):
        pruned, unpruned = (
            search(registry, ExecutionTimeMetric(), OptimizerConfig(k=10))
            .optimize(travel_query)
            for search in (Optimizer, UnprunedOptimizer)
        )
        assert pruned.cost == pytest.approx(unpruned.cost)

    def test_pruning_reduces_work(self, registry, travel_query):
        pruned, unpruned = (
            search(registry, ExecutionTimeMetric(), OptimizerConfig(k=10))
            .optimize(travel_query)
            for search in (Optimizer, UnprunedOptimizer)
        )
        assert pruned.stats.plans_completed <= unpruned.stats.plans_completed
        assert pruned.stats.topology_states_pruned > 0

    @pytest.mark.parametrize("cache_setting", list(CacheSetting))
    def test_no_sequence_is_discarded_by_its_slowest_single_call(
        self, registry, cache_setting
    ):
        """Under the bottleneck metric a node's work is F · calls · τ,
        and calls falls below 1 downstream of a selective node, so the
        slowest single call (9.7) bounds no pattern sequence: taken for
        one, it discarded the two sequences holding the optimum (3.63
        at k = 1) and the search returned a plan costing 7.19."""
        from repro.model.parser import parse_query
        from repro.testing.exhaustive import exhaustive_optimize

        query = parse_query(
            "q(Conf, City, Hotel, FPrice, HPrice, Start, End, OutTime, RetTime) :- "
            "flight('Milano', City, Start, End, OutTime, RetTime, FPrice), "
            "hotel(Hotel, City, 'luxury', Start, End, HPrice), "
            "conf('DB', Conf, Start, End, City), weather(City, Temperature, Start), "
            "Start >= '2008-04-01', End <= '2008-09-28', "
            "Temperature >= 28, FPrice + HPrice < 2000."
        )
        pruned, unpruned = (
            search(registry, BottleneckMetric(), OptimizerConfig(
                k=1, cache_setting=cache_setting
            )).optimize(query)
            for search in (Optimizer, UnprunedOptimizer)
        )
        oracle = exhaustive_optimize(
            query, registry, BottleneckMetric(), k=1, cache_setting=cache_setting
        )
        assert pruned.cost.hex() == unpruned.cost.hex() == oracle.cost.hex()
        assert pruned.cost == pytest.approx(3.6296296296296298)

    @pytest.mark.parametrize("metric", [SumCostMetric(), BottleneckMetric()])
    def test_a_sequence_is_bounded_with_its_own_patterns_profiles(self, metric):
        """Both services answer fast and cheap when called with a bound
        input and slow and dear otherwise; the optimum (``a`` free,
        feeding ``b``) lies in the second pattern sequence tried.
        Bounded with the services' *default* profiles that sequence
        would look dearer than the incumbent and be discarded
        unexplored; its states are bounded with the profiles its own
        patterns select."""
        from repro.model.atoms import atom
        from repro.model.query import query
        from repro.model.schema import signature
        from repro.model.terms import Variable
        from repro.services.profile import exact_profile
        from repro.services.registry import ServiceRegistry
        from repro.services.table import TableExactService

        registry = ServiceRegistry()
        for name, slow in (("a", 10.0), ("b", 50.0)):
            registry.register(TableExactService(
                signature(name, ["X", "Y"], ["oo", "io"]),
                exact_profile(erspi=1.0, response_time=slow, cost_per_call=slow),
                [],
                pattern_profiles={
                    "io": exact_profile(erspi=1.0, response_time=1.0, cost_per_call=1.0)
                },
            ))
        two_atoms = query(
            "q", [Variable("Y"), Variable("Z")],
            [atom("a", "X", "Y"), atom("b", "X", "Z")],
        )
        results = [
            search(registry, metric, OptimizerConfig(k=1)).optimize(two_atoms)
            for search in (Optimizer, UnprunedOptimizer)
        ]
        pruned, unpruned = map(golden_plans.observe, results)
        assert [p.code for p in results[0].patterns] == ["oo", "io"]
        for field in ("patterns", "poset", "fetches", "cost"):
            assert pruned[field] == unpruned[field]

    def test_a_run_leaves_nothing_on_the_optimizer(self, registry, travel_query):
        """Incumbent, fallback and the rest of a run's state live in the
        run: an ``Optimizer`` holds its configuration and its memo."""
        optimizer = Optimizer(registry, ExecutionTimeMetric(), OptimizerConfig(k=10))
        before = dict(vars(optimizer))
        optimizer.optimize(travel_query)
        assert vars(optimizer) == before


class TestSmallDomains:
    def test_tiny_query(self, tiny_registry, tiny_query):
        best = Optimizer(
            tiny_registry, RequestResponseMetric(), OptimizerConfig(k=3)
        ).optimize(tiny_query)
        assert best.expected_answers >= 3
        assert len(best.plan.service_nodes) == 2

    def test_bio_query(self):
        from repro.sources.bio import bio_registry, glycolysis_homolog_query

        best = Optimizer(
            bio_registry(), ExecutionTimeMetric(), OptimizerConfig(k=5)
        ).optimize(glycolysis_homolog_query())
        assert best.expected_answers >= 5
        # blast's decay bounds its fetching factor to 3 chunks.
        blast_node = best.plan.service_node_for_atom(2)
        assert blast_node.fetches <= 3

    def test_weekend_query(self):
        from repro.sources.weekend import mahler_weekend_query, weekend_registry

        best = Optimizer(
            weekend_registry(), ExecutionTimeMetric(), OptimizerConfig(k=3)
        ).optimize(mahler_weekend_query())
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
        best = Optimizer(
            tiny_registry, RequestResponseMetric(), OptimizerConfig(k=3)
        ).optimize(tiny_query)
        text = best.describe()
        assert "cost=" in text and "plan:" in text


def test_estimation_work_is_accounted(registry, travel_query):
    """``annotate_calls`` is the search's view: the closed plans it
    evaluated.  Bounds are read off open plans, whose programs are
    extensions of other states' — one atom placed per state held — and
    phase 3 says what it evaluated."""
    optimizer = Optimizer(registry, ExecutionTimeMetric(), OptimizerConfig(k=10))
    cold = optimizer.optimize(travel_query).stats
    # The one program compiled from a whole plan is that of the plan
    # that leaves; a state the search holds cost one fold step (a few
    # were folded twice: a pruned state drops its open plan), unless
    # its bound was inherited: then it cost none.
    assert cold.programs_compiled == 1
    held = len(optimizer._memo._bounds)
    assert cold.bounds_inherited > 0
    assert held - cold.bounds_inherited <= cold.atoms_placed < 1.1 * held
    # A bound closes nothing: one closed plan per topology phase 3
    # sizes or discards at what it could size it at, and the plan that
    # leaves.
    assert cold.annotate_calls == (
        cold.fetch_evaluations + cold.closed_pruned + 1
    )
    assert cold.fetch_evaluations < cold.memo_bound_misses
    assert cold.fetch_vectors_evaluated > cold.fetch_evaluations > 0
    summary = cold.summary()
    assert "fetch vectors=" in summary and "programs=" in summary
    assert "atoms placed=" in summary
    warm = optimizer.optimize(travel_query).stats
    assert (warm.programs_compiled, warm.fetch_vectors_evaluated) == (1, 0)
    assert (warm.atoms_placed, warm.annotate_calls) == (0, 1)


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

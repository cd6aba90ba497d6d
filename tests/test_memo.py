"""The search memo must never change what the optimizer decides.

Memoization (``optimizer/memo.py``) reuses cached sub-plan bounds and
complete plan evaluations across topology states, across pattern
sequences, across the heuristic-seeding pass, and across repeated
``optimize()`` calls.  Every cached value is the exact object computed
on the original miss, so costs, chosen plans, and pruning decisions
must be bit-identical to the unmemoized search — checked here over
every query profile the benchmark suite exercises.
"""

import pytest

import golden_plans
from repro.costs.sum_cost import SumCostMetric
from repro.costs.time_cost import ExecutionTimeMetric
from repro.optimizer.memo import OpenState, PlanEntry, PlanMemo, bound_key, plan_key
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.sources.biblio import biblio_registry, experts_query
from repro.sources.bio import bio_registry, glycolysis_homolog_query
from repro.sources.news import market_moving_news_query, news_registry
from repro.sources.travel import running_example_query, travel_registry
from repro.sources.weekend import mahler_weekend_query, weekend_registry

PROFILES = {
    "travel": lambda: (travel_registry(), running_example_query()),
    "biblio": lambda: (biblio_registry(), experts_query()),
    "bio": lambda: (bio_registry(), glycolysis_homolog_query()),
    "news": lambda: (news_registry(), market_moving_news_query()),
    "weekend": lambda: (weekend_registry(), mahler_weekend_query()),
}

METRICS = {
    "execution-time": ExecutionTimeMetric,
    "sum-cost": SumCostMetric,
}


def _outcome(result):
    """Everything that defines the decision the optimizer made."""
    return (
        result.cost,
        result.expected_answers,
        tuple(p.code for p in result.patterns),
        result.poset.closure(),
        tuple(sorted(result.fetches.items())),
    )


def _pruning(result):
    """The counters describing the search trajectory."""
    stats = result.stats
    return (
        stats.pattern_sequences_considered,
        stats.pattern_sequences_pruned,
        stats.topology_states_explored,
        stats.topology_states_pruned,
        stats.plans_completed,
        stats.incumbent_updates,
    )


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("metric_name", sorted(METRICS))
class TestMemoEquivalence:
    def test_memoized_search_is_bit_identical(self, profile, metric_name):
        registry, query = PROFILES[profile]()
        metric = METRICS[metric_name]()
        off = Optimizer(
            registry, metric, OptimizerConfig(memoize=False)
        ).optimize(query)
        on = Optimizer(
            registry, metric, OptimizerConfig(memoize=True)
        ).optimize(query)
        assert _outcome(on) == _outcome(off)
        assert _pruning(on) == _pruning(off)
        assert off.stats.memo_hits == 0 and off.stats.memo_misses == 0

    def test_warm_reoptimization_is_identical_and_annotates_nothing(
        self, profile, metric_name
    ):
        registry, query = PROFILES[profile]()
        metric = METRICS[metric_name]()
        optimizer = Optimizer(registry, metric, OptimizerConfig(memoize=True))
        cold = optimizer.optimize(query)
        warm = optimizer.optimize(query)
        assert _outcome(warm) == _outcome(cold)
        assert _pruning(warm) == _pruning(cold)
        # Every search annotation is answered from the memo on the warm
        # run; the only annotate call left is materializing the
        # returned plan (each caller gets an exclusive plan object).
        assert warm.stats.annotate_calls == 1
        assert warm.stats.memo_misses == 0
        assert warm.stats.memo_hits == cold.stats.memo_hits + cold.stats.memo_misses


@pytest.mark.parametrize(
    "case, profile, metric, config", list(golden_plans.cases()),
    ids=[case for case, *_ in golden_plans.cases()],
)
def test_warm_search_counters_equal_the_parent_commits(
    case, profile, metric, config
):
    """Golden trajectory of the re-run on a warm memo (its decision is
    asserted equal to the cold run's inside ``run_case``)."""
    observed = golden_plans.run_case(profile, metric, config)
    assert observed["warm_stats"] == golden_plans.load()[case]["warm_stats"]


class TestMemoLifecycle:
    def test_cross_sequence_hits_occur_on_the_running_example(self):
        registry, query = PROFILES["travel"]()
        optimizer = Optimizer(registry, ExecutionTimeMetric(), OptimizerConfig())
        result = optimizer.optimize(query)
        # Pattern sequences share placed subsets, and the heuristic
        # seeds are re-reached by the enumeration: both must hit.
        assert result.stats.memo_bound_hits > 0
        assert result.stats.memo_plan_hits > 0
        assert optimizer.memo.bound_entries == result.stats.memo_bound_misses

    def test_memo_resets_when_the_query_changes(self):
        registry, _ = PROFILES["weekend"]()
        optimizer = Optimizer(registry, ExecutionTimeMetric(), OptimizerConfig())
        first = optimizer.optimize(mahler_weekend_query(budget=120))
        entries = optimizer.memo.plan_entries
        assert entries > 0
        second = optimizer.optimize(mahler_weekend_query(budget=80))
        fresh = Optimizer(
            registry, ExecutionTimeMetric(), OptimizerConfig(memoize=False)
        ).optimize(mahler_weekend_query(budget=80))
        assert _outcome(second) == _outcome(fresh)
        assert first.cost >= 0.0

    def test_clear_memo_forgets_everything(self):
        registry, query = PROFILES["travel"]()
        optimizer = Optimizer(registry, ExecutionTimeMetric(), OptimizerConfig())
        optimizer.optimize(query)
        assert optimizer.memo.plan_entries > 0
        optimizer.clear_memo()
        assert optimizer.memo.plan_entries == 0
        assert optimizer.memo.bound_entries == 0
        rerun = optimizer.optimize(query)
        assert rerun.stats.memo_misses > 0  # repopulated from scratch

    def test_cached_plan_survives_external_fetch_mutation(self):
        """Progressive execution grows node fetches in place; every
        optimize() call must hand out its own plan object, unaffected
        by what earlier callers did to theirs."""
        registry, query = PROFILES["travel"]()
        optimizer = Optimizer(registry, ExecutionTimeMetric(), OptimizerConfig())
        cold = optimizer.optimize(query)
        grown = {}
        for node in cold.plan.chunked_service_nodes:
            node.fetches = node.fetches * 4  # simulate "ask for more"
            grown[node.atom_index] = node.fetches
        warm = optimizer.optimize(query)
        assert _outcome(warm) == _outcome(cold)
        assert warm.plan is not cold.plan
        for node in warm.plan.chunked_service_nodes:
            assert node.fetches == warm.fetches.get(node.atom_index, 1)
        # ... and the warm call must not have reset the cold caller's
        # in-flight plan either.
        for node in cold.plan.chunked_service_nodes:
            assert node.fetches == grown[node.atom_index]


class TestPlanMemoUnit:
    def test_a_state_is_kept_before_its_bound_is_known(self):
        """An open plan may be stored because another state extends it;
        it counts as a cached bound only once its bound was asked for."""
        memo = PlanMemo()
        key = (("io", None), frozenset())
        assert memo.lookup_state(key) is None
        state = OpenState(plan=None, program=None)
        memo.store_state(key, state)
        assert memo.lookup_state(key) is state
        assert (memo.state_entries, memo.bound_entries) == (1, 0)
        state.bound = 3.5
        assert (memo.state_entries, memo.bound_entries) == (1, 1)

    def test_reset_for_keeps_entries_for_the_same_query(self):
        _, query = PROFILES["travel"]()
        memo = PlanMemo()
        memo.reset_for(query)
        memo.store_plan(
            (("io",), frozenset()),
            PlanEntry(cost=1.0, feasible=True, payload="payload"),
        )
        memo.reset_for(running_example_query())  # equal query: keep
        assert memo.plan_entries == 1
        memo.reset_for(mahler_weekend_query())  # different query: reset
        assert memo.plan_entries == 0

    def test_keys_restrict_to_placed_atoms(self):
        _, query = PROFILES["travel"]()
        registry, _ = PROFILES["travel"]()
        from repro.optimizer.patterns import select_patterns

        sequences = select_patterns(query, registry.schema()).ordered
        assert len(sequences) >= 2
        first, second = sequences[0], sequences[-1]
        shared = frozenset(
            i
            for i in range(len(query.atoms))
            if first[i].code == second[i].code
        )
        assert shared, "profiles should overlap on some atom"
        closure = frozenset()
        placed = frozenset(list(sorted(shared))[:1])
        assert bound_key(first, placed, closure) == bound_key(
            second, placed, closure
        )
        assert plan_key(first, closure) != plan_key(second, closure)

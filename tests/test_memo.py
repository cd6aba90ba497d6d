"""The search memo must never change what the optimizer decides.

Memoization (``optimizer/memo.py``) reuses cached sub-plan bounds and
complete plan evaluations across topology states, across pattern
sequences, across the heuristic-seeding pass, and across repeated
``optimize()`` calls.  Every cached value is the exact object computed
on the original miss, so costs, chosen plans, and pruning decisions
must be bit-identical to the unmemoized search — an optimizer whose
memo keeps nothing (``repro.testing.unmemoized_optimizer``) — checked
here over every golden case.
"""

import pytest

import golden_plans
from repro.costs.sum_cost import SumCostMetric
from repro.costs.time_cost import ExecutionTimeMetric
from repro.optimizer.memo import OpenState, PlanEntry, PlanMemo, bound_key, plan_key
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.sources.biblio import biblio_registry, experts_query
from repro.sources.bio import bio_registry, glycolysis_homolog_query
from repro.sources.news import news_registry
from repro.sources.travel import running_example_query, travel_registry
from repro.sources.weekend import mahler_weekend_query, weekend_registry
from repro.testing import market_moving_news_query, memo_bounds, unmemoized_optimizer

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


#: The counters describing the search trajectory; the others count
#: work the memo saves.
_TRAJECTORY = (
    "pattern_sequences_considered",
    "pattern_sequences_pruned",
    "topology_states_explored",
    "topology_states_pruned",
    "plans_completed",
    "incumbent_updates",
)


def _pruning(result):
    """The search trajectory."""
    return tuple(getattr(result.stats, name) for name in _TRAJECTORY)


_GOLDEN_CASES = pytest.mark.parametrize(
    "case, profile, metric, config", list(golden_plans.cases()),
    ids=[case for case, *_ in golden_plans.cases()],
)


@_GOLDEN_CASES
def test_the_unmemoized_search_decides_the_same(case, profile, metric, config):
    """Every golden case searched with a memo that keeps nothing: the
    decision and the trajectory are the memoized search's, and no
    lookup hits."""
    registry, query = golden_plans.PROFILES[profile]()
    result = unmemoized_optimizer(
        registry, golden_plans.METRICS[metric](), golden_plans.CONFIGS[config]
    ).optimize(query)
    off = golden_plans.observe(result)
    on = golden_plans.run_case(profile, metric, config)
    assert {f: v for f, v in off.items() if f != "stats"} == {
        f: v for f, v in on.items() if f not in ("stats", "warm_stats")
    }
    golden = dict(zip(golden_plans.PARENT_STATS, on["stats"]))
    assert _pruning(result) == tuple(golden[name] for name in _TRAJECTORY)
    assert result.stats.memo_hits == 0 and result.stats.bounds_inherited == 0


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("metric_name", sorted(METRICS))
class TestMemoEquivalence:
    def test_warm_reoptimization_is_identical_and_annotates_nothing(
        self, profile, metric_name
    ):
        registry, query = PROFILES[profile]()
        metric = METRICS[metric_name]()
        optimizer = Optimizer(registry, metric, OptimizerConfig())
        cold = optimizer.optimize(query)
        warm = optimizer.optimize(query)
        assert _outcome(warm) == _outcome(cold)
        assert _pruning(warm) == _pruning(cold)
        # Every search annotation is answered from the memo on the warm
        # run; the only annotate call left is materializing the
        # returned plan (each caller gets an exclusive plan object).
        assert warm.stats.annotate_calls == 1
        assert warm.stats.memo_misses == 0
        # Every cold lookup is a warm hit, but for the plan lookup of a
        # topology discarded once closed: its state keeps the bound that
        # discarded it, which prunes it before the plan table is asked.
        assert warm.stats.memo_hits == (
            cold.stats.memo_hits + cold.stats.memo_misses - cold.stats.closed_pruned
        )


@_GOLDEN_CASES
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
        assert len(memo_bounds(optimizer._memo)) == result.stats.memo_bound_misses

    def test_memo_resets_when_the_query_changes(self):
        registry, _ = PROFILES["weekend"]()
        optimizer = Optimizer(registry, ExecutionTimeMetric(), OptimizerConfig())
        first = optimizer.optimize(mahler_weekend_query(budget=120))
        entries = len(optimizer._memo._plans)
        assert entries > 0
        second = optimizer.optimize(mahler_weekend_query(budget=80))
        fresh = unmemoized_optimizer(
            registry, ExecutionTimeMetric()
        ).optimize(mahler_weekend_query(budget=80))
        assert _outcome(second) == _outcome(fresh)
        assert first.cost >= 0.0

    def test_clear_memo_forgets_everything(self):
        registry, query = PROFILES["travel"]()
        optimizer = Optimizer(registry, ExecutionTimeMetric(), OptimizerConfig())
        optimizer.optimize(query)
        assert len(optimizer._memo._plans) > 0
        optimizer._memo.clear()
        assert len(optimizer._memo._plans) == 0
        assert len(memo_bounds(optimizer._memo)) == 0
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
        for node in (n for n in cold.plan.service_nodes if n.is_chunked):
            node.fetches = node.fetches * 4  # simulate "ask for more"
            grown[node.atom_index] = node.fetches
        warm = optimizer.optimize(query)
        assert _outcome(warm) == _outcome(cold)
        assert warm.plan is not cold.plan
        for node in (n for n in warm.plan.service_nodes if n.is_chunked):
            assert node.fetches == warm.fetches.get(node.atom_index, 1)
        # ... and the warm call must not have reset the cold caller's
        # in-flight plan either.
        for node in (n for n in cold.plan.service_nodes if n.is_chunked):
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
        assert (len(memo._bounds), len(memo_bounds(memo))) == (1, 0)
        state.bound = 3.5
        assert (len(memo._bounds), len(memo_bounds(memo))) == (1, 1)

    def test_a_sub_state_bound_is_read_off_the_immediate_sub_states(self):
        """Atoms 0 → 1, and 2 unordered, all placed: the immediate
        sub-states unplace 1 (its arc goes) or 2; 0 is followed by 1,
        so unplacing it names no state.  The largest bound held among
        the two counts, a sub-state without a bound does not, and
        ``clear`` forgets the largest bound computed."""
        memo = PlanMemo()
        key = (("o", "i", "o"), frozenset({(0, 1)}))
        assert memo.sub_state_bound(key) == float("-inf")
        without_1 = OpenState(None, None, bound=2.0)
        memo.store_state((("o", None, "o"), frozenset()), without_1)
        memo.store_state(
            (("o", "i", None), frozenset({(0, 1)})), OpenState(None, None)
        )
        # Unplacing the followed atom 0 would name this key, which is
        # no state; nor is one two atoms smaller an immediate sub-state.
        memo.store_state(
            ((None, "i", "o"), frozenset({(0, 1)})), OpenState(None, None, 9.0)
        )
        memo.store_state((("o", None, None), frozenset()), OpenState(None, None, 8.0))
        assert memo.sub_state_bound(key) == 2.0
        memo.store_state(
            (("o", "i", None), frozenset({(0, 1)})), OpenState(None, None, 5.0)
        )
        assert memo.sub_state_bound(key) == 5.0
        without_1.bound = 7.0
        assert memo.sub_state_bound(key) == 7.0
        memo.top_bound = 7.0
        memo.clear()
        assert memo.top_bound == float("-inf")

    def test_reset_for_keeps_entries_for_the_same_query(self):
        _, query = PROFILES["travel"]()
        memo = PlanMemo()
        memo.reset_for(query)
        memo.store_plan(
            (("io",), frozenset()),
            PlanEntry(cost=1.0, feasible=True, payload="payload"),
        )
        memo.reset_for(running_example_query())  # equal query: keep
        assert len(memo._plans) == 1
        memo.reset_for(mahler_weekend_query())  # different query: reset
        assert len(memo._plans) == 0

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

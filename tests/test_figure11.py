"""Reproduction of Figure 11: calls per service and total times for
plans S, P, O under the three cache settings.

The call counts match the paper *exactly* (the synthetic world is
calibrated for this); the simulated times must reproduce the paper's
orderings (shape), not its absolute values.
"""

import pytest

from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine, ExecutionMode
from repro.experiments import figure11_plans
from repro.sources.travel import running_example_query, travel_registry

#: The paper's Figure 11 call counts, as this test expects them (the
#: copy the program renders is ``repro.experiments.PAPER_CALLS``):
#: {setting: {plan: (weather, flight, hotel)}}
PAPER_CALLS = {
    CacheSetting.NO_CACHE: {"S": (71, 16, 284), "P": (71, 71, 71), "O": (71, 16, 16)},
    CacheSetting.ONE_CALL: {"S": (71, 16, 15), "P": (71, 71, 71), "O": (71, 16, 16)},
    CacheSetting.OPTIMAL: {"S": (54, 11, 10), "P": (54, 54, 54), "O": (54, 11, 11)},
}


@pytest.fixture(scope="module")
def figure11():
    """Execute the 3 plans × 3 cache settings once, collect results."""
    registry = travel_registry()
    query = running_example_query()
    plans = figure11_plans(registry, query)
    outcomes = {}
    for setting in CacheSetting:
        for name, plan in plans.items():
            engine = ExecutionEngine(
                registry, cache_setting=setting, mode=ExecutionMode.PARALLEL
            )
            outcomes[(setting, name)] = engine.execute(
                plan, head=query.head, k=10
            )
    return outcomes


class TestCallCounts:
    @pytest.mark.parametrize("setting", list(CacheSetting), ids=lambda s: s.value)
    @pytest.mark.parametrize("plan_name", ["S", "P", "O"])
    def test_calls_match_paper_exactly(self, figure11, setting, plan_name):
        stats = figure11[(setting, plan_name)].stats
        expected = PAPER_CALLS[setting][plan_name]
        actual = (
            stats.calls("weather"), stats.calls("flight"), stats.calls("hotel")
        )
        assert actual == expected

    @pytest.mark.parametrize("setting", list(CacheSetting), ids=lambda s: s.value)
    @pytest.mark.parametrize("plan_name", ["S", "P", "O"])
    def test_conf_called_once(self, figure11, setting, plan_name):
        assert figure11[(setting, plan_name)].stats.calls("conf") == 1


class TestTimeShape:
    """Orderings the paper's time chart exhibits."""

    @pytest.mark.parametrize("setting", list(CacheSetting), ids=lambda s: s.value)
    def test_o_fastest_p_slowest(self, figure11, setting):
        elapsed = {
            name: figure11[(setting, name)].elapsed for name in ("S", "P", "O")
        }
        assert elapsed["O"] < elapsed["S"] < elapsed["P"]

    @pytest.mark.parametrize("plan_name", ["S", "P", "O"])
    def test_caching_never_slows_a_plan(self, figure11, plan_name):
        no = figure11[(CacheSetting.NO_CACHE, plan_name)].elapsed
        one = figure11[(CacheSetting.ONE_CALL, plan_name)].elapsed
        optimal = figure11[(CacheSetting.OPTIMAL, plan_name)].elapsed
        assert optimal <= one + 1e-9 <= no + 1e-9

    def test_one_call_cache_helps_s_substantially(self, figure11):
        no = figure11[(CacheSetting.NO_CACHE, "S")].elapsed
        one = figure11[(CacheSetting.ONE_CALL, "S")].elapsed
        assert one < no * 0.95

    def test_one_call_cache_does_not_help_o(self, figure11):
        """'No improvement can be observed for O between the no-cache
        and the one-call cache setting' (Section 6)."""
        no = figure11[(CacheSetting.NO_CACHE, "O")].elapsed
        one = figure11[(CacheSetting.ONE_CALL, "O")].elapsed
        assert one == pytest.approx(no)


class TestAnswers:
    def test_all_cells_produce_the_same_answers(self, figure11):
        reference = frozenset(figure11[(CacheSetting.NO_CACHE, "O")].answers(None))
        assert reference
        for key, outcome in figure11.items():
            assert frozenset(outcome.answers(None)) == reference, key

    def test_at_least_k_answers(self, figure11):
        assert len(figure11[(CacheSetting.NO_CACHE, "O")].rows) >= 10

    def test_redundant_hotel_calls_removed_by_construction(self, figure11):
        """'redundant calls (72%) on hotel are removed by construction
        of the plan' — O vs S in the no-cache setting."""
        s_hotel = figure11[(CacheSetting.NO_CACHE, "S")].stats.calls("hotel")
        o_hotel = figure11[(CacheSetting.NO_CACHE, "O")].stats.calls("hotel")
        assert 1 - o_hotel / s_hotel > 0.90  # 284 -> 16

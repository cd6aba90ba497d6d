"""Unit tests for the branch-and-bound bookkeeping."""

from repro.optimizer.branch_and_bound import Incumbent, SearchStats


class TestIncumbent:
    def test_starts_unset(self):
        incumbent: Incumbent[str] = Incumbent()
        assert not incumbent.is_set
        assert incumbent.cost == float("inf")

    def test_offer_improves(self):
        incumbent: Incumbent[str] = Incumbent()
        assert incumbent.offer(10.0, "a")
        assert incumbent.is_set
        assert incumbent.cost == 10.0
        assert incumbent.payload == "a"

    def test_offer_rejects_worse(self):
        incumbent: Incumbent[str] = Incumbent()
        incumbent.offer(10.0, "a")
        assert not incumbent.offer(12.0, "b")
        assert incumbent.payload == "a"

    def test_offer_rejects_equal(self):
        incumbent: Incumbent[str] = Incumbent()
        incumbent.offer(10.0, "a")
        assert not incumbent.offer(10.0, "b")

    def test_offer_reports_each_improvement(self):
        incumbent: Incumbent[str] = Incumbent()
        offers = [incumbent.offer(cost, payload) for cost, payload in (
            (10.0, "a"), (12.0, "b"), (7.0, "c"),
        )]
        assert offers == [True, False, True]
        assert (incumbent.cost, incumbent.payload) == (7.0, "c")

    def test_prunes_requires_incumbent(self):
        incumbent: Incumbent[str] = Incumbent()
        assert not incumbent.prunes(5.0)
        incumbent.offer(10.0, "a")
        assert incumbent.prunes(10.0)
        assert incumbent.prunes(11.0)
        assert not incumbent.prunes(9.0)


class TestSearchStats:
    def test_defaults_zero(self):
        stats = SearchStats()
        assert stats.plans_completed == 0
        assert stats.topology_states_pruned == 0

    def test_summary_mentions_counters(self):
        stats = SearchStats(
            pattern_sequences_considered=3,
            topology_states_explored=42,
            plans_completed=7,
        )
        text = stats.summary()
        assert "patterns=3" in text
        assert "topology states=42" in text
        assert "plans completed=7" in text

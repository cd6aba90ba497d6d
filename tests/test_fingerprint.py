"""Content fingerprints: profiles, registry epochs, query normalization.

The serving layer's invalidation story rests on three stability
properties, pinned here:

* a :meth:`ServiceProfile.fingerprint` depends on the statistical
  content only — equal profiles hash equally, any field drift changes
  the hash;
* a :meth:`ServiceRegistry.content_epoch` is independent of
  registration/insertion order (dict ordering) but sensitive to every
  optimizer-visible change (profiles, join methods, selectivities);
* a :func:`query_fingerprint` is invariant under alpha-renaming of
  variables but sensitive to constants, selectivities, and atom order
  (plan specs address atoms positionally).
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.parser import parse_query
from repro.serving.fingerprint import (
    canonical_query,
    plan_cache_key,
    query_fingerprint,
)
from repro.services.profile import exact_profile, search_profile
from repro.services.registry import JoinMethod, ServiceRegistry
from repro.services.table import TableExactService, TableSearchService
from repro.sources.news import news_registry
from repro.sources.weekend import weekend_registry


class TestProfileFingerprint:
    def test_equal_profiles_hash_equally(self):
        a = exact_profile(erspi=2.0, response_time=1.5, chunk_size=10)
        b = exact_profile(erspi=2.0, response_time=1.5, chunk_size=10)
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize(
        "change",
        [
            {"erspi": 3.0},
            {"response_time": 2.0},
            {"chunk_size": 5},
            {"decay": 40},
            {"cost_per_call": 2.0},
        ],
    )
    def test_any_field_drift_changes_the_hash(self, change):
        base = search_profile(chunk_size=10, response_time=1.5, decay=80)
        drifted = dataclasses.replace(base, **change)
        assert base.fingerprint() != drifted.fingerprint()

    def test_kind_participates(self):
        exact = exact_profile(erspi=10.0, response_time=1.0, chunk_size=10)
        search = search_profile(chunk_size=10, response_time=1.0, erspi=10.0)
        assert exact.fingerprint() != search.fingerprint()

    @given(
        erspi=st.floats(0.01, 100, allow_nan=False),
        tau=st.floats(0.01, 100, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_fingerprint_equality_tracks_field_equality(self, erspi, tau):
        base = exact_profile(erspi=1.0, response_time=1.0)
        other = exact_profile(erspi=erspi, response_time=tau)
        same_fields = erspi == 1.0 and tau == 1.0
        assert (base.fingerprint() == other.fingerprint()) == same_fields


def _two_service_registry(order: str) -> ServiceRegistry:
    """The same content, registered in two different orders."""
    from repro.model.schema import signature

    alpha = TableExactService(
        signature("alpha", ["A", "B"], ["io", "oi"]),
        exact_profile(erspi=2.0, response_time=1.0),
        [("a", "b")],
        pattern_profiles={"oi": exact_profile(erspi=5.0, response_time=1.0)},
    )
    beta = TableSearchService(
        signature("beta", ["A", "B"], ["io"]),
        search_profile(chunk_size=4, response_time=2.0),
        [("a", index) for index in range(8)],
        score=lambda row: -row[1],
    )
    registry = ServiceRegistry()
    for service in (alpha, beta) if order == "ab" else (beta, alpha):
        registry.register(service)
    if order == "ab":
        registry.register_join_method("alpha", "beta", JoinMethod.MERGE_SCAN)
        registry.register_join_selectivity("alpha", "beta", 0.1)
    else:
        registry.register_join_selectivity("beta", "alpha", 0.1)
        registry.register_join_method("beta", "alpha", JoinMethod.MERGE_SCAN)
    return registry


class TestRegistryEpoch:
    def test_insensitive_to_registration_and_dict_order(self):
        assert (
            _two_service_registry("ab").content_epoch()
            == _two_service_registry("ba").content_epoch()
        )

    def test_deterministic_across_builds(self):
        assert (
            weekend_registry().content_epoch()
            == weekend_registry().content_epoch()
        )

    def test_different_domains_have_different_epochs(self):
        assert (
            weekend_registry().content_epoch()
            != news_registry().content_epoch()
        )

    def test_selectivity_drift_bumps_the_epoch(self):
        registry = weekend_registry()
        before = registry.content_epoch()
        registry.register_join_selectivity("lowcost", "concerts", 0.5)
        assert registry.content_epoch() != before

    def test_join_method_drift_bumps_the_epoch(self):
        registry = weekend_registry()
        before = registry.content_epoch()
        registry.register_join_method(
            "lowcost", "concerts", JoinMethod.NESTED_LOOP
        )
        assert registry.content_epoch() != before

    def test_pattern_profile_override_participates(self):
        base = _two_service_registry("ab")
        from repro.model.schema import signature

        no_override = ServiceRegistry()
        no_override.register(
            TableExactService(
                signature("alpha", ["A", "B"], ["io", "oi"]),
                exact_profile(erspi=2.0, response_time=1.0),
                [("a", "b")],
            )
        )
        assert base.content_epoch() != no_override.content_epoch()


class TestQueryFingerprint:
    def test_alpha_renaming_is_invariant(self):
        a = parse_query("q(X, Y) :- s('m', X, D, Y), Y <= 120.")
        b = parse_query("q(A, B) :- s('m', A, E, B), B <= 120.")
        assert canonical_query(a) == canonical_query(b)
        assert query_fingerprint(a) == query_fingerprint(b)

    def test_constants_are_significant(self):
        a = parse_query("q(X) :- s('m', X).")
        b = parse_query("q(X) :- s('n', X).")
        assert query_fingerprint(a) != query_fingerprint(b)

    def test_constant_type_is_significant(self):
        a = parse_query("q(X) :- s(X, Y), Y <= 5.")
        b = parse_query("q(X) :- s(X, Y), Y <= '5'.")
        assert query_fingerprint(a) != query_fingerprint(b)

    def test_atom_order_is_significant(self):
        a = parse_query("q(X) :- s(X, Y), t(Y, Z).")
        b = parse_query("q(X) :- t(Y, Z), s(X, Y).")
        assert query_fingerprint(a) != query_fingerprint(b)

    def test_variable_sharing_structure_is_significant(self):
        joined = parse_query("q(X) :- s(X, Y), t(Y, Z).")
        cross = parse_query("q(X) :- s(X, Y), t(W, Z).")
        assert query_fingerprint(joined) != query_fingerprint(cross)

    def test_selectivity_participates(self):
        from repro.model.predicates import Comparison
        from repro.model.query import query
        from repro.model.atoms import Atom
        from repro.model.terms import Constant, Variable

        x, y = Variable("X"), Variable("Y")
        atoms = [Atom("s", (x, y))]

        def build(selectivity):
            return query(
                "q", [x], atoms,
                [Comparison(y, "<=", Constant(5), selectivity=selectivity)],
            )

        assert query_fingerprint(build(0.1)) != query_fingerprint(build(0.9))


class TestPlanCacheKey:
    def test_every_component_participates(self):
        base = plan_cache_key("fp", "epoch", "time", 10, "optimal", "cfg")
        for changed in (
            plan_cache_key("fp2", "epoch", "time", 10, "optimal", "cfg"),
            plan_cache_key("fp", "epoch2", "time", 10, "optimal", "cfg"),
            plan_cache_key("fp", "epoch", "requests", 10, "optimal", "cfg"),
            plan_cache_key("fp", "epoch", "time", 11, "optimal", "cfg"),
            plan_cache_key("fp", "epoch", "time", 10, "one-call", "cfg"),
            plan_cache_key("fp", "epoch", "time", 10, "optimal", "cfg2"),
        ):
            assert changed != base


class TestOptimizerConfigToken:
    def test_search_shaping_knobs_participate(self):
        import dataclasses

        from repro.optimizer.optimizer import OptimizerConfig
        from repro.serving.fingerprint import optimizer_config_token

        base = OptimizerConfig()
        token = optimizer_config_token(base)
        for change in (
            {"fetch_heuristic": "square"},
            {"most_cogent_only": True},
            {"prune": False},
        ):
            drifted = dataclasses.replace(base, **change)
            assert optimizer_config_token(drifted) != token, change

    def test_keyed_elsewhere_knobs_do_not(self):
        import dataclasses

        from repro.execution.cache import CacheSetting
        from repro.optimizer.optimizer import OptimizerConfig
        from repro.serving.fingerprint import optimizer_config_token

        base = OptimizerConfig()
        token = optimizer_config_token(base)
        # k and cache_setting are explicit plan-cache-key components,
        # and memoize is bit-identical by contract.
        for change in (
            {"k": 25},
            {"cache_setting": CacheSetting.NO_CACHE},
            {"memoize": False},
        ):
            drifted = dataclasses.replace(base, **change)
            assert optimizer_config_token(drifted) == token, change

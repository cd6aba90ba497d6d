"""The search's oracles run the searches they stand for.

Two searches the optimizer does not run are test oracles in
``repro.testing``, each an ``Optimizer`` with one private override:
the unpruned search (:class:`~repro.testing.UnprunedOptimizer`, whose
class bounds discard nothing) and the search of the most cogent
pattern sequences only (:class:`~repro.testing.MostCogentOptimizer`,
the paper's "bound is better" restriction, §4.1).  Both were once
``OptimizerConfig`` settings (``prune=False`` and
``most_cogent_only=True``); ``fixtures/oracle_plans.json`` holds what
those settings decided on every golden case — patterns, topology,
fetches, ``cost.hex()``, the estimates digest and every
``SearchStats`` field, in field order — and each oracle must decide
the same on the same trajectory.  ``python tests/test_search_oracles.py``
rewrites the file from the oracles; do it only where the golden plans
are regenerated too.

Beyond the pinned values: pruning never changes what the search
decides and never explores more, and the restricted search never
finds a plan cheaper than the full one's.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import pathlib

import pytest

import golden_plans
from repro.optimizer.patterns import most_cogent_sequences, permissible_sequences
from repro.testing import MostCogentOptimizer, UnprunedOptimizer

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "oracle_plans.json"

ORACLES = {"unpruned": UnprunedOptimizer, "most-cogent": MostCogentOptimizer}

_DECISION = ("patterns", "poset", "fetches", "cost", "expected_answers", "estimates")

_GOLDEN_CASES = pytest.mark.parametrize(
    "case, profile, metric, config", list(golden_plans.cases()),
    ids=[case for case, *_ in golden_plans.cases()],
)


def _search(oracle: str, profile: str, metric: str, config: str):
    registry, query = golden_plans.PROFILES[profile]()
    result = ORACLES[oracle](
        registry, golden_plans.METRICS[metric](), golden_plans.CONFIGS[config]
    ).optimize(query)
    observed = golden_plans.observe(result)
    observed["stats"] = list(dataclasses.astuple(result.stats))
    return result, query, registry, observed


@functools.cache
def _pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def _searched(profile: str, metric: str, config: str) -> dict:
    """The branch-and-bound's decision and counters, by name."""
    searched = golden_plans.run_case(profile, metric, config)
    return {
        **{field: searched[field] for field in _DECISION},
        **dict(zip(golden_plans.PARENT_STATS, searched["stats"])),
    }


@_GOLDEN_CASES
def test_the_unpruned_search_decides_the_same(case, profile, metric, config):
    result, *_, observed = _search("unpruned", profile, metric, config)
    assert observed == _pinned()[case]["unpruned"]
    searched = _searched(profile, metric, config)
    assert {field: observed[field] for field in _DECISION} == {
        field: searched[field] for field in _DECISION
    }
    stats = result.stats
    assert stats.topology_states_pruned == stats.bounds_inherited == 0
    assert stats.topology_states_explored >= searched["topology_states_explored"]
    assert stats.plans_completed >= searched["plans_completed"]


@_GOLDEN_CASES
def test_the_most_cogent_search_is_the_restriction(case, profile, metric, config):
    result, query, registry, observed = _search("most-cogent", profile, metric, config)
    assert observed == _pinned()[case]["most-cogent"]
    permissible = permissible_sequences(query, registry.schema())
    assert result.stats.pattern_sequences_considered == len(
        most_cogent_sequences(permissible)
    )
    assert result.cost >= float.fromhex(_searched(profile, metric, config)["cost"])


if __name__ == "__main__":
    pinned = {
        case: {
            oracle: _search(oracle, profile, metric, config)[-1]
            for oracle in ORACLES
        }
        for case, profile, metric, config in golden_plans.cases()
    }
    lines = [
        f"{json.dumps(case)}: {json.dumps(pinned[case], sort_keys=True)}"
        for case in sorted(pinned)
    ]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(pinned)} cases -> {FIXTURE}")

"""A session's rounds account for every invocation its services saw.

"Ask for more" pays only the new fetches (paper §2.2), so each round's
ledger is what the session paid for it, and the rounds together are
what it paid in all.  Under faults a round can be given up mid-walk: a
unit dies while a suspended stream resumes (partial results), or a
service drifts (a splice).  The given-up walk's ledger is a round with
no answers, so summing ``total_fetches + wasted_fetches`` over
``executor.rounds`` still counts every remote invocation, and every
unit the session demoted is on the certificate of its last answer.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.execution.cache import CacheSetting
from repro.execution.progressive import ProgressiveExecutor
from repro.execution.resilience import ResilienceConfig
from repro.testing import FaultSchedule, wrap_registry_flaky
from tests.test_fault_injection import PLAN_SHAPES
from tests.test_resilience import _count_invocations

PARTIAL = ResilienceConfig(attempts=2, partial_results=True)


def _script(shape, schedule, setting):
    """``run(1)`` then four ``more(2)`` over a faulted world: the
    executor, the services' invocation counters and the last result."""
    registry, head, plan = PLAN_SHAPES[shape]()
    wrap_registry_flaky(registry, schedule, attempt_aware=True)
    proxies = _count_invocations(registry)
    executor = ProgressiveExecutor(
        registry=registry, plan=plan, head=head, cache_setting=setting,
        resilience=PARTIAL,
    )
    result = executor.run(1)
    for _ in range(4):
        result = executor.more(2)
    return executor, proxies, result


@given(
    st.sampled_from(sorted(PLAN_SHAPES)),
    st.integers(0, 10**6),
    st.sampled_from([0.2, 0.4, 0.6]),
    st.sampled_from(list(CacheSetting)),
)
# A resume dies on lefts' only unit: of the five invocations the
# services see, three are on the given-up resume's ledger.
@example("pair", 1, 0.4, CacheSetting.OPTIMAL)
@settings(max_examples=40, deadline=None)
def test_the_rounds_account_for_every_invocation(shape, seed, rate, setting):
    executor, proxies, result = _script(
        shape, FaultSchedule(seed=seed, fail_rate=rate), setting
    )
    invocations = sum(proxy.invocations for proxy in proxies.values())
    assert invocations == sum(
        r.stats.total_fetches + r.stats.wasted_fetches for r in executor.rounds
    )
    certificate = result.certificate
    assert {(u.service, u.input_key) for u in certificate.dropped} == set(
        executor.engine.routing.demoted
    )
    assert result.stats.demoted_blocks == len(certificate.dropped)


def test_a_resume_that_dies_leaves_its_ledger_as_a_round():
    """The pinned script: the first ``more`` resumes the stream, lefts'
    only unit dies on it, and the given-up resume is a round with no
    answers holding the three invocations it made (a page of rights,
    two failed attempts at lefts); the next round executes the plan
    afresh at the same factors."""
    executor, proxies, _ = _script(
        "pair", FaultSchedule(seed=1, fail_rate=0.4), CacheSetting.OPTIMAL
    )
    assert {name: proxy.invocations for name, proxy in proxies.items()} == {
        "lefts": 3, "rights": 2,
    }
    first, aborted, fallback = executor.rounds[:3]
    assert (first.answers, first.stats.total_fetches) == (1, 2)
    assert (aborted.answers, aborted.resumed, aborted.grown) == (0, False, False)
    assert (aborted.stats.total_fetches, aborted.stats.wasted_fetches) == (1, 2)
    assert not fallback.resumed
    assert first.fetches == aborted.fetches == fallback.fetches


def test_a_session_whose_services_ran_dry_stops_growing():
    """The pinned script's second fallback round doubles the factors to
    10 and finds nothing new: the services are dry.  Each later
    ``more`` is one resumed round at those factors, with no fetch and
    no further growth, and the rounds still hold every invocation."""
    executor, proxies, _ = _script(
        "pair", FaultSchedule(seed=1, fail_rate=0.4), CacheSetting.OPTIMAL
    )
    assert len(executor.rounds) == 7
    dry = executor.rounds[3]
    assert (dry.fetches, dry.resumed) == ({0: 10, 1: 10}, False)
    for later in executor.rounds[4:]:
        assert later.fetches == dry.fetches
        assert (later.resumed, later.grown) == (True, False)
        assert later.stats.total_fetches == later.stats.wasted_fetches == 0
    assert sum(proxy.invocations for proxy in proxies.values()) == sum(
        r.stats.total_fetches + r.stats.wasted_fetches for r in executor.rounds
    )

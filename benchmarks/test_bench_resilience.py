"""Resilience exact counts (``counts_resilience.txt``).

Sweeps the resilience layer (:mod:`repro.execution.resilience`) over a
fault-rate × attempt-cap grid on the paper's two-search-services
shape, with partial-results mode on and an attempt-aware fault
schedule (re-attempts draw independently, so retries *can* recover a
failed page — the regime the layer exists for).  Per cell, across
seeded worlds:

* **success rate** — the fraction of worlds whose answers are
  bit-identical to the fault-free oracle's top-k;
* **graceful degradation** — mean answers returned and mean demoted
  blocks when the run is partial;
* **wasted work** — discarded round trips (failed attempts), which by
  design never enter the per-service accounting;
* **time-to-k** — mean virtual completion time (backoff is charged to
  the winning fetch's latency).

A second sweep is the **adaptive-vs-static** column: the same pair
plan, alone ("static") and with a clean ``lefts_backup`` sibling
registered and drift monitoring armed ("adaptive"), under (a) mid-run
service demotion — ``lefts`` units exhaust their retries and partial
results must drop them where no sibling is registered, while the
adaptive world serves them from the backup — and (b) sustained latency
drift — ``lefts`` answers 25x slower than profiled, the static run
pays the mis-costed plan's price to the end, the adaptive run splices
onto the sibling mid-flight.  Recorded per cell: exact-answer rate and
virtual time-to-k, static vs adaptive.

Acceptance (asserted on every sampled world):

* whenever the answers differ from the oracle's, the certificate is
  partial and names at least one dropped unit — honest degradation,
  never silent;
* at fault rate 0 every cell succeeds with zero wasted fetches;
* per fault rate, aggregate success never decreases with more
  attempts, and eight attempts still return k answers at a 20% rate;
* the zero-fault adaptive cell is **bit-identical** to the static one
  — rows, ranks, and full per-round statistics;
* adaptive exact-answer rate never falls below static's at any fault
  rate, and under sustained drift the adaptive virtual time-to-k is
  strictly smaller.
"""

from __future__ import annotations

import statistics

import pytest

from benchmarks.conftest import table, write_artifact
from repro.execution.engine import ExecutionEngine
from repro.execution.progressive import ProgressiveExecutor
from repro.execution.resilience import ResilienceConfig
from repro.model.atoms import Atom
from repro.model.query import ConjunctiveQuery
from repro.model.schema import signature
from repro.model.terms import Constant, Variable
from repro.plans.builder import PlanBuilder, Poset
from repro.services.profile import search_profile
from repro.services.registry import JoinMethod, ServiceRegistry
from repro.services.table import TableSearchService
from repro.testing import FaultSchedule, wrap_registry_flaky
from repro.testing.faults import FlakyService

pytestmark = pytest.mark.bench

SIDE = 30
CHUNK = 5
K = 12
SEEDS = 5
FAULT_RATES = (0.0, 0.1, 0.3)
ATTEMPT_CAPS = (1, 2, 4)  # retries 0 / 1 / 3


def _plan(chunk=CHUNK, sibling=False):
    """The paper's two-search-services shape (rank = position).

    With *sibling* a clean ``lefts_backup`` equivalent is registered
    too: it shares lefts' signature domains, profile, data, and scores
    — the ideal fallback target — so an exact recovery is possible and
    every divergence is the resilience layer's doing.  A smaller
    *chunk* means more pages for the same plane — the drift scenario
    uses chunk=1 so plenty of remote traffic remains to be saved after
    the splice.
    """
    registry = ServiceRegistry()
    services = [("lefts", "L"), ("rights", "R")]
    if sibling:
        services.append(("lefts_backup", "L"))
    for name, var in services:
        registry.register(
            TableSearchService(
                signature(name, ["Q", "K", var], ["ioo"]),
                search_profile(chunk_size=chunk, response_time=1.0),
                [("q", index % 3, index) for index in range(SIDE)],
                score=lambda row: float(-row[2]),
            )
        )
    registry.register_join_method("lefts", "rights", JoinMethod.MERGE_SCAN)
    key, left_var, right_var = Variable("K"), Variable("L"), Variable("R")
    query = ConjunctiveQuery(
        name="resiliencebench",
        head=(key, left_var, right_var),
        atoms=(
            Atom("lefts", (Constant("q"), key, left_var)),
            Atom("rights", (Constant("q"), key, right_var)),
        ),
        predicates=(),
    )
    budget = -(-SIDE // chunk)
    plan = PlanBuilder(query, registry).build(
        (
            registry.signature("lefts").pattern("ioo"),
            registry.signature("rights").pattern("ioo"),
        ),
        Poset(n=2),
        fetches={0: budget, 1: budget},
    )
    return registry, tuple(query.head), plan


def _sig(rows):
    """Registry-independent row signature (rank labels are local ids)."""
    return [
        (dict(r.bindings), tuple(rank for _, rank in r.ranks)) for r in rows
    ]


def _time_to_k(executor):
    """Cumulative virtual elapsed over every round, aborted ones too."""
    return sum(r.elapsed for r in executor.rounds)


def _service_fetches(executor, name):
    """Total remote fetches to *name* across every round."""
    return sum(
        r.stats.service(name).fetches
        for r in executor.rounds
        if r.stats is not None
    )


def _mean(values) -> float:
    return round(statistics.mean(values), 4)


def test_write_counts_resilience(out_dir):
    oracle_registry, head, oracle_plan = _plan()
    oracle = ExecutionEngine(oracle_registry).execute(oracle_plan, head=head, k=K)
    oracle_sig = _sig(oracle.rows)

    grid = []
    success_by_cell: dict[tuple[float, int], float] = {}
    for rate in FAULT_RATES:
        for attempts in ATTEMPT_CAPS:
            config = ResilienceConfig(attempts=attempts, partial_results=True)
            successes = 0
            answers, demoted, wasted, elapsed = [], [], [], []
            for seed in range(SEEDS):
                registry, head, plan = _plan()
                wrap_registry_flaky(
                    registry, FaultSchedule(seed=seed, fail_rate=rate),
                    attempt_aware=True,
                )
                engine = ExecutionEngine(registry, resilience=config)
                result = engine.execute(plan, head=head, k=K)
                certificate = result.certificate
                assert certificate is not None
                if _sig(result.rows) == oracle_sig:
                    successes += 1
                else:
                    # Honest degradation: a diverging answer always
                    # names what it dropped — never a silent loss.
                    assert certificate.is_partial, (rate, attempts, seed)
                    assert certificate.dropped_services, (rate, attempts, seed)
                answers.append(len(result.rows))
                demoted.append(len(certificate.dropped))
                wasted.append(result.stats.wasted_fetches)
                elapsed.append(result.stats.elapsed)
            success_rate = successes / SEEDS
            success_by_cell[(rate, attempts)] = success_rate
            if rate == 0.0:
                assert success_rate == 1.0
                assert sum(wasted) == 0
            grid.append({
                "fail_rate": rate,
                "attempts": attempts,
                "success_rate": success_rate,
                "mean_answers": _mean(answers),
                "mean_demoted_blocks": _mean(demoted),
                "mean_wasted_fetches": _mean(wasted),
                "mean_time_to_k_virtual_s": _mean(elapsed),
            })

    # More attempts never hurt aggregate success at any fault rate.
    for rate in FAULT_RATES:
        rates = [success_by_cell[(rate, a)] for a in ATTEMPT_CAPS]
        assert rates == sorted(rates), (rate, rates)

    # Enough retries recover every failed page of a 20% fault rate.
    registry, head, plan = _plan()
    wrap_registry_flaky(
        registry, FaultSchedule(seed=3, fail_rate=0.2), attempt_aware=True,
    )
    result = ExecutionEngine(
        registry, resilience=ResilienceConfig(attempts=8, partial_results=True),
    ).execute(plan, head=head, k=K)
    assert result.certificate is not None
    assert len(result.rows) == K

    # -- adaptive vs static ---------------------------------------------
    # The columns differ in the world, not in a switch: the adaptive one
    # registers the sibling and arms drift monitoring (a replan that
    # keeps the plan), both retry and run partial.
    config = ResilienceConfig(attempts=2, partial_results=True)

    def _executor(registry, head, plan, adaptive):
        return ProgressiveExecutor(
            registry=registry, plan=plan, head=head, resilience=config,
            replan=(lambda observed: None) if adaptive else None,
        )

    session_registry, session_head, session_plan = _plan()
    session_oracle = ProgressiveExecutor(
        registry=session_registry, plan=session_plan, head=session_head,
    )
    session_oracle_sig = _sig(session_oracle.run(K).rows)

    # Zero-drift contract: with adaptivity armed but nothing drifting,
    # the adaptive run is bit-identical to the static one in rows,
    # ranks, AND full per-round accounting.
    zero_runs = []
    for adaptive in (False, True):
        registry, head, plan = _plan(sibling=adaptive)
        executor = _executor(registry, head, plan, adaptive)
        result = executor.run(K)
        zero_runs.append((executor, result))
    static_zero, adaptive_zero = zero_runs
    assert _sig(adaptive_zero[1].rows) == _sig(static_zero[1].rows)
    assert adaptive_zero[0].replans == 0
    assert len(adaptive_zero[0].rounds) == len(static_zero[0].rounds)
    for ours, theirs in zip(adaptive_zero[0].rounds, static_zero[0].rounds):
        assert ours.fetches == theirs.fetches
        assert ours.stats.total_calls == theirs.stats.total_calls
        assert ours.stats == theirs.stats

    demotion_grid = []
    for rate in FAULT_RATES:
        exact_by_column: dict[str, float] = {}
        for column in ("static", "adaptive"):
            adaptive = column == "adaptive"
            exact = 0
            answers, t2k, dropped, substituted, replans = [], [], [], [], []
            for seed in range(SEEDS):
                registry, head, plan = _plan(sibling=adaptive)
                if rate:
                    # Only lefts is sick; the backup (and rights) stay
                    # healthy — the demotion-recovery regime.
                    registry._services["lefts"] = FlakyService(
                        registry._services["lefts"],
                        FaultSchedule(seed=seed, fail_rate=rate),
                        attempt_aware=True,
                    )
                executor = _executor(registry, head, plan, adaptive)
                result = executor.run(K)
                certificate = result.certificate
                assert certificate is not None
                if _sig(result.rows) == session_oracle_sig:
                    exact += 1
                else:
                    assert certificate.is_partial, (rate, column, seed)
                    assert certificate.dropped_services, (rate, column, seed)
                answers.append(len(result.rows))
                t2k.append(_time_to_k(executor))
                dropped.append(len(certificate.dropped))
                substituted.append(len(certificate.substituted))
                replans.append(executor.replans)
            exact_by_column[column] = exact / SEEDS
            demotion_grid.append({
                "fail_rate": rate,
                "column": column,
                "exact_answer_rate": exact / SEEDS,
                "mean_answers": _mean(answers),
                "mean_time_to_k_virtual_s": _mean(t2k),
                "mean_dropped_blocks": _mean(dropped),
                "mean_substituted_blocks": _mean(substituted),
                "mean_replans": _mean(replans),
            })
        # The sibling can only improve exactness: the backup serves what
        # partial results alone would have dropped.
        assert exact_by_column["adaptive"] >= exact_by_column["static"], (
            rate, exact_by_column,
        )

    drift_cells: dict[str, dict] = {}
    for column in ("static", "adaptive"):
        registry, head, plan = _plan(chunk=1, sibling=column == "adaptive")
        registry._services["lefts"] = FlakyService(
            registry._services["lefts"], FaultSchedule(seed=1, delay_rate=1.0),
        )
        executor = _executor(registry, head, plan, column == "adaptive")
        result = executor.run(K)
        # Delay faults never change data: both columns stay exact.
        assert _sig(result.rows) == session_oracle_sig, column
        drift_cells[column] = {
            "column": column,
            "time_to_k_virtual_s": round(_time_to_k(executor), 4),
            "replans": executor.replans,
            "substituted_blocks": result.stats.substituted_blocks,
            "lefts_fetches": _service_fetches(executor, "lefts"),
            "backup_fetches": _service_fetches(executor, "lefts_backup"),
            "rights_fetches": _service_fetches(executor, "rights"),
        }
    # The splice pays off: drift is detected, the sibling serves the
    # rest at healthy latency, and the shared cache keeps the untouched
    # feed's remote traffic bounded by the static run's.
    static, adaptive = drift_cells["static"], drift_cells["adaptive"]
    assert adaptive["replans"] >= 1
    assert adaptive["time_to_k_virtual_s"] < static["time_to_k_virtual_s"]
    assert adaptive["rights_fetches"] <= static["rights_fetches"]

    write_artifact(out_dir, "counts_resilience.txt", "\n\n".join([
        table(f"Retry grid: {SIDE}x{SIDE} pair plan, chunk {CHUNK}, k={K}, "
              f"{SEEDS} seeded worlds a cell, partial results, attempt-aware "
              "faults", grid),
        table("Demotion recovery: retries(2) + partial results; adaptive = "
              "a clean lefts_backup sibling and drift monitoring armed",
              demotion_grid),
        table("Drift recovery: lefts delayed x25 on every page, chunk 1",
              [static, adaptive]),
    ]))

"""One path fold times every plan: the engine's clock against its feed DP.

``slowest_path`` (``plans/dag.py``) is the only fold of per-node times
into a plan's time: Eq. 4 and time-to-screen call it over the
annotation's columns, the engine's ``elapsed`` over the ledger's busy
time.  The clock as a critical-path DP over each step's feeds is
``reference_elapsed`` (``repro.testing``), and the two are compared
with ``float.hex()`` — over every plan of the five
built-in domains' plan spaces with random clock columns, and over
walked and resumed ledgers of real executions.
"""

from __future__ import annotations

import functools
import random
from dataclasses import replace

import golden_plans
from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine, elapsed
from repro.execution.program import JOIN, ExecutionProgram
from repro.execution.stats import ExecutionStats
from repro.optimizer.patterns import permissible_sequences
from repro.optimizer.topology import TopologyEnumerator
from repro.plans.builder import PlanBuilder
from repro.plans.dag import QueryPlan, slowest_path
from repro.plans.nodes import InputNode, OutputNode, ServiceNode
from repro.sources.travel import alpha1_patterns, poset_optimal
from repro.testing import chain_poset, reference_elapsed


@functools.cache
def _plan_space(domain: str):
    """A domain's registry and query, and every plan of its space —
    each permissible pattern sequence × each of its topologies — with
    its program."""
    registry, query = golden_plans.PROFILES[domain]()
    builder = PlanBuilder(query, registry)
    plans = []
    for patterns in permissible_sequences(query, registry.schema()):
        for poset in TopologyEnumerator(query, patterns).all_posets():
            plan = builder.build(patterns, poset)
            plans.append((plan, ExecutionProgram.compile(plan, query.head)))
    return registry, query, plans


def _every_plan():
    for domain in golden_plans.PROFILES:
        yield from _plan_space(domain)[2]


def _random_ledger(rng: random.Random, program: ExecutionProgram, walked: bool):
    """Stats whose clock gives a random subset of the steps a random
    non-negative busy time, walked (``rows_out`` written) or resumed."""
    stats = ExecutionStats()
    for step in program.steps:
        if rng.random() < 0.8:
            busy = rng.choice((0.0, rng.uniform(0, 10), rng.expovariate(0.01)))
            stats.clock[step.index] = (busy, busy, 1)
    if walked:
        stats.rows_out = [1] * len(program.steps)
    return stats


def _with_join_times(rng: random.Random, program: ExecutionProgram):
    """*program* with a random response time on every join."""
    return replace(program, steps=tuple(
        step._replace(response_time=rng.uniform(0, 5))
        if step.kind == JOIN else step
        for step in program.steps
    ))


class TestTheClockIsTheFeedDP:
    def test_the_space_covers_every_domain(self):
        assert len(list(_every_plan())) == 1349

    def test_a_program_path_is_a_chain_of_feeds(self):
        """The plan's paths, as step indices: input to output, each
        step fed by the one before it.  Kahn order is not always the
        order the builder added the nodes in."""
        reordered = 0
        for plan, program in _every_plan():
            assert len(program.paths) == len(plan.path_positions())
            last = len(program.steps) - 1
            for path in program.paths:
                assert path[0] == 0 and path[-1] == last
                assert all(
                    feeder in program.steps[step].feeds
                    for feeder, step in zip(path, path[1:])
                )
            reordered += program.paths != plan.path_positions()
        assert reordered

    def test_random_clock_columns(self):
        rng = random.Random(20081)
        for _, program in _every_plan():
            for walked in (False, True):
                for timed in (program, _with_join_times(rng, program)):
                    stats = _random_ledger(rng, timed, walked)
                    assert (
                        elapsed(timed, stats).hex()
                        == reference_elapsed(timed, stats).hex()
                    )

    def test_walked_and_resumed_ledgers(self, registry, travel_query):
        """Full scans, k = 3 walks and their resumes to k = 20 over the
        plan spaces of the three small domains, and plan O."""
        optimal = PlanBuilder(travel_query, registry).build(
            alpha1_patterns(), poset_optimal()
        )
        runs = [
            (registry, ExecutionProgram.compile(optimal, travel_query.head))
        ]
        for domain in ("biblio", "news", "weekend"):
            domain_registry, _, plans = _plan_space(domain)
            runs += [(domain_registry, program) for _, program in plans]
        timed_resumes = 0
        for run_registry, program in runs:
            engine = ExecutionEngine(run_registry, CacheSetting.ONE_CALL)
            walked = engine.execute(program, k=3)
            resumed = engine.resume(program, walked, 20)
            for result in (engine.execute(program), walked, resumed):
                assert (
                    result.elapsed.hex()
                    == reference_elapsed(program, result.stats).hex()
                )
            # A resume that pulls no page reads 0.0 on both clocks.
            timed_resumes += resumed.elapsed > 0
        assert len(runs) == 16 and timed_resumes >= 4

    def test_a_hand_built_plan_is_timed_by_node_not_by_insertion(
        self, tiny_registry, tiny_query
    ):
        """Nodes added output first: their plan positions run against
        the steps' topological order, so the program maps the paths."""
        plan = QueryPlan()
        end = plan.add_node(OutputNode())
        nodes = [
            ServiceNode(
                atom_index=index,
                atom=tiny_query.atoms[index],
                pattern=tiny_registry.signature(name).pattern(code),
                profile=tiny_registry.profile(name),
                fetches=fetches,
            )
            for index, name, code, fetches in (
                (1, "spots", "ioo", 2), (0, "cities", "io", 1),
            )
        ]
        for node in nodes:
            plan.add_node(node)
        start = plan.add_node(InputNode())
        plan.add_arc(start, nodes[1])
        plan.add_arc(nodes[1], nodes[0])
        plan.add_arc(nodes[0], end)
        program = ExecutionProgram.compile(plan, tiny_query.head)
        assert plan.path_positions() == ((3, 2, 1, 0),)
        assert program.paths == ((0, 1, 2, 3),)
        result = ExecutionEngine(tiny_registry).execute(program)
        assert result.elapsed == reference_elapsed(program, result.stats)
        forward = PlanBuilder(tiny_query, tiny_registry).build(
            (
                tiny_registry.signature("cities").pattern("io"),
                tiny_registry.signature("spots").pattern("ioo"),
            ),
            chain_poset(2, [0, 1]),
            fetches={1: 2},
        )
        assert result.elapsed == ExecutionEngine(tiny_registry).execute(
            forward
        ).elapsed == 1.0 + 4 * 2.0


class TestTheFoldsTwoShapes:
    PATHS = ((0, 1, 2, 4), (0, 3, 4))
    TAUS = (0.0, 1.5, 9.7, 4.9, 0.0)

    def test_a_barrier_sums_each_path(self):
        assert slowest_path(self.PATHS, self.TAUS) == 1.5 + 9.7
        assert slowest_path((), self.TAUS) == 0.0

    def test_a_pipe_pays_its_bottleneck_and_one_tau_per_other_node(self):
        works = (0.0, 30.0, 38.8, 4.9, 0.0)
        assert slowest_path(self.PATHS, self.TAUS, works) == 38.8 + 1.5
        # The first of two equal works is the bottleneck.
        tied = (0.0, 40.0, 40.0, 0.0, 0.0)
        assert slowest_path(self.PATHS, self.TAUS, tied) == 40.0 + 9.7

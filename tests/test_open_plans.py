"""Search states as open plans: the fold against the definition.

The branch-and-bound keeps the *open plan* of every topology state and
obtains it by placing one atom on the open plan of the state's
canonical parent (docs/ARCHITECTURE.md, "Search states are open
plans").  The definition it must reproduce bit for bit is a build from
scratch: ``reference_partial_bound`` for a state's lower bound,
``PlanBuilder.build`` + ``reference_annotate`` for a complete topology.
The *class bound* (a complete topology is discarded at its all-ones
cost) must leave every decision where ``prune=False`` and the
exhaustive baseline put it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden_plans
from repro.testing.exhaustive import exhaustive_optimize
from repro.execution.cache import CacheSetting
from repro.model.atoms import Atom
from repro.model.parser import parse_query
from repro.model.predicates import Comparison
from repro.model.query import ConjunctiveQuery
from repro.model.schema import AccessPattern, signature
from repro.model.terms import Constant, Variable
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.optimizer.patterns import is_executable, permissible_sequences
from repro.optimizer.topology import TopologyEnumerator
from repro.plans.annotate import AnnotationProgram
from repro.plans.builder import PlanBuilder, Poset
from repro.plans.dag import PlanError
from repro.plans.nodes import JoinNode, OutputNode, ServiceNode
from repro.services.profile import exact_profile, search_profile
from repro.services.registry import ServiceRegistry
from repro.services.table import TableExactService, TableSearchService
from repro.testing.reference import reference_annotate, reference_partial_bound

METRICS = [make() for make in golden_plans.METRICS.values()]
DECISION = ("patterns", "poset", "fetches", "cost", "expected_answers")


def _shape(plan):
    """Everything a plan is, node ids aside: per node (in ``plan.nodes``
    order) its kind and content, and the positions of its feeds in arc
    order."""
    position = {node.node_id: index for index, node in enumerate(plan.nodes)}
    shape = []
    for node in plan.nodes:
        feeds = tuple(position[feed] for feed in plan.predecessor_ids(node))
        if isinstance(node, ServiceNode):
            content = (
                "service", node.atom_index, node.pattern.code, node.profile,
                node.fetches, node.predicates,
            )
        elif isinstance(node, JoinNode):
            content = (
                "join", node.method, node.variables, node.predicates,
                node.selectivity.hex(),
            )
        elif isinstance(node, OutputNode):
            content = ("output", node.residual_predicates)
        else:
            content = ("input",)
        shape.append((content, feeds))
    return shape


def _estimates(plan, annotation):
    """Every node estimate by build position, as hex strings."""
    return [
        (e.tuples_in.hex(), e.tuples_out.hex(), e.calls.hex())
        for e in map(annotation.of, plan.nodes)
    ] + [annotation.output_size.hex()]


def _assert_closes_to_the_direct_build(contexts, direct):
    """The closed plan of a complete state, on its extended program
    (one context per cache setting), against ``build`` +
    ``reference_annotate`` + ``metric.cost``."""
    shape = _shape(direct)
    for setting, context in contexts.items():
        closed = context.plan
        assert _shape(closed) == shape
        assert context.chunked_atoms == AnnotationProgram(direct, setting).chunked_atoms
        reference = reference_annotate(direct, setting)
        ones = context.annotate({})
        assert _estimates(closed, ones) == _estimates(direct, reference)
        for metric in METRICS:
            assert metric.cost(closed, ones).hex() == (
                metric.cost(direct, reference).hex()
            )


@functools.cache
def _problem(profile):
    return golden_plans.PROFILES[profile]()


@functools.cache
def _searched(profile, metric, config):
    """One golden case searched cold, then again on the warm optimizer:
    ``(bounds the cold run computed, cold result, warm result)``."""
    registry, query = _problem(profile)
    optimizer = Optimizer(
        registry, golden_plans.METRICS[metric](), golden_plans.CONFIGS[config]
    )
    cold = optimizer.optimize(query)
    return optimizer.memo.bounds(), cold, optimizer.optimize(query)


def _golden_cases(keep=lambda profile, metric, config: True):
    cases = [(case, key) for case, *key in golden_plans.cases() if keep(*key)]
    return pytest.mark.parametrize(
        "profile, metric, config",
        [key for _, key in cases], ids=[case for case, _ in cases],
    )


class TestBoundsAgainstTheDefinition:
    @_golden_cases()
    def test_every_bound_the_search_computed(self, profile, metric, config):
        """5 domains × 6 metrics × the three cache settings: whatever
        state the search asked a bound for, partial or complete."""
        registry, query = _problem(profile)
        bounds, cold, _ = _searched(profile, metric, config)
        metric = golden_plans.METRICS[metric]()
        setting = golden_plans.CONFIGS[config].cache_setting
        assert len(bounds) == cold.stats.memo_bound_misses
        for (codes, closure), bound in bounds.items():
            placed = frozenset(i for i, code in enumerate(codes) if code)
            patterns = tuple(
                registry.signature(body_atom.service).pattern(code) if code else None
                for body_atom, code in zip(query.atoms, codes)
            )
            reference = reference_partial_bound(
                query, registry, metric, setting, patterns, placed, closure
            )
            assert bound.hex() == reference.hex(), (codes, sorted(closure))

    @pytest.mark.parametrize("profile", list(golden_plans.PROFILES))
    def test_every_complete_topology_closes_to_the_direct_build(self, profile):
        """All 1 349 plans of the five plan spaces under the three cache
        settings, reached through the shared prefixes one optimizer per
        setting accumulates."""
        registry, query = golden_plans.PROFILES[profile]()
        builder = PlanBuilder(query, registry)
        everything = frozenset(range(len(query.atoms)))
        space = [
            (patterns, poset)
            for patterns in permissible_sequences(query, registry.schema())
            for poset in TopologyEnumerator(query, patterns).all_posets()
        ]
        states = [(patterns, everything, poset.closure()) for patterns, poset in space]
        routes = {
            setting: Optimizer(
                registry, METRICS[0], OptimizerConfig(cache_setting=setting)
            ).state_contexts(query, states)
            for setting in CacheSetting
        }
        for patterns, poset in space:
            _assert_closes_to_the_direct_build(
                {setting: next(route) for setting, route in routes.items()},
                builder.build(patterns, poset),
            )


# -- synthetic queries: two routes to one state ---------------------------

_PROFILES = (
    exact_profile(erspi=0.4, response_time=1.5),
    exact_profile(erspi=3.0, response_time=0.7, cost_per_call=2.0),
    exact_profile(erspi=1.0, response_time=2.0, chunk_size=4),
    search_profile(chunk_size=5, response_time=1.1),
    search_profile(chunk_size=3, response_time=0.3, decay=6, cost_per_call=0.5),
)
_POOL = [Variable(name) for name in "ABCDE"]


@dataclass(frozen=True)
class _Case:
    registry: ServiceRegistry
    query: ConjunctiveQuery
    patterns: tuple
    closure: frozenset
    #: Two orders of placing the atoms, both linear extensions of the
    #: closure: the one a random walk of the enumerator took, and a
    #: second drawn independently.
    routes: tuple[tuple[int, ...], tuple[int, ...]]

    def states(self, route):
        """The search states along *route*: ``(patterns, placed atoms,
        their order)``."""
        placed = frozenset()
        for index in route:
            placed |= {index}
            yield self.patterns, placed, frozenset(
                pair for pair in self.closure if pair[1] in placed
            )

    @property
    def build_order(self) -> list[int]:
        """The order ``PlanBuilder.build`` visits the atoms in."""
        below = dict.fromkeys(range(len(self.query.atoms)), 0)
        for _, j in self.closure:
            below[j] += 1
        return sorted(below, key=lambda i: (below[i], i))

    @property
    def out_of_build_order(self) -> tuple[int, ...] | None:
        """A route with a step that places an atom the builder visits
        *before* an atom already placed (appended to the plan of the
        state the search came from, it would build a different plan)."""
        rank = {index: at for at, index in enumerate(self.build_order)}
        for route in self.routes:
            if any(
                rank[index] < rank[earlier]
                for step, index in enumerate(route)
                for earlier in route[:step]
            ):
                return route
        return None


@st.composite
def synthetic_cases(draw):
    """2–6 atoms over five shared variables, predicates over variables
    that several branches bind, a random callable poset and two routes
    to it."""
    n = draw(st.integers(2, 6))
    atoms, codes = [], []
    for index in range(n):
        arity = draw(st.integers(1, 3))
        atoms.append(Atom(service=f"s{index}", terms=tuple(
            draw(st.sampled_from(_POOL + [Constant("c")])) for _ in range(arity)
        )))
        codes.append("".join(
            draw(st.sampled_from("ooi")) if index else "o" for _ in range(arity)
        ))
    variables = sorted(
        {t for a in atoms for t in a.terms if isinstance(t, Variable)},
        key=lambda v: v.name,
    )
    predicates = []
    if len(variables) >= 2:
        for _ in range(draw(st.integers(0, 3))):
            left, right = draw(st.lists(
                st.sampled_from(variables), min_size=2, max_size=2, unique=True
            ))
            predicates.append(Comparison(
                left, draw(st.sampled_from(["<", "==", ">="])), right,
                selectivity=draw(st.sampled_from([None, 0.05, 0.5])),
            ))
    query = ConjunctiveQuery("q", (), tuple(atoms), tuple(predicates))
    if not is_executable(query, [AccessPattern(code) for code in codes]):
        codes = ["o" * len(code) for code in codes]  # nobody needs an input
    registry = ServiceRegistry()
    patterns = []
    for body_atom, code in zip(atoms, codes):
        sig = signature(
            body_atom.service, [f"d{j}" for j in range(len(code))], [code]
        )
        profile = draw(st.sampled_from(_PROFILES))
        if profile.is_search:
            registry.register(
                TableSearchService(sig, profile, [], score=lambda row: 0.0)
            )
        else:
            registry.register(TableExactService(sig, profile, []))
        patterns.append(sig.patterns[0])
    patterns = tuple(patterns)
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if a != b:
            registry.register_join_selectivity(
                f"s{a}", f"s{b}", draw(st.sampled_from([0.02, 0.3]))
            )
    enumerator = TopologyEnumerator(query, patterns)
    state, walked = enumerator.initial_state, []
    while not enumerator.is_complete(state):
        following = draw(st.sampled_from(list(enumerator.extensions(state))))
        walked.extend(following[0] - state[0])
        state = following
    closure = state[1]
    second, remaining = [], set(range(n))
    while remaining:
        free = sorted(
            i for i in remaining
            if not any(j == i and p in remaining for p, j in closure)
        )
        second.append(draw(st.sampled_from(free)))
        remaining.discard(second[-1])
    return _Case(registry, query, patterns, closure, (tuple(walked), tuple(second)))


def _check_case(case: _Case, setting: CacheSetting) -> None:
    metric = METRICS[0]
    builder = PlanBuilder(case.query, case.registry)
    poset = Poset(n=len(case.query.atoms), pairs=case.closure)
    closed = []
    for route in case.routes:
        optimizer = Optimizer(
            case.registry, metric, OptimizerConfig(cache_setting=setting)
        )
        states = list(case.states(route))
        for state, context in zip(
            states, optimizer.state_contexts(case.query, states)
        ):
            reference = reference_partial_bound(
                case.query, case.registry, metric, setting, *state
            )
            assert context.cost({}).hex() == reference.hex(), state[1:]
        _assert_closes_to_the_direct_build(
            {setting: context}, builder.build(case.patterns, poset)
        )
        closed.append(context)
    one, other = closed
    assert _shape(one.plan) == _shape(other.plan)
    assert _estimates(one.plan, one.annotate({})) == (
        _estimates(other.plan, other.annotate({}))
    )


class TestTwoRoutesToOneState:
    @given(synthetic_cases(), st.sampled_from(list(CacheSetting)))
    @settings(max_examples=60, deadline=None)
    def test_every_state_of_both_routes_is_the_from_scratch_build(
        self, case, setting
    ):
        _check_case(case, setting)

    @given(
        synthetic_cases().filter(lambda case: case.out_of_build_order),
        st.sampled_from(list(CacheSetting)),
    )
    @settings(max_examples=25, deadline=None)
    def test_also_when_the_new_atom_is_not_last_in_build_order(
        self, case, setting
    ):
        """Every example here places, at some step, an atom the builder
        visits before one already placed (were the strategy unable to
        produce one, the filter would fail the test).  Walked along
        that route, the plan still holds the atoms in the builder's
        order, not in the order they were placed."""
        _check_case(case, setting)
        route = case.out_of_build_order
        optimizer = Optimizer(case.registry, METRICS[0], OptimizerConfig())
        *_, complete = optimizer.state_contexts(case.query, case.states(route))
        order = [node.atom_index for node in complete.plan.service_nodes]
        assert order == case.build_order != list(route)


# -- the class bound --------------------------------------------------------


def _decision(result) -> dict:
    observed = golden_plans.observe(result)
    return {field: observed[field] for field in DECISION}


def _agree(registry, query, metric, config, searched=None, exhaustive=True):
    """Pruned (cold, then warm), unpruned and exhaustive on one problem.

    The two searches visit plans in the same order and keep the first
    of equal cost, so they agree on the whole decision; the exhaustive
    baseline walks the space in another order and may settle on a
    different plan *of the same cost*.
    """
    if searched is None:
        optimizer = Optimizer(registry, metric, config)
        searched = optimizer.optimize(query), optimizer.optimize(query)
    cold, warm = searched
    unpruned = Optimizer(registry, metric, replace(config, prune=False)).optimize(query)
    assert _decision(cold) == _decision(warm) == _decision(unpruned)
    if exhaustive:
        oracle = exhaustive_optimize(
            query, registry, metric, config.k, config.cache_setting
        )
        assert cold.cost.hex() == oracle.cost.hex()
        assert (oracle.expected_answers >= config.k) == (
            cold.expected_answers >= config.k
        )
    # The warm run repeats the cold one's decisions out of the memo:
    # same trajectory, nothing folded, nothing sized.
    for counter in (
        "pattern_sequences_pruned", "topology_states_explored",
        "topology_states_pruned", "plans_completed", "incumbent_updates",
    ):
        assert getattr(warm.stats, counter) == getattr(cold.stats, counter)
    assert (warm.stats.atoms_placed, warm.stats.fetch_evaluations) == (0, 0)
    return cold


class TestClassBound:
    # bio's 1 239 topologies cost 0.8 s per unpruned + exhaustive pair,
    # travel's 95 0.35 s: on bio the serving configuration (what the
    # frozen bench runs) stands for the three, and the exhaustive
    # baseline is consulted under it alone (random k below varies the
    # rest).
    @_golden_cases(lambda profile, _, config: profile != "bio" or config == "serving")
    def test_golden_cases_agree_with_unpruned_and_exhaustive(
        self, profile, metric, config
    ):
        registry, query = _problem(profile)
        cold = _agree(
            registry, query, golden_plans.METRICS[metric](),
            golden_plans.CONFIGS[config],
            searched=_searched(profile, metric, config)[1:],
            exhaustive=config == "serving",
        )
        golden = golden_plans.load()[f"{profile}/{metric}/{config}"]
        assert _decision(cold) == {field: golden[field] for field in DECISION}

    @given(
        st.sampled_from(["travel", "biblio", "news", "weekend"]),
        st.sampled_from(list(golden_plans.METRICS)),
        st.sampled_from(list(CacheSetting)),
        st.integers(1, 400),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_k(self, profile, metric, setting, k):
        registry, query = _problem(profile)
        _agree(
            registry, query, golden_plans.METRICS[metric](),
            OptimizerConfig(k=k, cache_setting=setting),
        )

    @pytest.mark.parametrize(
        "profile, k", [("news", 1000), ("weekend", 10**6), ("travel", 10**12)]
    )
    def test_no_topology_reaches_k(self, profile, k):
        """The fallback path: nothing is ever feasible, so there is no
        incumbent, nothing prunes, and the cheapest infeasible plan wins
        — the same one with and without pruning."""
        registry, query = _problem(profile)
        cold = _agree(
            registry, query, METRICS[0],
            OptimizerConfig(k=k, cache_setting=CacheSetting.OPTIMAL),
        )
        assert cold.expected_answers < k
        assert cold.stats.topology_states_pruned == 0
        assert cold.stats.incumbent_updates == 0

    def test_a_topology_at_its_class_bound_is_not_sized(self, registry):
        """Pruned complete topologies never reach phase 3 or the plan
        table; the ones that survive are sized exactly once.  On the
        running example as the serving layer receives it (parsed text:
        default predicate selectivities) that is 2 topologies of 48."""
        travel_query = parse_query(
            "q(Conf, City, Hotel, FPrice, HPrice) :- "
            "flight('Milano', City, Start, End, OutTime, RetTime, FPrice), "
            "hotel(Hotel, City, 'luxury', Start, End, HPrice), "
            "conf('DB', Conf, Start, End, City), weather(City, Temperature, Start), "
            "Start >= '2008-04-01', End <= '2008-09-28', "
            "Temperature >= 28, FPrice + HPrice < 2000."
        )
        config = OptimizerConfig(k=5, cache_setting=CacheSetting.OPTIMAL)
        optimizer = Optimizer(registry, METRICS[0], config)
        stats = optimizer.optimize(travel_query).stats
        unpruned = Optimizer(
            registry, METRICS[0], replace(config, prune=False)
        ).optimize(travel_query).stats
        assert stats.fetch_evaluations == optimizer.memo.plan_entries
        assert stats.fetch_evaluations <= 10 < unpruned.fetch_evaluations
        assert stats.fetch_vectors_evaluated < unpruned.fetch_vectors_evaluated


# -- extended programs ------------------------------------------------------


class TestExtendedPrograms:
    def _fold(self, registry, query):
        from repro.sources.travel import alpha1_patterns, poset_optimal

        builder = PlanBuilder(query, registry)
        patterns, poset = alpha1_patterns(), poset_optimal()
        state = builder.start()
        program = AnnotationProgram(state.plan, CacheSetting.ONE_CALL)
        for index in sorted(
            range(poset.n), key=lambda i: (len(poset.predecessors_of(i)), i)
        ):
            state = builder.place(
                state, index, patterns[index], poset.direct_predecessors_of(index)
            )
            program = program.extended(state.plan)
        closed = builder.close(state)
        return builder.build(patterns, poset), closed, program.extended(closed)

    def test_an_extended_program_is_the_compiled_one(self, registry, travel_query):
        direct, closed, program = self._fold(registry, travel_query)
        compiled = AnnotationProgram(direct, CacheSetting.ONE_CALL)
        assert program.chunked_atoms == compiled.chunked_atoms
        for vector in ([1, 1], [3, 2], [1, 7]):
            assert _estimates(closed, program.run(vector)) == (
                _estimates(direct, compiled.run(vector))
            )

    def test_it_refuses_to_run_after_its_plan_mutates(self, registry, travel_query):
        _, closed, program = self._fold(registry, travel_query)
        program.run()
        fed_by_another = next(
            node for node in closed.service_nodes
            if closed.input_node not in closed.predecessors(node)
        )
        closed.add_arc(closed.input_node, fed_by_another)
        with pytest.raises(PlanError, match="changed after"):
            program.run()

    def test_an_open_plan_has_no_estimate_to_run(self, registry, travel_query):
        builder = PlanBuilder(travel_query, registry)
        start = builder.start()
        with pytest.raises(PlanError, match="no output node"):
            AnnotationProgram(start.plan, CacheSetting.ONE_CALL).run()

    def test_only_a_continuation_extends(self, registry, travel_query):
        direct, closed, program = self._fold(registry, travel_query)
        with pytest.raises(PlanError, match="does not continue"):
            program.extended(direct)

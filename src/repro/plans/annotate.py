"""Annotating plans with expected tuple flows and invocation counts.

Implements Section 3.4 and Section 5.2 of the paper:

* ``tuples_in(n)`` — tuples arriving at node ``n`` (the raw stream);
* ``tuples_out(n)`` — expected output size: ``t_in · ξ`` for exact
  services, ``t_in · cs · F`` for chunked services, and
  ``t_out(l) · t_out(m) · σ`` for a join of ``l`` and ``m`` (Eq. 1 and
  Section 3.4);
* ``calls(n)`` — the number of invocations actually required, which
  depends on the cache setting (Section 5.2).  Without caching it is
  the raw stream size.  With caching, blocks of uniform tuples need a
  single call, so Eq. (2) applies::

      t_in(n) = prod over m in N(n) of  ξ_m · t_in(m)  =  prod t_out(m)

  where ``N(n)`` contains, for each input variable ``X`` of ``n``, the
  node with *minimal* ``t_out`` among the nodes lying on a path from a
  provider of ``X`` to ``n`` — a selective intermediary bounds the
  number of distinct values of ``X`` that can reach ``n``.

Selection predicates assigned to a node multiply its output by their
selectivity (the paper folds selections into the notion of erspi).

The estimates depend on the fetching factors only through ``cs · F``,
and phase 3 of the optimizer tries many factor vectors on one fixed
topology, so the work is split in two (docs/ARCHITECTURE.md, "Plan
estimation"): :class:`AnnotationProgram` *compiles* a plan once —
topological order, folded selectivities, the Eq. 2 candidate sets —
into one flat op per node, and :meth:`AnnotationProgram.run`
*evaluates* the ops for a fetch vector in a single loop.
:func:`annotate` is one compile plus one run.  A plan that grows by
appending nodes extends its program instead of compiling a new one
(:meth:`AnnotationProgram.extended`).  The per-definition
derivation the program is checked against lives in
:mod:`repro.testing.reference` (``reference_annotate``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.execution.cache import CacheSetting
from repro.model.terms import Variable
from repro.plans.dag import PlanError, QueryPlan
from repro.plans.nodes import InputNode, JoinNode, OutputNode, PlanNode, ServiceNode


@dataclass(frozen=True)
class NodeEstimate:
    """Expected tuple traffic at one plan node."""

    tuples_in: float
    tuples_out: float
    calls: float

    def __post_init__(self) -> None:
        if self.tuples_in < 0 or self.tuples_out < 0 or self.calls < 0:
            raise PlanError("estimates must be non-negative")


class PlanAnnotation:
    """Estimates for every node of a plan, plus the overall output size.

    A thin view over three parallel float lists (``tuples_in``,
    ``tuples_out``, ``calls``, one entry per node) and the fetching
    factors the estimates were computed under.  The program hands its
    lists over as they are; :class:`NodeEstimate` objects exist only
    for the nodes somebody asks about (:meth:`of`, :attr:`estimates`).
    Constructing one directly, from a dict of estimates, is for tests
    and hand-built examples: it carries no factors, so
    :meth:`fetches` reads them off the plan nodes.
    """

    __slots__ = (
        "cache_setting", "output_size", "_position", "_tuples_in",
        "_tuples_out", "_calls", "_slots", "_fetches", "_estimates",
    )

    def __init__(
        self,
        cache_setting: CacheSetting,
        estimates: Mapping[str, NodeEstimate],
        output_size: float,
    ) -> None:
        self.cache_setting = cache_setting
        self.output_size = output_size
        self._position = {node_id: i for i, node_id in enumerate(estimates)}
        self._tuples_in = [e.tuples_in for e in estimates.values()]
        self._tuples_out = [e.tuples_out for e in estimates.values()]
        self._calls = [e.calls for e in estimates.values()]
        self._slots: Mapping[str, int] = {}
        self._fetches: Sequence[int] = ()
        self._estimates: dict[str, NodeEstimate] | None = dict(estimates)

    @classmethod
    def _over(
        cls,
        cache_setting: CacheSetting,
        output_size: float,
        position: Mapping[str, int],
        tuples_in: list[float],
        tuples_out: list[float],
        calls: list[float],
        slots: Mapping[str, int],
        fetches: Sequence[int],
    ) -> "PlanAnnotation":
        """The view an :class:`AnnotationProgram` run returns."""
        view = cls.__new__(cls)
        view.cache_setting = cache_setting
        view.output_size = output_size
        view._position = position
        view._tuples_in = tuples_in
        view._tuples_out = tuples_out
        view._calls = calls
        view._slots = slots
        view._fetches = fetches
        view._estimates = None
        return view

    @property
    def estimates(self) -> dict[str, NodeEstimate]:
        """Node id → :class:`NodeEstimate`, in topological order."""
        if self._estimates is None:
            self._estimates = {
                node_id: NodeEstimate(
                    self._tuples_in[i], self._tuples_out[i], self._calls[i]
                )
                for node_id, i in self._position.items()
            }
        return self._estimates

    def of(self, node: PlanNode) -> NodeEstimate:
        """Estimate for *node*."""
        i = self._position[node.node_id]
        return NodeEstimate(self._tuples_in[i], self._tuples_out[i], self._calls[i])

    def calls(self, node: PlanNode) -> float:
        """Expected number of invocations of *node*."""
        return self._calls[self._position[node.node_id]]

    def tuples_out(self, node: PlanNode) -> float:
        """Expected output size of *node*."""
        return self._tuples_out[self._position[node.node_id]]

    def tuples_in(self, node: PlanNode) -> float:
        """Expected input size of *node*."""
        return self._tuples_in[self._position[node.node_id]]

    def fetches(self, node: ServiceNode) -> int:
        """The fetching factor of *node* these estimates assume."""
        slot = self._slots.get(node.node_id)
        return node.fetches if slot is None else self._fetches[slot]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanAnnotation):
            return NotImplemented
        return (
            self.cache_setting is other.cache_setting
            and self.output_size == other.output_size
            and self.estimates == other.estimates
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"PlanAnnotation({self.cache_setting.name}, {len(self._position)} "
            f"nodes, output_size={self.output_size:g})"
        )


#: Selectivity charged per *output* position that is constrained after
#: retrieval: a constant in an output field acts as an equality
#: selection (e.g. ``Category = 'luxury'`` under an all-output
#: pattern), and an output variable that is already bound upstream is
#: an implicit equi-join — the execution engine drops mismatching
#: tuples, so the estimate must charge for them too.  The value is the
#: classical default equality selectivity.
EQUALITY_OUTPUT_SELECTIVITY = 0.1


def _selectivity_of(
    node: ServiceNode | JoinNode | OutputNode,
    bound_upstream: frozenset[Variable] = frozenset(),
) -> float:
    predicates = getattr(node, "predicates", None)
    if predicates is None:
        predicates = getattr(node, "residual_predicates", ())
    result = 1.0
    for predicate in predicates:
        result *= predicate.estimated_selectivity()
    if isinstance(node, ServiceNode):
        assert node.atom is not None and node.pattern is not None
        for position in node.pattern.output_positions:
            term = node.atom.term_at(position)
            if not isinstance(term, Variable) or term in bound_upstream:
                result *= EQUALITY_OUTPUT_SELECTIVITY
    return result


# Op kinds of a compiled program; an op is a tuple led by its kind.
_INPUT, _EXACT, _CHUNKED, _JOIN, _OUTPUT = range(5)


class AnnotationProgram:
    """The estimates of one plan: compiled once, run per fetch vector.

    Compilation fixes everything that does not depend on the fetching
    factors: one op per node, holding the positions it reads (its
    feed, or a join's two sides), its selectivity with predicates and
    constrained output positions folded in, ``erspi`` or
    ``chunk_size``, and — under a cache — the Eq. 2 *candidate
    groups*: per input variable, the positions of the nodes that can
    bound its distinct values (providers and everything between a
    provider and the node), in the order ties are broken.

    :meth:`run` is then a single loop over the ops that appends to
    three float lists.  It performs the float operations of the
    definition in the definition's order, so its results are
    bit-identical to ``reference_annotate`` — which is also why the
    Eq. 2 product has a *defined* order (the one that breaks ties
    among candidates: joins before services, then the order the nodes
    were added to the plan), not the iteration order of a set.

    Ops only ever read earlier ops, so a program can be *extended*:
    :meth:`extended` returns the program of a plan that appended nodes
    to this program's plan, compiling the new nodes only and sharing
    the rest — how the optimizer gets the program of a search state
    from the state it extends.  Every program also holds its estimates
    at all factors 1 (the new ops are evaluated when they are
    compiled), which is what the first vector of phase 3 asks for and
    what a search state's lower bound reads off its open plan, with no
    output node yet (:meth:`ones`).

    A program is bound to the structure its plan had when compiled:
    after an ``add_node``/``add_arc`` on the plan, :meth:`run` raises
    :class:`PlanError`.  The factors are an argument of ``run``, never
    read from the program, so no state leaks from one run to the next.
    """

    def __init__(self, plan: QueryPlan, cache_setting: CacheSetting) -> None:
        self.cache_setting = cache_setting
        self._ops: list[tuple] = []
        self._position: dict[str, int] = {}
        # What later ops are compiled from, per op: the bit set of its
        # strict ancestors (bit j: the node at position j), every
        # variable a service node at or above it binds, and its place
        # in the order that breaks ties and fixes Eq. 2's product —
        # joins before services, then build position (where the node
        # sits in ``plan.nodes``; ops are in topological order, which
        # need not be the order the nodes were added in).
        self._facts: list[tuple[int, frozenset[Variable], tuple[bool, int]]] = []
        # providers[X]: the bit set of the service nodes with X among
        # their outputs.
        self._providers: dict[Variable, int] = {}
        # A fetch vector is laid out by atom index, whatever order the
        # chunked services were added in.
        self._chunked: tuple[ServiceNode, ...] = ()
        self._atoms: tuple[int, ...] = ()
        self._slots: dict[str, int] = {}
        self._output: int | None = None
        self._ones: tuple[list[float], list[float], list[float]] = ([], [], [])
        nodes = plan.nodes
        built = {node.node_id: rank for rank, node in enumerate(nodes)}
        order = plan.topological_order()
        self._compile(plan, order, [built[node.node_id] for node in order])
        # The node added last: a plan continues this one when it holds
        # this very object at the same position (names are positions,
        # so any plan of the same shape has a node of the same name).
        self._tail = nodes[-1]

    def extended(self, plan: QueryPlan) -> "AnnotationProgram":
        """The program of *plan*, which continues this program's plan.

        *plan* must hold this program's nodes, arcs unchanged, followed
        by nodes added after them (what ``QueryPlan.copy`` plus
        ``add_node``/``add_arc`` of new sinks produces).  Only the new
        nodes are compiled and evaluated; this program is unaffected.
        """
        nodes = plan.nodes
        covered = len(self._ops)
        if len(nodes) < covered or nodes[covered - 1] is not self._tail:
            raise PlanError("plan does not continue the plan of this program")
        twin = object.__new__(AnnotationProgram)
        twin.cache_setting = self.cache_setting
        twin._ops = self._ops.copy()
        twin._position = self._position.copy()
        twin._facts = self._facts.copy()
        twin._providers = self._providers.copy()
        twin._chunked = self._chunked
        twin._atoms = self._atoms
        twin._slots = self._slots
        twin._output = self._output
        twin._ones = tuple(column.copy() for column in self._ones)
        twin._compile(plan, nodes[covered:], range(covered, len(nodes)))
        twin._tail = nodes[-1]
        return twin

    def _compile(self, plan: QueryPlan, nodes, ranks) -> None:
        """Append the ops of *nodes* (every predecessor already has
        one), evaluate them at all factors 1, bind to *plan*."""
        cached = self.cache_setting is not CacheSetting.NO_CACHE
        ops, position, facts, providers = (
            self._ops, self._position, self._facts, self._providers
        )
        first = len(ops)
        chunked = []
        for node, rank in zip(nodes, ranks):
            feeds = [position[feed] for feed in plan.predecessor_ids(node)]
            above = 0
            upstream: frozenset[Variable] = frozenset()
            for feed in feeds:
                fact = facts[feed]
                above |= fact[0] | (1 << feed)
                upstream |= fact[1]
            if isinstance(node, ServiceNode):
                assert node.atom is not None and node.profile is not None
                feed = self._single_feed(node, feeds)
                selectivity = _selectivity_of(node, upstream)
                groups = self._candidate_groups(node, above) if cached else None
                if node.profile.is_chunked:
                    chunked.append(node)
                    ops.append((
                        _CHUNKED, feed, node.profile.chunk_size, selectivity,
                        groups, node.atom_index,
                    ))
                else:
                    ops.append(
                        (_EXACT, feed, node.profile.erspi, selectivity, groups)
                    )
                bit = 1 << len(facts)
                for variable in node.output_variables:
                    providers[variable] = providers.get(variable, 0) | bit
                upstream |= node.atom.variable_set
            elif isinstance(node, JoinNode):
                if len(feeds) != 2:
                    raise PlanError(
                        f"join {node.node_id!r} must have two predecessors"
                    )
                ops.append((_JOIN, feeds[0], feeds[1], node.selectivity))
            elif isinstance(node, OutputNode):
                ops.append(
                    (_OUTPUT, self._single_feed(node, feeds), _selectivity_of(node))
                )
                self._output = len(facts)
            elif isinstance(node, InputNode):
                ops.append((_INPUT,))
            else:
                raise PlanError(f"unknown node type: {type(node).__name__}")
            position[node.node_id] = len(facts)
            facts.append((above, upstream, (ops[-1][0] != _JOIN, rank)))
        if chunked:
            self._chunked = tuple(
                sorted([*self._chunked, *chunked], key=lambda n: n.atom_index)
            )
            self._atoms = tuple(node.atom_index for node in self._chunked)
            self._slots = {n.node_id: slot for slot, n in enumerate(self._chunked)}
        self._evaluate(ops[first:], dict.fromkeys(self._atoms, 1), *self._ones)
        self._plan = plan
        self._version = plan.structure_version

    @staticmethod
    def _single_feed(node: PlanNode, feeds: list[int]) -> int:
        if len(feeds) != 1:
            raise PlanError(
                f"node {node.node_id!r} expected exactly one predecessor, "
                f"got {len(feeds)}"
            )
        return feeds[0]

    def _candidate_groups(
        self, node: ServiceNode, above: int
    ) -> tuple[tuple[int, ...], ...]:
        """Eq. 2: per input variable of *node*, who may bound it.

        The candidates for ``X`` are the ancestors of *node* (the bits
        of *above*) that provide ``X`` or have a provider of ``X``
        above them (the input node has neither, the output node is
        nobody's ancestor).  A variable without candidates is bound by
        constants or the user input and drops out; variables sharing a
        candidate set share a minimizer, so the set is kept once.
        Within a group the tie-break among equal ``t_out`` is: joins
        before services, then build position.
        """
        facts = self._facts
        members: list[int] | None = None
        groups: dict[tuple[int, ...], None] = {}
        for variable in sorted(node.input_variables, key=lambda v: v.name):
            provided = self._providers.get(variable, 0) & above
            if not provided:
                continue
            if members is None:
                members = [j for j in range(len(facts)) if above >> j & 1]
                members.sort(key=lambda j: facts[j][2])
            groups[tuple([
                j for j in members if provided >> j & 1 or facts[j][0] & provided
            ])] = None
        return tuple(groups)

    @property
    def chunked_atoms(self) -> tuple[int, ...]:
        """Atom indices of the chunked services: the layout of a fetch vector."""
        return self._atoms

    @property
    def chunked_nodes(self) -> tuple[ServiceNode, ...]:
        """The chunked service nodes, in :attr:`chunked_atoms` order."""
        return self._chunked

    def run(self, fetches: Sequence[int] | None = None) -> PlanAnnotation:
        """Estimates under *fetches* (one factor per :attr:`chunked_atoms`).

        ``None`` reads the factors currently set on the plan nodes.
        """
        if self._output is None:
            raise PlanError("plan has no output node")
        if fetches is None:
            fetches = tuple(node.fetches for node in self._chunked)
        elif len(fetches) != len(self._chunked):
            raise ValueError(
                f"expected {len(self._chunked)} fetching factors, got {len(fetches)}"
            )
        if fetches.count(1) == len(fetches):
            return self.ones()
        columns = ([], [], [])
        self._evaluate(self._ops, dict(zip(self._atoms, fetches)), *columns)
        return self._view(columns, fetches)

    def ones(self) -> PlanAnnotation:
        """The estimates at all factors 1, the columns every program
        holds, whether or not its plan has an output node yet: what the
        bound of a search state reads off its open plan.  Without OUT
        there is no output size (``nan``)."""
        return self._view(self._ones, (1,) * len(self._chunked))

    def _view(self, columns, fetches: Sequence[int]) -> PlanAnnotation:
        if self._plan.structure_version != self._version:
            raise PlanError(
                "plan structure changed after its annotation program was compiled"
            )
        tuples_in, tuples_out, calls = columns
        output = math.nan if self._output is None else tuples_out[self._output]
        return PlanAnnotation._over(
            self.cache_setting, output, self._position,
            tuples_in, tuples_out, calls, self._slots, fetches,
        )

    def _evaluate(
        self,
        ops: Sequence[tuple],
        factor: Mapping[int, int],
        tuples_in: list[float],
        tuples_out: list[float],
        calls: list[float],
    ) -> None:
        """Append the estimates of *ops* to the three columns, which hold
        those of every earlier op; *factor* maps atom index to ``F``."""
        facts = self._facts
        for op in ops:
            kind = op[0]
            if kind == _EXACT or kind == _CHUNKED:
                arriving = tuples_out[op[1]]
                if kind == _EXACT:
                    produced = arriving * op[2] * op[3]
                else:
                    produced = arriving * (op[2] * factor[op[5]]) * op[3]
                groups = op[4]
                if groups is None:
                    needed = arriving
                else:
                    # Eq. 2: one minimizer of t_out per group; N(n) is
                    # the *set* of minimizers, multiplied in the order
                    # that breaks ties.
                    minimizers = set()
                    for group in groups:
                        best = group[0]
                        least = tuples_out[best]
                        for candidate in group[1:]:
                            if tuples_out[candidate] < least:
                                best = candidate
                                least = tuples_out[candidate]
                        minimizers.add(best)
                    distinct = 1.0
                    if len(minimizers) > 1:
                        minimizers = sorted(minimizers, key=lambda j: facts[j][2])
                    for minimizer in minimizers:
                        distinct *= tuples_out[minimizer]
                    needed = min(arriving, distinct)
                tuples_in.append(arriving)
                tuples_out.append(produced)
                calls.append(needed)
            elif kind == _JOIN:
                pairs = tuples_out[op[1]] * tuples_out[op[2]]
                tuples_in.append(pairs)
                tuples_out.append(pairs * op[3])
                calls.append(0.0)
            elif kind == _OUTPUT:
                arriving = tuples_out[op[1]]
                tuples_in.append(arriving)
                tuples_out.append(arriving * op[2])
                calls.append(0.0)
            else:
                # The user always injects one single input tuple (Sec. 3.4).
                tuples_in.append(1.0)
                tuples_out.append(1.0)
                calls.append(0.0)


def annotate(plan: QueryPlan, cache_setting: CacheSetting) -> PlanAnnotation:
    """Estimates for every node of *plan* at its current fetching factors."""
    return AnnotationProgram(plan, cache_setting).run()

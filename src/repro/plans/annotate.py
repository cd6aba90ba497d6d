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

    A thin view over four parallel float lists (``tuples_in``,
    ``tuples_out``, ``calls`` and busy time, laid out by the nodes'
    positions in ``plan.nodes``; *position* maps a node id to its
    entry, in topological order), the τ of every node and the fetching
    factors the estimates were computed under (*fetches*, one per
    chunked node, whose entry *slots* maps its id to; a node without a
    slot reads its own factor).  An :class:`AnnotationProgram` run
    hands its lists over as they are; :class:`NodeEstimate` objects
    exist only for the nodes somebody asks about (:meth:`of`,
    :attr:`estimates`).
    """

    __slots__ = (
        "cache_setting", "output_size", "_position", "_tuples_in",
        "_tuples_out", "_calls", "_slots", "_fetches", "_estimates",
        "_taus", "_works",
    )

    def __init__(
        self,
        cache_setting: CacheSetting,
        output_size: float,
        position: Mapping[str, int],
        columns: tuple[list[float], list[float], list[float], list[float]],
        taus: Sequence[float],
        slots: Mapping[str, int],
        fetches: Sequence[int],
    ) -> None:
        self.cache_setting = cache_setting
        self.output_size = output_size
        self._position = position
        self._tuples_in, self._tuples_out, self._calls, self._works = columns
        self._taus = taus
        self._slots = slots
        self._fetches = fetches
        self._estimates: dict[str, NodeEstimate] | None = None

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

    def timing(self) -> tuple[Sequence[float], Sequence[float]]:
        """What the time metrics read, by position in ``plan.nodes``:
        τ of every node (a service's response time, a join's, 0 for
        IN/OUT) and its busy time under these estimates (``F · calls ·
        τ`` for a service, τ for a join, 0 for IN/OUT)."""
        return self._taus, self._works

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


class _AtomFacts:
    """What compiling a service node needs of its atom under its
    pattern, which the atom's index and the pattern's code fix:
    derived the first time a program meets the pair, then read.

    Per pair: the input variables in name order, the output variables
    by position, the number of constant output positions and all the
    atom's variables.  A variable is a bit mask, numbered in the order
    the table meets it, so compiling hashes no :class:`Variable`.

    One table per root program, shared by every program extended from
    it: the optimizer's holds the atoms of one ``optimize()`` run.
    """

    __slots__ = ("_masks", "_entries")

    def __init__(self) -> None:
        self._masks: dict[Variable, int] = {}
        self._entries: dict[tuple[int, str], tuple] = {}

    def of(self, node: ServiceNode) -> tuple:
        """``(atom, input masks, output masks, constant outputs,
        variables mask)`` of *node*."""
        atom, pattern = node.atom, node.pattern
        assert atom is not None and pattern is not None
        key = (node.atom_index, pattern.code)
        entry = self._entries.get(key)
        # A hand-built plan may give two atoms one index.
        if entry is None or entry[0] is not atom:
            masks = self._masks
            for variable in atom.variable_set:
                masks.setdefault(variable, 1 << len(masks))
            outputs = [atom.term_at(position) for position in pattern.output_positions]
            entry = self._entries[key] = (
                atom,
                tuple([
                    masks[variable] for variable in
                    sorted(atom.input_variables(pattern), key=lambda v: v.name)
                ]),
                tuple([masks[term] for term in outputs if isinstance(term, Variable)]),
                sum(not isinstance(term, Variable) for term in outputs),
                sum(masks[variable] for variable in atom.variable_set),
            )
        return entry


# Op kinds of a compiled program; an op is a tuple led by its kind and
# the position it writes.
_INPUT, _EXACT, _CHUNKED, _JOIN, _OUTPUT = range(5)


class AnnotationProgram:
    """The estimates of one plan: compiled once, run per fetch vector.

    Compilation fixes everything that does not depend on the fetching
    factors: one op per node, holding the positions it reads (its
    feed, or a join's two sides), its selectivity with predicates and
    constrained output positions folded in, ``erspi`` or
    ``chunk_size``, τ, and — under a cache — the Eq. 2 *candidate
    groups*: per input variable, the positions of the nodes that can
    bound its distinct values (providers and everything between a
    provider and the node), in the order ties are broken.  A node's
    position is its place in ``plan.nodes``; the ops run in
    topological order, which need not be that one.

    :meth:`run` is then a single loop over the ops that fills four
    float columns: the three estimates and the busy time the time
    metrics read (:meth:`PlanAnnotation.timing`).  It performs the
    float operations of the definition in the definition's order, so
    its results are bit-identical to ``reference_annotate`` — which is
    also why the Eq. 2 product has a *defined* order (the one that
    breaks ties among candidates: joins before services, then the
    order the nodes were added to the plan), not the iteration order
    of a set.

    Ops only ever read earlier ops, so a program can be *extended*:
    :meth:`extended` returns the program of a plan that appended nodes
    to this program's plan, compiling the new nodes only and sharing
    the rest — how the optimizer gets the program of a search state
    from the state it extends.  What a node's atom contributes is
    derived once per atom and pattern for the root program and every
    extension of it (:class:`_AtomFacts`).  Every program also holds
    its estimates at all factors 1 (the new ops are evaluated when
    they are compiled), which is what the first vector of phase 3 asks
    for and what a search state's lower bound reads off its open plan,
    with no output node yet (:meth:`ones`).

    A program is bound to the structure its plan had when compiled:
    after an ``add_node``/``add_arc`` on the plan, :meth:`run` raises
    :class:`PlanError`.  The factors are an argument of ``run``, never
    read from the program, so no state leaks from one run to the next.
    """

    def __init__(self, plan: QueryPlan, cache_setting: CacheSetting) -> None:
        self.cache_setting = cache_setting
        self._ops: list[tuple] = []
        self._position: dict[str, int] = {}
        # What later ops are compiled from, per position: the bit set
        # of its strict ancestors (bit j: the node at position j) and
        # the mask of every variable a service node at or above it
        # binds.  Beside them, its place in the order that breaks ties
        # and fixes Eq. 2's product: joins before services, then
        # position.
        self._facts: list[tuple[int, int] | None] = []
        self._order: list[tuple[bool, int] | None] = []
        # providers[X]: the bit set of the service nodes with the
        # variable of mask X among their outputs.
        self._providers: dict[int, int] = {}
        self._atom_facts = _AtomFacts()
        # A fetch vector is laid out by atom index, whatever order the
        # chunked services were added in.
        self._chunked: tuple[ServiceNode, ...] = ()
        self._atoms: tuple[int, ...] = ()
        self._slots: dict[str, int] = {}
        self._output: int | None = None
        self._taus: list[float] = []
        self._ones: tuple[list[float], ...] = ([], [], [], [])
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
        covered = len(self._facts)
        if len(nodes) < covered or nodes[covered - 1] is not self._tail:
            raise PlanError("plan does not continue the plan of this program")
        twin = object.__new__(AnnotationProgram)
        twin.cache_setting = self.cache_setting
        twin._ops = self._ops.copy()
        twin._position = self._position.copy()
        twin._facts = self._facts.copy()
        twin._order = self._order.copy()
        twin._providers = self._providers.copy()
        twin._atom_facts = self._atom_facts
        twin._chunked = self._chunked
        twin._atoms = self._atoms
        twin._slots = self._slots
        twin._output = self._output
        twin._taus = self._taus.copy()
        twin._ones = tuple([column.copy() for column in self._ones])
        twin._compile(plan, nodes[covered:], range(covered, len(nodes)))
        twin._tail = nodes[-1]
        return twin

    def _compile(self, plan: QueryPlan, nodes, positions) -> None:
        """Append the ops of *nodes* (every predecessor already has
        one), which sit at *positions* of the plan; evaluate them at
        all factors 1, bind to *plan*."""
        cached = self.cache_setting is not CacheSetting.NO_CACHE
        ops, position, facts, order, providers, taus = (
            self._ops, self._position, self._facts, self._order,
            self._providers, self._taus,
        )
        first = len(ops)
        new = [None] * len(nodes)
        facts += new
        order += new
        taus += [0.0] * len(nodes)
        for column in self._ones:
            column += new
        chunked = []
        for node, at in zip(nodes, positions):
            feeds = list(map(position.__getitem__, plan.predecessor_ids(node)))
            above = upstream = 0
            for feed in feeds:
                fact = facts[feed]
                above |= fact[0] | (1 << feed)
                upstream |= fact[1]
            if isinstance(node, ServiceNode):
                profile = node.profile
                assert profile is not None
                feed = self._single_feed(node, feeds)
                _, inputs, outputs, constants, variables = self._atom_facts.of(node)
                selectivity = 1.0
                for predicate in node.predicates:
                    selectivity *= predicate.estimated_selectivity()
                for output in outputs:
                    if output & upstream:
                        constants += 1
                for _ in range(constants):
                    selectivity *= EQUALITY_OUTPUT_SELECTIVITY
                groups = self._candidate_groups(inputs, above) if cached else None
                tau = taus[at] = profile.response_time
                if profile.chunk_size is not None:
                    chunked.append(node)
                    ops.append((
                        _CHUNKED, at, feed, profile.chunk_size, selectivity,
                        groups, tau, node.atom_index,
                    ))
                else:
                    ops.append(
                        (_EXACT, at, feed, profile.erspi, selectivity, groups, tau)
                    )
                bit = 1 << at
                for output in outputs:
                    providers[output] = providers.get(output, 0) | bit
                upstream |= variables
            elif isinstance(node, JoinNode):
                if len(feeds) != 2:
                    raise PlanError(
                        f"join {node.node_id!r} must have two predecessors"
                    )
                tau = taus[at] = node.response_time
                ops.append((_JOIN, at, feeds[0], feeds[1], node.selectivity, tau))
            elif isinstance(node, OutputNode):
                selectivity = 1.0
                for predicate in node.residual_predicates:
                    selectivity *= predicate.estimated_selectivity()
                ops.append(
                    (_OUTPUT, at, self._single_feed(node, feeds), selectivity)
                )
                self._output = at
            elif isinstance(node, InputNode):
                ops.append((_INPUT, at))
            else:
                raise PlanError(f"unknown node type: {type(node).__name__}")
            position[node.node_id] = at
            facts[at] = (above, upstream)
            order[at] = (ops[-1][0] != _JOIN, at)
        if chunked:
            self._chunked = tuple(
                sorted([*self._chunked, *chunked], key=lambda n: n.atom_index)
            )
            self._atoms = tuple(node.atom_index for node in self._chunked)
            self._slots = {n.node_id: slot for slot, n in enumerate(self._chunked)}
        self._evaluate(ops[first:], None, *self._ones)
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
        self, inputs: tuple[int, ...], above: int
    ) -> tuple[tuple[int, ...], ...]:
        """Eq. 2: per input variable (*inputs*, masks in name order) of
        a node with the ancestors *above*, who may bound it.

        The candidates for ``X`` are the ancestors of the node (the
        bits of *above*) that provide ``X`` or have a provider of ``X``
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
        for variable in inputs:
            provided = self._providers.get(variable, 0) & above
            if not provided:
                continue
            if members is None:
                members = [j for j in range(above.bit_length()) if above >> j & 1]
                members.sort(key=self._order.__getitem__)
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
        width = len(self._facts)
        columns = ([0.0] * width, [0.0] * width, [0.0] * width, [0.0] * width)
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
        output = math.nan if self._output is None else columns[1][self._output]
        return PlanAnnotation(
            self.cache_setting, output, self._position, columns, self._taus,
            self._slots, fetches,
        )

    def _evaluate(
        self,
        ops: Sequence[tuple],
        factor: Mapping[int, int] | None,
        tuples_in: list[float],
        tuples_out: list[float],
        calls: list[float],
        works: list[float],
    ) -> None:
        """Write the estimates and busy time of *ops* into the four
        columns, which hold those of every earlier op; *factor* maps
        atom index to ``F`` (``None``: 1 everywhere)."""
        order = self._order
        for op in ops:
            kind, at = op[0], op[1]
            if kind == _EXACT or kind == _CHUNKED:
                arriving = tuples_out[op[2]]
                if kind == _EXACT or factor is None:
                    fetches = 1
                    produced = arriving * op[3] * op[4]
                else:
                    fetches = factor[op[7]]
                    produced = arriving * (op[3] * fetches) * op[4]
                groups = op[5]
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
                        minimizers = sorted(minimizers, key=order.__getitem__)
                    for minimizer in minimizers:
                        distinct *= tuples_out[minimizer]
                    needed = min(arriving, distinct)
                tuples_in[at] = arriving
                tuples_out[at] = produced
                calls[at] = needed
                works[at] = fetches * needed * op[6]
            elif kind == _JOIN:
                pairs = tuples_out[op[2]] * tuples_out[op[3]]
                tuples_in[at] = pairs
                tuples_out[at] = pairs * op[4]
                calls[at] = 0.0
                works[at] = op[5]
            elif kind == _OUTPUT:
                arriving = tuples_out[op[2]]
                tuples_in[at] = arriving
                tuples_out[at] = arriving * op[3]
                calls[at] = works[at] = 0.0
            else:
                # The user always injects one single input tuple (Sec. 3.4).
                tuples_in[at] = tuples_out[at] = 1.0
                calls[at] = works[at] = 0.0


def annotate(plan: QueryPlan, cache_setting: CacheSetting) -> PlanAnnotation:
    """Estimates for every node of *plan* at its current fetching factors."""
    return AnnotationProgram(plan, cache_setting).run()

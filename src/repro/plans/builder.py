"""Building executable plan DAGs from queries, patterns, and posets.

The optimizer's phase 2 chooses a *partial order* over the query atoms
(Section 4.2.2; Example 5.1 counts the 19 partial orders over the three
free atoms of the running example).  This module turns such a choice
into a concrete :class:`~repro.plans.dag.QueryPlan`:

* atoms become service nodes; arcs follow the transitive reduction of
  the partial order (pipe joins: parameter passing along arcs);
* when incomparable branches must be combined — because a downstream
  atom draws inputs from several of them, or at the query output — a
  *parallel join* node is inserted, with the NL/MS method and the
  selectivity registered for the pair of services being merged;
* each selection predicate is assigned to the earliest node at which
  all its variables are bound, and its selectivity is folded into the
  node's expected output (the paper folds selection predicates into the
  notion of erspi);
* the fetching factors chosen by phase 3 are stored on chunked nodes.

The builder also enforces Definition 3.1: every atom must be *callable
after* its strict predecessors in the chosen order.

Construction is a left fold (docs/ARCHITECTURE.md, "Search states are
open plans"): :meth:`PlanBuilder.start` makes the input node,
:meth:`PlanBuilder.place` adds one atom — the joins merging its feeds,
its service node, the predicates that become evaluable — and
:meth:`PlanBuilder.close` merges the maximal branches and attaches the
output node.  :meth:`PlanBuilder.build` is that fold over the atoms in
``(strict-predecessor count, index)`` order; the optimizer runs the
same steps one at a time and keeps the :class:`OpenPlan` of every
search state, so a state costs one ``place`` on top of the state it
extends.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Mapping, NamedTuple, Sequence

from repro.model.predicates import Comparison
from repro.model.query import ConjunctiveQuery
from repro.model.schema import AccessPattern
from repro.model.terms import Variable
from repro.plans.dag import PlanError, QueryPlan
from repro.plans.nodes import InputNode, JoinNode, OutputNode, PlanNode, ServiceNode
from repro.services.profile import ServiceProfile
from repro.services.registry import ServiceRegistry


@dataclass(frozen=True)
class Poset:
    """A strict partial order over atom indices ``0..n-1``.

    ``pairs`` need not be transitively closed; the closure is computed
    on construction.  ``n`` is the number of atoms.
    """

    n: int
    pairs: frozenset[tuple[int, int]] = frozenset()

    def __post_init__(self) -> None:
        for i, j in self.pairs:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise PlanError(f"pair ({i}, {j}) out of range for n={self.n}")
            if i == j:
                raise PlanError(f"reflexive pair ({i}, {j}) in poset")

    @classmethod
    def closed(cls, n: int, closure: frozenset[tuple[int, int]]) -> "Poset":
        """The poset over ``0..n-1`` whose pairs are *closure*, which is
        already transitively closed and acyclic (an enumerated
        topology's): :meth:`closure` returns it as it is."""
        poset = cls(n, closure)
        poset.__dict__["_closure"] = closure  # what cached_property keeps
        return poset

    def closure(self) -> frozenset[tuple[int, int]]:
        """The transitive closure (computed once); raises on cycles."""
        return self._closure

    @cached_property
    def _closure(self) -> frozenset[tuple[int, int]]:
        reach: dict[int, set[int]] = {i: set() for i in range(self.n)}
        for i, j in self.pairs:
            reach[i].add(j)
        changed = True
        while changed:
            changed = False
            for i in range(self.n):
                extra: set[int] = set()
                for j in reach[i]:
                    extra |= reach[j] - reach[i]
                if extra:
                    reach[i] |= extra
                    changed = True
        for i in range(self.n):
            if i in reach[i]:
                raise PlanError(f"cycle through atom {i} in precedence relation")
        return frozenset((i, j) for i in range(self.n) for j in reach[i])

    def predecessors_of(self, index: int) -> frozenset[int]:
        """Strict predecessors of *index* under the closure."""
        return frozenset(i for i, j in self.closure() if j == index)

    def direct_predecessors_of(self, index: int) -> frozenset[int]:
        """Predecessors in the transitive reduction."""
        closure = self.closure()
        preds = {i for i, j in closure if j == index}
        return frozenset(
            p for p in preds
            if not any((p, q) in closure for q in preds if q != p)
        )


class _Stream(NamedTuple):
    """A branch of the dataflow: frontier node + accumulated bindings."""

    frontier: PlanNode
    bound: frozenset[Variable]
    representative: str  # service name used for join method/selectivity lookups
    atoms: frozenset[int]
    #: Every path from the input node to the frontier, nodes given by
    #: their position in ``plan.nodes``.
    paths: tuple[tuple[int, ...], ...]


class OpenPlan(NamedTuple):
    """A plan under construction: IN and the atoms placed so far, no OUT.

    What :meth:`PlanBuilder.place` extends and :meth:`PlanBuilder.close`
    finishes.  A value: ``place`` returns a new one and leaves its
    argument as it was, so many extensions can start from one state.
    They share the node objects of the common prefix.
    """

    #: The DAG so far (never written again once the step that made it
    #: returned).
    plan: QueryPlan
    #: The input node's branch, which feeds every atom without predecessors.
    root: _Stream
    #: Atom index → the branch ending at its service node.
    streams: Mapping[int, _Stream]
    #: The maximal atoms: those no placed atom comes after.
    ends: frozenset[int]
    #: The predicates some node already evaluates: bit ``n`` stands for
    #: predicate number ``n``.
    assigned: int
    #: Pairs of frontier node ids already merged, with the merged branch.
    joins: Mapping[frozenset[str], _Stream]

    @property
    def paths(self) -> tuple[tuple[int, ...], ...]:
        """Every path from the input node to the frontier of a maximal
        branch — the plan's sinks — in the order :meth:`PlanBuilder.close`
        continues them to OUT."""
        streams = self.streams
        return tuple([
            path for index in sorted(self.ends) for path in streams[index].paths
        ])


class PlanBuilder:
    """Builds :class:`QueryPlan` objects for one query and registry."""

    def __init__(self, query: ConjunctiveQuery, registry: ServiceRegistry) -> None:
        self._query = query
        self._registry = registry
        # Each distinct predicate with the variables it needs bound;
        # its position here is its number in ``OpenPlan.assigned``.
        self._predicates = tuple(
            (p, p.variables) for p in dict.fromkeys(query.predicates)
        )
        self._everything = (1 << len(self._predicates)) - 1
        # The profile each (atom index, pattern code) selects, looked up
        # once per builder: an optimize() run places the same few pairs
        # hundreds of times.
        self._profiles: dict[tuple[int, str], ServiceProfile] = {}

    def build(
        self,
        patterns: Sequence[AccessPattern],
        poset: Poset,
        fetches: Mapping[int, int] | None = None,
    ) -> QueryPlan:
        """Construct the plan for a pattern sequence and a partial order.

        Parameters
        ----------
        patterns:
            One feasible access pattern per body atom, by atom index.
        poset:
            The precedence relation over atom indices.
        fetches:
            Fetching factors for chunked atoms (atom index → F);
            defaults to 1 everywhere.
        """
        query = self._query
        if len(patterns) != len(query.atoms):
            raise PlanError(
                f"expected {len(query.atoms)} patterns, got {len(patterns)}"
            )
        if poset.n != len(query.atoms):
            raise PlanError("poset size does not match the number of atoms")
        self._check_callability(patterns, poset)
        fetches = fetches or {}
        state = self.start()
        for index in self._topological_atoms(poset):
            state = self.place(
                state, index, patterns[index],
                poset.direct_predecessors_of(index), fetches.get(index, 1),
            )
        plan = self.close(state)
        plan.validate()
        return plan

    # -- the fold ----------------------------------------------------------

    def start(self) -> OpenPlan:
        """The empty construction: the input node alone."""
        plan = QueryPlan()
        input_node = plan.add_node(InputNode())
        root = _Stream(input_node, frozenset(), "", frozenset(), ((0,),))
        return OpenPlan(plan, root, {}, frozenset(), 0, {})

    def place(
        self,
        state: OpenPlan,
        index: int,
        pattern: AccessPattern,
        direct: Collection[int],
        fetches: int = 1,
    ) -> OpenPlan:
        """*state* plus the atom at *index*, fed by the atoms in *direct*.

        *direct* are the atom's direct predecessors, all placed in
        *state*; several of them are merged by parallel joins first.
        Callability is the caller's to establish (:meth:`build` checks
        the whole order up front, the optimizer's enumerator proves it
        per extension).  The result depends on the order of the
        ``place`` calls that led to *state* — predicates go to the
        first node that can evaluate them — which is why every route
        to a plan must place in :meth:`build`'s order.
        """
        plan = state.plan.copy()
        joins = dict(state.joins)
        feed, assigned = self._merge_streams(
            plan, [state.streams[d] for d in sorted(direct)] or [state.root],
            state.assigned, joins,
        )
        body_atom = self._query.atoms[index]
        profile = self._profiles.get((index, pattern.code))
        if profile is None:
            profile = self._profiles[index, pattern.code] = self._registry.profile(
                body_atom.service, pattern.code
            )
        bound = feed.bound | body_atom.variable_set
        predicates, assigned = self._take_predicates(bound, assigned)
        node = ServiceNode(
            atom_index=index,
            atom=body_atom,
            pattern=pattern,
            profile=profile,
            fetches=fetches if profile.is_chunked else 1,
            predicates=predicates,
        )
        at = len(plan)
        plan.add_node(node)
        plan.add_arc(feed.frontier, node)
        stream = _Stream(
            node, bound, body_atom.service, feed.atoms | {index},
            tuple([path + (at,) for path in feed.paths]),
        )
        return OpenPlan(
            plan, state.root, {**state.streams, index: stream},
            (state.ends - feed.atoms) | {index}, assigned, joins,
        )

    def close(self, state: OpenPlan) -> QueryPlan:
        """The finished plan of *state*: its maximal branches merged by
        parallel joins, then the output node with whatever predicates
        over the placed atoms no node could evaluate.  *state* stays
        open."""
        if not state.ends:
            raise PlanError("plan has no atoms")
        plan = state.plan.copy()
        final_streams = [state.streams[index] for index in sorted(state.ends)]
        merged, assigned = self._merge_streams(
            plan, final_streams, state.assigned, dict(state.joins)
        )
        residual, _ = self._take_predicates(merged.bound, assigned)
        at = len(plan)
        output_node = plan.add_node(OutputNode(residual_predicates=residual))
        plan.add_arc(merged.frontier, output_node)
        plan.adopt_path_positions(
            tuple([path + (at,) for path in merged.paths])
        )
        return plan

    # -- internals -------------------------------------------------------

    def _merge_streams(
        self,
        plan: QueryPlan,
        streams: list[_Stream],
        assigned: int,
        join_memo: dict[frozenset[str], _Stream],
    ) -> tuple[_Stream, int]:
        """Left-fold parallel joins over *streams* (no-op for one
        stream); also returns *assigned* with the predicates the joins
        took."""
        current = streams[0]
        for other in streams[1:]:
            key = frozenset({current.frontier.node_id, other.frontier.node_id})
            if key in join_memo:
                current = join_memo[key]
                continue
            shared = current.bound & other.bound
            union_bound = current.bound | other.bound
            predicates, assigned = self._take_predicates(union_bound, assigned)
            method = self._registry.join_method(
                current.representative or other.representative,
                other.representative or current.representative,
            )
            selectivity = self._join_selectivity(current, other, predicates)
            join = JoinNode(
                method=method,
                variables=frozenset(shared),
                predicates=predicates,
                selectivity=selectivity,
            )
            at = len(plan)
            plan.add_node(join)
            plan.add_arc(current.frontier, join)
            plan.add_arc(other.frontier, join)
            merged = _Stream(
                frontier=join,
                bound=union_bound,
                representative=current.representative or other.representative,
                atoms=current.atoms | other.atoms,
                paths=tuple(
                    [path + (at,) for path in current.paths + other.paths]
                ),
            )
            join_memo[key] = merged
            current = merged
        return current, assigned

    def _join_selectivity(
        self,
        left: _Stream,
        right: _Stream,
        predicates: tuple[Comparison, ...],
    ) -> float:
        """Joint selectivity of the parallel-join condition.

        Combines the selectivities of the predicates that become
        evaluable at the join with, when the branches share *fresh*
        equi-join variables (bound independently on both sides rather
        than inherited from a common upstream prefix), the registered
        pair selectivity for the two frontier services.  Variables
        inherited from the shared prefix recombine blocks originating
        from the same upstream tuple and are matched by construction,
        so they contribute selectivity 1 — this is how Example 5.1
        obtains the join erspi of 0.01 from the price predicate alone.
        """
        selectivity = 1.0
        for predicate in predicates:
            selectivity *= predicate.estimated_selectivity()
        shared_atoms = left.atoms & right.atoms
        inherited: set[Variable] = set()
        for index in shared_atoms:
            inherited |= self._query.atoms[index].variable_set
        fresh_shared = (left.bound & right.bound) - inherited
        if fresh_shared and left.representative and right.representative:
            pair = self._registry.join_selectivity(
                left.representative, right.representative
            )
            selectivity *= pair
        return max(0.0, min(1.0, selectivity))

    def _take_predicates(
        self, bound: frozenset[Variable], assigned: int
    ) -> tuple[tuple[Comparison, ...], int]:
        """Predicates newly evaluable with *bound*, and *assigned* with
        them marked."""
        if assigned == self._everything:
            return (), assigned
        ready = []
        for number, (predicate, variables) in enumerate(self._predicates):
            if not assigned >> number & 1 and variables <= bound:
                ready.append(predicate)
                assigned |= 1 << number
        return tuple(ready), assigned

    def _topological_atoms(self, poset: Poset) -> list[int]:
        closure = poset.closure()
        in_degree = {i: 0 for i in range(poset.n)}
        for _, j in closure:
            in_degree[j] += 1
        # Process by number of strict predecessors; ties by index for
        # determinism.  Sorting by predecessor count linearizes any
        # partial order.
        return sorted(range(poset.n), key=lambda i: (in_degree[i], i))

    def _check_callability(
        self, patterns: Sequence[AccessPattern], poset: Poset
    ) -> None:
        """Definition 3.1: each atom callable after its predecessors."""
        query = self._query
        for index, body_atom in enumerate(query.atoms):
            ancestors = poset.predecessors_of(index)
            bound: set[Variable] = set()
            for ancestor in ancestors:
                # Everything the ancestor touches is bound once it ran:
                # its inputs were bound before it, its outputs after.
                bound |= query.atoms[ancestor].variable_set
            if not body_atom.is_callable_given(patterns[index], frozenset(bound)):
                raise PlanError(
                    f"atom {body_atom} (index {index}) is not callable after "
                    f"its predecessors {sorted(ancestors)} "
                    f"with pattern {patterns[index].code!r}"
                )

"""Query plans as directed acyclic graphs (Sections 2.2, 3.3).

A :class:`QueryPlan` has a unique :class:`~repro.plans.nodes.InputNode`
and a unique :class:`~repro.plans.nodes.OutputNode`; every other node
is a service invocation or a parallel join.  Arcs indicate precedence
in the invocation and possibly parameter passing; nodes not connected
by any directed path are invoked in parallel.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence, TypeVar

from repro.plans.nodes import InputNode, JoinNode, OutputNode, PlanNode, ServiceNode


T = TypeVar("T")


class PlanError(ValueError):
    """Raised for malformed plans (cycles, missing IN/OUT, etc.)."""


def slowest_path(
    paths: Sequence[Sequence[int]], column: Sequence[float],
    works: Sequence[float] | None = None,
) -> float:
    """The one fold of per-node times into a plan's time: the slowest
    of *paths* (each node given as its index into the columns), 0.0
    when there are none.

    Without *works* a path costs the sum of *column* along it — a
    *barrier*, where a node starts once its feeds have finished:
    time-to-screen over τ, the engine's clock over busy time.  With
    *works* it is Eq. 4's *pipe*, where a consumer overlaps its
    feeder's pages: the path's bottleneck (the first node of maximal
    work) costs its work, and every other node one entry of *column*
    (its τ), summed in path order.
    """
    worst = 0.0
    if works is None:
        for path in paths:
            worst = max(worst, sum(column[index] for index in path))
        return worst
    for path in paths:
        bottleneck = max(path, key=works.__getitem__)
        others = sum(column[index] for index in path if index != bottleneck)
        worst = max(worst, works[bottleneck] + others)
    return worst


class QueryPlan:
    """A mutable DAG of plan nodes, built by the plan builder."""

    def __init__(self) -> None:
        self._nodes: dict[str, PlanNode] = {}
        # Adjacency as tuples: a copy shares them until either side
        # adds an arc (see :meth:`copy`).
        self._succ: dict[str, tuple[str, ...]] = {}
        self._pred: dict[str, tuple[str, ...]] = {}
        self._input: InputNode | None = None
        self._output: OutputNode | None = None
        # Answers to structural queries (ancestor sets, topological
        # order, paths, what callers derive from them) live here until
        # the next mutation.  ``_version`` counts mutations, so anything
        # compiled from the plan can tell that it went stale.
        self._memo: dict[object, object] = {}
        self._version = 0

    # -- construction ---------------------------------------------------

    def add_node(self, node: PlanNode) -> PlanNode:
        """Insert *node*; returns it for chaining.

        A node without an id is named here: its type's prefix and its
        position in this plan.  Copies of a plan share the nodes of
        their common prefix, names included.
        """
        if not node.node_id:
            node.node_id = f"{node._prefix()}{len(self._nodes)}"
        if node.node_id in self._nodes:
            raise PlanError(f"duplicate node id {node.node_id!r}")
        if isinstance(node, InputNode):
            if self._input is not None:
                raise PlanError("plan already has an input node")
            self._input = node
        if isinstance(node, OutputNode):
            if self._output is not None:
                raise PlanError("plan already has an output node")
            self._output = node
        self._nodes[node.node_id] = node
        self._succ[node.node_id] = ()
        self._pred[node.node_id] = ()
        self._structure_changed()
        return node

    def add_arc(self, origin: PlanNode, destination: PlanNode) -> None:
        """Add the arc origin → destination (checks acyclicity lazily)."""
        for node in (origin, destination):
            if node.node_id not in self._nodes:
                raise PlanError(f"node {node.node_id!r} not in plan")
        if destination.node_id in self._succ[origin.node_id]:
            return
        self._succ[origin.node_id] += (destination.node_id,)
        self._pred[destination.node_id] += (origin.node_id,)
        self._structure_changed()

    def copy(self) -> QueryPlan:
        """A plan over the same node objects and arcs that grows on its own.

        This is what makes a search state cheap: the plan builder
        extends a copy by one atom and leaves the original — the
        prefix every sibling state shares — untouched.  The nodes
        themselves are shared, not copied.
        """
        twin = QueryPlan()
        twin._nodes = self._nodes.copy()
        twin._succ = self._succ.copy()
        twin._pred = self._pred.copy()
        twin._input = self._input
        twin._output = self._output
        return twin

    def _structure_changed(self) -> None:
        if self._memo:
            self._memo.clear()
        self._version += 1

    def derived(self, key: object, derive: Callable[[QueryPlan], T]) -> T:
        """``derive(self)``, computed once until the structure next changes.

        For read-only summaries of the plan's structure that callers
        need again and again — its topological order, its paths, its
        service nodes (*key*: any hashable the caller owns).
        ``add_node``/``add_arc`` drop every remembered value.
        """
        try:
            return self._memo[key]  # type: ignore[return-value]
        except KeyError:
            value = self._memo[key] = derive(self)
            return value

    # -- basic accessors -------------------------------------------------

    @property
    def input_node(self) -> InputNode:
        """The unique start node."""
        if self._input is None:
            raise PlanError("plan has no input node")
        return self._input

    @property
    def output_node(self) -> OutputNode:
        """The unique end node."""
        if self._output is None:
            raise PlanError("plan has no output node")
        return self._output

    @property
    def structure_version(self) -> int:
        """Number of structural mutations (``add_node``/``add_arc``) so far."""
        return self._version

    @property
    def nodes(self) -> tuple[PlanNode, ...]:
        """All nodes, in insertion order."""
        return tuple(self._nodes.values())

    def node(self, node_id: str) -> PlanNode:
        """Node lookup by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise PlanError(f"no node with id {node_id!r}") from None

    @property
    def service_nodes(self) -> tuple[ServiceNode, ...]:
        """All service nodes, in insertion order (memoized)."""
        return self.derived(
            "service_nodes",
            lambda plan: tuple(n for n in plan if isinstance(n, ServiceNode)),
        )

    @property
    def join_nodes(self) -> tuple[JoinNode, ...]:
        """All parallel-join nodes, in insertion order (memoized)."""
        return self.derived(
            "join_nodes",
            lambda plan: tuple(n for n in plan if isinstance(n, JoinNode)),
        )

    def service_node_for_atom(self, atom_index: int) -> ServiceNode:
        """The service node executing the body atom at *atom_index*."""
        for node in self.service_nodes:
            if node.atom_index == atom_index:
                return node
        raise PlanError(f"no service node for atom index {atom_index}")

    def successors(self, node: PlanNode) -> tuple[PlanNode, ...]:
        """Direct successors of *node*."""
        return tuple(self._nodes[i] for i in self._succ[node.node_id])

    def predecessors(self, node: PlanNode) -> tuple[PlanNode, ...]:
        """Direct predecessors of *node*."""
        return tuple(self._nodes[i] for i in self._pred[node.node_id])

    def predecessor_ids(self, node: PlanNode) -> tuple[str, ...]:
        """Ids of the direct predecessors of *node*, in arc order."""
        return self._pred[node.node_id]

    # -- graph algorithms --------------------------------------------------

    def topological_order(self) -> tuple[PlanNode, ...]:
        """Nodes in a topological order (memoized); raises :class:`PlanError` on cycles."""
        return self.derived("topological_order", QueryPlan._topological_order)

    def _topological_order(self) -> tuple[PlanNode, ...]:
        in_degree = {i: len(self._pred[i]) for i in self._nodes}
        # The frontier is consumed first-in first-out; ``order`` doubles
        # as the queue (everything past ``head`` is still to be expanded).
        order = [i for i, d in in_degree.items() if d == 0]
        head = 0
        while head < len(order):
            for nxt in self._succ[order[head]]:
                in_degree[nxt] -= 1
                if in_degree[nxt] == 0:
                    order.append(nxt)
            head += 1
        if len(order) != len(self._nodes):
            raise PlanError("plan graph contains a cycle")
        return tuple(self._nodes[i] for i in order)

    def path_positions(self) -> tuple[tuple[int, ...], ...]:
        """All simple paths from the input node to the output node, each
        node given as its position in :attr:`nodes` (memoized)."""
        return self.derived("path_positions", QueryPlan._path_positions)

    def adopt_path_positions(self, paths: tuple[tuple[int, ...], ...]) -> None:
        """Take :meth:`path_positions` from whoever built the plan.

        The plan builder knows the paths into every branch as it adds
        nodes, so a finished plan need not search for them.  Like every
        remembered answer, forgotten at the next structural change.
        """
        self._memo["path_positions"] = paths

    def _path_positions(self) -> tuple[tuple[int, ...], ...]:
        position = {node_id: index for index, node_id in enumerate(self._nodes)}
        succ = [
            [position[nxt] for nxt in successors]
            for successors in self._succ.values()
        ]
        result: list[tuple[int, ...]] = []
        start = position[self.input_node.node_id]
        stack: list[tuple[int, ...]] = [(start,)]
        out = position[self.output_node.node_id]
        while stack:
            path = stack.pop()
            current = path[-1]
            if current == out:
                result.append(path)
                continue
            for nxt in succ[current]:
                stack.append(path + (nxt,))
        return tuple(result)

    def ancestors(self, node: PlanNode) -> frozenset[str]:
        """Ids of all strict ancestors of *node* (memoized)."""
        key = ("ancestors", node.node_id)
        cached = self._memo.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        seen: set[str] = set()
        stack = list(self._pred[node.node_id])
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._pred[current])
        result = self._memo[key] = frozenset(seen)
        return result

    def descendants(self, node: PlanNode) -> frozenset[str]:
        """Ids of all strict descendants of *node*."""
        seen: set[str] = set()
        stack = list(self._succ[node.node_id])
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._succ[current])
        return frozenset(seen)

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check structural well-formedness.

        * exactly one input node with no predecessors;
        * exactly one output node with no successors;
        * acyclic;
        * every node lies on some input → output path;
        * join nodes have exactly two predecessors.
        """
        input_node = self.input_node
        output_node = self.output_node
        if self._pred[input_node.node_id]:
            raise PlanError("input node must have no predecessors")
        if self._succ[output_node.node_id]:
            raise PlanError("output node must have no successors")
        self.topological_order()
        reachable = {input_node.node_id} | set(self.descendants(input_node))
        coreachable = {output_node.node_id} | set(self.ancestors(output_node))
        for node_id in self._nodes:
            if node_id not in reachable:
                raise PlanError(f"node {node_id!r} unreachable from input")
            if node_id not in coreachable:
                raise PlanError(f"node {node_id!r} cannot reach output")
        for join in self.join_nodes:
            if len(self._pred[join.node_id]) != 2:
                raise PlanError(
                    f"join node {join.node_id!r} must have exactly 2 predecessors"
                )

    # -- misc ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[PlanNode]:
        return iter(self._nodes.values())

    def __contains__(self, node: PlanNode) -> bool:
        return node.node_id in self._nodes

"""Node types of query-plan DAGs (Sections 2.2, 3.3).

A plan has a unique input node (the user query's input), a unique
output node (the query result), one *service node* per body atom
(carrying the chosen access pattern and, for chunked services, the
number of fetches), and *parallel join* nodes merging incomparable
branches with a nested-loop or merge-scan strategy.  Pipe joins are
plain arcs: the destination's inputs are fed by the origin's outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.model.atoms import Atom
from repro.model.predicates import Comparison
from repro.model.schema import AccessPattern
from repro.model.terms import Variable
from repro.services.profile import ServiceProfile
from repro.services.registry import JoinMethod


@dataclass(eq=False)
class PlanNode:
    """Base class of all plan nodes; identity-based equality.

    A node constructed without a ``node_id`` is named by the plan it
    is first added to — its type's prefix plus its position there
    (:meth:`~repro.plans.dag.QueryPlan.add_node`) — so the names in a
    plan are a function of how the plan was built, never of what else
    the process built before it.
    """

    node_id: str = field(default="", compare=False)

    def _prefix(self) -> str:
        return "n"

    @property
    def label(self) -> str:
        """Short human-readable label for rendering."""
        return self.node_id


@dataclass(eq=False)
class InputNode(PlanNode):
    """The unique start node: the user injects one input tuple here."""

    def _prefix(self) -> str:
        return "in"

    @property
    def label(self) -> str:
        return "IN"


@dataclass(eq=False)
class OutputNode(PlanNode):
    """The unique end node: the query result.

    ``residual_predicates`` are comparison predicates that could not be
    evaluated earlier (they span branches merged right before output).
    """

    residual_predicates: tuple[Comparison, ...] = ()

    def _prefix(self) -> str:
        return "out"

    @property
    def label(self) -> str:
        return "OUT"


@dataclass(eq=False)
class ServiceNode(PlanNode):
    """Invocation of one service atom with a chosen access pattern.

    ``fetches`` is the fetching factor ``F`` fixed by phase 3 of the
    optimizer for chunked services (always 1 for bulk services).
    ``predicates`` are the selection predicates that become evaluable
    right after this node and are applied on its output stream.
    """

    atom_index: int = -1
    atom: Atom | None = None
    pattern: AccessPattern | None = None
    profile: ServiceProfile | None = None
    fetches: int = 1
    predicates: tuple[Comparison, ...] = ()

    def __post_init__(self) -> None:
        if self.atom is None or self.pattern is None or self.profile is None:
            raise ValueError("ServiceNode requires atom, pattern, and profile")
        if self.atom_index < 0:
            raise ValueError("ServiceNode requires the atom's index in the query body")
        if self.fetches < 1:
            raise ValueError(f"fetches must be >= 1, got {self.fetches}")
        if not self.profile.is_chunked and self.fetches != 1:
            raise ValueError(
                f"bulk service {self.service_name!r} cannot have fetches > 1"
            )

    def _prefix(self) -> str:
        return "s"

    @property
    def service_name(self) -> str:
        """Name of the invoked service."""
        assert self.atom is not None
        return self.atom.service

    @property
    def is_chunked(self) -> bool:
        """True when the underlying service pages its results."""
        assert self.profile is not None
        return self.profile.is_chunked

    @property
    def label(self) -> str:
        assert self.pattern is not None
        marker = ""
        assert self.profile is not None
        if self.profile.is_search:
            marker = "~"
        elif self.profile.is_proliferative:
            marker = "*"
        fetch = f" F={self.fetches}" if self.is_chunked else ""
        return f"{self.service_name}[{self.pattern.code}]{marker}{fetch}"


@dataclass(eq=False)
class JoinNode(PlanNode):
    """A parallel join merging two incomparable branches.

    ``variables`` is the set of equi-join variables shared by the two
    input streams; ``predicates`` are the comparison predicates that
    become evaluable on the merged stream (e.g. ``FPrice + HPrice <
    2000`` in the running example); ``selectivity`` is the estimated
    joint selectivity of the join condition (the join's erspi is the
    product of the input sizes and this selectivity).
    """

    method: JoinMethod = JoinMethod.MERGE_SCAN
    variables: frozenset[Variable] = frozenset()
    predicates: tuple[Comparison, ...] = ()
    selectivity: float = 1.0
    cost_per_tuple: float = 0.0
    response_time: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.selectivity <= 1.0:
            raise ValueError(f"selectivity must be in [0, 1], got {self.selectivity}")

    def _prefix(self) -> str:
        return "j"

    @property
    def label(self) -> str:
        joined = ",".join(sorted(v.name for v in self.variables)) or "×"
        return f"{self.method.value}({joined})"

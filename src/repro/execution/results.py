"""Result rows and ranking composition.

A :class:`Row` is the one row representation of the engine: a
:class:`SlotLayout` shared by every row a plan node emits (an ordered
variable tuple with a variable → slot index) plus this row's value
tuple aligned with it.  Rows stay in that form from the service node
that binds them, through every pipe and parallel join, to the answer
table — no node decodes them into per-row dicts and none re-encodes
them.  ``ranks`` carries, for every search-service node traversed, the
rank index (0-based) the contributing tuple had in that service's
result list; ``provenance`` is the opt-in audit trail riding beside the
values.

Layouts are created in exactly three places: by a service node
compiled against its feed layout
(:class:`~repro.execution.slots.ServiceBinding`: feed variables, then
the atom's fresh output variables), by a join's merge plan
(:class:`~repro.execution.slots.SlotJoinPlan`: left variables, then the
right-only ones), and by ``Row(bindings=...)`` for hand-built rows
(tests, the reference interpreter in :mod:`repro.testing.reference`).
Layouts compare by their variable tuple, so hand-built rows over the
same variables run through the same production loops as engine rows
(a join side is one layout: :mod:`repro.execution.joins`).

The final answer list is presented in a *composed* global ranking that
is a good composition of the partial rankings: rows are ordered by the
sum of their per-service rank indexes (ties broken by arrival order,
which itself is consistent with the partial orders thanks to the
rank-aware join strategies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Sequence

from repro.model.terms import Variable

#: One per-row provenance record: ``(service name, input key, page)``
#: — which service invocation (with which bound inputs) and which page
#: of its chunked output contributed a tuple to the row.  The input
#: key is the engine's ``(pattern code, ((position, value), ...))``
#: cache/accounting key, so a record names exactly one logical-cache
#: unit and one :class:`PartialResultCertificate` block.
ProvenanceRecord = tuple[str, tuple, int]


class SlotLayout:
    """An ordered variable set with variable → slot index resolution.

    One layout object is shared by every row a plan node emits; the
    rows' value tuples are aligned with ``variables``.  Layouts are
    immutable and compare (and hash) by their variable tuple, so two
    nodes — or two hand-built rows — binding the same variables in the
    same order are interchangeable wherever a layout keys a compiled
    plan.
    """

    __slots__ = ("variables", "index", "_hash")

    def __init__(self, variables: Iterable[Hashable]) -> None:
        self.variables = tuple(variables)
        self.index = {v: i for i, v in enumerate(self.variables)}
        self._hash = hash(self.variables)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, SlotLayout):
            return NotImplemented
        return self.variables == other.variables

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        names = ", ".join(str(v) for v in self.variables)
        return f"<SlotLayout [{names}]>"


class Row:
    """One tuple of bound values with ranking provenance.

    ``values`` is aligned with ``layout.variables``.  The engine builds
    rows with ``Row(layout=..., values=...)``; ``Row(bindings=...)``
    derives a private layout from the mapping's key order and is what
    hand-built rows use.  Rows are immutable by convention: a changed
    row is a new ``Row``.

    ``provenance`` holds one :data:`ProvenanceRecord` per contributing
    service page pull, in contribution order.  It is populated only
    when the engine runs with ``row_provenance=True``; the default
    stays the empty tuple everywhere.  Provenance never participates in
    :meth:`rank_key` or any join/ordering decision — it is an audit
    trail riding along.

    Equality is by content: the same variable → value mapping (slot
    order is irrelevant), the same ranks, the same provenance.
    """

    __slots__ = ("layout", "values", "ranks", "provenance")

    def __init__(
        self,
        bindings: Mapping[Hashable, object] | None = None,
        ranks: tuple[tuple[str, int], ...] = (),
        provenance: tuple[ProvenanceRecord, ...] = (),
        *,
        layout: SlotLayout | None = None,
        values: tuple = (),
    ) -> None:
        if layout is None:
            bindings = bindings or {}
            layout = SlotLayout(bindings)
            values = tuple(bindings.values())
        self.layout = layout
        self.values = values
        self.ranks = ranks
        self.provenance = provenance

    @property
    def bindings(self) -> Mapping[Hashable, object]:
        """Read-only variable → value view, derived on every access.

        For tests, the reference interpreter and renderers; the engine
        itself never builds it.
        """
        return MappingProxyType(dict(zip(self.layout.variables, self.values)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        if self.ranks != other.ranks or self.provenance != other.provenance:
            return False
        if self.layout == other.layout:
            return self.values == other.values
        return dict(self.bindings) == dict(other.bindings)

    __hash__ = None  # type: ignore[assignment]  # values may be unhashable

    def __repr__(self) -> str:
        return (
            f"Row(bindings={dict(self.bindings)!r}, ranks={self.ranks!r}, "
            f"provenance={self.provenance!r})"
        )

    def value(self, variable: Hashable) -> object:
        """The value bound to *variable*."""
        return self.values[self.layout.index[variable]]

    def rank_key(self) -> int:
        """Aggregated rank: the sum of per-service rank indexes."""
        return sum(rank for _, rank in self.ranks)

    def project(self, head: Sequence[Hashable]) -> tuple:
        """The output tuple for the query head."""
        index = self.layout.index
        values = self.values
        return tuple(values[index[v]] for v in head)


def compose_ranking(rows: Sequence[Row], k: int | None = None) -> list[Row]:
    """Order *rows* by aggregated rank (stable on ties), the first *k*
    of them (all for ``None``).

    **Total order contract** (shared with the streamed top-k pipeline,
    :class:`~repro.execution.joins.JoinStream`): rows are ordered by
    the key ``(rank_key, arrival index)``, where the arrival index is
    the row's position in *rows* — i.e. ties in the aggregated rank are
    broken by arrival order, which itself is consistent with the
    partial orders thanks to the rank-aware join strategies.  The
    stable sort realizes exactly this order, and so does
    ``JoinStream.top``, which is what makes the streamed pipeline
    bit-identical to the full-scan oracle.

    The composed ranking is consistent with each service's partial
    order: a row that improves in every partial rank cannot be placed
    after one it dominates.  ``compose_ranking`` over a full-scan
    execution is the *oracle* every optimized path (hashed, streamed,
    lazily fetched) is differentially tested against.
    """
    return sorted(rows, key=Row.rank_key)[:k]


@dataclass
class ResultTable:
    """The final answers of a query execution.

    ``complete`` is the partial-result flag of the streamed pipeline:
    ``True`` when the table holds *every* answer the plan can produce
    with its current fetches (the default for full materialization),
    ``False`` when a streamed top-k execution suspended early and the
    table only holds the proven top-k head — asking for more resumes
    the suspended stream instead of re-executing.
    """

    head: tuple[Variable, ...]
    rows: list[Row] = field(default_factory=list)
    complete: bool = True

    def __len__(self) -> int:
        return len(self.rows)

    def top(self, k: int) -> list[Row]:
        """The first *k* answers in composed rank order."""
        return self.rows[:k]

    def tuples(self, k: int | None = None) -> list[tuple]:
        """Projected head tuples, optionally truncated to *k*."""
        rows = self.rows if k is None else self.rows[:k]
        return [row.project(self.head) for row in rows]

    def render(self, k: int | None = None) -> str:
        """A simple text table of the answers (Figure 10 analogue)."""
        names = [v.name for v in self.head]
        body = [
            [str(value) for value in row] for row in self.tuples(k)
        ]
        widths = [
            max([len(names[i])] + [len(line[i]) for line in body])
            for i in range(len(names))
        ]
        header = "  ".join(name.ljust(widths[i]) for i, name in enumerate(names))
        separator = "-" * len(header)
        lines = [header, separator]
        for line in body:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)))
        return "\n".join(lines)

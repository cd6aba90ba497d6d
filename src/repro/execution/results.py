"""Result rows, the records they are built from, and ranking composition.

Until it is emitted, a bound tuple is a **record**: a plain tuple whose
first two fields are its value tuple and its rank sum, and whose rest
leads back to where it came from —

* ``(values, rank_sum)`` — the root, the program's empty input tuple;
* ``(values, rank_sum, parent, node_id, rank, page)`` — a service step
  bound a result tuple against the feed record *parent*; ``rank`` is the
  tuple's 0-based rank index in the service's result list (``None`` for
  an unranked service) and ``page`` the index of the page it came from,
  or ``(sibling, page index)`` when a sibling service served the unit
  (:func:`~repro.execution.fetch.page_records` reads it back);
* ``(values, rank_sum, left, right)`` — a join merged two records.

``values`` is aligned with the one :class:`SlotLayout` of the step that
built the record, and ``rank_sum`` is the sum of the rank indexes along
the chain — everything a binding check, a predicate, a join key, a
certificate or a candidate order reads.  The per-service ``ranks`` are
read only for tuples that reach the answer, so they are derived then,
by walking the chain (:func:`emit`): the one place a :class:`Row` is
built from a record.

A :class:`Row` is the answer and test surface: a layout plus the value
tuple aligned with it, ``ranks`` — for every search-service node
traversed, the rank index the contributing tuple had in that service's
result list — and ``record``, the chain it was emitted from, from which
a response that asks for them derives the answer's page records.

Layouts are created in exactly three places: by a service node
compiled against its feed layout
(:class:`~repro.execution.slots.ServiceBinding`: feed variables, then
the atom's fresh output variables), by a join's merge plan
(:class:`~repro.execution.slots.SlotJoinPlan`: left variables, then the
right-only ones), and by ``Row(bindings=...)`` for hand-built rows
(tests, the reference interpreter in :mod:`repro.testing.reference`).
Layouts compare by their variable tuple, so hand-built rows over the
same variables run through the same production loops as engine records
(a join side is one layout: :mod:`repro.execution.joins`).

The final answer list is presented in a *composed* global ranking that
is a good composition of the partial rankings: rows are ordered by the
sum of their per-service rank indexes (ties broken by arrival order,
which itself is consistent with the partial orders thanks to the
rank-aware join strategies).  The engine's terminal
:class:`~repro.execution.joins.TopKStream` composes it;
``repro.testing.compose_ranking`` is the sort it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Sequence

from repro.model.terms import Variable

#: A bound tuple before emission (see the module docstring): its value
#: tuple and rank sum first, then the way back to where it came from.
Record = tuple

#: The record every execution starts from: the empty input tuple.
ROOT: Record = ((), 0)


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
    rows with ``Row(layout=..., values=..., record=...)``;
    ``Row(bindings=...)`` derives a private layout from the mapping's
    key order and is what hand-built rows use (their ``record`` is
    None).  Rows are immutable by convention: a changed row is a new
    ``Row``.

    ``record`` is the record chain an engine row was emitted from
    (:func:`emit`): the page records of the answer are derived from it
    when a response renders them
    (:func:`~repro.execution.fetch.page_records`), and it takes part in
    no comparison, rank or join decision.

    Equality is by content: the same variable → value mapping (slot
    order is irrelevant) and the same ranks.
    """

    __slots__ = ("layout", "values", "ranks", "record")

    def __init__(
        self,
        bindings: Mapping[Hashable, object] | None = None,
        ranks: tuple[tuple[str, int], ...] = (),
        *,
        layout: SlotLayout | None = None,
        values: tuple = (),
        record: Record | None = None,
    ) -> None:
        if layout is None:
            bindings = bindings or {}
            layout = SlotLayout(bindings)
            values = tuple(bindings.values())
        self.layout = layout
        self.values = values
        self.ranks = ranks
        self.record = record

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
        if self.ranks != other.ranks:
            return False
        if self.layout == other.layout:
            return self.values == other.values
        return dict(self.bindings) == dict(other.bindings)

    __hash__ = None  # type: ignore[assignment]  # values may be unhashable

    def __repr__(self) -> str:
        return f"Row(bindings={dict(self.bindings)!r}, ranks={self.ranks!r})"

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


def emit(record: Record, layout: SlotLayout) -> Row:
    """The answer row of *record*, whose values are laid out as *layout*:
    its ``ranks`` are read off the record's chain."""
    return Row(layout=layout, values=record[0], ranks=_ranks(record), record=record)


def _ranks(record: Record) -> tuple[tuple[str, int], ...]:
    """The ``(node id, rank)`` pairs along *record*'s chain, root first
    (a join's left chain before its right one)."""
    if len(record) == 2:
        return ()
    ranks = _ranks(record[2])
    if len(record) == 4:
        return ranks + _ranks(record[3])
    rank = record[4]
    return ranks if rank is None else ranks + ((record[3], rank),)


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

"""The compiled physical plan: everything a run needs, derived once.

The paper optimizes a query once, then executes and continues the
chosen plan many times (Sections 2.2 and 5).  :meth:`ExecutionProgram.
compile` walks a :class:`~repro.plans.dag.QueryPlan` **once** and keeps
what every run would otherwise re-derive: the node schedule as index
arrays, one :class:`~repro.execution.slots.ServiceBinding` per service
node, one :class:`~repro.execution.slots.CompiledJoin` per join, the
output residual filter, the head and the certificate's input specs.
The engine *runs programs* (a ``QueryPlan`` handed to it is compiled on
entry), and one program serves every session and thread of a
plan-cache key, because

* nothing in it is written after ``compile`` returns;
* it captures no registry, service handle, cache, routing table,
  monitor or session — only registry *content* the plan-cache key pins
  (patterns, profiles, join methods); a run resolves service handles
  from its own registry;
* layouts are static: every execution starts from the one empty input
  row, so each node emits one layout, a function of the plan alone;
* the fetch vector is run-owned: ``fetches`` is where a run starts, and
  a session that grows its factors grows its own copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.execution.results import Row, SlotLayout
from repro.execution.slots import (
    CompiledJoin,
    ExecutionError,
    InputSpec,
    ServiceBinding,
    SlotPredicate,
    compile_input_spec,
    compile_join,
    compile_predicates,
)
from repro.model.terms import Variable
from repro.plans.dag import QueryPlan
from repro.plans.nodes import InputNode, JoinNode, OutputNode, ServiceNode

#: Step kinds, dispatched on by the engine's walk.
INPUT, SERVICE, JOIN, OUTPUT = range(4)


class Step(NamedTuple):
    """One plan node in the compiled schedule.

    ``feeds`` are the step indices of its predecessors in arc order (a
    join's: left, right); ``layout`` is that of every row it emits.
    ``binding`` is set on service steps, ``join`` on joins (the one a
    streamed execution early-exits carries the output's residual
    predicates), ``residual`` on the output step; ``response_time`` is
    the virtual busy time a join itself adds.
    """

    kind: int
    index: int
    node_id: str
    feeds: tuple[int, ...]
    layout: SlotLayout
    binding: ServiceBinding | None = None
    join: CompiledJoin | None = None
    residual: tuple[SlotPredicate, ...] = ()
    response_time: float = 0.0


@dataclass(frozen=True, eq=False)
class ExecutionProgram:
    """A query plan compiled for execution (see the module docstring)."""

    head: tuple[Variable, ...]
    #: Topological (Kahn, FIFO) order: input first, output last.
    steps: tuple[Step, ...]
    #: The row every execution starts from.
    input_row: Row
    #: Compiled fetching factor per step index (0 off service steps).
    fetches: tuple[int, ...]
    #: ``(step index, atom index, decay cap or None)`` per chunked
    #: service step: the factors "ask for more" may grow.
    chunked: tuple[tuple[int, int, int | None], ...]
    #: The step a streamed top-k execution early-exits: the output's
    #: sole predecessor, a join or a service step.  Its rows reach the
    #: answer without gaining rank annotations (and nobody else can
    #: consume them), so a top-k certificate there is one for the query.
    terminal: int
    #: Service steps fetched on the streamed walk's demand, closed
    #: upwards from the terminal: a service step whose *only* consumer
    #: is the terminal join, another lazy step or (the terminal itself)
    #: the output — leaving part of it unfetched changes no other
    #: dataflow.  The closure stops at joins and at steps two nodes
    #: consume.
    lazy: frozenset[int]
    #: Whether a suspended streamed walk may *continue* under grown
    #: fetch factors instead of re-executing: the only growable step is
    #: the input-fed head of a pure pipe chain to the output, so a
    #: larger factor only appends rows, in order, to every cursor of
    #: the chain.
    grows_in_place: bool
    #: ``(service, pattern code, input spec against the answer layout)``
    #: per service node: how a certificate recovers, from an answer's
    #: own values, the unit of each service that produced it.
    answer_specs: tuple[tuple[str, str, InputSpec], ...]

    @classmethod
    def compile(
        cls, plan: QueryPlan, head: Sequence[Variable] = ()
    ) -> "ExecutionProgram":
        """Validate *plan* and compile it for *head*.

        Raises :class:`~repro.plans.dag.PlanError` for a malformed DAG
        and :class:`ExecutionError` for a plan that could never run (a
        service input no upstream node binds, a second feed).
        """
        plan.validate()
        order = plan.topological_order()
        position = {node.node_id: index for index, node in enumerate(order)}
        output = plan.output_node
        terminal = position[plan.predecessors(output)[0].node_id]
        input_row = Row()
        steps: list[Step] = []
        fetches = [0] * len(order)
        for index, node in enumerate(order):
            feeds = tuple(position[p.node_id] for p in plan.predecessors(node))
            here = (index, node.node_id, feeds)
            if isinstance(node, InputNode):
                step = Step(INPUT, *here, input_row.layout)
            elif isinstance(node, JoinNode):
                join = compile_join(
                    node.method,
                    *(steps[feed].layout for feed in feeds),
                    node.predicates,
                    output.residual_predicates if index == terminal else (),
                )
                step = Step(
                    JOIN, *here, join.merge.merged, join=join,
                    response_time=node.response_time,
                )
            elif len(feeds) != 1:
                raise ExecutionError(
                    f"node {node.label} must have exactly one predecessor"
                )
            elif isinstance(node, ServiceNode):
                binding = ServiceBinding(node, steps[feeds[0]].layout)
                fetches[index] = node.fetches
                step = Step(SERVICE, *here, binding.layout, binding=binding)
            elif isinstance(node, OutputNode):
                layout = steps[feeds[0]].layout
                step = Step(
                    OUTPUT, *here, layout,
                    residual=tuple(
                        compile_predicates(node.residual_predicates, layout)
                    ),
                )
            else:
                raise ExecutionError(f"unknown node type {type(node).__name__}")
            steps.append(step)
        chunked = tuple(
            (step.index, step.binding.atom_index,
             step.binding.profile.max_fetches())
            for step in steps
            if step.kind == SERVICE and step.binding.profile.is_chunked
        )
        consumers: list[list[int]] = [[] for _ in steps]
        for step in steps:
            for feed in step.feeds:
                consumers[feed].append(step.index)
        # Consumers come later in the order, so one backward pass closes
        # the set.
        lazy: set[int] = set()
        for step in reversed(steps):
            if step.kind == SERVICE and len(consumers[step.index]) == 1:
                consumer = steps[consumers[step.index][0]]
                if (
                    consumer.kind == OUTPUT
                    or consumer.index in lazy
                    or (consumer.kind == JOIN and consumer.index == terminal)
                ):
                    lazy.add(step.index)
        return cls(
            head=tuple(head),
            steps=tuple(steps),
            input_row=input_row,
            fetches=tuple(fetches),
            chunked=chunked,
            terminal=terminal,
            lazy=frozenset(lazy),
            grows_in_place=(
                [index for index, _, _ in chunked] == [1]
                and all(
                    step.kind != JOIN and step.feeds == (step.index - 1,)
                    for step in steps[1:]
                )
            ),
            answer_specs=tuple(
                (node.service_name, node.pattern.code,
                 tuple(compile_input_spec(node, steps[-1].layout)))
                for node in plan.service_nodes
            ),
        )

    def pattern_codes(self, service: str) -> tuple[str, ...]:
        """The access-pattern codes the plan invokes *service* with."""
        return tuple(sorted(
            {code for name, code, _ in self.answer_specs if name == service}
        ))


def as_program(
    plan: QueryPlan | ExecutionProgram, head: Sequence[Variable] = ()
) -> ExecutionProgram:
    """*plan* itself when already compiled (it carries its own head),
    else compiled for *head*."""
    if isinstance(plan, ExecutionProgram):
        return plan
    return ExecutionProgram.compile(plan, head)

"""Block-contiguity invariant (Section 5.2).

"By construction, during the execution of a query, all the tuples
originating from a proliferative service are retrieved contiguously,
and will therefore be contiguously sent forward in the plan preserving
the same values for the input fields of the invocation of
non-dependent services."

This is the property the one-call cache exploits; we verify it at the
engine level by observing the order in which the hotel service sees
its inputs in plan S.
"""

from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine
from repro.experiments.figure11 import ThreadedEngine
from repro.model.schema import AccessPattern
from repro.plans.builder import PlanBuilder
from repro.services.base import Service
from repro.sources.travel import (
    FLIGHT_ATOM,
    HOTEL_ATOM,
    alpha1_patterns,
    poset_serial,
)


class _RecordingService(Service):
    """Wraps a service and records the input of every invocation."""

    def __init__(self, inner: Service) -> None:
        self._inner = inner
        self.seen: list[tuple] = []
        super().__init__(inner.signature, inner.profile)

    def invoke(self, pattern: AccessPattern, inputs, page: int = 0):
        self.seen.append(tuple(sorted(inputs.items())))
        return self._inner.invoke(pattern, inputs, page=page)

    def _compute(self, pattern, inputs, page):  # pragma: no cover
        raise NotImplementedError("delegated via invoke")


def _blocks(values: list[tuple]) -> int:
    """Number of maximal runs of equal consecutive values."""
    count = 0
    previous = object()
    for value in values:
        if value != previous:
            count += 1
            previous = value
    return count


class TestBlockContiguity:
    def test_hotel_inputs_arrive_in_blocks(self, registry, travel_query):
        recorder = _RecordingService(registry.service("hotel"))
        registry._services["hotel"] = recorder  # swap in the probe
        plan = PlanBuilder(travel_query, registry).build(
            alpha1_patterns(), poset_serial(),
            fetches={FLIGHT_ATOM: 1, HOTEL_ATOM: 1},
        )
        engine = ExecutionEngine(registry, CacheSetting.NO_CACHE)
        engine.execute(plan, head=travel_query.head)
        # 284 invocations must arrive as exactly 15 contiguous blocks
        # (one per weather-surviving tuple with flights): the flight
        # tuples of one input are contiguous, so the hotel inputs they
        # induce are too.
        assert len(recorder.seen) == 284
        assert _blocks(recorder.seen) == 15

    def test_shuffled_order_breaks_blocks(self, registry, travel_query):
        recorder = _RecordingService(registry.service("hotel"))
        registry._services["hotel"] = recorder
        plan = PlanBuilder(travel_query, registry).build(
            alpha1_patterns(), poset_serial(),
            fetches={FLIGHT_ATOM: 1, HOTEL_ATOM: 1},
        )
        engine = ThreadedEngine(registry, CacheSetting.NO_CACHE)
        engine.execute(plan, head=travel_query.head)
        # Randomized dispatch produces many more (shorter) blocks,
        # which is exactly why the one-call cache degrades.
        assert _blocks(recorder.seen) > 15

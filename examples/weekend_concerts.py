"""The third query of the paper's abstract.

"Can I spend an April weekend in a city served by a low-cost direct
flight from Milano offering a Mahler's symphony?"

Two strategies are executable: drive from the fares (browse cheap
destinations, then check the programme) or from the concerts (find
Mahler performances, then price the route).  Which one wins depends on
the metric — this example optimizes under both and compares.

Run with::

    python examples/weekend_concerts.py
"""

from repro import (
    CacheSetting,
    ExecutionEngine,
    ExecutionTimeMetric,
    Optimizer,
    OptimizerConfig,
    RequestResponseMetric,
    render_ascii,
)
from repro.sources.weekend import mahler_weekend_query, weekend_registry


def main() -> None:
    registry = weekend_registry()
    query = mahler_weekend_query(budget=120)
    print("Query:")
    print(f"  {query}\n")

    for metric in (ExecutionTimeMetric(), RequestResponseMetric()):
        optimizer = Optimizer(
            registry, metric,
            OptimizerConfig(k=5, cache_setting=CacheSetting.ONE_CALL),
        )
        best = optimizer.optimize(query)
        print(f"--- optimizing for {metric.name} ---")
        print(render_ascii(best.plan, best.annotation))
        print(
            f"  cost {best.cost:.1f}, patterns "
            f"{[p.code for p in best.patterns]}\n"
        )

        engine = ExecutionEngine(registry, cache_setting=CacheSetting.ONE_CALL)
        result = engine.execute(best.plan, head=query.head)
        print("  Weekend options (cheapest fares first):")
        for line in result.table.render(5).splitlines():
            print(f"  {line}")
        print(f"  simulated time: {result.elapsed:.1f}s\n")


if __name__ == "__main__":
    main()

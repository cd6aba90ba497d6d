"""The paper's running example, end to end (Sections 2.5, 5, 6).

"Find all database conferences in the next six months in locations
where the average temperature is 28°C degrees and for which a cheap
travel solution including a luxury accommodation exists."

The script optimizes the query of Figure 3 over the four services of
Figure 2, prints the annotated optimal plan (Figure 8), executes it
under each cache setting (Figure 11), and renders the answer table
(the Figure 10 screenshot, as text).

Run with::

    python examples/travel_conference.py
"""

from repro import (
    CacheSetting,
    ExecutionEngine,
    ExecutionTimeMetric,
    Optimizer,
    OptimizerConfig,
    render_ascii,
    running_example_query,
    travel_registry,
)
from repro.experiments import run_figure11


def main() -> None:
    registry = travel_registry()
    query = running_example_query()
    print("Query (Figure 3):")
    print(f"  {query}\n")

    # --- optimize ---------------------------------------------------------
    optimizer = Optimizer(
        registry,
        ExecutionTimeMetric(),
        OptimizerConfig(k=10, cache_setting=CacheSetting.ONE_CALL),
    )
    best = optimizer.optimize(query)
    print("Optimal plan (Figures 7d/8):")
    print(render_ascii(best.plan, best.annotation))
    print(f"  expected cost {best.cost:.1f}s, expected answers "
          f"{best.expected_answers:.1f}, fetches {best.fetches}")
    print(f"  search: {best.stats.summary()}\n")

    # --- execute (Figure 10) -----------------------------------------------
    engine = ExecutionEngine(registry, cache_setting=CacheSetting.ONE_CALL)
    result = engine.execute(best.plan, head=query.head)
    print("Answers in composed rank order (Figure 10):")
    print(result.table.render(10))
    print(f"\n{result.stats.summary()}\n")

    # --- the cache/plan grid (Figure 11) -----------------------------------
    print("Figure 11 — plans S/P/O under the three cache settings:")
    grid = run_figure11(registry, query)
    print(grid.render())
    print(
        "\nAll call counts match the paper exactly: "
        f"{grid.all_calls_match_paper}; "
        f"time orderings hold: {grid.time_shape_holds()}"
    )


if __name__ == "__main__":
    main()

"""Quickstart: define two services, write a query, optimize, execute.

The scenario: a directory service listing restaurants per city (exact)
and a review search service returning dishes in rating order (search,
chunked).  We ask for the best dishes in Italian cities, and let the
optimizer schedule the calls.

Run with::

    python examples/quickstart.py
"""

from repro import (
    CacheSetting,
    ExecutionEngine,
    ExecutionTimeMetric,
    Optimizer,
    OptimizerConfig,
    ServiceRegistry,
    TableExactService,
    TableSearchService,
    exact_profile,
    parse_query,
    render_ascii,
    search_profile,
    signature,
)


def build_registry() -> ServiceRegistry:
    """Two table-backed services standing in for remote Web services."""
    registry = ServiceRegistry()
    registry.register(
        TableExactService(
            # restaurants(Country, City, Name): ask by country.
            signature("restaurants", ["Country", "City", "Name"], ["ioo"]),
            exact_profile(erspi=3.0, response_time=0.8),
            [
                ("it", "Roma", "Da Enzo"),
                ("it", "Roma", "Felice"),
                ("it", "Milano", "Trippa"),
                ("it", "Bologna", "Oltre"),
                ("fr", "Paris", "Septime"),
            ],
        )
    )
    registry.register(
        TableSearchService(
            # dishes(Restaurant, Dish, Rating): ranked by rating, paged.
            signature("dishes", ["Name", "Dish", "Rating"], ["ioo"]),
            search_profile(chunk_size=2, response_time=1.5),
            [
                ("Da Enzo", "Carbonara", 9.6),
                ("Da Enzo", "Cacio e pepe", 9.1),
                ("Da Enzo", "Tiramisu", 8.7),
                ("Felice", "Amatriciana", 9.4),
                ("Felice", "Gricia", 8.9),
                ("Trippa", "Trippa alla milanese", 9.2),
                ("Trippa", "Vitello tonnato", 8.8),
                ("Oltre", "Tortellini", 9.5),
                ("Septime", "Tasting menu", 9.9),
            ],
            score=lambda row: float(row[2]),
        )
    )
    return registry


def main() -> None:
    registry = build_registry()

    # A multi-domain conjunctive query in the paper's datalog notation.
    query = parse_query(
        """
        q(City, Restaurant, Dish, Rating) :-
            restaurants('it', City, Restaurant),
            dishes(Restaurant, Dish, Rating),
            Rating >= 8.8.
        """
    )
    print("Query:")
    print(f"  {query}\n")

    # Optimize for the 5 best answers under the execution-time metric.
    optimizer = Optimizer(
        registry,
        ExecutionTimeMetric(),
        OptimizerConfig(k=5, cache_setting=CacheSetting.ONE_CALL),
    )
    best = optimizer.optimize(query)
    print(f"Chosen plan ({best.describe()}):")
    print(render_ascii(best.plan, best.annotation))
    print(f"Search stats: {best.stats.summary()}\n")

    # Execute and show the composed, ranked answers.
    engine = ExecutionEngine(registry, cache_setting=CacheSetting.ONE_CALL)
    result = engine.execute(best.plan, head=query.head)
    print("Top answers (composed ranking):")
    print(result.table.render(5))
    print(f"\nSimulated time: {result.elapsed:.1f}s")
    print(result.stats.summary())


if __name__ == "__main__":
    main()

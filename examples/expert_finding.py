"""The second query of the paper's abstract.

"Who are the strongest experts on service computing based upon their
recent publication record and accepted European projects?"

A ranked publication index (search service) is combined with exact
authorship and project-funding services; the selective projects
service prunes most candidate authors.

Run with::

    python examples/expert_finding.py
"""

from repro import (
    CacheSetting,
    ExecutionEngine,
    Optimizer,
    OptimizerConfig,
    RequestResponseMetric,
    render_ascii,
)
from repro.sources.biblio import biblio_registry, experts_query, planted_experts


def main() -> None:
    registry = biblio_registry()
    query = experts_query("service computing")
    print("Query:")
    print(f"  {query}\n")

    # Minimizing the number of service requests: the request-response
    # metric favors sequencing the selective projects service last.
    optimizer = Optimizer(
        registry,
        RequestResponseMetric(),
        OptimizerConfig(k=8, cache_setting=CacheSetting.OPTIMAL),
    )
    best = optimizer.optimize(query)
    print("Plan minimizing service requests:")
    print(render_ascii(best.plan, best.annotation))
    print(f"  expected requests: {best.cost:.1f}\n")

    engine = ExecutionEngine(registry, cache_setting=CacheSetting.OPTIMAL)
    result = engine.execute(best.plan, head=query.head)
    print("Experts (by composed publication rank):")
    print(result.table.render(8))

    found = {answer[0] for answer in result.answers(8)}
    print(f"\nPlanted ground truth: {planted_experts()}")
    print(f"Recovered experts:   {sorted(found & set(planted_experts()))}")
    print(f"\n{result.stats.summary()}")


if __name__ == "__main__":
    main()

"""The bioinformatics scenario of Section 6.

"We were able to query protein repositories to find evolutionary
relationships between human and mouse proteins including repeated
protein domains and involved in the glycolysis metabolic pathway,
using InterPro, UniProt, BLAST, and KEGG."

The synthetic equivalents keep the same interaction structure; the
BLAST analogue is a search service with a *decay* bound, which caps its
fetching factor and drives the registry toward nested-loop joins.

Run with::

    python examples/bioinformatics.py
"""

from repro import (
    CacheSetting,
    ExecutionEngine,
    ExecutionTimeMetric,
    Optimizer,
    OptimizerConfig,
    render_ascii,
)
from repro.sources.bio import bio_registry, glycolysis_homolog_query


def main() -> None:
    registry = bio_registry()
    query = glycolysis_homolog_query()
    print("Query:")
    print(f"  {query}\n")

    blast = registry.profile("blast")
    print(
        f"blast is a search service: chunk {blast.chunk_size}, "
        f"decay {blast.decay} (at most {blast.max_fetches()} useful fetches)\n"
    )

    optimizer = Optimizer(
        registry,
        ExecutionTimeMetric(),
        OptimizerConfig(k=8, cache_setting=CacheSetting.ONE_CALL),
    )
    best = optimizer.optimize(query)
    print("Optimal plan:")
    print(render_ascii(best.plan, best.annotation))
    print(f"  cost {best.cost:.1f}s, fetches {best.fetches}\n")

    engine = ExecutionEngine(registry, cache_setting=CacheSetting.ONE_CALL)
    result = engine.execute(best.plan, head=query.head)
    print("Human glycolysis proteins with repeated-domain mouse homologs:")
    print(result.table.render(8))
    print(f"\n{result.stats.summary()}")


if __name__ == "__main__":
    main()

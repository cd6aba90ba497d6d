"""The news-management domain (Section 6) with a query template.

Optimize once per *template* (Section 2.2), then execute the same plan
spec for different parameter bindings: topic and sector vary, the plan
does not.

Run with::

    python examples/news_monitor.py
"""

from repro import CacheSetting, ExecutionEngine, ExecutionTimeMetric
from repro.model.atoms import Atom
from repro.model.predicates import Comparison
from repro.model.query import ConjunctiveQuery
from repro.model.template import QueryTemplate, parameter
from repro.model.terms import Constant, Variable
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.plans.render import render_ascii
from repro.plans.spec import PlanSpec
from repro.sources.news import news_registry


def build_template() -> QueryTemplate:
    article, headline = Variable("Article"), Variable("Headline")
    company, date = Variable("Company"), Variable("Date")
    change, country = Variable("Change"), Variable("Country")
    return QueryTemplate(
        ConjunctiveQuery(
            name="marketnews",
            head=(company, headline, date, change),
            atoms=(
                Atom(
                    "newssearch",
                    (parameter("topic"), article, headline, company, date),
                ),
                Atom("quotes", (company, date, change)),
                Atom("profile", (company, parameter("sector"), country)),
            ),
            predicates=(
                Comparison(change, ">=", Constant(0), selectivity=0.5),
            ),
        )
    )


def main() -> None:
    registry = news_registry()
    template = build_template()
    print(f"Template (parameters {template.parameters}):")
    print(f"  {template}\n")

    # Optimize once, on a representative instantiation.
    reference = template.instantiate({"topic": "merger", "sector": "tech"})
    best = Optimizer(
        registry,
        ExecutionTimeMetric(),
        OptimizerConfig(k=3, cache_setting=CacheSetting.ONE_CALL),
    ).optimize(reference)
    spec = PlanSpec.from_optimized(best)
    print("Plan optimized once for the template:")
    print(render_ascii(best.plan, best.annotation))
    print(f"  persisted spec: {spec.to_json()}\n")

    # Execute the same spec for several bindings.
    engine = ExecutionEngine(registry, cache_setting=CacheSetting.ONE_CALL)
    for topic, sector in [("merger", "tech"), ("earnings", "energy"),
                          ("recall", "retail")]:
        query = template.instantiate({"topic": topic, "sector": sector})
        plan = spec.build(query, registry)
        result = engine.execute(plan, head=query.head)
        print(f"--- {topic} news about {sector} companies ---")
        print(result.table.render(3))
        print()


if __name__ == "__main__":
    main()

"""Tests for query templates (Section 2.2: optimize once per template)."""

import pytest

from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting

from repro.execution.engine import ExecutionEngine
from repro.model.atoms import Atom
from repro.model.predicates import Comparison
from repro.model.query import ConjunctiveQuery
from repro.model.template import (
    Parameter,
    QueryTemplate,
    TemplateError,
    parameter,
)
from repro.model.terms import Constant, Variable
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.plans.spec import PlanSpec


@pytest.fixture()
def travel_template():
    """The running example with the topic and budget as parameters."""
    city = Variable("City")
    start, end = Variable("Start"), Variable("End")
    conf_name = Variable("Conf")
    hotel_name, h_price = Variable("Hotel"), Variable("HPrice")
    query = ConjunctiveQuery(
        name="t",
        head=(conf_name, city, hotel_name, h_price),
        atoms=(
            Atom("conf", (parameter("topic"), conf_name, start, end, city)),
            Atom("hotel", (hotel_name, city, Constant("luxury"), start, end,
                           h_price)),
        ),
        predicates=(
            Comparison(h_price, "<=", parameter("budget"), selectivity=0.5),
        ),
    )
    return QueryTemplate(query)


class TestParameters:
    def test_parameter_discovery(self, travel_template):
        assert travel_template.parameters == ("budget", "topic")

    def test_missing_value_rejected(self, travel_template):
        with pytest.raises(TemplateError):
            travel_template.instantiate({"topic": "DB"})

    def test_unknown_value_rejected(self, travel_template):
        with pytest.raises(TemplateError):
            travel_template.instantiate(
                {"topic": "DB", "budget": 700, "extra": 1}
            )

    def test_empty_parameter_name_rejected(self):
        with pytest.raises(TemplateError):
            Parameter("")

    def test_str_shows_placeholder(self):
        assert str(Parameter("topic")) == "$topic"


class TestInstantiation:
    def test_constants_substituted(self, travel_template):
        query = travel_template.instantiate({"topic": "DB", "budget": 700})
        assert query.atoms[0].terms[0] == Constant("DB")
        assert query.predicates[0].right == Constant(700)

    def test_selectivity_preserved(self, travel_template):
        query = travel_template.instantiate({"topic": "DB", "budget": 700})
        assert query.predicates[0].selectivity == 0.5

    def test_instantiations_are_independent(self, travel_template):
        db = travel_template.instantiate({"topic": "DB", "budget": 700})
        ai = travel_template.instantiate({"topic": "AI", "budget": 500})
        assert db.atoms[0].terms[0] != ai.atoms[0].terms[0]


class TestTemplateReuse:
    """Optimize once, execute many instantiations via PlanSpec."""

    def test_one_spec_serves_many_bindings(self, registry, travel_template):
        reference = travel_template.instantiate({"topic": "DB", "budget": 700})
        best = Optimizer(
            registry,
            ExecutionTimeMetric(),
            OptimizerConfig(k=5, cache_setting=CacheSetting.ONE_CALL),
        ).optimize(reference)
        spec = PlanSpec.from_optimized(best)

        for topic, budget in [("DB", 700), ("AI", 500), ("IR", 900)]:
            query = travel_template.instantiate(
                {"topic": topic, "budget": budget}
            )
            plan = spec.build(query, registry)
            result = ExecutionEngine(registry).execute(plan, head=query.head)
            for _, _, _, price in result.answers(None):
                assert price <= budget

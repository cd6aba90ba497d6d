"""Synthetic workload generator: random schemas, services, and queries.

The paper's evaluation uses one hand-built query; to characterize the
*optimizer* itself (search-space growth, pruning effectiveness,
heuristic quality) we need families of queries of increasing size.
This module generates deterministic (seeded) chain-of-custody
workloads:

* a schema of ``n`` services ``s0 .. s{n-1}``, each with a key input
  and a key output over shared abstract domains, so every query built
  over a prefix is executable;
* a mix of exact and search services with plausible profiles (erspi,
  latency, chunking, occasional decay);
* table-backed implementations whose data respects the join structure,
  so generated plans can also be *executed*, not just costed;
* chain queries ``q(X_n) :- s0('seed', X1), s1(X1, X2), ...`` plus
  optional extra output attributes and selection predicates.

Everything is pure-Python and reproducible from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.model.atoms import Atom
from repro.model.predicates import Comparison
from repro.model.query import ConjunctiveQuery
from repro.model.schema import signature
from repro.model.terms import Constant, Variable
from repro.services.profile import exact_profile, search_profile
from repro.services.registry import ServiceRegistry
from repro.services.table import TableExactService, TableSearchService


@dataclass(frozen=True)
class SyntheticWorkload:
    """A registry plus a query over it."""

    registry: ServiceRegistry
    query: ConjunctiveQuery
    seed: int
    n_services: int


def _key(space: int, index: int) -> str:
    return f"k{space}_{index:03d}"


def generate_workload(
    n_services: int = 4,
    seed: int = 7,
    keys_per_space: int = 12,
    fanout: int = 3,
    search_fraction: float = 0.4,
    with_predicates: bool = True,
    enrichments: int = 0,
) -> SyntheticWorkload:
    """Generate a chain workload of *n_services* services.

    Service ``si`` maps keys of space ``i`` to keys of space ``i + 1``
    (with ``fanout`` successors each on average) plus a numeric score
    attribute.  Roughly ``search_fraction`` of the services are chunked
    search services; one in four of those has a decay bound.

    ``enrichments`` adds that many *lookup* services, each decorating
    one intermediate key space with an attribute.  Enrichment atoms are
    incomparable with the downstream chain, which opens up the plan
    topology space (parallel branches and joins) — pure chains have a
    forced total order.
    """
    if n_services < 1:
        raise ValueError("need at least one service")
    rng = random.Random(seed)
    registry = ServiceRegistry()
    atoms: list[Atom] = []
    predicates: list[Comparison] = []
    variables = [Variable(f"X{i}") for i in range(n_services + 1)]

    for index in range(n_services):
        name = f"s{index}"
        sig = signature(
            name,
            [f"Key{index}", f"Key{index + 1}", "Score"],
            ["ioo"],
        )
        rows = []
        for source in range(keys_per_space):
            successors = rng.randint(1, fanout * 2 - 1)
            for _ in range(successors):
                target = rng.randrange(keys_per_space)
                score = rng.randint(1, 100)
                rows.append(
                    (_key(index, source), _key(index + 1, target), score)
                )
        is_search = rng.random() < search_fraction
        if is_search:
            decay = rng.choice([None, None, None, 3 * fanout])
            profile = search_profile(
                chunk_size=rng.choice([2, 5, 10]),
                response_time=round(rng.uniform(0.5, 8.0), 1),
                decay=decay,
            )
            registry.register(
                TableSearchService(
                    sig, profile, rows, score=lambda row: float(row[2])
                )
            )
        else:
            profile = exact_profile(
                erspi=round(rng.uniform(0.5, float(fanout)), 2),
                response_time=round(rng.uniform(0.3, 4.0), 1),
            )
            registry.register(TableExactService(sig, profile, rows))
        source_term: Constant | Variable
        if index == 0:
            source_term = Constant(_key(0, 0))
        else:
            source_term = variables[index]
        atoms.append(
            Atom(name, (source_term, variables[index + 1], Variable(f"S{index}")))
        )
        if with_predicates and rng.random() < 0.5:
            predicates.append(
                Comparison(
                    Variable(f"S{index}"), ">=", Constant(rng.randint(5, 40)),
                    selectivity=round(rng.uniform(0.4, 0.9), 2),
                )
            )

    for extra in range(enrichments):
        space = 1 + (extra % n_services)
        name = f"t{extra}"
        sig = signature(name, [f"Key{space}", "Attr"], ["io"])
        rows = [
            (_key(space, key), f"attr{extra}_{key % 4}")
            for key in range(keys_per_space)
        ]
        registry.register(
            TableExactService(
                sig,
                exact_profile(
                    erspi=1.0, response_time=round(rng.uniform(0.3, 2.0), 1)
                ),
                rows,
            )
        )
        atoms.append(Atom(name, (variables[space], Variable(f"A{extra}"))))

    query = ConjunctiveQuery(
        name="chain",
        head=(variables[n_services],),
        atoms=tuple(atoms),
        predicates=tuple(predicates),
    )
    return SyntheticWorkload(
        registry=registry, query=query, seed=seed, n_services=n_services
    )


def workload_family(
    sizes: tuple[int, ...] = (2, 3, 4, 5),
    seed: int = 7,
) -> list[SyntheticWorkload]:
    """One workload per requested size, sharing the seed lineage."""
    return [generate_workload(n_services=n, seed=seed + n) for n in sizes]

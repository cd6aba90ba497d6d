"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``reproduce``
    Regenerate every table and figure of the paper (Section 6) and
    print them next to the published values.

``demo [travel|bio|biblio|biblio-sqlite|biblio-fts|weekend]``
    Optimize and execute the showcase query of a built-in domain
    (the ``biblio-*`` variants serve the bibliographic corpus from
    persistent indexed SQLite / FTS5 backends).

``optimize --domain NAME "q(X) :- ..."``
    Optimize (and optionally execute) an ad-hoc datalog query against a
    built-in domain's services.  A query no permissible sequence of
    access patterns can execute is expanded with off-query seeder
    services first (Section 7): the expansion answers a subset of it.

``query [--domain NAME] ["q(X) :- ..."]``
    Submit a query through the serving layer (plan cache + shared
    service cache + sessions) and print the JSON response; ``--repeat``
    shows the plan-cache provenance flipping from ``optimized`` to
    ``memory``, ``--plan-cache PATH`` persists plans across processes.

``serve [--domain NAME]``
    Minimal line-oriented server on stdin/stdout: each line is a
    datalog query, ``more <session_id> [n]``, ``stats``, or ``quit``;
    one JSON response is printed per line.

Both serving commands persist plans with ``--plan-cache PATH``: a
WAL-mode SQLite database (created when missing, whatever the suffix)
that any number of threads and processes may share.

Bad input — a query that does not parse, names an unknown service, has
the wrong arity or admits no plan (for ``optimize``: not even an
expanded one), a ``k`` below 1 — ends a one-shot
command with ``error: <Type>: <message>`` on stderr and exit status 2;
``serve`` answers the same inputs with ``{"error": ...}`` and goes on.
A ``--plan-cache`` path SQLite cannot open ends either serving command
the same way, before it answers anything.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro.costs.sum_cost import RequestResponseMetric
from repro.costs.time_cost import ExecutionTimeMetric
from repro.execution.cache import CacheSetting
from repro.execution.engine import ExecutionEngine
from repro.extensions.expansion import expand_query
from repro.model.parser import parse_query
from repro.optimizer.optimizer import Optimizer, OptimizerConfig
from repro.plans.dag import PlanError
from repro.plans.render import render_ascii

_DOMAINS = {
    "travel": (
        "repro.sources.travel", "travel_registry", "running_example_query"
    ),
    "bio": ("repro.sources.bio", "bio_registry", "glycolysis_homolog_query"),
    "biblio": ("repro.sources.biblio", "biblio_registry", "experts_query"),
    # The same bibliographic domain served from persistent indexed
    # backends (repro.services.sqlite): B-tree paging / FTS5 BM25.
    "biblio-sqlite": (
        "repro.sources.biblio", "biblio_registry_sqlite", "experts_query"
    ),
    "biblio-fts": (
        "repro.sources.biblio", "biblio_registry_fts5", "experts_query"
    ),
    "weekend": (
        "repro.sources.weekend", "weekend_registry", "mahler_weekend_query"
    ),
}

_METRICS = {
    "time": ExecutionTimeMetric,
    "requests": RequestResponseMetric,
}


def _load_domain(name: str):
    import importlib

    module_name, registry_fn, query_fn = _DOMAINS[name]
    module = importlib.import_module(module_name)
    return getattr(module, registry_fn)(), getattr(module, query_fn)()


def _optimize_and_run(registry, query, metric_name: str, k: int,
                      execute: bool) -> int:
    metric = _METRICS[metric_name]()
    optimizer = Optimizer(
        registry, metric,
        OptimizerConfig(k=k, cache_setting=CacheSetting.ONE_CALL),
    )
    try:
        best = optimizer.optimize(query)
    except PlanError:
        # No permissible sequence of access patterns: seed the blocked
        # inputs from services the query does not mention (paper §7).
        expanded = expand_query(query, registry.schema())
        if not expanded.is_expansion:
            raise
        print(f"Query: {query}")
        print("  admits no permissible sequence of access patterns; expanded "
              "with off-query seeders:")
        for atom in expanded.added_atoms:
            print(f"  + {atom}")
        print("  (answers are a subset of the original query's)\n")
        query = expanded.query
        best = optimizer.optimize(query)
    print(f"Query: {query}\n")
    print(f"Optimal plan under {metric.name} (cost {best.cost:.1f}):")
    print(render_ascii(best.plan, best.annotation))
    print(f"Search: {best.stats.summary()}")
    if execute:
        engine = ExecutionEngine(registry, cache_setting=CacheSetting.ONE_CALL)
        result = engine.execute(best.plan, head=query.head)
        print(f"\nTop {k} answers:")
        print(result.table.render(k))
        print(f"\n{result.stats.summary()}")
    return 0


def _resilience_config(args):
    """The ResilienceConfig the CLI flags ask for."""
    retries = getattr(args, "retries", 0)
    if retries < 0:
        raise ValueError(f"--retries must be >= 0, got {retries}")
    from repro.execution.resilience import ResilienceConfig

    return ResilienceConfig(
        attempts=retries + 1,
        partial_results=getattr(args, "partial_results", False),
    )


@contextlib.contextmanager
def _exit_if_unopenable():
    """A path SQLite cannot open (a directory, a regular file's child)
    ends the command with ``error: <Type>: <message>`` and status 2."""
    import sqlite3

    try:
        yield
    except (sqlite3.Error, OSError) as error:
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        sys.exit(2)


def _make_query_service(args):
    from repro.serving import CircuitBreaker, PlanCache, QueryService

    registry, showcase = _load_domain(args.domain)
    with _exit_if_unopenable():
        plan_cache = PlanCache(path=args.plan_cache)
    service = QueryService(
        registry=registry,
        metric=_METRICS[args.metric](),
        k_default=args.k,
        plan_cache=plan_cache,
        resilience=_resilience_config(args),
        row_provenance=getattr(args, "provenance", False),
        breaker=CircuitBreaker() if getattr(args, "adaptive", False) else None,
    )
    return service, showcase


def _run_query(args) -> int:
    if args.repeat < 1:
        raise ValueError(f"--repeat must be >= 1, got {args.repeat}")
    service, showcase = _make_query_service(args)
    query = parse_query(args.query) if args.query else showcase
    for _ in range(args.repeat):
        response = service.submit(query, k=args.k)
        print(response.to_json())
    import json

    print(json.dumps(service.snapshot(), sort_keys=True))
    return 0


def _run_serve(args) -> int:
    import json

    service, showcase = _make_query_service(args)
    for line in sys.stdin:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line in {"quit", "exit"}:
            break
        try:
            if line == "stats":
                print(json.dumps(service.snapshot(), sort_keys=True))
            elif line.split()[0] == "more":
                parts = line.split()
                if len(parts) < 2:
                    raise ValueError("usage: more <session_id> [n]")
                additional = int(parts[2]) if len(parts) > 2 else None
                print(service.ask_for_more(parts[1], additional).to_json())
            elif line == "demo":
                print(service.submit(showcase, k=args.k).to_json())
            else:
                print(service.submit(line, k=args.k).to_json())
        except Exception as error:  # a bad request must not kill the server
            print(json.dumps({"error": f"{type(error).__name__}: {error}"}))
        sys.stdout.flush()
    print(json.dumps(service.snapshot(), sort_keys=True))
    return 0


def _add_serving_flags(parser) -> None:
    """The serving commands' shared flags (query + serve)."""
    parser.add_argument(
        "--plan-cache", default=None, metavar="PATH",
        help="persist optimized plans in this SQLite database (WAL mode; "
        "created when missing, shared by concurrent processes)",
    )
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="retry a transiently failed page pull up to N times "
        "(deterministic seeded backoff charged to virtual time)",
    )
    parser.add_argument(
        "--partial-results", action="store_true",
        help="when retries are exhausted, serve the unresponsive "
        "service block from a registered equivalent service if there "
        "is one, else drop it and answer over the rest, attaching a "
        "certificate naming every substituted and dropped unit",
    )
    parser.add_argument(
        "--provenance", action="store_true",
        help="attach per-row provenance to every answer: the "
        "(service, input, page, epoch) of each page pull that "
        "contributed to the row (answers themselves are unchanged)",
    )
    parser.add_argument(
        "--adaptive", action="store_true",
        help="mid-flight adaptive serving, in partial-results mode: "
        "per-service circuit breakers feed observed health back into "
        "plan costs, executions re-plan when a service turns slow "
        "against its profile, and slow or breaker-open services are "
        "served by registered equivalent services (every substitution "
        "recorded on the certificate)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multi-domain Web query optimizer (VLDB 2008 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("reproduce", help="regenerate every table/figure")

    demo = sub.add_parser("demo", help="run a built-in domain's showcase query")
    demo.add_argument("domain", choices=sorted(_DOMAINS), nargs="?",
                      default="travel")
    demo.add_argument("--metric", choices=sorted(_METRICS), default="time")
    demo.add_argument("-k", type=int, default=10, help="answers wanted")
    demo.add_argument("--no-execute", action="store_true",
                      help="optimize only, skip execution")

    opt = sub.add_parser("optimize", help="optimize an ad-hoc datalog query")
    opt.add_argument("query", help="datalog text, e.g. \"q(X) :- s('a', X).\"")
    opt.add_argument("--domain", choices=sorted(_DOMAINS), default="travel")
    opt.add_argument("--metric", choices=sorted(_METRICS), default="time")
    opt.add_argument("-k", type=int, default=10)
    opt.add_argument("--no-execute", action="store_true")

    qry = sub.add_parser(
        "query", help="submit one query through the serving layer"
    )
    qry.add_argument("query", nargs="?", default=None,
                     help="datalog text (default: the domain's showcase query)")
    qry.add_argument("--domain", choices=sorted(_DOMAINS), default="travel")
    qry.add_argument("--metric", choices=sorted(_METRICS), default="time")
    qry.add_argument("-k", type=int, default=10)
    qry.add_argument("--repeat", type=int, default=1,
                     help="submit the query N times (shows plan-cache hits)")
    _add_serving_flags(qry)

    srv = sub.add_parser(
        "serve", help="line-oriented query server on stdin/stdout"
    )
    srv.add_argument("--domain", choices=sorted(_DOMAINS), default="travel")
    srv.add_argument("--metric", choices=sorted(_METRICS), default="time")
    srv.add_argument("-k", type=int, default=10, help="default answers per query")
    _add_serving_flags(srv)

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ValueError as error:
        # What bad input raises is a ``ValueError`` by construction:
        # ParseError, QueryError, SchemaError (unknown service, arity),
        # PlanError (no executable plan), ExpansionError (no expanded
        # one either), a ``k`` below 1, and a ``--retries`` below 0 or
        # a ``--repeat`` below 1.
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "reproduce":
        from repro.experiments import reproduce_paper

        print(reproduce_paper())
        return 0

    if args.command == "demo":
        registry, query = _load_domain(args.domain)
        return _optimize_and_run(
            registry, query, args.metric, args.k, not args.no_execute
        )

    if args.command == "optimize":
        registry, _ = _load_domain(args.domain)
        query = parse_query(args.query)
        return _optimize_and_run(
            registry, query, args.metric, args.k, not args.no_execute
        )

    if args.command == "query":
        return _run_query(args)

    if args.command == "serve":
        return _run_serve(args)

    return 2


if __name__ == "__main__":
    sys.exit(main())

"""Normalized query fingerprints and plan-cache keys.

The serving layer amortizes optimization across repeated traffic: two
submissions must land on the same cached plan whenever the optimizer
would provably make the same decisions for both.  That holds when

* the queries are identical up to a *renaming of variables* — the
  optimizer never looks at a variable's name, only at the sharing
  structure it induces (which atoms it links, where it repeats);
* the optimizer's inputs agree: registry content (profiles, join
  methods, selectivities — summarized by
  :meth:`~repro.services.registry.ServiceRegistry.content_epoch`),
  the cost metric, the answer budget ``k``, and the cache setting
  assumed while costing plans.

:func:`canonical_query` renders a query with variables renamed in
order of first occurrence (head first, then body), which makes the
rendering invariant under alpha-renaming while preserving everything
the optimizer can observe: atom order (plan specs address atoms by
body index), constants, predicate structure, and explicit
selectivities.  :func:`query_fingerprint` hashes that rendering, and
:func:`plan_cache_key` combines it with the optimization context into
the single string key the :class:`~repro.serving.plan_cache.PlanCache`
stores under.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.digest import content_digest
from repro.model.predicates import BinaryExpression, Comparison, Expression
from repro.model.query import ConjunctiveQuery
from repro.model.terms import Constant, Term, Variable
from repro.optimizer.optimizer import OptimizerConfig


def canonical_query(query: ConjunctiveQuery) -> str:
    """Alpha-invariant canonical rendering of *query*.

    Variables are renamed ``?0, ?1, ...`` in order of first occurrence
    scanning the head, then the body atoms left to right, then the
    predicates; constants are rendered with ``repr`` so ``'5'`` and
    ``5`` stay distinct.  Atom and predicate order is preserved —
    cached plan specs refer to atoms by body position, so queries that
    differ only in atom order deliberately get different fingerprints.
    """
    naming: dict[Variable, str] = {}

    def rename(term: Term) -> str:
        if isinstance(term, Constant):
            return f"c:{term.value!r}"
        if term not in naming:
            naming[term] = f"?{len(naming)}"
        return naming[term]

    head = ",".join(rename(variable) for variable in query.head)
    atoms = ";".join(
        f"{atom.service}({','.join(rename(term) for term in atom.terms)})"
        for atom in query.atoms
    )
    predicates = ";".join(
        _render_comparison(predicate, rename) for predicate in query.predicates
    )
    return f"head[{head}]body[{atoms}]where[{predicates}]"


def _render_comparison(
    predicate: Comparison, rename: Callable[[Term], str]
) -> str:
    left = _render_expression(predicate.left, rename)
    right = _render_expression(predicate.right, rename)
    # The explicit selectivity participates: it drives the annotated
    # cardinalities, so the same text with a different estimate may
    # legitimately optimize to a different plan.
    return f"{left}{predicate.op}{right}@{predicate.estimated_selectivity()!r}"


def _render_expression(
    expression: Expression, rename: Callable[[Term], str]
) -> str:
    if isinstance(expression, BinaryExpression):
        left = _render_expression(expression.left, rename)
        right = _render_expression(expression.right, rename)
        return f"({left}{expression.op}{right})"
    return rename(expression)


def query_fingerprint(query: ConjunctiveQuery) -> str:
    """Stable hex digest of the canonical rendering of *query*."""
    return content_digest(canonical_query(query))


def optimizer_config_token(config: OptimizerConfig) -> str:
    """Stable token over the fields of *config* the key does not carry.

    ``k`` and ``cache_setting`` are explicit key components, and they
    are all an :class:`OptimizerConfig` holds, so the token digests no
    field: it is a constant.  It stays because ``bench/tracing.py``
    builds plan-cache keys by hand, calling this and
    :func:`plan_cache_key`, and must build the serving layer's keys.
    """
    fields = dataclasses.asdict(config)
    for keyed_elsewhere in ("k", "cache_setting"):
        fields.pop(keyed_elsewhere)
    return content_digest({name: repr(value) for name, value in fields.items()})


def plan_cache_key(
    fingerprint: str,
    epoch: str,
    metric_name: str,
    k: int,
    cache_setting_value: str,
    config_token: str,
) -> str:
    """The plan-cache key for one (query, optimization context) pair.

    The registry epoch is baked into the key, so entries optimized
    under drifted profiles can never be returned — they simply stop
    being addressed and age out of the LRU tier.  The config token is
    a constant (:func:`optimizer_config_token`).
    """
    return "|".join(
        (
            fingerprint,
            epoch,
            metric_name,
            f"k={k}",
            cache_setting_value,
            config_token,
        )
    )

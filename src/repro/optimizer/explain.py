"""EXPLAIN: render a physical plan tree with cost annotations.

The conventional optimizer affordance — a human-readable operator tree
with per-node cardinality and cost estimates — for inspecting what the
certified planner chose and why.

``explain`` is **total over** :class:`~repro.core.ast.Query`: every
constructor the front end can produce renders, aggregate subqueries
(GROUP BY / HAVING / scalar aggregates desugar to queries *inside*
projections and predicates, per paper Sec. 4.2) are rendered as indented
``Aggregate`` sub-plans with their own estimates, long projection /
predicate labels are elided, and an unknown node degrades to an
``Opaque`` line instead of raising.  :func:`explain_result` additionally
renders the planner's winning rule chain and exploration counters next
to the cost tree.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Iterator, List, Optional, Tuple

from ..core import ast
from ..sql.pretty import predicate_to_str, projection_to_str
from .cost import Estimate, TableStats, estimate
from .extract import PLAN_COUNT_LIMIT

#: Rendered label budget before elision — keeps one plan node on one line
#: even when a projection embeds a whole desugared GROUP BY subquery.
_LABEL_WIDTH = 60


def explain(query: ast.Query, stats: TableStats) -> str:
    """A multi-line EXPLAIN rendering of the plan."""
    lines: List[str] = []
    _explain(query, stats, 0, lines)
    return "\n".join(lines)


def explain_result(result, stats: TableStats) -> str:
    """EXPLAIN for a :class:`~repro.optimizer.planner.PlanningResult`:
    the winning rule chain and search counters, then the cost tree of
    the chosen plan."""
    chain = " → ".join(result.applied_rules) if result.applied_rules \
        else "(none — original plan kept)"
    certified = {True: "VERIFIED", False: "FAILED",
                 None: "skipped"}[result.certified]
    sat = result.saturation
    clamped = result.plans_explored >= PLAN_COUNT_LIMIT
    explored = (f"{'≥' if clamped else ''}{result.plans_explored}"
                f" distinct plans in {sat.nodes} e-nodes / "
                f"{sat.classes} e-classes"
                f"{' (saturated)' if sat.saturated else ''}")
    lines = [
        f"plans explored     : {explored}",
        f"rewrite chain      : {chain}",
        f"original plan cost : {result.original_cost:.1f}",
        f"optimized plan cost: {result.best_cost:.1f}",
        f"prover certificate : {certified}",
        "",
        explain(result.best_plan, stats),
    ]
    return "\n".join(lines)


def _clip(text: str) -> str:
    if len(text) <= _LABEL_WIDTH:
        return text
    return text[:_LABEL_WIDTH - 1] + "…"


def _safe_estimate(query: ast.Query, stats: TableStats) -> Optional[Estimate]:
    try:
        return estimate(query, stats)
    except TypeError:
        return None


def _node(label: str, est: Optional[Estimate], depth: int,
          lines: List[str]) -> None:
    indent = "  " * depth
    if est is None:
        lines.append(f"{indent}{label}  [rows≈? cost≈?]")
    else:
        lines.append(f"{indent}{label}  "
                     f"[rows≈{est.cardinality:.1f} cost≈{est.cost:.1f}]")


def _aggregate_subqueries(value: object) -> Iterator[Tuple[str, ast.Query]]:
    """Aggregate subqueries nested in a projection/predicate/expression.

    GROUP BY, HAVING, and scalar aggregates compile to :class:`ast.Agg`
    nodes whose operand is a full query; surfacing them keeps EXPLAIN
    informative (and total) on every shape the SQL front end emits.
    """
    if isinstance(value, ast.Agg):
        yield value.name, value.query
        return  # the operand renders as its own sub-plan
    if isinstance(value, (ast.Predicate, ast.Expression, ast.Projection)):
        for field_ in dataclass_fields(value):
            child = getattr(value, field_.name)
            children = child if isinstance(child, tuple) else (child,)
            for item in children:
                yield from _aggregate_subqueries(item)


def _explain_label_aggs(value: object, stats: TableStats, depth: int,
                        lines: List[str]) -> None:
    for name, subquery in _aggregate_subqueries(value):
        _node(f"Aggregate {name}", _safe_estimate(subquery, stats), depth,
              lines)
        _explain(subquery, stats, depth + 1, lines)


def _explain(query: ast.Query, stats: TableStats, depth: int,
             lines: List[str]) -> None:
    est = _safe_estimate(query, stats)
    if isinstance(query, ast.Table):
        _node(f"Scan {query.name}", est, depth, lines)
        return
    if isinstance(query, ast.Select):
        _node(f"Project {_clip(projection_to_str(query.projection))}", est,
              depth, lines)
        _explain_label_aggs(query.projection, stats, depth + 1, lines)
        _explain(query.query, stats, depth + 1, lines)
        return
    if isinstance(query, ast.Product):
        _node("CrossJoin", est, depth, lines)
        _explain(query.left, stats, depth + 1, lines)
        _explain(query.right, stats, depth + 1, lines)
        return
    if isinstance(query, ast.Where):
        _node(f"Filter {_clip(predicate_to_str(query.predicate))}", est,
              depth, lines)
        _explain_label_aggs(query.predicate, stats, depth + 1, lines)
        _explain(query.query, stats, depth + 1, lines)
        return
    if isinstance(query, ast.UnionAll):
        _node("UnionAll", est, depth, lines)
        _explain(query.left, stats, depth + 1, lines)
        _explain(query.right, stats, depth + 1, lines)
        return
    if isinstance(query, ast.Except):
        _node("Except", est, depth, lines)
        _explain(query.left, stats, depth + 1, lines)
        _explain(query.right, stats, depth + 1, lines)
        return
    if isinstance(query, ast.Distinct):
        _node("Distinct", est, depth, lines)
        _explain(query.query, stats, depth + 1, lines)
        return
    # Totality: an unknown Query subclass (a future operator, a test
    # double) renders as an opaque leaf instead of crashing EXPLAIN.
    _node(f"Opaque {type(query).__name__}", est, depth, lines)


__all__ = ["explain", "explain_result"]

"""A textbook cost model for plan selection.

The paper's optimizers pick among semantically equivalent plans by cost
(Sec. 1: "a plan selector that chooses the optimal plan ... based on a cost
model").  This is the standard cardinality-based model: every operator's
cost is the work to produce its output, estimated from base-table
cardinalities and fixed selectivities (Selinger-style).  It exists to give
the planner a preference order — its absolute numbers are not calibrated,
and do not need to be for the reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import fields as _dataclass_fields
from typing import Dict

from ..core import ast

#: Estimated fraction of rows surviving a selection.
SELECTIVITY_EQ = 0.25
SELECTIVITY_OTHER = 0.5
#: Estimated fraction of distinct rows in a bag.
DISTINCT_RATIO = 0.7


@dataclass
class TableStats:
    """Base-table cardinalities feeding the estimator."""

    cardinalities: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_database(cls, db) -> "TableStats":
        """Collect support sizes from a concrete database."""
        return cls({name: float(len(db.relation(name)))
                    for name in db.table_names()})

    def cardinality(self, table: str) -> float:
        return self.cardinalities.get(table, 100.0)


@dataclass
class Estimate:
    """Estimated output cardinality and cumulative cost of a plan."""

    cardinality: float
    cost: float


def compose(op: type, label: tuple, child_estimates: tuple,
            stats: TableStats) -> Estimate:
    """One operator's estimate from its children's estimates.

    This is the cost model's compositional kernel, shared by the
    tree-walking :func:`estimate` and the e-graph extractor
    (:mod:`repro.optimizer.extract`), which evaluates it per e-node over
    the best estimates of the child e-classes.  ``op`` is the AST class
    and ``label`` its non-Query field values in dataclass order (see
    ``repro.optimizer.egraph.LABEL_FIELDS``).

    Cost is cumulative and non-negative, so an operator never costs less
    than any child — together with the strictly increasing syntactic
    size this makes cost-based extraction well-founded even on cyclic
    e-graphs.
    """
    if op is ast.Table:
        card = stats.cardinality(label[0])
        return Estimate(card, card)
    if op is ast.Select:
        (inner,) = child_estimates
        return Estimate(inner.cardinality, inner.cost + inner.cardinality)
    if op is ast.Product:
        left, right = child_estimates
        out = left.cardinality * right.cardinality
        return Estimate(out, left.cost + right.cost + out)
    if op is ast.Where:
        (inner,) = child_estimates
        sel = _selectivity(label[0])
        return Estimate(inner.cardinality * sel,
                        inner.cost + inner.cardinality)
    if op is ast.UnionAll:
        left, right = child_estimates
        out = left.cardinality + right.cardinality
        return Estimate(out, left.cost + right.cost + out)
    if op is ast.Except:
        left, right = child_estimates
        return Estimate(left.cardinality,
                        left.cost + right.cost
                        + left.cardinality + right.cardinality)
    if op is ast.Distinct:
        (inner,) = child_estimates
        return Estimate(inner.cardinality * DISTINCT_RATIO,
                        inner.cost + inner.cardinality)
    raise TypeError(f"cannot estimate query operator {op.__name__}")


def estimate(query: ast.Query, stats: TableStats) -> Estimate:
    """Bottom-up cardinality/cost estimation."""
    if isinstance(query, ast.Table):
        return compose(ast.Table, (query.name, query.schema), (), stats)
    if isinstance(query, ast.Select):
        return compose(ast.Select, (query.projection,),
                       (estimate(query.query, stats),), stats)
    if isinstance(query, ast.Product):
        return compose(ast.Product, (),
                       (estimate(query.left, stats),
                        estimate(query.right, stats)), stats)
    if isinstance(query, ast.Where):
        return compose(ast.Where, (query.predicate,),
                       (estimate(query.query, stats),), stats)
    if isinstance(query, ast.UnionAll):
        return compose(ast.UnionAll, (),
                       (estimate(query.left, stats),
                        estimate(query.right, stats)), stats)
    if isinstance(query, ast.Except):
        return compose(ast.Except, (),
                       (estimate(query.left, stats),
                        estimate(query.right, stats)), stats)
    if isinstance(query, ast.Distinct):
        return compose(ast.Distinct, (),
                       (estimate(query.query, stats),), stats)
    raise TypeError(f"cannot estimate query node {query!r}")


#: Field names per AST class, resolved once — ``dataclasses.fields`` per
#: call is the single hottest line of extraction otherwise.
_FIELD_NAMES: Dict[type, tuple] = {}


def plan_size(node: object, _seen_types=(ast.Query, ast.Predicate,
                                         ast.Expression, ast.Projection)
              ) -> int:
    """Node count of a plan tree (queries, predicates, expressions,
    projections) — the e-graph extractor's tie-break among equal-cost
    plans.

    Stash-memoized per node: plans are interned immutable trees, and the
    extractor sizes the same subplans across every e-class they appear
    in, so each distinct node is walked once per process.
    """
    cached = node.__dict__.get("_hc_psize")
    if cached is not None:
        return cached
    cls = node.__class__
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = tuple(f.name for f in _dataclass_fields(node))
        _FIELD_NAMES[cls] = names
    size = 1
    for name in names:
        value = getattr(node, name)
        children = value if isinstance(value, tuple) else (value,)
        for child in children:
            if isinstance(child, _seen_types):
                size += plan_size(child)
    object.__setattr__(node, "_hc_psize", size)
    return size


def _selectivity(pred: ast.Predicate) -> float:
    """Estimated surviving fraction for a predicate.

    Stash-memoized per (interned, immutable) predicate node — ``Where``
    re-estimation dominates e-graph extraction rounds otherwise.
    """
    cached = pred.__dict__.get("_hc_sel")
    if cached is not None:
        return cached
    sel = _selectivity_uncached(pred)
    object.__setattr__(pred, "_hc_sel", sel)
    return sel


def _selectivity_uncached(pred: ast.Predicate) -> float:
    # Static satisfiability decides the degenerate cases exactly: a
    # contradictory filter keeps nothing, a tautological one keeps
    # everything — tighter than the per-connective heuristics below
    # (e.g. ``a = 0 AND a = 1`` would otherwise estimate 0.0625).
    from ..analysis.infer import pred_sat
    from ..analysis.properties import Sat
    sat = pred_sat(pred)
    if sat is Sat.NEVER:
        return 0.0
    if sat is Sat.ALWAYS:
        return 1.0
    if isinstance(pred, ast.PredEq):
        return SELECTIVITY_EQ
    if isinstance(pred, ast.PredAnd):
        # Multiply over *distinct* conjuncts: a repeated conjunct filters
        # nothing the first copy didn't, so counting it again would
        # underestimate the output (and make σ_{b∧b} look cheaper
        # downstream than the equivalent σ_b).
        unique = list(dict.fromkeys(_conjuncts(pred)))
        sel = 1.0
        for conjunct in unique:
            sel *= _selectivity(conjunct)
        return sel
    if isinstance(pred, ast.PredOr):
        left = _selectivity(pred.left)
        right = _selectivity(pred.right)
        return min(1.0, left + right - left * right)
    if isinstance(pred, ast.PredNot):
        return 1.0 - _selectivity(pred.operand)
    if isinstance(pred, ast.PredTrue):
        return 1.0
    if isinstance(pred, ast.PredFalse):
        return 0.0
    return SELECTIVITY_OTHER


def _conjuncts(pred: ast.Predicate):
    if isinstance(pred, ast.PredAnd):
        return _conjuncts(pred.left) + _conjuncts(pred.right)
    return [pred]


def plan_cost(query: ast.Query, stats: TableStats) -> float:
    """Cumulative cost of a plan (the planner's objective)."""
    return estimate(query, stats).cost

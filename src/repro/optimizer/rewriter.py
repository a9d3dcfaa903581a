"""Path analysis for the certified rewrite rules.

The paper's motivation (Sec. 1): optimizers enumerate plans by applying
rewrite rules, and unsound rules ship wrong answers.  The planner's rules
live in :mod:`repro.optimizer.saturate`, each an instance of a rule
proved by the engine; selection pushdown needs to know which attribute
paths a predicate dereferences and to re-root them below a product.
This module holds those helpers (:func:`proj_steps`,
:func:`predicate_paths`, :func:`rewrite_predicate_paths`) and the
conjunct flattening (:func:`flatten_conjuncts`) the dedup and split
rules share.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core import ast


# ---------------------------------------------------------------------------
# Projection-path analysis (for selection pushdown)
# ---------------------------------------------------------------------------

def proj_steps(proj: ast.Projection) -> Optional[Tuple[str, ...]]:
    """Flatten a pure path projection to L/R steps (None if not a path).

    Stash-memoized per (interned, immutable) node — path analysis runs
    per e-node per saturation iteration, on heavily shared projections.
    The stash stores ``(result,)`` so a cached ``None`` is
    distinguishable from a cold miss.
    """
    cached = proj.__dict__.get("_hc_psteps")
    if cached is not None:
        return cached[0]
    result = _proj_steps(proj)
    object.__setattr__(proj, "_hc_psteps", (result,))
    return result


def _proj_steps(proj: ast.Projection) -> Optional[Tuple[str, ...]]:
    if isinstance(proj, ast.Star):
        return ()
    if isinstance(proj, ast.LeftP):
        return ("L",)
    if isinstance(proj, ast.RightP):
        return ("R",)
    if isinstance(proj, ast.Compose):
        first = proj_steps(proj.first)
        second = proj_steps(proj.second)
        if first is None or second is None:
            return None
        return first + second
    return None


def predicate_paths(pred: ast.Predicate) -> Optional[List[Tuple[str, ...]]]:
    """All attribute paths a predicate dereferences, or None if opaque.

    Opaque constructs (metavariables, EXISTS, casts) make pushdown analysis
    unsound, so pushdown conservatively refuses them.

    Stash-memoized per interned node (callers only read the result); the
    stash stores ``(result,)`` so a cached ``None`` hits too.
    """
    cached = pred.__dict__.get("_hc_ppaths")
    if cached is not None:
        return cached[0]
    result = _predicate_paths(pred)
    object.__setattr__(pred, "_hc_ppaths", (result,))
    return result


def _predicate_paths(pred: ast.Predicate) -> Optional[List[Tuple[str, ...]]]:
    if isinstance(pred, ast.PredEq):
        return _merge(_expression_paths(pred.left),
                      _expression_paths(pred.right))
    if isinstance(pred, (ast.PredAnd, ast.PredOr)):
        return _merge(predicate_paths(pred.left),
                      predicate_paths(pred.right))
    if isinstance(pred, ast.PredNot):
        return predicate_paths(pred.operand)
    if isinstance(pred, (ast.PredTrue, ast.PredFalse)):
        return []
    if isinstance(pred, ast.PredFunc):
        out: Optional[List[Tuple[str, ...]]] = []
        for arg in pred.args:
            out = _merge(out, _expression_paths(arg))
        return out
    return None  # Exists, CastPred, PredVar: opaque


def _expression_paths(expr: ast.Expression) -> Optional[List[Tuple[str, ...]]]:
    if isinstance(expr, ast.P2E):
        steps = proj_steps(expr.projection)
        return None if steps is None else [steps]
    if isinstance(expr, ast.Const):
        return []
    if isinstance(expr, ast.Func):
        out: Optional[List[Tuple[str, ...]]] = []
        for arg in expr.args:
            out = _merge(out, _expression_paths(arg))
        return out
    return None  # Agg, CastExpr, ExprVar: opaque


def _merge(a, b):
    if a is None or b is None:
        return None
    return a + b


def rewrite_predicate_paths(pred: ast.Predicate, old_prefix: Tuple[str, ...],
                            new_prefix: Tuple[str, ...]) -> ast.Predicate:
    """Replace a leading path prefix in every attribute reference."""
    if isinstance(pred, ast.PredEq):
        return ast.PredEq(
            _rewrite_expression_paths(pred.left, old_prefix, new_prefix),
            _rewrite_expression_paths(pred.right, old_prefix, new_prefix))
    if isinstance(pred, ast.PredAnd):
        return ast.PredAnd(
            rewrite_predicate_paths(pred.left, old_prefix, new_prefix),
            rewrite_predicate_paths(pred.right, old_prefix, new_prefix))
    if isinstance(pred, ast.PredOr):
        return ast.PredOr(
            rewrite_predicate_paths(pred.left, old_prefix, new_prefix),
            rewrite_predicate_paths(pred.right, old_prefix, new_prefix))
    if isinstance(pred, ast.PredNot):
        return ast.PredNot(
            rewrite_predicate_paths(pred.operand, old_prefix, new_prefix))
    if isinstance(pred, (ast.PredTrue, ast.PredFalse)):
        return pred
    if isinstance(pred, ast.PredFunc):
        return ast.PredFunc(pred.name, tuple(
            _rewrite_expression_paths(a, old_prefix, new_prefix)
            for a in pred.args))
    raise ValueError(f"cannot rewrite opaque predicate {pred!r}")


def _rewrite_expression_paths(expr: ast.Expression,
                              old_prefix: Tuple[str, ...],
                              new_prefix: Tuple[str, ...]) -> ast.Expression:
    if isinstance(expr, ast.P2E):
        steps = proj_steps(expr.projection)
        if steps is None:
            raise ValueError("opaque projection in pushdown rewrite")
        if steps[:len(old_prefix)] == old_prefix:
            steps = new_prefix + steps[len(old_prefix):]
        return ast.P2E(ast.steps_to_proj(steps), expr.ty)
    if isinstance(expr, ast.Const):
        return expr
    if isinstance(expr, ast.Func):
        return ast.Func(expr.name, tuple(
            _rewrite_expression_paths(a, old_prefix, new_prefix)
            for a in expr.args), expr.ty)
    raise ValueError(f"cannot rewrite opaque expression {expr!r}")


def flatten_conjuncts(pred: ast.Predicate) -> List[ast.Predicate]:
    """The conjuncts of a right/left-nested AND tree, in order.

    Stash-memoized per interned node; callers concatenate or dedup the
    result into fresh containers, never mutate it in place.
    """
    cached = pred.__dict__.get("_hc_conj")
    if cached is not None:
        return cached
    if isinstance(pred, ast.PredAnd):
        result = flatten_conjuncts(pred.left) + flatten_conjuncts(pred.right)
    else:
        result = [pred]
    object.__setattr__(pred, "_hc_conj", result)
    return result

"""Bottom-up abstract interpretation over core plans.

One transfer function per operator the front end emits, factored so the
same kernel serves both consumers:

* :func:`infer_properties` — recursion over an AST plan (memoized per
  call), the shape the linter, the CLI, and the disprover use;
* :func:`transfer` — the ``(op, label, child properties)`` form, exactly
  the e-graph's decomposition, so the saturation-side e-class analysis
  (:mod:`repro.optimizer.eanalysis`) reuses the transfer functions
  verbatim (mirroring how :func:`repro.optimizer.cost.compose` serves
  both the tree estimator and the extractor).

Facts are seeded from :class:`~repro.core.equivalence.Hypotheses`: a
:class:`~repro.core.equivalence.KeyConstraint` on a table makes it
set-valued (``engine/constraints.py`` semantics — a key forces every
multiplicity ≤ 1), and callers that know the concrete key *path* (the
CLI, tests) can bind it so ``Select`` injectivity reasoning kicks in.

Everything here is conservative: a property is reported only when it
holds on **every** instance, which the soundness suite checks against
engine evaluation on random instances.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..core import ast
from ..core.equivalence import Hypotheses, NO_HYPOTHESES
from ..obs.metrics import counter
from .properties import Interval, KeyPath, PlanProperties, Sat, UNBOUNDED

__all__ = [
    "AnalysisContext",
    "EMPTY_CONTEXT",
    "infer_properties",
    "iter_ast",
    "pred_sat",
    "proj_path",
    "supports_determined",
    "transfer",
]

_QUERIES = counter("analysis.infer.queries")
_TAUT = counter("analysis.pred_sat.taut")
_CONTRA = counter("analysis.pred_sat.contra")


@dataclass(frozen=True)
class AnalysisContext:
    """Ambient facts the inference runs under (hashable, for memo keys).

    ``keyed`` — table names carrying a key hypothesis (set-valued);
    ``key_paths`` — ``(table, path)`` pairs binding the key to a concrete
    projection path inside the row, when the caller knows it;
    ``table_cards`` — ``(table, Interval)`` bounds on total multiplicity
    (the disprover seeds these from its enumeration
    :class:`~repro.solver.disprover.Bound`).
    """

    keyed: Tuple[str, ...] = ()
    key_paths: Tuple[Tuple[str, KeyPath], ...] = ()
    table_cards: Tuple[Tuple[str, Interval], ...] = ()

    @classmethod
    def from_hypotheses(
            cls, hyps: Hypotheses = NO_HYPOTHESES, *,
            key_paths: Sequence[Tuple[str, KeyPath]] = (),
            table_cards: Sequence[Tuple[str, Interval]] = (),
    ) -> "AnalysisContext":
        return cls(keyed=tuple(sorted({k.rel for k in hyps.keys})),
                   key_paths=tuple(sorted(key_paths)),
                   table_cards=tuple(sorted(table_cards)))

    def table_props(self, name: str) -> PlanProperties:
        keys = frozenset(path for rel, path in self.key_paths
                         if rel == name)
        card = UNBOUNDED
        for rel, bound in self.table_cards:
            if rel == name:
                card = bound
        return PlanProperties(set_valued=name in self.keyed,
                             keys=keys, card=card)


EMPTY_CONTEXT = AnalysisContext()


# ---------------------------------------------------------------------------
# Generic AST iteration (shared by the linter's metavariable walks)
# ---------------------------------------------------------------------------

_AST_BASES = (ast.Query, ast.Predicate, ast.Expression, ast.Projection)


def iter_ast(node: object) -> Iterator[object]:
    """Every AST node reachable from ``node`` (preorder, node included)."""
    if not isinstance(node, _AST_BASES):
        return
    yield node
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        if isinstance(value, _AST_BASES):
            yield from iter_ast(value)
        elif isinstance(value, tuple):
            for item in value:
                yield from iter_ast(item)


# ---------------------------------------------------------------------------
# Projections: path extraction and injectivity
# ---------------------------------------------------------------------------

def proj_path(proj: ast.Projection) -> Optional[Tuple[str, ...]]:
    """``proj`` as a pure access path (steps applied left to right), or
    ``None`` when it computes (``E2P``), duplicates, or is a metavariable."""
    if proj is ast.STAR:
        return ()
    if isinstance(proj, ast.LeftP):
        return ("L",)
    if isinstance(proj, ast.RightP):
        return ("R",)
    if isinstance(proj, ast.Compose):
        first = proj_path(proj.first)
        second = proj_path(proj.second)
        if first is None or second is None:
            return None
        return first + second
    return None


def _proj_injective(proj: ast.Projection,
                    child: PlanProperties) -> bool:
    """Is the ``Select`` projection injective *on input rows*?

    The projection receives the pair ``(g, row)`` (Figure 7): the whole
    row is at path ``("R",)``, so the identity and any ``("R",) + key``
    access are injective; ``Duplicate`` is injective when either half is.
    """
    if proj is ast.STAR:
        return True  # output is the whole (g, row) pair
    if isinstance(proj, ast.Duplicate):
        return (_proj_injective(proj.left, child)
                or _proj_injective(proj.right, child))
    path = proj_path(proj)
    if path is None:
        return False
    if path[:1] != ("R",):
        return False  # a pure-context projection merges all rows
    return path == ("R",) or path[1:] in child.keys


# ---------------------------------------------------------------------------
# Predicate satisfiability
# ---------------------------------------------------------------------------

def _conjuncts(pred: ast.Predicate) -> Tuple[ast.Predicate, ...]:
    if isinstance(pred, ast.PredAnd):
        return _conjuncts(pred.left) + _conjuncts(pred.right)
    return (pred,)


def _disjuncts(pred: ast.Predicate) -> Tuple[ast.Predicate, ...]:
    if isinstance(pred, ast.PredOr):
        return _disjuncts(pred.left) + _disjuncts(pred.right)
    return (pred,)


def _const_binding(pred: ast.Predicate) -> Optional[Tuple[object, object]]:
    """``e = c`` with ``c`` a constant: the pair ``(e, c.value)``."""
    if isinstance(pred, ast.PredEq):
        if isinstance(pred.right, ast.Const):
            return (pred.left, pred.right.value)
        if isinstance(pred.left, ast.Const):
            return (pred.right, pred.left.value)
    return None


def pred_sat(pred: ast.Predicate,
             ctx: AnalysisContext = EMPTY_CONTEXT) -> Sat:
    """Three-point satisfiability: tautology / contradiction / unknown.

    Detects reflexive and constant equalities, complementary literals
    inside one conjunction/disjunction (``b ∧ ¬b`` / ``b ∨ ¬b``), one
    expression pinned to two distinct constants, and ``EXISTS`` over a
    statically empty subquery.

    Memoized on each interned (sub)predicate (the ``_hc_sat`` stash, one
    entry per :class:`AnalysisContext`): the e-graph planner asks about
    the same predicate on every match and again inside :func:`transfer`,
    and a conjunction it builds reuses what its conjuncts already know.
    The ``analysis.pred_sat.taut`` / ``.contra`` counters still count
    every call, memo hits included.
    """
    result = _pred_sat(pred, ctx)
    if result is Sat.ALWAYS:
        _TAUT.inc()
    elif result is Sat.NEVER:
        _CONTRA.inc()
    return result


def _pred_sat(pred: ast.Predicate, ctx: AnalysisContext) -> Sat:
    memo = pred.__dict__.get("_hc_sat")
    if memo is None:
        memo = {}
        object.__setattr__(pred, "_hc_sat", memo)
    result = memo.get(ctx)
    if result is None:
        result = memo[ctx] = _pred_sat_uncached(pred, ctx)
    return result


def _pred_sat_uncached(pred: ast.Predicate, ctx: AnalysisContext) -> Sat:
    if isinstance(pred, ast.PredTrue):
        return Sat.ALWAYS
    if isinstance(pred, ast.PredFalse):
        return Sat.NEVER
    if isinstance(pred, ast.PredNot):
        return _pred_sat(pred.operand, ctx).negate()
    if isinstance(pred, ast.PredEq):
        if pred.left == pred.right:
            return Sat.ALWAYS
        if isinstance(pred.left, ast.Const) \
                and isinstance(pred.right, ast.Const):
            return Sat.ALWAYS if pred.left.value == pred.right.value \
                else Sat.NEVER
        return Sat.UNKNOWN
    if isinstance(pred, ast.PredAnd):
        parts = _conjuncts(pred)
        verdict = Sat.ALWAYS
        for part in parts:
            verdict = verdict.and_(_pred_sat(part, ctx))
        if verdict is Sat.NEVER:
            return verdict
        if _has_complement(parts):
            return Sat.NEVER
        if _conflicting_constants(parts):
            return Sat.NEVER
        return verdict
    if isinstance(pred, ast.PredOr):
        parts = _disjuncts(pred)
        verdict = Sat.NEVER
        for part in parts:
            verdict = verdict.or_(_pred_sat(part, ctx))
        if verdict is Sat.ALWAYS:
            return verdict
        if _has_complement(parts):
            return Sat.ALWAYS
        return verdict
    if isinstance(pred, ast.Exists):
        if infer_properties(pred.query, ctx).empty:
            return Sat.NEVER
        return Sat.UNKNOWN
    if isinstance(pred, ast.CastPred):
        # Precomposition with a projection preserves taut/contra.
        return _pred_sat(pred.predicate, ctx)
    return Sat.UNKNOWN  # PredVar / PredFunc: opaque


def _has_complement(parts: Sequence[ast.Predicate]) -> bool:
    seen = set(parts)
    for part in parts:
        if isinstance(part, ast.PredNot) and part.operand in seen:
            return True
    return False


def _conflicting_constants(parts: Sequence[ast.Predicate]) -> bool:
    bound: Dict[object, object] = {}
    for part in parts:
        binding = _const_binding(part)
        if binding is None:
            continue
        expr, value = binding
        if expr in bound and bound[expr] != value:
            return True
        bound[expr] = value
    return False


# ---------------------------------------------------------------------------
# The transfer functions
# ---------------------------------------------------------------------------

def transfer(op: type, label: Tuple, children: Sequence[PlanProperties],
             ctx: AnalysisContext = EMPTY_CONTEXT) -> PlanProperties:
    """One abstract step: properties of ``op(label)(children)``.

    ``label`` carries the non-query payload exactly as the e-graph
    stores it (:data:`repro.optimizer.egraph.LABEL_FIELDS`): ``Table``
    → ``(name, schema)``, ``Select`` → ``(projection,)``, ``Where`` →
    ``(predicate,)``, everything else → ``()``.
    """
    if op is ast.Table:
        return ctx.table_props(label[0])
    if op is ast.Select:
        (child,) = children
        if proj_path(label[0]) == ("R",):
            return child  # identity on rows
        if _proj_injective(label[0], child):
            # Injective projections rename rows: everything transfers
            # (Select preserves total multiplicity in any case), but the
            # key *paths* live in the old row shape, so they are dropped.
            return PlanProperties(set_valued=child.set_valued,
                                 empty=child.empty, card=child.card)
        return PlanProperties(empty=child.empty, card=child.card)
    if op is ast.Product:
        left, right = children
        return PlanProperties(
            set_valued=left.set_valued and right.set_valued,
            empty=left.empty or right.empty,
            card=left.card.times(right.card))
    if op is ast.Where:
        (child,) = children
        sat = pred_sat(label[0], ctx)
        if sat is Sat.NEVER:
            return PlanProperties(empty=True)
        if sat is Sat.ALWAYS:
            return child
        return PlanProperties(set_valued=child.set_valued,
                             empty=child.empty, keys=child.keys,
                             card=child.card.clamp_lo())
    if op is ast.UnionAll:
        left, right = children
        return PlanProperties(
            set_valued=(left.empty and right.set_valued)
            or (right.empty and left.set_valued),
            empty=left.empty and right.empty,
            card=left.card.plus(right.card))
    if op is ast.Except:
        left, right = children
        # Multiplicities of the kept rows are the left side's
        # (eval: ``left.except_(right)`` keeps rows absent from right).
        return PlanProperties(set_valued=left.set_valued,
                             empty=left.empty, keys=left.keys,
                             card=left.card.clamp_lo())
    if op is ast.Distinct:
        (child,) = children
        return PlanProperties(set_valued=True, empty=child.empty,
                             keys=child.keys,
                             card=child.card.truncate())
    return PlanProperties()  # unknown operator: no guarantees


_QUERY_CHILDREN = {
    ast.Table: (),
    ast.Select: ("query",),
    ast.Product: ("left", "right"),
    ast.Where: ("query",),
    ast.UnionAll: ("left", "right"),
    ast.Except: ("left", "right"),
    ast.Distinct: ("query",),
}

_QUERY_LABELS = {
    ast.Table: ("name", "schema"),
    ast.Select: ("projection",),
    ast.Where: ("predicate",),
}


def infer_properties(query: ast.Query,
                     ctx: AnalysisContext = EMPTY_CONTEXT
                     ) -> PlanProperties:
    """Infer the property lattice element for ``query`` bottom-up."""
    memo: Dict[ast.Query, PlanProperties] = {}
    result = _infer(query, ctx, memo)
    _QUERIES.inc()
    return result


def _infer(query: ast.Query, ctx: AnalysisContext,
           memo: Dict[ast.Query, PlanProperties]) -> PlanProperties:
    cached = memo.get(query)
    if cached is not None:
        return cached
    op = type(query)
    children = tuple(_infer(getattr(query, name), ctx, memo)
                     for name in _QUERY_CHILDREN.get(op, ()))
    label = tuple(getattr(query, name)
                  for name in _QUERY_LABELS.get(op, ()))
    result = transfer(op, label, children, ctx)
    memo[query] = result
    return result


# ---------------------------------------------------------------------------
# Support determination (the disprover's multiplicity-clamp licence)
# ---------------------------------------------------------------------------

def supports_determined(query: ast.Query) -> bool:
    """Is ``⟦q⟧`` a function of the instance's *supports* alone?

    True for ``DISTINCT``-rooted plans containing no aggregate: every
    other construct's support (and, under the root ``DISTINCT``, its
    value) depends only on which rows are present, never on their
    multiplicities — so clamping enumeration to multiplicity 1 loses no
    counterexamples (see :mod:`repro.solver.disprover`).
    """
    if not isinstance(query, ast.Distinct):
        return False
    return not any(isinstance(node, ast.Agg) for node in iter_ast(query))

"""Abstract syntax of HoTTSQL (paper Figure 5).

Four syntactic categories:

* **queries** — take relations to a relation,
* **predicates** — evaluated against a context tuple, return a proposition,
* **expressions** — evaluated against a context tuple, return a value,
* **projections** — tuple-to-tuple functions (attributes are projections
  onto ``Leaf`` schemas).

Rewrite rules are *generic*: they quantify over relations, predicates,
expressions, and attributes.  Metavariables (:class:`Table` with a schema
variable, :class:`PredVar`, :class:`ExprVar`, :class:`PVar`) carry explicit
schema annotations; the explicit casts ``CASTPRED`` / ``CASTEXPR`` re-scope a
metavariable into a larger context exactly as in paper Sec. 3.3.

All nodes are frozen dataclasses — hashable, comparable, and safe to share
— and, like the UniNomial kernel, **hash-consed** through
:func:`repro.core.intern.interned`: structurally equal constructions
return the *same* object, so structural equality coincides with pointer
equality on canonical nodes; each node hashes by identity and is built
by the kernel's generated constructor.
The equality-saturation optimizer keys its e-graph hashcons and its
term→e-class memo on these canonical identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple as PyTuple

from .intern import interned
from .schema import SQLType, Schema


class Query:
    """Base class for query nodes (relation-valued)."""

    __slots__ = ()


class Predicate:
    """Base class for predicate nodes (proposition-valued)."""

    __slots__ = ()


class Expression:
    """Base class for scalar expression nodes (value-valued)."""

    __slots__ = ()


class Projection:
    """Base class for projection nodes (tuple-to-tuple functions)."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

@interned
@dataclass(frozen=True)
class Table(Query):
    """A base relation — either a concrete table or a relation metavariable.

    The denotation of a table does not depend on the query context, matching
    paper Figure 7 (``λ g t. ⟦table⟧ t``).  In a rewrite rule, distinct
    names denote independently quantified relations.
    """

    name: str
    schema: Schema


@interned
@dataclass(frozen=True)
class Select(Query):
    """``SELECT p q`` — apply projection ``p`` to each tuple of ``q``.

    The projection runs in the context extended with ``q``'s schema, so it
    can mention both outer context attributes and ``q``'s attributes.
    """

    projection: Projection
    query: Query


@interned
@dataclass(frozen=True)
class Product(Query):
    """``FROM q1, q2`` — cross product; output schema ``node σ1 σ2``."""

    left: Query
    right: Query


@interned
@dataclass(frozen=True)
class Where(Query):
    """``q WHERE b`` — filter by predicate ``b``.

    ``b`` is evaluated in context ``node Γ σ_q`` (paper Figure 7): it sees
    the outer context on the left and the current tuple on the right.
    """

    query: Query
    predicate: Predicate


@interned
@dataclass(frozen=True)
class UnionAll(Query):
    """``q1 UNION ALL q2`` — bag union (pointwise ``+``)."""

    left: Query
    right: Query


@interned
@dataclass(frozen=True)
class Except(Query):
    """``q1 EXCEPT q2`` — tuples of q1 that do not occur in q2 at all."""

    left: Query
    right: Query


@interned
@dataclass(frozen=True)
class Distinct(Query):
    """``DISTINCT q`` — duplicate elimination (``‖·‖``)."""

    query: Query


def from_clauses(*queries: Query) -> Query:
    """``FROM q1, ..., qn`` as a right-nested chain of binary products."""
    if not queries:
        raise ValueError("FROM requires at least one query")
    result = queries[-1]
    for q in reversed(queries[:-1]):
        result = Product(q, result)
    return result


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

@interned
@dataclass(frozen=True)
class PredEq(Predicate):
    """``e1 = e2`` — equality of two scalar expressions."""

    left: Expression
    right: Expression


@interned
@dataclass(frozen=True)
class PredAnd(Predicate):
    """``b1 AND b2`` (product of propositions)."""

    left: Predicate
    right: Predicate


@interned
@dataclass(frozen=True)
class PredOr(Predicate):
    """``b1 OR b2`` (squashed sum of propositions)."""

    left: Predicate
    right: Predicate


@interned
@dataclass(frozen=True)
class PredNot(Predicate):
    """``NOT b`` (``b → 0``)."""

    operand: Predicate


@interned
@dataclass(frozen=True)
class PredTrue(Predicate):
    """The always-true predicate."""


@interned
@dataclass(frozen=True)
class PredFalse(Predicate):
    """The always-false predicate."""


@interned
@dataclass(frozen=True)
class Exists(Predicate):
    """``EXISTS q`` — the (squashed) existence of a tuple in ``q``.

    ``q`` is evaluated in the *current* predicate context, which is how
    correlated subqueries see outer tuples (paper Figure 6).
    """

    query: Query


@interned
@dataclass(frozen=True)
class CastPred(Predicate):
    """``CASTPRED p b`` — evaluate ``b`` in the context reached by ``p``.

    Explicit re-scoping of a predicate metavariable (paper Sec. 3.3):
    composition of the projection ``p`` with ``b``.
    """

    projection: Projection
    predicate: Predicate


@interned
@dataclass(frozen=True)
class PredVar(Predicate):
    """A predicate metavariable ranging over all predicates on ``schema``."""

    name: str
    schema: Schema


@interned
@dataclass(frozen=True)
class PredFunc(Predicate):
    """An uninterpreted predicate symbol applied to scalar expressions.

    Extends the paper's grammar with named comparisons (``lt``, ``gt``, ...)
    so that concrete examples such as ``E.age < 30`` are executable; the
    prover treats these as opaque propositions, exactly like ``PredVar``.
    """

    name: str
    args: PyTuple[Expression, ...]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@interned
@dataclass(frozen=True)
class P2E(Expression):
    """Convert a projection onto a leaf into a scalar expression."""

    projection: Projection
    ty: SQLType


@interned
@dataclass(frozen=True)
class Const(Expression):
    """A literal constant (a nullary uninterpreted function in the paper)."""

    value: object
    ty: SQLType


@interned
@dataclass(frozen=True)
class Func(Expression):
    """An uninterpreted scalar function ``f(e1, ..., en)``."""

    name: str
    args: PyTuple[Expression, ...]
    ty: SQLType


@interned
@dataclass(frozen=True)
class Agg(Expression):
    """``agg(q)`` — an aggregate applied to a single-column query.

    ``q`` must have schema ``leaf τ``; the aggregate folds the *bag* the
    query denotes.  GROUP BY is desugared into correlated subqueries feeding
    aggregates (paper Sec. 4.2).
    """

    name: str
    query: Query
    ty: SQLType


@interned
@dataclass(frozen=True)
class CastExpr(Expression):
    """``CASTEXPR p e`` — evaluate ``e`` in the context reached by ``p``."""

    projection: Projection
    expression: Expression


@interned
@dataclass(frozen=True)
class ExprVar(Expression):
    """An expression metavariable over ``schema``, of result type ``ty``."""

    name: str
    schema: Schema
    ty: SQLType


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------

@interned
@dataclass(frozen=True)
class Star(Projection):
    """``*`` — the identity projection."""


@interned
@dataclass(frozen=True)
class LeftP(Projection):
    """``Left`` — project to the left subtree of a ``node`` schema."""


@interned
@dataclass(frozen=True)
class RightP(Projection):
    """``Right`` — project to the right subtree of a ``node`` schema."""


@interned
@dataclass(frozen=True)
class EmptyP(Projection):
    """``Empty`` — project every tuple to the unit tuple."""


@interned
@dataclass(frozen=True)
class Compose(Projection):
    """``p1 . p2`` — apply ``p1`` first, then ``p2``."""

    first: Projection
    second: Projection


@interned
@dataclass(frozen=True)
class Duplicate(Projection):
    """``p1 , p2`` — apply both to the input and pair the results."""

    left: Projection
    right: Projection


@interned
@dataclass(frozen=True)
class E2P(Projection):
    """Convert a scalar expression into a single-attribute projection."""

    expression: Expression
    ty: SQLType


@interned
@dataclass(frozen=True)
class PVar(Projection):
    """A projection metavariable: "some attribute path" of a generic schema.

    ``source`` is the schema it consumes, ``target`` the schema it produces
    (``Leaf τ`` when the metavariable stands for a single attribute).
    """

    name: str
    source: Schema
    target: Schema


# Convenience constructors ---------------------------------------------------

#: Shared projection atoms.
STAR = Star()
LEFT = LeftP()
RIGHT = RightP()
EMPTYP = EmptyP()


def path(*steps: Projection) -> Projection:
    """Compose projection steps left-to-right: ``path(LEFT, RIGHT)`` = Left.Right."""
    if not steps:
        return STAR
    result = steps[0]
    for step in steps[1:]:
        result = Compose(result, step)
    return result


def steps_to_proj(steps: Iterable[str]) -> Projection:
    """The path projection for L/R steps: ``("R", "L")`` = Right.Left."""
    return path(*[LEFT if s == "L" else RIGHT for s in steps])


def proj_tuple(*projs: Projection) -> Projection:
    """Combine projections with ``,`` (right-nested)."""
    if not projs:
        raise ValueError("need at least one projection")
    result = projs[-1]
    for p in reversed(projs[:-1]):
        result = Duplicate(p, result)
    return result


def attr(p: Projection, ty: SQLType) -> Expression:
    """Shorthand for ``P2E`` — read an attribute as a scalar expression."""
    return P2E(p, ty)


def eq(e1: Expression, e2: Expression) -> Predicate:
    """Shorthand for the equality predicate."""
    return PredEq(e1, e2)


def and_(*preds: Predicate) -> Predicate:
    """Conjunction of one or more predicates (right-nested)."""
    if not preds:
        return PredTrue()
    result = preds[-1]
    for p in reversed(preds[:-1]):
        result = PredAnd(p, result)
    return result


def or_(*preds: Predicate) -> Predicate:
    """Disjunction of one or more predicates (right-nested)."""
    if not preds:
        return PredFalse()
    result = preds[-1]
    for p in reversed(preds[:-1]):
        result = PredOr(p, result)
    return result

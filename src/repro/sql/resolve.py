"""Name resolution: compiling named SQL to the unnamed HoTTSQL core.

The paper's data model is *unnamed* — attributes are paths in a binary
schema tree (Sec. 3.1) — and its artifact expects users to write path
expressions by hand.  This module automates that translation: given a
catalog of named table schemas, it compiles the parser's named AST into
core HoTTSQL, turning ``alias.column`` references into ``Left``/``Right``
paths through the context tuple, threading correlated-subquery scopes
exactly as Figure 6 describes, and desugaring GROUP BY, scalar
aggregates, and HAVING per Sec. 4.2.

Two desugaring conventions to note:

* **Scalar aggregates** (``SELECT COUNT(b) FROM R`` without GROUP BY) are
  single-group aggregation: the whole FROM clause is one group, encoded
  exactly like GROUP BY over a constant key.  Like the paper's NULL-free
  semantics (and Cosette), the result is *empty* — not one NULL/zero
  row — when the (post-WHERE) input is empty.
* **Commutative arithmetic** (``+``/``*``) canonicalizes its operand
  order during resolution, so ``a+b`` and ``b+a`` compile to the same
  core term.  The core ``Func`` stays uninterpreted; the reordering is
  justified because the concrete evaluator always interprets these
  symbols as integer addition/multiplication.

Schema layout conventions:

* a table with columns ``c₀ ... c_{m-1}`` has the right-nested schema
  ``node (leaf τ₀) (node (leaf τ₁) ( ... (leaf τ_{m-1})))``,
* a FROM clause with items ``f₀ ... f_{k-1}`` is the right-nested product
  ``node σ₀ (node σ₁ ( ... σ_{k-1}))``,
* the context at depth *d* of nesting is ``node (node (... ) f_{d-1}) ...``
  — each enclosing scope is one ``Left`` step away (Figure 6).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..core import ast
from ..core.schema import (
    BOOL,
    EMPTY,
    FLOAT,
    INT,
    Leaf,
    Node,
    SQLType,
    STRING,
    Schema,
)
from ..errors import ReproError
from . import nast

#: Core function symbol for each infix arithmetic operator.
_BINOP_FUNCS = {"+": "add", "-": "sub", "*": "mul", "/": "div"}

#: The inverse map — core symbols the decompiler and pretty-printer
#: render back as infix operators.
ARITHMETIC_FUNCS = {name: op for op, name in _BINOP_FUNCS.items()}

#: Operators whose operand order is canonicalized at resolution.
_COMMUTATIVE_FUNCS = frozenset({"add", "mul"})


class ResolutionError(ReproError):
    """Raised when names cannot be resolved against the catalog/scopes."""


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

@dataclass
class Catalog:
    """Named table schemas: table → ordered (column, type) list."""

    tables: Dict[str, Tuple[Tuple[str, SQLType], ...]] = field(
        default_factory=dict)

    def add_table(self, name: str, columns: Sequence[Tuple[str, SQLType]]
                  ) -> None:
        """Declare a table."""
        if name in self.tables:
            raise ResolutionError(f"table {name!r} already declared")
        names = [c for c, _ in columns]
        if len(set(names)) != len(names):
            raise ResolutionError(f"duplicate column names in {name!r}")
        self.tables[name] = tuple(columns)

    def columns(self, name: str) -> Tuple[Tuple[str, SQLType], ...]:
        if name not in self.tables:
            raise ResolutionError(f"unknown table {name!r}")
        return self.tables[name]

    def schema_of(self, name: str) -> Schema:
        """The right-nested unnamed schema of a table."""
        return columns_to_schema(self.columns(name))


def columns_to_schema(columns: Sequence[Tuple[str, SQLType]]) -> Schema:
    """Right-nested schema tree for an ordered column list."""
    if not columns:
        return EMPTY
    leaves: List[Schema] = [Leaf(ty) for _, ty in columns]
    schema = leaves[-1]
    for leaf_schema in reversed(leaves[:-1]):
        schema = Node(leaf_schema, schema)
    return schema


def column_steps(count: int, index: int) -> Tuple[str, ...]:
    """Path to column ``index`` in a right-nested ``count``-column schema."""
    if not 0 <= index < count:
        raise ResolutionError(f"column index {index} out of range")
    if count == 1:
        return ()
    if index == count - 1:
        return ("R",) * (count - 1)
    return ("R",) * index + ("L",)


# ---------------------------------------------------------------------------
# Scopes
# ---------------------------------------------------------------------------

@dataclass
class Binding:
    """One FROM item visible in a scope."""

    alias: str
    columns: Tuple[Tuple[str, SQLType], ...]
    steps: Tuple[str, ...]   # path from the frame tuple to this item's tuple


@dataclass
class Frame:
    """One query scope: its FROM tuple's schema and bindings."""

    bindings: List[Binding]
    schema: Schema


@dataclass
class Resolved:
    """A compiled query with its output description."""

    query: ast.Query
    schema: Schema
    columns: Tuple[Tuple[str, SQLType], ...]


def _frame_steps(count: int, index: int) -> Tuple[str, ...]:
    """Path to FROM item ``index`` in the right-nested product of ``count``."""
    if count == 1:
        return ()
    if index == count - 1:
        return ("R",) * (count - 1)
    return ("R",) * index + ("L",)


class Resolver:
    """Compiles named queries against a catalog."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._fresh = itertools.count()

    # -- queries -----------------------------------------------------------

    def resolve_query(self, query: nast.NQuery,
                      env: Tuple[Frame, ...] = ()) -> Resolved:
        """Compile a named query in an environment of enclosing scopes."""
        if isinstance(query, nast.NSelect):
            return self._resolve_select(query, env)
        if isinstance(query, nast.NUnionAll):
            left = self.resolve_query(query.left, env)
            right = self.resolve_query(query.right, env)
            self._check_compatible(left, right, "UNION ALL")
            return Resolved(ast.UnionAll(left.query, right.query),
                            left.schema, left.columns)
        if isinstance(query, nast.NExcept):
            left = self.resolve_query(query.left, env)
            right = self.resolve_query(query.right, env)
            self._check_compatible(left, right, "EXCEPT")
            return Resolved(ast.Except(left.query, right.query),
                            left.schema, left.columns)
        raise ResolutionError(f"unknown query node: {query!r}")

    def _check_compatible(self, left: Resolved, right: Resolved,
                          op: str) -> None:
        if left.schema != right.schema:
            raise ResolutionError(
                f"{op} branches have incompatible schemas: "
                f"{left.schema} vs {right.schema}")

    def _resolve_select(self, select: nast.NSelect,
                        env: Tuple[Frame, ...]) -> Resolved:
        if select.having is not None:
            select = desugar_having(select, self._fresh)
        if select.group_by is not None:
            select = desugar_group_by(select, self._fresh)
        elif any(isinstance(item.expr, nast.NAggCall)
                 for item in select.items):
            select = desugar_scalar_agg(select, self._fresh)
        # FROM clause: compile the items and build the frame.
        compiled_items: List[Resolved] = []
        bindings: List[Binding] = []
        aliases = [item.alias for item in select.from_items]
        if len(set(aliases)) != len(aliases):
            raise ResolutionError(f"duplicate FROM aliases: {aliases}")
        count = len(select.from_items)
        for index, item in enumerate(select.from_items):
            if isinstance(item.source, str):
                columns = self.catalog.columns(item.source)
                schema = self.catalog.schema_of(item.source)
                compiled = Resolved(ast.Table(item.source, schema), schema,
                                    columns)
            else:
                compiled = self.resolve_query(item.source, env)
            compiled_items.append(compiled)
            bindings.append(Binding(alias=item.alias,
                                    columns=compiled.columns,
                                    steps=_frame_steps(count, index)))
        from_query = ast.from_clauses(*[c.query for c in compiled_items])
        frame_schema = compiled_items[-1].schema
        for compiled in reversed(compiled_items[:-1]):
            frame_schema = Node(compiled.schema, frame_schema)
        frame = Frame(bindings=bindings, schema=frame_schema)
        inner_env = env + (frame,)

        body = from_query
        if select.where is not None:
            predicate = self._resolve_pred(select.where, inner_env)
            body = ast.Where(body, predicate)

        if select.items:
            projections: List[ast.Projection] = []
            out_columns: List[Tuple[str, SQLType]] = []
            for i, item in enumerate(select.items):
                proj, name, ty = self._resolve_select_item(item, i, inner_env)
                projections.append(proj)
                out_columns.append((name, ty))
            projection = ast.proj_tuple(*projections)
            body = ast.Select(projection, body)
            schema = columns_to_schema(out_columns)
            columns = tuple(out_columns)
        else:
            # SELECT *: keep the whole frame tuple; columns are the
            # concatenation of the bindings' columns.
            schema = frame_schema
            columns = tuple((f"{b.alias}.{c}", ty)
                            for b in bindings for c, ty in b.columns)

        if select.distinct:
            body = ast.Distinct(body)
        return Resolved(body, schema, columns)

    def _resolve_select_item(self, item: nast.NSelectItem, index: int,
                             env: Tuple[Frame, ...]
                             ) -> Tuple[ast.Projection, str, SQLType]:
        expr = item.expr
        if isinstance(expr, nast.NColumn):
            steps, ty = self._column_steps(expr, env)
            name = item.alias or expr.column
            return ast.steps_to_proj(steps), name, ty
        compiled, ty = self._resolve_expr(expr, env)
        name = item.alias or f"col{index}"
        return ast.E2P(compiled, ty), name, ty

    # -- predicates -----------------------------------------------------------

    def _resolve_pred(self, pred: nast.NPred,
                      env: Tuple[Frame, ...]) -> ast.Predicate:
        if isinstance(pred, nast.NComparison):
            left, lty = self._resolve_expr(pred.left, env)
            right, rty = self._resolve_expr(pred.right, env)
            if lty != rty:
                raise ResolutionError(
                    f"comparison between different types {lty} and {rty}")
            if pred.op == "=":
                return ast.PredEq(left, right)
            if pred.op in ("<>", "!="):
                return ast.PredNot(ast.PredEq(left, right))
            op_name = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge"}[pred.op]
            return ast.PredFunc(op_name, (left, right))
        if isinstance(pred, nast.NAnd):
            return ast.PredAnd(self._resolve_pred(pred.left, env),
                               self._resolve_pred(pred.right, env))
        if isinstance(pred, nast.NOr):
            return ast.PredOr(self._resolve_pred(pred.left, env),
                              self._resolve_pred(pred.right, env))
        if isinstance(pred, nast.NNot):
            return ast.PredNot(self._resolve_pred(pred.operand, env))
        if isinstance(pred, nast.NBoolLit):
            return ast.PredTrue() if pred.value else ast.PredFalse()
        if isinstance(pred, nast.NExists):
            resolved = self.resolve_query(pred.query, env)
            return ast.Exists(resolved.query)
        raise ResolutionError(f"unknown predicate node: {pred!r}")

    # -- expressions ------------------------------------------------------------

    def _resolve_expr(self, expr: nast.NExpr, env: Tuple[Frame, ...]
                      ) -> Tuple[ast.Expression, SQLType]:
        if isinstance(expr, nast.NColumn):
            steps, ty = self._column_steps(expr, env)
            return ast.P2E(ast.steps_to_proj(steps), ty), ty
        if isinstance(expr, nast.NLiteral):
            value = expr.value
            if isinstance(value, bool):
                return ast.Const(value, BOOL), BOOL
            if isinstance(value, int):
                return ast.Const(value, INT), INT
            if isinstance(value, str):
                return ast.Const(value, STRING), STRING
            raise ResolutionError(f"unsupported literal {value!r}")
        if isinstance(expr, nast.NFuncCall):
            args = []
            for arg in expr.args:
                compiled, _ = self._resolve_expr(arg, env)
                args.append(compiled)
            # Scalar functions are uninterpreted ints by convention.
            return ast.Func(expr.name, tuple(args), INT), INT
        if isinstance(expr, nast.NBinOp):
            left, lty = self._resolve_expr(expr.left, env)
            right, rty = self._resolve_expr(expr.right, env)
            if lty != rty:
                raise ResolutionError(
                    f"arithmetic {expr.op!r} between different types "
                    f"{lty} and {rty}")
            if lty not in (INT, FLOAT):
                raise ResolutionError(
                    f"arithmetic {expr.op!r} over non-numeric type {lty}")
            name = _BINOP_FUNCS[expr.op]
            args = (left, right)
            if name in _COMMUTATIVE_FUNCS and repr(right) < repr(left):
                args = (right, left)
            return ast.Func(name, args, lty), lty
        if isinstance(expr, nast.NAggQuery):
            resolved = self.resolve_query(expr.query, env)
            if not isinstance(resolved.schema, Leaf):
                raise ResolutionError(
                    f"aggregate {expr.name} needs a single-column subquery")
            return ast.Agg(expr.name, resolved.query, INT), INT
        if isinstance(expr, nast.NAggCall):
            raise ResolutionError(
                f"aggregate {expr.name} may only appear as a top-level "
                f"SELECT item (scalar aggregation) or under GROUP BY, "
                f"not nested inside an expression or predicate")
        raise ResolutionError(f"unknown expression node: {expr!r}")

    # -- column lookup -------------------------------------------------------------

    def _column_steps(self, column: nast.NColumn, env: Tuple[Frame, ...]
                      ) -> Tuple[Tuple[str, ...], SQLType]:
        """Full path from the current context tuple to the column."""
        depth = len(env)
        if depth == 0:
            raise ResolutionError(
                f"column {column.column!r} referenced outside any FROM scope")
        for frame_index in range(depth - 1, -1, -1):
            frame = env[frame_index]
            hit = self._lookup_in_frame(column, frame)
            if hit is None:
                continue
            binding, col_index, ty = hit
            # The context tuple is node (node (... outer ...) f_{d-1}); the
            # innermost frame is one Right step, each level outwards adds
            # a Left step (paper Figure 6).
            prefix = ("L",) * (depth - 1 - frame_index) + ("R",)
            col_path = column_steps(len(binding.columns), col_index)
            return prefix + binding.steps + col_path, ty
        where = f"{column.table}.{column.column}" if column.table \
            else column.column
        raise ResolutionError(f"cannot resolve column reference {where!r}")

    def _lookup_in_frame(self, column: nast.NColumn, frame: Frame):
        candidates = []
        for binding in frame.bindings:
            if column.table is not None and binding.alias != column.table:
                continue
            for index, (name, ty) in enumerate(binding.columns):
                if name == column.column or name.endswith("." + column.column):
                    candidates.append((binding, index, ty))
        if not candidates:
            return None
        if len(candidates) > 1:
            raise ResolutionError(
                f"ambiguous column reference {column.column!r}")
        return candidates[0]


# ---------------------------------------------------------------------------
# GROUP BY / scalar-aggregate / HAVING desugaring (paper Sec. 4.2) — at the
# named level
# ---------------------------------------------------------------------------

def _rename_from(select: nast.NSelect, fresh
                 ) -> Tuple[List[nast.NFromItem], Dict[str, str]]:
    """Fresh aliases for an inner (per-group) copy of the FROM clause."""
    rename: Dict[str, str] = {}
    inner_from = []
    for item in select.from_items:
        new_alias = f"{item.alias}${next(fresh)}"
        rename[item.alias] = new_alias
        inner_from.append(nast.NFromItem(source=item.source, alias=new_alias))
    return inner_from, rename


def _rename_expr(expr: nast.NExpr, rename: Dict[str, str]) -> nast.NExpr:
    if isinstance(expr, nast.NColumn):
        if expr.table is None:
            # Bare columns inside the subquery bind to the inner copy.
            return expr
        return nast.NColumn(rename.get(expr.table, expr.table), expr.column)
    if isinstance(expr, nast.NFuncCall):
        return nast.NFuncCall(expr.name, tuple(
            _rename_expr(a, rename) for a in expr.args))
    if isinstance(expr, nast.NBinOp):
        return nast.NBinOp(expr.op, _rename_expr(expr.left, rename),
                           _rename_expr(expr.right, rename))
    if isinstance(expr, nast.NAggCall):
        return nast.NAggCall(expr.name, _rename_expr(expr.arg, rename))
    if isinstance(expr, nast.NAggQuery):
        return nast.NAggQuery(expr.name, _rename_query(expr.query, rename))
    return expr


def _rename_pred(pred: nast.NPred, rename: Dict[str, str]) -> nast.NPred:
    if isinstance(pred, nast.NComparison):
        return nast.NComparison(pred.op, _rename_expr(pred.left, rename),
                                _rename_expr(pred.right, rename))
    if isinstance(pred, nast.NAnd):
        return nast.NAnd(_rename_pred(pred.left, rename),
                         _rename_pred(pred.right, rename))
    if isinstance(pred, nast.NOr):
        return nast.NOr(_rename_pred(pred.left, rename),
                        _rename_pred(pred.right, rename))
    if isinstance(pred, nast.NNot):
        return nast.NNot(_rename_pred(pred.operand, rename))
    if isinstance(pred, nast.NExists):
        # Correlated subqueries see the enclosing aliases, so the
        # per-group renaming must reach inside them — leaving ``R.a``
        # untouched here would re-correlate the EXISTS against the
        # *outer* row instead of the group member.
        return nast.NExists(_rename_query(pred.query, rename))
    return pred


def _rename_query(query: nast.NQuery, rename: Dict[str, str]) -> nast.NQuery:
    """Apply an alias renaming throughout a subquery.

    Aliases the subquery redefines in its own FROM clause shadow the
    enclosing ones, so they drop out of the renaming for that scope's
    items/WHERE/GROUP BY/HAVING (derived-table sources are still
    compiled in the enclosing scope and keep the full map).
    """
    if isinstance(query, nast.NUnionAll):
        return nast.NUnionAll(_rename_query(query.left, rename),
                              _rename_query(query.right, rename))
    if isinstance(query, nast.NExcept):
        return nast.NExcept(_rename_query(query.left, rename),
                            _rename_query(query.right, rename))
    if isinstance(query, nast.NSelect):
        from_items = tuple(
            nast.NFromItem(
                source=item.source if isinstance(item.source, str)
                else _rename_query(item.source, rename),
                alias=item.alias)
            for item in query.from_items)
        shadowed = {item.alias for item in query.from_items}
        inner = {old: new for old, new in rename.items()
                 if old not in shadowed}
        return nast.NSelect(
            distinct=query.distinct,
            items=tuple(nast.NSelectItem(_rename_expr(item.expr, inner),
                                         item.alias)
                        for item in query.items),
            from_items=from_items,
            where=(None if query.where is None
                   else _rename_pred(query.where, inner)),
            group_by=(None if query.group_by is None
                      else _rename_expr(query.group_by, inner)),
            having=(None if query.having is None
                    else _rename_pred(query.having, inner)))
    return query


def desugar_group_by(select: nast.NSelect, fresh=itertools.count()
                     ) -> nast.NSelect:
    """Rewrite GROUP BY into DISTINCT + correlated aggregate subqueries.

    ``SELECT k, SUM(g) FROM R GROUP BY k`` becomes::

        SELECT DISTINCT k, SUM((SELECT g FROM R AS R$i WHERE R$i.k = R.k))
        FROM R

    following the paper's Sec. 4.2 construction.  Non-aggregate select
    items must be the grouping column.
    """
    group = select.group_by
    assert group is not None
    if not select.items:
        raise ResolutionError("GROUP BY requires an explicit select list")

    inner_from, rename = _rename_from(select, fresh)

    def rn_expr(expr: nast.NExpr) -> nast.NExpr:
        return _rename_expr(expr, rename)

    def rn_pred(pred: nast.NPred) -> nast.NPred:
        return _rename_pred(pred, rename)

    # Qualify both sides of the correlation explicitly: a bare grouping
    # column would otherwise resolve to the inner scope on both sides.
    if group.table is None:
        if len(select.from_items) != 1:
            raise ResolutionError(
                "GROUP BY over multiple FROM items requires a qualified "
                "grouping column")
        outer_alias = select.from_items[0].alias
    else:
        outer_alias = group.table
    outer_group = nast.NColumn(outer_alias, group.column)
    inner_group = nast.NColumn(rename[outer_alias], group.column)
    correlation = nast.NComparison("=", inner_group, outer_group)
    inner_where: nast.NPred = correlation
    if select.where is not None:
        inner_where = nast.NAnd(rn_pred(select.where), correlation)

    items: List[nast.NSelectItem] = []
    for item in select.items:
        expr = item.expr
        if isinstance(expr, nast.NAggCall):
            subquery = nast.NSelect(
                distinct=False,
                items=(nast.NSelectItem(rn_expr(expr.arg), None),),
                from_items=tuple(inner_from),
                where=inner_where,
                group_by=None)
            items.append(nast.NSelectItem(
                nast.NAggQuery(expr.name, subquery), item.alias))
        elif isinstance(expr, nast.NColumn) and expr.column == group.column:
            items.append(item)
        else:
            raise ResolutionError(
                "non-aggregate select item under GROUP BY must be the "
                "grouping column")

    return nast.NSelect(distinct=True, items=tuple(items),
                        from_items=select.from_items, where=select.where,
                        group_by=None)


def desugar_scalar_agg(select: nast.NSelect, fresh=itertools.count()
                       ) -> nast.NSelect:
    """Rewrite ungrouped aggregates as single-group aggregation.

    ``SELECT COUNT(b) FROM R WHERE p`` becomes::

        SELECT DISTINCT COUNT((SELECT R$i.b FROM R AS R$i WHERE p$i))
        FROM R WHERE p

    — the Sec. 4.2 GROUP BY construction with the whole (filtered) FROM
    clause as the one group.  The subquery is uncorrelated, so DISTINCT
    collapses the per-row copies to a single output row; when no row
    survives ``p`` the result is empty (the paper's NULL-free semantics:
    no NULL/zero row is invented, matching Cosette rather than the SQL
    standard).
    """
    assert select.group_by is None
    for item in select.items:
        if not isinstance(item.expr, nast.NAggCall):
            raise ResolutionError(
                "mixing aggregate and non-aggregate select items "
                "requires GROUP BY")

    inner_from, rename = _rename_from(select, fresh)
    inner_where = None
    if select.where is not None:
        inner_where = _rename_pred(select.where, rename)

    items: List[nast.NSelectItem] = []
    for item in select.items:
        agg = item.expr
        subquery = nast.NSelect(
            distinct=False,
            items=(nast.NSelectItem(_rename_expr(agg.arg, rename), None),),
            from_items=tuple(inner_from),
            where=inner_where,
            group_by=None)
        items.append(nast.NSelectItem(
            nast.NAggQuery(agg.name, subquery), item.alias))

    return nast.NSelect(distinct=True, items=tuple(items),
                        from_items=select.from_items, where=select.where,
                        group_by=None)


def desugar_having(select: nast.NSelect, fresh=itertools.count()
                   ) -> nast.NSelect:
    """Rewrite HAVING as a filter over the grouped subquery (Sec. 4.2).

    ``SELECT k, SUM(b) AS s FROM R GROUP BY k HAVING h`` becomes::

        SELECT k, s FROM (SELECT k, SUM(b) AS s FROM R GROUP BY k) h$i
        WHERE h'

    where ``h'`` re-targets every aggregate call and grouping-column
    reference in ``h`` at the derived table's output columns.  Aggregates
    mentioned only in HAVING are added to the inner select list under
    fresh aliases (and projected away by the outer select).  Any other
    column reference is a resolution error: HAVING sees groups, not rows.
    """
    assert select.having is not None
    if not select.items:
        raise ResolutionError("HAVING requires an explicit select list")
    group = select.group_by

    inner_items = list(select.items)
    names: List[str] = []
    for index, item in enumerate(inner_items):
        if item.alias is not None:
            names.append(item.alias)
        elif isinstance(item.expr, nast.NColumn):
            names.append(item.expr.column)
        else:
            names.append(f"col{index}")
    outer_names = list(names)
    if len(set(names)) != len(names):
        raise ResolutionError(
            f"HAVING requires distinct output column names, got {names}")
    halias = f"h${next(fresh)}"

    def column_for_agg(agg: nast.NAggCall) -> nast.NColumn:
        for item, name in zip(inner_items, names):
            if item.expr == agg:
                return nast.NColumn(halias, name)
        name = f"agg${next(fresh)}"
        inner_items.append(nast.NSelectItem(agg, name))
        names.append(name)
        return nast.NColumn(halias, name)

    def column_for_group_key(column: nast.NColumn) -> nast.NColumn:
        for item, name in zip(inner_items, names):
            if isinstance(item.expr, nast.NColumn) \
                    and item.expr.column == group.column:
                return nast.NColumn(halias, name)
        name = f"grp${next(fresh)}"
        inner_items.append(nast.NSelectItem(
            nast.NColumn(group.table, group.column), name))
        names.append(name)
        return nast.NColumn(halias, name)

    def rw_expr(expr: nast.NExpr) -> nast.NExpr:
        if isinstance(expr, nast.NAggCall):
            return column_for_agg(expr)
        if isinstance(expr, nast.NColumn):
            if group is not None and expr.column == group.column \
                    and (expr.table is None or group.table is None
                         or expr.table == group.table):
                return column_for_group_key(expr)
            where = f"{expr.table}.{expr.column}" if expr.table \
                else expr.column
            raise ResolutionError(
                f"HAVING references non-grouped, non-aggregate column "
                f"{where!r} (only the GROUP BY column and aggregates may "
                f"appear in HAVING)")
        if isinstance(expr, nast.NBinOp):
            return nast.NBinOp(expr.op, rw_expr(expr.left),
                               rw_expr(expr.right))
        if isinstance(expr, nast.NFuncCall):
            return nast.NFuncCall(expr.name,
                                  tuple(rw_expr(a) for a in expr.args))
        return expr

    def rw_pred(pred: nast.NPred) -> nast.NPred:
        if isinstance(pred, nast.NComparison):
            return nast.NComparison(pred.op, rw_expr(pred.left),
                                    rw_expr(pred.right))
        if isinstance(pred, nast.NAnd):
            return nast.NAnd(rw_pred(pred.left), rw_pred(pred.right))
        if isinstance(pred, nast.NOr):
            return nast.NOr(rw_pred(pred.left), rw_pred(pred.right))
        if isinstance(pred, nast.NNot):
            return nast.NNot(rw_pred(pred.operand))
        if isinstance(pred, nast.NBoolLit):
            return pred
        raise ResolutionError(
            f"unsupported predicate in HAVING: {pred!r}")

    having = rw_pred(select.having)
    inner = nast.NSelect(distinct=select.distinct, items=tuple(inner_items),
                         from_items=select.from_items, where=select.where,
                         group_by=select.group_by, having=None)
    outer_items = tuple(
        nast.NSelectItem(nast.NColumn(halias, name), name)
        for name in outer_names)
    return nast.NSelect(distinct=False, items=outer_items,
                        from_items=(nast.NFromItem(inner, halias),),
                        where=having, group_by=None)


# ---------------------------------------------------------------------------
# Top-level convenience
# ---------------------------------------------------------------------------

def compile_sql(source: str, catalog: Catalog) -> Resolved:
    """Parse and resolve a SQL string against a catalog."""
    from .parser import parse
    resolver = Resolver(catalog)
    return resolver.resolve_query(parse(source))

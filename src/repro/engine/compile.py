"""Flat-program compilation of HoTTSQL queries for repeated evaluation.

The tree-walking evaluator in :mod:`repro.engine.eval` re-dispatches on
AST node classes for *every* row of *every* instance it evaluates — fine
for a single oracle run, ruinous for the bounded-exhaustive disprover,
which evaluates the same two queries on hundreds of thousands of
enumerated instances.

This module compiles a query **once** into a flat program.  Row-level
work — projections, predicates, scalar expressions — is *generated as
inline Python source* (pure tuple indexing and operator syntax) and
``exec``-ed into place.  A projection chain like
``Compose(LeftP, Duplicate(RightP, LeftP))`` evaluates as the expression
``(g[0][1], g[0][0])``, not as a tree of closure calls.  All per-query
decisions are made at compile time:

* fused SELECT-FROM-WHERE blocks — each maximal chain of ``Select``,
  ``Where`` and ``Product`` nodes becomes *one* generated loop nest, the
  paper's ``Σ_{r,s} R(r)·S(s)·[b(r,s)]·[p(r,s) = t]`` read literally:
  one ``for`` per input, each predicate as an ``if`` inside its input's
  loops, and the product of the inputs' counts added to the projected
  row.  No intermediate product or filtered dict is built, and a
  comparison bound to the stock ``operator.lt``/``le``/``gt``/``ge``/
  ``eq``/``ne`` is emitted as its infix operator;
* materialization boundaries — ``DISTINCT``, ``EXCEPT``, ``UNION ALL``
  and the subqueries of ``EXISTS`` and aggregates stay closures that
  return a dict; a fused block calls them and scans the result like a
  table.  A chain deeper than CPython's limit of 20 nested loops a
  function is split the same way: subtrees past the block's depth
  budget compile as blocks of their own;
* symbol resolution — scalar functions, aggregates, comparison
  predicates, and metavariable bindings (from a base
  :class:`~repro.engine.database.Interpretation`) are looked up once and
  bound as closure parameters of the generated code;
* semiring specialization — multiplicities evaluate by *counting*:
  plain ``int`` arithmetic under ``NAT``, native boolean operations
  under ``BOOL``.  Exotic semirings (``NAT_INF`` cardinals, tropical,
  provenance polynomials) raise :class:`CompileError` so callers fall
  back to the generic interpreter — the disprover's differential suite
  pins the two evaluators to each other on the supported semirings;
* relation representation — a relation is a plain ``dict`` mapping rows
  to non-zero counts (the disprover's cached instance batches build
  these dicts once per enumerated table instance and share them across
  every product combination), so evaluating one instance allocates no
  :class:`~repro.semiring.krelation.KRelation` objects at all.

Compiled signature convention: every query becomes
``f(rels, g) -> Dict[row, count]`` where ``rels`` is the tuple of
per-table instance dicts, positionally indexed by the table order fixed
at compile time, and ``g`` is the context tuple (``()`` for closed
queries).  Under ``NAT``, ``SELECT r.a FROM R r, S s WHERE r.b < s.b``
compiles to::

    def _fn(rels, g):
        out = {}
        _get = out.get
        for _r1, _a2 in rels[0].items():
            for _r3, _a4 in rels[1].items():
                if (_r1[1] < _r3[1]):
                    _k = _r1[0]
                    out[_k] = _get(_k, 0) + _a2 * _a4
        return out
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core import ast
from ..semiring.krelation import KRelation
from ..semiring.semirings import BOOL, NAT, Semiring
from .database import Interpretation
from .eval import EvaluationError

#: Semirings the counting compiler supports.  ``NAT`` counts with plain
#: ints, ``BOOL`` with native bools; everything else falls back to the
#: generic interpreter.
COMPILED_SEMIRINGS = (NAT, BOOL)

QueryFn = Callable[[Tuple[Dict[Any, Any], ...], Any], Dict[Any, Any]]


class CompileError(EvaluationError):
    """The query (or semiring) is outside the compiled evaluator's domain.

    Subclasses :class:`~repro.engine.eval.EvaluationError` so call sites
    that already treat "cannot evaluate concretely" as an abstention
    handle "cannot compile" the same way.  The disprover catches it and
    falls back to the tree-walking interpreter.
    """


class CompiledPair:
    """Two queries compiled against one shared table layout.

    ``differs(rels)`` is the disprover's hot call: evaluate both sides
    on one instance and report whether they disagree.
    """

    __slots__ = ("lhs", "rhs", "table_order", "semiring")

    def __init__(self, lhs: QueryFn, rhs: QueryFn,
                 table_order: Tuple[str, ...], semiring: Semiring) -> None:
        self.lhs = lhs
        self.rhs = rhs
        self.table_order = table_order
        self.semiring = semiring

    def differs(self, rels: Tuple[Dict[Any, Any], ...]) -> bool:
        return self.lhs(rels, ()) != self.rhs(rels, ())

    def evaluate(self, rels: Tuple[Dict[Any, Any], ...]
                 ) -> Tuple[Dict[Any, Any], Dict[Any, Any]]:
        return self.lhs(rels, ()), self.rhs(rels, ())


def relation_to_counts(rel: KRelation, semiring: Semiring) -> Dict[Any, Any]:
    """A K-relation as the plain count dict the compiled programs consume."""
    if rel.semiring is not semiring:
        raise CompileError(
            f"relation is annotated over {rel.semiring.name}, compilation "
            f"requested over {semiring.name}")
    return {row: annot for row, annot in rel.items()}


def counts_to_relation(counts: Dict[Any, Any],
                       semiring: Semiring) -> KRelation:
    """Rehydrate a compiled result into a K-relation (for records/tests)."""
    return KRelation(semiring, counts)


def compile_pair(q1: ast.Query, q2: ast.Query,
                 table_order: Sequence[str],
                 interp: Optional[Interpretation] = None,
                 semiring: Semiring = NAT) -> CompiledPair:
    """Compile two closed queries over one positional table layout.

    Args:
        q1, q2: the queries (may reference metavariables, provided
            ``interp`` binds them).
        table_order: the table names whose instances arrive positionally
            in ``rels``; any other table must be a constant relation in
            ``interp`` and is baked into the program.
        interp: metavariable bindings and constant relations, resolved
            **at compile time**.
        semiring: must be one of :data:`COMPILED_SEMIRINGS`.
    """
    compiler = _Compiler(table_order, interp, semiring)
    return CompiledPair(compiler.query(q1), compiler.query(q2),
                        tuple(table_order), semiring)


def compile_query(query: ast.Query, table_order: Sequence[str],
                  interp: Optional[Interpretation] = None,
                  semiring: Semiring = NAT) -> QueryFn:
    """Compile one query; see :func:`compile_pair` for the conventions."""
    return _Compiler(table_order, interp, semiring).query(query)


# ---------------------------------------------------------------------------
# Row-level code generation
# ---------------------------------------------------------------------------
#
# Row-level terms are represented as code fragments while compiling:
# ``("atom", text)`` is an opaque Python expression, ``("pair", a, b)``
# a tuple construction whose components are still addressable — so
# ``LeftP`` applied to a pair fragment selects the component *at compile
# time* instead of emitting ``(...)[0]``.  The fragments reference
# runtime objects (interpreter symbols, constants, compiled subqueries)
# through names bound by an :class:`_Env`, which become parameters of
# the generated factory function — closure variables at run time.

_Code = Tuple[Any, ...]


def _atom(text: str) -> _Code:
    return ("atom", text)


def _render(code: _Code) -> str:
    if code[0] == "atom":
        return code[1]
    return f"({_render(code[1])}, {_render(code[2])})"


def _component(code: _Code, index: int) -> _Code:
    if code[0] == "pair":
        return code[1 + index]
    return _atom(f"{_render(code)}[{index}]")


class _Env:
    """Runtime objects referenced from generated source, by fresh name."""

    def __init__(self) -> None:
        self.values: Dict[str, Any] = {}

    def bind(self, obj: Any) -> str:
        name = f"_b{len(self.values)}"
        self.values[name] = obj
        return name


#: The row context of a fused block: its ``g`` parameter.
_G = _atom("g")

#: Fragments cheap enough to re-evaluate at every use: names and
#: constant subscripts of names.
_PLAIN = re.compile(r"\(\)|[A-Za-z_]\w*(\[\d+\])*")

#: Comparison callables emitted as the infix operator.  Matched by
#: identity, so any other binding of a comparison symbol (a rule
#: instantiator's own ``lt``, say) is still called.
_INFIX = ((operator.lt, "<"), (operator.le, "<="), (operator.gt, ">"),
          (operator.ge, ">="), (operator.eq, "=="), (operator.ne, "!="))

#: Operators a fused block absorbs; every other one is a boundary.
_FUSED = (ast.Select, ast.Where, ast.Product)

#: Loop plus ``if`` levels one fused block may open.  CPython refuses
#: more than 20 statically nested loops in one function, so a deeper
#: chain materializes subtrees as their own blocks.
_MAX_LEVELS = 16


class _Block:
    """One fused loop nest under construction (see ``_Compiler._fused``)."""

    def __init__(self) -> None:
        self.env = _Env()
        self.head: List[str] = []      # materialized inputs, computed once
        self.body: List[str] = []      # the loop nest, indented
        self.weights: List[str] = []   # per-loop count variables (NAT)
        self.projects = False          # a Select may map two rows to one
        self.sink: Optional[Callable[[_Code, int], None]] = None
        self._names = 0

    def fresh(self, prefix: str) -> str:
        self._names += 1
        return f"{prefix}{self._names}"

    def line(self, depth: int, text: str) -> None:
        self.body.append(f"{'    ' * depth}{text}\n")

    def share(self, code: _Code, depth: int) -> _Code:
        """Assign each computed leaf of ``code`` to a local, so a row that
        later operators read several times is computed once."""
        if code[0] == "pair":
            return ("pair", self.share(code[1], depth),
                    self.share(code[2], depth))
        if _PLAIN.fullmatch(code[1]):
            return code
        name = self.fresh("_v")
        self.line(depth, f"{name} = {code[1]}")
        return _atom(name)


def _build(source_body: str, env: _Env):
    """exec a factory around ``source_body`` and close over the env.

    ``source_body`` must define ``_fn`` at one level of indentation; the
    env's names are the factory's parameters, so references inside the
    generated code are fast closure loads, not globals.
    """
    names = list(env.values)
    source = (f"def _make({', '.join(names)}):\n"
              f"{source_body}"
              f"    return _fn\n")
    namespace: Dict[str, Any] = {}
    exec(source, namespace)  # noqa: S102 - source is generated right here
    return namespace["_make"](*(env.values[n] for n in names))


class _Compiler:
    """One compilation context: table slots + resolved symbols + mode."""

    def __init__(self, table_order: Sequence[str],
                 interp: Optional[Interpretation],
                 semiring: Semiring) -> None:
        if semiring not in COMPILED_SEMIRINGS:
            raise CompileError(
                f"semiring {semiring.name!r} is outside the counting "
                f"compiler's domain (supported: "
                f"{', '.join(s.name for s in COMPILED_SEMIRINGS)})")
        self.slots = {name: i for i, name in enumerate(table_order)}
        self.interp = interp if interp is not None else Interpretation()
        self.semiring = semiring
        self.nat = semiring is NAT

    def _lookup(self, getter: Callable[[str], Any], name: str) -> Any:
        try:
            return getter(name)
        except KeyError as exc:
            raise CompileError(str(exc)) from exc

    # -- queries -------------------------------------------------------------
    #
    # Select/Where/Product chains compile to one fused loop nest (below);
    # every other operator is a materializing closure, called once per
    # instance, whose result a fused block scans like a table.

    def query(self, q: ast.Query) -> QueryFn:
        if isinstance(q, _FUSED):
            return self._fused(q)

        if isinstance(q, ast.Table):
            slot = self.slots.get(q.name)
            if slot is not None:
                return lambda rels, g, _i=slot: rels[_i]
            baked = self._baked(q)
            return lambda rels, g, _d=baked: _d

        if isinstance(q, ast.UnionAll):
            left, right = self.query(q.left), self.query(q.right)
            if self.nat:
                def union_nat(rels, g, _l=left, _r=right):
                    out = dict(_l(rels, g))
                    get = out.get
                    for row, annot in _r(rels, g).items():
                        out[row] = get(row, 0) + annot
                    return out
                return union_nat

            def union_bool(rels, g, _l=left, _r=right):
                out = dict(_l(rels, g))
                out.update(_r(rels, g))
                return out
            return union_bool

        if isinstance(q, ast.Except):
            left, right = self.query(q.left), self.query(q.right)

            # R EXCEPT S = λt. R(t) × (‖S(t)‖ → 0): full multiplicity
            # iff absent from S — support membership, in every positive
            # semiring.
            def except_run(rels, g, _l=left, _r=right):
                rhs = _r(rels, g)
                return {row: annot for row, annot in _l(rels, g).items()
                        if row not in rhs}
            return except_run

        if isinstance(q, ast.Distinct):
            child = self.query(q.query)
            one = 1 if self.nat else True

            def distinct_run(rels, g, _c=child, _one=one):
                return dict.fromkeys(_c(rels, g), _one)
            return distinct_run

        raise CompileError(f"cannot compile query node: {q!r}")

    def _baked(self, q: ast.Table) -> Dict[Any, Any]:
        """A table outside the positional layout: a constant of ``interp``."""
        rel = self._lookup(self.interp.relation, q.name)
        return relation_to_counts(rel, self.semiring)

    # -- fused select-project-join blocks ------------------------------------

    def _fused(self, q: ast.Query) -> QueryFn:
        """One generated loop nest computing a Select/Where/Product chain.

        ``Σ_{r,s} R(r)·S(s)·[b(r,s)]·[p(r,s) = t]`` read literally: one
        loop per input, each predicate as an ``if`` inside its input's
        loops, and the product of the inputs' counts added to the
        projected row — no intermediate product or filtered dict.
        """
        block = _Block()

        def sink(row: _Code, depth: int) -> None:
            key = _render(row)
            if not self.nat:
                block.line(depth, f"out[{key}] = True")
            elif not block.projects:
                # Table rows, row pairs and filtered rows are all
                # distinct, so without a projection each key is new.
                block.line(depth, f"out[{key}] = {' * '.join(block.weights)}")
            else:
                block.line(depth, f"_k = {key}")
                block.line(depth, f"out[_k] = _get(_k, 0) + "
                                  f"{' * '.join(block.weights)}")

        block.sink = sink
        self._produce(q, _MAX_LEVELS, block, 2, sink)
        prologue = ["        out = {}\n"]
        if self.nat and block.projects:
            prologue.append("        _get = out.get\n")
        prologue.extend(f"        {line}\n" for line in block.head)
        body = ("    def _fn(rels, g):\n" + "".join(prologue)
                + "".join(block.body) + "        return out\n")
        return _build(body, block.env)

    def _produce(self, q: ast.Query, budget: int, block: "_Block",
                 depth: int, consume: Callable[[_Code, int], None]) -> None:
        """Emit the loops producing ``q``'s rows (produce/consume style).

        ``consume(row, depth)`` emits the code that handles one row
        fragment at indentation ``depth``.  ``q`` may open at most
        ``budget`` loop and ``if`` levels; a subtree that cannot fit is
        materialized through :meth:`query` and scanned as one loop.
        """
        if not isinstance(q, _FUSED) or budget <= 1 < self._levels(q):
            self._scan(self._source(q, block), block, depth, consume)
            return

        if isinstance(q, ast.Select):
            block.projects = True

            def project(row: _Code, d: int) -> None:
                image = self.projection(q.projection, ("pair", _G, row),
                                        block.env)
                if consume is not block.sink:
                    image = block.share(image, d)
                consume(image, d)
            self._produce(q.query, budget, block, depth, project)
            return

        if isinstance(q, ast.Where):
            def select(row: _Code, d: int) -> None:
                cond = self.predicate(q.predicate, ("pair", _G, row),
                                      block.env)
                block.line(d, f"if {_render(cond)}:")
                consume(row, d + 1)
            self._produce(q.query, budget - 1, block, depth, select)
            return

        left, right = self._levels(q.left), self._levels(q.right)
        if left + right <= budget:
            left_budget, right_budget = budget - right, right
        elif left >= right:
            right_budget = min(right, budget // 2)
            left_budget = budget - right_budget
        else:
            left_budget = min(left, budget // 2)
            right_budget = budget - left_budget

        def pair_left(lrow: _Code, d: int) -> None:
            def pair_right(rrow: _Code, d2: int) -> None:
                consume(("pair", lrow, rrow), d2)
            self._produce(q.right, right_budget, block, d, pair_right)
        self._produce(q.left, left_budget, block, depth, pair_left)

    def _levels(self, q: ast.Query) -> int:
        """Loop and ``if`` levels ``q`` opens when fused without limit."""
        if isinstance(q, ast.Select):
            return self._levels(q.query)
        if isinstance(q, ast.Where):
            return self._levels(q.query) + 1
        if isinstance(q, ast.Product):
            return self._levels(q.left) + self._levels(q.right)
        return 1

    def _source(self, q: ast.Query, block: "_Block") -> str:
        """The dict a fused block scans for ``q``: a table input, a baked
        constant, or a materialized subquery computed once per call."""
        if isinstance(q, ast.Table):
            slot = self.slots.get(q.name)
            if slot is not None:
                return f"rels[{slot}]"
            return block.env.bind(self._baked(q))
        name = block.fresh("_m")
        block.head.append(f"{name} = {block.env.bind(self.query(q))}(rels, g)")
        return name

    def _scan(self, source: str, block: "_Block", depth: int,
              consume: Callable[[_Code, int], None]) -> None:
        row = block.fresh("_r")
        if self.nat:
            weight = block.fresh("_a")
            block.weights.append(weight)
            block.line(depth, f"for {row}, {weight} in {source}.items():")
        else:
            block.line(depth, f"for {row} in {source}:")
        consume(_atom(row), depth + 1)

    # -- predicates (generated source over the context fragment) ------------

    def predicate(self, p: ast.Predicate, var: _Code, env: _Env) -> _Code:
        if isinstance(p, ast.PredEq):
            left = _render(self.expression(p.left, var, env))
            right = _render(self.expression(p.right, var, env))
            return _atom(f"({left} == {right})")
        if isinstance(p, ast.PredAnd):
            left = _render(self.predicate(p.left, var, env))
            right = _render(self.predicate(p.right, var, env))
            return _atom(f"({left} and {right})")
        if isinstance(p, ast.PredOr):
            left = _render(self.predicate(p.left, var, env))
            right = _render(self.predicate(p.right, var, env))
            return _atom(f"({left} or {right})")
        if isinstance(p, ast.PredNot):
            operand = _render(self.predicate(p.operand, var, env))
            return _atom(f"(not {operand})")
        if isinstance(p, ast.PredTrue):
            return _atom("True")
        if isinstance(p, ast.PredFalse):
            return _atom("False")
        if isinstance(p, ast.Exists):
            ref = env.bind(self.query(p.query))
            return _atom(f"bool({ref}(rels, {_render(var)}))")
        if isinstance(p, ast.CastPred):
            recast = self.projection(p.projection, var, env)
            return self.predicate(p.predicate, recast, env)
        if isinstance(p, ast.PredVar):
            ref = env.bind(self._lookup(self.interp.predicate, p.name))
            return _atom(f"{ref}({_render(var)})")
        if isinstance(p, ast.PredFunc):
            fn = self._lookup(self.interp.predicate, p.name)
            args = [_render(self.expression(a, var, env)) for a in p.args]
            if len(args) == 2:
                for op, symbol in _INFIX:
                    if fn is op:
                        return _atom(f"({args[0]} {symbol} {args[1]})")
            return _atom(f"{env.bind(fn)}({', '.join(args)})")
        raise CompileError(f"cannot compile predicate node: {p!r}")

    # -- expressions ---------------------------------------------------------

    def expression(self, e: ast.Expression, var: _Code, env: _Env) -> _Code:
        if isinstance(e, ast.P2E):
            return self.projection(e.projection, var, env)
        if isinstance(e, ast.Const):
            return _atom(env.bind(e.value))
        if isinstance(e, ast.Func):
            ref = env.bind(self._lookup(self.interp.function, e.name))
            args = ", ".join(_render(self.expression(a, var, env))
                             for a in e.args)
            return _atom(f"{ref}({args})")
        if isinstance(e, ast.Agg):
            fn_ref = env.bind(self._lookup(self.interp.aggregate, e.name))
            q_ref = env.bind(self.query(e.query))
            if self.nat:
                return _atom(
                    f"{fn_ref}(list({q_ref}(rels, {_render(var)}).items()))")
            return _atom(f"{fn_ref}([(_ar, 1) for _ar in "
                         f"{q_ref}(rels, {_render(var)})])")
        if isinstance(e, ast.CastExpr):
            recast = self.projection(e.projection, var, env)
            return self.expression(e.expression, recast, env)
        if isinstance(e, ast.ExprVar):
            ref = env.bind(self._lookup(self.interp.expression, e.name))
            return _atom(f"{ref}({_render(var)})")
        raise CompileError(f"cannot compile expression node: {e!r}")

    # -- projections ---------------------------------------------------------

    def projection(self, p: ast.Projection, var: _Code, env: _Env) -> _Code:
        if isinstance(p, ast.Star):
            return var
        if isinstance(p, ast.LeftP):
            return _component(var, 0)
        if isinstance(p, ast.RightP):
            return _component(var, 1)
        if isinstance(p, ast.EmptyP):
            return _atom("()")
        if isinstance(p, ast.Compose):
            return self.projection(p.second,
                                   self.projection(p.first, var, env), env)
        if isinstance(p, ast.Duplicate):
            return ("pair", self.projection(p.left, var, env),
                    self.projection(p.right, var, env))
        if isinstance(p, ast.E2P):
            return self.expression(p.expression, var, env)
        if isinstance(p, ast.PVar):
            ref = env.bind(self._lookup(self.interp.projection, p.name))
            return _atom(f"{ref}({_render(var)})")
        raise CompileError(f"cannot compile projection node: {p!r}")


__all__ = [
    "COMPILED_SEMIRINGS",
    "CompileError",
    "CompiledPair",
    "compile_pair",
    "compile_query",
    "counts_to_relation",
    "relation_to_counts",
]

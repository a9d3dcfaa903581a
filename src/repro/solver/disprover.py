"""Bounded-exhaustive disprover: Cosette-style counterexample search.

Random testing (:mod:`repro.engine.random_instances`) gives *evidence*;
this module gives *guarantees*.  It systematically enumerates **every**
database instance in which each table holds at most ``max_rows`` distinct
tuples over a small finite domain, each with multiplicity at most
``max_multiplicity``, evaluates both queries under the paper's semiring
semantics, and reports the first disagreement.  When the enumeration
completes without one, the result is a quantified negative: *no
counterexample exists up to the bound* — the small-model half of Cosette's
prove-or-disprove loop.

The search engine is built for compile-once/evaluate-many throughput:

* the tuple space and the per-table instance descriptors (support index
  combination + multiplicity vector) are computed once per
  (schema, bound) and cached process-wide;
* under ``NAT``/``BOOL`` both queries are compiled
  (:mod:`repro.engine.compile`): each SELECT-FROM-WHERE block becomes
  one generated loop nest over plain count dicts — no per-instance AST
  dispatch, no intermediate product or filtered dict, no
  :class:`KRelation` allocation; exotic semirings fall back to the
  tree-walking interpreter;
* the instance space is the product of the per-table descriptor lists,
  scanned in canonical order, so the first witness — a mixed-radix
  index into that product — is the smallest one and
  ``instances_checked`` is exact;
* every witness — compiled or not — is re-evaluated through the
  reference interpreter before being reported, so a DISPROVED verdict
  never rests on the compiled evaluator alone.

Two entry points:

* :func:`disprove` — for closed queries over concrete table schemas
  (everything the SQL frontend produces),
* :func:`disprove_rule` — for generic rewrite rules: the rule's own
  instantiator fixes the metavariables (attribute paths, predicates), and
  the table contents are then enumerated exhaustively instead of sampled.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from ..analysis.infer import (AnalysisContext, EMPTY_CONTEXT,
                              infer_properties, iter_ast,
                              supports_determined)
from ..core import ast
from ..core.equivalence import Hypotheses
from ..core.schema import Schema, enumerate_tuples, tuple_flatten, tuple_of
from ..engine.compile import CompileError, compile_pair
from ..engine.database import Interpretation
from ..engine.eval import run_query
from ..engine.random_instances import Counterexample
from ..obs.metrics import counter, histogram
from ..semiring.krelation import KRelation
from ..semiring.semirings import NAT, Semiring
from .verdict import BoundInfo, CounterexampleRecord

#: Domains intentionally smaller than the random falsifier's defaults: the
#: instance count is exponential in |domain|, and two distinguishable
#: values per type already separate every rewrite in the corpus.
SMALL_DOMAINS: Dict[str, Tuple[Any, ...]] = {
    "int": (0, 1),
    "bool": (False, True),
    "string": ("a", "b"),
    "float": (0.0, 1.0),
}

@dataclass(frozen=True)
class Bound:
    """The instance space to exhaust, hashable and picklable."""

    max_rows: int = 2
    max_multiplicity: int = 2
    domains: Tuple[Tuple[str, Tuple[Any, ...]], ...] = tuple(
        sorted(SMALL_DOMAINS.items()))

    @staticmethod
    def of(max_rows: int = 2, max_multiplicity: int = 2,
           domains: Optional[Dict[str, Tuple[Any, ...]]] = None) -> "Bound":
        return Bound(max_rows, max_multiplicity,
                     tuple(sorted((domains or SMALL_DOMAINS).items())))

    def domain_dict(self) -> Dict[str, Tuple[Any, ...]]:
        return dict(self.domains)

    def info(self, instances_checked: int, exhausted: bool) -> BoundInfo:
        return BoundInfo(max_rows=self.max_rows,
                         max_multiplicity=self.max_multiplicity,
                         domains=self.domains,
                         instances_checked=instances_checked,
                         exhausted=exhausted)


@dataclass
class DisproofResult:
    """Outcome of a bounded-exhaustive search."""

    counterexample: Optional[Counterexample]
    record: Optional[CounterexampleRecord]
    bound: Bound
    instances_checked: int
    exhausted: bool

    @property
    def found(self) -> bool:
        return self.counterexample is not None

    def info(self) -> BoundInfo:
        return self.bound.info(self.instances_checked, self.exhausted)


# ---------------------------------------------------------------------------
# Query analysis: what would we have to enumerate?
# ---------------------------------------------------------------------------

def free_tables(query: ast.Query) -> Dict[str, Schema]:
    """All base tables of a query, name → schema (conflicts are errors)."""
    out: Dict[str, Schema] = {}
    for node in iter_ast(query):
        if isinstance(node, ast.Table):
            known = out.get(node.name)
            if known is not None and known != node.schema:
                raise ValueError(
                    f"table {node.name!r} used at two schemas: "
                    f"{known} vs {node.schema}")
            out[node.name] = node.schema
    return out


def has_metavariables(query: ast.Query) -> bool:
    """True when the query quantifies over schemas/predicates/attributes.

    Such queries describe *families* of concrete queries; they cannot be
    enumerated directly and need an instantiator (see
    :func:`disprove_rule`).
    """
    for node in iter_ast(query):
        if isinstance(node, (ast.PredVar, ast.ExprVar, ast.PVar)):
            return True
        if isinstance(node, ast.Table) and not node.schema.is_concrete:
            return True
    return False


# ---------------------------------------------------------------------------
# Instance enumeration
# ---------------------------------------------------------------------------
#
# The instance space of one table is described *symbolically* once per
# (schema, bound): the tuple space becomes an indexable array, and each
# instance becomes a descriptor — (support tuple-indices, multiplicity
# vector) — in a fixed canonical order (support size ascending, index
# combinations lexicographic, multiplicity assignments in product order).
# Everything downstream (K-relation enumeration, count-dict batches for
# the compiled evaluator, witness reconstruction) indexes into these
# cached arrays instead of re-materializing them.

@lru_cache(maxsize=256)
def _tuple_space(schema: Schema,
                 domains: Tuple[Tuple[str, Tuple[Any, ...]], ...]
                 ) -> Tuple[Any, ...]:
    """The enumerated tuple space of a schema, cached per (schema, domains)."""
    return tuple(enumerate_tuples(schema, dict(domains)))


@lru_cache(maxsize=128)
def _instance_descriptors(
        schema: Schema, bound: Bound
) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]:
    """Every instance of ``schema`` within ``bound`` as (support, mults).

    Supports are index-combinations into :func:`_tuple_space`; each
    support row independently takes each multiplicity in
    ``1..max_multiplicity``.  The order is canonical and shared by every
    consumer — position ``i`` here *is* instance ``i`` of the table.
    """
    n = len(_tuple_space(schema, bound.domains))
    mults = tuple(range(1, bound.max_multiplicity + 1))
    out: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    for size in range(0, bound.max_rows + 1):
        for support in itertools.combinations(range(n), size):
            for assignment in itertools.product(mults, repeat=size):
                out.append((support, assignment))
    return tuple(out)


@lru_cache(maxsize=64)
def _count_batches(schema: Schema, bound: Bound,
                   nat: bool) -> Tuple[Dict[Any, Any], ...]:
    """The table's instances as the count dicts the compiled closures eat.

    ``nat=True`` → ``{row: multiplicity}``; ``nat=False`` (BOOL) →
    ``{row: True}``.  One dict per descriptor, shared and cached — the
    compiled evaluator never mutates its inputs, so the whole batch is
    built once per (schema, bound, mode) for the life of the process.
    """
    tuples = _tuple_space(schema, bound.domains)
    out: List[Dict[Any, Any]] = []
    for support, mults in _instance_descriptors(schema, bound):
        if nat:
            out.append({tuples[t]: m for t, m in zip(support, mults)})
        else:
            out.append({tuples[t]: True for t in support})
    return tuple(out)


def _relation_from_descriptor(schema: Schema, bound: Bound,
                              desc: Tuple[Tuple[int, ...], Tuple[int, ...]],
                              semiring: Semiring) -> KRelation:
    tuples = _tuple_space(schema, bound.domains)
    support, mults = desc
    rel = KRelation(semiring)
    for t, m in zip(support, mults):
        rel.add(tuples[t], semiring.from_int(m))
    return rel


def enumerate_relations(schema: Schema, bound: Bound,
                        semiring: Semiring = NAT) -> Iterator[KRelation]:
    """Every K-relation over ``schema`` within ``bound``, smallest first.

    Supports are subsets (no permutations) of the tuple space; every
    support row independently takes each multiplicity in
    ``1..max_multiplicity``.  The tuple space and the descriptor list are
    cached per (schema, bound), so multi-table products and repeated
    searches no longer re-materialize them.
    """
    for desc in _instance_descriptors(schema, bound):
        yield _relation_from_descriptor(schema, bound, desc, semiring)


def count_relations(schema: Schema, bound: Bound) -> int:
    """Size of :func:`enumerate_relations`'s space (sanity/reporting)."""
    n = len(_tuple_space(schema, bound.domains))
    m = bound.max_multiplicity
    total = 0
    for size in range(0, bound.max_rows + 1):
        total += _choose(n, size) * (m ** size)
    return total


def _choose(n: int, k: int) -> int:
    if k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


# ---------------------------------------------------------------------------
# The disprover proper
# ---------------------------------------------------------------------------

def disprove(q1: ast.Query, q2: ast.Query,
             tables: Optional[Dict[str, Schema]] = None,
             bound: Bound = Bound(),
             semiring: Semiring = NAT,
             base_interp: Optional[Interpretation] = None,
             max_instances: Optional[int] = None,
             hyps: Optional[Hypotheses] = None,
             analyze: bool = True,
             use_compiled: Optional[bool] = None) -> DisproofResult:
    """Exhaust all instances within ``bound`` looking for a disagreement.

    Args:
        q1, q2: the two (closed) queries.
        tables: name → concrete schema of the relations to enumerate;
            inferred from the queries when omitted.
        bound: the instance space (rows × multiplicities × domains).
        semiring: the multiplicity semiring to evaluate under.
        base_interp: an interpretation providing metavariable bindings
            (predicates, projections, ...); its *relations* are replaced
            by the enumeration.
        max_instances: optional safety valve; when hit, the result is
            marked non-exhausted.
        hyps: integrity constraints the rewrite assumes; enumerated
            instances that violate them are not counterexamples and are
            skipped.  When a constraint cannot be evaluated concretely
            (its key projection is not bound in ``base_interp``) the
            search aborts empty rather than report a spurious witness.
        analyze: consult the static analysis tier
            (:mod:`repro.analysis`) to prune the instance space before
            enumerating.  Both prunes are lossless: queries proved empty
            on *every* instance cannot disagree anywhere, and when both
            sides are support-determined (``DISTINCT``-rooted,
            aggregate-free) multiplicities above 1 cannot create a
            disagreement that multiplicity 1 misses.  Off switch exists
            for benchmarking the unpruned search.
        use_compiled: ``None`` (default) compiles under NAT/BOOL and
            falls back to the interpreter elsewhere; ``False`` forces
            the interpreter (the benchmark baseline); ``True`` demands
            compilation and lets :class:`CompileError` propagate.
    """
    started = time.perf_counter()
    counter("disprover.searches_total").inc()
    if tables is None:
        tables = dict(free_tables(q1))
        for name, schema in free_tables(q2).items():
            known = tables.get(name)
            if known is not None and known != schema:
                raise ValueError(f"table {name!r} used at two schemas")
            tables[name] = schema
    for name, schema in tables.items():
        if not schema.is_concrete:
            raise ValueError(
                f"cannot enumerate instances of table {name!r} with "
                f"non-concrete schema {schema}")
    if analyze:
        ctx = AnalysisContext.from_hypotheses(hyps) if hyps is not None \
            else EMPTY_CONTEXT
        if infer_properties(q1, ctx).empty and infer_properties(q2, ctx).empty:
            # Both sides denote the empty bag on *every* instance
            # satisfying ``hyps`` — no instance can tell them apart, so
            # the whole bound is exhausted without enumerating at all.
            counter("analysis.disprover.static_equal").inc()
            return DisproofResult(None, None, bound, 0, exhausted=True)
        if bound.max_multiplicity > 1 and supports_determined(q1) \
                and supports_determined(q2):
            # Support-determined outputs (DISTINCT-rooted, aggregate-
            # free) are functions of which rows each table holds, never
            # of their multiplicities, so any disagreement visible at
            # multiplicity ≤ k is already visible at multiplicity 1.
            # Clamping shrinks the product space exponentially and — by
            # that argument — loses no counterexamples; the reported
            # bound is the clamped one actually searched, with the
            # original covered by implication.
            counter("analysis.disprover.mult_clamped").inc()
            bound = replace(bound, max_multiplicity=1)
    names = sorted(tables)

    pair = None
    if use_compiled is None or use_compiled:
        try:
            pair = compile_pair(q1, q2, tuple(names), base_interp, semiring)
        except CompileError:
            if use_compiled:
                raise
    counter("disprover.compiled_total" if pair is not None
            else "disprover.interpreted_total").inc()

    # Per-table evaluation spaces.  ``valid[i]`` maps a position in the
    # searched space back to the canonical descriptor index (None = the
    # identity, i.e. no constraint filtered anything).
    spaces: List[Sequence[Any]] = []
    valid: List[Optional[List[int]]] = []
    for name in names:
        schema = tables[name]
        checkers = _constraint_checkers(name, hyps, base_interp, semiring)
        if checkers is None:
            return DisproofResult(None, None, bound, 0, exhausted=False)
        if pair is not None:
            space: Sequence[Any] = _count_batches(schema, bound,
                                                  semiring is NAT)
        else:
            space = list(enumerate_relations(schema, bound, semiring))
        if checkers:
            keep = [i for i, rel in enumerate(space)
                    if all(check(rel) for check in checkers)]
            space = [space[i] for i in keep]
            valid.append(keep)
        else:
            valid.append(None)
        spaces.append(space)

    if pair is not None:
        evaluate: Callable[[Tuple[Any, ...]], bool] = pair.differs
    else:
        def evaluate(combo: Tuple[Any, ...]) -> bool:
            interp = _with_relations(base_interp, names, combo, tables)
            return (run_query(q1, interp, semiring)
                    != run_query(q2, interp, semiring))
    witness, checked, exhausted = _search_serial(evaluate, spaces,
                                                 max_instances)

    if witness is not None:
        radices = [len(space) for space in spaces]
        cx, record = _witness_at(q1, q2, names, tables, bound, semiring,
                                 base_interp, valid, radices, witness)
        result = DisproofResult(cx, record, bound, witness + 1,
                                exhausted=False)
        counter("disprover.witnesses_total").inc()
    else:
        result = DisproofResult(None, None, bound, checked, exhausted)
    counter("disprover.instances_total").inc(result.instances_checked)
    histogram("disprover.search.seconds").observe(
        time.perf_counter() - started)
    return result


def _search_serial(evaluate: Callable[[Tuple[Any, ...]], bool],
                   spaces: Sequence[Sequence[Any]],
                   max_instances: Optional[int]
                   ) -> Tuple[Optional[int], int, bool]:
    """In-process scan; returns (witness index, instances checked, exhausted)."""
    checked = 0
    for combo in itertools.product(*spaces):
        if max_instances is not None and checked >= max_instances:
            return None, checked, False
        checked += 1
        if evaluate(combo):
            return checked - 1, checked, False
    return None, checked, True


def _decode(index: int, radices: Sequence[int]) -> List[int]:
    out = [0] * len(radices)
    for k in range(len(radices) - 1, -1, -1):
        index, out[k] = divmod(index, radices[k])
    return out


def _witness_at(q1: ast.Query, q2: ast.Query, names: List[str],
                tables: Dict[str, Schema], bound: Bound, semiring: Semiring,
                base_interp: Optional[Interpretation],
                valid: Sequence[Optional[List[int]]],
                radices: Sequence[int], witness: int
                ) -> Tuple[Counterexample, CounterexampleRecord]:
    """Reconstruct instance ``witness`` and certify it with the interpreter.

    This is the differential parity guarantee in production: no matter
    which evaluator found the disagreement, the
    reported counterexample is re-derived by the reference interpreter.
    A compiled hit the interpreter cannot confirm is a hard error, never
    a verdict.
    """
    positions = _decode(witness, radices)
    combo = []
    for name, keep, pos in zip(names, valid, positions):
        schema = tables[name]
        desc_index = pos if keep is None else keep[pos]
        desc = _instance_descriptors(schema, bound)[desc_index]
        combo.append(_relation_from_descriptor(schema, bound, desc, semiring))
    interp = _with_relations(base_interp, names, tuple(combo), tables)
    lhs = run_query(q1, interp, semiring)
    rhs = run_query(q2, interp, semiring)
    if lhs == rhs:
        raise RuntimeError(
            f"disprover parity violation: instance #{witness + 1} separated "
            f"the queries under the compiled evaluator but not under the "
            f"reference interpreter")
    cx = Counterexample(
        trial=witness, lhs_query=q1, rhs_query=q2,
        interpretation=interp, lhs_result=lhs, rhs_result=rhs)
    record = counterexample_record(cx, tables, note=(
        f"found by bounded-exhaustive search, instance #{witness + 1}"))
    return cx, record


def _constraint_checkers(name: str, hyps: Optional[Hypotheses],
                         interp: Optional[Interpretation],
                         semiring: Semiring):
    """Predicates enforcing ``hyps`` on table ``name``'s instances.

    Key semantics (paper Sec. 4.2): a keyed relation is set-valued and its
    key projection is injective on the support.  An FD ``a → b`` requires
    equal ``a``-projections to force equal ``b``-projections.  Returns
    ``None`` when a relevant constraint's projection cannot be resolved —
    the caller must then refuse to enumerate rather than produce
    constraint-violating "counterexamples".  The checkers only touch
    ``rel.items()``, so they accept K-relations and plain count dicts
    alike.
    """
    if hyps is None:
        return []
    checkers = []
    for key in hyps.keys:
        if key.rel != name:
            continue
        proj = _resolve_projection(interp, key.proj)
        if proj is None:
            return None

        def key_ok(rel, proj=proj):
            seen: Dict[Any, Any] = {}
            for row, mult in rel.items():
                if mult != semiring.one:
                    return False
                k = proj(row)
                if k in seen and seen[k] != row:
                    return False
                seen[k] = row
            return True

        checkers.append(key_ok)
    for fd in hyps.fds:
        if fd.rel != name:
            continue
        source = _resolve_projection(interp, fd.source)
        target = _resolve_projection(interp, fd.target)
        if source is None or target is None:
            return None

        def fd_ok(rel, source=source, target=target):
            seen: Dict[Any, Any] = {}
            for row, _ in rel.items():
                s, t = source(row), target(row)
                if s in seen and seen[s] != t:
                    return False
                seen[s] = t
            return True

        checkers.append(fd_ok)
    return checkers


def _resolve_projection(interp: Optional[Interpretation], name: str):
    if interp is None:
        return None
    try:
        return interp.projection(name)
    except KeyError:
        return None


def _with_relations(base: Optional[Interpretation], names: List[str],
                    relations: Tuple[KRelation, ...],
                    schemas: Dict[str, Schema]) -> Interpretation:
    interp = Interpretation()
    if base is not None:
        interp.predicates.update(base.predicates)
        interp.projections.update(base.projections)
        interp.expressions.update(base.expressions)
        interp.functions.update(base.functions)
        interp.aggregates.update(base.aggregates)
        interp.relations.update(base.relations)
        interp.schemas.update(base.schemas)
    for name, rel in zip(names, relations):
        interp.relations[name] = rel
        interp.schemas[name] = schemas[name]
    return interp


def disprove_factory(factory, bound: Bound = Bound(), draws: int = 3,
                     seed: int = 0, semiring: Semiring = NAT,
                     max_instances: Optional[int] = None,
                     hyps: Optional[Hypotheses] = None,
                     use_compiled: Optional[bool] = None) -> DisproofResult:
    """Bounded-exhaustive search driven by an instance factory.

    The factory (a rule's instantiator) fixes schemas and metavariable
    bindings — attribute paths, predicate functions; for each of ``draws``
    instantiations the table contents are then enumerated exhaustively
    instead of sampled (restricted to instances satisfying ``hyps``).
    The budget ``max_instances`` is shared across draws.  Instantiated
    searches still use the compiled evaluator (the bindings resolve at
    compile time).
    """
    total_checked = 0
    exhausted_all = True
    for draw in range(draws):
        lhs, rhs, interp = factory(random.Random(seed + draw))
        tables = {name: interp.schemas[name] for name in interp.relations}
        remaining = (None if max_instances is None
                     else max(0, max_instances - total_checked))
        if remaining == 0:
            exhausted_all = False
            break
        result = disprove(lhs, rhs, tables, bound, semiring,
                          base_interp=interp, max_instances=remaining,
                          hyps=hyps, use_compiled=use_compiled)
        total_checked += result.instances_checked
        if result.found:
            return replace(result, instances_checked=total_checked)
        exhausted_all = exhausted_all and result.exhausted
    return DisproofResult(None, None, bound, total_checked,
                          exhausted=exhausted_all)


def disprove_rule(rule, bound: Bound = Bound(), draws: int = 3,
                  seed: int = 0, semiring: Semiring = NAT,
                  max_instances: Optional[int] = None,
                  use_compiled: Optional[bool] = None) -> DisproofResult:
    """Bounded-exhaustive refutation of a generic rewrite rule.

    The rule's integrity-constraint hypotheses restrict the instance
    space: a keyed relation only ranges over key-respecting instances.
    """
    if rule.instantiate is None:
        raise ValueError(f"rule {rule.name!r} has no instantiator")
    return disprove_factory(rule.instantiate, bound, draws, seed, semiring,
                            max_instances, hyps=rule.hypotheses,
                            use_compiled=use_compiled)


# ---------------------------------------------------------------------------
# Records and replay
# ---------------------------------------------------------------------------

def counterexample_record(cx: Counterexample,
                          schemas: Dict[str, Schema],
                          note: str = "") -> CounterexampleRecord:
    """Serialize an engine counterexample into replayable plain data."""
    tables = []
    for name in sorted(cx.interpretation.relations):
        rel = cx.interpretation.relations[name]
        schema = schemas.get(name, cx.interpretation.schemas.get(name))
        rows = []
        for row, mult in sorted(rel.items(), key=lambda kv: repr(kv[0])):
            flat = (tuple(tuple_flatten(schema, row))
                    if schema is not None else (row,))
            rows.append((flat, _as_int(mult)))
        tables.append((name, tuple(rows)))
    disagreements = []
    all_rows = set(cx.lhs_result.support()) | set(cx.rhs_result.support())
    for row in sorted(all_rows, key=repr):
        left = cx.lhs_result.annotation(row)
        right = cx.rhs_result.annotation(row)
        if left != right:
            disagreements.append((repr(row), repr(left), repr(right)))
    extra = ("" if not _has_callables(cx.interpretation)
             else "metavariable bindings fixed by the instantiator are "
                  "not serialized; replay via the live counterexample")
    full_note = "; ".join(p for p in (note, extra) if p)
    return CounterexampleRecord(tables=tuple(tables),
                                disagreements=tuple(disagreements),
                                note=full_note)


def _as_int(mult: Any) -> int:
    try:
        return int(mult)
    except (TypeError, ValueError):
        return 1


def _has_callables(interp: Interpretation) -> bool:
    return bool(interp.predicates or interp.projections
                or interp.expressions)


def replay(record: CounterexampleRecord, q1: ast.Query, q2: ast.Query,
           schemas: Dict[str, Schema],
           semiring: Semiring = NAT) -> Tuple[KRelation, KRelation]:
    """Re-evaluate both queries on a recorded instance.

    Only meaningful for closed queries (no metavariable callables); the
    pipeline and CLI use it to demonstrate that a DISPROVED verdict's
    instance really separates the queries.
    """
    interp = Interpretation()
    for name, rows in record.tables:
        schema = schemas[name]
        rel = KRelation(semiring)
        for flat, mult in rows:
            rel.add(tuple_of(schema, list(flat)), semiring.from_int(mult))
        interp.relations[name] = rel
        interp.schemas[name] = schema
    return run_query(q1, interp, semiring), run_query(q2, interp, semiring)


__all__ = [
    "Bound",
    "DisproofResult",
    "SMALL_DOMAINS",
    "count_relations",
    "counterexample_record",
    "disprove",
    "disprove_factory",
    "disprove_rule",
    "enumerate_relations",
    "free_tables",
    "has_metavariables",
    "replay",
]

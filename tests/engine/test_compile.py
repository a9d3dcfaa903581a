"""Differential suite: compiled evaluator vs the Figure-7 interpreter.

The flat-program compiler (:mod:`repro.engine.compile`) is the
disprover's hot path, so it is pinned to :func:`repro.engine.eval.
run_query` on a corpus of SQL shapes × random instances × semirings ×
kernel memo states (cleared, warm).  Any disagreement here is a
soundness bug: a compiled disprover could report a phantom
counterexample or miss a real one.
"""

import random

import pytest

from repro.core.intern import clear_kernel_caches
from repro.core.schema import INT, Leaf, Node
from repro.engine import (
    COMPILED_SEMIRINGS,
    CompileError,
    Interpretation,
    compile_pair,
    compile_query,
    counts_to_relation,
    random_relation,
    relation_to_counts,
    run_query,
)
from repro.semiring import BOOL, NAT, NAT_INF
from repro.semiring.krelation import KRelation
from repro.solver import Bound, disprove
from repro.sql import Catalog, compile_sql

ROW = Node(Leaf(INT), Leaf(INT))

# SQL shapes chosen to cover every compiled operator: projection,
# duplicate-elimination, selection predicates (=, AND, OR, NOT),
# products/joins, UNION ALL, EXCEPT, correlated EXISTS, constants, and
# aggregation (SUM/COUNT over GROUP BY).
CORPUS = [
    "SELECT a FROM R",
    "SELECT b, a FROM R",
    "SELECT DISTINCT a FROM R",
    "SELECT a FROM R WHERE a = 1",
    "SELECT a FROM R WHERE a = b",
    "SELECT a FROM R WHERE NOT a = 0",
    "SELECT r.a FROM R r, S s",
    "SELECT r.a, s.b FROM R r, S s WHERE r.a = s.a",
    "SELECT DISTINCT r.b FROM R r, S s WHERE r.a = s.a AND r.b = s.b",
    "SELECT a FROM R UNION ALL SELECT a FROM S",
    "SELECT a FROM R EXCEPT SELECT a FROM S",
    "SELECT DISTINCT a FROM R EXCEPT SELECT b FROM S",
    "SELECT a FROM R WHERE EXISTS (SELECT * FROM S WHERE S.a = R.a)",
    # Comparisons the compiler emits as infix operators.
    "SELECT a FROM R WHERE a < b",
    "SELECT a FROM R WHERE a <= 1",
    "SELECT b FROM R WHERE a > b",
    "SELECT a, b FROM R WHERE b >= 1",
    # A three-way join with a filter on each table: one fused loop nest.
    "SELECT r.a, t.b FROM R r, S s, T t WHERE r.b = s.a AND s.b = t.a "
    "AND r.a = 1 AND s.a <> 0 AND t.b < 1",
    # A correlated EXISTS inside a join: a subquery per joined row.
    "SELECT r.a, s.b FROM R r, S s WHERE r.a = s.a AND EXISTS "
    "(SELECT * FROM T t WHERE t.a = r.b AND t.b = s.b)",
    "SELECT a + b, a * 2 - b FROM R",
    # Derived tables: Select over Where over Select, and a computed
    # column joined against a base table.
    "SELECT x.a FROM (SELECT a, b FROM R WHERE a = 1) x WHERE x.b = 1",
    "SELECT x.c, s.b FROM (SELECT a + b AS c FROM R) x, S s "
    "WHERE x.c = s.a",
]

# Aggregates desugar to bag-valued subqueries that the reference
# interpreter always evaluates under NAT, so they are pinned under NAT
# only (matching how the disprover uses them).
NAT_ONLY_CORPUS = [
    "SELECT a, SUM(b) FROM R GROUP BY a",
    "SELECT a, COUNT(b) FROM R GROUP BY a",
    "SELECT r.a, SUM(s.b) FROM R r, S s WHERE r.a = s.a GROUP BY r.a",
]

TABLES = ("R", "S", "T")


@pytest.fixture(scope="module")
def catalog():
    cat = Catalog()
    cat.add_table("R", [("a", INT), ("b", INT)])
    cat.add_table("S", [("a", INT), ("b", INT)])
    cat.add_table("T", [("a", INT), ("b", INT)])
    return cat


def _random_interp(seed, semiring):
    rng = random.Random(seed)
    return Interpretation(relations={
        name: random_relation(rng, ROW, semiring=semiring, max_rows=3,
                              max_multiplicity=2)
        for name in TABLES})


def _assert_parity(query, interp, semiring):
    expected = run_query(query, interp, semiring)
    program = compile_query(query, TABLES, semiring=semiring)
    rels = tuple(relation_to_counts(interp.relations[n], semiring)
                 for n in TABLES)
    got = counts_to_relation(program(rels, ()), semiring)
    assert got == expected


# Each case runs twice, under the ids it had when the repo carried two
# term kernels: the "arena" pass starts from cleared kernel memo tables,
# the "object" pass reuses whatever earlier cases left warm.  A memo hit
# must answer exactly as a cold computation.
MEMO_STATES = ["arena", "object"]


def _enter_memo_state(memo):
    if memo == "arena":
        clear_kernel_caches()


@pytest.mark.parametrize("memo", MEMO_STATES)
@pytest.mark.parametrize("sql", CORPUS)
def test_compiled_matches_interpreter(memo, sql, catalog):
    _enter_memo_state(memo)
    query = compile_sql(sql, catalog).query
    for semiring in COMPILED_SEMIRINGS:
        for seed in range(8):
            _assert_parity(query, _random_interp(seed, semiring),
                           semiring)


@pytest.mark.parametrize("memo", MEMO_STATES)
@pytest.mark.parametrize("sql", NAT_ONLY_CORPUS)
def test_compiled_matches_interpreter_aggregates(memo, sql, catalog):
    _enter_memo_state(memo)
    query = compile_sql(sql, catalog).query
    for seed in range(8):
        _assert_parity(query, _random_interp(seed, NAT), NAT)


@pytest.mark.parametrize("memo", MEMO_STATES)
def test_exotic_semiring_raises_compile_error(memo, catalog):
    _enter_memo_state(memo)
    query = compile_sql("SELECT a FROM R", catalog).query
    with pytest.raises(CompileError):
        compile_pair(query, query, ("R", "S"), semiring=NAT_INF)


@pytest.mark.parametrize("memo", MEMO_STATES)
@pytest.mark.parametrize("semiring", [BOOL, NAT, NAT_INF],
                         ids=lambda s: s.name)
def test_disprover_verdict_independent_of_evaluator(memo, semiring,
                                                    catalog):
    """The full-search differential guarantee: on every semiring — the
    two compiled ones and the interpreter-fallback ``NAT_INF`` — forcing
    the interpreter and forcing (or auto-choosing) the compiled path
    must agree on witness index, accounting, and exhaustion."""
    _enter_memo_state(memo)
    pairs = [
        ("SELECT a FROM R", "SELECT DISTINCT a FROM R"),
        ("SELECT a FROM R WHERE a = 1", "SELECT a FROM R WHERE a = 1"),
    ]
    for sql1, sql2 in pairs:
        q1 = compile_sql(sql1, catalog).query
        q2 = compile_sql(sql2, catalog).query
        interp = disprove(q1, q2, bound=Bound.of(2, 2),
                          use_compiled=False, semiring=semiring)
        auto = disprove(q1, q2, bound=Bound.of(2, 2),
                        semiring=semiring)
        assert auto.found == interp.found
        assert auto.instances_checked == interp.instances_checked
        assert auto.exhausted == interp.exhausted
        if auto.found:
            assert auto.counterexample.trial \
                == interp.counterexample.trial
            assert auto.record == interp.record
        if semiring in COMPILED_SEMIRINGS:
            forced = disprove(q1, q2, bound=Bound.of(2, 2),
                              use_compiled=True, semiring=semiring)
            assert forced.found == interp.found
            assert forced.instances_checked \
                == interp.instances_checked


@pytest.mark.parametrize("semiring", COMPILED_SEMIRINGS,
                         ids=lambda s: s.name)
def test_deep_product_compiles(semiring, catalog):
    """25 tables exceed CPython's 20 nested loops a function: the
    compiler must split the block instead of emitting a SyntaxError."""
    aliases = [f"t{i}" for i in range(25)]
    sql = (f"SELECT t0.a, t24.b FROM "
           f"{', '.join(f'R {x}' for x in aliases)}")
    query = compile_sql(sql, catalog).query
    rel = KRelation(semiring)
    rel.add((0, 1), semiring.from_int(2))
    interp = Interpretation(relations={"R": rel})
    program = compile_query(query, ("R",), semiring=semiring)
    got = counts_to_relation(
        program((relation_to_counts(rel, semiring),), ()), semiring)
    assert got == run_query(query, interp, semiring)


def test_rebound_comparison_is_called(catalog):
    """Only the stock ``operator`` comparisons are inlined: a re-bound
    ``lt`` (a rule instantiator's own, say) is called per row."""
    calls = []

    def reversed_lt(x, y):
        calls.append((x, y))
        return x > y

    query = compile_sql("SELECT a FROM R WHERE a < b", catalog).query
    rel = KRelation(NAT)
    for row, mult in (((0, 1), 1), ((1, 0), 2), ((1, 1), 1)):
        rel.add(row, mult)
    interp = Interpretation(relations={"R": rel},
                            predicates={"lt": reversed_lt})
    program = compile_query(query, ("R",), interp=interp)
    got = counts_to_relation(program((relation_to_counts(rel, NAT),), ()),
                             NAT)
    assert len(calls) == 3
    assert got == run_query(query, interp, NAT)
    assert dict(got.items()) == {1: 2}

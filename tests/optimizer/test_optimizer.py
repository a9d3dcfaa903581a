"""Certified optimizer: rewrites, cost model, planner."""

import pytest
from bfs_reference import rewrites

from repro.core import ast
from repro.core.equivalence import queries_equivalent
from repro.core.schema import INT
from repro.engine import Database, run_query
from repro.optimizer import (
    TableStats,
    estimate,
    optimize,
    proj_steps,
    steps_to_proj,
)
from repro.semiring import NAT
from repro.sql import Catalog, compile_sql


@pytest.fixture
def setup():
    cat = Catalog()
    cat.add_table("Emp", [("eid", INT), ("did", INT), ("age", INT)])
    cat.add_table("Dept", [("did", INT), ("budget", INT)])
    db = Database(NAT)
    db.create_table("Emp", cat.schema_of("Emp"),
                    [[i, i % 4, 20 + i] for i in range(16)])
    db.create_table("Dept", cat.schema_of("Dept"),
                    [[0, 10], [1, 200], [2, 150], [3, 30]])
    return cat, db


class TestPathHelpers:
    def test_proj_steps_roundtrip(self):
        p = ast.path(ast.RIGHT, ast.LEFT, ast.RIGHT)
        steps = proj_steps(p)
        assert steps == ("R", "L", "R")
        assert proj_steps(steps_to_proj(steps)) == steps

    def test_opaque_projection(self):
        from repro.core.schema import Leaf, SVar
        assert proj_steps(ast.PVar("p", SVar("s"), Leaf(INT))) is None


class TestRewrites:
    def test_every_rewrite_is_sound(self, setup):
        cat, db = setup
        resolved = compile_sql(
            "SELECT e.eid FROM Emp e, Dept d "
            "WHERE e.did = d.did AND d.budget > 100 AND e.age < 30", cat)
        interp = db.interpretation()
        baseline = run_query(resolved.query, interp)
        for candidate, rule in rewrites(resolved.query):
            assert run_query(candidate, interp) == baseline, rule

    def test_rewrites_certified_by_prover(self, setup):
        cat, _ = setup
        resolved = compile_sql(
            "SELECT e.eid FROM Emp e, Dept d "
            "WHERE e.did = d.did AND d.budget > 100", cat)
        for candidate, rule in rewrites(resolved.query)[:10]:
            assert queries_equivalent(resolved.query, candidate), rule

    def test_pushdown_produced(self, setup):
        cat, _ = setup
        resolved = compile_sql(
            "SELECT e.eid FROM Emp e, Dept d "
            "WHERE e.did = d.did AND d.budget > 100", cat)
        rules_seen = set()
        frontier = [resolved.query]
        for _ in range(3):
            new = []
            for q in frontier:
                for cand, rule in rewrites(q):
                    rules_seen.add(rule)
                    new.append(cand)
            frontier = new[:50]
        assert "sel_push_right" in rules_seen

    def test_distinct_collapse(self):
        from repro.core.schema import SVar
        R = ast.Table("R", SVar("s"))
        q = ast.Distinct(ast.Distinct(R))
        assert any(rule == "distinct_idem" for _, rule in rewrites(q))


class TestCostModel:
    def test_table_cost_is_cardinality(self):
        stats = TableStats({"R": 100.0})
        from repro.core.schema import SVar
        est = estimate(ast.Table("R", SVar("s")), stats)
        assert est.cardinality == 100.0

    def test_product_cost_multiplies(self):
        from repro.core.schema import SVar
        stats = TableStats({"R": 10.0, "S": 20.0})
        q = ast.Product(ast.Table("R", SVar("a")), ast.Table("S", SVar("b")))
        est = estimate(q, stats)
        assert est.cardinality == 200.0

    def test_selection_reduces_cardinality(self):
        from repro.core.schema import Leaf, Node, SVar
        stats = TableStats({"R": 100.0})
        R = ast.Table("R", SVar("s"))
        # A statically-unknown equality gets the generic selectivity.
        a = ast.ExprVar("a", Node(SVar("g"), Leaf(INT)), INT)
        filtered = ast.Where(R, ast.PredEq(a, ast.Const(1, INT)))
        assert estimate(filtered, stats).cardinality < 100.0

    def test_tautology_does_not_reduce_cardinality(self):
        # The static-analysis fast path: WHERE 1 = 1 keeps every row, so
        # the estimate must not pretend the filter is selective.
        from repro.core.schema import SVar
        stats = TableStats({"R": 100.0})
        R = ast.Table("R", SVar("s"))
        taut = ast.Where(R, ast.PredEq(ast.Const(1, INT),
                                       ast.Const(1, INT)))
        assert estimate(taut, stats).cardinality == 100.0
        contra = ast.Where(R, ast.PredEq(ast.Const(1, INT),
                                         ast.Const(2, INT)))
        assert estimate(contra, stats).cardinality == 0.0

    def test_stats_from_database(self, setup):
        _, db = setup
        stats = TableStats.from_database(db)
        assert stats.cardinality("Emp") == 16.0
        assert stats.cardinality("unknown") == 100.0


class TestPlanner:
    def test_optimizer_improves_and_certifies(self, setup):
        cat, db = setup
        resolved = compile_sql(
            "SELECT e.eid FROM Emp e, Dept d "
            "WHERE e.did = d.did AND d.budget > 100 AND e.age < 30", cat)
        stats = TableStats.from_database(db)
        result = optimize(resolved.query, stats, max_plans=400)
        assert result.improved
        assert result.certified is True
        assert result.applied_rules

    def test_optimized_plan_computes_same_results(self, setup):
        cat, db = setup
        queries = [
            "SELECT e.eid FROM Emp e, Dept d "
            "WHERE e.did = d.did AND d.budget > 100",
            "SELECT a.eid FROM Emp a, Emp b "
            "WHERE a.did = b.did AND b.age < 25",
            "SELECT DISTINCT e.did FROM Emp e WHERE e.age < 30 AND "
            "e.eid > 2",
        ]
        stats = TableStats.from_database(db)
        interp = db.interpretation()
        for source in queries:
            resolved = compile_sql(source, cat)
            result = optimize(resolved.query, stats, max_plans=200)
            assert run_query(result.best_plan, interp) == \
                run_query(resolved.query, interp), source
            assert result.certified is True

    def test_no_rewrite_when_nothing_applies(self, setup):
        cat, db = setup
        resolved = compile_sql("SELECT eid FROM Emp", cat)
        stats = TableStats.from_database(db)
        result = optimize(resolved.query, stats, max_plans=50)
        assert result.best_cost == result.original_cost
        assert result.certified is True

    def test_certification_can_be_skipped(self, setup):
        cat, db = setup
        resolved = compile_sql("SELECT eid FROM Emp", cat)
        stats = TableStats.from_database(db)
        result = optimize(resolved.query, stats, certify=False)
        assert result.certified is None


class TestConjunctDedup:
    """Idempotent-conjunct elimination: σ_{b∧b} rewrites to σ_b, the
    selectivity model stops double-counting the repeated conjunct, and
    the planner's equal-cost size tie-break makes optimize() pick the
    dedup'd plan."""

    def test_rewrite_emitted_and_equivalent(self, setup):
        cat, db = setup
        resolved = compile_sql(
            "SELECT eid FROM Emp WHERE eid = 1 AND eid = 1", cat)
        candidates = rewrites(resolved.query)
        dedup = [q for q, rule in candidates if rule == "sel_conj_dedup"]
        assert dedup
        assert queries_equivalent(resolved.query, dedup[0])

    def test_nested_duplicates_collapse(self, setup):
        cat, _ = setup
        resolved = compile_sql(
            "SELECT eid FROM Emp WHERE eid = 1 AND (age = 2 AND eid = 1)",
            cat)
        dedup = [q for q, rule in rewrites(resolved.query)
                 if rule == "sel_conj_dedup"]
        assert dedup and queries_equivalent(resolved.query, dedup[0])

    def test_selectivity_ignores_repeats(self):
        from repro.optimizer.cost import _selectivity
        eq = ast.PredEq(ast.P2E(ast.RIGHT, INT), ast.Const(1, INT))
        assert _selectivity(ast.PredAnd(eq, eq)) == _selectivity(eq)

    def test_optimize_drops_duplicate_conjunct(self, setup):
        cat, db = setup
        resolved = compile_sql(
            "SELECT eid FROM Emp WHERE eid = 1 AND eid = 1", cat)
        stats = TableStats.from_database(db)
        result = optimize(resolved.query, stats, max_plans=100)
        assert "sel_conj_dedup" in result.applied_rules
        assert result.certified is True
        # The chosen plan has a single conjunct left.
        from repro.sql.decompile import plan_to_sql
        sql = plan_to_sql(result.best_plan, cat)
        assert sql.count("= 1") == 1


class TestPlanCache:
    """optimize() memoizes plan search per (query, stats, budgets) —
    prepared-statement style — without caching certification."""

    def test_repeat_optimize_hits_plan_cache(self):
        from repro.optimizer.planner import _PLAN_MEMO

        cat = Catalog()
        cat.add_table("Emp", [("eid", INT), ("did", INT), ("age", INT)])
        query = compile_sql(
            "SELECT eid FROM Emp WHERE eid = 1 AND eid = 1", cat).query
        stats = TableStats({"Emp": 50.0})
        first = optimize(query, stats, certify=False)
        before = _PLAN_MEMO.snapshot()["lifetime_hits"]
        second = optimize(query, stats, certify=False)
        assert _PLAN_MEMO.snapshot()["lifetime_hits"] == before + 1
        assert second.best_plan is first.best_plan
        assert second.best_cost == first.best_cost
        assert second is not first  # callers get fresh result objects

    def test_changed_stats_miss_the_cache(self):
        cat = Catalog()
        cat.add_table("Emp", [("eid", INT), ("did", INT), ("age", INT)])
        query = compile_sql("SELECT eid FROM Emp WHERE eid = 1", cat).query
        stats = TableStats({"Emp": 50.0})
        optimize(query, stats, certify=False)
        stats.cardinalities["Emp"] = 500.0  # mutated in place
        from repro.optimizer.planner import _PLAN_MEMO
        before = _PLAN_MEMO.snapshot()["lifetime_misses"]
        optimize(query, stats, certify=False)
        assert _PLAN_MEMO.snapshot()["lifetime_misses"] == before + 1

    def test_certification_not_leaked_between_callers(self):
        cat = Catalog()
        cat.add_table("Emp", [("eid", INT), ("did", INT), ("age", INT)])
        query = compile_sql(
            "SELECT eid FROM Emp WHERE eid = 2 AND eid = 2", cat).query
        stats = TableStats({"Emp": 50.0})
        uncertified = optimize(query, stats, certify=False)
        assert uncertified.certified is None
        certified = optimize(query, stats, certify=True)
        assert certified.certified is True
        again = optimize(query, stats, certify=False)
        assert again.certified is None

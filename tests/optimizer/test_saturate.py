"""Equality saturation: scheduler, budgets, extraction, provenance."""

import pytest
from bfs_reference import optimize_bfs
from test_strategies_property import EQUAL_BUDGET, SVB_CORPUS, SVB_STATS

from repro.core import ast
from repro.core.equivalence import queries_equivalent
from repro.core.schema import INT, SVar
from repro.optimizer import (
    EGraph,
    SaturationBudget,
    TableStats,
    count_plans,
    extract_best,
    optimize,
    plan_cost,
    saturate,
)
from repro.sql import Catalog, compile_sql


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.add_table("Emp", [("eid", INT), ("did", INT), ("age", INT)])
    cat.add_table("Dept", [("did", INT), ("budget", INT)])
    return cat


STATS = TableStats({"Emp": 16.0, "Dept": 4.0})

SEC513 = ("SELECT e.eid FROM Emp e, Dept d "
          "WHERE e.did = d.did AND d.budget > 100 AND e.age < 30")


def _saturated_egraph(query, **budget_kwargs):
    eg = EGraph()
    root = eg.add_term(query)
    eg.rebuild()
    stats = saturate(eg, budget=SaturationBudget(**budget_kwargs)
                     if budget_kwargs else None)
    return eg, root, stats


class TestScheduler:
    def test_reaches_fixpoint_on_small_query(self, catalog):
        q = compile_sql(SEC513, catalog).query
        _, _, stats = _saturated_egraph(q)
        assert stats.saturated
        assert stats.stop_reason == "saturated (fixpoint)"
        assert stats.iterations >= 2

    def test_node_budget_respected(self, catalog):
        q = compile_sql(SEC513, catalog).query
        eg, _, stats = _saturated_egraph(q, max_nodes=25)
        assert not stats.saturated
        assert "node budget" in stats.stop_reason
        # The budget meters *admitted* nodes; one in-flight rule firing
        # may finish, so allow its handful of nodes as slack.
        assert eg.nodes_added <= 25 + 5

    def test_iteration_budget_respected(self, catalog):
        q = compile_sql(SEC513, catalog).query
        _, _, stats = _saturated_egraph(q, max_iterations=1)
        assert stats.iterations == 1
        assert "iteration budget" in stats.stop_reason

    def test_rules_fire(self, catalog):
        q = compile_sql(SEC513, catalog).query
        _, _, stats = _saturated_egraph(q)
        assert stats.rules_fired.get("sel_split", 0) > 0
        assert stats.rules_fired.get("sel_push", 0) > 0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError, match="budgets must be positive"):
            SaturationBudget(max_iterations=0)


class TestSoundness:
    def test_every_class_member_is_equivalent(self, catalog):
        # The heart of the certification story: all members of an
        # e-class (including across rule unions + congruence) denote the
        # same relation.  Check the root class exhaustively on a small
        # workload by extracting each member as a concrete plan.
        q = compile_sql(
            "SELECT eid FROM Emp WHERE age < 30 AND did = 2",
            catalog).query
        eg, root, _ = _saturated_egraph(q)
        res = extract_best(eg, root, STATS)
        assert queries_equivalent(q, res.plan)

    @pytest.mark.parametrize("sql", [
        SEC513,
        "SELECT eid FROM Emp WHERE eid = 1 AND eid = 1",
        "SELECT u.eid FROM (SELECT eid FROM Emp UNION ALL "
        "SELECT eid FROM Emp) AS u WHERE u.eid = 1",
        "SELECT DISTINCT e.did FROM Emp e WHERE e.age < 30 AND e.eid > 2",
    ])
    def test_extracted_plan_is_equivalent(self, catalog, sql):
        q = compile_sql(sql, catalog).query
        eg, root, _ = _saturated_egraph(q)
        res = extract_best(eg, root, STATS)
        assert queries_equivalent(q, res.plan)


class TestExtraction:
    def test_extracted_cost_is_tree_cost(self, catalog):
        q = compile_sql(SEC513, catalog).query
        eg, root, _ = _saturated_egraph(q)
        res = extract_best(eg, root, STATS)
        assert res.estimate.cost == plan_cost(res.plan, STATS)

    def test_extraction_never_worse_than_original(self, catalog):
        q = compile_sql(SEC513, catalog).query
        eg, root, _ = _saturated_egraph(q)
        res = extract_best(eg, root, STATS)
        assert res.estimate.cost <= plan_cost(q, STATS)

    def test_matches_bfs_best_on_classic_workload(self, catalog):
        q = compile_sql(SEC513, catalog).query
        bfs = optimize_bfs(q, STATS, max_plans=400)
        sat = optimize(q, STATS, max_plans=400, certify=False)
        assert sat.best_cost <= bfs.best_cost
        # Equal or cheaper at an equal, tighter budget on every workload.
        for sql in SVB_CORPUS:
            q = compile_sql(sql, catalog).query
            bfs = optimize_bfs(q, SVB_STATS, max_plans=EQUAL_BUDGET)
            sat = optimize(q, SVB_STATS, max_plans=EQUAL_BUDGET,
                           certify=False)
            assert sat.best_cost <= bfs.best_cost + 1e-6, sql

    def test_duplicate_filter_stack_beats_greedy(self, catalog):
        # σ_b(A ∪ B) with a duplicated conjunct: the model-optimal plan
        # filters *below* the union — a choice a per-class greedy
        # extractor misses because the parent's cost depends on the
        # child's cardinality, not only its cost.  The Pareto extractor
        # must find a plan at least as cheap as BFS's.
        q = compile_sql(
            "SELECT u.eid FROM (SELECT eid FROM Emp UNION ALL "
            "SELECT eid FROM Emp) AS u WHERE u.eid = 1 AND u.eid = 1",
            catalog).query
        bfs = optimize_bfs(q, STATS, max_plans=400)
        sat = optimize(q, STATS, max_plans=400, certify=False)
        assert sat.best_cost <= bfs.best_cost


class TestDeepChains:
    # A pushdown → dedup → pushdown sequence: under a tight shared
    # budget, breadth-first enumeration drowns in shallow variants while
    # saturation's dedup'd e-classes reach the deep plan.
    DEEP = ("SELECT e.eid FROM Emp e, Dept d WHERE e.did = d.did AND "
            "d.budget > 100 AND e.age < 30 AND e.eid > 2 AND e.eid > 2")

    def test_saturation_finds_cheaper_plan_at_equal_budget(self, catalog):
        q = compile_sql(self.DEEP, catalog).query
        budget = 120
        bfs = optimize_bfs(q, STATS, max_plans=budget)
        sat = optimize(q, STATS, max_plans=budget, certify=False)
        assert sat.best_cost < bfs.best_cost
        assert queries_equivalent(q, sat.best_plan)

    def test_deep_chain_in_rule_provenance(self, catalog):
        q = compile_sql(self.DEEP, catalog).query
        sat = optimize(q, STATS, max_plans=400, certify=False)
        assert len(sat.applied_rules) >= 3
        assert any(r.startswith("sel_push") for r in sat.applied_rules)

    def test_explores_more_distinct_plans_than_bfs(self, catalog):
        q = compile_sql(self.DEEP, catalog).query
        budget = 120
        bfs = optimize_bfs(q, STATS, max_plans=budget)
        sat = optimize(q, STATS, max_plans=budget, certify=False)
        assert sat.plans_explored >= 2 * bfs.plans_explored
        # And in aggregate over the workload corpus.
        sat_total = bfs_total = 0
        for sql in SVB_CORPUS:
            q = compile_sql(sql, catalog).query
            bfs_total += optimize_bfs(q, SVB_STATS,
                                      max_plans=EQUAL_BUDGET).plans_explored
            sat_total += optimize(q, SVB_STATS, max_plans=EQUAL_BUDGET,
                                  certify=False).plans_explored
        assert sat_total >= 2 * bfs_total


class TestPlanCounting:
    def test_single_plan(self):
        eg = EGraph()
        root = eg.add_term(ast.Table("R", SVar("s")))
        eg.rebuild()
        assert count_plans(eg, root) == 1

    def test_counts_match_bfs_reachable_set_shape(self, catalog):
        # On an acyclic saturated e-graph the count is exact and at
        # least the number of distinct plans BFS can ever enumerate
        # *modulo* merged duplicates (the e-graph merge rule dedups
        # conjunctions at creation, BFS materializes the bloated twin).
        q = compile_sql(SEC513, catalog).query
        eg, root, stats = _saturated_egraph(q)
        assert stats.saturated
        assert count_plans(eg, root) >= 30

    def test_cyclic_class_clamps(self, catalog):
        q = compile_sql(
            "SELECT eid FROM Emp WHERE eid = 1 AND eid = 1",
            catalog).query
        eg, root, _ = _saturated_egraph(q)
        # σ_b ∘ σ_b loops make the plan space infinite; the count clamps.
        assert count_plans(eg, root, limit=1000) == 1000


class TestPlannerIntegration:
    def test_default_strategy_is_saturation(self, catalog):
        q = compile_sql(SEC513, catalog).query
        result = optimize(q, STATS, certify=False)
        assert result.saturation is not None
        assert result.saturated

    def test_certification_through_pipeline(self, catalog):
        q = compile_sql(SEC513, catalog).query
        result = optimize(q, STATS)
        assert result.certified is True
        assert result.improved

"""EXPLAIN rendering of plans."""

import pytest

from repro.core import ast
from repro.core.schema import INT
from repro.optimizer import TableStats, explain, optimize
from repro.sql import Catalog, compile_sql


@pytest.fixture
def setup():
    cat = Catalog()
    cat.add_table("R", [("a", INT), ("b", INT)])
    cat.add_table("S", [("a", INT), ("c", INT)])
    return cat, TableStats({"R": 100.0, "S": 10.0})


class TestExplain:
    def test_scan(self, setup):
        cat, stats = setup
        text = explain(compile_sql("SELECT * FROM R", cat).query, stats)
        assert "Scan R" in text
        assert "rows≈100.0" in text

    def test_join_tree_structure(self, setup):
        cat, stats = setup
        q = compile_sql(
            "SELECT x.a FROM R x, S y WHERE x.a = y.a", cat).query
        text = explain(q, stats)
        lines = text.splitlines()
        assert lines[0].startswith("Project")
        assert any("Filter" in line for line in lines)
        assert any("CrossJoin" in line for line in lines)
        assert sum("Scan" in line for line in lines) == 2
        # Indentation grows with depth.
        assert lines[1].startswith("  ")

    def test_all_operators_render(self, setup):
        cat, stats = setup
        q = compile_sql(
            "SELECT DISTINCT a FROM R EXCEPT "
            "(SELECT a FROM R UNION ALL SELECT a FROM S)", cat).query
        text = explain(q, stats)
        for op in ("Except", "Distinct", "UnionAll", "Scan"):
            assert op in text, op

    def test_optimized_plan_cheaper_in_explain(self, setup):
        cat, stats = setup
        q = compile_sql(
            "SELECT x.a FROM R x, S y WHERE x.a = y.a AND y.c = 1",
            cat).query
        result = optimize(q, stats, max_plans=200, certify=False)
        before = explain(q, stats)
        after = explain(result.best_plan, stats)
        # The pushed filter sits below the join in the optimized plan.
        assert result.best_cost < result.original_cost
        assert before != after


class TestExplainTotality:
    """Regression: explain() must be total over ast.Query — including the
    arithmetic / HAVING shapes of the generalized SQL front end, whose
    desugarings embed whole subqueries inside projections and predicates.
    """

    PR4_SHAPES = (
        "SELECT a, SUM(b) FROM R GROUP BY a",
        "SELECT a FROM R GROUP BY a HAVING SUM(b) > 10",
        "SELECT COUNT(b) FROM R",
        "SELECT a + b * 2 FROM R",
        "SELECT a FROM R WHERE a + b = 3",
        "SELECT g.a FROM (SELECT a, SUM(b) AS s FROM R GROUP BY a) g "
        "WHERE g.s = 3",
        "SELECT a, SUM(b) FROM R GROUP BY a HAVING COUNT(b) > 1",
        "SELECT SUM(a + b) FROM R",
    )

    @pytest.mark.parametrize("sql", PR4_SHAPES)
    def test_pr4_shapes_render(self, setup, sql):
        cat, stats = setup
        text = explain(compile_sql(sql, cat).query, stats)
        assert text
        assert "rows≈" in text

    @pytest.mark.parametrize("sql", PR4_SHAPES)
    def test_pr4_shapes_render_after_optimize(self, setup, sql):
        cat, stats = setup
        result = optimize(compile_sql(sql, cat).query, stats,
                          max_plans=60, certify=False)
        assert explain(result.best_plan, stats)

    def test_aggregate_subquery_gets_its_own_subtree(self, setup):
        cat, stats = setup
        q = compile_sql("SELECT a FROM R GROUP BY a HAVING SUM(b) > 10",
                        cat).query
        text = explain(q, stats)
        assert "Aggregate SUM" in text
        # The aggregate's operand renders as a costed sub-plan.
        lines = text.splitlines()
        agg_at = next(i for i, line in enumerate(lines)
                      if "Aggregate SUM" in line)
        assert "Scan R" in "\n".join(lines[agg_at:])

    def test_long_labels_are_clipped(self, setup):
        cat, stats = setup
        q = compile_sql("SELECT a, SUM(b) FROM R GROUP BY a", cat).query
        for line in explain(q, stats).splitlines():
            label = line.split("  [rows")[0]
            assert len(label.strip()) <= 100

    def test_unknown_query_node_renders_opaque(self, setup):
        _, stats = setup

        class FutureOperator(ast.Query):
            """A query constructor explain() has never heard of."""

        text = explain(FutureOperator(), stats)
        assert "Opaque FutureOperator" in text
        assert "rows≈?" in text

    def test_explain_result_renders_chain_and_tree(self, setup):
        cat, stats = setup
        from repro.optimizer import explain_result
        q = compile_sql(
            "SELECT x.a FROM R x, S y WHERE x.a = y.a AND y.c = 1",
            cat).query
        result = optimize(q, stats, max_plans=200, certify=False)
        text = explain_result(result, stats)
        assert "rewrite chain" in text
        assert "sel_push" in text
        assert "Scan R" in text

    def test_explain_result_no_rewrite(self, setup):
        cat, stats = setup
        from repro.optimizer import explain_result
        result = optimize(compile_sql("SELECT a FROM R", cat).query,
                          stats, certify=False)
        assert "(none — original plan kept)" in explain_result(result,
                                                               stats)

    def test_explain_result_marks_clamped_plan_count(self, setup):
        # A duplicated conjunct creates σ_b ∘ σ_b cycles, so the e-graph
        # represents unboundedly many plans; the count clamps and must
        # render as a lower bound, not an exact figure.
        cat, stats = setup
        from repro.optimizer import PLAN_COUNT_LIMIT, explain_result
        q = compile_sql("SELECT a FROM R WHERE a = 1 AND a = 1",
                        cat).query
        result = optimize(q, stats, certify=False)
        assert result.plans_explored == PLAN_COUNT_LIMIT
        assert f"≥{PLAN_COUNT_LIMIT} distinct plans" in \
            explain_result(result, stats)

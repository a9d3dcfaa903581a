"""Property suite over the planner and the breadth-first reference.

The planner's contract, stated as hypotheses properties:

* every extracted plan, at any budget, is certified ``PROVED`` against
  its input through the verification pipeline (zero certification
  failures across the corpus);
* equality saturation's chosen plan never costs more than the BFS
  reference's (:mod:`bfs_reference`) on the same stats (saturation runs
  to fixpoint; its e-graph then contains every BFS-reachable plan, and
  the Pareto extractor is cost-optimal over the e-graph).
"""

import pytest
from bfs_reference import optimize_bfs
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.schema import INT
from repro.optimizer import TableStats, optimize, plan_cost
from repro.solver import Status, default_pipeline
from repro.sql import Catalog, compile_sql


@pytest.fixture(scope="module")
def catalog():
    cat = Catalog()
    cat.add_table("Emp", [("eid", INT), ("did", INT), ("age", INT)])
    cat.add_table("Dept", [("did", INT), ("budget", INT)])
    return cat


#: Plan shapes covering every transformation family: splits, merges,
#: pushdown through products, distribution over unions, DISTINCT
#: collapse, duplicate conjuncts — at root and nested positions.
CORPUS = (
    "SELECT e.eid FROM Emp e, Dept d "
    "WHERE e.did = d.did AND d.budget > 100 AND e.age < 30",
    "SELECT eid FROM Emp WHERE age < 30 AND did = 2",
    "SELECT eid FROM Emp WHERE eid = 1 AND eid = 1",
    "SELECT e.eid FROM Emp AS e WHERE e.age = 1 AND e.did = 2 "
    "AND e.eid = 3",
    "SELECT a.eid FROM Emp a, Emp b WHERE a.did = b.did AND a.age < 30",
    "SELECT u.eid FROM (SELECT eid FROM Emp UNION ALL "
    "SELECT eid FROM Emp) AS u WHERE u.eid = 1",
    "SELECT DISTINCT e.did FROM Emp e WHERE e.age < 30 AND e.eid > 2",
    "SELECT e.eid FROM Emp e, Dept d WHERE e.did = d.did AND "
    "d.budget > 100 AND e.age < 30 AND e.eid > 2 AND e.eid > 2",
)

#: Saturation against BFS at an equal budget of :data:`EQUAL_BUDGET`
#: e-nodes / plans, on these workloads and :data:`SVB_STATS`.
SVB_CORPUS = (
    CORPUS[0],  # the Sec. 5.1.3 query
    CORPUS[2],  # a duplicated conjunct
    CORPUS[5],  # a filter over a union
    "SELECT a.eid FROM Emp a, Emp b "
    "WHERE a.did = b.did AND a.age < 30 AND b.age < 25",
    CORPUS[7],  # pushdown → dedup → pushdown
)
SVB_STATS = TableStats({"Emp": 1000.0, "Dept": 20.0})
EQUAL_BUDGET = 120

queries = st.sampled_from(CORPUS)
budgets = st.integers(min_value=2, max_value=300)
iteration_budgets = st.one_of(st.none(), st.integers(1, 8))
table_stats = st.builds(
    TableStats,
    st.fixed_dictionaries({"Emp": st.floats(1.0, 10000.0),
                           "Dept": st.floats(1.0, 500.0)}))


def _svb_examples(**fixed):
    """Run a property on every :data:`SVB_CORPUS` query at the
    equal-budget stats, on top of the examples hypothesis draws."""
    def decorate(test):
        for sql in SVB_CORPUS:
            test = example(sql=sql, stats=SVB_STATS, **fixed)(test)
        return test
    return decorate


class TestCertification:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sql=queries, stats=st.just(TableStats({"Emp": 16.0,
                                                  "Dept": 4.0})),
           budget=budgets, iterations=iteration_budgets)
    @_svb_examples(budget=EQUAL_BUDGET, iterations=None)
    def test_every_extracted_plan_is_proved(self, catalog, sql, stats,
                                            budget, iterations):
        query = compile_sql(sql, catalog).query
        result = optimize(query, stats, max_plans=budget, certify=False,
                          iterations=iterations)
        verdict = default_pipeline().check(query, result.best_plan,
                                           prove_only=True)
        assert verdict.status is Status.PROVED, (
            f"certification failure: budget={budget} {sql!r}")


class TestCostDominance:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sql=queries, stats=table_stats, bfs_budget=budgets)
    @_svb_examples(bfs_budget=EQUAL_BUDGET)
    def test_saturation_never_costs_more_than_bfs(self, catalog, sql,
                                                  stats, bfs_budget):
        query = compile_sql(sql, catalog).query
        bfs = optimize_bfs(query, stats, max_plans=bfs_budget)
        sat = optimize(query, stats, max_plans=2000, certify=False,
                       iterations=20)
        assert sat.best_cost <= bfs.best_cost + 1e-6
        # And the reported cost is the honest tree cost of the plan.
        assert sat.best_cost == pytest.approx(plan_cost(sat.best_plan,
                                                        stats))

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sql=queries, stats=table_stats)
    def test_both_strategies_never_worse_than_original(self, catalog, sql,
                                                       stats):
        query = compile_sql(sql, catalog).query
        original = plan_cost(query, stats)
        sat = optimize(query, stats, certify=False)
        bfs = optimize_bfs(query, stats)
        for result in (sat, bfs):
            assert result.best_cost <= original + 1e-6

"""Downstream workload: the certified optimizer on the paper's Sec. 5.1.3
motivating query (young employees in big departments).

Not a paper figure per se, but the paper's motivation (Sec. 1) is that
optimizers need verified rules; this benchmark shows the full pipeline —
parse named SQL, plan with certified rewrites, prove the chosen plan
equivalent, and execute both plans to identical results.
"""

from repro.core.schema import INT
from repro.engine import Database, run_query
from repro.optimizer import TableStats, optimize, plan_cost
from repro.semiring import NAT
from repro.sql import Catalog, compile_sql


def _workload():
    cat = Catalog()
    cat.add_table("Emp", [("eid", INT), ("did", INT), ("sal", INT),
                          ("age", INT)])
    cat.add_table("Dept", [("did", INT), ("budget", INT)])
    db = Database(NAT)
    db.create_table("Emp", cat.schema_of("Emp"),
                    [[i, i % 5, 1000 + 13 * i, 22 + (i % 20)]
                     for i in range(40)])
    db.create_table("Dept", cat.schema_of("Dept"),
                    [[d, 50000 + 30000 * d] for d in range(5)])
    query = compile_sql(
        "SELECT e.eid, e.sal FROM Emp e, Dept d "
        "WHERE e.did = d.did AND e.age < 30 AND d.budget > 100000", cat)
    return db, query


def test_optimizer_report(report, benchmark):
    db, resolved = _workload()
    stats = TableStats.from_database(db)
    result = benchmark(lambda: optimize(resolved.query, stats,
                                        max_plans=400))
    interp = db.interpretation()
    before = run_query(resolved.query, interp)
    after = run_query(result.best_plan, interp)

    report.add("Certified optimization of the Sec. 5.1.3 workload")
    report.add("=" * 60)
    report.add("SELECT e.eid, e.sal FROM Emp e, Dept d")
    report.add("WHERE e.did = d.did AND e.age < 30 AND d.budget > 100000")
    report.add("")
    report.add(f"original plan cost : {result.original_cost:10.1f}")
    report.add(f"optimized plan cost: {result.best_cost:10.1f}")
    report.add(f"rewrite chain      : {' → '.join(result.applied_rules)}")
    report.add(f"plans explored     : {result.plans_explored}")
    report.add(f"prover certificate : "
               f"{'VERIFIED' if result.certified else 'FAILED'}")
    report.add(f"results identical  : {before == after}")
    report.emit("optimizer_workload")

    assert result.improved
    assert result.certified
    assert before == after


def test_optimizer_plan_cost_monotonicity(benchmark):
    db, resolved = _workload()
    stats = TableStats.from_database(db)
    result = benchmark(lambda: optimize(resolved.query, stats,
                                        max_plans=150))
    assert plan_cost(result.best_plan, stats) <= \
        plan_cost(resolved.query, stats)


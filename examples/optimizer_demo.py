"""A certified query optimizer in action.

The paper's motivation (Sec. 1): optimizers apply rewrite rules to find
cheaper plans, and unsound rules ship wrong answers.  This demo runs the
library's equality-saturation planner, whose transformations are
instances of the verified rule set, on a star-join workload:

1. parse a named SQL query,
2. saturate the rewrite space in an e-graph and extract by cost,
3. *certify* the chosen plan against the original with the prover,
4. execute both plans and compare results and operator cardinalities.

Run:  python examples/optimizer_demo.py
"""

from repro import Catalog, Database, INT, compile_sql
from repro.engine import run_query
from repro.optimizer import TableStats, explain, optimize, plan_cost

QUERY = """
SELECT e.eid, e.sal
FROM Emp e, Dept d
WHERE e.did = d.did AND e.age < 30 AND d.budget > 100000
"""


def main() -> None:
    catalog = Catalog()
    catalog.add_table("Emp", [("eid", INT), ("did", INT), ("sal", INT),
                              ("age", INT)])
    catalog.add_table("Dept", [("did", INT), ("budget", INT)])

    db = Database()
    db.create_table(
        "Emp", catalog.schema_of("Emp"),
        [[i, i % 6, 1000 + 17 * i, 21 + (i % 25)] for i in range(60)])
    db.create_table(
        "Dept", catalog.schema_of("Dept"),
        [[d, 60000 + 25000 * d] for d in range(6)])

    resolved = compile_sql(QUERY, catalog)
    stats = TableStats.from_database(db)

    print("Certified optimization demo")
    print("=" * 64)
    print("query:", " ".join(QUERY.split()))
    print()
    print("initial plan:")
    print(explain(resolved.query, stats))
    print(f"  total estimated cost: {plan_cost(resolved.query, stats):.1f}")
    print()

    result = optimize(resolved.query, stats, max_plans=400)

    print("optimized plan (equality saturation):")
    print(explain(result.best_plan, stats))
    print(f"  estimated cost: {result.best_cost:.1f} "
          f"(was {result.original_cost:.1f})")
    print(f"  rewrite chain : {' → '.join(result.applied_rules)}")
    print(f"  plans explored: {result.plans_explored} "
          f"(in {result.saturation.nodes} e-nodes"
          f"{', saturated' if result.saturated else ''})")
    print(f"  certificate   : "
          f"{'prover VERIFIED equivalence' if result.certified else 'FAILED'}")
    assert result.certified

    interp = db.interpretation()
    before = run_query(resolved.query, interp)
    after = run_query(result.best_plan, interp)
    print(f"  both plans return {len(before)} rows — identical:",
          before == after)
    assert before == after


if __name__ == "__main__":
    main()

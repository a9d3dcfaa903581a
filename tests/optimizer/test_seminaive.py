"""Semi-naive saturation and the incremental e-class analysis.

The scheduler skips a rule on an e-node while the node's child classes
are unchanged since the rule last ran there, and the guarded rules read
one analysis kept current by e-graph events.  Two properties pin both
down without a naive mode in the library:

* a reported fixpoint is a real one — one more naive pass (every rule on
  every ``(class, e-node)``) adds no node and performs no union;
* the incremental analysis is at least as strong as the recursive
  from-scratch one it replaced (kept here as the reference), and equal
  to a fresh fixpoint over the saturated e-graph.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from test_recertify import CORPUS as RECERTIFY_CORPUS
from test_saturate import SEC513
from test_strategies_property import CORPUS as STRATEGY_CORPUS, budgets, iteration_budgets, queries

from repro.analysis.infer import AnalysisContext, transfer
from repro.analysis.properties import Interval, TOP
from repro.core import ast
from repro.core.equivalence import Hypotheses, KeyConstraint
from repro.core.schema import EMPTY, INT, Leaf, Node
from repro.optimizer.eanalysis import EClassAnalysis, MAX_LO_RAISES, guarded_rules
from repro.optimizer.egraph import EGraph
from repro.optimizer.saturate import ERULES, SaturationBudget, saturate
from repro.sql import Catalog, compile_sql

KEY_EMP = Hypotheses(keys=(KeyConstraint("Emp", "eid", Leaf(INT)),))

#: Contexts under which the analysis derives something: none, a key, and
#: cardinality bounds (so intervals move).
CONTEXTS = (
    AnalysisContext(),
    AnalysisContext.from_hypotheses(KEY_EMP),
    AnalysisContext(table_cards=(("Dept", Interval(1, 3)),
                                 ("Emp", Interval(2, 5)))),
)

EXTRA = (
    "SELECT DISTINCT x.did FROM (SELECT DISTINCT did FROM Emp "
    "WHERE age = 3) AS x WHERE x.did = 2",
    "SELECT DISTINCT e.eid FROM Emp e WHERE 1 = 1 AND e.age < 30",
    "SELECT e.eid FROM Emp e WHERE e.age = 1 AND e.age = 2",
    "SELECT eid FROM Emp WHERE age < 30 EXCEPT "
    "SELECT eid FROM Emp WHERE 1 = 0",
)

CATALOG = Catalog()
CATALOG.add_table("Emp", [("eid", INT), ("did", INT), ("age", INT)])
CATALOG.add_table("Dept", [("did", INT), ("budget", INT)])

SCHEMA = Node(Leaf(INT), Leaf(INT))
R, S = ast.Table("R", SCHEMA), ast.Table("S", SCHEMA)
A = ast.ExprVar("a", Node(EMPTY, SCHEMA), INT)

#: A fact that reaches a rule's input only by propagation: merging the
#: two filters yields ``a = 0 ∧ a = 1``, which empties the filter class
#: by a union, the projection class above it only when rebuild re-makes
#: it — and only then may ``except_empty_elim`` fire at the root.
PROPAGATED_EMPTINESS = ast.Except(S, ast.Select(ast.RIGHT, ast.Where(
    ast.Where(R, ast.PredEq(A, ast.Const(0, INT))),
    ast.PredEq(A, ast.Const(1, INT)))))

CASES = tuple(compile_sql(sql, CATALOG).query for sql in dict.fromkeys(
    (SEC513,) + STRATEGY_CORPUS + RECERTIFY_CORPUS + EXTRA)) + (
    PROPAGATED_EMPTINESS, ast.Distinct(ast.Distinct(R)))


def _saturate(query, ctx, **budget):
    eg = EGraph()
    eg.add_term(query)
    eg.rebuild()
    rules = ERULES + guarded_rules(ctx)
    stats = saturate(eg, rules=rules,
                     budget=SaturationBudget(**budget) if budget else None)
    return eg, rules, stats


def _naive_pass(eg, rules):
    """Every rule on every (class, e-node), as the naive loop did."""
    for cid, nodes in list(eg.classes()):
        for node in list(nodes):
            for rule in rules:
                if node.op in rule.ops:
                    rule.apply(eg, eg.find(cid), node)


def _assert_real_fixpoint(eg, rules):
    before = (eg.nodes_added, eg.unions)
    _naive_pass(eg, rules)
    assert (eg.nodes_added, eg.unions) == before


class TestReportedFixpointIsReal:
    @pytest.mark.parametrize("ctx", CONTEXTS)
    @pytest.mark.parametrize("query", CASES)
    def test_corpus(self, query, ctx):
        eg, rules, stats = _saturate(query, ctx, max_iterations=40,
                                     max_nodes=20000)
        assert stats.saturated
        _assert_real_fixpoint(eg, rules)

    def test_propagated_fact_fires_its_rule(self):
        eg = EGraph()
        root = eg.add_term(PROPAGATED_EMPTINESS)
        eg.rebuild()
        # Attached before the run, the analysis learns of the emptiness
        # by propagation, not by a fresh fixpoint on first use.
        EClassAnalysis(eg)
        stats = saturate(eg, rules=ERULES + guarded_rules())
        assert stats.saturated
        assert stats.rules_fired.get("except_empty_elim") == 1
        assert eg.find(root) == eg.find(eg.add_term(S))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sql=queries, budget=budgets, iterations=iteration_budgets,
           ctx=st.sampled_from(CONTEXTS))
    def test_strategy_corpus_under_budgets(self, sql, budget, iterations,
                                           ctx):
        eg, rules, stats = _saturate(
            compile_sql(sql, CATALOG).query, ctx, max_nodes=budget,
            max_iterations=iterations if iterations is not None else 12)
        if stats.saturated:
            _assert_real_fixpoint(eg, rules)


# ---------------------------------------------------------------------------
# The incremental analysis against the recursive reference
# ---------------------------------------------------------------------------

class RecursiveReference:
    """The from-scratch analysis the incremental one replaced: recursive
    and memoized, a class reached through itself contributes TOP."""

    def __init__(self, eg, ctx):
        self.eg, self.ctx = eg, ctx
        self._memo, self._in_progress = {}, set()

    def props(self, cid):
        cid = self.eg.find(cid)
        if cid in self._memo:
            return self._memo[cid]
        if cid in self._in_progress:
            return TOP
        self._in_progress.add(cid)
        try:
            result = TOP
            for node in self.eg.nodes_of(cid):
                children = tuple(self.props(c) for c in node.children)
                result = result.refine(
                    transfer(node.op, node.label, children, self.ctx))
        finally:
            self._in_progress.discard(cid)
        self._memo[cid] = result
        return result


def _at_least_as_strong(strong, weak):
    return ((strong.set_valued or not weak.set_valued)
            and (strong.empty or not weak.empty)
            and weak.keys <= strong.keys
            and strong.card.lo >= weak.card.lo
            and (weak.card.hi is None
                 or (strong.card.hi is not None
                     and strong.card.hi <= weak.card.hi)))


class TestIncrementalAnalysis:
    @pytest.mark.parametrize("ctx", CONTEXTS)
    @pytest.mark.parametrize("query", CASES)
    def test_as_strong_as_the_reference(self, query, ctx):
        eg = EGraph()
        eg.add_term(query)
        eg.rebuild()
        incremental = EClassAnalysis(eg, ctx)
        # The guarded rules adopt the attached analysis (same context),
        # so it is maintained through the whole run, never rebuilt.
        stats = saturate(eg, rules=ERULES + guarded_rules(ctx),
                         budget=SaturationBudget(max_iterations=40,
                                                 max_nodes=20000))
        assert stats.saturated
        assert eg.analysis is incremental
        reference = RecursiveReference(eg, ctx)
        classes = [cid for cid, _ in eg.classes()]
        data = {cid: incremental.props(cid) for cid in classes}
        for cid in classes:
            assert _at_least_as_strong(data[cid], reference.props(cid)), cid
        fresh = EClassAnalysis(eg, ctx)
        assert {cid: fresh.props(cid) for cid in classes} == data

    def test_rising_lower_bound_on_a_cycle_is_held(self):
        # R ≡ R ∪ S with |S| = 1 is not a sound equation, but the
        # analysis must still terminate on it: the class's lower bound
        # would otherwise rise by one per round forever.
        eg = EGraph()
        u = eg.add_term(ast.UnionAll(R, S))
        eg.union(u, eg.add_term(R))
        eg.rebuild()
        ctx = AnalysisContext(table_cards=(("S", Interval(1, 1)),))
        ana = EClassAnalysis(eg, ctx)
        assert ana.props(u).card.lo == MAX_LO_RAISES
        assert ana.steps <= 4 * (MAX_LO_RAISES + 4)

    def test_distinct_distinct_cycle_finishes(self):
        eg = EGraph()
        root = eg.add_term(ast.Distinct(ast.Distinct(R)))
        eg.rebuild()
        ana = EClassAnalysis(eg)
        saturate(eg, rules=ERULES + guarded_rules())
        assert eg.analysis is ana
        assert ana.props(root).set_valued
        assert ana.steps <= 20

    def test_where_true_cycle_finishes(self):
        eg = EGraph()
        w = eg.add_term(ast.Where(R, ast.PredTrue()))
        eg.union(w, eg.add_term(R))
        eg.rebuild()
        ana = EClassAnalysis(eg)
        assert ana.props(w) == TOP
        assert ana.steps <= 10

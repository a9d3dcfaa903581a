"""Bounded-exhaustive disprover: enumeration, guarantees, replay."""

import pytest

from repro.core import ast
from repro.core.schema import EMPTY, INT, Leaf, Node
from repro.rules import all_buggy_rules, all_rules, get_rule
from repro.semiring import NAT
from repro.solver import (
    Bound,
    count_relations,
    disprove,
    disprove_rule,
    enumerate_relations,
    free_tables,
    has_metavariables,
    replay,
)
from repro.sql import Catalog, compile_sql

SCHEMA = Node(Leaf(INT), Leaf(INT))


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.add_table("R", [("a", INT), ("b", INT)])
    cat.add_table("S", [("a", INT), ("b", INT)])
    return cat


class TestEnumeration:
    def test_relation_count_matches_formula(self):
        bound = Bound.of(max_rows=2, max_multiplicity=2)
        rels = list(enumerate_relations(SCHEMA, bound))
        # 4 tuples over int domain (0,1): C(4,0) + C(4,1)*2 + C(4,2)*4 = 33.
        assert len(rels) == 33
        assert count_relations(SCHEMA, bound) == 33

    def test_enumeration_is_exhaustive_and_distinct(self):
        bound = Bound.of(max_rows=2, max_multiplicity=2)
        rels = list(enumerate_relations(SCHEMA, bound))
        assert len({repr(sorted(r.items(), key=repr)) for r in rels}) \
            == len(rels)
        assert all(len(r) <= 2 for r in rels)
        assert any(len(r) == 0 for r in rels)

    def test_respects_multiplicity_bound(self):
        bound = Bound.of(max_rows=1, max_multiplicity=3)
        mults = {m for rel in enumerate_relations(SCHEMA, bound)
                 for _, m in rel.items()}
        assert mults == {1, 2, 3}

    def test_tuple_space_is_cached_per_schema_and_domain(self):
        from repro.solver.disprover import _tuple_space
        bound = Bound.of(max_rows=2, max_multiplicity=2)
        _tuple_space.cache_clear()
        list(enumerate_relations(SCHEMA, bound))
        first = _tuple_space.cache_info()
        assert first.misses == 1
        list(enumerate_relations(SCHEMA, bound))
        second = _tuple_space.cache_info()
        assert second.misses == first.misses  # re-enumeration is a hit
        assert second.hits > first.hits


class TestQueryAnalysis:
    def test_free_tables(self, catalog):
        q = compile_sql("SELECT r.a FROM R r, S s WHERE r.a = s.a",
                        catalog).query
        tables = free_tables(q)
        assert set(tables) == {"R", "S"}
        assert all(schema.is_concrete for schema in tables.values())

    def test_closed_query_has_no_metavariables(self, catalog):
        q = compile_sql("SELECT a FROM R", catalog).query
        assert not has_metavariables(q)

    def test_rule_queries_have_metavariables(self):
        rule = get_rule("join_comm")
        assert has_metavariables(rule.lhs)

    @staticmethod
    def _nested_expr_var():
        # An expression metavariable reached only through P2E(E2P(...)).
        ctx = Node(EMPTY, SCHEMA)
        return ast.P2E(ast.E2P(ast.ExprVar("e", ctx, INT), INT), INT)

    def test_metavariable_nested_in_where_predicate(self):
        pred = ast.PredEq(self._nested_expr_var(), ast.Const(1, INT))
        q = ast.Select(ast.Compose(ast.RightP(), ast.LeftP()),
                       ast.Where(ast.Table("R", SCHEMA), pred))
        assert has_metavariables(q)

    def test_metavariable_nested_in_select_function(self):
        column = ast.P2E(ast.Compose(ast.RightP(), ast.LeftP()), INT)
        expr = ast.Func("add", (self._nested_expr_var(), column), INT)
        q = ast.Select(ast.E2P(expr, INT), ast.Table("R", SCHEMA))
        assert has_metavariables(q)

    def test_free_tables_returns_a_fresh_dict(self, catalog):
        q = compile_sql("SELECT a FROM S", catalog).query
        first = free_tables(q)
        first["Z"] = SCHEMA
        assert set(free_tables(q)) == {"S"}

    def test_schema_conflict_raises_on_every_call(self):
        q = ast.Product(ast.Table("Clash", SCHEMA),
                        ast.Table("Clash", Leaf(INT)))
        for _ in range(2):
            with pytest.raises(ValueError, match="used at two schemas"):
                free_tables(q)
        assert not has_metavariables(q)

    def test_query_walked_once_across_pairs(self, monkeypatch):
        """A query checked in two pairs that both reach the disprover is
        walked once for its metavariables and tables."""
        from repro.analysis import infer
        from repro.solver import Pipeline, disprover as disprover_module

        # Tables no other test reads, so no query node is walked already.
        cat = Catalog()
        cat.add_table("Walked", [("a", INT), ("b", INT)])
        q1, q2, q3 = (compile_sql(sql, cat).query for sql in (
            "SELECT a FROM Walked", "SELECT b FROM Walked",
            "SELECT a + b AS a FROM Walked"))
        roots = []

        def counting_iter_ast(node):
            roots.append(node)
            return infer.iter_ast(node)

        monkeypatch.setattr(disprover_module, "iter_ast", counting_iter_ast)
        pipeline = Pipeline()
        for other in (q2, q3):
            verdict = pipeline.check(q1, other)
            assert verdict.stage == "disprover"
        assert sum(root is q1 for root in roots) == 1
        assert len(roots) == 3


class TestDisprove:
    def test_finds_projection_counterexample(self, catalog):
        q1 = compile_sql("SELECT a FROM R", catalog).query
        q2 = compile_sql("SELECT b FROM R", catalog).query
        result = disprove(q1, q2)
        assert result.found
        assert result.record is not None
        assert result.record.disagreements

    def test_exhausts_on_equivalent_pair(self, catalog):
        q1 = compile_sql("SELECT a FROM R WHERE a = 1", catalog).query
        result = disprove(q1, q1)
        assert not result.found
        assert result.exhausted
        assert result.instances_checked == 33  # the full bounded space

    def test_bound_info_reports_guarantee(self, catalog):
        q1 = compile_sql("SELECT a FROM R", catalog).query
        result = disprove(q1, q1, bound=Bound.of(1, 1))
        info = result.info()
        assert info.exhausted
        assert "exhausted" in info.describe()

    def test_instance_budget_marks_non_exhausted(self, catalog):
        q1 = compile_sql("SELECT a FROM R", catalog).query
        result = disprove(q1, q1, max_instances=5)
        assert not result.found
        assert not result.exhausted
        assert result.instances_checked == 5

    def test_multiplicity_sensitivity_needs_bags(self, catalog):
        # SELECT a vs SELECT DISTINCT a differ only on duplicates: the
        # counterexample must use multiplicity > 1 or a repeated a-value.
        q1 = compile_sql("SELECT a FROM R", catalog).query
        q2 = compile_sql("SELECT DISTINCT a FROM R", catalog).query
        result = disprove(q1, q2)
        assert result.found

    def test_replay_reproduces_disagreement(self, catalog):
        q1 = compile_sql("SELECT a FROM R", catalog).query
        q2 = compile_sql("SELECT b FROM R", catalog).query
        result = disprove(q1, q2)
        lhs, rhs = replay(result.record, q1, q2,
                          {"R": catalog.schema_of("R")}, NAT)
        assert lhs != rhs
        assert lhs == result.counterexample.lhs_result
        assert rhs == result.counterexample.rhs_result


class TestDisproveRules:
    @pytest.mark.parametrize("rule", all_buggy_rules(),
                             ids=lambda r: r.name)
    def test_every_buggy_rule_is_refuted(self, rule):
        result = disprove_rule(rule, draws=3)
        assert result.found, f"no counterexample for {rule.name}"
        cx = result.counterexample
        assert cx.lhs_result != cx.rhs_result

    def test_sound_rule_survives_small_bound(self):
        rule = get_rule("union_comm")
        result = disprove_rule(rule, bound=Bound.of(1, 2), draws=1)
        assert not result.found
        assert result.exhausted


class TestDisproverStress:
    """The compiled disprover makes the PR 9 ``slow`` bounds tier-1."""

    def test_sound_corpus_survives_default_bound(self):
        for rule in all_rules():
            if rule.instantiate is None:
                continue
            result = disprove_rule(rule, bound=Bound.of(2, 2), draws=1,
                                   max_instances=20000)
            assert not result.found, rule.name

    def test_three_row_bound_still_refutes_buggy_rules(self):
        for rule in all_buggy_rules():
            result = disprove_rule(
                rule, bound=Bound.of(3, 2), draws=2, max_instances=50000)
            assert result.found, rule.name


@pytest.mark.slow
class TestDisproverStressSlow:
    """Bigger bounds — opt in with ``--runslow`` (or ``-m slow``)."""

    def test_sound_corpus_survives_multiplicity_three(self):
        for rule in all_rules():
            if rule.instantiate is None:
                continue
            result = disprove_rule(rule, bound=Bound.of(2, 3), draws=1,
                                   max_instances=100000)
            assert not result.found, rule.name

    def test_three_by_three_bound_still_refutes_buggy_rules(self):
        for rule in all_buggy_rules():
            result = disprove_rule(
                rule, bound=Bound.of(3, 3), draws=2, max_instances=200000)
            assert result.found, rule.name

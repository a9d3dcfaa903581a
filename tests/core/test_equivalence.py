"""The equivalence engine: entailment, absorption, key axioms, negatives."""

import pytest

from repro.core import ast
from repro.core.equivalence import (
    FDConstraint,
    Hypotheses,
    KeyConstraint,
    NO_HYPOTHESES,
    check_query_equivalence,
    check_uterm_equivalence,
    queries_equivalent,
    uterms_equivalent,
)
from repro.core.schema import EMPTY, INT, Leaf, Node, SVar
from repro.core.uninomial import (
    TApp,
    TVar,
    UAdd,
    UEq,
    UMul,
    UNeg,
    UPred,
    URel,
    USquash,
    USum,
    fresh_var,
)
from repro.errors import SchemaMismatchError
from repro.sql import Catalog, compile_sql

SR = SVar("sR")
T = TVar("t", SR)
R = ast.Table("R", SR)
S = ast.Table("S", SR)


class TestUTermEquivalence:
    def test_mul_commutes(self):
        a = URel("R", T)
        b = URel("S", T)
        assert uterms_equivalent(UMul(a, b), UMul(b, a))

    def test_add_commutes(self):
        a = URel("R", T)
        b = URel("S", T)
        assert uterms_equivalent(UAdd(a, b), UAdd(b, a))

    def test_distribution(self):
        a, b, c = URel("R", T), URel("S", T), UPred("p", (T,))
        assert uterms_equivalent(UMul(UAdd(a, b), c),
                                 UAdd(UMul(a, c), UMul(b, c)))

    def test_different_relations_not_equal(self):
        assert not uterms_equivalent(URel("R", T), URel("S", T))

    def test_multiplicity_matters_at_bag_level(self):
        a = URel("R", T)
        assert not uterms_equivalent(a, UMul(a, a))
        assert not uterms_equivalent(a, UAdd(a, a))

    def test_squash_kills_multiplicity(self):
        a = URel("R", T)
        assert uterms_equivalent(USquash(a), USquash(UMul(a, a)))
        assert uterms_equivalent(USquash(a), USquash(UAdd(a, a)))

    def test_sum_alpha_invariance(self):
        x = fresh_var(SR, "x")
        y = fresh_var(SR, "y")
        assert uterms_equivalent(USum(x, URel("R", x)),
                                 USum(y, URel("R", y)))

    def test_lemma_52_equivalence(self):
        x = fresh_var(SR, "x")
        lhs = USum(x, UMul(UEq(x, T), URel("R", x)))
        assert uterms_equivalent(lhs, URel("R", T))

    def test_absorption_lemma_53(self):
        # R t × ‖Σ x. (x = t) × R x‖ = R t
        x = fresh_var(SR, "x")
        guard = USquash(USum(x, UMul(UEq(x, T), URel("R", x))))
        assert uterms_equivalent(UMul(URel("R", T), guard), URel("R", T))

    def test_absorption_requires_entailment(self):
        # R t × ‖Σ x. S x‖ is NOT R t.
        x = fresh_var(SR, "x")
        guard = USquash(USum(x, URel("S", x)))
        assert not uterms_equivalent(UMul(URel("R", T), guard), URel("R", T))

    def test_neg_congruence(self):
        a = URel("R", T)
        assert uterms_equivalent(UMul(a, UNeg(URel("S", T))),
                                 UMul(UNeg(URel("S", T)), a))

    def test_stats_populated(self):
        # A pointer-identical question is answered by the interned kernel
        # in zero engine steps, so use a pair that needs Lemma 5.3
        # absorption to exercise the counters.
        x = fresh_var(SR, "x")
        guard = USquash(USum(x, UMul(UEq(x, T), URel("R", x))))
        result = check_uterm_equivalence(
            UMul(URel("R", T), guard), URel("R", T))
        assert result.equal
        assert result.stats.total_steps >= 1
        assert result.stats.trace

    def test_identical_terms_are_free(self):
        # Same interned term on both sides: proved with no engine steps.
        result = check_uterm_equivalence(URel("R", T), URel("R", T))
        assert result.equal
        assert result.stats.trace


class TestKeyAxioms:
    K = Leaf(INT)
    HYPS = Hypotheses(keys=(KeyConstraint("R", "k", Leaf(INT)),))

    def test_key_merges_tuples(self):
        # Σ x. R x × R t × (k x = k t) = R t under key(k, R).
        x = fresh_var(SR, "x")
        k_x = TApp("k", (x,), self.K)
        k_t = TApp("k", (T,), self.K)
        lhs = USum(x, UMul(URel("R", x),
                           UMul(URel("R", T), UEq(k_x, k_t))))
        assert uterms_equivalent(lhs, URel("R", T), self.HYPS)

    def test_without_key_not_equal(self):
        x = fresh_var(SR, "x")
        k_x = TApp("k", (x,), self.K)
        k_t = TApp("k", (T,), self.K)
        lhs = USum(x, UMul(URel("R", x),
                           UMul(URel("R", T), UEq(k_x, k_t))))
        assert not uterms_equivalent(lhs, URel("R", T), NO_HYPOTHESES)

    def test_fd_axiom(self):
        # Under fd a→b, two R-tuples with equal a have equal b.
        hyps = Hypotheses(fds=(FDConstraint("R", "a", Leaf(INT),
                                            "b", Leaf(INT)),))
        x = TVar("x", SR)
        y = TVar("y", SR)
        a_x = TApp("a", (x,), Leaf(INT))
        a_y = TApp("a", (y,), Leaf(INT))
        b_x = TApp("b", (x,), Leaf(INT))
        b_y = TApp("b", (y,), Leaf(INT))
        base = UMul(URel("R", x), UMul(URel("R", y), UEq(a_x, a_y)))
        with_conclusion = UMul(base, UEq(b_x, b_y))
        assert uterms_equivalent(base, with_conclusion, hyps)
        assert not uterms_equivalent(base, with_conclusion, NO_HYPOTHESES)


class TestQueryLevel:
    def test_figure_1(self):
        b = ast.PredVar("b", Node(EMPTY, SR))
        lhs = ast.Where(ast.UnionAll(R, S), b)
        rhs = ast.UnionAll(ast.Where(R, b), ast.Where(S, b))
        result = check_query_equivalence(lhs, rhs)
        assert result.equal

    def test_unsound_rewrite_rejected(self):
        lhs = ast.Distinct(ast.UnionAll(R, S))
        rhs = ast.UnionAll(ast.Distinct(R), ast.Distinct(S))
        assert not queries_equivalent(lhs, rhs)

    def test_schema_mismatch_raises(self):
        other = ast.Table("S", SVar("sS"))
        with pytest.raises(ValueError):
            check_query_equivalence(R, other)

    def test_empty_vs_false_where(self):
        lhs = ast.Where(R, ast.PredFalse())
        rhs = ast.Except(R, R)
        # σ_false(R) ≡ R EXCEPT R: both denote the empty relation?  No —
        # R EXCEPT R zeroes every tuple, so they are equal.
        assert queries_equivalent(lhs, rhs)

    def test_true_where_is_identity(self):
        assert queries_equivalent(ast.Where(R, ast.PredTrue()), R)


class TestSqlQueries:
    @pytest.fixture
    def catalog(self):
        cat = Catalog()
        cat.add_table("Emp", [("eid", INT), ("did", INT), ("age", INT)])
        return cat

    def test_output_schema_mismatch_raises(self, catalog):
        q1 = compile_sql("SELECT eid FROM Emp", catalog).query
        q2 = compile_sql("SELECT eid, did FROM Emp", catalog).query
        with pytest.raises(SchemaMismatchError):
            check_query_equivalence(q1, q2)

    def test_verdicts(self, catalog):
        dedup = compile_sql(
            "SELECT eid FROM Emp WHERE eid = 1 AND eid = 1", catalog).query
        plain = compile_sql(
            "SELECT eid FROM Emp WHERE eid = 1", catalog).query
        assert check_query_equivalence(dedup, plain).equal
        other = compile_sql("SELECT did FROM Emp", catalog).query
        assert not check_query_equivalence(plain, other).equal

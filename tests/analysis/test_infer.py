"""Plan-property inference: transfer functions + the soundness suite.

The soundness suite is the empirical contract of the analysis: every
fact it infers must hold on *every* concrete instance, so we evaluate
random instances (from :mod:`repro.engine.random_instances`) and check
the inferred lattice element against the actual bag — once from cleared
kernel memo tables and once on warm ones, since a memo hit must answer
exactly as a cold computation.
"""

import random

import pytest

from repro.analysis.infer import (
    AnalysisContext,
    EMPTY_CONTEXT,
    infer_properties,
    pred_sat,
    supports_determined,
)
from repro.analysis.properties import Interval, Sat
from repro.core import ast
from repro.core.equivalence import Hypotheses, KeyConstraint
from repro.core.intern import clear_kernel_caches
from repro.core.schema import INT, Leaf, Node
from repro.engine.database import Interpretation
from repro.engine.eval import run_query
from repro.engine.random_instances import (
    path_projection,
    random_keyed_relation,
    random_relation,
)
from repro.semiring import NAT

SCHEMA = Node(Leaf(INT), Leaf(INT))
R = ast.Table("R", SCHEMA)
S = ast.Table("S", SCHEMA)
A = ast.ExprVar("a", SCHEMA, INT)
TRUE = ast.PredTrue()
FALSE = ast.PredFalse()


def _eq(x, y):
    return ast.PredEq(x, y)


CONTRA = ast.PredAnd(_eq(A, ast.Const(0, INT)), _eq(A, ast.Const(1, INT)))


class TestPredSat:
    @pytest.mark.parametrize("pred, expected", [
        (TRUE, Sat.ALWAYS),
        (FALSE, Sat.NEVER),
        (ast.PredNot(FALSE), Sat.ALWAYS),
        (_eq(A, A), Sat.ALWAYS),
        (_eq(ast.Const(1, INT), ast.Const(1, INT)), Sat.ALWAYS),
        (_eq(ast.Const(0, INT), ast.Const(1, INT)), Sat.NEVER),
        (CONTRA, Sat.NEVER),
        (ast.PredAnd(ast.PredVar("b", SCHEMA), ast.PredNot(ast.PredVar("b", SCHEMA))),
         Sat.NEVER),
        (ast.PredOr(ast.PredVar("b", SCHEMA), ast.PredNot(ast.PredVar("b", SCHEMA))),
         Sat.ALWAYS),
        (ast.PredVar("b", SCHEMA), Sat.UNKNOWN),
        (_eq(A, ast.Const(0, INT)), Sat.UNKNOWN),
    ])
    def test_classification(self, pred, expected):
        assert pred_sat(pred) is expected

    def test_exists_over_static_empty(self):
        assert pred_sat(ast.Exists(ast.Where(R, FALSE))) is Sat.NEVER


class TestTransfer:
    def test_distinct_is_set_valued(self):
        assert infer_properties(ast.Distinct(R)).set_valued

    def test_contradiction_is_empty(self):
        props = infer_properties(ast.Where(R, CONTRA))
        assert props.empty
        assert props.card == Interval(0, 0)

    def test_tautology_is_transparent(self):
        assert infer_properties(ast.Where(R, TRUE)) == infer_properties(R)

    def test_emptiness_propagates_through_product(self):
        q = ast.Product(ast.Where(R, FALSE), S)
        assert infer_properties(q).empty

    def test_union_of_empties_is_empty(self):
        q = ast.UnionAll(ast.Where(R, FALSE), ast.Where(S, CONTRA))
        assert infer_properties(q).empty

    def test_union_of_sets_is_not_set(self):
        q = ast.UnionAll(ast.Distinct(R), ast.Distinct(R))
        assert not infer_properties(q).set_valued

    def test_except_keeps_left_setness(self):
        q = ast.Except(ast.Distinct(R), S)
        assert infer_properties(q).set_valued

    def test_product_of_sets_is_set(self):
        q = ast.Product(ast.Distinct(R), ast.Distinct(S))
        assert infer_properties(q).set_valued

    def test_key_hypothesis_makes_table_set_valued(self):
        hyps = Hypotheses(keys=(KeyConstraint("R", "k", Leaf(INT)),))
        ctx = AnalysisContext.from_hypotheses(hyps)
        assert infer_properties(R, ctx).set_valued
        assert not infer_properties(R, EMPTY_CONTEXT).set_valued
        assert not infer_properties(S, ctx).set_valued

    def test_table_cards_bound_cardinality(self):
        ctx = AnalysisContext(table_cards=(("R", Interval(0, 3)),))
        assert infer_properties(R, ctx).card == Interval(0, 3)
        q = ast.Product(R, R)
        assert infer_properties(q, ctx).card == Interval(0, 9)

    def test_supports_determined(self):
        assert supports_determined(ast.Distinct(R))
        assert supports_determined(ast.Distinct(ast.Product(R, S)))
        assert not supports_determined(R)
        assert not supports_determined(ast.UnionAll(R, R))


# ---------------------------------------------------------------------------
# The soundness suite: inferred facts vs. actual evaluation
# ---------------------------------------------------------------------------

#: Plans whose free tables are R and S at SCHEMA, paired with the key
#: hypothesis context they are analyzed under (None → no hypotheses).
_KEY_HYPS = Hypotheses(keys=(KeyConstraint("R", "k", Leaf(INT)),))

SOUNDNESS_PLANS = [
    (R, None),
    (ast.Distinct(R), None),
    (ast.Where(R, CONTRA), None),
    (ast.Where(R, _eq(A, A)), None),
    (ast.Product(ast.Distinct(R), ast.Distinct(S)), None),
    (ast.UnionAll(R, ast.Where(S, FALSE)), None),
    (ast.Except(ast.Distinct(R), S), None),
    (ast.Except(R, ast.Where(S, FALSE)), None),
    (ast.Distinct(ast.UnionAll(R, S)), None),
    (ast.Where(ast.Distinct(R), ast.PredVar("p", SCHEMA)), None),
    (R, _KEY_HYPS),
    (ast.Product(R, ast.Distinct(S)), _KEY_HYPS),
    (ast.Where(R, ast.PredVar("p", SCHEMA)), _KEY_HYPS),
]


def _first_leaf(value):
    while isinstance(value, tuple):
        value = value[0] if value else 0
    return 0 if value is None else value


def _random_interp(rng, keyed):
    interp = Interpretation()
    if keyed:
        interp.relations["R"] = random_keyed_relation(rng, SCHEMA, ("L",))
    else:
        interp.relations["R"] = random_relation(rng, SCHEMA)
    interp.relations["S"] = random_relation(rng, SCHEMA)
    interp.expressions["a"] = _first_leaf
    interp.projections["k"] = path_projection(("L",))
    interp.predicates["p"] = lambda row: True
    return interp


def _check_sound(plan, hyps, seed):
    ctx = (AnalysisContext.from_hypotheses(hyps) if hyps is not None
           else EMPTY_CONTEXT)
    rng = random.Random(seed)
    interp = _random_interp(rng, keyed=hyps is not None)
    # seed the analysis with the instance's actual total multiplicities:
    # the inferred interval must then contain the evaluated total
    cards = tuple(
        (name, Interval(0, sum(int(m) for _r, m in rel.items())))
        for name, rel in sorted(interp.relations.items()))
    ctx = AnalysisContext(keyed=ctx.keyed, key_paths=ctx.key_paths,
                          table_cards=cards)
    props = infer_properties(plan, ctx)
    result = run_query(plan, interp, NAT)
    total = sum(int(m) for _row, m in result.items())
    if props.set_valued:
        assert all(int(m) <= 1 for _row, m in result.items()), \
            f"{plan}: inferred set-valued but got duplicates"
    if props.empty:
        assert total == 0, f"{plan}: inferred empty but got rows"
    assert props.card.contains(total), \
        f"{plan}: total multiplicity {total} outside inferred {props.card}"


# Each case runs twice, under the ids it had when the repo carried two
# term kernels: the "arena" pass starts from cleared kernel memo tables,
# the "object" pass reuses whatever earlier cases left warm.
@pytest.mark.parametrize("memo", ["arena", "object"])
@pytest.mark.parametrize("case", range(len(SOUNDNESS_PLANS)))
def test_inference_sound_on_random_instances(memo, case):
    if memo == "arena":
        clear_kernel_caches()
    plan, hyps = SOUNDNESS_PLANS[case]
    for seed in range(25):
        _check_sound(plan, hyps, seed)

"""Property tests on the normalizer over randomly generated UniNomial terms.

Three properties, hypothesis-driven:

* **idempotence** — normalizing a normal form changes nothing (up to
  alpha), so the rewrite system has reached a fixpoint;
* **soundness** — the concrete interpretation of a term is unchanged by
  normalization, for every environment over small domains;
* **zero/one detection** — terms built to be 0 or 1 normalize to the
  canonical empty/unit forms.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.core.interp import eval_uterm
from repro.core.normalize import (
    NSUM_ONE,
    NSUM_ZERO,
    normalize,
    nsum_alpha_key,
    nsum_to_uterm,
)
from repro.core.schema import EMPTY, INT, Leaf, Node, enumerate_tuples
from repro.core.uninomial import (
    ONE,
    TConst,
    TVar,
    UAdd,
    UEq,
    UMul,
    UNeg,
    UPred,
    URel,
    USquash,
    USum,
    UTerm,
    ZERO,
    fresh_var,
    tfst,
    tsnd,
    uterm_free_vars,
)
from repro.engine.database import Interpretation
from repro.engine.random_instances import random_relation
from repro.semiring import NAT

DOMAINS = {"int": (0, 1)}
SCHEMA = Node(Leaf(INT), Leaf(INT))
#: A binder whose left half is itself a pair: Lemma 5.1 splits it into
#: three leaves.
NESTED = Node(Node(Leaf(INT), Leaf(INT)), Leaf(INT))
#: Σ-binder schemas besides the flat pair that a generated term binds:
#: none, or a nested pair and the unit type (which Lemma 5.1 drops).
EXTRA_BINDERS = ((), (NESTED, EMPTY))


def _random_term(rng: random.Random, scope):
    """A random tuple term over the variables in scope."""
    var = rng.choice(scope)
    choice = rng.randrange(4)
    if choice == 3:
        return TConst(rng.randrange(2), INT)
    if var.var_schema == EMPTY:
        return var
    term = (var, tfst(var), tsnd(var))[choice]
    if var.var_schema == NESTED and choice == 1 and rng.randrange(2):
        term = rng.choice((tfst(term), tsnd(term)))
    return term


def _relation_arg(rng: random.Random, scope):
    """A random ``SCHEMA``-typed term (a relation's argument)."""
    return rng.choice([var if var.var_schema == SCHEMA else tfst(var)
                       for var in scope if var.var_schema != EMPTY])


def _random_uterm(rng: random.Random, scope, depth: int,
                  binders=(SCHEMA,)) -> UTerm:
    """A random UniNomial term with free variables from ``scope``."""
    choice = rng.randrange(8 if depth > 0 else 4)
    if choice == 0:
        return URel(rng.choice(("R", "S")), _relation_arg(rng, scope))
    if choice == 1:
        left = _random_term(rng, scope)
        right = _random_term(rng, scope)
        return UEq(left, right) if _schemas_match(left, right) \
            else URel("R", _relation_arg(rng, scope))
    if choice == 2:
        return UPred("b", (rng.choice(scope),))
    if choice == 3:
        return rng.choice((ZERO, ONE))
    if choice == 4:
        return UAdd(_random_uterm(rng, scope, depth - 1, binders),
                    _random_uterm(rng, scope, depth - 1, binders))
    if choice == 5:
        return UMul(_random_uterm(rng, scope, depth - 1, binders),
                    _random_uterm(rng, scope, depth - 1, binders))
    if choice == 6:
        return USquash(_random_uterm(rng, scope, depth - 1, binders))
    var = fresh_var(rng.choice(binders), "z")
    return USum(var, _random_uterm(rng, scope + [var], depth - 1, binders))


def _random_input(rng: random.Random, extra) -> UTerm:
    """A random term over one free variable, under a Σ per ``extra``
    schema whose variable the body may use (and inner Σs draw their
    binder schemas from ``extra`` too)."""
    root = fresh_var(SCHEMA, "t")
    bound = [fresh_var(schema, "z") for schema in extra]
    u = _random_uterm(rng, [root] + bound, depth=3,
                      binders=(SCHEMA,) + extra)
    for var in reversed(bound):
        u = USum(var, u)
    return u


def _schemas_match(a, b) -> bool:
    try:
        return a.schema == b.schema
    except TypeError:
        return False


def _environment(rng: random.Random, free_vars):
    env = {}
    for var in free_vars:
        space = list(enumerate_tuples(var.var_schema, DOMAINS))
        env[var] = rng.choice(space)
    return env


def _interp(rng: random.Random) -> Interpretation:
    interp = Interpretation()
    for name in ("R", "S"):
        interp.relations[name] = random_relation(
            rng, SCHEMA, NAT, max_rows=3, max_multiplicity=2,
            domains=DOMAINS)
    interp.predicates["b"] = lambda t: (hash(("b", t)) & 1) == 0
    return interp


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(EXTRA_BINDERS))
def test_normalize_is_idempotent(seed, extra):
    rng = random.Random(seed)
    u = _random_input(rng, extra)
    once = normalize(u)
    twice = normalize(nsum_to_uterm(once))
    assert nsum_alpha_key(once) == nsum_alpha_key(twice)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(EXTRA_BINDERS))
def test_normalize_preserves_interpretation(seed, extra):
    rng = random.Random(seed)
    u = _random_input(rng, extra)
    normalized = nsum_to_uterm(normalize(u))
    interp = _interp(rng)
    for _ in range(4):
        env = _environment(rng, uterm_free_vars(u))
        before = eval_uterm(u, env, interp, NAT, DOMAINS)
        after = eval_uterm(normalized, dict(env), interp, NAT, DOMAINS)
        assert before == after


class TestCanonicalForms:
    def test_zero_detection(self):
        t = TVar("t", SCHEMA)
        assert normalize(UMul(URel("R", t), ZERO)) == NSUM_ZERO
        assert normalize(UEq(TConst(0, INT), TConst(1, INT))) == NSUM_ZERO
        assert normalize(UNeg(ONE)) == NSUM_ZERO

    def test_one_detection(self):
        t = TVar("t", SCHEMA)
        assert normalize(UEq(t, t)) == NSUM_ONE
        assert normalize(USquash(ONE)) == NSUM_ONE
        assert normalize(UNeg(ZERO)) == NSUM_ONE

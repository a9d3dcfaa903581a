"""Property suite for the hash-consed term kernel (seeded random).

The interning invariants the kernel promises:

* **pointer ⇔ structural** — rebuilding any term through the public
  constructors returns the *same* object; structurally different terms
  are never pointer-equal, and canonical nodes compare/hash exactly like
  the structural dataclass semantics they replaced;
* **normalize idempotence** — re-normalizing a rendered normal form is
  alpha-equivalent to the normal form itself, and pointer-identical
  inputs hit the memo;
* **cached metadata = reference** — the per-node cached free-variable
  sets and alpha-canonical keys agree with straightforward uncached
  reference implementations (kept here, frozen at their pre-kernel
  form);
* **construction-time canonical factor order** — an ``NProduct`` stores
  its factors sorted by the interned order key, however they were
  passed;
* **pickling re-interns** — a pickle round-trip lands on the canonical
  node, as do keyword construction and ``dataclasses.replace``;
* **generated constructor** — every interned class hashes by identity
  and has no second ``__init__``; wrong-arity calls raise the dataclass
  error, unhashable payloads stay un-canonical, ``repr`` is the
  dataclass text, and the decorator refuses classes whose fields the
  constructor would set wrongly;
* **thread safety** — concurrent construction of one term yields one
  canonical node.
"""

import dataclasses
import pickle
import random
import threading

import pytest

from repro.core.intern import intern_stats
from repro.core.normalize import (
    AEq,
    ANeg,
    APred,
    ARel,
    ASquash,
    NProduct,
    NSum,
    atom_alpha_key,
    atom_free_vars,
    normalize,
    nsum_alpha_key,
    nsum_free_vars,
    nsum_to_uterm,
    nsums_alpha_equal,
    product_alpha_key,
    term_alpha_key,
    uterm_alpha_key,
)
from repro.core.schema import BOOL, INT, Leaf, Node, SVar, Schema
from repro.core.uninomial import (
    TAgg,
    TApp,
    TConst,
    TFst,
    TPair,
    TSnd,
    TUnit,
    TVar,
    Term,
    UAdd,
    UEq,
    UMul,
    UNeg,
    UOne,
    UPred,
    URel,
    USquash,
    USum,
    UTerm,
    UZero,
    term_free_vars,
    uterm_free_vars,
)

N_SAMPLES = 60


# ---------------------------------------------------------------------------
# Seeded random generator
# ---------------------------------------------------------------------------

class Gen:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.leaf_schemas = [Leaf(INT), Leaf(BOOL), SVar("s1"), SVar("s2")]

    def schema(self, depth=2) -> Schema:
        if depth == 0 or self.rng.random() < 0.5:
            return self.rng.choice(self.leaf_schemas)
        return Node(self.schema(depth - 1), self.schema(depth - 1))

    def var(self, schema=None) -> TVar:
        name = f"v{self.rng.randrange(6)}"
        return TVar(name, schema if schema is not None else self.schema())

    def term(self, schema=None, depth=3) -> Term:
        """A well-typed term of the requested schema."""
        if schema is None:
            schema = self.schema()
        if depth > 0:
            pick = self.rng.randrange(5)
            if pick == 0 and isinstance(schema, Node):
                return TPair(self.term(schema.left, depth - 1),
                             self.term(schema.right, depth - 1))
            if pick == 1:
                return TFst(self.var(Node(schema, self.schema(1))))
            if pick == 2:
                return TSnd(self.var(Node(self.schema(1), schema)))
            if pick == 3:
                return TApp(f"f{self.rng.randrange(3)}",
                            tuple(self.term(None, depth - 1)
                                  for _ in range(self.rng.randrange(1, 3))),
                            schema)
            if pick == 4 and schema == Leaf(INT):
                var = self.var()
                return TAgg(f"agg{self.rng.randrange(2)}", var,
                            self.uterm(depth - 1), INT)
        if schema == Leaf(INT):
            return self.rng.choice([
                self.var(schema), TConst(self.rng.randrange(5), INT)])
        if schema == Leaf(BOOL):
            return self.rng.choice([
                self.var(schema), TConst(self.rng.random() < 0.5, BOOL)])
        return self.var(schema)

    def uterm(self, depth=3) -> UTerm:
        if depth == 0:
            return self.rng.choice([
                UZero(), UOne(), URel(f"R{self.rng.randrange(3)}",
                                      self.var())])
        pick = self.rng.randrange(8)
        if pick == 0:
            return UAdd(self.uterm(depth - 1), self.uterm(depth - 1))
        if pick == 1:
            return UMul(self.uterm(depth - 1), self.uterm(depth - 1))
        if pick == 2:
            return USquash(self.uterm(depth - 1))
        if pick == 3:
            return UNeg(self.uterm(depth - 1))
        if pick == 4:
            return USum(self.var(), self.uterm(depth - 1))
        if pick == 5:
            schema = self.schema()
            return UEq(self.term(schema, depth - 1),
                       self.term(schema, depth - 1))
        if pick == 6:
            return UPred(f"b{self.rng.randrange(3)}",
                         tuple(self.term(None, depth - 1)
                               for _ in range(self.rng.randrange(1, 3))))
        return URel(f"R{self.rng.randrange(3)}", self.term(None, depth - 1))


def _clone_term(t: Term) -> Term:
    """Rebuild a term bottom-up through the public constructors."""
    if isinstance(t, TVar):
        return TVar(str(t.name), t.var_schema)
    if isinstance(t, TUnit):
        return TUnit()
    if isinstance(t, TConst):
        return TConst(t.value, t.ty)
    if isinstance(t, TPair):
        return TPair(_clone_term(t.left), _clone_term(t.right))
    if isinstance(t, TFst):
        return TFst(_clone_term(t.arg))
    if isinstance(t, TSnd):
        return TSnd(_clone_term(t.arg))
    if isinstance(t, TApp):
        return TApp(str(t.fn), tuple(_clone_term(a) for a in t.args),
                    t.result_schema)
    if isinstance(t, TAgg):
        return TAgg(str(t.name), _clone_term(t.var), _clone_uterm(t.body),
                    t.ty)
    raise TypeError(t)


def _clone_uterm(u: UTerm) -> UTerm:
    if isinstance(u, UZero):
        return UZero()
    if isinstance(u, UOne):
        return UOne()
    if isinstance(u, UAdd):
        return UAdd(_clone_uterm(u.left), _clone_uterm(u.right))
    if isinstance(u, UMul):
        return UMul(_clone_uterm(u.left), _clone_uterm(u.right))
    if isinstance(u, USquash):
        return USquash(_clone_uterm(u.arg))
    if isinstance(u, UNeg):
        return UNeg(_clone_uterm(u.arg))
    if isinstance(u, USum):
        return USum(_clone_term(u.var), _clone_uterm(u.body))
    if isinstance(u, UEq):
        return UEq(_clone_term(u.left), _clone_term(u.right))
    if isinstance(u, URel):
        return URel(str(u.name), _clone_term(u.arg))
    if isinstance(u, UPred):
        return UPred(str(u.name), tuple(_clone_term(a) for a in u.args))
    raise TypeError(u)


# ---------------------------------------------------------------------------
# Reference (uncached) metadata implementations — frozen pre-kernel forms
# ---------------------------------------------------------------------------

def ref_term_free_vars(t):
    if isinstance(t, TVar):
        return frozenset({t})
    if isinstance(t, (TUnit, TConst)):
        return frozenset()
    if isinstance(t, TPair):
        return ref_term_free_vars(t.left) | ref_term_free_vars(t.right)
    if isinstance(t, (TFst, TSnd)):
        return ref_term_free_vars(t.arg)
    if isinstance(t, TApp):
        out = frozenset()
        for a in t.args:
            out |= ref_term_free_vars(a)
        return out
    if isinstance(t, TAgg):
        return ref_uterm_free_vars(t.body) - {t.var}
    raise TypeError(t)


def ref_uterm_free_vars(u):
    if isinstance(u, (UZero, UOne)):
        return frozenset()
    if isinstance(u, (UAdd, UMul)):
        return ref_uterm_free_vars(u.left) | ref_uterm_free_vars(u.right)
    if isinstance(u, (USquash, UNeg)):
        return ref_uterm_free_vars(u.arg)
    if isinstance(u, USum):
        return ref_uterm_free_vars(u.body) - {u.var}
    if isinstance(u, UEq):
        return ref_term_free_vars(u.left) | ref_term_free_vars(u.right)
    if isinstance(u, URel):
        return ref_term_free_vars(u.arg)
    if isinstance(u, UPred):
        out = frozenset()
        for a in u.args:
            out |= ref_term_free_vars(a)
        return out
    raise TypeError(u)


def ref_term_alpha_key(term, env=None):
    env = env or {}
    if isinstance(term, TVar):
        return ("var", env.get(term, term.name), str(term.var_schema))
    if isinstance(term, TUnit):
        return ("unit",)
    if isinstance(term, TPair):
        return ("pair", ref_term_alpha_key(term.left, env),
                ref_term_alpha_key(term.right, env))
    if isinstance(term, TFst):
        return ("fst", ref_term_alpha_key(term.arg, env))
    if isinstance(term, TSnd):
        return ("snd", ref_term_alpha_key(term.arg, env))
    if isinstance(term, TConst):
        return ("const", term.ty.name, repr(term.value))
    if isinstance(term, TApp):
        return ("app", term.fn, str(term.result_schema),
                tuple(ref_term_alpha_key(a, env) for a in term.args))
    if isinstance(term, TAgg):
        inner = dict(env)
        inner[term.var] = "@agg"
        return ("agg", term.name, term.ty.name,
                ref_uterm_alpha_key(term.body, inner))
    raise TypeError(term)


def ref_uterm_alpha_key(u, env=None):
    env = env or {}
    if isinstance(u, UZero):
        return ("zero",)
    if isinstance(u, UOne):
        return ("one",)
    if isinstance(u, UAdd):
        return ("add", ref_uterm_alpha_key(u.left, env),
                ref_uterm_alpha_key(u.right, env))
    if isinstance(u, UMul):
        return ("mul", ref_uterm_alpha_key(u.left, env),
                ref_uterm_alpha_key(u.right, env))
    if isinstance(u, USquash):
        return ("squash", ref_uterm_alpha_key(u.arg, env))
    if isinstance(u, UNeg):
        return ("neg", ref_uterm_alpha_key(u.arg, env))
    if isinstance(u, USum):
        inner = dict(env)
        inner[u.var] = f"@{len(env)}"
        return ("sum", str(u.var.var_schema),
                ref_uterm_alpha_key(u.body, inner))
    if isinstance(u, UEq):
        return ("eq", ref_term_alpha_key(u.left, env),
                ref_term_alpha_key(u.right, env))
    if isinstance(u, URel):
        return ("rel", u.name, ref_term_alpha_key(u.arg, env))
    if isinstance(u, UPred):
        return ("pred", u.name,
                tuple(ref_term_alpha_key(a, env) for a in u.args))
    raise TypeError(u)


def ref_atom_alpha_key(atom, env=None):
    env = env or {}
    if isinstance(atom, ARel):
        return ("rel", atom.name, ref_term_alpha_key(atom.arg, env))
    if isinstance(atom, AEq):
        keys = sorted((ref_term_alpha_key(atom.left, env),
                       ref_term_alpha_key(atom.right, env)))
        return ("eq", keys[0], keys[1])
    if isinstance(atom, APred):
        return ("pred", atom.name,
                tuple(ref_term_alpha_key(a, env) for a in atom.args))
    if isinstance(atom, ASquash):
        return ("squash", ref_nsum_alpha_key(atom.inner, env))
    if isinstance(atom, ANeg):
        return ("negsum", ref_nsum_alpha_key(atom.inner, env))
    raise TypeError(atom)


def ref_product_alpha_key(product, env=None):
    env = dict(env) if env else {}
    for i, v in enumerate(product.vars):
        env[v] = f"@{len(env)}.{i}"
    schemas = tuple(sorted(str(v.var_schema) for v in product.vars))
    factor_keys = tuple(sorted(ref_atom_alpha_key(f, env)
                               for f in product.factors))
    return ("product", schemas, factor_keys)


def ref_nsum_alpha_key(nsum, env=None):
    return ("nsum", tuple(sorted(ref_product_alpha_key(p, env)
                                 for p in nsum.products)))


# ---------------------------------------------------------------------------
# The properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(N_SAMPLES))
def test_intern_pointer_equality_iff_structural(seed):
    gen = Gen(seed)
    u = gen.uterm()
    clone = _clone_uterm(u)
    assert clone is u, "structurally equal construction must re-intern"
    assert clone == u and hash(clone) == hash(u)
    other = Gen(seed + 10_000).uterm()
    if other is not u:
        assert other != u, \
            "distinct canonical nodes must be structurally unequal"


@pytest.mark.parametrize("seed", range(0, N_SAMPLES, 3))
def test_term_clone_reinterns(seed):
    t = Gen(seed).term()
    assert _clone_term(t) is t


@pytest.mark.parametrize("seed", range(N_SAMPLES))
def test_cached_free_vars_match_reference(seed):
    gen = Gen(seed)
    u = gen.uterm()
    assert uterm_free_vars(u) == ref_uterm_free_vars(u)
    # Twice: the second read comes from the cache slot.
    assert uterm_free_vars(u) == ref_uterm_free_vars(u)
    t = gen.term()
    assert term_free_vars(t) == ref_term_free_vars(t)


@pytest.mark.parametrize("seed", range(N_SAMPLES))
def test_cached_alpha_keys_match_reference(seed):
    gen = Gen(seed)
    u = gen.uterm()
    assert uterm_alpha_key(u) == ref_uterm_alpha_key(u)
    t = gen.term()
    assert term_alpha_key(t) == ref_term_alpha_key(t)
    # Non-trivial environments exercise the binder-sensitivity fast path.
    env = {v: f"@L{i}" for i, v in enumerate(sorted(
        uterm_free_vars(u) | term_free_vars(t), key=str))}
    assert uterm_alpha_key(u, dict(env)) == ref_uterm_alpha_key(u, dict(env))
    assert term_alpha_key(t, dict(env)) == ref_term_alpha_key(t, dict(env))
    # A labelling that misses the term entirely (pure fast-path case).
    foreign = {TVar("zz", Leaf(INT)): "@Z"}
    assert term_alpha_key(t, dict(foreign)) == \
        ref_term_alpha_key(t, dict(foreign))


@pytest.mark.parametrize("seed", range(0, N_SAMPLES, 2))
def test_normal_form_alpha_keys_match_reference(seed):
    u = Gen(seed).uterm()
    n = normalize(u)
    assert nsum_alpha_key(n) == ref_nsum_alpha_key(n)
    for p in n.products:
        assert product_alpha_key(p) == ref_product_alpha_key(p)
        for f in p.factors:
            assert atom_alpha_key(f) == ref_atom_alpha_key(f)


@pytest.mark.parametrize("seed", range(0, N_SAMPLES, 2))
def test_normalize_idempotent(seed):
    u = Gen(seed).uterm()
    n = normalize(u)
    again = normalize(nsum_to_uterm(n))
    assert nsums_alpha_equal(n, again)
    # Pointer-identical input hits the memo and returns the same object.
    assert normalize(u) is n


@pytest.mark.parametrize("seed", range(0, N_SAMPLES, 4))
def test_normal_form_free_vars_match_reference(seed):
    u = Gen(seed).uterm()
    n = normalize(u)
    expected = frozenset()
    for p in n.products:
        got = frozenset()
        for f in p.factors:
            got |= atom_free_vars(f)
            # atom-level cache agrees with the raw term-level reference
            if isinstance(f, ARel):
                assert atom_free_vars(f) == ref_term_free_vars(f.arg)
        expected |= got - frozenset(p.vars)
    assert nsum_free_vars(n) == expected


def test_nproduct_factor_order_is_canonical():
    x = TVar("x", SVar("s"))
    rel = ARel("R", x)
    pred = APred("b", (x,))
    eq = AEq(x, TConst(1, INT))
    squash = ASquash(NSum((NProduct((), (rel,)),)))
    shuffled = (squash, eq, pred, rel)
    product = NProduct((), shuffled)
    kinds = [type(f) for f in product.factors]
    assert kinds == [ARel, APred, AEq, ASquash]
    # Any permutation interns onto the same node.
    assert NProduct((), (rel, pred, eq, squash)) is product
    assert NProduct((), (pred, squash, rel, eq)) is product


def test_distinct_constants_not_identified():
    assert TConst(1, INT) is not TConst(2, INT)
    assert TConst(1, INT) != TConst(2, INT)
    assert TConst(True, BOOL) is not TConst(1, INT)


def test_singletons():
    assert TUnit() is TUnit()
    assert UZero() is UZero()
    assert UOne() is UOne()


@pytest.mark.parametrize("seed", range(0, N_SAMPLES, 5))
def test_pickle_roundtrip_reinterns(seed):
    u = Gen(seed).uterm()
    assert pickle.loads(pickle.dumps(u)) is u
    n = normalize(u)
    assert pickle.loads(pickle.dumps(n)) is n


def test_concurrent_construction_single_node():
    results = []
    barrier = threading.Barrier(8)

    def build(i):
        barrier.wait()
        v = TVar("race", Node(Leaf(INT), Leaf(BOOL)))
        results.append(URel("Race", TPair(v, TConst(i % 2, INT))))

    threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    assert len({id(r) for r in results}) == 2  # one canonical node per value
    assert all(a is b for a in results for b in results if a == b)


def test_concurrent_construction_stress():
    """More threads than cores, switching every microsecond, build the
    same fresh terms: each structure gets one canonical node, and the
    exact miss counter matches the nodes the tables gained."""
    import sys

    n_threads, rounds = 8, 1000
    results = [[] for _ in range(n_threads)]
    barrier = threading.Barrier(n_threads)

    def build(slot):
        for i in range(rounds):
            barrier.wait()  # every thread races on the same fresh terms
            v = TVar(f"stress{i}", Node(Leaf(INT), Leaf(INT)))
            results[slot].append(URel("Stress", TPair(TFst(v), v)))

    before = intern_stats()
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(slot,))
                   for slot in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    after = intern_stats()
    first = results[0]
    assert len(first) == rounds
    for other in results[1:]:
        assert len(other) == rounds
        assert all(a is b for a, b in zip(first, other))
    assert all("_hc_ready" in node.__dict__ for node in first)
    assert (after["intern_misses"] - before["intern_misses"]
            == after["interned_nodes"] - before["interned_nodes"])


def test_intern_stats_shape():
    stats = intern_stats()
    assert set(stats) == {"intern_hits", "intern_misses", "interned_nodes"}
    assert all(isinstance(v, int) for v in stats.values())


def test_kernel_lru_reset_cannot_under_report_hits():
    """A metrics-window ``reset()`` racing a hitter thread must not lose
    hits: the lifetime counters are monotonic and the snapshot/reset
    pair is atomic, so the lifetime delta equals the hits the hitter
    actually observed — regardless of how many resets landed mid-run."""
    from repro.core.intern import KernelLRU

    lru = KernelLRU(64, "test-threaded-reset")
    for i in range(16):
        lru.put(i, i)

    observed = 0
    stop = threading.Event()

    before = lru.snapshot()

    def hitter():
        nonlocal observed
        for _ in range(200):
            for i in range(16):
                if lru.get(i) is not None:
                    observed += 1

    def resetter():
        while not stop.is_set():
            lru.reset()

    h = threading.Thread(target=hitter)
    r = threading.Thread(target=resetter)
    r.start()
    h.start()
    h.join()
    stop.set()
    r.join()

    after = lru.snapshot()
    delta = after["lifetime_hits"] - before["lifetime_hits"]
    assert delta == observed == 200 * 16, \
        (f"lifetime hit delta {delta} != observed {observed}: "
         f"a reset() lost hits")
    # The window counters, by contrast, were zeroed mid-run — which is
    # exactly why delta consumers must difference the lifetime counters.
    assert after["hits"] <= delta


# ---------------------------------------------------------------------------
# The generated constructor: identity hash, every construction route
# ---------------------------------------------------------------------------

def test_every_interned_class_hashes_by_identity():
    from repro.core.intern import _CLASSES
    assert _CLASSES
    for cls in _CLASSES:
        assert cls.__hash__ is object.__hash__, cls
        assert cls.__init__ is object.__init__, cls


def _routes(node):
    """The node rebuilt positionally, by keyword, through
    ``dataclasses.replace`` and through a pickle round-trip."""
    values = [getattr(node, f.name) for f in dataclasses.fields(node)]
    kwargs = {f.name: v for f, v in zip(dataclasses.fields(node), values)}
    cls = type(node)
    return [cls(*values), cls(**kwargs),
            cls(*values[:1], **dict(list(kwargs.items())[1:])),
            dataclasses.replace(node),
            pickle.loads(pickle.dumps(node))]


def _subterms(node):
    yield node
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        for item in value if type(value) is tuple else (value,):
            if dataclasses.is_dataclass(item) and \
                    not isinstance(item, type):
                yield from _subterms(item)


@pytest.mark.parametrize("seed", range(0, N_SAMPLES, 3))
def test_every_construction_route_returns_the_node(seed):
    u = Gen(seed).uterm()
    n = normalize(u)
    for root in (u, n):
        for node in _subterms(root):
            for built in _routes(node):
                assert built is node, (type(node).__name__, built)


def test_wrong_arity_raises_the_dataclass_error():
    with pytest.raises(TypeError, match=r"TVar.__init__\(\) missing 1 "
                       r"required positional argument: 'var_schema'"):
        TVar("x")
    with pytest.raises(TypeError, match=r"takes 3 positional arguments "
                       r"but 4 were given"):
        TVar("x", INT, INT)
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        TVar("x", var_schema=Leaf(INT), nme="y")
    with pytest.raises(TypeError, match="missing 2 required"):
        NProduct()


def test_unhashable_payload_stays_uncanonical():
    from repro.core.intern import KernelLRU

    const = TConst([1], INT)
    twin = TConst([1], INT)
    assert const is not twin and const == twin
    assert "_hc_ready" not in const.__dict__
    assert hash(const) == object.__hash__(const)
    # A parent of an un-canonical child stays un-canonical too.
    pair = TPair(const, TVar("x", Leaf(INT)))
    assert "_hc_ready" not in pair.__dict__
    assert pair == TPair(twin, TVar("x", Leaf(INT)))
    lru = KernelLRU(4, "test-unhashable-payload")
    assert lru.get(const) is None
    lru.put(const, "stored")
    assert lru.get(const) == "stored"
    assert lru.get(twin) is None  # a key only its own object hits


def test_fields_set_in_dataclass_order_then_marker():
    node = TApp("f-order", (TVar("x", Leaf(INT)),), Leaf(INT))
    assert list(node.__dict__)[:4] == ["fn", "args", "result_schema",
                                       "_hc_ready"]


def _reference_repr(value):
    """``repr`` as the dataclass-generated ``__repr__`` spells it."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        inner = ", ".join(f"{f.name}={_reference_repr(getattr(value, f.name))}"
                          for f in dataclasses.fields(value) if f.repr)
        return f"{type(value).__qualname__}({inner})"
    if type(value) is tuple:
        items = [_reference_repr(v) for v in value]
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
    return repr(value)


def test_repr_matches_the_dataclass_text_on_verify_queries():
    from perfbench import gen
    from repro.session import Session

    session = Session.from_tables(*gen.TABLES)
    for pair in gen.verify_pairs(1, 640):
        for sql in (pair.sql1, pair.sql2):
            handle = session.sql(sql)
            assert repr(handle.query) == _reference_repr(handle.query)
            nsum = handle.normalized.nsum
            assert repr(nsum) == _reference_repr(nsum)


@pytest.mark.parametrize("sql, digest", [
    ("SELECT DISTINCT a FROM R",
     "a5a15ca07edf58433cb3a760e7e195cbf56a7a47084df1500266765f09d89f7c"),
    ("SELECT x.a, SUM(y.b) AS s FROM R AS x, S AS y "
     "WHERE x.a = y.a AND y.b > 3 GROUP BY x.a",
     "2f5d35e24a650b8d7ff1c709edab7097e7b62f57b01ec748a5dfa20766a004b0"),
    ("SELECT a FROM R WHERE EXISTS (SELECT * FROM S WHERE S.b = R.b) "
     "UNION ALL SELECT b FROM S EXCEPT SELECT a FROM R",
     "6f04c11da7a47aa459002149a428898513461f52f1a61f25d5da0e2c43a93cbd"),
])
def test_query_side_digest_is_pinned(sql, digest):
    """Stored aliases are keyed by these digests of ``repr(query)``."""
    from repro.solver.cache import query_side_digest
    from repro.sql import Catalog, compile_sql

    catalog = Catalog()
    catalog.add_table("R", [("a", INT), ("b", INT)])
    catalog.add_table("S", [("a", INT), ("b", INT)])
    assert query_side_digest(compile_sql(sql, catalog).query) == digest


@pytest.mark.parametrize("declare", [
    "post_init", "default", "default_factory", "init_false", "kw_only"])
def test_decorator_refuses_what_the_constructor_would_skip(declare):
    from repro.core.intern import _CLASSES, interned

    namespace = {"__annotations__": {"x": int}}
    if declare == "post_init":
        namespace["__post_init__"] = lambda self: None
    elif declare == "default":
        namespace["x"] = 0
    elif declare == "default_factory":
        namespace["x"] = dataclasses.field(default_factory=int)
    elif declare == "init_false":
        namespace["x"] = dataclasses.field(default=0, init=False)
    else:
        namespace["x"] = dataclasses.field(kw_only=True)
    cls = dataclasses.dataclass(frozen=True)(
        type(f"Throwaway_{declare}", (), namespace))
    with pytest.raises(TypeError, match="@interned class Throwaway"):
        interned(cls)
    assert cls not in _CLASSES

"""Seeded input generators for the four workloads.

Every generator is a pure function of ``(seed, n)``: it seeds its own
``random.Random`` objects from strings (stable across processes, whatever
``PYTHONHASHSEED`` is) and never consults global state.  Each op is drawn
from a fixed *kind mix* laid out in repeated blocks.  The shape of op
``i`` — its tables, columns, join order and which alias a filter names —
comes from a generator seeded by the stream alone; the seed picks only
the aliases' names and the constants.  So two seeds give different
queries that cost the same work op for op (the benchmark's tests pin
this), and a run's spread across seeds is the host's, not the inputs'.

Every pair carries its expected class (``equiv``/``inequiv``) for the
result oracle and the decision stage it is built to land on, which the
benchmark's tests check.  Every op carries a constant of its own, so the
proof cache and the plan memo never hit.  In pairs the disprover decides
it appears as ``<> c`` with ``c`` outside the disprover's ``{0, 1}``
domain: always true on every enumerated instance, so it never hides a
counterexample.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Sequence, Tuple

#: The catalog every workload runs against.
TABLES = ("R(a:int,b:int)", "S(a:int,b:int)", "T(a:int,b:int)")
TABLE_NAMES = ("R", "S", "T")
#: Cardinalities for the optimizer's cost model (optimize-certify).
TABLE_ROWS = {"R": 1000.0, "S": 100.0, "T": 10.0}

_ALIASES = ("x", "y", "z", "u", "v", "w", "m", "n", "p", "q")


@dataclass(frozen=True)
class Pair:
    """One equivalence question with its expected outcome."""

    kind: str
    sql1: str
    sql2: str
    #: ``"equiv"`` or ``"inequiv"`` — what the oracle holds the verdict to.
    expect: str
    #: the pipeline stage the kind is built to be decided by.
    stage: str


@dataclass(frozen=True)
class Query:
    """One optimizer input."""

    kind: str
    sql: str
    #: the query's distinguishing constant; the plan oracle adds it to
    #: its database's value domain so filters on it can match.
    const: int


class _Draw:
    """Shape choices (``rng``, the same for every seed) plus seeded alias
    names and a seeded supply of distinct constants."""

    def __init__(self, rng: random.Random, names: random.Random,
                 constants: Sequence[int]):
        self.rng = rng
        self._names = names
        self._constants = iter(constants)

    def const(self) -> int:
        return next(self._constants)

    def aliases(self, k: int) -> List[str]:
        return self._names.sample(_ALIASES, k)

    def table(self) -> str:
        return self.rng.choice(TABLE_NAMES)

    def tables(self, k: int) -> List[str]:
        return self.rng.sample(TABLE_NAMES, k)

    def chain(self, k: int) -> List[str]:
        """``k`` tables for a join chain: R, S, T in turn from a random
        start, so every chain of one length repeats tables alike (a chain
        of one table self-joined costs the prover more)."""
        start = self.rng.randrange(len(TABLE_NAMES))
        return [TABLE_NAMES[(start + i) % len(TABLE_NAMES)]
                for i in range(k)]

    def col(self) -> str:
        return self.rng.choice("ab")


# -- verify-cold kinds ------------------------------------------------------

def _alpha(d: _Draw) -> Pair:
    x, y = d.aliases(2)
    t, c, col = d.table(), d.const(), d.col()
    body = "SELECT {0}.a, {0}.b FROM {1} AS {0} WHERE {0}.{2} = {3}"
    return Pair("alpha", body.format(x, t, col, c), body.format(y, t, col, c),
                "equiv", "alpha-hash")


def _union(d: _Draw) -> Pair:
    x, y = d.aliases(2)
    t1, t2 = d.tables(2)
    c = d.const()
    left = f"SELECT {x}.{d.col()} FROM {t1} AS {x} WHERE {x}.{d.col()} = {c}"
    right = f"SELECT {y}.{d.col()} FROM {t2} AS {y}"
    return Pair("union", f"{left} UNION ALL {right}",
                f"{right} UNION ALL {left}", "equiv", "alpha-hash")


def _exists(d: _Draw) -> Pair:
    x, y = d.aliases(2)
    t1, t2 = d.tables(2)
    c = d.const()
    sub = (f"EXISTS (SELECT * FROM {t2} AS {y} "
           f"WHERE {y}.{d.col()} = {x}.{d.col()})")
    sel = f"{x}.a = {c}"
    head = f"SELECT {x}.a FROM {t1} AS {x} WHERE "
    return Pair("exists", f"{head}{sub} AND {sel}", f"{head}{sel} AND {sub}",
                "equiv", "alpha-hash")


def _selfjoin(d: _Draw) -> Pair:
    copies = d.rng.choice((2, 3))
    names = d.aliases(copies)
    t, c = d.table(), d.const()
    x = names[0]
    left = f"SELECT DISTINCT {x}.a FROM {t} AS {x} WHERE {x}.b = {c}"
    joins = [f"{names[i]}.a = {names[i + 1]}.a" for i in range(copies - 1)]
    right = (f"SELECT DISTINCT {x}.a FROM "
             + ", ".join(f"{t} AS {n}" for n in names)
             + " WHERE " + " AND ".join(joins + [f"{x}.b = {c}"]))
    return Pair("selfjoin", left, right, "equiv", "conjunctive")


def _join_reorder(k: int) -> Callable[[_Draw], Pair]:
    def make(d: _Draw) -> Pair:
        names = d.aliases(k)
        tables = d.chain(k)
        c = d.const()
        conds = [f"{names[i]}.b = {names[i + 1]}.a" for i in range(k - 1)]
        conds.append(f"{names[0]}.a = {c}")
        # Moving the last FROM item is what defeats the alpha-hash tier:
        # swaps inside the leading prefix reassociate to the same
        # canonical normal form.
        order = list(range(k))
        while order[-1] == k - 1:
            d.rng.shuffle(order)
        shuffled = conds[:]
        d.rng.shuffle(shuffled)

        def text(idx, cs):
            return (f"SELECT {names[0]}.a FROM "
                    + ", ".join(f"{tables[i]} AS {names[i]}" for i in idx)
                    + " WHERE " + " AND ".join(cs))
        return Pair(f"join{k}", text(range(k), conds), text(order, shuffled),
                    "equiv", "prover")
    return make


def _having(d: _Draw) -> Pair:
    (x,) = d.aliases(1)
    t, c = d.table(), d.const()
    agg = d.rng.choice(("SUM", "COUNT"))
    head = f"SELECT {x}.a, {agg}({x}.b) AS s FROM {t} AS {x}"
    return Pair("having",
                f"{head} GROUP BY {x}.a HAVING {x}.a = {c}",
                f"{head} WHERE {x}.a = {c} GROUP BY {x}.a",
                "equiv", "prover")


def _projswap(d: _Draw) -> Pair:
    (x,) = d.aliases(1)
    t, c, col = d.table(), d.const(), d.col()
    body = "SELECT {0}.{1} FROM {2} AS {0} WHERE {0}.{3} <> {4}"
    return Pair("projswap", body.format(x, "a", t, col, c),
                body.format(x, "b", t, col, c), "inequiv", "disprover")


def _joinswap(d: _Draw) -> Pair:
    x, y = d.aliases(2)
    t1, t2 = d.tables(2)
    c = d.const()
    swapped = d.rng.choice((f"{x}.a = {y}.a", f"{x}.b = {y}.b"))
    head = f"SELECT {x}.a FROM {t1} AS {x}, {t2} AS {y} WHERE "
    return Pair("joinswap", f"{head}{x}.b = {y}.a AND {x}.a <> {c}",
                f"{head}{swapped} AND {x}.a <> {c}", "inequiv", "disprover")


#: kind → (generator, ops per block of 20).
VERIFY_MIX: Dict[str, Tuple[Callable[[_Draw], Pair], int]] = {
    "alpha": (_alpha, 2),
    "union": (_union, 2),
    "exists": (_exists, 2),
    "selfjoin": (_selfjoin, 3),
    "join3": (_join_reorder(3), 2),
    "join4": (_join_reorder(4), 2),
    "join5": (_join_reorder(5), 1),
    "having": (_having, 2),
    "projswap": (_projswap, 2),
    "joinswap": (_joinswap, 2),
}


# -- refute-bounded kinds ---------------------------------------------------

_FLIP = {"<": ">", "<=": ">="}


def _cmp_equiv(d: _Draw) -> Pair:
    """Equivalent, but only modulo comparison semantics the prover does
    not model: the disprover exhausts its whole bound (UNKNOWN)."""
    x, y = d.aliases(2)
    t1, t2 = d.tables(2)
    c = d.const()
    op = d.rng.choice(("<", "<="))
    p, q = d.col(), d.col()
    head = f"SELECT {x}.a FROM {t1} AS {x}, {t2} AS {y} WHERE "
    return Pair("cmp",
                f"{head}{x}.{p} {op} {y}.{q} AND {x}.b <> {c}",
                f"{head}{y}.{q} {_FLIP[op]} {x}.{p} AND {x}.b <> {c}",
                "equiv", "disprover")


def _mr_selfjoin(d: _Draw) -> Pair:
    x, y = d.aliases(2)
    t, c = d.table(), d.const()
    return Pair("mr_selfjoin",
                f"SELECT DISTINCT {x}.a FROM {t} AS {x}, {t} AS {y} "
                f"WHERE {x}.b = {y}.a AND {x}.a <> {c}",
                f"SELECT DISTINCT {x}.a FROM {t} AS {x} "
                f"WHERE {x}.a = {x}.b AND {x}.a <> {c}",
                "inequiv", "disprover")


def _mr_strict(d: _Draw) -> Pair:
    x, y = d.aliases(2)
    t1, t2 = d.tables(2)
    c = d.const()
    head = (f"SELECT {x}.a FROM {t1} AS {x}, {t2} AS {y} "
            f"WHERE {x}.a = {y}.a AND {x}.b ")
    return Pair("mr_strict", f"{head}< {y}.b AND {x}.a <> {c}",
                f"{head}<= {y}.b AND {x}.a <> {c}", "inequiv", "disprover")


def _mr_dup(d: _Draw) -> Pair:
    x, y = d.aliases(2)
    t1, t2 = d.tables(2)
    c = d.const()
    body = (" {0}.a FROM {1} AS {0}, {2} AS {3} "
            "WHERE {0}.b = {3}.a AND {3}.b <> {4}").format(x, t1, t2, y, c)
    return Pair("mr_dup", "SELECT" + body, "SELECT DISTINCT" + body,
                "inequiv", "disprover")


def _mr_semijoin(d: _Draw) -> Pair:
    x, y = d.aliases(2)
    t1, t2 = d.tables(2)
    c = d.const()
    return Pair("mr_semijoin",
                f"SELECT {x}.a FROM {t1} AS {x} WHERE EXISTS (SELECT * FROM "
                f"{t2} AS {y} WHERE {y}.a = {x}.b) AND {x}.a <> {c}",
                f"SELECT {x}.a FROM {t1} AS {x}, {t2} AS {y} "
                f"WHERE {y}.a = {x}.b AND {x}.a <> {c}",
                "inequiv", "disprover")


#: kind → (generator, ops per block of 10).
REFUTE_MIX: Dict[str, Tuple[Callable[[_Draw], Pair], int]] = {
    "cmp": (_cmp_equiv, 2),
    "mr_selfjoin": (_mr_selfjoin, 2),
    "mr_strict": (_mr_strict, 2),
    "mr_dup": (_mr_dup, 2),
    "mr_semijoin": (_mr_semijoin, 2),
}


# -- optimize-certify kinds -------------------------------------------------

def _chain(d: _Draw, kind: str, k: int, filters: int,
           distinct: bool = False) -> Query:
    names = d.aliases(k)
    tables = d.chain(k)
    conds = [f"{names[i]}.b = {names[i + 1]}.a" for i in range(k - 1)]
    # The first filter's constant is the query's unique one (so the plan
    # memo and the proof cache never hit); the others are small.  All
    # filters name the same column of distinct aliases: two filters on
    # one join-equated pair of columns would make the query empty.
    consts = [d.const()] + [d.rng.choice((0, 1, 2))
                            for _ in range(filters - 1)]
    col = d.col()
    for i, c in zip(d.rng.sample(range(k), filters), consts):
        conds.append(f"{names[i]}.{col} = {c}")
    d.rng.shuffle(conds)
    return Query(kind,
                 f"SELECT {'DISTINCT ' if distinct else ''}{names[0]}.a FROM "
                 + ", ".join(f"{tables[i]} AS {names[i]}" for i in range(k))
                 + " WHERE " + " AND ".join(conds), consts[0])


def _opt_derived(d: _Draw) -> Query:
    x, y = d.aliases(2)
    t1, t2 = d.chain(2)
    c = d.const()
    return Query("derived",
                 f"SELECT {x}.a FROM (SELECT * FROM {t1} WHERE a = {c}) "
                 f"AS {x}, {t2} AS {y} WHERE {x}.b = {y}.a", c)


def _opt_semijoin(d: _Draw) -> Query:
    x, y = d.aliases(2)
    t1, t2 = d.chain(2)
    c = d.const()
    return Query("semijoin",
                 f"SELECT {x}.b FROM {t1} AS {x} WHERE {x}.a = {c} AND "
                 f"EXISTS (SELECT * FROM {t2} AS {y} WHERE {y}.a = {x}.b)", c)


#: kind → (generator, ops per block of 10).  The weights keep p50 inside
#: the join2 cluster and p90 inside the join3d one, never on the step
#: between two kinds' latencies.
OPTIMIZE_MIX: Dict[str, Tuple[Callable[[_Draw], Query], int]] = {
    "join2": (partial(_chain, kind="join2", k=2, filters=1), 4),
    "join2f": (partial(_chain, kind="join2f", k=2, filters=2), 1),
    "join3": (partial(_chain, kind="join3", k=3, filters=1), 1),
    "join3d": (partial(_chain, kind="join3d", k=3, filters=1,
                       distinct=True), 2),
    "derived": (_opt_derived, 1),
    "semijoin": (_opt_semijoin, 1),
}


# -- corpus assembly --------------------------------------------------------

def _block_layout(mix) -> List[str]:
    """One block of the mix: each kind ``weight`` times, spread evenly."""
    slots = [((j + 0.5) / weight, i, kind)
             for i, (kind, (_, weight)) in enumerate(mix.items())
             for j in range(weight)]
    return [kind for _, _, kind in sorted(slots)]


def _corpus(mix, name: str, seed: int, n: int, first_const: int = 2):
    """``n`` distinct items laid out in repeated blocks of the mix.

    Every block holds each kind in its exact share, in the same order, so
    any prefix of the corpus — and the head of a Zipf-ranked pool — has
    the same kind mix whatever the seed.  Item ``i`` has the same shape
    for every seed; the seed picks its aliases and constants.
    """
    seeded = random.Random(f"perfbench:{name}:{seed}")
    # Every kind draws one constant an op; the rest is headroom.
    constants = list(range(first_const, first_const + 8 * n + 16))
    seeded.shuffle(constants)
    draw = _Draw(random.Random(f"perfbench:{name}:shape"), seeded,
                 constants)
    layout = _block_layout(mix)
    return [mix[layout[i % len(layout)]][0](draw) for i in range(n)]


def verify_pairs(seed: int, n: int, *, stream: str = "verify",
                 first_const: int = 2) -> List[Pair]:
    """Distinct pairs for verify-cold (and serve-reask's pool)."""
    return _corpus(VERIFY_MIX, stream, seed, n, first_const)


def refute_pairs(seed: int, n: int, *, stream: str = "refute",
                 first_const: int = 2) -> List[Pair]:
    """Distinct pairs for refute-bounded."""
    return _corpus(REFUTE_MIX, stream, seed, n, first_const)


def optimize_queries(seed: int, n: int, *, stream: str = "optimize",
                     first_const: int = 2) -> List[Query]:
    """Distinct SELECT-FROM-WHERE queries for optimize-certify."""
    return _corpus(OPTIMIZE_MIX, stream, seed, n, first_const)


#: First constant of the warm-up and never-seen streams: above any
#: constant a timed corpus uses, so they never repeat one of its ops.
SIDE_CONST = 10 ** 6


def reask_stream(seed: int, n: int, pool: int, fresh: int,
                 s: float = 1.1) -> List[int]:
    """``n`` op slots for serve-reask: pool ranks drawn with Zipf(``s``)
    skew, and ``fresh`` slots (-1: a never-seen pair) at seeded places."""
    rng = random.Random(f"perfbench:reask:{seed}")
    cum, total = [], 0.0
    for rank in range(1, pool + 1):
        total += rank ** -s
        cum.append(total)
    slots = rng.choices(range(pool), cum_weights=cum, k=n)
    for i in rng.sample(range(n), fresh):
        slots[i] = -1
    return slots

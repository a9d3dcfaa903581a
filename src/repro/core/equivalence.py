"""The equivalence engine: deciding equality of UniNomial normal forms.

This is the reproduction of DOPCERT's lemma/tactic library (paper Sec. 5).
Given two normal forms (:class:`~repro.core.normalize.NSum`), the engine
decides equality using exactly the ingredients of the paper's proofs:

* **semiring matching** — clauses are compared modulo associativity and
  commutativity of ``+``/``×`` with a bound-variable bijection search,
* **congruence closure** — equalities inside a clause are saturated
  (Nelson–Oppen), including the Horn axioms induced by key and functional-
  dependency hypotheses (paper Sec. 4.2, used by the index rules of
  Sec. 5.1.4),
* **Lemma 5.3 absorption** — ``(T → P) ⟹ (T × P = T)``: any propositional
  factor entailed by the rest of its clause is dropped,
* **squash bi-implication** — equality of truncated types is proved by
  mutual implication, with existentials discharged by a backtracking
  instantiation search (the paper's Ltac backtracking, Sec. 5.2),
* **aggregate congruence** — ``agg`` terms are compared by recursively
  deciding bag-equivalence of their (context-rewritten) bodies, which is
  how the GROUP BY rule of Sec. 5.1.2 goes through.

The engine is *sound but incomplete* (query equivalence is undecidable —
paper Figure 9); for the conjunctive-query fragment the search is complete,
which is what :mod:`repro.core.conjunctive` exposes as the automated
decision procedure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ReproError, SchemaMismatchError
from .congruence import CongruenceClosure
from .normalize import (
    AEq,
    ANeg,
    APred,
    ARel,
    ASquash,
    Atom,
    NProduct,
    NSum,
    atom_alpha_key,
    atom_free_vars,
    atom_subst,
    normalize,
    nsums_alpha_equal,
    product_alpha_key,
)
from .schema import Empty, Node, Schema
from .uninomial import (
    Substitution,
    TAgg,
    TApp,
    TPair,
    TUnit,
    TVar,
    Term,
    UTerm,
    fresh_var,
    iter_subterms,
    subst_uterm,
    term_free_vars,
)

#: Maximum nesting depth for the entailment search.  Each level of squash
#: opening, aggregate congruence, or witness instantiation consumes one
#: unit; the deepest paper rule (semijoin through aggregation — a squash
#: inside an aggregate body inside a squash) needs eight.
MAX_DEPTH = 9


# ---------------------------------------------------------------------------
# Hypotheses: integrity constraints as Horn axioms (paper Sec. 4.2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeyConstraint:
    """``key k R``: the projection ``proj`` is a key of relation ``rel``.

    Semantically (paper Sec. 4.2) this makes R set-valued and makes any two
    R-tuples with equal keys *equal*.  Both consequences are used: the
    closure merges R-tuples with congruent keys, and duplicate R-atoms in a
    clause collapse.
    """

    rel: str
    proj: str
    proj_schema: Schema


@dataclass(frozen=True)
class FDConstraint:
    """``fd a b R``: attribute ``source`` determines ``target`` in ``rel``."""

    rel: str
    source: str
    source_schema: Schema
    target: str
    target_schema: Schema


@dataclass(frozen=True)
class Hypotheses:
    """The integrity-constraint context a rewrite rule assumes."""

    keys: Tuple[KeyConstraint, ...] = ()
    fds: Tuple[FDConstraint, ...] = ()

    def keyed_relations(self) -> frozenset:
        return frozenset(k.rel for k in self.keys)


NO_HYPOTHESES = Hypotheses()


# ---------------------------------------------------------------------------
# Instrumentation — the proof-effort metric behind Figure 8
# ---------------------------------------------------------------------------

class StepBudgetExceeded(ReproError):
    """The engine consumed more reasoning steps than its caller allowed.

    Raised from inside the search when :attr:`ProofStats.max_steps` is set;
    callers that impose a budget (the tiered verification pipeline) catch
    it and treat the check as inconclusive rather than letting the
    undecidable search run away.
    """


#: ProofStats fields that count toward ``total_steps``.
_STEP_COUNTERS = frozenset({
    "cc_builds", "hom_searches", "absorptions", "product_matches",
    "agg_comparisons",
})


@dataclass
class ProofStats:
    """Counters for the engine's reasoning steps.

    ``total_steps`` is the effort metric reported by the Figure 8
    benchmark; it plays the role of the paper's "lines of Coq proof".
    ``max_steps``, when set, turns the stats object into a budget: the
    increment that crosses the limit raises :class:`StepBudgetExceeded`.
    """

    cc_builds: int = 0
    hom_searches: int = 0
    absorptions: int = 0
    product_matches: int = 0
    agg_comparisons: int = 0
    #: interned-kernel counters (not reasoning steps): ``normalize`` memo
    #: hits/misses charged to this check and the live canonical node count
    #: at the time the check ran.
    normalize_hits: int = 0
    normalize_misses: int = 0
    interned_nodes: int = 0
    trace: List[str] = field(default_factory=list)
    max_steps: Optional[int] = None

    @property
    def total_steps(self) -> int:
        return (self.cc_builds + self.hom_searches + self.absorptions
                + self.product_matches + self.agg_comparisons)

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        # The max_steps guard only engages once __init__ has populated every
        # counter (getattr returns None for a half-initialized instance).
        if name in _STEP_COUNTERS \
                and getattr(self, "max_steps", None) is not None \
                and self.total_steps > self.max_steps:
            raise StepBudgetExceeded(
                f"proof search exceeded {self.max_steps} engine steps")

    def log(self, message: str) -> None:
        self.trace.append(message)


class _Ctx:
    """Internal search context: hypotheses + stats + recursion budget."""

    __slots__ = ("hyps", "stats")

    def __init__(self, hyps: Hypotheses, stats: ProofStats) -> None:
        self.hyps = hyps
        self.stats = stats


# ---------------------------------------------------------------------------
# Congruence-closure construction with Horn saturation
# ---------------------------------------------------------------------------

def _build_cc(factors: Sequence[Atom], ambient: Sequence[Atom],
              ctx: _Ctx) -> CongruenceClosure:
    """Closure of all equalities in ``factors``/``ambient`` + Horn axioms."""
    ctx.stats.cc_builds += 1
    cc = CongruenceClosure()
    for f in itertools.chain(factors, ambient):
        if isinstance(f, AEq):
            cc.merge(f.left, f.right)
    rel_atoms = [f for f in itertools.chain(factors, ambient)
                 if isinstance(f, ARel)]
    _saturate_horn(cc, rel_atoms, ctx.hyps)
    return cc


def _saturate_horn(cc: CongruenceClosure, rel_atoms: Sequence[ARel],
                   hyps: Hypotheses) -> None:
    """Apply key/FD axioms to a fixpoint."""
    changed = True
    while changed:
        changed = False
        for key in hyps.keys:
            atoms = [a for a in rel_atoms if a.name == key.rel]
            for a1, a2 in itertools.combinations(atoms, 2):
                if cc.equal(a1.arg, a2.arg):
                    continue
                k1 = TApp(key.proj, (a1.arg,), key.proj_schema)
                k2 = TApp(key.proj, (a2.arg,), key.proj_schema)
                if cc.equal(k1, k2):
                    cc.merge(a1.arg, a2.arg)
                    changed = True
        for fd in hyps.fds:
            atoms = [a for a in rel_atoms if a.name == fd.rel]
            for a1, a2 in itertools.combinations(atoms, 2):
                s1 = TApp(fd.source, (a1.arg,), fd.source_schema)
                s2 = TApp(fd.source, (a2.arg,), fd.source_schema)
                if not cc.equal(s1, s2):
                    continue
                t1 = TApp(fd.target, (a1.arg,), fd.target_schema)
                t2 = TApp(fd.target, (a2.arg,), fd.target_schema)
                if not cc.equal(t1, t2):
                    cc.merge(t1, t2)
                    changed = True


# ---------------------------------------------------------------------------
# Entailment of a single atom from a set of hypothesis factors
# ---------------------------------------------------------------------------

def _entails(factors: Sequence[Atom], cc: CongruenceClosure, atom: Atom,
             ambient: Sequence[Atom], ctx: _Ctx, depth: int) -> bool:
    """Do the hypothesis ``factors`` (with closure ``cc``) entail ``atom``?"""
    if cc.contradictory:
        return True  # the hypothesis denotes the empty type
    if depth <= 0:
        return False
    if isinstance(atom, AEq):
        if cc.equal(atom.left, atom.right):
            return True
        if _entails_eq_with_aggs(factors, cc, atom, ambient, ctx, depth):
            return True
        return _extract_from_squashes(factors, atom, ambient, ctx, depth)
    if isinstance(atom, APred):
        for f in factors:
            if isinstance(f, APred) and f.name == atom.name \
                    and len(f.args) == len(atom.args) \
                    and all(cc.equal(a, b) for a, b in zip(f.args, atom.args)):
                return True
        return _extract_from_squashes(factors, atom, ambient, ctx, depth)
    if isinstance(atom, ARel):
        for f in factors:
            if isinstance(f, ARel) and f.name == atom.name \
                    and cc.equal(f.arg, atom.arg):
                return True
        return False
    if isinstance(atom, ASquash):
        if _sum_entailed(factors, cc, atom.inner, ambient, ctx, depth):
            return True
        # ‖A‖ entails ‖B‖ whenever A entails B: open hypothesis squashes.
        # The opened factor is removed from the hypothesis list (its
        # content replaces it), so each truncation is opened at most once
        # along any search path.
        for f in factors:
            if not isinstance(f, ASquash):
                continue
            rest = [x for x in factors if x is not f]
            if _sum_implies_under(rest, f.inner, atom.inner, ambient, ctx,
                                  depth - 1):
                return True
        return False
    if isinstance(atom, ANeg):
        return _entails_neg(factors, cc, atom, ambient, ctx, depth)
    raise TypeError(f"not an atom: {atom!r}")


def _extract_from_squashes(factors: Sequence[Atom], atom: Atom,
                           ambient: Sequence[Atom], ctx: _Ctx,
                           depth: int) -> bool:
    """``F, ‖A‖ ⊢ P`` when every disjunct of A (with F) forces P.

    A truncated hypothesis is inhabited in every world where the clause is
    non-zero, so any proposition holding under *all* of its witnesses may
    be extracted — e.g. ``‖... × (k t = ℓ) × (k t = t.1)‖`` yields
    ``ℓ = t.1``.
    """
    if depth <= 1:
        return False
    target = NSum((NProduct((), (atom,)),))
    for f in factors:
        if not isinstance(f, ASquash):
            continue
        rest = [x for x in factors if x is not f]
        if _sum_implies_under(rest, f.inner, target, ambient, ctx, depth - 1):
            return True
    return False


def _entails_neg(factors: Sequence[Atom], cc: CongruenceClosure, atom: ANeg,
                 ambient: Sequence[Atom], ctx: _Ctx, depth: int) -> bool:
    """``F ⊢ (A → 0)`` — via some ``(B → 0)`` in F with ``F, A ⊢ B``."""
    for f in factors:
        if not isinstance(f, ANeg):
            continue
        if nsums_alpha_equal(f.inner, atom.inner):
            return True
        # It suffices that A implies B under F: then ¬B gives ¬A.
        if _sum_implies_under(factors, atom.inner, f.inner, ambient, ctx,
                              depth - 1):
            return True
    return False


def _sum_implies_under(hyp_factors: Sequence[Atom], antecedent: NSum,
                       consequent: NSum, ambient: Sequence[Atom], ctx: _Ctx,
                       depth: int) -> bool:
    """``F, A ⊢ B`` for truncated sums A, B — every disjunct of A yields B."""
    for p in antecedent.products:
        combined = list(hyp_factors) + list(p.factors)
        cc = _build_cc(combined, ambient, ctx)
        # Route through _entails so nested truncations in the opened
        # disjunct can themselves be opened (depth-bounded).
        if not _entails(combined, cc, ASquash(consequent), ambient, ctx,
                        depth):
            return False
    return True


# ---------------------------------------------------------------------------
# Existential instantiation (the paper's Ltac backtracking search)
# ---------------------------------------------------------------------------

def _sum_entailed(factors: Sequence[Atom], cc: CongruenceClosure,
                  target: NSum, ambient: Sequence[Atom], ctx: _Ctx,
                  depth: int) -> bool:
    """``F ⊢ ‖target‖`` — find a disjunct and a witness instantiation."""
    ctx.stats.hom_searches += 1
    pool = _candidate_pool(factors, ambient)
    for q in target.products:
        if _instantiate_product(factors, cc, q, pool, ambient, ctx, depth):
            return True
    return False


def _instantiate_product(factors: Sequence[Atom], cc: CongruenceClosure,
                         q: NProduct, pool: Dict[Schema, Dict[Term, None]],
                         ambient: Sequence[Atom], ctx: _Ctx,
                         depth: int) -> bool:
    """Backtracking search for witnesses of ``Σ q.vars. q.factors``."""
    variables = list(q.vars)

    def assign(index: int, sub: Substitution) -> bool:
        if index == len(variables):
            return all(
                _entails(factors, cc, atom_subst(f, sub), ambient, ctx,
                         depth - 1)
                for f in q.factors)
        var = variables[index]
        for candidate in _candidates_for(var.var_schema, pool):
            sub[var] = candidate
            if assign(index + 1, sub):
                return True
            del sub[var]
        return False

    return assign(0, {})


def implication_witness(source: NProduct, target: NSum,
                        hyps: Hypotheses = NO_HYPOTHESES
                        ) -> Optional[Tuple[NProduct, Substitution]]:
    """Find a witness for ``source ⊢ ‖target‖`` and return it.

    Returns the chosen disjunct of ``target`` and the instantiation of its
    bound variables by terms over ``source``'s variables — the containment
    mapping the paper visualizes in Figure 10.  ``None`` when the search
    fails.
    """
    ctx = _Ctx(hyps, ProofStats())
    factors = list(source.factors)
    cc = _build_cc(factors, (), ctx)
    pool = _candidate_pool(factors, ())
    for q in target.products:
        witness = _instantiation_witness(factors, cc, q, pool, (), ctx,
                                         MAX_DEPTH)
        if witness is not None:
            return q, witness
    return None


def _instantiation_witness(factors: Sequence[Atom], cc: CongruenceClosure,
                           q: NProduct, pool: Dict[Schema, Dict[Term, None]],
                           ambient: Sequence[Atom], ctx: _Ctx,
                           depth: int) -> Optional[Substitution]:
    variables = list(q.vars)

    def assign(index: int, sub: Substitution) -> Optional[Substitution]:
        if index == len(variables):
            ok = all(
                _entails(factors, cc, atom_subst(f, sub), ambient, ctx,
                         depth - 1)
                for f in q.factors)
            return dict(sub) if ok else None
        var = variables[index]
        for candidate in _candidates_for(var.var_schema, pool):
            sub[var] = candidate
            found = assign(index + 1, sub)
            if found is not None:
                return found
            del sub[var]
        return None

    return assign(0, {})


def _candidate_pool(factors: Sequence[Atom],
                    ambient: Sequence[Atom]) -> Dict[Schema, Dict[Term, None]]:
    """Ground terms available as witnesses, grouped by schema.

    Buckets are insertion-ordered dicts used as sets: with interned terms
    (cached hashes) membership is O(1) instead of a list scan.
    """
    pool: Dict[Schema, Dict[Term, None]] = {}

    def add(term: Term) -> None:
        for sub in iter_subterms(term):
            try:
                schema = sub.schema
            except TypeError:
                continue
            pool.setdefault(schema, {})[sub] = None

    for f in itertools.chain(factors, ambient):
        if isinstance(f, ARel):
            add(f.arg)
        elif isinstance(f, AEq):
            add(f.left)
            add(f.right)
        elif isinstance(f, APred):
            for a in f.args:
                add(a)
        # Squash/neg contents are not valid witness sources: their variables
        # are bound strictly inside the truncation.
    return pool


def _candidates_for(schema: Schema, pool: Dict[Schema, Dict[Term, None]],
                    fuel: int = 2) -> Iterator[Term]:
    """Witness candidates of a given schema, including built pairs."""
    yielded: set = set()
    for term in pool.get(schema, ()):
        if term not in yielded:
            yielded.add(term)
            yield term
    if isinstance(schema, Empty):
        unit = TUnit()
        if unit not in yielded:
            yield unit
    elif isinstance(schema, Node) and fuel > 0:
        for left in _candidates_for(schema.left, pool, fuel - 1):
            for right in _candidates_for(schema.right, pool, fuel - 1):
                built = TPair(left, right)
                if built not in yielded:
                    yielded.add(built)
                    yield built


# ---------------------------------------------------------------------------
# Equalities that require aggregate congruence (paper Sec. 5.1.2)
# ---------------------------------------------------------------------------

def _entails_eq_with_aggs(factors: Sequence[Atom], cc: CongruenceClosure,
                          atom: AEq, ambient: Sequence[Atom], ctx: _Ctx,
                          depth: int) -> bool:
    """Try proving ``l = r`` where one side involves an aggregate.

    Looks for aggregate terms in the congruence classes of both sides and
    compares their bodies as bags, after exporting the clause's equalities
    into the bodies' ambient context — this is the step "it follows that
    ``⟦k⟧ t2 = ⟦l⟧`` inside SUM" in the paper's aggregation proof.
    """
    left_aggs = _agg_members(cc, atom.left)
    right_aggs = _agg_members(cc, atom.right)
    if not left_aggs or not right_aggs:
        return False
    inner_ambient = list(ambient) + list(factors)
    for a1 in left_aggs:
        for a2 in right_aggs:
            if _aggs_equal(a1, a2, inner_ambient, ctx, depth - 1):
                return True
    return False


def _agg_members(cc: CongruenceClosure, term: Term) -> List[TAgg]:
    members = [m for m in cc.members(term) if isinstance(m, TAgg)]
    if isinstance(term, TAgg) and term not in members:
        members.append(term)
    return members


def _aggs_equal(a1: TAgg, a2: TAgg, ambient: Sequence[Atom], ctx: _Ctx,
                depth: int) -> bool:
    """Aggregates are equal when their denoted bags are equivalent."""
    if a1.name != a2.name or a1.ty != a2.ty:
        return False
    if depth <= 0:
        return False
    ctx.stats.agg_comparisons += 1
    common = fresh_var(a1.var.var_schema, "a")
    body1 = subst_uterm(a1.body, {a1.var: common})
    body2 = subst_uterm(a2.body, {a2.var: common})
    return _nsum_equiv(normalize(body1), normalize(body2), ambient, ctx,
                       depth)


# ---------------------------------------------------------------------------
# Absorption (Lemma 5.3) and clause reduction
# ---------------------------------------------------------------------------

def _absorb(product: NProduct, ambient: Sequence[Atom], ctx: _Ctx,
            depth: int) -> Optional[NProduct]:
    """Reduce a clause to a fixpoint; ``None`` marks the empty type.

    Steps, each justified in the module docstring: congruence-derived point
    elimination, duplicate-prop collapse, Lemma 5.3 drops, keyed-relation
    deduplication.
    """
    vars_list = list(product.vars)
    factors = list(product.factors)
    changed = True
    while changed:
        changed = False
        ctx.stats.absorptions += 1
        cc = _build_cc(factors, ambient, ctx)
        if cc.contradictory:
            return None

        # A clause containing both A and (B → 0) with A ⊢ B is empty.
        for f in factors:
            if not isinstance(f, ANeg):
                continue
            others = [x for x in factors if x is not f] + list(ambient)
            if _entails(others, cc, ASquash(f.inner), ambient, ctx, depth):
                return None

        # Reflexive equalities vanish.
        cleaned = [f for f in factors
                   if not (isinstance(f, AEq) and f.left == f.right)]
        if len(cleaned) != len(factors):
            factors = cleaned
            changed = True
            continue

        # Duplicate propositional factors collapse (P × P = P).
        seen_keys = set()
        dedup: List[Atom] = []
        for f in factors:
            if isinstance(f, (AEq, APred, ASquash, ANeg)):
                key = atom_alpha_key(f)
                if key in seen_keys:
                    changed = True
                    continue
                seen_keys.add(key)
            dedup.append(f)
        if changed:
            factors = dedup
            continue

        # Congruence-derived point elimination (Lemma 5.2 modulo cc): a
        # bound variable equal to a term not mentioning it gets substituted.
        for var in vars_list:
            replacement = _class_replacement(cc, var)
            if replacement is None:
                continue
            vars_list.remove(var)
            sub = {var: replacement}
            factors = [atom_subst(f, sub) for f in factors]
            changed = True
            break
        if changed:
            continue

        # Keys force set-valuedness (Sec. 4.2): ‖P‖ = P when every
        # factor of the squashed body is a proposition or a keyed
        # relation atom — each is ≤ 1, so the body is a mere prop and
        # the truncation is the identity.  This is what licenses
        # DISTINCT-elimination over keyed tables; it lives here rather
        # than in ``normalize()`` because it depends on the hypotheses.
        keyed_rels = ctx.hyps.keyed_relations()
        if keyed_rels:
            for i, f in enumerate(factors):
                if not isinstance(f, ASquash) \
                        or not isinstance(f.inner, NSum) \
                        or len(f.inner.products) != 1:
                    continue
                body = f.inner.products[0]
                if body.vars:
                    continue
                if all(isinstance(g, (AEq, APred, ASquash, ANeg))
                       or (isinstance(g, ARel) and g.name in keyed_rels)
                       for g in body.factors):
                    factors[i:i + 1] = list(body.factors)
                    changed = True
                    break
            if changed:
                continue

        # Keyed relations are set-valued: duplicate R-atoms collapse.  The
        # tuple equality that justified the collapse is recorded as an
        # explicit factor (it is a prop, so this preserves the value) —
        # otherwise the derived equality would be lost to later
        # congruence closures built from the reduced factor set.
        keyed = ctx.hyps.keyed_relations()
        for i, f in enumerate(factors):
            if not isinstance(f, ARel) or f.name not in keyed:
                continue
            for j in range(i + 1, len(factors)):
                g = factors[j]
                if isinstance(g, ARel) and g.name == f.name \
                        and cc.equal(f.arg, g.arg):
                    del factors[j]
                    if f.arg != g.arg:
                        factors.append(AEq(f.arg, g.arg))
                    changed = True
                    break
            if changed:
                break
        if changed:
            continue

        # Lemma 5.3: drop propositional factors entailed by the rest.
        for i, f in enumerate(factors):
            if not isinstance(f, (AEq, APred, ASquash, ANeg)):
                continue
            rest = factors[:i] + factors[i + 1:]
            rest_cc = _build_cc(rest, ambient, ctx)
            hyp = list(rest) + list(ambient)
            if _entails(hyp, rest_cc, f, ambient, ctx, depth):
                del factors[i]
                changed = True
                break

    # NProduct construction establishes the canonical factor order (the
    # interned order key), so no explicit sort is needed here.
    return NProduct(tuple(vars_list), tuple(factors))


def _class_replacement(cc: CongruenceClosure, var: TVar) -> Optional[Term]:
    """A term provably equal to ``var`` that does not mention it."""
    try:
        members = cc.members(var)
    except KeyError:
        return None
    best: Optional[Term] = None
    for m in members:
        if m == var or var in term_free_vars(m):
            continue
        if best is None or len(str(m)) < len(str(best)):
            best = m
    return best


# ---------------------------------------------------------------------------
# Clause and sum equivalence
# ---------------------------------------------------------------------------

def _products_equal(p1: NProduct, p2: NProduct, ambient: Sequence[Atom],
                    ctx: _Ctx, depth: int) -> bool:
    """Bag-level equality of two clauses.

    Pointer-equal and alpha-equal clauses short-circuit (interned nodes
    make both checks O(1) amortized); the bound-variable bijection search
    is pruned/ordered by per-variable degree signatures computed from the
    kernel's cached free-variable sets.
    """
    ctx.stats.product_matches += 1
    if p1 is p2 or product_alpha_key(p1) == product_alpha_key(p2):
        return True
    a1 = _absorb(p1, ambient, ctx, depth)
    a2 = _absorb(p2, ambient, ctx, depth)
    if a1 is None or a2 is None:
        return a1 is None and a2 is None
    if a1 is a2 or product_alpha_key(a1) == product_alpha_key(a2):
        return True
    if sorted(str(v.var_schema) for v in a1.vars) != \
            sorted(str(v.var_schema) for v in a2.vars):
        return False
    for bijection in _var_bijections(a1, a2, ambient, ctx):
        renamed = NProduct(
            tuple(bijection[v] for v in a2.vars),
            tuple(atom_subst(f, dict(bijection)) for f in a2.factors))
        if _matched_clause_bodies(a1, renamed, ambient, ctx, depth):
            return True
    return False


def _var_degree_signature(product: NProduct, var: TVar) -> Tuple:
    """Occurrence signature of one bound variable inside its clause.

    The multiset of (atom kind, symbol name) for the factors whose cached
    free-variable set contains ``var`` — the "degree" the bijection search
    uses to rank (and, in the rigid case, prune) candidate pairings.
    """
    tags = []
    for f in product.factors:
        if var not in atom_free_vars(f):
            continue
        if isinstance(f, ARel):
            tags.append(("rel", f.name))
        elif isinstance(f, APred):
            tags.append(("pred", f.name))
        elif isinstance(f, AEq):
            tags.append(("eq", ""))
        elif isinstance(f, ASquash):
            tags.append(("squash", ""))
        else:
            tags.append(("neg", ""))
    return tuple(sorted(tags))


def _is_rigid_pair(p1: NProduct, p2: NProduct, ambient: Sequence[Atom],
                   ctx: _Ctx) -> bool:
    """Can degree signatures *prune* (not merely rank) bijections?

    Without equality factors, ambient context, or key/FD hypotheses the
    congruence closures built during clause matching contain no merges, so
    relation/predicate atoms match only syntactically (modulo surjective
    pairing) — a variable can then only map onto one with the identical
    degree signature.  With any of those present, congruence can route an
    atom containing a variable onto one that does not mention its image,
    so signatures only order the search.
    """
    if ambient or ctx.hyps.keys or ctx.hyps.fds:
        return False
    return not any(isinstance(f, (AEq, ASquash, ANeg))
                   for f in itertools.chain(p1.factors, p2.factors))


def _var_bijections(a1: NProduct, a2: NProduct, ambient: Sequence[Atom],
                    ctx: _Ctx) -> Iterator[Dict[TVar, TVar]]:
    """Schema-respecting bijections from ``a2.vars`` onto ``a1.vars``.

    Candidates with matching degree signatures are tried first; when the
    clause pair is rigid (see :func:`_is_rigid_pair`) mismatching
    signatures are pruned outright, collapsing the k! search.
    """
    vars1, vars2 = a1.vars, a2.vars
    if len(vars1) != len(vars2):
        return
    if not vars1:
        yield {}
        return
    rigid = _is_rigid_pair(a1, a2, ambient, ctx)
    sig1 = {v: _var_degree_signature(a1, v) for v in vars1}
    sig2 = {v: _var_degree_signature(a2, v) for v in vars2}
    candidates: List[List[TVar]] = []
    for v2 in vars2:
        same = [v1 for v1 in vars1 if v1.var_schema == v2.var_schema
                and sig1[v1] == sig2[v2]]
        if rigid:
            pool = same
        else:
            rest = [v1 for v1 in vars1 if v1.var_schema == v2.var_schema
                    and sig1[v1] != sig2[v2]]
            pool = same + rest
        if not pool:
            return
        candidates.append(pool)

    used: set = set()
    assignment: Dict[TVar, TVar] = {}

    def assign(index: int) -> Iterator[Dict[TVar, TVar]]:
        if index == len(vars2):
            yield dict(assignment)
            return
        v2 = vars2[index]
        for v1 in candidates[index]:
            if v1 in used:
                continue
            used.add(v1)
            assignment[v2] = v1
            yield from assign(index + 1)
            used.discard(v1)
            del assignment[v2]

    yield from assign(0)


def _matched_clause_bodies(a1: NProduct, a2: NProduct,
                           ambient: Sequence[Atom], ctx: _Ctx,
                           depth: int) -> bool:
    """Factor comparison once the variable spaces are identified.

    Relation atoms must match bijectively (they carry multiplicity);
    propositional factors are compared as blocks by mutual entailment in
    the presence of the other side's full factor set.
    """
    rels1 = [f for f in a1.factors if isinstance(f, ARel)]
    rels2 = [f for f in a2.factors if isinstance(f, ARel)]
    if sorted(r.name for r in rels1) != sorted(r.name for r in rels2):
        return False
    cc1 = _build_cc(a1.factors, ambient, ctx)
    cc2 = _build_cc(a2.factors, ambient, ctx)
    if not _match_rel_multisets(rels1, rels2, cc1, cc2):
        return False
    props1 = [f for f in a1.factors if not isinstance(f, ARel)]
    props2 = [f for f in a2.factors if not isinstance(f, ARel)]
    hyp1 = list(a1.factors) + list(ambient)
    hyp2 = list(a2.factors) + list(ambient)
    return (
        all(_entails(hyp1, cc1, f, ambient, ctx, depth) for f in props2)
        and all(_entails(hyp2, cc2, f, ambient, ctx, depth) for f in props1))


def _match_rel_multisets(rels1: List[ARel], rels2: List[ARel],
                         cc1: CongruenceClosure,
                         cc2: CongruenceClosure) -> bool:
    """Perfect matching between relation atoms (names + congruent args).

    Atoms are indexed by relation name before the backtracking match:
    compatibility requires equal names, so the one big multiset matching
    decomposes exactly into independent per-name matchings (k₁!·k₂!·...
    instead of (k₁+k₂+...)!).  Pointer-equal atoms pair off first.
    """
    if len(rels1) != len(rels2):
        return False
    by_name1: Dict[str, List[ARel]] = {}
    for r in rels1:
        by_name1.setdefault(r.name, []).append(r)
    by_name2: Dict[str, List[ARel]] = {}
    for r in rels2:
        by_name2.setdefault(r.name, []).append(r)
    if set(by_name1) != set(by_name2):
        return False

    def compatible(x: ARel, y: ARel) -> bool:
        if x.arg is y.arg or x.arg == y.arg:
            return True
        return cc1.equal(x.arg, y.arg) and cc2.equal(x.arg, y.arg)

    for name, group1 in by_name1.items():
        group2 = by_name2[name]
        if len(group1) != len(group2):
            return False
        # Cancel pointer-identical atoms — with interning this resolves
        # the common case without touching the congruence closures.
        rest2 = list(group2)
        rest1 = []
        for x in group1:
            for j, y in enumerate(rest2):
                if y is not None and x is y:
                    rest2[j] = None
                    break
            else:
                rest1.append(x)
        remaining = [y for y in rest2 if y is not None]

        def match(index: int) -> bool:
            if index == len(rest1):
                return True
            for j, y in enumerate(remaining):
                if y is not None and compatible(rest1[index], y):
                    remaining[j] = None
                    if match(index + 1):
                        return True
                    remaining[j] = y
            return False

        if not match(0):
            return False
    return True


def _nsum_equiv(n1: NSum, n2: NSum, ambient: Sequence[Atom], ctx: _Ctx,
                depth: int) -> bool:
    """Bag-level equality of two normal forms: clause bijection.

    Pointer-equal sides short-circuit.  The bijection search tries
    alpha-equal candidates first — their :func:`_products_equal` call is
    an O(1) cached-key comparison — so re-associated unions resolve
    without invoking the prover; backtracking over the remaining
    candidates keeps the search complete.
    """
    if depth <= 0:
        return False
    if n1 is n2:
        # Interned normal forms: pointer equality decides the whole sum.
        # Counted as one match so the Figure 8 effort metric still
        # registers the (now O(1)) comparison.
        ctx.stats.product_matches += 1
        return True
    # Reduce clauses first so that semantically empty ones (contradictory
    # equalities, X × ¬X patterns) do not break the bijection count.
    products1 = [p for p in (_absorb(q, ambient, ctx, depth)
                             for q in n1.products) if p is not None]
    products2 = [p for p in (_absorb(q, ambient, ctx, depth)
                             for q in n2.products) if p is not None]
    if len(products1) != len(products2):
        return False
    keys2 = [product_alpha_key(q) for q in products2]
    remaining: List[Optional[NProduct]] = list(products2)

    def match(index: int) -> bool:
        if index == len(products1):
            return True
        key1 = product_alpha_key(products1[index])
        order = sorted(range(len(remaining)),
                       key=lambda j: keys2[j] != key1)
        for j in order:
            q = remaining[j]
            if q is not None and _products_equal(products1[index], q,
                                                 ambient, ctx, depth):
                remaining[j] = None
                if match(index + 1):
                    return True
                remaining[j] = q
        return False

    return match(0)


def _nsum_iff(n1: NSum, n2: NSum, ambient: Sequence[Atom], ctx: _Ctx,
              depth: int) -> bool:
    """Prop-level equivalence ``‖n1‖ = ‖n2‖`` by mutual implication."""
    return (_sum_implies_under((), n1, n2, ambient, ctx, depth)
            and _sum_implies_under((), n2, n1, ambient, ctx, depth))


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

@dataclass
class EquivalenceResult:
    """Outcome of an equivalence check, with the effort trace."""

    equal: bool
    stats: ProofStats
    lhs_normal: NSum
    rhs_normal: NSum


def decide_nsums(n1: NSum, n2: NSum, hyps: Hypotheses = NO_HYPOTHESES, *,
                 depth: int = MAX_DEPTH,
                 stats: Optional[ProofStats] = None) -> EquivalenceResult:
    """Decide equality of two already-normalized forms.

    The workhorse behind :func:`check_uterm_equivalence`, exposed so
    callers that normalize once and stage several decision attempts (the
    verification pipeline) do not pay for re-normalization.  ``depth``
    bounds the nesting of the entailment search and ``stats`` may carry a
    step budget (see :class:`ProofStats`), in which case the search raises
    :class:`StepBudgetExceeded` instead of completing.
    """
    if stats is None:
        stats = ProofStats()
    ctx = _Ctx(hyps, stats)
    equal = _nsum_equiv(n1, n2, (), ctx, depth)
    stats.log("clause matching " + ("succeeded" if equal else "failed"))
    return EquivalenceResult(equal=equal, stats=stats, lhs_normal=n1,
                             rhs_normal=n2)


def check_uterm_equivalence(lhs: UTerm, rhs: UTerm,
                            hyps: Hypotheses = NO_HYPOTHESES, *,
                            depth: int = MAX_DEPTH,
                            stats: Optional[ProofStats] = None
                            ) -> EquivalenceResult:
    """Decide equality of two UniNomial terms (sound, incomplete)."""
    from .intern import intern_stats
    from .normalize import normalize_stats

    if stats is None:
        stats = ProofStats()
    before = normalize_stats()
    n1 = normalize(lhs)
    n2 = normalize(rhs)
    after = normalize_stats()
    # Difference the monotonic lifetime counters: a concurrent
    # ``KernelLRU.reset()`` (metrics window rotation) zeroes the window
    # counters mid-check, which would under-report here.
    stats.normalize_hits += int(
        after["lifetime_hits"] - before["lifetime_hits"])
    stats.normalize_misses += int(
        after["lifetime_misses"] - before["lifetime_misses"])
    stats.interned_nodes = intern_stats()["interned_nodes"]
    stats.log(f"normalized LHS to {len(n1.products)} clause(s)")
    stats.log(f"normalized RHS to {len(n2.products)} clause(s)")
    return decide_nsums(n1, n2, hyps, depth=depth, stats=stats)


def uterms_equivalent(lhs: UTerm, rhs: UTerm,
                      hyps: Hypotheses = NO_HYPOTHESES) -> bool:
    """Boolean shorthand for :func:`check_uterm_equivalence`."""
    return check_uterm_equivalence(lhs, rhs, hyps).equal


def align_denotations(d1, d2):
    """Rename the second denotation's ``g``/``t`` onto the first's.

    Both denotations must have the same context and output schemas (this is
    checked); returns the pair of bodies over a shared variable space.
    """
    if d1.ctx != d2.ctx:
        raise SchemaMismatchError(
            f"context schemas differ: {d1.ctx} vs {d2.ctx}")
    if d1.schema != d2.schema:
        raise SchemaMismatchError(
            f"output schemas differ: {d1.schema} vs {d2.schema}")
    sub = {d2.g: d1.g, d2.t: d1.t}
    return d1.body, subst_uterm(d2.body, sub)


def check_query_equivalence(q1, q2, ctx_schema=None,
                            hyps: Hypotheses = NO_HYPOTHESES, *,
                            depth: int = MAX_DEPTH,
                            stats: Optional[ProofStats] = None
                            ) -> EquivalenceResult:
    """Denote two HoTTSQL queries and decide their equivalence.

    This is the end-to-end entry point reproducing the paper's workflow:
    denote (Figure 7), normalize (Sec. 3.4 identities + Lemmas 5.1/5.2),
    then decide (tactics + Ltac-style search).
    """
    from .denote import denote_closed
    from .schema import EMPTY

    ctx_schema = EMPTY if ctx_schema is None else ctx_schema
    d1 = denote_closed(q1, ctx_schema)
    d2 = denote_closed(q2, ctx_schema)
    lhs, rhs = align_denotations(d1, d2)
    return check_uterm_equivalence(lhs, rhs, hyps, depth=depth, stats=stats)


def queries_equivalent(q1, q2, ctx_schema=None,
                       hyps: Hypotheses = NO_HYPOTHESES) -> bool:
    """Boolean shorthand for :func:`check_query_equivalence`."""
    return check_query_equivalence(q1, q2, ctx_schema, hyps).equal

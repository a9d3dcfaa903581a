"""Normalization of UniNomial terms into sum-of-products normal form.

The paper's equational proofs (Figures 1 and 2, Sec. 5.1) all follow the
same plan: denote both sides, then rewrite with the semiring identities of
Sec. 3.4 plus three lemmas:

* **Lemma 5.1** — Σ over a product type splits into nested Σs
  (bound *pair variables* split into components),
* **Lemma 5.2** — ``Σ x. P(x) × (x = s)  =  P(s)``
  (*point elimination* of a bound variable pinned by an equality),
* squash laws — ``‖A×B‖ = ‖A‖×‖B‖``, ``‖A×P‖ = ‖A‖×P`` for props P,
  ``‖n×n‖ = ‖n‖``, ``‖‖A‖‖ = ‖A‖``.

This module performs those rewrites to a fixpoint, producing a structured
normal form:

    NSum  =  Π₁ + Π₂ + ...                 (a bag union of clauses)
    NProduct  =  Σ x̄. a₁ × a₂ × ...        (bound vars and atomic factors)

Atoms are relation applications, equalities, uninterpreted predicates, and
squashed/negated normal forms (for DISTINCT/EXISTS/OR and NOT/EXCEPT).
The equivalence checker (:mod:`repro.core.equivalence`) then decides
equality of normal forms by AC matching, congruence closure, and
homomorphism search.

Only results are interned.  Translation and refinement build clauses as
plain ``(vars, factors)`` tuples (factors in the canonical order of
:func:`_canonize_product`), and ``NProduct``/``NSum`` nodes are made
only for refined clauses and for the contents of squash/negation atoms;
the intern tables live as long as the process, so every intermediate
clause interned there would be garbage the cyclic collector keeps
re-scanning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from .intern import KernelLRU, interned
from .schema import Empty, Node
from .uninomial import (
    Substitution,
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
    fresh_var,
    subst_term,
    term_free_vars,
    tfst,
    tpair,
    tsnd,
    umul_all,
    uneg,
    usquash,
    usum,
    uterm_free_vars,
)


# ---------------------------------------------------------------------------
# Normal-form data structures
# ---------------------------------------------------------------------------

@interned
@dataclass(frozen=True)
class ARel:
    """Atom ``⟦R⟧ t``."""

    name: str
    arg: Term

    def __str__(self) -> str:
        return f"⟦{self.name}⟧ {self.arg}"


@interned
@dataclass(frozen=True)
class AEq:
    """Atom ``(left = right)`` — oriented deterministically."""

    left: Term
    right: Term

    def __str__(self) -> str:
        return f"({self.left} = {self.right})"


@interned
@dataclass(frozen=True)
class APred:
    """Atom ``⟦b⟧ (args)`` — an uninterpreted proposition."""

    name: str
    args: Tuple[Term, ...]

    def __str__(self) -> str:
        return f"⟦{self.name}⟧ ({', '.join(str(a) for a in self.args)})"


@interned
@dataclass(frozen=True)
class ASquash:
    """Atom ``‖ inner ‖`` — a squashed existential (EXISTS/DISTINCT/OR)."""

    inner: "NSum"

    def __str__(self) -> str:
        return f"‖{self.inner}‖"


@interned
@dataclass(frozen=True)
class ANeg:
    """Atom ``inner → 0`` (NOT / EXCEPT)."""

    inner: "NSum"

    def __str__(self) -> str:
        return f"({self.inner} → 0)"


Atom = Union[ARel, AEq, APred, ASquash, ANeg]

#: Canonical atom order inside a clause: relations, predicates,
#: equalities, squashes, negations — ties broken by rendering.
_ATOM_RANK = {ARel: 0, APred: 1, AEq: 2, ASquash: 3, ANeg: 4}


def _atom_sort_key(atom: Atom) -> Tuple[int, str]:
    """The interned order key of an atom (cached per node)."""
    key = atom.__dict__.get("_hc_order")
    if key is None:
        key = (_ATOM_RANK[type(atom)], str(atom))
        object.__setattr__(atom, "_hc_order", key)
    return key


def _canonize_product(vals: Tuple) -> Tuple:
    """Establish the canonical factor order once, at NProduct construction.

    Factor order is semantically irrelevant (× is commutative); sorting by
    the cached order key here means no rewrite pass ever re-sorts.
    """
    variables, factors = vals
    if type(variables) is not tuple:
        variables = tuple(variables)
    if len(factors) > 1:
        factors = tuple(sorted(factors, key=_atom_sort_key))
    elif type(factors) is not tuple:
        factors = tuple(factors)
    return (variables, factors)


@interned(canonize=_canonize_product)
@dataclass(frozen=True)
class NProduct:
    """A clause ``Σ vars. factor₁ × factor₂ × ...``.

    Factors are stored in the canonical interned order (established at
    construction by :func:`_canonize_product`).
    """

    vars: Tuple[TVar, ...]
    factors: Tuple[Atom, ...]

    @property
    def is_proposition(self) -> bool:
        """True iff the clause is certainly 0/1-valued: no Σ, only prop atoms."""
        cached = self.__dict__.get("_hc_isprop")
        if cached is None:
            cached = not self.vars and all(_atom_is_prop(a)
                                           for a in self.factors)
            object.__setattr__(self, "_hc_isprop", cached)
        return cached

    @property
    def is_trivially_one(self) -> bool:
        """True iff the clause is literally the unit type."""
        return not self.vars and not self.factors

    def __str__(self) -> str:
        binder = "".join(f"Σ{v}:{v.var_schema}. " for v in self.vars)
        if not self.factors:
            return binder + "1"
        return binder + " × ".join(str(f) for f in self.factors)


@interned
@dataclass(frozen=True)
class NSum:
    """A bag union of clauses (the empty union is the type 0)."""

    products: Tuple[NProduct, ...]

    @property
    def is_zero(self) -> bool:
        return not self.products

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"({p})" for p in self.products)


#: The normal form of 0 and of 1.
NSUM_ZERO = NSum(())
NPRODUCT_ONE = NProduct((), ())
NSUM_ONE = NSum((NPRODUCT_ONE,))

#: A clause under construction: ``(vars, factors)``, the factors in
#: :func:`_canonize_product` order.
Clause = Tuple[Tuple[TVar, ...], Tuple[Atom, ...]]


def _atom_is_prop(atom: Atom) -> bool:
    return isinstance(atom, (AEq, APred, ASquash, ANeg))


# ---------------------------------------------------------------------------
# Free variables and substitution on normal forms
# ---------------------------------------------------------------------------

def atom_free_vars(atom: Atom) -> FrozenSet[TVar]:
    """Free tuple variables of an atom (cached per interned node)."""
    cached = atom.__dict__.get("_hc_fv")
    if cached is not None:
        return cached
    if isinstance(atom, ARel):
        out = term_free_vars(atom.arg)
    elif isinstance(atom, AEq):
        out = term_free_vars(atom.left) | term_free_vars(atom.right)
    elif isinstance(atom, APred):
        out = frozenset()
        for a in atom.args:
            out |= term_free_vars(a)
    elif isinstance(atom, (ASquash, ANeg)):
        out = nsum_free_vars(atom.inner)
    else:
        raise TypeError(f"not an atom: {atom!r}")
    object.__setattr__(atom, "_hc_fv", out)
    return out


def product_free_vars(product: NProduct) -> FrozenSet[TVar]:
    """Free variables of a clause, binders removed (cached per node)."""
    cached = product.__dict__.get("_hc_fv")
    if cached is not None:
        return cached
    out: FrozenSet[TVar] = frozenset()
    for f in product.factors:
        out |= atom_free_vars(f)
    out -= frozenset(product.vars)
    object.__setattr__(product, "_hc_fv", out)
    return out


def nsum_free_vars(nsum: NSum) -> FrozenSet[TVar]:
    """Free variables of a normal form (cached per node)."""
    cached = nsum.__dict__.get("_hc_fv")
    if cached is not None:
        return cached
    out: FrozenSet[TVar] = frozenset()
    for p in nsum.products:
        out |= product_free_vars(p)
    object.__setattr__(nsum, "_hc_fv", out)
    return out


def atom_subst(atom: Atom, sub: Substitution) -> Atom:
    """Capture-avoiding substitution on an atom.

    Atoms untouched by the substitution (cached free variables disjoint
    from its domain) are returned unchanged, preserving node sharing.
    """
    if not sub or atom_free_vars(atom).isdisjoint(sub):
        return atom
    if isinstance(atom, ARel):
        return ARel(atom.name, subst_term(atom.arg, sub))
    if isinstance(atom, AEq):
        return _orient_eq(subst_term(atom.left, sub), subst_term(atom.right, sub))
    if isinstance(atom, APred):
        return APred(atom.name, tuple(subst_term(a, sub) for a in atom.args))
    if isinstance(atom, ASquash):
        return ASquash(nsum_subst(atom.inner, sub))
    if isinstance(atom, ANeg):
        return ANeg(nsum_subst(atom.inner, sub))
    raise TypeError(f"not an atom: {atom!r}")


def product_subst(product: NProduct, sub: Substitution) -> NProduct:
    """Substitute into a clause (binders are globally fresh, so no capture)."""
    inner = {v: t for v, t in sub.items() if v not in product.vars}
    if not inner or product_free_vars(product).isdisjoint(inner):
        return product
    return NProduct(product.vars,
                    tuple(atom_subst(f, inner) for f in product.factors))


def nsum_subst(nsum: NSum, sub: Substitution) -> NSum:
    """Substitute into a normal form."""
    if not sub or nsum_free_vars(nsum).isdisjoint(sub):
        return nsum
    return NSum(tuple(product_subst(p, sub) for p in nsum.products))


def _orient_eq(left: Term, right: Term) -> AEq:
    """Store equalities in a deterministic orientation."""
    if _term_order_key(right) < _term_order_key(left):
        left, right = right, left
    return AEq(left, right)


def _term_order_key(term: Term) -> Tuple[int, str]:
    return (0 if isinstance(term, TVar) else 1, str(term))


# ---------------------------------------------------------------------------
# Alpha-equivalence keys
#
# Binders are globally fresh, so two alpha-equivalent squash contents are
# never syntactically equal.  These functions compute canonical keys with
# positional (de Bruijn-style) labels for bound variables; comparing keys
# decides alpha-equivalence, which the engine uses for deduplication under
# truncations (``‖n × n‖ = ‖n‖``) and for matching negation atoms.
#
# With the interned kernel the keys are cached: every node stores its
# *closed* key (the ``env = {}`` computation), and a non-empty labelling
# can reuse it whenever the node is **binder-insensitive** (it contains no
# construct whose labels depend on the size of the ambient environment —
# no ``Σ`` under terms, no squashed/negated sub-sums under atoms) and its
# free variables are disjoint from the labelling's domain.  That covers
# the engine's hottest calls — env-less keys during absorption and
# deduplication — with an O(1) lookup.
# ---------------------------------------------------------------------------

def _term_binder_sensitive(term: Term) -> bool:
    """Does the term's key depend on the ambient environment's *size*?"""
    cached = term.__dict__.get("_hc_bsens")
    if cached is not None:
        return cached
    if isinstance(term, (TVar, TUnit, TConst)):
        result = False
    elif isinstance(term, TPair):
        result = (_term_binder_sensitive(term.left)
                  or _term_binder_sensitive(term.right))
    elif isinstance(term, (TFst, TSnd)):
        result = _term_binder_sensitive(term.arg)
    elif isinstance(term, TApp):
        result = any(_term_binder_sensitive(a) for a in term.args)
    elif isinstance(term, TAgg):
        # The ``@agg`` label itself is constant, but Σs in the body label
        # by environment size.
        result = _uterm_binder_sensitive(term.body)
    else:
        raise TypeError(f"not a term: {term!r}")
    object.__setattr__(term, "_hc_bsens", result)
    return result


def _uterm_binder_sensitive(u: UTerm) -> bool:
    cached = u.__dict__.get("_hc_bsens")
    if cached is not None:
        return cached
    if isinstance(u, (UZero, UOne)):
        result = False
    elif isinstance(u, (UAdd, UMul)):
        result = (_uterm_binder_sensitive(u.left)
                  or _uterm_binder_sensitive(u.right))
    elif isinstance(u, (USquash, UNeg)):
        result = _uterm_binder_sensitive(u.arg)
    elif isinstance(u, USum):
        result = True
    elif isinstance(u, UEq):
        result = (_term_binder_sensitive(u.left)
                  or _term_binder_sensitive(u.right))
    elif isinstance(u, URel):
        result = _term_binder_sensitive(u.arg)
    elif isinstance(u, UPred):
        result = any(_term_binder_sensitive(a) for a in u.args)
    else:
        raise TypeError(f"not a UTerm: {u!r}")
    object.__setattr__(u, "_hc_bsens", result)
    return result


def _atom_binder_sensitive(atom: Atom) -> bool:
    cached = atom.__dict__.get("_hc_bsens")
    if cached is not None:
        return cached
    if isinstance(atom, (ASquash, ANeg)):
        result = True  # clause labels inside depend on env size
    elif isinstance(atom, ARel):
        result = _term_binder_sensitive(atom.arg)
    elif isinstance(atom, AEq):
        result = (_term_binder_sensitive(atom.left)
                  or _term_binder_sensitive(atom.right))
    elif isinstance(atom, APred):
        result = any(_term_binder_sensitive(a) for a in atom.args)
    else:
        raise TypeError(f"not an atom: {atom!r}")
    object.__setattr__(atom, "_hc_bsens", result)
    return result


def _cached_closed_key(node, compute) -> Tuple:
    key = node.__dict__.get("_hc_akey")
    if key is None:
        key = compute(node, {})
        object.__setattr__(node, "_hc_akey", key)
    return key


def term_alpha_key(term: Term, env: Dict[TVar, str] | None = None) -> Tuple:
    """Canonical structural key of a term under a bound-variable labelling."""
    if env and (_term_binder_sensitive(term)
                or not term_free_vars(term).isdisjoint(env)):
        return _term_alpha_key_env(term, env)
    return _cached_closed_key(term, _term_alpha_key_env)


def _term_alpha_key_env(term: Term, env: Dict[TVar, str]) -> Tuple:
    if isinstance(term, TVar):
        return ("var", env.get(term, term.name), str(term.var_schema))
    if isinstance(term, TUnit):
        return ("unit",)
    if isinstance(term, TPair):
        return ("pair", term_alpha_key(term.left, env),
                term_alpha_key(term.right, env))
    if isinstance(term, TFst):
        return ("fst", term_alpha_key(term.arg, env))
    if isinstance(term, TSnd):
        return ("snd", term_alpha_key(term.arg, env))
    if isinstance(term, TConst):
        return ("const", term.ty.name, repr(term.value))
    if isinstance(term, TApp):
        return ("app", term.fn, str(term.result_schema),
                tuple(term_alpha_key(a, env) for a in term.args))
    if isinstance(term, TAgg):
        inner = dict(env)
        inner[term.var] = "@agg"
        return ("agg", term.name, term.ty.name,
                uterm_alpha_key(term.body, inner))
    raise TypeError(f"not a term: {term!r}")


def uterm_alpha_key(u: UTerm, env: Dict[TVar, str] | None = None) -> Tuple:
    """Canonical key of a raw UniNomial term (used inside aggregates)."""
    if env and (_uterm_binder_sensitive(u)
                or not uterm_free_vars(u).isdisjoint(env)):
        return _uterm_alpha_key_env(u, env)
    return _cached_closed_key(u, _uterm_alpha_key_env)


def _uterm_alpha_key_env(u: UTerm, env: Dict[TVar, str]) -> Tuple:
    if isinstance(u, UZero):
        return ("zero",)
    if isinstance(u, UOne):
        return ("one",)
    if isinstance(u, UAdd):
        return ("add", uterm_alpha_key(u.left, env), uterm_alpha_key(u.right, env))
    if isinstance(u, UMul):
        return ("mul", uterm_alpha_key(u.left, env), uterm_alpha_key(u.right, env))
    if isinstance(u, USquash):
        return ("squash", uterm_alpha_key(u.arg, env))
    if isinstance(u, UNeg):
        return ("neg", uterm_alpha_key(u.arg, env))
    if isinstance(u, USum):
        inner = dict(env)
        inner[u.var] = f"@{len(env)}"
        return ("sum", str(u.var.var_schema), uterm_alpha_key(u.body, inner))
    if isinstance(u, UEq):
        return ("eq", term_alpha_key(u.left, env), term_alpha_key(u.right, env))
    if isinstance(u, URel):
        return ("rel", u.name, term_alpha_key(u.arg, env))
    if isinstance(u, UPred):
        return ("pred", u.name, tuple(term_alpha_key(a, env) for a in u.args))
    raise TypeError(f"not a UTerm: {u!r}")


def atom_alpha_key(atom: Atom, env: Dict[TVar, str] | None = None) -> Tuple:
    """Canonical key of a normal-form atom."""
    if env and (_atom_binder_sensitive(atom)
                or not atom_free_vars(atom).isdisjoint(env)):
        return _atom_alpha_key_env(atom, env)
    return _cached_closed_key(atom, _atom_alpha_key_env)


def _atom_alpha_key_env(atom: Atom, env: Dict[TVar, str]) -> Tuple:
    if isinstance(atom, ARel):
        return ("rel", atom.name, term_alpha_key(atom.arg, env))
    if isinstance(atom, AEq):
        keys = sorted((term_alpha_key(atom.left, env),
                       term_alpha_key(atom.right, env)))
        return ("eq", keys[0], keys[1])
    if isinstance(atom, APred):
        return ("pred", atom.name,
                tuple(term_alpha_key(a, env) for a in atom.args))
    if isinstance(atom, ASquash):
        return ("squash", nsum_alpha_key(atom.inner, env))
    if isinstance(atom, ANeg):
        return ("negsum", nsum_alpha_key(atom.inner, env))
    raise TypeError(f"not an atom: {atom!r}")


def product_alpha_key(product: NProduct,
                      env: Dict[TVar, str] | None = None) -> Tuple:
    """Canonical key of a clause: binders become positional labels."""
    if env:
        return _product_alpha_key_env(product, env)
    return _cached_closed_key(product, _product_alpha_key_env)


def _product_alpha_key_env(product: NProduct, env: Dict[TVar, str]) -> Tuple:
    env = dict(env) if env else {}
    for i, v in enumerate(product.vars):
        env[v] = f"@{len(env)}.{i}"
    schemas = tuple(sorted(str(v.var_schema) for v in product.vars))
    factor_keys = tuple(sorted(atom_alpha_key(f, env) for f in product.factors))
    return ("product", schemas, factor_keys)


def nsum_alpha_key(nsum: NSum, env: Dict[TVar, str] | None = None) -> Tuple:
    """Canonical key of a normal form (clause order irrelevant)."""
    if env:
        return _nsum_alpha_key_env(nsum, env)
    return _cached_closed_key(nsum, _nsum_alpha_key_env)


def _nsum_alpha_key_env(nsum: NSum, env: Dict[TVar, str]) -> Tuple:
    return ("nsum", tuple(sorted(product_alpha_key(p, env)
                                 for p in nsum.products)))


def atoms_alpha_equal(a: Atom, b: Atom) -> bool:
    """Alpha-equivalence of two atoms."""
    return a is b or atom_alpha_key(a) == atom_alpha_key(b)


def nsums_alpha_equal(a: NSum, b: NSum) -> bool:
    """Alpha-equivalence of two normal forms."""
    return a is b or nsum_alpha_key(a) == nsum_alpha_key(b)


# ---------------------------------------------------------------------------
# Rebuilding UTerms (for display and for the proof-size metric)
# ---------------------------------------------------------------------------

def atom_to_uterm(atom: Atom) -> UTerm:
    """Render an atom back into the UniNomial language."""
    if isinstance(atom, ARel):
        return URel(atom.name, atom.arg)
    if isinstance(atom, AEq):
        return UEq(atom.left, atom.right)
    if isinstance(atom, APred):
        return UPred(atom.name, atom.args)
    if isinstance(atom, ASquash):
        return usquash(nsum_to_uterm(atom.inner))
    if isinstance(atom, ANeg):
        return uneg(nsum_to_uterm(atom.inner))
    raise TypeError(f"not an atom: {atom!r}")


def product_to_uterm(product: NProduct) -> UTerm:
    """Render a clause back into the UniNomial language."""
    body = umul_all([atom_to_uterm(f) for f in product.factors])
    for var in reversed(product.vars):
        body = usum(var, body)
    return body


def nsum_to_uterm(nsum: NSum) -> UTerm:
    """Render a normal form back into the UniNomial language."""
    if nsum.is_zero:
        return UZero()
    result: Optional[UTerm] = None
    for p in reversed(nsum.products):
        u = product_to_uterm(p)
        result = u if result is None else UAdd(u, result)
    assert result is not None
    return result


# ---------------------------------------------------------------------------
# The normalizer
# ---------------------------------------------------------------------------

#: Memo table for :func:`normalize`, keyed on interned ``UTerm`` identity
#: (hashing an interned node is an O(1) stored-slot read, and equality is
#: pointer equality for canonical nodes).  Bounded, thread-safe, counted;
#: the counters surface through ``ProofStats`` and ``check --verbose``.
_NORMALIZE_MEMO = KernelLRU(4096, "normalize")


def normalize(u: UTerm) -> NSum:
    """Normalize a UniNomial term to sum-of-products normal form.

    Memoized on the interned term: repeated normalization of the same
    (pointer-identical) ``UTerm`` is a table lookup.  Sound because the
    result is determined by the term up to the choice of globally fresh
    binder names, and binders of a normal form are never reused as free
    variables elsewhere.
    """
    hit = _NORMALIZE_MEMO.get(u)
    if hit is not None:
        return hit
    nsum = _refine_nsum(_translate(u))
    _NORMALIZE_MEMO.put(u, nsum)
    return nsum


def normalize_stats() -> Dict[str, float]:
    """Hit/miss counters of the ``normalize`` memo table."""
    return _NORMALIZE_MEMO.stats()


def _translate(u: UTerm) -> Tuple[Clause, ...]:
    """Structural translation; distributes × over + and hoists Σ.

    Returns the sum as a tuple of plain (un-interned) clauses.
    """
    if isinstance(u, UZero):
        return ()
    if isinstance(u, UOne):
        return (((), ()),)
    if isinstance(u, UAdd):
        return _translate(u.left) + _translate(u.right)
    if isinstance(u, UMul):
        left = _translate(u.left)
        right = _translate(u.right)
        out: List[Clause] = []
        for p_vars, p_factors in left:
            for q in right:
                q_vars, q_factors = _freshen(q)
                out.append(_canonize_product((p_vars + q_vars,
                                              p_factors + q_factors)))
        return tuple(out)
    if isinstance(u, USum):
        out = []
        for variables, factors in _translate(u.body):
            renamed = fresh_var(u.var.var_schema, _hint(u.var))
            sub = {u.var: renamed}
            out.append(_canonize_product((
                (renamed,) + variables,
                tuple(atom_subst(f, sub) for f in factors))))
        return tuple(out)
    if isinstance(u, USquash):
        return (((), (ASquash(_nsum_of(_translate(u.arg))),)),)
    if isinstance(u, UNeg):
        return (((), (ANeg(_nsum_of(_translate(u.arg))),)),)
    if isinstance(u, UEq):
        factors = _eq_factors(u.left, u.right)
        if factors is None:
            return ()
        return (_canonize_product(((), factors)),)
    if isinstance(u, URel):
        return (((), (ARel(u.name, u.arg),)),)
    if isinstance(u, UPred):
        return (((), (APred(u.name, u.args),)),)
    raise TypeError(f"not a UTerm: {u!r}")


def _nsum_of(clauses: Sequence[Clause]) -> NSum:
    """Intern a translated sum (the content of a squash/negation atom)."""
    return NSum(tuple(NProduct(v, f) for v, f in clauses))


def _hint(var: TVar) -> str:
    return var.name.split("$")[0]


def _freshen(clause: Clause) -> Clause:
    """Rename all binders of a clause to globally fresh variables."""
    variables, factors = clause
    if not variables:
        return clause
    sub: Substitution = {}
    for v in variables:
        sub[v] = fresh_var(v.var_schema, _hint(v))
    return _canonize_product((tuple(sub.values()),
                              tuple(atom_subst(f, sub) for f in factors)))


def _eq_factors(left: Term, right: Term) -> Optional[List[Atom]]:
    """Decompose an equality along the (concrete part of the) schema.

    Returns ``None`` when the equality is refutable (distinct constants),
    the empty list when it is trivially true, and a list of ``AEq`` atoms
    otherwise.  Pair-shaped equalities split component-wise:
    ``((a, b) = t)  =  (a = t.1) × (b = t.2)``.
    """
    if left == right:
        return []
    schema = left.schema
    if isinstance(schema, Empty):
        return []
    if isinstance(schema, Node) or isinstance(left, TPair) or isinstance(right, TPair):
        first = _eq_factors(tfst(left), tfst(right))
        if first is None:
            return None
        second = _eq_factors(tsnd(left), tsnd(right))
        if second is None:
            return None
        return first + second
    if isinstance(left, TConst) and isinstance(right, TConst):
        return [] if left.value == right.value else None
    return [_orient_eq(left, right)]


# ---------------------------------------------------------------------------
# Clause refinement: variable splitting, point elimination, squash laws
# ---------------------------------------------------------------------------

def _refine_nsum(clauses: Iterable[Clause]) -> NSum:
    out: List[NProduct] = []
    for clause in clauses:
        refined = _refine_product(clause)
        if refined is not None:
            out.append(refined)
    return NSum(tuple(out))


def _split_var(var: TVar, leaves: List[TVar]) -> Term:
    """Lemma 5.1 down to the leaves: the term replacing a bound variable.

    A pair-typed variable becomes a (nested) pair of fresh variables and a
    unit-typed one becomes ``()``; surviving leaf variables are appended
    to ``leaves`` left to right.  Both fresh halves are created before
    either is split, left half first, so fresh names do not depend on
    whether the split runs in one pass or one binder at a time.
    """
    schema = var.var_schema
    if isinstance(schema, Empty):
        return TUnit()
    if isinstance(schema, Node):
        v1 = fresh_var(schema.left, _hint(var))
        v2 = fresh_var(schema.right, _hint(var))
        return tpair(_split_var(v1, leaves), _split_var(v2, leaves))
    leaves.append(var)
    return var


def _refine_product(clause: Clause) -> Optional[NProduct]:
    """Apply Lemmas 5.1/5.2 and squash simplification to a fixpoint.

    Returns ``None`` when the clause denotes the empty type.
    """
    # Lemma 5.1 — split bound pair variables; drop unit variables.
    vars_list: List[TVar] = []
    sub: Dict[TVar, Term] = {}
    for var in clause[0]:
        replacement = _split_var(var, vars_list)
        if replacement is not var:
            sub[var] = replacement
    factors = [atom_subst(f, sub) for f in clause[1]]

    changed = True
    while changed:
        changed = False

        # Re-decompose equalities whose sides became pairs, detect refutation.
        new_factors: List[Atom] = []
        decomposed = False
        refuted = False
        for f in factors:
            if isinstance(f, AEq):
                pieces = _eq_factors(f.left, f.right)
                if pieces is None:
                    refuted = True
                    break
                if len(pieces) != 1 or pieces[0] != f:
                    decomposed = True
                new_factors.extend(pieces)
            else:
                new_factors.append(f)
        if refuted:
            return None
        if decomposed:
            factors = new_factors
            changed = True
            continue
        factors = new_factors

        # Lemma 5.2 — point elimination of pinned bound variables.
        eliminated = False
        for i, f in enumerate(factors):
            if not isinstance(f, AEq):
                continue
            pin = _pinned_var(f, vars_list)
            if pin is None:
                continue
            var, replacement = pin
            vars_list.remove(var)
            del factors[i]
            sub = {var: replacement}
            factors = [atom_subst(g, sub) for g in factors]
            eliminated = True
            break
        if eliminated:
            changed = True
            continue

        # Squash / negation simplification of nested normal forms.
        simplified, factors_or_none = _simplify_nested(factors)
        if factors_or_none is None:
            return None
        if simplified:
            factors = factors_or_none
            changed = True
            continue
        factors = factors_or_none

    # No sort: NProduct construction establishes the canonical factor
    # order via the interned order key.
    return NProduct(tuple(vars_list), tuple(factors))


def _pinned_var(atom: AEq, bound: Sequence[TVar]) -> Optional[Tuple[TVar, Term]]:
    """Find ``x = s`` with x bound and x not free in s (either orientation)."""
    for var_side, other in ((atom.left, atom.right), (atom.right, atom.left)):
        if isinstance(var_side, TVar) and var_side in bound \
                and var_side not in term_free_vars(other):
            return var_side, other
    return None


def _simplify_nested(factors: List[Atom]) -> Tuple[bool, Optional[List[Atom]]]:
    """Normalize squashed/negated sub-sums and apply the squash laws.

    Returns ``(changed, new_factors)``; ``new_factors is None`` marks the
    whole clause as the empty type.
    """
    changed = False
    out: List[Atom] = []
    for f in factors:
        if isinstance(f, ASquash):
            inner = _refine_nsum(_dedup_under_squash(f.inner))
            if inner.is_zero:
                return True, None
            if any(p.is_trivially_one for p in inner.products):
                changed = True  # ‖1 + ...‖ = 1: the factor vanishes
                continue
            pulled, remainder = _pull_props(inner)
            if pulled:
                changed = True
                out.extend(pulled)
                if remainder is not None:
                    out.append(ASquash(remainder))
                continue
            if inner != f.inner:
                changed = True
            out.append(ASquash(inner))
        elif isinstance(f, ANeg):
            inner = _refine_nsum(_dedup_under_squash(f.inner))
            if inner.is_zero:
                changed = True  # (0 → 0) = 1: the factor vanishes
                continue
            if any(p.is_trivially_one for p in inner.products):
                return True, None  # (1 → 0) = 0
            if len(inner.products) == 1:
                lone = inner.products[0]
                if not lone.vars and len(lone.factors) == 1:
                    only = lone.factors[0]
                    if isinstance(only, ANeg):
                        # ¬¬X = ‖X‖ (Sec. 3.4); the re-run simplifies the
                        # squash (prop contents collapse to themselves).
                        changed = True
                        out.append(ASquash(only.inner))
                        continue
                    if isinstance(only, ASquash):
                        # ¬‖X‖ = ¬X (uneg's squash law).
                        changed = True
                        out.append(ANeg(only.inner))
                        continue
            if inner != f.inner:
                changed = True
            out.append(ANeg(inner))
        else:
            out.append(f)
    return changed, out


def _dedup_under_squash(nsum: NSum) -> List[Clause]:
    """Under ‖·‖ (or → 0), duplicates do not matter: ``‖n × n‖ = ‖n‖``.

    Deduplicates identical factors within each clause and identical clauses
    within the sum.  Only sound under a truncation, which is the only place
    this is called.
    """
    out: List[Clause] = []
    seen_product_keys = set()
    for p in nsum.products:
        factor_keys = set()
        env: Dict[TVar, str] = {}
        for i, v in enumerate(p.vars):
            env[v] = f"@{i}"
        dedup_factors = []
        for f in p.factors:
            key = atom_alpha_key(f, env)
            if key in factor_keys:
                continue
            factor_keys.add(key)
            dedup_factors.append(f)
        if len(dedup_factors) != len(p.factors):
            p = NProduct(p.vars, tuple(dedup_factors))
        q_key = product_alpha_key(p)
        if q_key not in seen_product_keys:
            seen_product_keys.add(q_key)
            out.append((p.vars, p.factors))
    return out


def _pull_props(inner: NSum) -> Tuple[List[Atom], Optional[NSum]]:
    """``‖A × P‖ = ‖A‖ × P`` — hoist prop factors out of a squash.

    Only applies when the squash wraps a single clause with no binders
    (otherwise the props may mention bound variables).  Returns the hoisted
    prop atoms and the residual squash content (``None`` when everything was
    hoisted or the remainder is a lone prop).
    """
    if len(inner.products) != 1:
        return [], inner
    product = inner.products[0]
    if product.vars:
        return [], inner
    props = [f for f in product.factors if _atom_is_prop(f)]
    rest = [f for f in product.factors if not _atom_is_prop(f)]
    if not props:
        return [], inner
    if not rest:
        return props, None
    return props, NSum((NProduct((), tuple(rest)),))


__all__ = [
    "AEq",
    "ANeg",
    "APred",
    "ARel",
    "ASquash",
    "Atom",
    "NProduct",
    "NSum",
    "NSUM_ONE",
    "NSUM_ZERO",
    "atom_free_vars",
    "atom_subst",
    "atom_to_uterm",
    "normalize",
    "nsum_free_vars",
    "nsum_subst",
    "nsum_to_uterm",
    "product_free_vars",
    "product_subst",
    "product_to_uterm",
]

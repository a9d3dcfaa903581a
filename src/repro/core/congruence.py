"""Congruence closure over tuple terms.

The paper's deductive proofs (Sec. 2 "Deductive HoTTSQL Proof", Sec. 5.2)
"rewrite all equalities and try to discharge the proof by direct application
of hypotheses".  The engine that makes equality rewriting decidable is
congruence closure (Nelson & Oppen, JACM 1980 — cited by the paper in
Sec. 3.4); this module implements it for the term language of
:mod:`repro.core.uninomial`:

* uninterpreted function congruence — ``a = b ⟹ f(a) = f(b)``,
* pair/projection theory — ``t = (a, b) ⟹ t.1 = a`` and ``(t.1, t.2) = t``,
* constant disjointness — distinct literals are never equal (used to detect
  contradictory products, which denote the empty type).

The implementation favours clarity over asymptotics: products appearing in
rewrite rules have a handful of atoms, so the O(n²) propagation loop is
never the bottleneck (the benchmarks confirm this).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from .schema import Node, Schema
from .uninomial import TAgg, TApp, TConst, TFst, TPair, TSnd, TUnit, TVar, Term


class Contradiction(Exception):
    """Raised when the closure would identify two distinct constants."""


class CongruenceClosure:
    """Union-find with congruence propagation over the term DAG."""

    def __init__(self) -> None:
        self._parent: Dict[Term, Term] = {}
        self._members: Dict[Term, Set[Term]] = {}
        self._canon_active: Set[Term] = set()
        self.contradictory = False

    # -- registration -------------------------------------------------------

    def ensure(self, term: Term) -> None:
        """Register a term and all of its sub-terms."""
        if term in self._parent:
            return
        self._parent[term] = term
        self._members[term] = {term}
        for child in _children(term):
            self.ensure(child)
        self._propagate()

    def terms(self) -> Iterable[Term]:
        """All registered terms."""
        return self._parent.keys()

    # -- union-find ----------------------------------------------------------

    def find(self, term: Term) -> Term:
        """Current class representative of ``term`` (registers it if new)."""
        self.ensure(term)
        # Every key and parent is a canonical interned node, so identity
        # is equality, and ``is not`` skips a Python-level ``__eq__``
        # call per step.
        root = term
        while self._parent[root] is not root:
            root = self._parent[root]
        # Path compression.
        node = term
        while self._parent[node] is not node:
            self._parent[node], node = root, self._parent[node]
        return root

    def merge(self, a: Term, b: Term) -> None:
        """Assert ``a = b`` and close under congruence."""
        self.ensure(a)
        self.ensure(b)
        self._union(a, b)
        self._propagate()

    def _union(self, a: Term, b: Term) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if isinstance(ra, TConst) and isinstance(rb, TConst) \
                and ra.value != rb.value:
            self.contradictory = True
        if len(self._members[ra]) < len(self._members[rb]):
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._members[ra] |= self._members.pop(rb)

    def _propagate(self) -> None:
        """Close under congruence and the pair/projection theory."""
        changed = True
        while changed:
            changed = False
            signature: Dict[Tuple, Term] = {}
            for term in list(self._parent):
                sig = self._signature(term)
                if sig is None:
                    continue
                other = signature.get(sig)
                if other is None:
                    signature[sig] = term
                elif self.find(other) != self.find(term):
                    self._union(other, term)
                    changed = True
            if self._apply_pair_axioms():
                changed = True

    def _signature(self, term: Term) -> Optional[Tuple]:
        if isinstance(term, TApp):
            return ("app", term.fn, term.result_schema,
                    tuple(self.find(a) for a in term.args))
        if isinstance(term, TPair):
            return ("pair", self.find(term.left), self.find(term.right))
        if isinstance(term, TFst):
            return ("fst", self.find(term.arg))
        if isinstance(term, TSnd):
            return ("snd", self.find(term.arg))
        return None  # atoms: variables, constants, unit, aggregates

    def _apply_pair_axioms(self) -> bool:
        """If a class contains an explicit pair, project it onto Fst/Snd."""
        changed = False
        for term in list(self._parent):
            if isinstance(term, TFst):
                witness = self._pair_witness(term.arg)
                if witness is not None and \
                        self.find(term) != self.find(witness.left):
                    self._union(term, witness.left)
                    changed = True
            elif isinstance(term, TSnd):
                witness = self._pair_witness(term.arg)
                if witness is not None and \
                        self.find(term) != self.find(witness.right):
                    self._union(term, witness.right)
                    changed = True
        return changed

    def _pair_witness(self, term: Term) -> Optional[TPair]:
        root = self.find(term)
        for member in self._members[root]:
            if isinstance(member, TPair):
                return member
        return None

    # -- queries ---------------------------------------------------------------

    def equal(self, a: Term, b: Term) -> bool:
        """Does the closure entail ``a = b``?

        Tuples of ``Node`` schema are compared component-wise, so that
        ``x = (a, b)`` follows from ``x.1 = a`` and ``x.2 = b`` (surjective
        pairing).  Pointer-equal terms (the common case with the interned
        kernel) answer immediately, without registering anything.
        """
        if a is b:
            return True
        if self.find(a) == self.find(b):
            return True
        schema = _common_schema(a, b)
        if isinstance(schema, Node):
            return (self.equal(_fst(a), _fst(b))
                    and self.equal(_snd(a), _snd(b)))
        return False

    def canonical(self, term: Term) -> Term:
        """A deterministic representative of the term's class.

        Chooses the smallest member (by size, then by rendering) and
        canonicalizes recursively below it, producing a normal form that two
        different closures agree on whenever they prove the same equalities.
        """
        self.ensure(term)
        root = self.find(term)
        best = min(self._members[root], key=_term_key)
        if root in self._canon_active:
            return best  # cycle in the class graph: stop rebuilding
        self._canon_active.add(root)
        try:
            rebuilt = _rebuild(best, self)
        finally:
            self._canon_active.discard(root)
        return min((best, rebuilt), key=_term_key)

    def assume_all(self, equations: Iterable[Tuple[Term, Term]]) -> None:
        """Merge a batch of equations."""
        for a, b in equations:
            self.merge(a, b)

    def members(self, term: Term) -> Set[Term]:
        """All registered terms known equal to ``term``."""
        return set(self._members[self.find(term)])


def _children(term: Term) -> List[Term]:
    if isinstance(term, TPair):
        return [term.left, term.right]
    if isinstance(term, (TFst, TSnd)):
        return [term.arg]
    if isinstance(term, TApp):
        return list(term.args)
    return []  # TVar, TConst, TUnit, TAgg are leaves for the closure


def _fst(term: Term) -> Term:
    return term.left if isinstance(term, TPair) else TFst(term)


def _snd(term: Term) -> Term:
    return term.right if isinstance(term, TPair) else TSnd(term)


def _common_schema(a: Term, b: Term) -> Optional[Schema]:
    try:
        sa = a.schema
        sb = b.schema
    except TypeError:
        return None
    return sa if sa == sb else None


def _term_key(term: Term) -> Tuple[int, str]:
    # Both components are O(1) amortized on interned nodes: the kernel
    # caches node sizes and renderings.
    return (_size(term), str(term))


def _size(term: Term) -> int:
    """Closure-level term size (aggregates are leaves); cached per node."""
    cached = term.__dict__.get("_hc_ccsize")
    if cached is not None:
        return cached
    if isinstance(term, TPair):
        size = 1 + _size(term.left) + _size(term.right)
    elif isinstance(term, (TFst, TSnd)):
        size = 1 + _size(term.arg)
    elif isinstance(term, TApp):
        size = 1 + sum(_size(a) for a in term.args)
    else:
        return 1  # TVar, TConst, TUnit, TAgg (no slot needed for leaves)
    object.__setattr__(term, "_hc_ccsize", size)
    return size


def _rebuild(term: Term, cc: "CongruenceClosure") -> Term:
    """Canonicalize below the chosen representative (children first)."""
    if isinstance(term, TPair):
        left = cc.canonical(term.left)
        right = cc.canonical(term.right)
        if left is term.left and right is term.right:
            return term
        return TPair(left, right)
    if isinstance(term, TFst):
        arg = cc.canonical(term.arg)
        if isinstance(arg, TPair):
            return arg.left
        return TFst(arg) if arg is not term.arg else term
    if isinstance(term, TSnd):
        arg = cc.canonical(term.arg)
        if isinstance(arg, TPair):
            return arg.right
        return TSnd(arg) if arg is not term.arg else term
    if isinstance(term, TApp):
        args = tuple(cc.canonical(a) for a in term.args)
        return TApp(term.fn, args, term.result_schema)
    return term

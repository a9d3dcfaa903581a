"""An e-graph over the interned HoTTSQL query AST.

A term-at-a-time planner re-derives structurally equal plans over and
over and forgets the equalities it discovers; an e-graph (the data
structure behind egg-style equality saturation, and the same
congruence-closure machinery :mod:`repro.core.congruence` uses on
denotations) stores *every* plan reachable by the certified rewrites at
once:

* an **e-class** is a set of e-nodes proved equal (by a rewrite, or by
  congruence);
* an **e-node** is one query constructor whose ``Query`` children are
  e-class ids — predicates, projections, and table names stay in the
  node's *label* (they are interned AST subtrees, so label hashing is
  O(1) via the hash-cons kernel);
* a **union-find** maps e-class ids to canonical representatives, and
  :meth:`EGraph.rebuild` restores the congruence invariant (equal
  children ⇒ merged parents) after a batch of unions, exactly the
  deferred-rebuild discipline of egg.

Because PR 3's kernel interns AST nodes (structural eq ⇒ pointer eq),
:meth:`EGraph.add_term` memoizes term→e-class on node *identity*: adding
the same subtree twice — from anywhere in any plan — is one dict hit,
and the hashcons key ``(op, label, child classes)`` hashes in O(1).

Provenance: every e-node added by a rewrite records the rule name and
the e-node it was derived from, and every union records its reason.
:func:`repro.optimizer.extract.rule_chain` reconstructs the winning rule
chain for ``PlanningResult.applied_rules`` / ``explain()`` from these
records.

Change tracking, for semi-naive saturation: every canonical class has a
**version** that goes up whenever what a rule can read off the class
changes — it gains a member, absorbs another class, has its member list
rewritten by :meth:`EGraph.rebuild`, or has its analysis data
strengthened.  :meth:`EGraph.stamp` reads ``(find(c), version)`` for a
node's children; the scheduler skips a rule on an e-node whose stamp is
unchanged since the rule last ran there.  An attached e-class
**analysis** (:class:`repro.optimizer.eanalysis.EClassAnalysis`) is kept
current egg-style: made on add, merged on union, and propagated to
parents during rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from ..core import ast

__all__ = ["EGraph", "ENode", "Reason", "query_children", "enode_term"]


#: For every query constructor, the dataclass fields holding ``Query``
#: children (in order).  Everything else is label payload.
QUERY_FIELDS: Dict[type, Tuple[str, ...]] = {
    ast.Table: (),
    ast.Select: ("query",),
    ast.Product: ("left", "right"),
    ast.Where: ("query",),
    ast.UnionAll: ("left", "right"),
    ast.Except: ("left", "right"),
    ast.Distinct: ("query",),
}

#: Label fields per constructor (the dataclass fields that are not
#: Query children), derived once.
LABEL_FIELDS: Dict[type, Tuple[str, ...]] = {
    cls: tuple(f.name for f in dataclass_fields(cls)
               if f.name not in QUERY_FIELDS[cls])
    for cls in QUERY_FIELDS
}


def query_children(query: ast.Query) -> Tuple[ast.Query, ...]:
    """The direct ``Query`` children of a node (label subtrees excluded)."""
    return tuple(getattr(query, name)
                 for name in QUERY_FIELDS[type(query)])


class ENode(NamedTuple):
    """One query constructor over e-class children.

    ``op`` is the AST class, ``label`` the non-Query field values (interned
    AST subtrees / strings / schemas), ``children`` the e-class ids of the
    Query children.  An ENode is *canonical* when its children are
    canonical class ids; the hashcons only ever stores canonical nodes.
    """

    op: type
    label: tuple
    children: Tuple[int, ...]

    def describe(self) -> str:
        inner = ", ".join(f"c{c}" for c in self.children)
        return f"{self.op.__name__}({inner})"


@dataclass(frozen=True)
class Reason:
    """Why an e-node (or a union) exists: a rule applied to a source node."""

    rule: str
    source: ENode


def _label_of(query: ast.Query) -> tuple:
    return tuple(getattr(query, name)
                 for name in LABEL_FIELDS[type(query)])


class EGraph:
    """E-classes of query plans with congruence-closure rebuilding."""

    def __init__(self) -> None:
        #: union-find parent pointers (path-halving find).
        self._uf: List[int] = []
        #: canonical e-node → canonical class id.
        self._hashcons: Dict[ENode, int] = {}
        #: canonical class id → list of (possibly stale) e-nodes.
        self._classes: Dict[int, List[ENode]] = {}
        #: canonical class id → [(parent e-node, parent class)] for rebuild.
        self._parents: Dict[int, List[Tuple[ENode, int]]] = {}
        #: classes whose parents may have become incongruent.
        self._dirty: List[int] = []
        #: interned term (by identity) → class id memo.
        self._term_memo: Dict[int, int] = {}
        #: keeps memoized terms alive so their ids stay valid.
        self._term_refs: List[ast.Query] = []
        #: e-node → why it was first created by a rewrite (None: inserted).
        self.reasons: Dict[ENode, Reason] = {}
        #: nodes inserted verbatim from a source term — they never accept
        #: a late rule attribution (they were not *produced* by a rule).
        self.primordial: set = set()
        #: every union performed with a rule justification.
        self.union_log: List[Tuple[int, int, Reason]] = []
        #: total e-nodes ever admitted (the saturation node budget meter).
        self.nodes_added = 0
        self.unions = 0
        #: class id → version (meaningful for canonical ids; see stamp).
        self._version: List[int] = []
        #: the attached e-class analysis, told of every add, union and
        #: rebuild (None: nothing to maintain).
        self.analysis = None

    # -- union-find ---------------------------------------------------------

    def find(self, cid: int) -> int:
        uf = self._uf
        while uf[cid] != cid:
            uf[cid] = uf[uf[cid]]  # path halving
            cid = uf[cid]
        return cid

    def _new_class(self) -> int:
        cid = len(self._uf)
        self._uf.append(cid)
        self._version.append(0)
        self._classes[cid] = []
        self._parents[cid] = []
        return cid

    # -- change tracking ----------------------------------------------------

    def stamp(self, children: Tuple[int, ...]) -> Tuple[int, ...]:
        """``find(c)`` and its version for each class, flattened.  Two
        equal stamps mean no class among them gained a member, merged,
        was rewritten by rebuild, or saw its analysis data change."""
        out: List[int] = []
        for cid in children:
            cid = self.find(cid)
            out += (cid, self._version[cid])
        return tuple(out)

    def touch(self, cid: int) -> None:
        """Bump a canonical class's version (its derived data changed)."""
        self._version[cid] += 1

    def parents_of(self, cid: int) -> List[Tuple[ENode, int]]:
        """``(parent e-node, parent class)`` pairs of a class (entries
        may be stale until the next rebuild)."""
        return self._parents[self.find(cid)]

    # -- sizes --------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Live canonical e-nodes (after dedup by congruence)."""
        return len(self._hashcons)

    @property
    def num_classes(self) -> int:
        """Live canonical e-classes."""
        return sum(1 for cid in self._classes if self.find(cid) == cid)

    def classes(self) -> Iterator[Tuple[int, List[ENode]]]:
        """Iterate canonical ``(class id, e-nodes)`` pairs."""
        for cid, nodes in self._classes.items():
            if self.find(cid) == cid:
                yield cid, nodes

    def nodes_of(self, cid: int) -> List[ENode]:
        """The e-nodes of a class (canonicalized view)."""
        return self._classes[self.find(cid)]

    # -- insertion ----------------------------------------------------------

    def canonicalize(self, node: ENode) -> ENode:
        children = tuple(self.find(c) for c in node.children)
        if children == node.children:
            return node
        return ENode(node.op, node.label, children)

    def class_of(self, node: ENode) -> Optional[int]:
        """Canonical class id currently holding ``node`` (None: unknown)."""
        cid = self._hashcons.get(self.canonicalize(node))
        return None if cid is None else self.find(cid)

    def add_enode(self, node: ENode,
                  reason: Optional[Reason] = None) -> int:
        """Admit an e-node; returns its (existing or fresh) class id.

        ``reason`` records rule provenance the first time the node is
        seen; a hashcons hit keeps the earlier derivation, except that a
        node created as an anonymous *piece* of some rewrite (no reason
        yet, not primordial) adopts the first rule that derives it as a
        whole.
        """
        node = self.canonicalize(node)
        existing = self._hashcons.get(node)
        if existing is not None:
            if (reason is not None and node not in self.reasons
                    and node not in self.primordial):
                self.reasons[node] = reason
            return self.find(existing)
        cid = self._new_class()
        self._hashcons[node] = cid
        self._classes[cid].append(node)
        for child in node.children:
            self._parents[child].append((node, cid))
        self.nodes_added += 1
        if reason is not None:
            self.reasons[node] = reason
        if self.analysis is not None:
            self.analysis.make(cid, node)
        return cid

    def add(self, op: type, label: tuple, children: Tuple[int, ...],
            reason: Optional[Reason] = None) -> int:
        """Convenience: build + admit an :class:`ENode`."""
        return self.add_enode(
            ENode(op, label, tuple(self.find(c) for c in children)), reason)

    def add_term(self, query: ast.Query) -> int:
        """Insert a whole query tree; memoized on interned identity."""
        memo = self._term_memo.get(id(query))
        if memo is not None:
            return self.find(memo)
        node = self.canonicalize(ENode(
            type(query), _label_of(query),
            tuple(self.add_term(c) for c in query_children(query))))
        self.primordial.add(node)
        cid = self.add_enode(node)
        self._term_memo[id(query)] = cid
        self._term_refs.append(query)
        return cid

    # -- union + rebuild ----------------------------------------------------

    def union(self, a: int, b: int, reason: Optional[Reason] = None) -> int:
        """Merge two e-classes; marks the loser dirty for :meth:`rebuild`."""
        a, b = self.find(a), self.find(b)
        if a == b:
            return a
        # Merge the smaller class into the larger one.
        if (len(self._classes[a]) + len(self._parents[a])
                < len(self._classes[b]) + len(self._parents[b])):
            a, b = b, a
        self._uf[b] = a
        self._version[a] += 1
        if self.analysis is not None:
            self.analysis.merge(a, b)
        self._classes[a].extend(self._classes.pop(b))
        self._parents[a].extend(self._parents.pop(b))
        self._dirty.append(a)
        self.unions += 1
        if reason is not None:
            self.union_log.append((a, b, reason))
        return a

    def rebuild(self) -> int:
        """Restore congruence: re-canonicalize parents of merged classes
        and merge any that collide in the hashcons.  Returns the number
        of congruence unions performed.  Then propagates the attached
        analysis's pending changes to parent classes, and deduplicates
        every class's e-node list, so match enumeration and plan
        counting never see a stale twin of a canonical node."""
        congruences = 0
        while self._dirty:
            todo = {self.find(cid) for cid in self._dirty}
            self._dirty = []
            for cid in todo:
                congruences += self._repair(self.find(cid))
        if self.analysis is not None:
            self.analysis.propagate()
        self._compact()
        return congruences

    def _repair(self, cid: int) -> int:
        merged = 0
        parents = self._parents.get(self.find(cid), [])
        self._parents[self.find(cid)] = []
        for node, pclass in parents:
            # The stored node may predate unions: re-canonicalize it and
            # migrate its hashcons entry (and provenance records).
            self._hashcons.pop(node, None)
            canon = self.canonicalize(node)
            self._migrate(node, canon)
            pclass = self.find(pclass)
            existing = self._hashcons.get(canon)
            if existing is not None and self.find(existing) != pclass:
                # Congruence: same constructor, equal children — the two
                # parents denote the same relation.
                pclass = self.union(existing, pclass)
                merged += 1
            self._hashcons[canon] = self.find(pclass)
            # Re-register under whatever class cid lives in *now* (it may
            # itself have been merged by the union above).
            self._parents[self.find(cid)].append((canon, self.find(pclass)))
        return merged

    def _migrate(self, node: ENode, canon: ENode) -> None:
        """Carry provenance records across a re-canonicalization."""
        if canon == node:
            return
        reason = self.reasons.pop(node, None)
        if reason is not None:
            self.reasons.setdefault(canon, reason)
        if node in self.primordial:
            self.primordial.discard(node)
            self.primordial.add(canon)

    def _compact(self) -> None:
        """Drop stale duplicates from every class's e-node list (a class
        whose list changes gets a new version)."""
        for cid, nodes in self._classes.items():
            seen: Dict[ENode, bool] = {}
            out: List[ENode] = []
            changed = False
            for node in nodes:
                canon = self.canonicalize(node)
                if canon is not node:
                    changed = True
                    self._migrate(node, canon)
                if canon not in seen:
                    seen[canon] = True
                    out.append(canon)
            if changed or len(out) != len(nodes):
                self._classes[cid] = out
                self._version[cid] += 1

    # -- reading terms back -------------------------------------------------

    def enode_term_shallow(self, node: ENode,
                           child_terms: Tuple[ast.Query, ...]) -> ast.Query:
        """Rebuild the AST node for ``node`` given its children's terms."""
        kwargs = dict(zip(LABEL_FIELDS[node.op], node.label))
        kwargs.update(zip(QUERY_FIELDS[node.op], child_terms))
        return node.op(**kwargs)

    def any_term(self, cid: int) -> ast.Query:
        """Some concrete term of a class (smallest-first; for debugging)."""
        return _any_term(self, self.find(cid), frozenset())


def _any_term(eg: EGraph, cid: int, on_stack: frozenset) -> ast.Query:
    if cid in on_stack:
        raise ValueError(f"cyclic e-class c{cid} has no finite term "
                         f"without extraction")
    on_stack = on_stack | {cid}
    errors: List[str] = []
    for node in sorted(eg.nodes_of(cid), key=lambda n: len(n.children)):
        try:
            children = tuple(_any_term(eg, eg.find(c), on_stack)
                             for c in node.children)
        except ValueError as exc:
            errors.append(str(exc))
            continue
        return eg.enode_term_shallow(node, children)
    raise ValueError(errors[0] if errors else f"empty e-class c{cid}")


def enode_term(eg: EGraph, node: ENode,
               child_terms: Tuple[ast.Query, ...]) -> ast.Query:
    """Module-level alias of :meth:`EGraph.enode_term_shallow`."""
    return eg.enode_term_shallow(node, child_terms)

"""E-class property analysis + property-guarded e-rules.

The egg-style e-class analysis for the plan e-graph: every e-class gets
the property-lattice element of :mod:`repro.analysis.properties`,
computed with the *same* transfer functions the tree analysis uses
(:func:`repro.analysis.infer.transfer` — the e-graph's ``(op, label,
children)`` decomposition is exactly the transfer kernel's signature).
Because all members of an e-class denote the same bag, each member's
derived guarantees hold for the whole class, so members combine with
:meth:`~repro.analysis.properties.PlanProperties.refine` (facts
accumulate) rather than a lossy lattice join.

The analysis is incremental, as in egg ("make on add, merge on union"):
constructing an :class:`EClassAnalysis` computes every class's data to
a fixpoint once and attaches it to the e-graph, which from then on
calls :meth:`~EClassAnalysis.make` for each new e-node,
:meth:`~EClassAnalysis.merge` on each union, and
:meth:`~EClassAnalysis.propagate` from ``rebuild`` to re-make the
parents of every class whose data got stronger.  A strengthened class
gets a new version, so the saturation scheduler re-runs the rules that
read it and skips the rest.  Facts only accumulate, so propagation
terminates; the one fact that can rise without bound around a cycle —
an interval's lower bound, under unions no sound rule produces — stops
rising after :data:`MAX_LO_RAISES` raises per class.

On top of it, the guarded e-rules — rewrites that are only sound when
the inferred facts license them, which plain syntactic e-rules cannot
express:

* ``distinct_elim_under_key`` — ``DISTINCT q ≡ q`` when ``q`` is
  set-valued (structurally, or via a key hypothesis);
* ``where_taut_elim``        — ``σ_b(q) ≡ q`` when ``b`` is a tautology;
* ``where_contra_to_empty``  — ``σ_b(q) ≡ σ_FALSE(q)`` when ``b`` is a
  contradiction (the canonical empty plan, visible to the cost model);
* ``except_empty_elim``      — ``q − e ≡ q`` when ``e`` is guaranteed
  empty.

Every union they perform is still re-certified end to end by the
verification pipeline when the planner extracts a winner (the keyed
case is dischargeable because the equivalence engine's absorption knows
keys force set-valuedness).
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Dict, Iterable, List, Tuple

from ..analysis.infer import AnalysisContext, EMPTY_CONTEXT, pred_sat, transfer
from ..analysis.properties import Interval, PlanProperties, Sat, TOP
from ..core import ast
from ..obs.metrics import counter
from .egraph import EGraph, ENode, Reason
from .saturate import ERule

__all__ = ["EClassAnalysis", "MAX_LO_RAISES", "guarded_rules"]

#: How many times one class's cardinality lower bound may rise during
#: propagation before it is held where it is (holding it is sound: the
#: class just keeps a weaker bound).
MAX_LO_RAISES = 8


class EClassAnalysis:
    """Property data for every e-class of one e-graph, kept current by
    the e-graph's add / union / rebuild events once attached.

    Constructing one attaches it to ``eg`` (replacing any analysis
    attached before); it holds the e-graph weakly, so the pair is freed
    with the e-graph.
    """

    def __init__(self, eg: EGraph, ctx: AnalysisContext = EMPTY_CONTEXT
                 ) -> None:
        self.eg = weakref.proxy(eg)
        self.ctx = ctx
        self._data: Dict[int, PlanProperties] = {}
        #: classes whose data got stronger since the last propagation.
        self._changed: List[int] = []
        #: class → how often its lower bound rose while propagating.
        self._raises: Dict[int, int] = {}
        #: node makes performed (the propagation work meter).
        self.steps = 0
        classes = list(eg.classes())
        for cid, _ in classes:
            self._data[cid] = TOP
        for cid, nodes in classes:
            self._refine(cid, nodes)
        self.propagate()
        eg.analysis = self

    def props(self, cid: int) -> PlanProperties:
        """Properties of e-class ``cid``."""
        return self._data[self.eg.find(cid)]

    # -- e-graph events ------------------------------------------------------

    def make(self, cid: int, node: ENode) -> None:
        """A fresh class ``cid`` was created holding ``node``."""
        self._data[cid] = self._make(node)

    def merge(self, a: int, b: int) -> None:
        """Class ``b`` was merged into ``a``: their facts combine."""
        data = self._data
        old_a, old_b = data[a], data.pop(b)
        self._raises[a] = self._raises.get(a, 0) + self._raises.pop(b, 0)
        if old_a == old_b:
            return
        merged = data[a] = old_a.refine(old_b)
        if merged != old_a or merged != old_b:
            self._changed.append(a)

    def propagate(self) -> None:
        """Re-make the parents of every strengthened class, to fixpoint
        (each strengthened class gets a new version)."""
        eg, find = self.eg, self.eg.find
        changed = self._changed
        while changed:
            cid = find(changed.pop())
            eg.touch(cid)
            for node, pclass in eg.parents_of(cid):
                self._refine(find(pclass), (node,))

    # -- internals -----------------------------------------------------------

    def _make(self, node: ENode) -> PlanProperties:
        self.steps += 1
        data, find = self._data, self.eg.find
        return transfer(node.op, node.label,
                        tuple(data[find(child)] for child in node.children),
                        self.ctx)

    def _refine(self, cid: int, nodes: Iterable[ENode]) -> None:
        """Fold the makes of ``nodes`` into class ``cid``'s data; records
        the class as changed when its data got stronger."""
        old = current = self._data[cid]
        for node in nodes:
            current = current.refine(self._make(node))
        if current == old:
            return
        if current.card.lo > old.card.lo:
            raises = self._raises[cid] = self._raises.get(cid, 0) + 1
            if raises > MAX_LO_RAISES:
                current = dataclasses.replace(
                    current, card=Interval(old.card.lo, current.card.hi))
                if current == old:
                    return
        self._data[cid] = current
        self._changed.append(cid)


# ---------------------------------------------------------------------------
# The guarded e-rules
# ---------------------------------------------------------------------------

def _fired(name: str) -> int:
    counter(f"analysis.guarded.{name}").inc()
    return 1


def guarded_rules(ctx: AnalysisContext = EMPTY_CONTEXT
                  ) -> Tuple[ERule, ...]:
    """The property-guarded rule suite, closed over an analysis context.

    The rules that read class facts share the analysis attached to the
    e-graph — built on their first application, then kept current by
    the e-graph's own events for the rest of the run — check their
    licence, and only then union.  Their data changes bump class
    versions, so the scheduler re-runs them only when a fact they read
    may have changed.
    """

    def analysis(eg: EGraph) -> EClassAnalysis:
        attached = eg.analysis
        if attached is None or attached.ctx != ctx:
            attached = EClassAnalysis(eg, ctx)
        return attached

    def distinct_elim(eg: EGraph, cid: int, node: ENode) -> int:
        child = eg.find(node.children[0])
        if eg.find(cid) == child:
            return 0
        if not analysis(eg).props(child).set_valued:
            return 0
        eg.union(cid, child, Reason("distinct_elim_under_key", node))
        return _fired("distinct_elim_under_key")

    def where_taut(eg: EGraph, cid: int, node: ENode) -> int:
        child = eg.find(node.children[0])
        if eg.find(cid) == child:
            return 0
        if pred_sat(node.label[0], ctx) is not Sat.ALWAYS:
            return 0
        eg.union(cid, child, Reason("where_taut_elim", node))
        return _fired("where_taut_elim")

    def where_contra(eg: EGraph, cid: int, node: ENode) -> int:
        pred = node.label[0]
        if isinstance(pred, ast.PredFalse):
            return 0  # already the canonical empty filter
        if pred_sat(pred, ctx) is not Sat.NEVER:
            return 0
        child = eg.find(node.children[0])
        empty = eg.add(ast.Where, (ast.PredFalse(),), (child,),
                       reason=Reason("where_contra_to_empty", node))
        eg.union(cid, empty, Reason("where_contra_to_empty", node))
        return _fired("where_contra_to_empty")

    def except_empty(eg: EGraph, cid: int, node: ENode) -> int:
        left, right = (eg.find(node.children[0]),
                       eg.find(node.children[1]))
        if eg.find(cid) == left:
            return 0
        if not analysis(eg).props(right).empty:
            return 0
        eg.union(cid, left, Reason("except_empty_elim", node))
        return _fired("except_empty_elim")

    return (
        ERule("distinct_elim_under_key", (ast.Distinct,), distinct_elim),
        ERule("where_taut_elim", (ast.Where,), where_taut),
        ERule("where_contra_to_empty", (ast.Where,), where_contra),
        ERule("except_empty_elim", (ast.Except,), except_empty),
    )

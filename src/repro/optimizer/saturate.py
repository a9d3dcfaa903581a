"""Equality-saturation scheduler over the plan e-graph.

Applies the certified rewrite suite at *every e-class simultaneously*
instead of one term at a time: each rule is written over e-nodes
(children are e-class ids, so one application covers every plan sharing
that subtree), matches are enumerated from a per-iteration index keyed
on the root constructor (a rule matching ``Where`` never scans
``Product`` nodes), and the e-graph is rebuilt once per iteration in
egg's deferred style.

Matching is semi-naive.  What a rule can do at an e-node is a function
of the node and of its child classes: their members, their members'
children, and their analysis data.  The e-graph versions every class
(:meth:`~repro.optimizer.egraph.EGraph.stamp`), and the scheduler
remembers, per ``(rule, e-node)``, the children's stamp from just before
the rule last ran there.  While that stamp is unchanged the rule is
skipped: a re-run could only re-add nodes that exist and re-union
classes that are already one.  So each iteration pays only for e-nodes
whose inputs changed, and the counts in :class:`SaturationStats` count
those applications, not repeats that change nothing.

Saturation runs until a fixpoint (no new nodes, no new unions — the rule
set is then *saturated* and the e-graph provably contains every plan the
rules can reach), or until the iteration / node budgets cut it off.  The
budgets are the search-space-expansion discipline the CHC literature uses
to keep saturation tractable (PAPERS.md: dependence-disjoint expansions):
an e-node budget bounds memory, an iteration budget bounds rule depth.

Soundness story: every union performed here is an instance of a rule
the engine has verified, so any plan extracted from the root e-class is
equivalent to the input — and the planner still re-certifies the winner
end to end through the verification pipeline.

The match side of the selection rules — conjunct flattening,
projection-path analysis, pushability — is a pure function of the
predicate, so it is computed once per interned predicate and memoized
on the node (see :func:`_pred_features`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core import ast
from ..obs.logs import get_logger
from ..obs.metrics import counter, histogram
from ..obs.trace import span
from .egraph import EGraph, ENode, Reason
from .rewriter import (
    flatten_conjuncts,
    predicate_paths,
    rewrite_predicate_paths,
)

_log = get_logger("optimizer.saturate")

#: e-node growth per iteration — the shape of the search-space expansion.
_ENODE_GROWTH = histogram("saturate.enodes_per_iteration.growth",
                          buckets=(0, 1, 2, 5, 10, 25, 50, 100, 250,
                                   500, 1000, 2500, 5000))
_ITERATIONS = counter("saturate.iterations_total")
_SECONDS = histogram("saturate.seconds")

__all__ = ["ERule", "ERULES", "SaturationBudget", "SaturationStats",
           "saturate"]


@dataclass(frozen=True)
class SaturationBudget:
    """Stop conditions for the saturation loop.

    ``max_nodes`` bounds the *total* e-nodes ever admitted (the planner
    sets it from ``optimize(max_plans=...)``); ``max_iterations``
    bounds rewrite depth — every iteration applies each rule at every
    class, so ``n`` iterations reach rule chains of length ``n``.
    """

    max_iterations: int = 12
    max_nodes: int = 5000

    def __post_init__(self) -> None:
        if self.max_iterations < 1 or self.max_nodes < 1:
            raise ValueError("saturation budgets must be positive, got "
                             f"{self!r}")


@dataclass
class SaturationStats:
    """What the saturation loop did and why it stopped.

    ``matches`` and ``rules_fired`` count fires of rules that actually
    ran — on e-nodes whose child classes changed since the rule last ran
    there (see the module docstring) — not skipped repeats.
    """

    iterations: int = 0
    matches: int = 0
    unions: int = 0
    congruences: int = 0
    nodes: int = 0
    classes: int = 0
    saturated: bool = False
    stop_reason: str = ""
    rules_fired: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class ERule:
    """A rewrite over e-nodes: fires on every e-node whose root
    constructor is in ``ops``; ``apply`` performs its adds/unions
    directly on the e-graph (recording provenance) and returns how many
    times it fired.

    What ``apply`` does may depend only on the e-node and its child
    classes — their ids, members, members' children and analysis data —
    since the scheduler skips it while those are unchanged."""

    name: str
    ops: Tuple[type, ...]
    apply: Callable[[EGraph, int, ENode], int]


# ---------------------------------------------------------------------------
# Match support: predicate → int feature vector
# ---------------------------------------------------------------------------

def _pred_features(pred: ast.Predicate) -> Tuple[int, int, int]:
    """Match-side analysis of one predicate as a flat int vector:
    ``(has_duplicate_conjuncts, pushable_left, pushable_right)``.

    Must agree exactly with the checks inside :func:`_dedup_conjuncts`
    and :func:`_push_where` — the rules consult the vector memoized on
    the predicate (``_hc_mfeat``) as a fast path, so any disagreement
    would change which rewrites fire.
    """
    conjuncts = flatten_conjuncts(pred)
    dup = int(len(dict.fromkeys(conjuncts)) != len(conjuncts))
    paths = predicate_paths(pred)
    if paths is None:
        return (dup, 0, 0)
    left = int(all(p[:2] == ("R", "L") or p[:1] == ("L",) for p in paths))
    right = int(all(p[:2] == ("R", "R") or p[:1] == ("L",) for p in paths))
    return (dup, left, right)


# ---------------------------------------------------------------------------
# The rewrite suite over e-nodes
# ---------------------------------------------------------------------------

def _fire(eg: EGraph, cid: int, new_cid: int, rule: str,
          src: ENode) -> int:
    eg.union(cid, new_cid, Reason(rule, src))
    return 1


def _split_where(eg: EGraph, cid: int, node: ENode) -> int:
    """Where(q, b1 AND b2) → Where(Where(q, b1), b2)  [rule sel_split]."""
    pred = node.label[0]
    if not isinstance(pred, ast.PredAnd):
        return 0
    qc = eg.find(node.children[0])
    fired = 0
    for b_inner, b_outer, name in (
            (pred.left, pred.right, "sel_split"),
            (pred.right, pred.left, "sel_split+sel_comm")):
        inner = eg.add(ast.Where, (b_inner,), (qc,),
                       reason=Reason(name, node))
        outer = eg.add(ast.Where, (b_outer,), (inner,),
                       reason=Reason(name, node))
        fired += _fire(eg, cid, outer, name, node)
    return fired


def _merge_where(eg: EGraph, cid: int, node: ENode) -> int:
    """Where(Where(q, b1), b2) → Where(q, b1 AND b2)  [sel_split⁻¹].

    The inner Where is an *e-node of the child class*, so the merge fires
    for every filtered shape the child class is known equal to.

    The merged conjunction is deduplicated at creation (sel_split⁻¹
    composed with sel_conj_dedup, both verified rules): without this the
    split/merge pair regenerates ever-larger ``b ∧ b ∧ …`` predicates
    and the system never saturates — the e-graph analogue of keeping AC
    operators canonical, cf. the kernel's sorted ``NProduct`` factors.
    """
    outer_pred = node.label[0]
    qc = eg.find(node.children[0])
    fired = 0
    for inner in list(eg.nodes_of(qc)):
        if inner.op is not ast.Where:
            continue
        conjuncts = list(dict.fromkeys(
            flatten_conjuncts(inner.label[0])
            + flatten_conjuncts(outer_pred)))
        merged = eg.add(
            ast.Where, (ast.and_(*conjuncts),),
            (eg.find(inner.children[0]),),
            reason=Reason("sel_split⁻¹", node))
        fired += _fire(eg, cid, merged, "sel_split⁻¹", node)
    return fired


def _push_where(eg: EGraph, cid: int, node: ENode) -> int:
    """Selection pushdown through Product / distribution over UnionAll."""
    pred = node.label[0]
    qc = eg.find(node.children[0])
    # The match-side analysis is a pure function of the predicate, so it
    # is memoized on the interned node across iterations and calls.
    feat = pred.__dict__.get("_hc_mfeat")
    if feat is None:
        feat = _pred_features(pred)
        object.__setattr__(pred, "_hc_mfeat", feat)
    push_left, push_right = bool(feat[1]), bool(feat[2])
    fired = 0
    for child in list(eg.nodes_of(qc)):
        if child.op is ast.Product and (push_left or push_right):
            left, right = (eg.find(child.children[0]),
                           eg.find(child.children[1]))
            if push_left:
                pushed = rewrite_predicate_paths(pred, ("R", "L"), ("R",))
                filtered = eg.add(ast.Where, (pushed,), (left,),
                                  reason=Reason("sel_push_left", node))
                product = eg.add(ast.Product, (), (filtered, right),
                                 reason=Reason("sel_push_left", node))
                fired += _fire(eg, cid, product, "sel_push_left", node)
            if push_right:
                pushed = rewrite_predicate_paths(pred, ("R", "R"), ("R",))
                filtered = eg.add(ast.Where, (pushed,), (right,),
                                  reason=Reason("sel_push_right", node))
                product = eg.add(ast.Product, (), (left, filtered),
                                 reason=Reason("sel_push_right", node))
                fired += _fire(eg, cid, product, "sel_push_right", node)
        elif child.op is ast.UnionAll:
            left, right = (eg.find(child.children[0]),
                           eg.find(child.children[1]))
            fl = eg.add(ast.Where, (pred,), (left,),
                        reason=Reason("sel_union_distr", node))
            fr = eg.add(ast.Where, (pred,), (right,),
                        reason=Reason("sel_union_distr", node))
            union = eg.add(ast.UnionAll, (), (fl, fr),
                           reason=Reason("sel_union_distr", node))
            fired += _fire(eg, cid, union, "sel_union_distr", node)
    return fired


def _dedup_conjuncts(eg: EGraph, cid: int, node: ENode) -> int:
    """σ_{b ∧ b}(q) → σ_b(q)  [conjunct idempotence]."""
    pred = node.label[0]
    feat = pred.__dict__.get("_hc_mfeat")
    if feat is not None and not feat[0]:
        return 0
    conjuncts = flatten_conjuncts(pred)
    unique = list(dict.fromkeys(conjuncts))
    if len(unique) == len(conjuncts):
        return 0
    deduped = eg.add(ast.Where, (ast.and_(*unique),),
                     (eg.find(node.children[0]),),
                     reason=Reason("sel_conj_dedup", node))
    return _fire(eg, cid, deduped, "sel_conj_dedup", node)


def _collapse_distinct(eg: EGraph, cid: int, node: ENode) -> int:
    """DISTINCT DISTINCT q → DISTINCT q  [rule distinct_idem].

    A union-only rule: the child class already denotes ``DISTINCT q``
    (it contains a Distinct e-node), and ``DISTINCT`` is idempotent, so
    the outer class *is* the child class.  Provenance lands on the
    surviving inner node.
    """
    qc = eg.find(node.children[0])
    if eg.find(cid) == qc:
        return 0
    for inner in eg.nodes_of(qc):
        if inner.op is ast.Distinct:
            eg.reasons.setdefault(inner, Reason("distinct_idem", node))
            eg.union(cid, qc, Reason("distinct_idem", node))
            return 1
    return 0


#: The e-rule suite — one entry per transformation family (split, merge,
#: pushdown through products and unions, DISTINCT collapse, conjunct
#: dedup), indexed by root constructor.  Dedup runs first so a
#: deduplicated filter is attributed to ``sel_conj_dedup`` rather than
#: adopted as an anonymous split piece.
ERULES: Tuple[ERule, ...] = (
    ERule("sel_conj_dedup", (ast.Where,), _dedup_conjuncts),
    ERule("sel_split", (ast.Where,), _split_where),
    ERule("sel_split⁻¹", (ast.Where,), _merge_where),
    ERule("sel_push", (ast.Where,), _push_where),
    ERule("distinct_idem", (ast.Distinct,), _collapse_distinct),
)


def _rule_index(rules: Tuple[ERule, ...]) -> Dict[type, List[ERule]]:
    """Root-constructor match index: op → the rules that can fire there."""
    index: Dict[type, List[ERule]] = {}
    for rule in rules:
        for op in rule.ops:
            index.setdefault(op, []).append(rule)
    return index


def saturate(eg: EGraph, rules: Tuple[ERule, ...] = ERULES,
             budget: Optional[SaturationBudget] = None) -> SaturationStats:
    """Run the rule suite to fixpoint or budget exhaustion.

    Each iteration snapshots the current ``(class, e-node)`` population,
    fires every matching rule on it whose inputs changed since it last
    ran there (writes go straight into the e-graph), then rebuilds
    congruence once.  The loop stops when an iteration changes nothing
    (``saturated=True``), when the node budget is spent, or when the
    iteration budget runs out.
    """
    budget = budget if budget is not None else SaturationBudget()
    index = _rule_index(rules)
    #: e-node → per rule of its op, the children's stamp when that rule
    #: last ran there (None: never).
    last_run: Dict[ENode, List[Optional[tuple]]] = {}
    stats = SaturationStats()
    with span("optimizer.saturate") as root:
        for _ in range(budget.max_iterations):
            with span("optimizer.saturate.iteration",
                      iteration=stats.iterations) as it_span:
                snapshot = [(cid, node) for cid, nodes in eg.classes()
                            for node in list(nodes)]
                nodes_before, unions_before = eg.nodes_added, eg.unions
                out_of_nodes = False
                for cid, node in snapshot:
                    if eg.nodes_added >= budget.max_nodes:
                        out_of_nodes = True
                        break
                    node_rules = index.get(node.op)
                    if node_rules is None:
                        continue
                    ran = last_run.get(node)
                    if ran is None:
                        ran = last_run[node] = [None] * len(node_rules)
                    for i, rule in enumerate(node_rules):
                        # Mid-iteration only a union can move a find or
                        # a version, so the stamp is re-read after one.
                        if i == 0 or eg.unions != unions_seen:
                            stamp = eg.stamp(node.children)
                            unions_seen = eg.unions
                        if ran[i] == stamp:
                            continue  # same inputs: nothing new to add
                        ran[i] = stamp
                        fired = rule.apply(eg, eg.find(cid), node)
                        if fired:
                            stats.matches += fired
                            stats.rules_fired[rule.name] = \
                                stats.rules_fired.get(rule.name, 0) + fired
                stats.congruences += eg.rebuild()
                stats.iterations += 1
                growth = eg.nodes_added - nodes_before
                it_span.attrs["enode_growth"] = growth
                it_span.attrs["unions"] = eg.unions - unions_before
                _ENODE_GROWTH.observe(growth)
                _ITERATIONS.inc()
            if out_of_nodes or eg.nodes_added >= budget.max_nodes:
                stats.stop_reason = (f"node budget exhausted "
                                     f"({budget.max_nodes} e-nodes)")
                break
            if eg.nodes_added == nodes_before \
                    and eg.unions == unions_before:
                stats.saturated = True
                stats.stop_reason = "saturated (fixpoint)"
                break
        else:
            stats.stop_reason = (f"iteration budget exhausted "
                                 f"({budget.max_iterations} iterations)")
        stats.unions = eg.unions
        stats.nodes = eg.num_nodes
        stats.classes = eg.num_classes
        root.attrs["iterations"] = stats.iterations
        root.attrs["stop_reason"] = stats.stop_reason
    _SECONDS.observe(root.duration)
    # Flushed once per run rather than per fire: the hot loop stays
    # lock-free, the registry still sees exact per-rule totals.
    for name, fired in stats.rules_fired.items():
        counter(f"saturate.rules_fired.{name}").inc(fired)
    _log.debug("saturation: %s after %d iteration(s), %d node(s)",
               stats.stop_reason, stats.iterations, stats.nodes)
    return stats

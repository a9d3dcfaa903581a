"""Cost-based extraction from the plan e-graph, with rule provenance.

After saturation the root e-class represents every plan the certified
rules can reach; extraction picks the cheapest concrete tree under the
cost model of :mod:`repro.optimizer.cost`, evaluated compositionally per
e-node through :func:`~repro.optimizer.cost.compose` — exactly the tree
estimator, so the extracted plan's reported cost *is* its ``plan_cost``.

Extraction is a **Pareto dynamic program**, not a per-class greedy pick:
an operator's cost depends on its children's *cardinalities* as well as
their costs (a smaller-but-pricier input can make the parent cheaper —
e.g. a tighter filter below a product), so each e-class keeps a small
frontier of candidates undominated in ``(cost, cardinality, size)``
rather than a single winner.  ``size`` is the syntactic node count
(:func:`repro.optimizer.cost.plan_size`), the tie-break among equal-cost
plans, so a simplification the cost model is blind to still wins.

The frontier table is iterated to a fixpoint, which handles the cyclic
e-classes equality saturation creates routinely (``σ_b ∘ σ_b`` loops):
every candidate stores concrete references to the child candidates it
was built from, and since size strictly increases through composition,
rebuilding the winning tree always terminates.

The module also reconstructs the **winning rule chain** from the
e-graph's provenance records (each rewrite-created e-node remembers the
rule and source node that produced it) and counts the **distinct plans**
an e-graph represents — the honest "plans explored" figure the planner
reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _cartesian
from typing import Dict, List, Optional, Tuple

from ..core import ast
from ..obs.metrics import counter, histogram
from ..obs.trace import span
from .cost import Estimate, TableStats, compose, plan_size
from .egraph import EGraph, ENode, Reason

_EXTRACT_SECONDS = histogram("extract.seconds")
_EXTRACT_SWEEPS = histogram("extract.sweeps",
                            buckets=(1, 2, 3, 5, 8, 13, 21, 50, 100, 200))

__all__ = ["Candidate", "ExtractionResult", "PLAN_COUNT_LIMIT",
           "count_plans", "extract_best", "rule_chain"]

#: Default clamp for :func:`count_plans` — e-graphs with cyclic classes
#: represent unboundedly many syntactic plans.  A count equal to the
#: clamp must be rendered as "≥ clamp", never as an exact figure.
PLAN_COUNT_LIMIT = 10 ** 6

#: Frontier width per e-class.  Candidates are kept sorted by cost, so a
#: clamp only ever drops the most expensive undominated shapes; with the
#: textbook cost model frontiers stay far below this in practice.
FRONTIER_WIDTH = 8

#: Fixpoint sweep cap — a safety net against pathological cyclic
#: improvement chains, not a budget (real workloads converge in a few
#: sweeps ≈ the plan depth).
MAX_SWEEPS = 200


@dataclass(frozen=True)
class Candidate:
    """One concrete extractable tree for an e-class.

    Stores the chosen e-node and direct references to the child
    candidates it composes, so the tree (and its cost) can be rebuilt
    exactly even after the child class's frontier has moved on.
    """

    cost: float
    cardinality: float
    size: int
    node: ENode
    children: Tuple["Candidate", ...]

    @property
    def estimate(self) -> Estimate:
        return Estimate(self.cardinality, self.cost)

    @property
    def key(self) -> Tuple[float, float, int]:
        return (self.cost, self.cardinality, self.size)

    def build(self, eg: EGraph) -> ast.Query:
        """Materialize the candidate as an AST tree (size strictly
        decreases into children, so this terminates on cyclic graphs)."""
        return eg.enode_term_shallow(
            self.node, tuple(c.build(eg) for c in self.children))


@dataclass
class ExtractionResult:
    """The extracted plan plus the evidence that backs it."""

    plan: ast.Query
    estimate: Estimate
    size: int
    #: rule chain reconstructed from e-node provenance (first applied
    #: rule first); empty when the winner is the original plan.
    chain: Tuple[str, ...]
    #: the winning candidate (full choice tree, for diagnostics).
    winner: Candidate


class ExtractionError(ValueError):
    """Raised when the root class has no finite term (cannot happen for
    classes reachable from an inserted term; kept as a guard)."""


def _label_size(node: ENode) -> int:
    """Syntactic size contributed by the e-node itself: one for the query
    constructor plus the label's predicate/projection subtrees (which may
    embed aggregate subqueries — counted, exactly like the tree metric)."""
    size = 1
    for value in node.label:
        if isinstance(value, (ast.Query, ast.Predicate, ast.Expression,
                              ast.Projection)):
            size += plan_size(value)
    return size


def _prune(candidates: List[Candidate]) -> List[Candidate]:
    """Pareto-prune on (cost, cardinality, size), cheapest first."""
    candidates.sort(key=lambda c: c.key)
    kept: List[Candidate] = []
    for cand in candidates:
        dominated = any(
            k.cost <= cand.cost and k.cardinality <= cand.cardinality
            and k.size <= cand.size for k in kept)
        if not dominated:
            kept.append(cand)
            if len(kept) >= FRONTIER_WIDTH:
                break
    return kept


def extract_best(eg: EGraph, root: int,
                 stats: TableStats) -> ExtractionResult:
    """Pick the cheapest tree representable from ``root``."""
    root = eg.find(root)
    classes = list(eg.classes())
    label_sizes: Dict[ENode, int] = {}
    frontiers: Dict[int, List[Candidate]] = {cid: [] for cid, _ in classes}
    # Incremental fixpoint: per-node child classes and a reverse
    # dependency index are resolved once; each sweep then touches only
    # the *dirty* classes (those whose own or child frontiers moved last
    # sweep), and per e-node the generated candidate set is cached
    # against the child frontier versions it was built from.  Converged
    # regions of the e-graph cost nothing per sweep instead of re-running
    # the candidate cross-product.
    node_children: Dict[int, List[Tuple[ENode, Tuple[int, ...]]]] = {}
    dependents: Dict[int, set] = {}
    class_deps: Dict[int, Tuple[int, ...]] = {}
    for cid, nodes in classes:
        infos = []
        deps = set()
        for node in nodes:
            cids = tuple(eg.find(c) for c in node.children)
            infos.append((node, cids))
            deps.update(cids)
            for c in cids:
                dependents.setdefault(c, set()).add(cid)
        node_children[cid] = infos
        class_deps[cid] = tuple(deps)
    # Bottom-up (children-first) class order: on the acyclic portion of
    # the e-graph the frontier DP then converges in a single sweep
    # instead of one sweep per plan depth.  Iterative postorder; cycle
    # edges are simply skipped (the dirty-set sweeps converge them).
    order: List[int] = []
    mark: Dict[int, int] = {}
    for start, _ in classes:
        if start in mark:
            continue
        stack: List[Tuple[int, int]] = [(start, 0)]
        while stack:
            cid, idx = stack.pop()
            if idx == 0:
                if cid in mark:
                    continue
                mark[cid] = 1
            deps = class_deps[cid]
            if idx < len(deps):
                stack.append((cid, idx + 1))
                dep = deps[idx]
                if dep not in mark and dep in class_deps:
                    stack.append((dep, 0))
            else:
                order.append(cid)
    versions: Dict[int, int] = {cid: 0 for cid, _ in classes}
    node_cache: Dict[ENode, Tuple[Tuple[int, ...], List[Candidate]]] = {}
    dirty = {cid for cid, _ in classes}
    with span("optimizer.extract", classes=len(classes)) as sp:
        sweeps = 0
        for _ in range(MAX_SWEEPS):
            if not dirty:
                break
            sweeps += 1
            now, dirty = dirty, set()
            for cid in order:
                if cid not in now:
                    continue
                candidates = list(frontiers[cid])
                for node, cids in node_children[cid]:
                    vkey = tuple(versions.get(c, -1) for c in cids)
                    cached = node_cache.get(node)
                    if cached is not None and cached[0] == vkey:
                        candidates.extend(cached[1])
                        continue
                    child_fronts = [frontiers.get(c, ()) for c in cids]
                    if any(not front for front in child_fronts):
                        node_cache[node] = (vkey, [])
                        continue
                    own = label_sizes.get(node)
                    if own is None:
                        own = label_sizes.setdefault(node,
                                                     _label_size(node))
                    generated = []
                    for combo in _cartesian(*child_fronts):
                        est = compose(node.op, node.label,
                                      tuple(c.estimate for c in combo),
                                      stats)
                        generated.append(Candidate(
                            cost=est.cost, cardinality=est.cardinality,
                            size=own + sum(c.size for c in combo),
                            node=node, children=combo))
                    node_cache[node] = (vkey, generated)
                    candidates.extend(generated)
                pruned = _prune(candidates)
                if [c.key for c in pruned] \
                        != [c.key for c in frontiers[cid]]:
                    frontiers[cid] = pruned
                    versions[cid] += 1
                    dirty.update(dependents.get(cid, ()))
        sp.attrs["sweeps"] = sweeps
        if not frontiers.get(root):
            counter("extract.failures_total").inc()
            raise ExtractionError(f"no finite plan extractable from "
                                  f"e-class c{root}")
        winner = min(frontiers[root], key=lambda c: (c.cost, c.size))
        result = ExtractionResult(
            plan=winner.build(eg), estimate=winner.estimate,
            size=winner.size, chain=rule_chain(eg, winner), winner=winner)
    _EXTRACT_SECONDS.observe(sp.duration)
    _EXTRACT_SWEEPS.observe(sweeps)
    return result


# ---------------------------------------------------------------------------
# Provenance → rule chain
# ---------------------------------------------------------------------------

def rule_chain(eg: EGraph, winner: Candidate) -> Tuple[str, ...]:
    """The rules that produced the extracted tree, oldest first.

    Walks the chosen e-node of every position in the winning tree; each
    rewrite-created node carries ``(rule, source node)``, and following
    the source links yields that node's derivation history.  Union-only
    rewrites (licence merges that create no new node — the property-
    guarded rules are the main source) leave their provenance in the
    union log instead, so a chosen node without a creation record falls
    back to a logged union on its class, provided the union's source is
    a *different* node — that union is what licensed standing in for the
    source shape.  The result is a *witness chain*, not necessarily the
    only one — e-graphs merge derivations — but every name in it is a
    rule the saturation engine actually fired on the winning plan's
    ancestry.
    """
    chain: List[str] = []
    seen_nodes: set = set()
    union_reasons: Dict[int, List[Reason]] = {}
    for merged, _loser, reason in eg.union_log:
        union_reasons.setdefault(eg.find(merged), []).append(reason)

    def union_reason(node: ENode) -> Optional[Reason]:
        cid = eg.class_of(node)
        if cid is None:
            return None
        for reason in union_reasons.get(cid, ()):
            if eg.canonicalize(reason.source) != node:
                return reason
        return None

    def node_history(node: Optional[ENode]) -> List[str]:
        out: List[str] = []
        while node is not None:
            node = eg.canonicalize(node)  # reasons are keyed canonically
            if node in seen_nodes:
                break
            seen_nodes.add(node)
            reason = eg.reasons.get(node) or union_reason(node)
            if reason is None:
                break
            out.append(reason.rule)
            node = reason.source
        return list(reversed(out))

    def visit(cand: Candidate) -> None:
        for child in cand.children:
            visit(child)
        chain.extend(node_history(cand.node))

    visit(winner)
    return tuple(dict.fromkeys(chain))


# ---------------------------------------------------------------------------
# Distinct-plan counting
# ---------------------------------------------------------------------------

def count_plans(eg: EGraph, root: int,
                limit: int = PLAN_COUNT_LIMIT) -> int:
    """How many distinct concrete plans ``root`` represents (clamped).

    Exact while below ``limit``: the hashcons guarantees every concrete
    tree is representable in exactly one class and by exactly one e-node,
    so the count is the standard product-sum recurrence, iterated to a
    fixpoint with saturation at ``limit`` so cyclic classes (infinitely
    many syntactic plans) terminate.
    """
    classes = list(eg.classes())
    counts: Dict[int, int] = {}

    def sweep(pin_growth: bool) -> bool:
        changed = False
        for cid, nodes in classes:
            total = 0
            for node in nodes:
                prod = 1
                for child in node.children:
                    prod *= counts.get(eg.find(child), 0)
                    if prod >= limit:
                        prod = limit
                        break
                total += prod
                if total >= limit:
                    total = limit
                    break
            if total != counts.get(cid, 0):
                # A class still growing after #classes acyclic-depth
                # sweeps sits on a cycle: its true count is unbounded,
                # so pin it to the clamp instead of crawling there one
                # increment per sweep.
                counts[cid] = limit if pin_growth else total
                changed = True
        return changed

    for _ in range(len(classes) + 1):
        if not sweep(pin_growth=False):
            break
    else:
        while sweep(pin_growth=True):
            pass
    return counts.get(eg.find(root), 0)

"""Breadth-first reference planner over term-at-a-time rewrites.

The planner ships one search, equality saturation.  This module keeps the
Exodus/Volcano-style search it replaced (the lineage the paper reviews in
Sec. 6.1) as test code: the same certified transformation families,
applied to one plan at a time at every subquery position, explored
breadth-first under a ``max_plans`` cap.  Tests check saturation against
it (never costlier, more distinct plans at equal budget) and re-prove
every single-step rewrite it emits through the verification pipeline.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Set, Tuple

from repro.core import ast
from repro.optimizer import (
    TableStats,
    flatten_conjuncts,
    plan_cost,
    plan_size,
    predicate_paths,
    rewrite_predicate_paths,
)
from repro.solver import default_pipeline

#: A rewrite candidate: the transformed query and the rule's name.
Candidate = Tuple[ast.Query, str]


# ---------------------------------------------------------------------------
# Transformations (each an instance of a verified rule)
# ---------------------------------------------------------------------------

def _split_where(query: ast.Query) -> Iterator[Candidate]:
    """Where(q, b1 AND b2) → Where(Where(q, b1), b2)  [rule sel_split]."""
    if isinstance(query, ast.Where) and isinstance(query.predicate,
                                                   ast.PredAnd):
        yield (ast.Where(ast.Where(query.query, query.predicate.left),
                         query.predicate.right), "sel_split")
        # The commuted order (an instance of sel_comm) lets either conjunct
        # reach the operator below.
        yield (ast.Where(ast.Where(query.query, query.predicate.right),
                         query.predicate.left), "sel_split+sel_comm")


def _merge_where(query: ast.Query) -> Iterator[Candidate]:
    """Where(Where(q, b1), b2) → Where(q, b1 AND b2)  [sel_split, reversed]."""
    if isinstance(query, ast.Where) and isinstance(query.query, ast.Where):
        inner = query.query
        yield (ast.Where(inner.query,
                         ast.PredAnd(inner.predicate, query.predicate)),
               "sel_split⁻¹")


def _push_where_into_product(query: ast.Query) -> Iterator[Candidate]:
    """σ_b(L × R) → σ'_b(L) × R when b touches only L  [selection pushdown].

    The predicate lives in context ``node Γ (node σL σR)``; references into
    the left operand start with the path R.L.  Pushing rewrites R.L→R.
    Outer-context references (prefix L) also survive unchanged.
    """
    if not (isinstance(query, ast.Where)
            and isinstance(query.query, ast.Product)):
        return
    paths = predicate_paths(query.predicate)
    if paths is None:
        return
    product = query.query
    if all(p[:2] == ("R", "L") or p[:1] == ("L",) for p in paths):
        pushed = rewrite_predicate_paths(query.predicate, ("R", "L"), ("R",))
        yield (ast.Product(ast.Where(product.left, pushed), product.right),
               "sel_push_left")
    if all(p[:2] == ("R", "R") or p[:1] == ("L",) for p in paths):
        pushed = rewrite_predicate_paths(query.predicate, ("R", "R"), ("R",))
        yield (ast.Product(product.left, ast.Where(product.right, pushed)),
               "sel_push_right")


def _push_where_below_union(query: ast.Query) -> Iterator[Candidate]:
    """σ_b(A ∪ B) → σ_b(A) ∪ σ_b(B)  [rule sel_union_distr, Figure 1]."""
    if isinstance(query, ast.Where) and isinstance(query.query, ast.UnionAll):
        union = query.query
        yield (ast.UnionAll(ast.Where(union.left, query.predicate),
                            ast.Where(union.right, query.predicate)),
               "sel_union_distr")


def _collapse_distinct(query: ast.Query) -> Iterator[Candidate]:
    """DISTINCT DISTINCT q → DISTINCT q  [rule distinct_idem]."""
    if isinstance(query, ast.Distinct) and isinstance(query.query,
                                                      ast.Distinct):
        yield (query.query, "distinct_idem")


def _dedup_conjuncts(query: ast.Query) -> Iterator[Candidate]:
    """σ_{b ∧ b}(q) → σ_b(q)  [conjunct idempotence: b ∧ b ⇔ b]."""
    if not isinstance(query, ast.Where):
        return
    conjuncts = flatten_conjuncts(query.predicate)
    unique = list(dict.fromkeys(conjuncts))
    if len(unique) < len(conjuncts):
        yield (ast.Where(query.query, ast.and_(*unique)),
               "sel_conj_dedup")


#: The transformation suite, in application order.
TRANSFORMATIONS = (
    _split_where,
    _merge_where,
    _push_where_into_product,
    _push_where_below_union,
    _collapse_distinct,
    _dedup_conjuncts,
)


@lru_cache(maxsize=None)
def rewrites(query: ast.Query) -> Tuple[Candidate, ...]:
    """All single-step rewrites of ``query``, applied at every position.

    Memoized per interned node: the BFS frontier revisits the same
    (sub)plans constantly, and a plan's one-step neighbourhood is a pure
    function of the plan.
    """
    out: List[Candidate] = []
    for transform in TRANSFORMATIONS:
        out.extend(transform(query))
    for field_name, child in _child_queries(query):
        for rewritten_child, rule in rewrites(child):
            out.append((_replace_child(query, field_name, rewritten_child),
                        rule))
    return tuple(out)


def _child_queries(query: ast.Query):
    if isinstance(query, (ast.Select, ast.Where, ast.Distinct)):
        yield "query", query.query
    elif isinstance(query, (ast.Product, ast.UnionAll, ast.Except)):
        yield "left", query.left
        yield "right", query.right


def _replace_child(query: ast.Query, field_name: str,
                   child: ast.Query) -> ast.Query:
    if isinstance(query, ast.Select):
        return ast.Select(query.projection, child)
    if isinstance(query, ast.Where):
        return ast.Where(child, query.predicate)
    if isinstance(query, ast.Distinct):
        return ast.Distinct(child)
    if isinstance(query, (ast.Product, ast.UnionAll, ast.Except)):
        kind = type(query)
        return kind(child, query.right) if field_name == "left" \
            else kind(query.left, child)
    raise TypeError(f"cannot rebuild query node {query!r}")


# ---------------------------------------------------------------------------
# Pipeline-backed re-certification
# ---------------------------------------------------------------------------

@dataclass
class CertifiedCandidate:
    """A rewrite candidate together with its verification verdict."""

    query: ast.Query
    rule: str
    verdict: object

    @property
    def certified(self) -> bool:
        return self.verdict.proved


def certified_rewrites(query: ast.Query,
                       pipeline=None) -> List[CertifiedCandidate]:
    """The single-step rewrites of ``query`` whose re-proof succeeded."""
    if pipeline is None:
        pipeline = default_pipeline()
    out: List[CertifiedCandidate] = []
    for candidate, rule in rewrites(query):
        verdict = pipeline.check(query, candidate, prove_only=True)
        if verdict.proved:
            out.append(CertifiedCandidate(query=candidate, rule=rule,
                                          verdict=verdict))
    return out


# ---------------------------------------------------------------------------
# Breadth-first search
# ---------------------------------------------------------------------------

@dataclass
class BFSResult:
    """The cheapest plan BFS found and how many plans it enumerated."""

    best_plan: ast.Query
    best_cost: float
    original_cost: float
    plans_explored: int
    applied_rules: Tuple[str, ...]


def optimize_bfs(query: ast.Query, stats: TableStats,
                 max_plans: int = 400) -> BFSResult:
    """Breadth-first plan search capped at ``max_plans`` distinct plans."""
    origin_cost = plan_cost(query, stats)
    seen: Set[ast.Query] = {query}
    frontier: List[Tuple[ast.Query, Tuple[str, ...]]] = [(query, ())]
    best_plan, best_cost, best_rules = query, origin_cost, ()
    best_size = plan_size(query)
    explored = 1

    while frontier and explored < max_plans:
        next_frontier: List[Tuple[ast.Query, Tuple[str, ...]]] = []
        for plan, rules in frontier:
            for candidate, rule in rewrites(plan):
                if candidate in seen:
                    continue
                seen.add(candidate)
                explored += 1
                cost = plan_cost(candidate, stats)
                chain = rules + (rule,)
                size = plan_size(candidate)
                # Equal-cost plans tie-break on syntactic size, so a
                # simplification the cost model is blind to (dedup'd
                # conjuncts, say) still wins over the bloated original.
                if cost < best_cost or (cost == best_cost
                                        and size < best_size):
                    best_plan, best_cost, best_rules = candidate, cost, chain
                    best_size = size
                next_frontier.append((candidate, chain))
                if explored >= max_plans:
                    break
            if explored >= max_plans:
                break
        frontier = next_frontier

    return BFSResult(best_plan=best_plan, best_cost=best_cost,
                     original_cost=origin_cost, plans_explored=explored,
                     applied_rules=best_rules)

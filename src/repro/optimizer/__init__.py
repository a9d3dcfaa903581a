"""Certified query optimizer: e-graph, saturation, extraction, cost, planner."""

from ..core.ast import steps_to_proj
from .cost import Estimate, TableStats, compose, estimate, plan_cost, plan_size
from .egraph import EGraph, ENode
from .explain import explain, explain_result
from .extract import (
    Candidate,
    ExtractionResult,
    count_plans,
    extract_best,
    rule_chain,
)
from .planner import PLAN_COUNT_LIMIT, PlanningResult, optimize
from .rewriter import (
    flatten_conjuncts,
    predicate_paths,
    proj_steps,
    rewrite_predicate_paths,
)
from .saturate import (
    ERULES,
    ERule,
    SaturationBudget,
    SaturationStats,
    saturate,
)

__all__ = [
    "Candidate",
    "EGraph",
    "ENode",
    "ERULES",
    "ERule",
    "Estimate",
    "ExtractionResult",
    "PLAN_COUNT_LIMIT",
    "PlanningResult",
    "SaturationBudget",
    "SaturationStats",
    "TableStats",
    "compose",
    "count_plans",
    "estimate",
    "explain",
    "explain_result",
    "extract_best",
    "flatten_conjuncts",
    "optimize",
    "plan_cost",
    "plan_size",
    "predicate_paths",
    "proj_steps",
    "rewrite_predicate_paths",
    "rule_chain",
    "saturate",
    "steps_to_proj",
]

"""The verification service layer: prove-or-disprove at scale.

This package is the Cosette-shaped half of the reproduction: the paper's
prover is sound but incomplete (Figure 9), so production use pairs it with
a *disprover* and wraps both in infrastructure that can serve heavy
traffic:

* :mod:`repro.solver.pipeline` — tiered decision pipeline (alpha-hash →
  conjunctive decision → budgeted prover → bounded-exhaustive disprover),
* :mod:`repro.solver.disprover` — exhaustive small-instance counterexample
  search with "no counterexample up to bound k" guarantees,
* :mod:`repro.solver.cache` — content-addressed in-memory proof cache
  (LRU + alias index) keyed on alpha-canonical normal forms; the
  on-disk tier is :mod:`repro.serve.store`,
* :mod:`repro.solver.service` — batch API deduplicating jobs and fanning
  out across a multiprocessing pool,
* :mod:`repro.solver.verdict` — the structured PROVED / DISPROVED /
  UNKNOWN answers everything above exchanges.
"""

from .cache import ProofCache, nsum_fingerprint, syntactic_alias
from .disprover import (
    Bound,
    DisproofResult,
    SMALL_DOMAINS,
    count_relations,
    disprove,
    disprove_factory,
    disprove_rule,
    enumerate_relations,
    free_tables,
    has_metavariables,
    replay,
)
from .pipeline import (
    DEFAULT_CONFIG,
    NormalizedQuery,
    Pipeline,
    PipelineConfig,
    default_pipeline,
    reset_default_pipeline,
)
from .service import BatchReport, Job, VerificationService
from .verdict import BoundInfo, CounterexampleRecord, Status, Verdict

__all__ = [
    "BatchReport",
    "Bound",
    "BoundInfo",
    "CounterexampleRecord",
    "DEFAULT_CONFIG",
    "DisproofResult",
    "Job",
    "NormalizedQuery",
    "Pipeline",
    "PipelineConfig",
    "ProofCache",
    "SMALL_DOMAINS",
    "Status",
    "Verdict",
    "VerificationService",
    "count_relations",
    "default_pipeline",
    "disprove",
    "disprove_factory",
    "disprove_rule",
    "enumerate_relations",
    "free_tables",
    "has_metavariables",
    "nsum_fingerprint",
    "replay",
    "reset_default_pipeline",
    "syntactic_alias",
]

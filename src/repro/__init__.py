"""HoTTSQL reproduction: proving SQL query rewrites with semiring semantics.

A from-scratch Python reproduction of *HoTTSQL: Proving Query Rewrites with
Univalent SQL Semantics* (Chu, Weitz, Cheung, Suciu — PLDI 2017) and its
system DOPCERT:

* :mod:`repro.session` — **the front door**: :class:`Session` owns the
  catalog, the tiered verification pipeline, the proof cache, and the
  worker pool; :class:`QueryHandle` memoizes each query's compilation and
  normal form so repeated checks never renormalize.
* :mod:`repro.core` — the HoTTSQL data model, syntax, denotational
  semantics into the UniNomial algebra, and the equivalence prover
  (normalization, congruence closure, Lemma 5.1–5.3 tactics, the automated
  conjunctive-query decision procedure).
* :mod:`repro.solver` — the verification service layer: tiered pipeline,
  content-addressed proof cache, bounded-exhaustive disprover, and the
  multiprocessing batch service.
* :mod:`repro.semiring` — K-relations over commutative semirings, with the
  paper's generalization to infinite cardinal multiplicities.
* :mod:`repro.engine` — the executable semantics (Figure 7 over any
  semiring) and the random-instance falsifier.
* :mod:`repro.rules` — the 23 rewrite rules of the paper's Figure 8, plus
  deliberately unsound optimizer rewrites the system must reject.
* :mod:`repro.sql` — a named SQL frontend compiling to the unnamed model
  (and, via :mod:`repro.sql.decompile`, back out again).
* :mod:`repro.optimizer` — a certified cost-based plan rewriter.
* :mod:`repro.obs` — the observability layer: hierarchical spans with a
  Chrome trace-event exporter, a process-wide metrics registry whose
  snapshots merge across worker processes, and the ``repro`` logging
  hierarchy.
* :mod:`repro.errors` — one :class:`ReproError` base under every
  library exception.
* :mod:`repro.theory` — the decidability landscape of Figure 9.

Quickstart::

    from repro import Session

    with Session.from_tables("R(a:int,b:int)") as session:
        q1 = session.sql("SELECT DISTINCT a FROM R")
        q2 = session.sql("SELECT DISTINCT x.a FROM R AS x, R AS y "
                         "WHERE x.a = y.a")
        assert q1.equivalent_to(q2).proved     # self-join elimination
        plan = q2.optimize()                   # certified plan search
        print(plan.sql())                      # decompiled back to SQL
        report = session.check_all_pairs()     # one normalize per query

Migrating from the pre-session surface:

=====================================================  =======================================================
Old call                                               New call
=====================================================  =======================================================
``Catalog(); catalog.add_table("R", cols)``            ``Session.from_tables("R(a:int,b:int)")``
``compile_sql(sql, catalog)``                          ``session.sql(sql)``
``Pipeline().check(q1, q2)``                           ``session.check(sql1, sql2)``
``disprove(q1, q2)``                                   ``h1.disprove(h2)``
``optimize(query, stats)``                             ``h.optimize(stats)`` (a ``PlanHandle``)
``VerificationService().check_batch(jobs)``            ``session.check_batch(jobs)``
``pipeline.cache.save(path)``                          ``Session.from_tables(..., cache=DIR)`` (no save step)
=====================================================  =======================================================

The old entry points still work — ``compile_sql``, ``Pipeline``, and the
rest import and behave exactly as before.  The prover's free functions
``queries_equivalent`` and ``check_query_equivalence`` live in
:mod:`repro.core.equivalence`.
"""

from . import obs
from .core import (
    BOOL,
    EMPTY,
    FDConstraint,
    Hypotheses,
    INT,
    KeyConstraint,
    STRING,
    SVar,
    Schema,
    ast,
    cq_equivalent,
    decide_cq,
    denote_closed,
)
from .engine import Database, Interpretation, run_query
from .errors import ReproError
from .rules import all_rules, get_rule, rules_by_category
from .semiring import KRelation, NAT, NAT_INF, PROVENANCE
from .session import (
    PairResult,
    PairwiseReport,
    PlanHandle,
    QueryHandle,
    Session,
    SessionError,
    TableSpecError,
)
from .solver import (
    BatchReport,
    Bound,
    Job,
    Pipeline,
    PipelineConfig,
    ProofCache,
    Status,
    Verdict,
    VerificationService,
)
from .sql import Catalog, compile_sql, query_to_str

__version__ = "2.0.0"


__all__ = [
    "BOOL",
    "BatchReport",
    "Bound",
    "Catalog",
    "Database",
    "EMPTY",
    "FDConstraint",
    "Hypotheses",
    "INT",
    "Interpretation",
    "Job",
    "KRelation",
    "KeyConstraint",
    "NAT",
    "NAT_INF",
    "PROVENANCE",
    "PairResult",
    "PairwiseReport",
    "Pipeline",
    "PipelineConfig",
    "PlanHandle",
    "ProofCache",
    "QueryHandle",
    "ReproError",
    "STRING",
    "SVar",
    "Schema",
    "Session",
    "SessionError",
    "Status",
    "TableSpecError",
    "Verdict",
    "VerificationService",
    "__version__",
    "all_rules",
    "ast",
    "compile_sql",
    "cq_equivalent",
    "decide_cq",
    "denote_closed",
    "get_rule",
    "obs",
    "query_to_str",
    "rules_by_category",
    "run_query",
]

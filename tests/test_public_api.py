"""Public-API snapshot: additions and removals must be deliberate.

A failure here means the package surface changed.  If the change is
intentional, update the checked-in lists *and* the README migration
notes; if not, you just caught an accidental API break.
"""

import repro
import repro.session


REPRO_ALL = [
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

SESSION_ALL = [
    "PairResult",
    "PairwiseReport",
    "PlanHandle",
    "QueryHandle",
    "Session",
    "SessionError",
    "TableSpecError",
    "parse_table_spec",
    "render_table_spec",
]


def test_repro_all_snapshot():
    assert sorted(repro.__all__) == REPRO_ALL


def test_session_all_snapshot():
    assert sorted(repro.session.__all__) == SESSION_ALL


def test_all_names_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None
    for name in repro.session.__all__:
        assert getattr(repro.session, name) is not None

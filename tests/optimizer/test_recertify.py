"""Re-certification of optimizer rewrites through the pipeline.

Every single-step candidate the term rewriter of :mod:`bfs_reference`
emits on a corpus of sample queries must re-prove end to end through the
verification pipeline, and the deliberately unsound rules must come back DISPROVED with
a concrete counterexample.
"""

import pytest
from bfs_reference import certified_rewrites, rewrites

from repro.core.schema import INT
from repro.rules import all_buggy_rules
from repro.solver import Pipeline, default_pipeline, reset_default_pipeline
from repro.sql import Catalog, compile_sql


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.add_table("Emp", [("eid", INT), ("did", INT), ("age", INT)])
    cat.add_table("Dept", [("did", INT), ("budget", INT)])
    return cat


#: A corpus of plan shapes covering every transformation in the rewriter:
#: selection splitting/merging, pushdown through products and unions, and
#: DISTINCT collapsing — applied at root and at nested positions.
CORPUS = (
    "SELECT e.eid FROM Emp e, Dept d "
    "WHERE e.did = d.did AND d.budget > 100 AND e.age < 30",
    "SELECT eid FROM Emp WHERE age < 30 AND did = 2",
    "SELECT e.eid FROM Emp AS e WHERE e.age = 1 AND e.did = 2 "
    "AND e.eid = 3",
    "SELECT a.eid FROM Emp a, Emp b WHERE a.age < 30",
    "SELECT u.eid FROM (SELECT eid FROM Emp UNION ALL "
    "SELECT eid FROM Emp) AS u WHERE u.eid = 1",
)


class TestRecertification:
    @pytest.mark.parametrize("sql", CORPUS)
    def test_every_candidate_reproves(self, catalog, sql):
        query = compile_sql(sql, catalog).query
        candidates = rewrites(query)
        certified = certified_rewrites(query)
        # Certification is belt-and-braces: every emitted candidate is an
        # instance of a verified rule, so none may be dropped.
        assert len(certified) == len(candidates)
        for cc in certified:
            assert cc.certified
            assert cc.verdict.proved

    def test_second_step_candidates_reprove_too(self, catalog):
        # Rewriting a rewrite reaches the shapes the first step cannot
        # (merged selections, collapsed DISTINCTs); those must re-prove
        # against *their* parent as well.
        query = compile_sql(CORPUS[1], catalog).query
        for first in certified_rewrites(query):
            seconds = certified_rewrites(first.query)
            assert len(seconds) == len(rewrites(first.query))

    def test_corpus_actually_exercises_the_rewriter(self, catalog):
        rules_hit = set()
        total = 0
        for sql in CORPUS:
            query = compile_sql(sql, catalog).query
            for candidate, rule in rewrites(query):
                rules_hit.add(rule)
                total += 1
                for _, rule2 in rewrites(candidate):
                    rules_hit.add(rule2)
                    total += 1
        assert total >= 10
        assert {"sel_split", "sel_split⁻¹", "sel_union_distr"} <= rules_hit

    def test_certification_hits_the_shared_cache(self, catalog):
        reset_default_pipeline()
        try:
            query = compile_sql(CORPUS[0], catalog).query
            certified_rewrites(query)
            pipeline = default_pipeline()
            before = pipeline.cache.hits
            certified_rewrites(query)  # same plan again: all cache hits
            assert pipeline.cache.hits > before
        finally:
            reset_default_pipeline()

    def test_explicit_pipeline_override(self, catalog):
        pipeline = Pipeline()
        query = compile_sql(CORPUS[1], catalog).query
        certified = certified_rewrites(query, pipeline=pipeline)
        assert certified
        assert len(pipeline.cache) > 0


class TestBuggyRulesStayOut:
    @pytest.mark.parametrize("rule", all_buggy_rules(),
                             ids=lambda r: r.name)
    def test_buggy_rule_disproved_with_concrete_instance(self, rule):
        verdict = Pipeline().check_rule(rule)
        assert verdict.disproved
        record = verdict.counterexample
        assert record is not None and record.disagreements
        live = verdict.live_counterexample
        assert live.lhs_result != live.rhs_result

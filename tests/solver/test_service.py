"""Batch verification service: dedup, cache warm-up, worker pool."""

import pytest

from repro.core.schema import INT
from repro.rules import all_buggy_rules, all_rules
from repro.session import Session
from repro.solver import Job, Status, VerificationService
from repro.sql import Catalog, compile_sql


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.add_table("R", [("a", INT), ("b", INT)])
    return cat


@pytest.fixture
def queries(catalog):
    def q(sql):
        return compile_sql(sql, catalog).query
    return q


def _jobs(queries, n=8):
    """n jobs over only three distinct questions (dedup fodder)."""
    pairs = [
        ("SELECT a FROM R", "SELECT a FROM R"),
        ("SELECT a FROM R", "SELECT b FROM R"),
        ("SELECT DISTINCT a FROM R",
         "SELECT DISTINCT x.a FROM R AS x, R AS y WHERE x.a = y.a"),
    ]
    return [Job(f"j{i}", queries(pairs[i % 3][0]), queries(pairs[i % 3][1]))
            for i in range(n)]


class TestBatch:
    def test_sequential_batch_answers_every_job(self, queries):
        service = VerificationService()
        report = service.check_batch(_jobs(queries), workers=1)
        assert set(report.verdicts) == {f"j{i}" for i in range(8)}
        assert report.verdicts["j0"].proved
        assert report.verdicts["j1"].disproved
        assert report.verdicts["j2"].proved

    def test_deduplication(self, queries):
        service = VerificationService()
        report = service.check_batch(_jobs(queries, 9), workers=1)
        assert report.total_jobs == 9
        assert report.unique_questions == 3
        assert report.duplicate_jobs == 6
        assert report.computed == 3

    def test_warm_batch_is_all_cache_hits(self, queries):
        service = VerificationService()
        service.check_batch(_jobs(queries), workers=1)
        warm = service.check_batch(_jobs(queries), workers=1)
        assert warm.cache_hits == warm.unique_questions
        assert warm.computed == 0
        assert all(v.cached for v in warm.verdicts.values())

    def test_symmetric_jobs_deduplicate(self, queries):
        q1 = queries("SELECT a FROM R")
        q2 = queries("SELECT b FROM R")
        service = VerificationService()
        report = service.check_batch(
            [Job("fwd", q1, q2), Job("bwd", q2, q1)], workers=1)
        assert report.unique_questions == 1
        assert report.verdicts["fwd"].disproved
        assert report.verdicts["bwd"].disproved

    def test_mirrored_jobs_get_mirrored_counterexamples(self, queries):
        # One computed verdict serves both orientations of a pair; each
        # job must see the multiplicity columns in its own order.
        q1 = queries("SELECT a FROM R")
        q2 = queries("SELECT a FROM R UNION ALL SELECT a FROM R")
        report = VerificationService().check_batch(
            [Job("fwd", q1, q2), Job("bwd", q2, q1)], workers=1)
        fwd = report.verdicts["fwd"].counterexample.disagreements
        bwd = report.verdicts["bwd"].counterexample.disagreements
        assert bwd == tuple((row, right, left) for row, left, right in fwd)
        assert fwd != bwd

    def test_alpha_equal_text_variant_keeps_orientation(self, queries):
        # An alpha-equal but textually different Q1 hits the fingerprint
        # cache; its unrecognized repr digest must NOT be read as "the
        # pair is reversed" (regression: false swap of cx side labels).
        q_small = queries("SELECT a FROM R")
        q_big = queries("SELECT a FROM R UNION ALL SELECT a FROM R")
        q_small_variant = queries("SELECT x.a FROM R AS x")
        service = VerificationService()
        first = service.check_batch([Job("j1", q_small, q_big)], workers=1)
        second = service.check_batch([Job("j2", q_small_variant, q_big)],
                                     workers=1)
        assert second.verdicts["j2"].counterexample.disagreements \
            == first.verdicts["j1"].counterexample.disagreements

    def test_alias_hit_of_alpha_variant_pair_keeps_orientation(self):
        # B is A mirrored with each UNION reordered: same fingerprint,
        # different reprs.  B's re-ask is an alias hit on a record A
        # produced; its counterexample must still follow B's order
        # (regression: the repr tags of A's record cannot tell).
        a = ("SELECT a FROM R UNION ALL SELECT a FROM S",
             "SELECT b FROM R UNION ALL SELECT b FROM S")
        b = ("SELECT b FROM S UNION ALL SELECT b FROM R",
             "SELECT a FROM S UNION ALL SELECT a FROM R")
        with Session.from_tables("R(a:int,b:int)", "S(a:int,b:int)") as s:
            def ask(name, pair):
                job = Job(name, s.sql(pair[0]).query, s.sql(pair[1]).query)
                return s.check_batch([job], workers=1)

            first = ask("a", a).verdicts["a"]
            via_pipeline = ask("b", b).verdicts["b"]
            reask = ask("b", b)
            mirrored = ask("b2", b[::-1]).verdicts["b2"]
        cx = first.counterexample.disagreements
        assert first.disproved
        assert via_pipeline.counterexample.disagreements == \
            tuple((row, right, left) for row, left, right in cx)
        assert reask.cache_hits == 1
        assert reask.verdicts["b"].counterexample.disagreements == \
            via_pipeline.counterexample.disagreements
        assert mirrored.counterexample.disagreements == cx

    def test_unknown_worker_verdicts_not_cached(self, queries):
        # Same policy as Pipeline.check: a later run with a bigger budget
        # must not be short-circuited by a cached UNKNOWN.
        from repro.solver import Bound, PipelineConfig
        config = PipelineConfig(
            disprover_bound=Bound.of(max_rows=1, max_multiplicity=1))
        service = VerificationService(config=config)
        jobs = [Job("u", queries("SELECT a FROM R WHERE a = 2"),
                    queries("SELECT a FROM R WHERE a = 3"))]
        first = service.check_batch(jobs, workers=2)
        assert first.verdicts["u"].status is Status.UNKNOWN
        again = service.check_batch(jobs, workers=1)
        assert again.cache_hits == 0

    def test_parallel_batch_matches_sequential(self, queries):
        jobs = _jobs(queries)
        sequential = VerificationService().check_batch(jobs, workers=1)
        parallel = VerificationService().check_batch(jobs, workers=2)
        for job_id in sequential.verdicts:
            assert parallel.verdicts[job_id].status \
                is sequential.verdicts[job_id].status

    def test_summary_mentions_the_accounting(self, queries):
        report = VerificationService().check_batch(
            _jobs(queries), workers=1)
        text = report.summary()
        assert "unique" in text and "cache hit" in text


class TestRuleBatches:
    def test_rule_corpus_parallel(self):
        service = VerificationService()
        rules = list(all_rules()) + list(all_buggy_rules())
        report = service.check_rules(rules, workers=2)
        assert report.count(Status.PROVED) == 23
        assert report.count(Status.DISPROVED) == 5
        assert report.count(Status.UNKNOWN) == 0

    def test_rule_corpus_warm_cache(self):
        service = VerificationService()
        rules = list(all_rules())
        cold = service.check_rules(rules, workers=1)
        warm = service.check_rules(rules, workers=1)
        assert cold.computed == len(rules)
        assert warm.cache_hits == len(rules)
        assert warm.computed == 0
        # The acceptance bar is 2×; a pure cache pass clears it easily.
        assert warm.wall_seconds < cold.wall_seconds

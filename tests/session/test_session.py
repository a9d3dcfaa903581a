"""The Session/QueryHandle front door: memoization, lifecycle, batches."""

import os
import re

import pytest

import repro.session as session_mod
import repro.solver.pipeline as pipeline_mod
from repro import Catalog, INT, Session, SessionError, Status, TableSpecError
from repro.rules import all_rules
from repro.serve.store import META_FILE
from repro.session import parse_table_spec
from repro.solver.verdict import Verdict


@pytest.fixture
def session():
    with Session.from_tables("R(a:int,b:int)", "S(c:int,d:int)") as s:
        yield s


class TestCompile:
    def test_sql_returns_memoized_handle(self, session):
        h1 = session.sql("SELECT a FROM R")
        h2 = session.sql("SELECT a FROM R")
        assert h1 is h2

    def test_repeated_text_skips_tokenizing(self, session, monkeypatch):
        calls = []
        tokenize = session_mod.tokenize
        monkeypatch.setattr(session_mod, "tokenize",
                            lambda text: calls.append(text)
                            or tokenize(text))
        h1 = session.sql("SELECT b FROM R")
        h2 = session.sql("SELECT b FROM R")
        assert h1 is h2
        assert calls == ["SELECT b FROM R"]
        assert session.handles.count(h1) == 1

    def test_whitespace_insensitive_memoization(self, session):
        h1 = session.sql("SELECT a FROM R")
        h2 = session.sql("SELECT  a\n FROM   R")
        assert h1 is h2

    def test_string_literals_not_conflated(self):
        with Session.from_tables("T(s:string)") as s:
            h1 = s.sql("SELECT s FROM T WHERE s = 'x y'")
            h2 = s.sql("SELECT s FROM T WHERE s = 'x  y'")
            assert h1 is not h2
            assert h1.query != h2.query

    def test_handles_in_creation_order(self, session):
        a = session.sql("SELECT a FROM R")
        b = session.sql("SELECT b FROM R")
        assert session.handles == [a, b]

    def test_handle_equality_is_structural(self, session):
        h1 = session.sql("SELECT a FROM R")
        h2 = session.sql("SELECT R.a FROM R")
        assert h1 is not h2 and h1 == h2
        assert len({h1, h2}) == 1

    def test_columns_and_schema_exposed(self, session):
        h = session.sql("SELECT a, b FROM R")
        assert [c for c, _ in h.columns] == ["a", "b"]

    def test_compile_errors_propagate(self, session):
        from repro import ReproError
        with pytest.raises(ReproError):
            session.sql("SELECT nope FROM R")


class TestChecking:
    def test_equivalent_to_proves_self_join(self, session):
        q1 = session.sql("SELECT DISTINCT a FROM R")
        q2 = session.sql("SELECT DISTINCT x.a FROM R AS x, R AS y "
                         "WHERE x.a = y.a")
        verdict = q1.equivalent_to(q2)
        assert verdict.proved

    def test_accepts_sql_text_directly(self, session):
        verdict = session.sql("SELECT a FROM R").equivalent_to(
            "SELECT R.a FROM R")
        assert verdict.proved

    def test_check_convenience(self, session):
        assert session.check("SELECT a FROM R", "SELECT a FROM R").proved

    def test_disprove_finds_counterexample(self, session):
        result = session.sql("SELECT a FROM R").disprove("SELECT b FROM R")
        assert result.found

    def test_foreign_handle_rejected(self, session):
        other = Session.from_tables("R(a:int,b:int)")
        foreign = other.sql("SELECT a FROM R")
        with pytest.raises(SessionError):
            session.sql("SELECT a FROM R").equivalent_to(foreign)
        other.close()

    def test_schema_mismatch_raises_value_error(self, session):
        with pytest.raises(ValueError):
            session.check("SELECT a FROM R", "SELECT a, b FROM R")

    def test_schema_mismatch_is_also_repro_error(self, session):
        from repro import ReproError
        from repro.errors import SchemaMismatchError
        with pytest.raises(ReproError) as excinfo:
            session.check("SELECT a FROM R", "SELECT a, b FROM R")
        assert isinstance(excinfo.value, SchemaMismatchError)


class TestMemoizedNormalForms:
    def test_normalize_once_per_query_across_checks(self, session,
                                                    monkeypatch):
        calls = []
        real = pipeline_mod.normalize
        monkeypatch.setattr(pipeline_mod, "normalize",
                            lambda u: calls.append(1) or real(u))
        queries = [session.sql(f"SELECT a FROM R WHERE a = {i}")
                   for i in range(4)]
        for i in range(4):
            for j in range(4):
                queries[i].equivalent_to(queries[j])
        # 16 pair checks, but each of the 4 queries normalized exactly once.
        assert len(calls) == 4

    def test_normalized_is_cached_on_handle(self, session):
        h = session.sql("SELECT a FROM R")
        assert h.normalized is h.normalized

    def test_pipeline_check_agrees_with_session(self, session):
        # The pre-normalized fast path must answer exactly like the
        # one-shot Pipeline.check on a fresh pipeline.
        from repro.solver.pipeline import Pipeline
        q1 = session.sql("SELECT DISTINCT a FROM R")
        q2 = session.sql("SELECT DISTINCT x.a FROM R AS x, R AS y "
                         "WHERE x.a = y.a")
        fresh = Pipeline().check(q1.query, q2.query)
        via_session = q1.equivalent_to(q2)
        assert fresh.status is via_session.status
        assert fresh.fingerprint == via_session.fingerprint


class TestAllPairs:
    def test_check_all_pairs_counts(self, session):
        texts = ["SELECT a FROM R", "SELECT R.a FROM R", "SELECT b FROM R"]
        report = session.check_all_pairs(texts)
        assert len(report) == 3
        assert report.count(Status.PROVED) == 1
        assert report.count(Status.DISPROVED) == 2
        assert report.normalizations == 3
        assert "3 pair(s)" in report.summary()

    def test_check_all_pairs_defaults_to_session_handles(self, session):
        session.sql("SELECT a FROM R")
        session.sql("SELECT b FROM R")
        report = session.check_all_pairs()
        assert len(report) == 1

    def test_mixed_schemas_do_not_abort_the_batch(self, session):
        report = session.check_all_pairs(
            ["SELECT a FROM R", "SELECT R.a FROM R", "SELECT a, b FROM R"])
        assert len(report) == 3
        assert report.count(Status.PROVED) == 1
        mismatched = [r for r in report if r.verdict.stage == "schema"]
        assert len(mismatched) == 2
        assert all(r.verdict.disproved for r in mismatched)
        assert "output schemas differ" in mismatched[0].verdict.detail

    def test_check_pairs_returns_oriented_verdicts(self, session):
        report = session.check_pairs(
            [("SELECT a FROM R", "SELECT b FROM R"),
             ("SELECT b FROM R", "SELECT a FROM R")])
        assert all(isinstance(r.verdict, Verdict) for r in report)
        assert report.unique_questions == 1
        assert report.cache_hits >= 1

    def test_pairwise_normalizations_not_recounted(self, session):
        session.check_all_pairs(["SELECT a FROM R", "SELECT b FROM R"])
        report = session.check_all_pairs(
            ["SELECT a FROM R", "SELECT b FROM R"])
        assert report.normalizations == 0  # both memoized from first call


class TestOptimize:
    def test_plan_handle_roundtrip(self, session):
        q = session.sql("SELECT DISTINCT x.a FROM R AS x, R AS y "
                        "WHERE x.a = y.a")
        plan = q.optimize()
        assert plan.certified is True
        assert plan.explain()
        # The decompiled SQL recompiles to something provably equivalent.
        assert plan.handle().equivalent_to(q).proved
        assert session.sql(plan.sql()).equivalent_to(q).proved

    def test_optimize_feeds_session_cache(self, session):
        q = session.sql("SELECT DISTINCT x.a FROM R AS x, R AS y "
                        "WHERE x.a = y.a")
        before = len(session.cache)
        q.optimize()
        assert len(session.cache) > before


class TestLifecycle:
    def test_context_manager_persists_cache(self, tmp_path):
        path = str(tmp_path / "proof-store")
        with Session.from_tables("R(a:int,b:int)", cache=path) as s:
            cold = s.check("SELECT a FROM R", "SELECT R.a FROM R")
            assert not cold.cached
        with Session.from_tables("R(a:int,b:int)", cache=path) as s2:
            verdict = s2.check("SELECT a FROM R", "SELECT R.a FROM R")
            assert verdict.cached
            assert verdict.fingerprint == cold.fingerprint

    def test_cache_kwarg_accepts_path_string(self, tmp_path):
        # Session(cache=path) must behave like from_tables(..., cache=path).
        path = str(tmp_path / "pc")
        with Session(cache=path) as s:
            s.add_table("R(a:int,b:int)")
            s.check("SELECT a FROM R", "SELECT R.a FROM R")
        assert os.path.isfile(os.path.join(path, META_FILE))

    def test_cache_kwarg_rejects_other_types(self):
        with pytest.raises(SessionError):
            Session(cache=42)

    def test_cache_file_path_is_an_error(self, tmp_path):
        # A JSON cache file from before the shard store is not a store.
        path = tmp_path / "proofs.json"
        path.write_text("{}")
        with pytest.raises(SessionError, match=re.escape(str(path))):
            Session(cache=str(path))

    def test_alias_tags_survive_restart(self, tmp_path):
        # A warm batch in a fresh session answers every rule from the
        # persisted alias index: nothing goes back to the workers.
        path = str(tmp_path / "proof-store")
        rules = all_rules()[:4]
        with Session(cache=path) as s:
            cold = s.check_rules(rules, workers=2)
        assert cold.computed == len(rules)
        with Session(cache=path) as s:
            warm = s.check_rules(rules, workers=2)
        assert warm.cache_hits == len(rules)
        assert warm.computed == 0
        assert [warm.verdicts[r.name].status for r in rules] == \
            [cold.verdicts[r.name].status for r in rules]

    def test_normalize_seconds_charged_once(self, session):
        h1 = session.sql("SELECT a FROM R")
        h2 = session.sql("SELECT R.a  FROM R WHERE 1 = 1")
        first = h1.equivalent_to(h2)
        again = h1.equivalent_to(h2)  # cache hit, both sides memoized
        assert first.timings["normalize"] > 0.0
        assert again.timings["normalize"] == 0.0

    def test_closed_session_rejects_work(self):
        s = Session.from_tables("R(a:int,b:int)")
        s.close()
        with pytest.raises(SessionError):
            s.sql("SELECT a FROM R")
        s.close()  # idempotent

    def test_catalog_injection(self):
        catalog = Catalog()
        catalog.add_table("T", [("x", INT)])
        with Session(catalog) as s:
            assert s.check("SELECT x FROM T", "SELECT T.x FROM T").proved


class TestTableSpecs:
    def test_parse_table_spec(self):
        name, columns = parse_table_spec("R(a:int, b:bool)")
        assert name == "R" and [c for c, _ in columns] == ["a", "b"]

    @pytest.mark.parametrize("spec", [
        "R", "R()", "R(a)", "R(a:what)", "R(a:int,a:int)"])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(TableSpecError):
            parse_table_spec(spec)

    def test_add_table_chainable(self):
        with Session() as s:
            s.add_table("A(x:int)").add_table("B", [("y", INT)])
            assert set(s.catalog.tables) == {"A", "B"}


class TestBatchService:
    def test_check_batch_through_session(self, session):
        from repro.solver.service import Job
        q1 = session.sql("SELECT a FROM R").query
        q2 = session.sql("SELECT R.a FROM R").query
        report = session.check_batch(
            [Job(job_id="j0", q1=q1, q2=q2)], workers=1)
        assert report.verdicts["j0"].proved

    def test_service_is_lazy_and_closed_with_session(self):
        s = Session.from_tables("R(a:int,b:int)")
        assert s._service is None
        service = s.service
        assert s._service is service
        s.close()
        assert s._service is None

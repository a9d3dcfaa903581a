"""Command-line interface."""

import json

import pytest

from repro.cli import CLIError, main, parse_table_spec
from repro.core.schema import FLOAT, INT, STRING


class TestTableSpecs:
    def test_parse_basic(self):
        name, columns = parse_table_spec("R(a:int,b:string)")
        assert name == "R"
        assert columns == [("a", INT), ("b", STRING)]

    def test_whitespace_tolerated(self):
        name, columns = parse_table_spec(" Emp( eid : int , did : int ) ")
        assert name == "Emp"
        assert len(columns) == 2

    def test_float_columns(self):
        name, columns = parse_table_spec("M(score:float,n:int)")
        assert name == "M"
        assert columns[0] == ("score", FLOAT)

    def test_duplicate_columns_rejected(self):
        with pytest.raises(CLIError, match="duplicate column 'a'"):
            parse_table_spec("R(a:int,a:string)")

    @pytest.mark.parametrize("bad", [
        "R",
        "R()",
        "R(a)",
        "R(a:decimal)",
        "(a:int)",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(CLIError):
            parse_table_spec(bad)


class TestCheckCommand:
    def test_equivalent_pair_exits_zero(self, capsys):
        code = main([
            "check", "--table", "R(a:int,b:int)",
            "SELECT DISTINCT a FROM R",
            "SELECT DISTINCT x.a FROM R AS x, R AS y WHERE x.a = y.a",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PROVED" in out
        assert "EQUIVALENT" in out

    def test_inequivalent_pair_is_disproved(self, capsys):
        code = main([
            "check", "--table", "R(a:int,b:int)",
            "SELECT a FROM R",
            "SELECT b FROM R",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "DISPROVED" in out
        assert "counterexample instance" in out

    def test_bad_table_spec_is_cli_error(self, capsys):
        code = main(["check", "--table", "R(?)", "SELECT a FROM R",
                     "SELECT a FROM R"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_cache_dir_roundtrip(self, capsys, tmp_path):
        cache = str(tmp_path / "proof-store")
        argv = ["check", "--table", "R(a:int)", "--cache", cache,
                "SELECT a FROM R", "SELECT a FROM R"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "cached" in capsys.readouterr().out

    def test_cache_file_is_cli_error(self, capsys, tmp_path):
        cache = tmp_path / "proofs.json"
        cache.write_text("{}")
        code = main(["check", "--table", "R(a:int)", "--cache", str(cache),
                     "SELECT a FROM R", "SELECT a FROM R"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and str(cache) in err


class TestBatchCheckCommand:
    def _write_jobs(self, tmp_path):
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps({
            "tables": ["R(a:int,b:int)"],
            "pairs": [
                ["SELECT a FROM R", "SELECT a FROM R"],
                ["SELECT a FROM R", "SELECT b FROM R"],
                ["SELECT a FROM R", "SELECT a FROM R"],
            ],
        }))
        return str(jobs)

    def test_batch_reports_each_pair(self, capsys, tmp_path):
        import re
        code = main(["batch-check", self._write_jobs(tmp_path),
                     "--workers", "1"])
        assert code == 1  # one pair is disproved
        out = capsys.readouterr().out
        # Line-anchored: "DISPROVED" contains "PROVED" as a substring.
        assert len(re.findall(r"^PROVED", out, re.M)) == 2
        assert len(re.findall(r"^DISPROVED", out, re.M)) == 1
        assert "2 unique" in out

    def test_malformed_jobs_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        assert main(["batch-check", str(bad)]) == 2


class TestDisproveCommand:
    def test_disprove_buggy_rule(self, capsys):
        assert main(["disprove", "bad_union_distinct"]) == 0
        out = capsys.readouterr().out
        assert "DISPROVED" in out

    def test_disprove_sql_pair(self, capsys):
        code = main(["disprove", "--table", "R(a:int)",
                     "SELECT a FROM R", "SELECT DISTINCT a FROM R"])
        assert code == 0
        assert "counterexample" in capsys.readouterr().out

    def test_no_counterexample_for_sound_pair(self, capsys):
        code = main(["disprove", "--table", "R(a:int)",
                     "SELECT a FROM R", "SELECT a FROM R"])
        assert code == 1
        assert "NO COUNTEREXAMPLE" in capsys.readouterr().out

    def test_unknown_rule_is_cli_error(self):
        assert main(["disprove", "no_such_rule"]) == 2


class TestProveCommands:
    def test_prove_single_rule(self, capsys):
        assert main(["prove", "join_comm"]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_prove_buggy_rule_rejection_is_success(self, capsys):
        # For an unsound rule, REJECTED is the expected outcome → exit 0.
        assert main(["prove", "bad_union_distinct"]) == 0
        out = capsys.readouterr().out
        assert "REJECTED" in out
        assert "counterexample" in out

    def test_prove_unknown_rule(self, capsys):
        assert main(["prove", "no_such_rule"]) == 2

    def test_rules_listing(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        assert "join_comm" in out
        assert "UNSOUND CONTROL" in out

    def test_prove_all(self, capsys):
        assert main(["prove-all"]) == 0
        out = capsys.readouterr().out
        assert "23/23 core rules verified" in out
        assert "all rejected" in out


class TestOptimizeCommand:
    WORKLOAD = [
        "optimize",
        "--table", "Emp(eid:int,did:int,age:int)",
        "--table", "Dept(did:int,budget:int)",
        "--rows", "Emp=1000", "--rows", "Dept=20",
        "SELECT e.eid FROM Emp e, Dept d "
        "WHERE e.did = d.did AND d.budget > 100 AND e.age < 30",
    ]

    def test_optimize_certifies_and_explains(self, capsys):
        code = main(self.WORKLOAD)
        assert code == 0
        out = capsys.readouterr().out
        assert "rewrite chain" in out
        assert "prover certificate : VERIFIED" in out
        assert "Scan Emp" in out
        # The pushed-down filter sits below the join in the cost tree.
        assert "sel_push" in out

    def test_sql_out_renders_plan(self, capsys):
        code = main(self.WORKLOAD + ["--sql-out"])
        assert code == 0
        assert "optimized SQL" in capsys.readouterr().out

    def test_no_certify_skips_proof(self, capsys):
        code = main(self.WORKLOAD + ["--no-certify"])
        assert code == 0
        assert "prover certificate : skipped" in capsys.readouterr().out

    def test_budget_knobs(self, capsys):
        code = main(self.WORKLOAD + ["--max-plans", "50",
                                     "--iterations", "2"])
        assert code == 0

    @pytest.mark.parametrize("bad", [
        ["--max-plans", "0"],
        ["--iterations", "0"],
        ["--max-plans", "-3"],
        ["--rows", "Emp"],
        ["--rows", "Emp=lots"],
        ["--rows", "Emp=-5"],
        ["--rows", "Emp=nan"],
        ["--rows", "Emp=inf"],
    ])
    def test_bad_knobs_are_cli_errors(self, capsys, bad):
        assert main(self.WORKLOAD + bad) == 2
        assert "error:" in capsys.readouterr().err

    def test_uncompilable_sql_is_cli_error(self, capsys):
        code = main(["optimize", "--table", "R(a:int)", "SELECT FROM"])
        assert code == 2
        assert "cannot compile" in capsys.readouterr().err


class TestExplainCommand:
    def test_explain_renders_cost_tree(self, capsys):
        code = main([
            "explain", "--table", "R(a:int,b:int)", "--rows", "R=500",
            "SELECT a FROM R WHERE a = 1 AND b = 2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Scan R" in out
        assert "rows≈500.0" in out
        assert "Filter" in out

    def test_explain_handles_having_shapes(self, capsys):
        code = main([
            "explain", "--table", "R(a:int,b:int)",
            "SELECT a FROM R GROUP BY a HAVING SUM(b) > 10",
        ])
        assert code == 0
        assert "Aggregate SUM" in capsys.readouterr().out


class TestLintCommand:
    def test_all_corpora_satisfy_the_contract(self, capsys):
        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "corpus basic:" in out
        assert "corpus buggy:" in out
        assert "lint contract holds" in out

    def test_buggy_corpus_reports_every_annotated_defect(self, capsys):
        assert main(["lint", "--corpus", "buggy"]) == 0
        out = capsys.readouterr().out
        for code in ("RS110", "RS111", "RS112"):
            assert code in out

    def test_json_output_is_machine_readable(self, capsys):
        assert main(["lint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failures"] == []
        assert payload["corpora"]["extended"]["errors"] == 0
        assert payload["corpora"]["buggy"]["errors"] == 5


class TestAnalyzeCommand:
    def test_reports_set_valuedness(self, capsys):
        code = main(["analyze", "--table", "R(a:int,b:int)",
                     "SELECT DISTINCT a FROM R"])
        assert code == 0
        out = capsys.readouterr().out
        assert "set-valued (duplicate-free): True" in out

    def test_detects_static_emptiness(self, capsys):
        code = main(["analyze", "--table", "R(a:int,b:int)", "--json",
                     "SELECT * FROM R WHERE a = 0 AND a = 1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["empty"] is True
        assert payload["card"] == [0, 0]

    def test_key_flag_seeds_the_context(self, capsys):
        code = main(["analyze", "--table", "R(a:int,b:int)",
                     "--key", "R", "--json", "SELECT * FROM R"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["set_valued"] is True
        assert payload["keyed_tables"] == ["R"]

    def test_uncompilable_sql_is_cli_error(self, capsys):
        code = main(["analyze", "--table", "R(a:int)", "SELECT FROM"])
        assert code == 2
        assert "cannot compile" in capsys.readouterr().err

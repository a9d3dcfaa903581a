"""The benchmark's own tests: seeded inputs, stage landing, metric output.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""

import collections
import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import gen
from perfbench.workloads import PER_LAYER_UNITS, RefuteBounded
from repro.optimizer import TableStats
from repro.session import Session

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: the exact-count fingerprints: they must not depend on the process.
FINGERPRINTS = ("prover.steps", "disprover.instances", "serve.pipeline_runs",
                "optimizer.plans_explored",
                *(f"pipeline.decided_by.{s}" for s in
                  ("cache", "alpha-hash", "conjunctive", "prover",
                   "disprover")))


def test_generators_are_deterministic_per_seed():
    for make in (gen.verify_pairs, gen.refute_pairs, gen.optimize_queries):
        assert make(7, 60) == make(7, 60)
        assert make(7, 60) != make(8, 60)
    assert gen.reask_stream(3, 500, 40, 25) == gen.reask_stream(3, 500, 40, 25)
    assert gen.reask_stream(3, 500, 40, 25).count(-1) == 25


def test_kind_mix_is_exact_and_questions_distinct():
    for make, mix in ((gen.verify_pairs, gen.VERIFY_MIX),
                      (gen.refute_pairs, gen.REFUTE_MIX),
                      (gen.optimize_queries, gen.OPTIMIZE_MIX)):
        block = sum(weight for _, weight in mix.values())
        items = make(5, 4 * block)
        counts = collections.Counter(item.kind for item in items)
        assert counts == {kind: 4 * w for kind, (_, w) in mix.items()}
        assert len(set(items)) == len(items)


def probe(corpus, seed, n):
    """Per-op work and outcome of the first ``n`` items of a corpus."""
    out = []
    if corpus == "optimize":
        session = Session.from_tables(*gen.TABLES)
        stats = TableStats(dict(gen.TABLE_ROWS))
        for query in gen.optimize_queries(seed, n):
            plan = session.sql(query.sql).optimize(stats)
            out.append([query.kind, plan.result.plans_explored,
                        plan.result.best_cost / plan.result.original_cost,
                        list(plan.result.applied_rules), plan.certified])
        return out
    make, config = {"verify": (gen.verify_pairs, None),
                    "refute": (gen.refute_pairs, RefuteBounded.config)}[corpus]
    session = Session.from_tables(*gen.TABLES, config=config)
    for pair in make(seed, n):
        v = session.check(pair.sql1, pair.sql2)
        rows = (sum(mult for _, table in v.counterexample.tables
                    for _, mult in table)
                if v.counterexample is not None else 0)
        out.append([pair.kind, pair.expect, pair.stage, v.stage,
                    v.status.name, v.engine_steps,
                    v.bound.instances_checked if v.bound else None,
                    v.bound.exhausted if v.bound else None, rows])
    return out


@functools.lru_cache(maxsize=None)
def probe_fresh(corpus, seed, n):
    """:func:`probe` in a fresh interpreter, as a benchmark run is.  The
    kernel's process-wide memos carry earlier questions' normal forms
    into later ones, and whether the alpha-hash tier already decides a
    join reorder can depend on them."""
    code = ("import json, sys; from perfbench.tests.test_perfbench import "
            "probe; print(json.dumps(probe(sys.argv[1], int(sys.argv[2]), "
            "int(sys.argv[3]))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.run([sys.executable, "-c", code, corpus, str(seed),
                           str(n)], cwd=str(ROOT), env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", [1, 2])
def test_verify_pairs_land_on_their_stage(seed):
    for kind, expect, stage, got, status, *_ in probe_fresh("verify",
                                                            seed, 40):
        assert got == stage, (kind, got)
        assert status == ("PROVED" if expect == "equiv" else "DISPROVED"), \
            (kind, status)


@pytest.mark.parametrize("seed", [1, 2])
def test_refute_pairs_exhaust_or_need_multirow_witnesses(seed):
    for (kind, expect, _, got, status, _, instances, exhausted,
         rows) in probe_fresh("refute", seed, 20):
        assert got == "disprover", kind
        if expect == "equiv":
            # The whole raised bound is searched, and nothing is found.
            assert status == "UNKNOWN" and exhausted, kind
            assert instances > 1000, kind
        else:
            assert status == "DISPROVED" and rows >= 2, kind


@pytest.mark.parametrize("corpus,n", [("verify", 40), ("refute", 20),
                                      ("optimize", 20)])
def test_work_per_op_does_not_depend_on_the_seed(corpus, n):
    """The seed renames aliases and changes constants only: op ``i``
    costs the prover (``engine_steps``), the disprover (instances) and
    the optimizer (``plans_explored``) the same work for every seed, so
    the spread across seeded runs is the host's."""
    assert probe_fresh(corpus, 1, n) == probe_fresh(corpus, 2, n)


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(RUN), *args], cwd=str(cwd),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_emits_every_named_metric(workload):
    common = ("--workload", workload, "--seed", "4", "--seconds", "0.1")
    plain = _run(*common, "--trace", "0")
    assert plain["correct"] and plain["failed"] == 0
    assert plain["attempted"] >= 1
    assert {name: m["unit"] for name, m in plain["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = _run(*common, "--trace", "1")
    assert traced["correct"]
    assert {name: m["unit"] for name, m in traced["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        PER_LAYER_UNITS
    if workload != "serve-reask":  # every question is asked once
        assert traced["metrics"]["pipeline.decided_by.cache"]["value"] == 0
    again = _run(*common, "--trace", "1")
    for name in FINGERPRINTS:
        assert traced["metrics"][name] == again["metrics"][name], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

"""The four workloads: set-up, an untraced op, a traced op, judgement.

An untraced op makes exactly the public call a user makes
(``Session.check``, ``QueryHandle.optimize``).  A traced op does the same
work one layer at a time, timing each call in a span:

* ``Session.check`` = ``Session.sql`` ×2 → ``QueryHandle.normalized`` ×2
  → ``Pipeline.check_normalized``, which is what ``equivalent_to`` does;
* ``QueryHandle.optimize`` = ``repro.optimizer.optimize(certify=False)``
  → ``Pipeline.certify``, itself split into normalization ×2 and a
  ``check_normalized(prove_only=True)``;
* a remote check = ``Session.sql`` on unseen texts →
  ``ServeClient.check_detail``, whose reply carries the daemon's own wall
  time (the rest of the round trip is framing and transport).
"""

from __future__ import annotations

import math
import os
import select
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import mean, median
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.optimizer import TableStats, optimize
from repro.session import Session
from repro.solver.disprover import Bound
from repro.solver.pipeline import NormalizedQuery, PipelineConfig
from repro.solver.verdict import Status, Verdict

from . import gen, oracle
from .spans import Spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Stages a verdict can name, in escalation order.
STAGES = ("alpha-hash", "conjunctive", "prover", "disprover")

#: Every per-layer metric: name → unit.  Each workload reports all of
#: them; a layer a workload never reaches reads 0.
PER_LAYER_UNITS: Dict[str, str] = {
    "sql.compile_ms": "ms",
    "core.normalize_ms": "ms",
    **{f"pipeline.decide_ms.{s}": "ms" for s in STAGES},
    **{f"pipeline.decided_by.{s}": "count" for s in ("cache",) + STAGES},
    "prover.steps": "count",
    "disprover.instances": "count",
    "disprover.instances_per_s": "1/s",
    "disprover.witness_share": "fraction",
    "optimizer.search_ms": "ms",
    "optimizer.certify_ms": "ms",
    "optimizer.plans_explored": "count",
    "optimizer.improved_share": "fraction",
    "serve.ping_rtt_ms": "ms",
    "serve.daemon_ms": "ms",
    "serve.framing_ms": "ms",
    "serve.hit_rtt_ms": "ms",
    "serve.miss_rtt_ms": "ms",
    "serve.hit_share": "fraction",
    "serve.pipeline_runs": "count",
    "serve.hot_entries": "count",
    "bench.tracing_overhead": "ratio",
    "bench.failed_share": "fraction",
}


#: warm-up ops in set-up: at least one block of every workload's mix.
WARMUP_OPS = 20


def _mean_ms(values: List[float]) -> float:
    return 1e3 * mean(values) if values else 0.0


class Workload:
    """One workload.  Subclasses fill in the hooks below."""

    name = ""
    #: ops per second of ``--seconds``: each of a run's rounds makes
    #: round(rate × seconds / ROUNDS) ops, a fixed count.  The rates are
    #: sized so a round of a 16-second run takes about 4 s on a 2-vCPU VM;
    #: the cold workloads need rounds that short anyway, because RSS grows
    #: by about a third of a MB for every cold pair, most of it in the term
    #: kernel's arena.
    rate = 0.0

    def __init__(self, seed: int, n_ops: int, scratch: str) -> None:
        self.seed = seed
        self.n_ops = n_ops
        self.scratch = scratch
        self.ops: List[Any] = []

    def setup(self) -> None:
        """Catalog, corpus and warm-up: everything before the first op."""

    def close(self) -> None:
        """Release what :meth:`setup` started."""

    def run(self, op):
        raise NotImplementedError

    def run_traced(self, op, spans: Spans):
        raise NotImplementedError

    def judge(self, op, result) -> oracle.Outcome:
        raise NotImplementedError

    def layer_metrics(self, results: List[Any], spans: Spans
                      ) -> Dict[str, float]:
        """Per-layer counts over every op, and times from the spans."""
        return {}

    def extra_rss_kb(self) -> int:
        """Peak RSS of processes the workload started (kB)."""
        return 0

    def plan_cost_ratio(self, results: List[Any]) -> float:
        """Geometric mean of best/original plan cost (1.0: no plans)."""
        return 1.0


def _span_metrics(spans: Spans) -> Dict[str, float]:
    """Mean ms per call of the kernel-side layers, from the spans."""
    out = {"sql.compile_ms": _mean_ms(spans.durations("sql.compile")),
           "core.normalize_ms": _mean_ms(spans.durations("core.normalize"))}
    for stage in STAGES:
        out[f"pipeline.decide_ms.{stage}"] = _mean_ms(
            spans.durations(f"pipeline.decide.{stage}"))
    return out


def _verdict_counts(verdicts: List[Verdict]) -> Dict[str, float]:
    """Decided-by tallies and the work the tiers did, from verdicts."""
    out: Dict[str, float] = {}
    searches = witnesses = 0
    for v in verdicts:
        stage = "cache" if v.cached else v.stage
        key = f"pipeline.decided_by.{stage}"
        out[key] = out.get(key, 0) + 1
        if v.cached:
            continue  # the work was done (and counted) by an earlier ask
        out["prover.steps"] = out.get("prover.steps", 0) + v.engine_steps
        if v.bound is not None:
            searches += 1
            out["disprover.instances"] = (out.get("disprover.instances", 0)
                                          + v.bound.instances_checked)
        witnesses += v.status is Status.DISPROVED and v.stage == "disprover"
    out["disprover.witness_share"] = witnesses / searches if searches else 0.0
    return out


class _PairWorkload(Workload):
    """In-process equivalence checks through one local ``Session``."""

    config: Optional[PipelineConfig] = None
    #: the corpus generator (a function of ``gen``).
    generate = None

    def setup(self) -> None:
        self.session = Session.from_tables(*gen.TABLES, config=self.config)
        self.ops = self.generate(self.seed, self.n_ops)
        # Every kind on its own never-reused pairs, so lazy imports and
        # first-call set-up are paid before the timed ops.
        for pair in self.generate(self.seed, WARMUP_OPS, stream="warmup",
                                  first_const=gen.SIDE_CONST):
            self.session.check(pair.sql1, pair.sql2)
        self._dis_instances = 0
        self._dis_seconds = 0.0

    def run(self, pair: gen.Pair) -> Verdict:
        return self.session.check(pair.sql1, pair.sql2)

    def run_traced(self, pair: gen.Pair, spans: Spans) -> Verdict:
        with spans.span("sql.compile"):
            h1 = self.session.sql(pair.sql1)
        with spans.span("sql.compile"):
            h2 = self.session.sql(pair.sql2)
        with spans.span("core.normalize"):
            n1 = h1.normalized
        with spans.span("core.normalize"):
            n2 = h2.normalized
        with spans.span("pipeline.decide") as decide:
            verdict = self.session.pipeline.check_normalized(n1, n2)
        decide.name = f"pipeline.decide.{verdict.stage}"
        if verdict.stage == "disprover" and verdict.bound is not None:
            self._dis_instances += verdict.bound.instances_checked
            self._dis_seconds += decide.seconds
        return verdict

    def judge(self, pair: gen.Pair, verdict: Verdict) -> oracle.Outcome:
        return oracle.judge_verdict(
            pair, verdict, self.session.sql(pair.sql1).query,
            self.session.sql(pair.sql2).query, self.session.catalog)

    def layer_metrics(self, results, spans):
        out = _verdict_counts([r for r in results if isinstance(r, Verdict)])
        out.update(_span_metrics(spans))
        if self._dis_seconds:
            out["disprover.instances_per_s"] = (self._dis_instances
                                                / self._dis_seconds)
        return out


class VerifyCold(_PairWorkload):
    """Every seeded pair asked exactly once: the proof cache never hits."""

    name = "verify-cold"
    rate = 160.0
    generate = staticmethod(gen.verify_pairs)


class RefuteBounded(_PairWorkload):
    """Disprover-bound pairs under a raised bound of three rows a table."""

    name = "refute-bounded"
    rate = 60.0
    config = PipelineConfig(disprover_bound=Bound.of(max_rows=3))
    generate = staticmethod(gen.refute_pairs)


class OptimizeCertify(Workload):
    """Cost-based plan search plus certification of the chosen plan."""

    name = "optimize-certify"
    rate = 90.0

    def setup(self) -> None:
        self.session = Session.from_tables(*gen.TABLES)
        self.stats = TableStats(dict(gen.TABLE_ROWS))
        self.ops = gen.optimize_queries(self.seed, self.n_ops)
        for query in gen.optimize_queries(self.seed, WARMUP_OPS,
                                          stream="warmup",
                                          first_const=gen.SIDE_CONST):
            self.session.sql(query.sql).optimize(self.stats)
        self._cert_verdicts: List[Verdict] = []

    def run(self, query: gen.Query):
        plan = self.session.sql(query.sql).optimize(self.stats)
        return plan.result

    def run_traced(self, query: gen.Query, spans: Spans):
        with spans.span("sql.compile"):
            handle = self.session.sql(query.sql)
        with spans.span("optimizer.search"):
            result = optimize(handle.query, self.stats, certify=False)
        with spans.span("optimizer.certify"):
            with spans.span("core.normalize"):
                n1 = NormalizedQuery.of(handle.query)
            with spans.span("core.normalize"):
                n2 = NormalizedQuery.of(result.best_plan)
            with spans.span("pipeline.decide") as decide:
                verdict = self.session.pipeline.check_normalized(
                    n1, n2, prove_only=True)
            decide.name = f"pipeline.decide.{verdict.stage}"
        result.certified = verdict.proved
        self._cert_verdicts.append(verdict)
        return result

    def judge(self, query: gen.Query, result) -> oracle.Outcome:
        db = oracle.oracle_database(f"perfbench:db:{self.seed}:{query.sql}",
                                    query.const, self.session.catalog)
        return oracle.judge_plan(self.session.sql(query.sql).query, result,
                                 db)

    def layer_metrics(self, results, spans):
        plans = [r for r in results if not isinstance(r, BaseException)]
        # Certification verdicts are only visible on traced ops.
        out = _verdict_counts(self._cert_verdicts)
        out.update(_span_metrics(spans))
        out["optimizer.search_ms"] = _mean_ms(
            spans.durations("optimizer.search"))
        out["optimizer.certify_ms"] = _mean_ms(
            spans.durations("optimizer.certify"))
        out["optimizer.plans_explored"] = sum(r.plans_explored for r in plans)
        out["optimizer.improved_share"] = (
            sum(r.improved for r in plans) / len(plans) if plans else 0.0)
        return out

    def plan_cost_ratio(self, results):
        logs = [math.log(r.best_cost / r.original_cost) for r in results
                if not isinstance(r, BaseException) and r.original_cost > 0]
        return math.exp(sum(logs) / len(logs)) if logs else 1.0


class _ServeOp:
    __slots__ = ("kind", "pair")

    def __init__(self, kind: str, pair: gen.Pair) -> None:
        self.kind = kind
        self.pair = pair


class ServeReask(Workload):
    """One client re-asking a preloaded pool through ``repro serve``.

    The daemon is a child process with its own temporary store directory
    and a hot tier smaller than the pool, so Zipf-skewed re-asks hit the
    hot tier, fall through to the shard store, or (about 5%: never-seen
    pairs) run the pipeline and append to the store.
    """

    name = "serve-reask"
    rate = 700.0
    #: ops per preloaded pool pair: a pool of 93 on a full round (at
    #: least 40 on a smoke run); the hot tier holds 8/25 of it.
    OPS_PER_POOL_PAIR = 30
    FRESH_SHARE = 0.05
    #: pings timed after the loop (a ping between ops speeds up the op
    #: after it, which would bias the traced half).
    PINGS = 500
    proc: Optional[subprocess.Popen] = None
    session: Optional[Session] = None
    _daemon_hwm_kb = 0

    def setup(self) -> None:
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        self.pool_size = max(40, self.n_ops // self.OPS_PER_POOL_PAIR)
        self.proc, address = spawn_daemon(self.store_dir,
                                          self.pool_size * 8 // 25,
                                          self.scratch)
        self.session = Session.connect(address, *gen.TABLES, timeout=60.0)
        pool = gen.verify_pairs(self.seed, self.pool_size,
                                stream="serve-pool")
        n_fresh = round(self.FRESH_SHARE * self.n_ops)
        fresh = gen.verify_pairs(self.seed, n_fresh, stream="serve-fresh",
                                 first_const=gen.SIDE_CONST)
        fresh_iter = iter(fresh)
        self.ops = [_ServeOp("pool", pool[r]) if r >= 0
                    else _ServeOp("fresh", next(fresh_iter))
                    for r in gen.reask_stream(self.seed, self.n_ops,
                                              self.pool_size, n_fresh)]
        for pair in pool:  # preload: every pool pair stored once
            self.session.check(pair.sql1, pair.sql2)
        self._seen = {text for p in pool for text in (p.sql1, p.sql2)}
        self._before = self.session.remote.stats()

    def close(self) -> None:
        if self.proc is None:
            return
        self._daemon_hwm_kb = _hwm_kb(self.proc.pid)
        try:
            if self.session is not None:
                self.session.remote.shutdown()
        except Exception:  # the daemon may be gone already; killed below
            pass
        stop_daemon(self.proc)
        self.proc = self.session = None
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def run(self, op: _ServeOp) -> Verdict:
        return self.session.check(op.pair.sql1, op.pair.sql2)

    def run_traced(self, op: _ServeOp, spans: Spans) -> Verdict:
        # Session.check compiles both texts locally first; a text seen
        # before is a memo lookup (its token key is still computed).
        for text in (op.pair.sql1, op.pair.sql2):
            fresh = text not in self._seen
            self._seen.add(text)
            with spans.span("sql.compile" if fresh else "sql.lookup"):
                self.session.sql(text)
        with spans.span("serve.rtt") as rtt:
            detail = self.session.remote.check_detail(
                op.pair.sql1, op.pair.sql2, tables=gen.TABLES)
            spans.child("serve.daemon", detail["wall_seconds"])
        rtt.name = "serve.rtt.hit" if detail["cached"] else "serve.rtt.miss"
        verdict = Verdict.from_dict(detail["verdict"])
        verdict.cached = bool(detail["cached"])
        return verdict

    def judge(self, op: _ServeOp, verdict: Verdict) -> oracle.Outcome:
        s = self.session
        return oracle.judge_verdict(op.pair, verdict,
                                    s.sql(op.pair.sql1).query,
                                    s.sql(op.pair.sql2).query, s.catalog)

    def layer_metrics(self, results, spans):
        after = self.session.remote.stats()
        pings = []
        for _ in range(self.PINGS):
            started = perf_counter()
            self.session.remote.ping()
            pings.append(perf_counter() - started)
        out = _verdict_counts([r for r in results if isinstance(r, Verdict)])
        out.update(_span_metrics(spans))
        hits = spans.durations("serve.rtt.hit")
        misses = spans.durations("serve.rtt.miss")
        daemon = spans.durations("serve.daemon")
        out["serve.ping_rtt_ms"] = 1e3 * median(pings)
        out["serve.daemon_ms"] = _mean_ms(daemon)
        out["serve.framing_ms"] = _mean_ms(hits + misses) - _mean_ms(daemon)
        out["serve.hit_rtt_ms"] = _mean_ms(hits)
        out["serve.miss_rtt_ms"] = _mean_ms(misses)
        d_hits = after["cache"]["hits"] - self._before["cache"]["hits"]
        d_miss = after["cache"]["misses"] - self._before["cache"]["misses"]
        out["serve.hit_share"] = (d_hits / (d_hits + d_miss)
                                  if d_hits + d_miss else 0.0)
        out["serve.pipeline_runs"] = (
            after["server"]["pipeline_runs_total"]
            - self._before["server"]["pipeline_runs_total"])
        out["serve.hot_entries"] = after["cache"]["hot_entries"]
        return out

    def extra_rss_kb(self) -> int:
        if self.proc is not None:
            return _hwm_kb(self.proc.pid)
        return self._daemon_hwm_kb


# -- the daemon child process -----------------------------------------------

def spawn_daemon(store_dir: str, hot_size: int, scratch: str
                 ) -> Tuple[subprocess.Popen, str]:
    """Start ``repro serve`` on an ephemeral port; return it and its
    address, read from its ``listening on`` line (no polling)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
           "--port", "0", "--store-dir", store_dir,
           "--hot-size", str(hot_size), "--workers", "1"]
    for spec in gen.TABLES:
        cmd += ["--table", spec]
    with open(os.path.join(scratch, "daemon.log"), "ab") as log:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                                env=env, cwd=str(ROOT))
    try:
        line = _read_line(proc, timeout=60.0)
        marker = "listening on "
        if marker not in line:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        return proc, line.split(marker, 1)[1].strip()
    except BaseException:
        proc.kill()
        stop_daemon(proc)
        raise


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    """The child's first stdout line, waiting at most ``timeout`` s."""
    fd = proc.stdout.fileno()
    buf = b""
    while b"\n" not in buf:
        ready, _, _ = select.select([fd], [], [], timeout)
        if not ready:
            raise RuntimeError("repro serve printed nothing in time")
        chunk = os.read(fd, 4096)
        if not chunk:
            break  # the child exited before printing a full line
        buf += chunk
    return buf.split(b"\n", 1)[0].decode(errors="replace")


def stop_daemon(proc: subprocess.Popen) -> None:
    """Wait for the daemon to exit after ``shutdown``; kill it if not."""
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)
    finally:
        if proc.stdout is not None:
            proc.stdout.close()


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


WORKLOADS = {w.name: w for w in (VerifyCold, ServeReask, OptimizeCertify,
                                 RefuteBounded)}

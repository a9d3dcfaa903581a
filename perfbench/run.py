#!/usr/bin/env python3
"""Run one perfbench workload (or all of them) and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 16
    python3 perfbench/run.py --workload serve-reask --seed 1 --trace 1
    python3 perfbench/run.py --all --seed 1            # one row a workload
    python3 perfbench/run.py --all --seed 1 --trace 1  # per-layer table

A run is ``ROUNDS`` rounds, each a fresh process that sets up and then
makes the same fixed number of ops, ``rate × --seconds / ROUNDS`` (each
workload's rate is sized so the rounds together take about
``--seconds``), generated from ``--seed``.  A round is a closed loop: one
client, the next op sent when the previous one has returned.  The last
line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: with ``--trace 0`` the end-to-end metrics over
every round, with ``--trace 1`` the per-layer metrics of one traced round
(see ``perfbench/README.md``).
"""

import time

T_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
#: Fresh processes an untraced run is made of.  Each repeats the same
#: ops cold, so the host's slow stretches are averaged over four spells
#: and the process's memory stays that of one round; ``setup_s`` is the
#: median of the four set-ups.  A traced run is one round.
ROUNDS = 4
#: A round that takes longer than this is killed and the run fails.
ROUND_TIMEOUT_S = 150
WORKLOAD_NAMES = ("verify-cold", "serve-reask", "optimize-certify",
                  "refute-bounded")

#: End-to-end metric → unit (every workload reports every one).
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "decided_share": "fraction",
    "ok_share": "fraction",
    "peak_rss_mb": "MB",
    "plan_cost_ratio": "ratio",
}


def _load_workloads():
    """Import the workloads against this checkout's ``src/repro`` only."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program to measure (src/repro is missing)",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}",
              file=sys.stderr)
        sys.exit(2)
    return workloads


def _pin_cpu():
    """Pin this process (and every child it starts) to one CPU: the serve
    client and daemon then share it, and neither migrates mid-run."""
    if not hasattr(os, "sched_setaffinity"):
        return
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def percentile(ordered, q):
    """Linear-interpolated ``q``-quantile of an ascending list."""
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _trace_flags(workload):
    """Traced ops alternate within each op kind, so the traced and the
    untraced half of a traced run have the same mix."""
    seen, flags = {}, []
    for op in workload.ops:
        flags.append(seen.get(op.kind, 0) % 2 == 1)
        seen[op.kind] = seen.get(op.kind, 0) + 1
    return flags


def _timed_loop(workload, flags, spans):
    """Run every op; returns results, per-op latencies and start times,
    and the time the last op ended."""
    results, latencies, starts = [], [], []
    # Cyclic GC stays on: the program's users pay for it too.  Set-up's
    # garbage is collected first and what survives is frozen, so the
    # loop's collections scan only what the ops allocate.
    gc.collect()
    gc.freeze()
    for op, traced in zip(workload.ops, flags):
        started = time.perf_counter()
        starts.append(started)
        try:
            if traced:
                with spans.span("bench.op"):
                    result = workload.run_traced(op, spans)
            else:
                result = workload.run(op)
        except Exception as exc:  # a failed op is counted, not fatal
            result = exc
        latencies.append(time.perf_counter() - started)
        results.append(result)
    end = time.perf_counter()
    return results, latencies, starts, end


def run_round(args):
    """One round in this process: set up, run every op once, judge the
    results.  Untraced, the last line is the round's raw record; traced,
    the per-layer table and the run's result line."""
    # SIGTERM unwinds like an exception, so the finally below still stops
    # the serve daemon and removes the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workloads = _load_workloads()
    from perfbench.spans import Spans, self_time_table

    cls = workloads.WORKLOADS[args.workload]
    n_ops = max(1, round(cls.rate * args.seconds / ROUNDS))
    _pin_cpu()
    SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=str(SCRATCH))
    workload = cls(args.seed, n_ops, scratch)
    spans = Spans()
    try:
        workload.setup()
        setup_s = time.perf_counter() - T_START
        flags = (_trace_flags(workload) if args.trace
                 else [False] * len(workload.ops))
        results, latencies, starts, end = _timed_loop(workload, flags,
                                                      spans)
        rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  + workload.extra_rss_kb())
        layers = workload.layer_metrics(results, spans) if args.trace else {}
        outcomes = []
        for op, result in zip(workload.ops, results):
            if isinstance(result, Exception):
                outcomes.append(workloads.oracle.raised(result))
            else:
                outcomes.append(workload.judge(op, result))
        plan_ratio = workload.plan_cost_ratio(results)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(o.failed for o in outcomes)
    for op, outcome in zip(workload.ops, outcomes):
        if outcome.failed:
            print(f"FAILED {op.kind}: {outcome.note}", file=sys.stderr)
    if not args.trace:
        print(json.dumps({
            "setup_s": setup_s,
            "timed_s": end - starts[0],
            "latencies": latencies,
            "attempted": len(outcomes),
            "failed": failed,
            "decided": sum(o.decided for o in outcomes),
            "rss_kb": rss_kb,
            "plan_cost_ratio": plan_ratio,
        }))
        return 0

    traced = [lat for lat, f in zip(latencies, flags) if f]
    plain = [lat for lat, f in zip(latencies, flags) if not f]
    values = {name: 0.0 for name in workloads.PER_LAYER_UNITS}
    values.update(layers)
    values["bench.tracing_overhead"] = (
        (len(traced) / sum(traced)) / (len(plain) / sum(plain))
        if traced and plain else 1.0)
    values["bench.failed_share"] = failed / len(outcomes)
    OUT.mkdir(exist_ok=True)
    spans.dump(str(OUT / f"spans-{args.workload}-seed{args.seed}.json"))
    print(f"perfbench {args.workload}: seed {args.seed}, 1 traced round "
          f"of {len(outcomes)} ops")
    print(self_time_table(
        spans, title=f"self time over {len(traced)} traced ops"))
    _report(values, workloads.PER_LAYER_UNITS, len(outcomes), failed)
    return 0


def _report(values, units, attempted, failed):
    for name, value in values.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))


def _spawn_round(args, capture):
    """Run one round in a fresh process and wait for it; on any way out
    (a timeout, SIGTERM) the round is terminated, which stops its daemon,
    and waited for."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--round"]
    proc = subprocess.Popen(cmd, cwd=str(ROOT), text=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except BaseException:
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        raise
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    return out


def run_one(args):
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.trace:  # the round prints the table and the result itself
        _spawn_round(args, capture=False)
        return 0
    rounds = [json.loads(_spawn_round(args, capture=True).splitlines()[-1])
              for _ in range(ROUNDS)]
    # Every round makes the same ops, so an op has ROUNDS latencies; its
    # median is its latency, which a pause or a burst of outside noise in
    # one round does not move.  (Pooled, the rare hit of that kind set
    # optimize-certify's p99: 26 to 40 ms across seeds.)
    latencies = sorted(statistics.median(lats) for lats in
                       zip(*(r["latencies"] for r in rounds)))
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "ops_per_s": attempted / sum(r["timed_s"] for r in rounds),
        **{f"latency_p{q}_ms": 1e3 * percentile(latencies, q / 100)
           for q in (50, 90, 99)},
        "decided_share": sum(r["decided"] for r in rounds) / attempted,
        "ok_share": 1 - failed / attempted,
        "peak_rss_mb": max(r["rss_kb"] for r in rounds) / 1024,
        "plan_cost_ratio": statistics.geometric_mean(
            r["plan_cost_ratio"] for r in rounds),
    }
    print(f"perfbench {args.workload}: seed {args.seed}, {ROUNDS} rounds "
          f"of {attempted // ROUNDS} ops, closed loop, 1 client, "
          f"pinned to one CPU")
    _report(values, END_TO_END_UNITS, attempted, failed)
    return 0


def run_all(args):
    """Each workload in its own fresh process; one row per workload."""
    reports = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=str(ROOT), capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        reports[name] = json.loads(lines[-1])
    metric_names = list(reports[WORKLOAD_NAMES[0]]["metrics"])
    width = max(len(m) for m in metric_names) + 2
    print()
    print(f"{'metric':<{width}} {'unit':<9}"
          + "".join(f"{name:>18}" for name in WORKLOAD_NAMES))
    for metric in metric_names:
        unit = reports[WORKLOAD_NAMES[0]]["metrics"][metric]["unit"]
        print(f"{metric:<{width}} {unit:<9}" + "".join(
            f"{reports[n]['metrics'][metric]['value']:>18.6g}"
            for n in WORKLOAD_NAMES))
    print(f"{'correct':<{width}} {'':<9}" + "".join(
        f"{str(reports[n]['correct']):>18}" for n in WORKLOAD_NAMES))
    return 0 if all(r["correct"] for r in reports.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=WORKLOAD_NAMES)
    target.add_argument("--all", action="store_true",
                        help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16,
                        help="run length: sizes the fixed op count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--round", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    return run_round(args) if args.round else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

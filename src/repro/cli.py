"""Command-line interface.

Usage (``python -m repro <command>``):

* ``check --table 'R(a:int,b:int)' SQL1 SQL2`` — run the tiered decision
  pipeline on two SQL queries: PROVED / DISPROVED (with a replayable
  counterexample) / UNKNOWN (with a "no counterexample up to bound"
  guarantee),
* ``batch-check JOBS.json`` — verify a whole batch of query pairs through
  the caching, multiprocessing verification service,
* ``disprove RULE | SQL1 SQL2`` — bounded-exhaustive counterexample
  search only,
* ``optimize --table 'R(a:int,b:int)' SQL`` — certified plan search
  (equality saturation under ``--max-plans`` e-nodes and
  ``--iterations`` rounds): prints the winning rewrite chain, the cost
  tree, and the prover certificate,
* ``explain --table 'R(a:int,b:int)' SQL`` — the EXPLAIN cost tree of a
  query as written (no rewriting),
* ``prove RULE`` — run one library rule through the pipeline (by name),
* ``prove-all`` — verify the Figure 8 corpus through the batch service,
* ``rules`` — list every rule with category and status metadata,
* ``stats [--json]`` — dump the observability layer's metrics registry,
* ``serve --store-dir DIR`` — run the long-lived verification daemon
  (newline-delimited JSON over TCP, sharded on-disk proof store,
  in-flight dedup; see :mod:`repro.serve`),
* ``client [--addr HOST:PORT] check|batch-check|stats|ping|shutdown`` —
  talk to a running daemon.

Observability: every subcommand takes ``--log-level`` (the ``repro``
logging hierarchy; DEBUG logs span open/close), and ``check`` /
``batch-check`` / ``optimize`` take ``--trace-out FILE`` to export a
Chrome trace-event JSON of the run (loadable in ``chrome://tracing`` or
https://ui.perfetto.dev).

The CLI is a thin veneer over :class:`repro.session.Session` — each
command opens one session (catalog + pipeline + proof cache + worker
pool) and returns a process exit code (0 = equivalent/verified) so it
can script into CI pipelines.  ``--cache DIR`` layers the proof cache
over a shard store directory, the same layout ``serve --store-dir``
uses: every verdict is durable when it is decided, and a later command
or daemon on the same directory answers it without re-proving.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .errors import ReproError
from .obs.logs import configure_logging
from .obs.metrics import REGISTRY
from .obs.trace import trace_to_file
from .optimizer import TableStats
from .rules import (
    CATEGORY_ORDER,
    all_buggy_rules,
    all_extended_rules,
    all_rules,
    get_rule,
    rules_by_category,
)
from .session import (
    QueryHandle,
    Session,
    SessionError,
    TableSpecError,
    parse_table_spec as _parse_table_spec,
)
from .solver import Bound, Job, PipelineConfig, Status, disprove_rule


class CLIError(ReproError):
    """Raised for malformed CLI input; rendered as an error message."""


def parse_table_spec(spec: str) -> tuple:
    """Parse ``R(a:int,b:int)`` into a (name, columns) pair."""
    try:
        return _parse_table_spec(spec)
    except TableSpecError as exc:
        raise CLIError(str(exc)) from exc


def _bound_from_args(args: argparse.Namespace) -> Bound:
    max_rows = getattr(args, "max_rows", 2)
    max_mult = getattr(args, "max_mult", 2)
    if max_rows < 1 or max_mult < 1:
        raise CLIError(f"disprover bounds must be positive, got "
                       f"--max-rows {max_rows} --max-mult {max_mult}")
    return Bound.of(max_rows=max_rows, max_multiplicity=max_mult)


def _workers_from_args(args: argparse.Namespace):
    workers = getattr(args, "workers", None)
    if workers is not None and workers < 1:
        raise CLIError(f"--workers must be at least 1, got {workers}")
    return workers


def _session_from_args(args: argparse.Namespace) -> Session:
    """One Session per command: catalog + pipeline + cache + workers."""
    config = PipelineConfig(disprover_bound=_bound_from_args(args))
    try:
        session = Session(config=config, cache=getattr(args, "cache", None),
                          workers=_workers_from_args(args))
    except SessionError as exc:
        raise CLIError(str(exc)) from exc
    for spec in (getattr(args, "table", None) or []):
        try:
            session.add_table(spec)
        except ReproError as exc:
            raise CLIError(str(exc)) from exc
    return session


def _handle(session: Session, sql: str) -> QueryHandle:
    try:
        return session.sql(sql)
    except ReproError as exc:  # lex/parse/resolve errors become CLI errors
        raise CLIError(f"cannot compile {sql!r}: {exc}") from exc


def _render_verdict(verdict) -> str:
    words = {
        Status.PROVED: "PROVED — queries are EQUIVALENT",
        Status.DISPROVED: "DISPROVED — queries are NOT equivalent",
        Status.UNKNOWN: "UNKNOWN — not proved, no counterexample found",
    }
    lines = [f"{words[verdict.status]}  (stage: {verdict.stage}"
             f"{', cached' if verdict.cached else ''}, "
             f"{verdict.engine_steps} engine steps, "
             f"{verdict.total_seconds * 1e3:.1f} ms)"]
    if verdict.detail:
        lines.append(verdict.detail)
    if verdict.counterexample is not None:
        lines.append(verdict.counterexample.describe())
    if verdict.status is Status.UNKNOWN:
        if verdict.bound is not None and verdict.bound.exhausted:
            lines.append("no counterexample up to bound "
                         + verdict.bound.describe())
        lines.append("note: the prover is sound but incomplete; "
                     "UNKNOWN is not a disproof")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _render_verbose(verdict, session) -> str:
    """Stage timings + interned-kernel counters (``check --verbose``)."""
    lines = ["stage timings:"]
    for stage, seconds in verdict.timings.items():
        lines.append(f"  {stage:<12} {seconds * 1e3:8.3f} ms")
    lines.append("kernel counters:")
    for key, value in verdict.kernel_counters.items():
        lines.append(f"  {key:<18} {value}")
    stats = session.kernel_stats()
    lines.append("process-wide kernel:")
    for key in ("interned_nodes", "intern_hits", "intern_misses",
                "normalize_hits", "normalize_misses", "denote_hits",
                "denote_misses"):
        if key in stats:
            lines.append(f"  {key:<18} {stats[key]}")
    lines.append(f"  proof cache        {stats['proof_cache_entries']} "
                 f"entr{'y' if stats['proof_cache_entries'] == 1 else 'ies'}, "
                 f"hit rate {stats['proof_cache_hit_rate']:.0%}")
    return "\n".join(lines)


def cmd_check(args: argparse.Namespace) -> int:
    with _session_from_args(args) as session:
        lhs = _handle(session, args.sql1)
        rhs = _handle(session, args.sql2)
        try:
            verdict = lhs.equivalent_to(rhs)
        except ValueError as exc:
            # e.g. the two queries have different output schemas
            raise CLIError(str(exc)) from exc
        print(_render_verdict(verdict))
        if getattr(args, "verbose", False):
            print(_render_verbose(verdict, session))
        return 0 if verdict.proved else 1


def cmd_batch_check(args: argparse.Namespace) -> int:
    try:
        with open(args.jobs, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CLIError(f"cannot read jobs file {args.jobs!r}: {exc}") from exc
    if not isinstance(spec, dict) or "pairs" not in spec:
        raise CLIError('jobs file must be {"tables": [...], "pairs": '
                       '[[SQL1, SQL2], ...]}')
    args.table = spec.get("tables", [])
    with _session_from_args(args) as session:
        jobs = []
        for i, pair in enumerate(spec["pairs"]):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise CLIError(f"pair #{i} is not a [SQL1, SQL2] list")
            q1 = _handle(session, pair[0]).query
            q2 = _handle(session, pair[1]).query
            jobs.append(Job(job_id=f"job{i}", q1=q1, q2=q2))
        try:
            report = session.check_batch(jobs)
        except ValueError as exc:
            # e.g. a pair whose two queries have different output schemas
            raise CLIError(f"batch failed: {exc}") from exc
        for i, pair in enumerate(spec["pairs"]):
            verdict = report.verdicts[f"job{i}"]
            flags = "cached" if verdict.cached else f"stage={verdict.stage}"
            print(f"{verdict.status.value:10s} [{flags}] "
                  f"{pair[0]}  ≟  {pair[1]}")
        print(report.summary())
        return 0 if all(v.proved for v in report.verdicts.values()) else 1


def _stats_from_args(args: argparse.Namespace) -> TableStats:
    """``--rows R=100`` declarations → the cost model's TableStats."""
    cardinalities = {}
    for spec in (getattr(args, "rows", None) or []):
        name, sep, value = spec.partition("=")
        name = name.strip()
        if not sep or not name:
            raise CLIError(f"malformed --rows {spec!r} "
                           f"(expected TABLE=CARDINALITY)")
        try:
            cardinalities[name] = float(value)
        except ValueError as exc:
            raise CLIError(f"malformed --rows {spec!r}: {exc}") from exc
        # NaN/inf would poison every cost comparison downstream (all
        # NaN comparisons are False, so Pareto pruning picks garbage).
        if not (0 <= cardinalities[name] < float("inf")):
            raise CLIError(f"--rows {spec!r}: cardinality must be a "
                           f"finite number >= 0")
    return TableStats(cardinalities)


def cmd_optimize(args: argparse.Namespace) -> int:
    if args.max_plans < 1:
        raise CLIError(f"--max-plans must be at least 1, got "
                       f"{args.max_plans}")
    if args.iterations is not None and args.iterations < 1:
        raise CLIError(f"--iterations must be at least 1, got "
                       f"{args.iterations}")
    with _session_from_args(args) as session:
        handle = _handle(session, args.sql)
        try:
            plan = handle.optimize(
                _stats_from_args(args), max_plans=args.max_plans,
                iterations=args.iterations, certify=not args.no_certify)
        except ReproError as exc:
            raise CLIError(str(exc)) from exc
        print(plan.explain())
        if args.sql_out:
            try:
                print(f"\noptimized SQL      : {plan.sql()}")
            except ReproError as exc:
                print(f"\noptimized SQL      : (not renderable: {exc})")
        # 0 = certified (or certification skipped on request); 1 = the
        # belt-and-braces proof failed, which should never happen.
        return 0 if plan.certified is not False else 1


def cmd_explain(args: argparse.Namespace) -> int:
    with _session_from_args(args) as session:
        handle = _handle(session, args.sql)
        print(handle.explain(_stats_from_args(args)))
        return 0


def cmd_disprove(args: argparse.Namespace) -> int:
    bound = _bound_from_args(args)
    if len(args.target) == 1:
        try:
            rule = get_rule(args.target[0])
        except KeyError as exc:
            raise CLIError(str(exc)) from exc
        result = disprove_rule(rule, bound=bound)
        label = f"rule {rule.name!r}"
    elif len(args.target) == 2:
        with _session_from_args(args) as session:
            q1 = _handle(session, args.target[0])
            result = q1.disprove(_handle(session, args.target[1]),
                                 bound=bound, max_instances=None)
        label = "query pair"
    else:
        raise CLIError("disprove takes a rule name or exactly two SQL "
                       "queries")
    if result.found:
        print(f"DISPROVED {label} "
              f"(instance #{result.instances_checked})")
        if result.record is not None:
            print(result.record.describe())
        else:
            print(result.counterexample.describe())
        return 0
    coverage = "exhausted" if result.exhausted else "budget hit"
    print(f"NO COUNTEREXAMPLE for {label} up to "
          f"{bound.max_rows} rows × {bound.max_multiplicity} multiplicity "
          f"({result.instances_checked} instances, {coverage})")
    return 1


def cmd_prove(args: argparse.Namespace) -> int:
    try:
        rule = get_rule(args.rule)
    except KeyError as exc:
        raise CLIError(str(exc)) from exc
    with _session_from_args(args) as session:
        verdict = session.pipeline.check_rule(rule)
        status = "VERIFIED" if verdict.proved else "REJECTED"
        print(f"{rule.name} [{rule.category}]: {status} "
              f"(stage: {verdict.stage}, {verdict.engine_steps} steps, "
              f"{verdict.total_seconds * 1e3:.1f} ms)")
        print(f"  {rule.description}")
        if verdict.counterexample is not None:
            print(verdict.counterexample.describe())
        return 0 if verdict.proved == rule.sound else 1


def cmd_prove_all(args: argparse.Namespace) -> int:
    with _session_from_args(args) as session:
        by_category = rules_by_category()
        ordered = [rule for category in CATEGORY_ORDER
                   for rule in by_category[category]]
        buggy = list(all_buggy_rules())
        report = session.check_rules(ordered + buggy)
        failures = 0
        for rule in ordered:
            verdict = report.verdicts[rule.name]
            status = "VERIFIED" if verdict.proved else "FAILED"
            print(f"{status:9s} {rule.category:12s} {rule.name:30s} "
                  f"{verdict.engine_steps:5d} steps  [{verdict.stage}]")
            failures += not verdict.proved
        for rule in buggy:
            verdict = report.verdicts[rule.name]
            status = "REJECTED" if not verdict.proved else "ACCEPTED?!"
            marker = ("counterexample found" if verdict.disproved
                      else verdict.status.value)
            print(f"{status:9s} {'buggy':12s} {rule.name:30s} [{marker}]")
            failures += verdict.proved
        print(f"\n{23 - failures if failures <= 23 else 0}/23 core rules "
              f"verified; unsound rules "
              f"{'all rejected' if failures == 0 else 'NOT all rejected'}")
        print(report.summary())
        return 0 if failures == 0 else 1


def cmd_stats(args: argparse.Namespace) -> int:
    """Dump the process-wide metrics registry (``repro stats``).

    A fresh process reports the metric families at zero — the command is
    primarily a schema reference and a scripting hook: run it after
    ``--trace-out``/batch work in the same process (the Python API), or
    use ``--json`` in CI to smoke-test that the registry serializes.
    """
    from .core.intern import kernel_stats
    # CI smoke-asserts the ``interned_nodes`` and ``normalize_hits`` keys.
    kernel = kernel_stats()
    snapshot = REGISTRY.snapshot()
    if args.json:
        print(json.dumps({"metrics": snapshot, "kernel": kernel},
                         indent=2, sort_keys=True))
        return 0
    print("counters:")
    for name in sorted(snapshot["counters"]):
        print(f"  {name:<44} {snapshot['counters'][name]:.0f}")
    print("gauges:")
    for name in sorted(snapshot["gauges"]):
        print(f"  {name:<44} {snapshot['gauges'][name]:g}")
    print("histograms:")
    for name in sorted(snapshot["histograms"]):
        data = snapshot["histograms"][name]
        mean = data["sum"] / data["count"] if data["count"] else 0.0
        print(f"  {name:<44} {data['count']:6d} obs, mean {mean:.6g}")
    print("kernel:")
    for key, value in sorted(kernel.items()):
        print(f"  {key:<44} {value}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the verification daemon until SIGTERM/SIGINT (``repro serve``)."""
    import signal
    import threading

    from .serve.server import ReproServer, ServeError

    try:
        server = ReproServer(
            host=args.host, port=args.port,
            tables=args.table or (),
            store_dir=args.store_dir, shards=args.shards,
            workers=args.workers, max_inflight=args.max_inflight,
            hot_size=args.hot_size,
            config=PipelineConfig(disprover_bound=_bound_from_args(args)))
    except (ServeError, OSError, ReproError) as exc:
        raise CLIError(f"cannot start serve daemon: {exc}") from exc

    def _drain(signum, frame):
        # shutdown() joins the serve loop, so it must not run on the
        # main thread that is inside serve_forever().
        threading.Thread(target=server.shutdown, kwargs={"drain": True},
                         name="repro-serve-signal", daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    host, port = server.address
    print(f"repro serve listening on {host}:{port}", flush=True)
    if args.store_dir:
        print(f"proof store: {args.store_dir} "
              f"({server.store.shards} shard(s))", flush=True)
    server.serve_forever()
    # serve_forever returns once shutdown() has stopped the accept loop;
    # shutdown() itself drains the worker pool before returning.
    server.shutdown(drain=True)
    print("repro serve stopped", flush=True)
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    """Talk to a running daemon (``repro client <verb>``)."""
    from .serve.client import ServeClient, ServeClientError

    try:
        with ServeClient(args.addr, timeout=args.timeout,
                         connect_retries=args.retries) as client:
            if args.verb == "ping":
                result = client.request("ping")
                print(f"pong from {args.addr} "
                      f"(uptime {result['uptime_seconds']:.1f}s)")
                return 0
            if args.verb == "check":
                detail = client.check_detail(args.sql1, args.sql2,
                                             tables=args.table)
                from .solver.verdict import Verdict
                verdict = Verdict.from_dict(detail["verdict"])
                verdict.cached = bool(detail.get("cached"))
                print(_render_verdict(verdict))
                print(f"dedup role: {detail['dedup']}, server wall "
                      f"{detail['wall_seconds'] * 1e3:.1f} ms")
                return 0 if verdict.proved else 1
            if args.verb == "batch-check":
                try:
                    with open(args.jobs, "r", encoding="utf-8") as handle:
                        spec = json.load(handle)
                except (OSError, json.JSONDecodeError) as exc:
                    raise CLIError(f"cannot read jobs file "
                                   f"{args.jobs!r}: {exc}") from exc
                if not isinstance(spec, dict) or "pairs" not in spec:
                    raise CLIError('jobs file must be {"tables": [...], '
                                   '"pairs": [[SQL1, SQL2], ...]}')
                verdicts = client.batch_check(
                    spec["pairs"], tables=spec.get("tables"))
                for pair, verdict in zip(spec["pairs"], verdicts):
                    flags = ("cached" if verdict.cached
                             else f"stage={verdict.stage}")
                    print(f"{verdict.status.value:10s} [{flags}] "
                          f"{pair[0]}  ≟  {pair[1]}")
                return 0 if all(v.proved for v in verdicts) else 1
            if args.verb == "stats":
                print(json.dumps(client.stats(), indent=2, sort_keys=True))
                return 0
            if args.verb == "shutdown":
                client.shutdown()
                print("daemon is draining")
                return 0
            raise CLIError(f"unknown client verb {args.verb!r}")
    except ServeClientError as exc:
        raise CLIError(f"[{exc.code}] {exc}") from exc


def cmd_rules(args: argparse.Namespace) -> int:
    print(f"{'name':<32}{'category':<14}{'paper ref':<24}")
    print("-" * 70)
    for rule in all_rules() + all_extended_rules() + all_buggy_rules():
        marker = "" if rule.sound else "  [UNSOUND CONTROL]"
        print(f"{rule.name:<32}{rule.category:<14}"
              f"{rule.paper_ref:<24}{marker}")
    return 0


#: ``repro lint`` corpus selectors, in display order.
_LINT_CORPORA = (
    ("basic", all_rules),
    ("extended", all_extended_rules),
    ("buggy", all_buggy_rules),
)


def cmd_lint(args: argparse.Namespace) -> int:
    """Static rule-soundness linter over the rewrite corpora.

    Exit status is the CI contract: 0 iff every rule annotated with an
    ``expected_defect`` is flagged with that code, AND no *unannotated*
    rule draws an ERROR-severity diagnostic (warnings are allowed — the
    test suite pins their exact set).
    """
    from .analysis import lint_rules

    selected = [(name, factory) for name, factory in _LINT_CORPORA
                if args.corpus in ("all", name)]
    failures: List[str] = []
    payload = {}
    for name, factory in selected:
        rules = list(factory())
        report = lint_rules(rules)
        payload[name] = report.to_dict()
        for rule in rules:
            codes = set(report.codes_for(rule.name))
            error_codes = {d.code for d in report.errors
                           if d.rule == rule.name}
            expected = getattr(rule, "expected_defect", None)
            if expected is not None and expected.code not in codes:
                failures.append(
                    f"{rule.name}: expected {expected.code} "
                    f"({expected.reason}) but the linter reported "
                    f"{sorted(codes) or 'nothing'}")
            if expected is None and error_codes:
                failures.append(
                    f"{rule.name}: unexpected error diagnostics "
                    f"{sorted(error_codes)} on a rule not annotated "
                    f"as defective")
        if not args.json:
            print(f"corpus {name}: {report.rules_checked} rules, "
                  f"{len(report.errors)} errors, "
                  f"{len(report.warnings)} warnings")
            for diag in report.diagnostics:
                print(f"  {diag}")
    if args.json:
        print(json.dumps({"corpora": payload, "failures": failures},
                         indent=2, sort_keys=True))
    elif failures:
        print("lint contract violations:")
        for line in failures:
            print(f"  {line}")
    else:
        print("lint contract holds: every annotated defect reproduced, "
              "no stray errors")
    return 1 if failures else 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Infer static plan properties for a SQL query (``repro analyze``)."""
    from .analysis import AnalysisContext, infer_properties
    from .analysis.infer import supports_determined

    with _session_from_args(args) as session:
        handle = _handle(session, args.sql)
        ctx = AnalysisContext(keyed=tuple(sorted(set(args.key or ()))))
        props = infer_properties(handle.query, ctx)
        if args.json:
            out = props.to_dict()
            out["supports_determined"] = supports_determined(handle.query)
            out["keyed_tables"] = list(ctx.keyed)
            print(json.dumps(out, indent=2, sort_keys=True))
            return 0
        print(f"query: {args.sql}")
        if ctx.keyed:
            print(f"keyed tables: {', '.join(ctx.keyed)}")
        print(f"  set-valued (duplicate-free): {props.set_valued}")
        print(f"  statically empty:            {props.empty}")
        print(f"  keys:                        "
              f"{', '.join('.'.join(k) or '<row>' for k in sorted(props.keys)) or '-'}")
        print(f"  cardinality:                 {props.card}")
        print(f"  support-determined:          "
              f"{supports_determined(handle.query)}")
        return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_cache_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache", metavar="DIR", default=None,
                        help="proof store directory (created if missing; "
                             "the layout serve --store-dir uses): every "
                             "verdict is stored when it is decided, and "
                             "later runs answer it from there")


def _add_obs_options(parser: argparse.ArgumentParser,
                     trace: bool = False) -> None:
    parser.add_argument("--log-level", metavar="LEVEL", default=None,
                        help="enable repro's logging hierarchy at this "
                             "level (DEBUG logs every span open/close)")
    if trace:
        parser.add_argument("--trace-out", metavar="FILE", default=None,
                            help="write a Chrome trace-event JSON of this "
                                 "run (load in chrome://tracing or "
                                 "ui.perfetto.dev)")


def _add_bound_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-rows", type=int, default=2, metavar="K",
                        help="disprover bound: max rows per table "
                             "(default 2)")
    parser.add_argument("--max-mult", type=int, default=2, metavar="M",
                        help="disprover bound: max multiplicity per row "
                             "(default 2)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HoTTSQL reproduction — prove SQL query rewrites.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide equivalence of two "
                                         "SQL queries (tiered pipeline)")
    check.add_argument("--table", action="append", metavar="SPEC",
                       help="table declaration, e.g. 'R(a:int,b:int)' "
                            "(repeatable)")
    check.add_argument("sql1")
    check.add_argument("sql2")
    check.add_argument("--verbose", action="store_true",
                       help="print stage timings and interned-kernel "
                            "counters (normalize memo hits/misses, live "
                            "interned nodes) alongside the verdict")
    _add_cache_option(check)
    _add_bound_options(check)
    _add_obs_options(check, trace=True)
    check.set_defaults(fn=cmd_check)

    batch = sub.add_parser("batch-check",
                           help="verify a JSON batch of query pairs "
                                "through the parallel service")
    batch.add_argument("jobs", help='JSON file: {"tables": [...], '
                                    '"pairs": [[SQL1, SQL2], ...]}')
    batch.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: auto)")
    _add_cache_option(batch)
    _add_bound_options(batch)
    _add_obs_options(batch, trace=True)
    batch.set_defaults(fn=cmd_batch_check)

    optimize_p = sub.add_parser(
        "optimize", help="certified plan search: saturate the rewrite "
                         "space, extract the cheapest plan, prove it "
                         "equivalent")
    optimize_p.add_argument("sql", help="the SQL query to optimize")
    optimize_p.add_argument("--table", action="append", metavar="SPEC",
                            help="table declaration, e.g. 'R(a:int,b:int)' "
                                 "(repeatable)")
    optimize_p.add_argument("--max-plans", type=int, default=400,
                            metavar="N",
                            help="saturation e-node budget (default 400)")
    optimize_p.add_argument("--iterations", type=int, default=None,
                            metavar="N",
                            help="saturation iteration budget (rewrite "
                                 "depth; default 12)")
    optimize_p.add_argument("--rows", action="append", metavar="TABLE=N",
                            help="base-table cardinality for the cost "
                                 "model (repeatable; default 100)")
    optimize_p.add_argument("--no-certify", action="store_true",
                            help="skip the end-to-end proof of the chosen "
                                 "plan")
    optimize_p.add_argument("--sql-out", action="store_true",
                            help="also print the chosen plan decompiled "
                                 "back to SQL")
    _add_cache_option(optimize_p)
    _add_bound_options(optimize_p)
    _add_obs_options(optimize_p, trace=True)
    optimize_p.set_defaults(fn=cmd_optimize)

    explain_p = sub.add_parser(
        "explain", help="EXPLAIN cost tree of a query as written")
    explain_p.add_argument("sql", help="the SQL query to explain")
    explain_p.add_argument("--table", action="append", metavar="SPEC",
                           help="table declaration (repeatable)")
    explain_p.add_argument("--rows", action="append", metavar="TABLE=N",
                           help="base-table cardinality for the cost "
                                "model (repeatable; default 100)")
    _add_cache_option(explain_p)
    _add_bound_options(explain_p)
    _add_obs_options(explain_p)
    explain_p.set_defaults(fn=cmd_explain)

    disprove_p = sub.add_parser(
        "disprove", help="bounded-exhaustive counterexample search "
                         "for a rule or a SQL pair")
    disprove_p.add_argument("target", nargs="+",
                            help="a rule name, or two SQL queries")
    disprove_p.add_argument("--table", action="append", metavar="SPEC",
                            help="table declaration (SQL mode)")
    _add_bound_options(disprove_p)
    _add_obs_options(disprove_p)
    disprove_p.set_defaults(fn=cmd_disprove)

    prove = sub.add_parser("prove", help="prove one library rule by name")
    prove.add_argument("rule")
    _add_cache_option(prove)
    _add_obs_options(prove)
    prove.set_defaults(fn=cmd_prove)

    prove_all = sub.add_parser("prove-all",
                               help="verify the Figure 8 corpus through "
                                    "the batch service")
    prove_all.add_argument("--workers", type=int, default=1,
                           help="worker processes (default 1)")
    _add_cache_option(prove_all)
    _add_obs_options(prove_all, trace=True)
    prove_all.set_defaults(fn=cmd_prove_all)

    serve = sub.add_parser(
        "serve", help="run the long-lived verification daemon "
                      "(newline-delimited JSON over TCP)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7341,
                       help="TCP port (0 picks an ephemeral port; "
                            "default 7341)")
    serve.add_argument("--table", action="append", metavar="SPEC",
                       help="default table declaration used when a "
                            "request carries none (repeatable)")
    serve.add_argument("--store-dir", metavar="DIR", default=None,
                       help="directory of the sharded on-disk proof "
                            "store (shared across server processes; "
                            "omit for a purely in-memory cache)")
    serve.add_argument("--shards", type=int, default=16, metavar="N",
                       help="shard count when creating a new store "
                            "(an existing store's layout wins; "
                            "default 16)")
    serve.add_argument("--workers", type=int, default=4, metavar="N",
                       help="pipeline worker threads (default 4)")
    serve.add_argument("--max-inflight", type=int, default=64, metavar="N",
                       help="cap on distinct in-flight questions; beyond "
                            "it clients get 'overloaded' (default 64)")
    serve.add_argument("--hot-size", type=int, default=4096, metavar="N",
                       help="in-memory hot-tier LRU capacity "
                            "(default 4096)")
    _add_bound_options(serve)
    _add_obs_options(serve)
    serve.set_defaults(fn=cmd_serve)

    client = sub.add_parser(
        "client", help="talk to a running repro serve daemon")
    client.add_argument("--addr", default="127.0.0.1:7341",
                        metavar="HOST:PORT",
                        help="daemon address (default 127.0.0.1:7341)")
    client.add_argument("--timeout", type=float, default=60.0,
                        help="per-request timeout in seconds (default 60)")
    client.add_argument("--retries", type=int, default=20,
                        help="connection attempts while the daemon "
                             "starts (default 20)")
    client_sub = client.add_subparsers(dest="verb", required=True)
    c_ping = client_sub.add_parser("ping", help="liveness probe")
    c_check = client_sub.add_parser(
        "check", help="decide equivalence of two SQL queries remotely")
    c_check.add_argument("sql1")
    c_check.add_argument("sql2")
    c_check.add_argument("--table", action="append", metavar="SPEC",
                         help="table declaration (repeatable; falls back "
                              "to the daemon's --table defaults)")
    c_batch = client_sub.add_parser(
        "batch-check", help="verify a JSON batch of query pairs remotely")
    c_batch.add_argument("jobs", help='JSON file: {"tables": [...], '
                                      '"pairs": [[SQL1, SQL2], ...]}')
    c_stats = client_sub.add_parser(
        "stats", help="dump the daemon's server/cache/metrics stats")
    c_shutdown = client_sub.add_parser(
        "shutdown", help="ask the daemon to drain and exit")
    for sub_parser in (c_ping, c_check, c_batch, c_stats, c_shutdown):
        _add_obs_options(sub_parser)
    client.set_defaults(fn=cmd_client)

    rules = sub.add_parser("rules", help="list the rule library")
    rules.set_defaults(fn=cmd_rules)

    lint = sub.add_parser(
        "lint",
        help="statically lint the rewrite-rule corpora (soundness "
             "linter: metavariable containment, schema preservation, "
             "one-point countermodels, hypothesis sufficiency, cycles)")
    lint.add_argument("--corpus", choices=("all", "basic", "extended",
                                           "buggy"), default="all",
                      help="which corpus to lint (default: all three)")
    lint.add_argument("--json", action="store_true",
                      help="machine-readable diagnostics")
    _add_obs_options(lint)
    lint.set_defaults(fn=cmd_lint)

    analyze = sub.add_parser(
        "analyze",
        help="infer static plan properties for a query (set-ness, "
             "emptiness, keys, cardinality interval)")
    analyze.add_argument("sql", help="the SQL query to analyze")
    analyze.add_argument("--table", action="append", metavar="SPEC",
                         help="declare a table as NAME(col:type,...); "
                              "repeatable")
    analyze.add_argument("--key", action="append", metavar="TABLE",
                         help="assume TABLE carries a key constraint "
                              "(set-valued); repeatable")
    analyze.add_argument("--json", action="store_true",
                         help="machine-readable property record")
    _add_obs_options(analyze)
    analyze.set_defaults(fn=cmd_analyze)

    stats = sub.add_parser("stats",
                           help="dump the observability layer's metrics "
                                "registry (counters, gauges, histograms)")
    stats.add_argument("--json", action="store_true",
                       help="machine-readable snapshot (metrics + kernel "
                            "counters)")
    _add_obs_options(stats)
    stats.set_defaults(fn=cmd_stats)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        level = getattr(args, "log_level", None)
        if level is not None:
            try:
                configure_logging(level)
            except ValueError as exc:
                raise CLIError(str(exc)) from exc
        with trace_to_file(getattr(args, "trace_out", None)):
            return args.fn(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (head, grep -q) closed the pipe: the
        # conventional quiet exit, not a traceback.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":
    sys.exit(main())

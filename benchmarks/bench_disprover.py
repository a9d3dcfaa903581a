#!/usr/bin/env python
"""Compiled bounded-disprover benchmarks.

Measures the PR 10 disprover against the PR 9 baseline on one grid of
bounded-exhaustive searches:

* **interpreter** — ``use_compiled=False``: the tree-walking Figure-7
  evaluator with the PR 9 analysis prunes on.  This is exactly the
  search the previous PR shipped.
* **compiled** — ``use_compiled=True``: the flat-program evaluator
  over cached struct-of-arrays instance batches.

The grid mixes witness-producing pairs (DISTINCT vs not over a join —
the counterexample needs duplicate join output, deep in the
enumeration order) with equivalent pairs (the search must exhaust the
entire instance space), one of them over mirrored comparisons, which
the compiled evaluator emits as infix operators.  Both configurations must agree exactly on
(found, witness index, instances checked, exhausted) for every pair —
the differential guarantee — and the compiled row must beat the
interpreter row by :data:`DISPROVER_SPEEDUP_TARGET` in full mode.

Usage::

    PYTHONPATH=src python benchmarks/bench_disprover.py [--smoke] [--json]
"""

import argparse
import json
import sys
import time

from repro.core.schema import INT
from repro.solver import Bound, disprove
from repro.sql import Catalog, compile_sql

#: Minimum wall-clock speedup of the compiled serial search over the
#: interpreter baseline, enforced in full mode.
#: (The PR's own acceptance target is 10x; 5x is the regression gate.)
DISPROVER_SPEEDUP_TARGET = 5.0


def _catalog():
    cat = Catalog()
    cat.add_table("R", [("a", INT), ("b", INT)])
    cat.add_table("S", [("a", INT), ("b", INT)])
    return cat


def _corpus(smoke):
    """(sql1, sql2, bound) grid rows: witness hunts + full exhaustions."""
    bound = Bound.of(2, 2) if smoke else Bound.of(4, 2)
    join = "SELECT r.a FROM R r, S s WHERE r.a = s.a"
    pairs = [
        # DISTINCT-sensitivity: the witness needs duplicated join output.
        (join, "SELECT DISTINCT r.a FROM R r, S s WHERE r.a = s.a", bound),
        # Equivalent alpha-variants: exhausts the whole two-table space.
        ("SELECT r.a, s.b FROM R r, S s WHERE r.a = s.b",
         "SELECT x.a, y.b FROM R x, S y WHERE x.a = y.b", bound),
        # Mirrored comparison (perfbench refute-bounded's ``cmp`` kind):
        # equivalent, so the search exhausts the space.
        ("SELECT r.a FROM R r, S s WHERE r.b < s.b",
         "SELECT r.a FROM R r, S s WHERE s.b > r.b", bound),
    ]
    if not smoke:
        pairs.append(
            # Projection swap: disagrees only on asymmetric instances.
            ("SELECT r.a FROM R r, S s WHERE r.b = s.b",
             "SELECT r.b FROM R r, S s WHERE r.a = s.a", bound))
    return pairs


def _run_grid(pairs, catalog, **knobs):
    compiled_pairs = [(compile_sql(a, catalog).query,
                       compile_sql(b, catalog).query, bound)
                      for a, b, bound in pairs]
    started = time.perf_counter()
    rows = []
    instances = 0
    for q1, q2, bound in compiled_pairs:
        result = disprove(q1, q2, bound=bound, **knobs)
        instances += result.instances_checked
        rows.append({
            "found": result.found,
            "witness": (result.counterexample.trial
                        if result.found else None),
            "instances_checked": result.instances_checked,
            "exhausted": result.exhausted,
        })
    return {
        "wall_seconds": time.perf_counter() - started,
        "instances": instances,
        "rows": rows,
    }


def run(smoke=False):
    started = time.perf_counter()
    catalog = _catalog()
    pairs = _corpus(smoke)
    interp = _run_grid(pairs, catalog, use_compiled=False)
    compiled = _run_grid(pairs, catalog, use_compiled=True)
    mismatches = sum(1 for a, b in zip(interp["rows"], compiled["rows"])
                     if a != b)
    return {
        "wall_seconds": time.perf_counter() - started,
        "pairs": len(pairs),
        "interp_seconds": interp["wall_seconds"],
        "compiled_seconds": compiled["wall_seconds"],
        "instances": interp["instances"],
        "compiled_speedup": (interp["wall_seconds"]
                             / compiled["wall_seconds"]
                             if compiled["wall_seconds"] else float("inf")),
        "verdict_mismatches": mismatches,
        "rows": interp["rows"],
    }


def check(result, smoke):
    """Gate failures (list of messages); speedups ungated in smoke mode."""
    failures = []
    if result["verdict_mismatches"]:
        failures.append(
            f"disprover: {result['verdict_mismatches']} "
            f"pair(s) where interpreter / compiled "
            f"disagree on the verdict or witness")
    if not smoke and result["compiled_speedup"] < DISPROVER_SPEEDUP_TARGET:
        failures.append(
            f"disprover: compiled speedup "
            f"{result['compiled_speedup']:.2f}x below the "
            f"{DISPROVER_SPEEDUP_TARGET:.1f}x target")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small bound, no speedup gating")
    parser.add_argument("--json", action="store_true",
                        help="print the result payload as JSON")
    args = parser.parse_args(argv)
    result = run(smoke=args.smoke)
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(f"{result['instances']} instances / "
              f"{result['pairs']} pairs — interp "
              f"{result['interp_seconds'] * 1e3:.0f} ms, compiled "
              f"{result['compiled_seconds'] * 1e3:.0f} ms "
              f"({result['compiled_speedup']:.1f}x), "
              f"{result['verdict_mismatches']} mismatch(es)")
    failures = check(result, args.smoke)
    for message in failures:
        print(f"FAIL: {message}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""The result oracle: every op's answer is checked, none is filtered out.

* A verdict must agree with its pair's expected class: an equivalent pair
  never comes back DISPROVED, an inequivalent one never PROVED.
* Every DISPROVED verdict's counterexample is replayed through the
  reference interpreter in :mod:`repro.engine`: the two queries must give
  different results on the recorded instance.
* Every optimized plan is executed against its original on a seeded
  random database: the results must be equal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from repro.core.schema import tuple_of
from repro.engine import Interpretation, random_relation, run_query
from repro.semiring.krelation import KRelation
from repro.semiring.semirings import NAT
from repro.solver.verdict import Status, Verdict

from .gen import TABLE_NAMES, Pair


@dataclass(frozen=True)
class Outcome:
    """The oracle's judgement of one op."""

    #: a definitive answer: PROVED/DISPROVED, or a certified plan.
    decided: bool
    #: the op failed: it raised, or the oracle rejected its answer.
    failed: bool
    note: str = ""


def raised(exc: BaseException) -> Outcome:
    return Outcome(False, True, f"raised {type(exc).__name__}: {exc}")


def replay_separates(verdict: Verdict, q1, q2, catalog) -> bool:
    """Do ``q1`` and ``q2`` differ on the verdict's recorded instance?"""
    interp = Interpretation()
    for name, rows in verdict.counterexample.tables:
        schema = catalog.schema_of(name)
        rel = KRelation(NAT)
        for flat, mult in rows:
            rel.add(tuple_of(schema, list(flat)), NAT.from_int(mult))
        interp.relations[name] = rel
        interp.schemas[name] = schema
    return run_query(q1, interp) != run_query(q2, interp)


def judge_verdict(pair: Pair, verdict: Verdict, q1, q2,
                  catalog) -> Outcome:
    """Hold one verdict to its pair's expected class; replay witnesses."""
    status = verdict.status
    decided = status is not Status.UNKNOWN
    if status is Status.PROVED and pair.expect == "inequiv":
        return Outcome(decided, True, "inequivalent pair PROVED")
    if status is Status.DISPROVED:
        if pair.expect == "equiv":
            return Outcome(decided, True, "equivalent pair DISPROVED")
        if verdict.counterexample is None:
            return Outcome(decided, True, "DISPROVED without a witness")
        if not replay_separates(verdict, q1, q2, catalog):
            return Outcome(decided, True, "witness does not replay")
    return Outcome(decided, False)


def oracle_database(seed: str, const: int, catalog) -> Interpretation:
    """A seeded random instance of every table, over a value domain that
    includes the query's own constant so its filters can match."""
    rng = random.Random(seed)
    interp = Interpretation()
    for name in TABLE_NAMES:
        schema = catalog.schema_of(name)
        interp.relations[name] = random_relation(
            rng, schema, max_rows=8, max_multiplicity=2,
            domains={"int": (0, 1, const)})
        interp.schemas[name] = schema
    return interp


def judge_plan(original, result, interp: Interpretation) -> Outcome:
    """The plan must return exactly what its original returns; it counts
    as decided when certification proved it."""
    decided = result.certified is True
    if run_query(original, interp) != run_query(result.best_plan, interp):
        return Outcome(decided, True,
                       "plan and original disagree on the oracle database")
    return Outcome(decided, False)

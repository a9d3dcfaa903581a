"""Structured verdicts for the tiered verification pipeline.

The prover alone answers "equal" or "don't know"; pairing it with the
bounded-exhaustive disprover (Cosette's architecture) upgrades every check
to one of three *structured* outcomes:

* ``PROVED`` — the engine found a proof (sound for all instances),
* ``DISPROVED`` — a concrete counterexample instance separates the two
  queries (carried along, replayable),
* ``UNKNOWN`` — neither, but with a quantified guarantee: *no
  counterexample exists up to the disprover's bound*.

Everything in this module is plain data — JSON-serializable and picklable —
so verdicts can cross the proof cache and the multiprocessing boundary of
the batch service.  Live objects (interpretations holding metavariable
callables) stay in :attr:`Verdict.live_counterexample`, which is never
serialized.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple


class Status(enum.Enum):
    """The three possible answers of the decision pipeline."""

    PROVED = "PROVED"
    DISPROVED = "DISPROVED"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class BoundInfo:
    """The instance space a bounded-exhaustive search covered."""

    max_rows: int
    max_multiplicity: int
    domains: Tuple[Tuple[str, Tuple[Any, ...]], ...]
    instances_checked: int
    exhausted: bool

    def describe(self) -> str:
        coverage = "exhausted" if self.exhausted else "truncated"
        return (f"≤{self.max_rows} rows × ≤{self.max_multiplicity} "
                f"multiplicity per table ({self.instances_checked} "
                f"instance(s), {coverage})")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_rows": self.max_rows,
            "max_multiplicity": self.max_multiplicity,
            "domains": [[name, list(values)] for name, values in self.domains],
            "instances_checked": self.instances_checked,
            "exhausted": self.exhausted,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "BoundInfo":
        return BoundInfo(
            max_rows=data["max_rows"],
            max_multiplicity=data["max_multiplicity"],
            domains=tuple((name, tuple(values))
                          for name, values in data["domains"]),
            instances_checked=data["instances_checked"],
            exhausted=data["exhausted"],
        )


@dataclass(frozen=True)
class CounterexampleRecord:
    """A replayable, serialization-safe counterexample.

    Table contents are stored as *flat* rows (left-to-right leaf values,
    the inverse of :func:`repro.core.schema.tuple_of`), so the record
    survives a JSON round-trip where nested tuples would collapse into
    lists.  ``disagreements`` lists the tuples on which the two sides'
    multiplicities differ, pre-rendered for display.
    """

    #: table name → list of (flat row, multiplicity) pairs.
    tables: Tuple[Tuple[str, Tuple[Tuple[Tuple[Any, ...], int], ...]], ...]
    #: (tuple repr, lhs multiplicity repr, rhs multiplicity repr) triples.
    disagreements: Tuple[Tuple[str, str, str], ...]
    note: str = ""

    def describe(self) -> str:
        lines = ["counterexample instance:"]
        for name, rows in self.tables:
            rendered = ", ".join(f"{list(row)}×{mult}" for row, mult in rows)
            lines.append(f"  {name} = {{{rendered or 'empty'}}}")
        for row, left, right in self.disagreements:
            lines.append(f"  tuple {row}: lhs multiplicity {left}, "
                         f"rhs multiplicity {right}")
        if self.note:
            lines.append(f"  ({self.note})")
        return "\n".join(lines)

    def swap_sides(self) -> "CounterexampleRecord":
        """The same instance with the lhs/rhs multiplicity columns swapped.

        Cache keys are symmetric in the two queries, so a hit may serve a
        caller whose (Q1, Q2) orientation is the reverse of the producing
        call's; the record's side labels must follow the caller.
        """
        return CounterexampleRecord(
            tables=self.tables,
            disagreements=tuple((row, right, left)
                                for row, left, right in self.disagreements),
            note=self.note,
        )

    def table_rows(self, name: str) -> Tuple[Tuple[Tuple[Any, ...], int], ...]:
        for table_name, rows in self.tables:
            if table_name == name:
                return rows
        raise KeyError(f"no table {name!r} in counterexample")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tables": [[name, [[list(row), mult] for row, mult in rows]]
                       for name, rows in self.tables],
            "disagreements": [list(d) for d in self.disagreements],
            "note": self.note,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "CounterexampleRecord":
        return CounterexampleRecord(
            tables=tuple(
                (name, tuple((tuple(row), mult) for row, mult in rows))
                for name, rows in data["tables"]),
            disagreements=tuple(tuple(d) for d in data["disagreements"]),
            note=data.get("note", ""),
        )


@dataclass
class Verdict:
    """The pipeline's answer for one (Q1, Q2) equivalence question."""

    status: Status
    #: the stage that decided: ``cache`` / ``alpha-hash`` / ``conjunctive``
    #: / ``prover`` / ``disprover`` (or ``none`` when every stage punted).
    stage: str
    fingerprint: str = ""
    cached: bool = False
    engine_steps: int = 0
    counterexample: Optional[CounterexampleRecord] = None
    bound: Optional[BoundInfo] = None
    #: stage name → seconds spent, in execution order.
    timings: Dict[str, float] = field(default_factory=dict)
    #: interned-kernel counters for this check: ``normalize`` memo
    #: hits/misses charged to the question and the live canonical node
    #: count when it was answered (``check --verbose`` prints these
    #: alongside the stage timings).
    kernel_counters: Dict[str, int] = field(default_factory=dict)
    detail: str = ""
    #: orientation tags: digests identifying which input the verdict's
    #: counterexample calls "lhs"/"rhs" — by alpha-canonical normal form
    #: and by query repr.  A reader swaps the record only on a *positive*
    #: match with the opposite side (an unrecognized digest proves
    #: nothing: alpha-equivalent queries have different reprs).
    lhs_norm_digest: str = ""
    lhs_repr_digest: str = ""
    rhs_repr_digest: str = ""
    #: live engine counterexample (with interpretation callables); never
    #: serialized, stripped before crossing process boundaries.
    live_counterexample: Any = field(default=None, repr=False, compare=False)

    @property
    def proved(self) -> bool:
        return self.status is Status.PROVED

    @property
    def disproved(self) -> bool:
        return self.status is Status.DISPROVED

    @property
    def total_seconds(self) -> float:
        return sum(self.timings.values())

    def describe(self) -> str:
        head = (f"{self.status.value}  (stage: {self.stage}"
                f"{', cached' if self.cached else ''}, "
                f"{self.engine_steps} engine steps, "
                f"{self.total_seconds * 1e3:.1f} ms)")
        parts = [head]
        if self.detail:
            parts.append(self.detail)
        if self.counterexample is not None:
            parts.append(self.counterexample.describe())
        if self.status is Status.UNKNOWN and self.bound is not None \
                and self.bound.exhausted:
            parts.append("no counterexample up to bound "
                         + self.bound.describe())
        return "\n".join(parts)

    def strip_live(self) -> "Verdict":
        """Drop the non-picklable live counterexample (for IPC)."""
        self.live_counterexample = None
        return self

    def oriented_for(self, norm_digest: Optional[str] = None,
                     repr_digest: Optional[str] = None) -> "Verdict":
        """This verdict from the caller's (Q1, Q2) orientation.

        Pass the caller's own lhs digest (either kind).  The norm digest
        is alpha-canonical, so disagreement with the stored lhs tag means
        the caller's pair is reversed.  A repr digest only proves reversal
        by *matching the stored rhs* — a digest matching neither side
        (an alpha-equivalent query with different text) is inconclusive
        and the record is left as produced.  With no counterexample the
        verdict is returned unchanged.
        """
        if self.counterexample is None:
            return self
        swap = False
        if norm_digest and self.lhs_norm_digest:
            swap = norm_digest != self.lhs_norm_digest
        elif repr_digest:
            swap = bool(self.rhs_repr_digest) \
                and repr_digest == self.rhs_repr_digest \
                and repr_digest != self.lhs_repr_digest
        if not swap:
            return self
        copy = self.swapped()
        copy.lhs_norm_digest = norm_digest or ""
        return copy

    def swapped(self) -> "Verdict":
        """This verdict from the mirrored (Q2, Q1) orientation.

        Counterexample sides and repr tags trade places; the lhs
        normal-form tag is cleared, since the rhs's is not recorded.
        """
        return Verdict(**{**self.__dict__,
                          "counterexample": (
                              None if self.counterexample is None
                              else self.counterexample.swap_sides()),
                          "lhs_norm_digest": "",
                          "lhs_repr_digest": self.rhs_repr_digest,
                          "rhs_repr_digest": self.lhs_repr_digest,
                          "live_counterexample": None})

    def to_dict(self) -> Dict[str, Any]:
        return {
            "status": self.status.value,
            "stage": self.stage,
            "fingerprint": self.fingerprint,
            "engine_steps": self.engine_steps,
            "counterexample": (None if self.counterexample is None
                               else self.counterexample.to_dict()),
            "bound": None if self.bound is None else self.bound.to_dict(),
            "kernel_counters": dict(self.kernel_counters),
            "detail": self.detail,
            "lhs_norm_digest": self.lhs_norm_digest,
            "lhs_repr_digest": self.lhs_repr_digest,
            "rhs_repr_digest": self.rhs_repr_digest,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "Verdict":
        cx = data.get("counterexample")
        bound = data.get("bound")
        return Verdict(
            status=Status(data["status"]),
            stage=data["stage"],
            fingerprint=data.get("fingerprint", ""),
            engine_steps=data.get("engine_steps", 0),
            counterexample=(None if cx is None
                            else CounterexampleRecord.from_dict(cx)),
            bound=None if bound is None else BoundInfo.from_dict(bound),
            kernel_counters=dict(data.get("kernel_counters") or {}),
            detail=data.get("detail", ""),
            lhs_norm_digest=data.get("lhs_norm_digest", ""),
            lhs_repr_digest=data.get("lhs_repr_digest", ""),
            rhs_repr_digest=data.get("rhs_repr_digest", ""),
        )


#: The prover epoch stamped on every persisted verdict.  Bump it when a
#: change can alter any verdict (a new tier, a changed normal form or
#: fingerprint, a soundness fix): stored records from another epoch then
#: read as misses and are decided again.
PROOF_EPOCH = 1

__all__ = [
    "PROOF_EPOCH",
    "BoundInfo",
    "CounterexampleRecord",
    "Status",
    "Verdict",
]

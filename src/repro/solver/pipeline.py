"""The tiered decision pipeline: cheap stages first, expensive ones later.

Query equivalence is undecidable (paper Figure 9), so a service answering
thousands of checks cannot afford to hand every pair to the full prover.
The pipeline escalates through stages in cost order, stopping at the first
definitive answer:

1. **normalize** — denote both queries (Figure 7) and normalize (Sec. 3.4
   + Lemmas 5.1/5.2); everything downstream works on normal forms.
2. **cache** — content-addressed lookup keyed on the alpha-canonical
   normal forms; repeated and alpha-equivalent questions are O(1).
3. **alpha-hash** — syntactic equality of canonical normal forms.  Proves
   every "same query modulo renaming/reassociation" pair without invoking
   the proof search at all.
4. **conjunctive** — the complete decision procedure for the CQ fragment
   (Sec. 5.2).  On closed concrete CQs a negative answer is itself a
   *disproof* (Chandra–Merlin completeness).
5. **prover** — the full engine, under a configurable recursion depth and
   step budget (:class:`~repro.core.equivalence.StepBudgetExceeded`).
6. **disprover** — bounded-exhaustive counterexample search, giving either
   a replayable DISPROVED or a quantified "no counterexample up to k".

The analog in the Horn-clause literature (PAPERS.md) is trying cheap
recursion-free expansions before general solving; the analog in Cosette is
the prover/disprover pair itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core import ast
from ..core.conjunctive import NotConjunctive, decide_cq, is_conjunctive_query
from ..core.denote import Denotation, denote_closed
from ..core.equivalence import (
    Hypotheses,
    MAX_DEPTH,
    NO_HYPOTHESES,
    ProofStats,
    StepBudgetExceeded,
    decide_nsums,
)
from ..core.intern import intern_stats
from ..core.normalize import NSum, normalize, normalize_stats, nsum_subst
from ..core.schema import EMPTY, Schema
from ..engine.eval import EvaluationError
from ..errors import SchemaMismatchError
from ..obs.logs import get_logger
from ..obs.metrics import counter, histogram
from ..obs.trace import span
from .cache import (
    ProofCache,
    digest_of_key,
    fingerprint_from_keys,
    nsum_alpha_repr,
    query_side_digest,
)
from .disprover import (
    Bound,
    disprove,
    disprove_factory,
    free_tables,
    has_metavariables,
)
from .verdict import Status, Verdict


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the pipeline's stages (picklable; shared with workers)."""

    #: recursion depth for the full prover (≤ engine MAX_DEPTH).
    prover_depth: int = MAX_DEPTH
    #: step budget for the full prover; None = unbounded.  The hardest
    #: Figure 8 rule needs ~200 steps, so the default is generous for
    #: real rewrites while still stopping runaway searches.
    prover_max_steps: Optional[int] = 50_000
    use_alpha_hash: bool = True
    use_conjunctive: bool = True
    use_prover: bool = True
    use_disprover: bool = True
    disprover_bound: Bound = Bound()
    #: instance budget per check; None = unbounded.
    disprover_max_instances: Optional[int] = 50_000
    #: metavariable instantiations tried when disproving via a factory.
    disprover_draws: int = 2
    #: cache inconclusive (UNKNOWN) verdicts too?  Off by default so a
    #: later run with a bigger budget is not short-circuited.
    cache_unknown: bool = False


DEFAULT_CONFIG = PipelineConfig()

_log = get_logger("solver.pipeline")

#: Tier names in escalation order — the keys of ``Verdict.timings``, the
#: suffixes of the ``pipeline.<tier>`` spans, and the suffixes of the
#: ``pipeline.tier.<tier>.seconds`` histograms.
TIERS = ("normalize", "cache", "alpha-hash", "conjunctive", "prover",
         "disprover")

_CHECKS_TOTAL = counter("pipeline.checks_total")
_TIER_SECONDS = {tier: histogram(f"pipeline.tier.{tier}.seconds")
                 for tier in TIERS}


def _record_tier(timings: Dict[str, float], tier: str,
                 seconds: float) -> None:
    """One tier ran for ``seconds``: charge the verdict and the registry."""
    timings[tier] = seconds
    _TIER_SECONDS[tier].observe(seconds)


def _observe_verdict(verdict: Verdict) -> None:
    """Count a finished check by outcome and by deciding stage."""
    counter(f"pipeline.verdicts.{verdict.status.name.lower()}").inc()
    counter(f"pipeline.decided_by.{verdict.stage or 'unknown'}").inc()
    if verdict.cached:
        counter("pipeline.cached_verdicts_total").inc()


def _kernel_counters(norm_before: Dict[str, float]) -> Dict[str, int]:
    """Interned-kernel counters accrued since ``norm_before``.

    Both ends of the delta are :meth:`KernelLRU.snapshot` reads taken
    under the memo table's lock, so the pair (hits, misses) is coherent
    even while other threads normalize concurrently.  The delta is over
    the *lifetime* counters: a window ``reset()`` (metrics rotation)
    between the two snapshots would make window deltas go negative and
    under-report, while the lifetime counters are monotonic.
    """
    after = normalize_stats()
    return {
        "normalize_hits": int(
            after["lifetime_hits"] - norm_before["lifetime_hits"]),
        "normalize_misses": int(
            after["lifetime_misses"] - norm_before["lifetime_misses"]),
        "interned_nodes": intern_stats()["interned_nodes"],
    }


@dataclass(frozen=True)
class NormalizedQuery:
    """One query's memoizable share of an equivalence check.

    Everything :meth:`Pipeline.check` derives *per side* before the tiers
    run — denotation, normal form, canonical alpha key, orientation
    digests — computed once and reusable across every pair the query
    appears in.  This is what turns an all-pairs workload from O(N²) into
    O(N) normalizations: a :class:`~repro.session.QueryHandle` builds its
    ``NormalizedQuery`` lazily and hands it to
    :meth:`Pipeline.check_normalized` for each pairing.

    The handles it holds are *interned*: ``denotation`` and ``nsum`` are
    canonical hash-consed nodes (see :mod:`repro.core.intern`), so two
    memoized queries share every common sub-term, pointer comparisons
    short-circuit inside the engine, and ``alpha_key`` is rendered from
    the node's cached alpha-canonical key.
    """

    query: ast.Query
    ctx_schema: Schema
    denotation: Denotation
    nsum: NSum
    #: canonical textual key (free context/tuple vars labelled @ctx/@tup);
    #: pair fingerprints are hashes over two of these.
    alpha_key: str
    #: sha256 of :attr:`alpha_key` — the cache's orientation tag.
    norm_digest: str
    #: repr-level orientation tag of the raw query.
    repr_digest: str
    #: seconds spent denoting + normalizing (charged to one verdict).
    seconds: float = 0.0
    #: mutable once-flag so a memoized side's cost is not re-reported on
    #: every pair it appears in (timings must sum to ≤ wall-clock).
    _charged: list = field(default_factory=list, repr=False, compare=False)

    @classmethod
    def of(cls, query: ast.Query,
           ctx_schema: Optional[Schema] = None) -> "NormalizedQuery":
        """Denote and normalize one query (the O(N) part of a workload)."""
        ctx_schema = EMPTY if ctx_schema is None else ctx_schema
        with span("pipeline.normalize") as sp:
            d = denote_closed(query, ctx_schema)
            n = normalize(d.body)
            key = nsum_alpha_repr(n, {d.g: "@ctx", d.t: "@tup"})
        _TIER_SECONDS["normalize"].observe(sp.duration)
        return cls(query=query, ctx_schema=ctx_schema, denotation=d,
                   nsum=n, alpha_key=key, norm_digest=digest_of_key(key),
                   repr_digest=query_side_digest(query), seconds=sp.duration)

    def consume_seconds(self) -> float:
        """The normalization cost, the first time it is asked for; 0.0
        after — so a memoized side charges exactly one verdict."""
        if self._charged:
            return 0.0
        self._charged.append(True)
        return self.seconds

    def aligned_nsum(self, onto: "NormalizedQuery") -> NSum:
        """This side's normal form renamed into ``onto``'s variable space.

        A pure free-variable rename (the denotations' ``g``/``t`` are
        globally fresh, so no capture is possible) — O(term size), never a
        renormalization.
        """
        d, o = self.denotation, onto.denotation
        if d is o:
            return self.nsum
        return nsum_subst(self.nsum, {d.g: o.g, d.t: o.t})


class Pipeline:
    """A configured tiered decision pipeline with a proof cache."""

    def __init__(self, config: Optional[PipelineConfig] = None,
                 cache: Optional[ProofCache] = None) -> None:
        self.config = config or DEFAULT_CONFIG
        self.cache = cache if cache is not None else ProofCache()

    # -- public API ---------------------------------------------------------

    def check(self, q1: ast.Query, q2: ast.Query,
              ctx_schema: Optional[Schema] = None,
              hyps: Hypotheses = NO_HYPOTHESES, *,
              factory=None, alias: Optional[str] = None,
              prove_only: bool = False) -> Verdict:
        """Run the tiers on one equivalence question.

        Args:
            q1, q2: the two HoTTSQL queries.
            ctx_schema: outer context schema (closed queries: EMPTY).
            hyps: integrity-constraint hypotheses.
            factory: optional instance factory for the disprover when the
                queries contain metavariables (a rule's instantiator).
            alias: optional syntactic cache alias to register.
            prove_only: stop after the prover stage (used for rewrite
                certification, where a counterexample search is wasted
                work — an uncertified rewrite is simply discarded).
        """
        with span("pipeline.check"):
            # Stage 1: normalize --------------------------------------------
            pre1 = NormalizedQuery.of(q1, ctx_schema)
            pre2 = NormalizedQuery.of(q2, ctx_schema)
            return self.check_normalized(pre1, pre2, hyps, factory=factory,
                                         alias=alias, prove_only=prove_only)

    def check_normalized(self, pre1: NormalizedQuery, pre2: NormalizedQuery,
                         hyps: Hypotheses = NO_HYPOTHESES, *,
                         factory=None, alias: Optional[str] = None,
                         prove_only: bool = False) -> Verdict:
        """Run the tiers on two *pre-normalized* queries.

        The fast path behind :meth:`check` and the session layer's
        memoized handles: both sides arrive with their denotation, normal
        form, and canonical alpha key already computed (once per query,
        however many pairs it appears in), so this method performs no
        normalization — only fingerprinting, cache probes, and the
        decision tiers proper.
        """
        with span("pipeline.check_normalized"):
            return self._check_normalized(pre1, pre2, hyps, factory=factory,
                                          alias=alias, prove_only=prove_only)

    def _check_normalized(self, pre1: NormalizedQuery, pre2: NormalizedQuery,
                          hyps: Hypotheses = NO_HYPOTHESES, *,
                          factory=None, alias: Optional[str] = None,
                          prove_only: bool = False) -> Verdict:
        _CHECKS_TOTAL.inc()
        norm_before = normalize_stats()
        d1, d2 = pre1.denotation, pre2.denotation
        if d1.ctx != d2.ctx:
            raise SchemaMismatchError(
                f"context schemas differ: {d1.ctx} vs {d2.ctx}")
        if d1.schema != d2.schema:
            raise SchemaMismatchError(
                f"output schemas differ: {d1.schema} vs {d2.schema}")
        timings: Dict[str, float] = {
            "normalize": pre1.consume_seconds() + pre2.consume_seconds()}

        # Stage 2: cache ----------------------------------------------------
        with span("pipeline.cache") as sp:
            # The alpha keys label the denotations' free context/tuple
            # variables canonically (@ctx/@tup), but a product's factor
            # order still depends on fresh-variable names, so the same
            # question can fingerprint differently after a different
            # history of checks in the process (ROADMAP item 2).
            fingerprint = fingerprint_from_keys(pre1.alpha_key,
                                                pre2.alpha_key, hyps)
            side_digest = pre1.norm_digest
            hit = self.cache.get(fingerprint)
            sp.attrs["hit"] = hit is not None
        _record_tier(timings, "cache", sp.duration)
        if hit is not None:
            # The fingerprint is symmetric; re-orient the stored
            # counterexample (if any) to this caller's (Q1, Q2) order,
            # then re-tag with *this* caller's digests so downstream
            # readers (the batch service) see a consistent orientation.
            hit = hit.oriented_for(norm_digest=side_digest)
            hit.lhs_norm_digest = side_digest
            hit.lhs_repr_digest = pre1.repr_digest
            hit.rhs_repr_digest = pre2.repr_digest
            hit.timings = dict(timings)
            hit.kernel_counters = _kernel_counters(norm_before)
            if alias is not None:
                self.cache.register_alias(alias, hit)
            _observe_verdict(hit)
            return hit

        # Stage 3: alpha-hash — the memoized canonical keys decide alpha
        # equality directly (they label free context/tuple variables
        # canonically), so the common "same query modulo renaming /
        # reassociation" case never even aligns the normal forms.
        if self.config.use_alpha_hash:
            with span("pipeline.alpha-hash") as sp:
                same = pre1.alpha_key == pre2.alpha_key
                sp.attrs["equal"] = same
            _record_tier(timings, "alpha-hash", sp.duration)
            if same:
                verdict = Verdict(
                    status=Status.PROVED, stage="alpha-hash",
                    fingerprint=fingerprint, timings=dict(timings),
                    detail="normal forms are alpha-equal")
                return self._finish(verdict, pre1, pre2, fingerprint,
                                    alias, prove_only, norm_before)

        n1 = pre1.nsum
        n2 = pre2.aligned_nsum(pre1)
        verdict = self._decide(pre1.query, pre2.query, pre1.ctx_schema,
                               hyps, n1, n2, fingerprint, timings, factory,
                               prove_only)
        return self._finish(verdict, pre1, pre2, fingerprint, alias,
                            prove_only, norm_before)

    def _finish(self, verdict: Verdict, pre1: NormalizedQuery,
                pre2: NormalizedQuery, fingerprint: str,
                alias: Optional[str], prove_only: bool,
                norm_before: Dict[str, float]) -> Verdict:
        """Tag a fresh verdict with digests + kernel counters, cache it."""
        verdict.kernel_counters = _kernel_counters(norm_before)
        verdict.lhs_norm_digest = pre1.norm_digest
        verdict.lhs_repr_digest = pre1.repr_digest
        verdict.rhs_repr_digest = pre2.repr_digest
        # A prove_only UNKNOWN is partial (the disprover never ran), so it
        # is never cached — even under cache_unknown — lest it mask the
        # disproof a later full check would find.
        if verdict.status is not Status.UNKNOWN \
                or (self.config.cache_unknown and not prove_only):
            self.cache.put(fingerprint, verdict, alias=alias)
        _observe_verdict(verdict)
        _log.debug("verdict %s at stage %s (%.3f ms)", verdict.status.name,
                   verdict.stage, verdict.total_seconds * 1e3)
        return verdict

    def certify(self, q1: ast.Query, q2: ast.Query,
                ctx_schema: Optional[Schema] = None,
                hyps: Hypotheses = NO_HYPOTHESES) -> bool:
        """Prove-or-discard entry point for rewrite certification."""
        return self.check(q1, q2, ctx_schema, hyps, prove_only=True).proved

    def check_rule(self, rule) -> Verdict:
        """Check a :class:`~repro.rules.rule.RewriteRule` end to end."""
        return self.check(rule.lhs, rule.rhs, rule.ctx_schema,
                          rule.hypotheses, factory=rule.instantiate)

    # -- the tiers ----------------------------------------------------------

    def _decide(self, q1, q2, ctx_schema, hyps, n1, n2, fingerprint,
                timings, factory, prove_only) -> Verdict:
        cfg = self.config

        def verdict(status: Status, stage: str, **kw) -> Verdict:
            return Verdict(status=status, stage=stage,
                           fingerprint=fingerprint, timings=dict(timings),
                           **kw)

        # (Stage 3, alpha-hash, runs in check_normalized on the memoized
        # canonical keys — reaching this method means it did not decide.)

        # Stage 4: conjunctive-fragment decision ----------------------------
        cq_disproof = False
        if cfg.use_conjunctive and is_conjunctive_query(q1) \
                and is_conjunctive_query(q2):
            with span("pipeline.conjunctive") as sp:
                try:
                    decision = decide_cq(q1, q2, ctx_schema, hyps,
                                         require_fragment=False,
                                         normals=(n1, n2))
                except NotConjunctive:
                    decision = None
                sp.attrs["decided"] = decision is not None
            _record_tier(timings, "conjunctive", sp.duration)
            if decision is not None and decision.equivalent:
                return verdict(
                    Status.PROVED, "conjunctive", engine_steps=1,
                    detail="decided by the complete CQ procedure "
                           "(containment mappings in both directions)")
            # On *closed, concrete* CQs with no integrity constraints the
            # procedure is complete, so a failed mapping search is a
            # genuine disproof; the disprover stage then looks for a
            # concrete witness instance to attach.
            if decision is not None and ctx_schema == EMPTY \
                    and not hyps.keys and not hyps.fds \
                    and not has_metavariables(q1) \
                    and not has_metavariables(q2):
                cq_disproof = True

        # Stage 5: full prover under budget ---------------------------------
        budget_note = ""
        prover_steps = 0
        if cfg.use_prover and not cq_disproof:
            with span("pipeline.prover") as sp:
                stats = ProofStats(max_steps=cfg.prover_max_steps)
                try:
                    result = decide_nsums(n1, n2, hyps,
                                          depth=cfg.prover_depth,
                                          stats=stats)
                    equal = result.equal
                except StepBudgetExceeded:
                    equal = False
                    budget_note = (f"prover stopped at its "
                                   f"{cfg.prover_max_steps}-step budget")
                prover_steps = stats.total_steps
                sp.attrs["steps"] = prover_steps
                sp.attrs["equal"] = equal
            _record_tier(timings, "prover", sp.duration)
            counter("pipeline.prover_steps_total").inc(prover_steps)
            if equal:
                return verdict(Status.PROVED, "prover",
                               engine_steps=prover_steps)

        if prove_only:
            if cq_disproof:
                return verdict(
                    Status.DISPROVED, "conjunctive",
                    detail="CQ decision procedure is complete on this "
                           "fragment: no containment mapping exists")
            return verdict(Status.UNKNOWN, "prover",
                           engine_steps=prover_steps,
                           detail=budget_note or "prover found no proof "
                           "(sound but incomplete)")

        # Stage 6: bounded-exhaustive disprover -----------------------------
        bound_info = None
        if cfg.use_disprover:
            with span("pipeline.disprover") as sp:
                result = self._run_disprover(q1, q2, ctx_schema, hyps,
                                             factory)
                sp.attrs["found"] = bool(result is not None and result.found)
            _record_tier(timings, "disprover", sp.duration)
            if result is not None:
                bound_info = result.info()
                if result.found:
                    return verdict(
                        Status.DISPROVED, "disprover",
                        engine_steps=prover_steps,
                        counterexample=result.record, bound=bound_info,
                        live_counterexample=result.counterexample,
                        detail="concrete counterexample instance found")

        if cq_disproof:
            return verdict(
                Status.DISPROVED, "conjunctive", bound=bound_info,
                detail="CQ decision procedure is complete on this "
                       "fragment: no containment mapping exists"
                       + ("; no small witness within the disprover bound"
                          if bound_info is not None else ""))
        detail = budget_note or ("prover found no proof (sound but "
                                 "incomplete)")
        return verdict(Status.UNKNOWN,
                       "disprover" if bound_info is not None else "prover",
                       engine_steps=prover_steps,
                       bound=bound_info, detail=detail)

    def _run_disprover(self, q1, q2, ctx_schema, hyps, factory):
        cfg = self.config
        if factory is not None:
            return disprove_factory(
                factory, bound=cfg.disprover_bound,
                draws=cfg.disprover_draws,
                max_instances=cfg.disprover_max_instances, hyps=hyps)
        if ctx_schema != EMPTY or has_metavariables(q1) \
                or has_metavariables(q2):
            return None  # nothing concrete to enumerate
        try:
            tables = free_tables(q1)
            for name, schema in free_tables(q2).items():
                if tables.get(name, schema) != schema:
                    # The two queries read the same table at different
                    # schemas; no single instance interprets both.
                    return None
                tables[name] = schema
            return disprove(q1, q2, tables, bound=cfg.disprover_bound,
                            max_instances=cfg.disprover_max_instances,
                            hyps=hyps)
        except (ValueError, EvaluationError):
            # Not concretely enumerable (schema conflict, or a symbol —
            # e.g. an uninterpreted scalar function — with no concrete
            # interpretation): the disprover abstains, it doesn't crash.
            return None


# ---------------------------------------------------------------------------
# Shared default pipeline (process-wide proof cache)
# ---------------------------------------------------------------------------

_DEFAULT: Optional[Pipeline] = None


def default_pipeline() -> Pipeline:
    """The process-wide pipeline used by certification call sites.

    Sharing one instance means every consumer — the rule applier, the
    plan rewriter, the planner's final certification — feeds and profits
    from the same proof cache.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Pipeline()
    return _DEFAULT


def reset_default_pipeline() -> None:
    """Drop the shared pipeline (tests use this to isolate cache state)."""
    global _DEFAULT
    _DEFAULT = None


__all__ = [
    "DEFAULT_CONFIG",
    "NormalizedQuery",
    "Pipeline",
    "PipelineConfig",
    "default_pipeline",
    "reset_default_pipeline",
]

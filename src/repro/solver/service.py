"""Batch verification service: dedup, cache, and fan out across workers.

The ROADMAP's north star is a system that "serves heavy traffic"; a query
optimizer or a CI pipeline does not ask one equivalence question, it asks
thousands — many of them duplicates.  :class:`VerificationService` accepts
a batch of (schema, Q1, Q2) jobs and answers them by:

1. **deduplicating** syntactically identical questions (the order of the
   pair does not matter — equivalence is symmetric),
2. consulting the **proof cache** via the syntactic alias index (a warm
   batch answers without normalizing anything),
3. fanning the remaining unique questions out across a
   ``multiprocessing`` worker pool, each worker running its own
   :class:`~repro.solver.pipeline.Pipeline`,
4. folding every worker verdict back into the shared cache (which, when
   it is layered over a proof store, writes it to disk for the next run).

Everything that crosses the process boundary is plain data: queries are
frozen dataclasses, verdicts are serialization-safe (live counterexamples
are stripped).  Rules are dispatched *by name* — their instantiators are
closures, which do not pickle — and re-resolved inside the worker.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core import ast
from ..core.equivalence import Hypotheses, NO_HYPOTHESES
from ..core.schema import Schema
from ..obs.logs import get_logger
from ..obs.metrics import (
    REGISTRY,
    counter,
    diff_snapshots,
    empty_snapshot,
    histogram,
    merge_snapshots,
)
from ..obs.trace import span
from .cache import query_side_digest, syntactic_alias
from .pipeline import Pipeline, PipelineConfig
from .verdict import Status, Verdict

_log = get_logger("solver.service")

_JOBS_TOTAL = counter("service.jobs_total")
_BATCH_CACHE_HITS = counter("service.alias_cache_hits_total")
_BATCH_WALL = histogram("service.batch.wall_seconds")


@dataclass(frozen=True)
class Job:
    """One equivalence question in a batch."""

    job_id: str
    q1: ast.Query
    q2: ast.Query
    ctx_schema: Optional[Schema] = None
    hyps: Hypotheses = NO_HYPOTHESES

    def alias(self) -> str:
        return syntactic_alias(self.q1, self.q2, self.ctx_schema, self.hyps)


@dataclass
class BatchReport:
    """Per-job verdicts plus the batch-level accounting."""

    verdicts: Dict[str, Verdict]
    total_jobs: int
    unique_questions: int
    cache_hits: int
    computed: int
    workers: int
    wall_seconds: float
    #: merged metrics delta of every computed question (worker snapshots
    #: folded with ``merge_snapshots``; identity when nothing computed).
    metrics: Dict[str, Any] = field(default_factory=empty_snapshot)
    #: alias → that question's own metrics delta.  Merging these (in any
    #: order) reproduces :attr:`metrics` — the cross-process aggregation
    #: invariant the test suite checks.
    job_metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @property
    def duplicate_jobs(self) -> int:
        return self.total_jobs - self.unique_questions

    def count(self, status: Status) -> int:
        return sum(1 for v in self.verdicts.values() if v.status is status)

    def summary(self) -> str:
        return (f"{self.total_jobs} job(s): "
                f"{self.count(Status.PROVED)} proved, "
                f"{self.count(Status.DISPROVED)} disproved, "
                f"{self.count(Status.UNKNOWN)} unknown "
                f"[{self.unique_questions} unique, "
                f"{self.cache_hits} cache hit(s), "
                f"{self.computed} computed, "
                f"{self.workers} worker(s), "
                f"{self.wall_seconds * 1e3:.1f} ms]")


# ---------------------------------------------------------------------------
# Worker-side plumbing (module-level so it pickles under fork *and* spawn)
# ---------------------------------------------------------------------------

_WORKER_PIPELINE: Optional[Pipeline] = None


def _init_worker(config: PipelineConfig) -> None:
    global _WORKER_PIPELINE
    _WORKER_PIPELINE = Pipeline(config)


def _run_pair(payload) -> Tuple[str, Verdict, Dict[str, Any]]:
    alias, q1, q2, ctx_schema, hyps = payload
    before = REGISTRY.snapshot()
    verdict = _WORKER_PIPELINE.check(q1, q2, ctx_schema, hyps)
    delta = diff_snapshots(before, REGISTRY.snapshot())
    return alias, verdict.strip_live(), delta


def _run_rule(payload) -> Tuple[str, Verdict, Dict[str, Any]]:
    alias, rule_name = payload
    from ..rules.registry import get_rule  # deferred: rules import solver
    rule = get_rule(rule_name)
    before = REGISTRY.snapshot()
    verdict = _WORKER_PIPELINE.check_rule(rule)
    delta = diff_snapshots(before, REGISTRY.snapshot())
    return alias, verdict.strip_live(), delta


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------

class VerificationService:
    """A batch front end over a shared :class:`Pipeline`.

    The worker pool is created lazily on the first parallel batch and
    *kept* across batches (workers amortize interpreter start-up and warm
    their own pipeline caches); :meth:`close` — or using the service as a
    context manager — tears it down.  :class:`repro.session.Session` owns
    one of these and closes it on exit.
    """

    def __init__(self, pipeline: Optional[Pipeline] = None,
                 config: Optional[PipelineConfig] = None,
                 workers: Optional[int] = None) -> None:
        self.pipeline = pipeline if pipeline is not None \
            else Pipeline(config)
        self.default_workers = workers
        self._pool = None
        self._pool_size = 0

    @property
    def cache(self):
        return self.pipeline.cache

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Tear down the persistent worker pool (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._pool_size = 0

    def __enter__(self) -> "VerificationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    # -- batches of query pairs --------------------------------------------

    def check_batch(self, jobs: Sequence[Job],
                    workers: Optional[int] = None) -> BatchReport:
        """Answer every job, deduplicating and parallelizing."""
        with span("service.check_batch", jobs=len(jobs)) as sp:
            groups: Dict[str, List[Job]] = {}
            order: List[str] = []
            for job in jobs:
                alias = job.alias()
                if alias not in groups:
                    groups[alias] = []
                    order.append(alias)
                groups[alias].append(job)

            answers: Dict[str, Verdict] = {}
            pending: List[Job] = []
            cache_hits = 0
            for alias in order:
                first = groups[alias][0]
                hit = self.cache.get_by_alias(alias, first.q1, first.q2)
                if hit is not None:
                    answers[alias] = hit
                    cache_hits += 1
                else:
                    pending.append(groups[alias][0])

            worker_count = self._resolve_workers(workers, len(pending))
            job_metrics: Dict[str, Dict[str, Any]] = {}
            if pending:
                if worker_count > 1:
                    payloads = [(job.alias(), job.q1, job.q2,
                                 job.ctx_schema, job.hyps)
                                for job in pending]
                    for (alias, verdict, delta), remote in self._map(
                            _run_pair, payloads, worker_count):
                        answers[alias] = verdict
                        self._store(alias, verdict)
                        job_metrics[alias] = delta
                        if remote:
                            # Inline fallback jobs already wrote to this
                            # process's registry; only genuinely remote
                            # deltas are folded in, lest they double-count.
                            REGISTRY.absorb(delta)
                else:
                    for job in pending:
                        before = REGISTRY.snapshot()
                        answers[job.alias()] = self.pipeline.check(
                            job.q1, job.q2, job.ctx_schema, job.hyps,
                            alias=job.alias())
                        job_metrics[job.alias()] = diff_snapshots(
                            before, REGISTRY.snapshot())

            # Per-job orientation: every answer is oriented for its
            # group's first job (alias hits by the cache, computed ones by
            # the pipeline), but a group may also hold that job's mirror
            # (Q2, Q1), whose lhs repr matches the answer's rhs tag.
            verdicts = {
                job.job_id: answers[alias].oriented_for(
                    repr_digest=query_side_digest(job.q1))
                for alias, group in groups.items() for job in group}
            sp.attrs["unique"] = len(groups)
            sp.attrs["cache_hits"] = cache_hits
            sp.attrs["workers"] = worker_count if pending else 0
        return self._report(verdicts, len(jobs), len(groups), cache_hits,
                            len(pending), worker_count, job_metrics,
                            sp.duration)

    # -- batches of library rules ------------------------------------------

    def check_rules(self, rules: Iterable,
                    workers: Optional[int] = None) -> BatchReport:
        """Verify a rule corpus; rules are shipped to workers by name."""
        rules = list(rules)
        with span("service.check_rules", rules=len(rules)) as sp:
            answers: Dict[str, Verdict] = {}
            pending = []
            cache_hits = 0
            aliases: Dict[str, str] = {}
            for rule in rules:
                alias = syntactic_alias(rule.lhs, rule.rhs, rule.ctx_schema,
                                        rule.hypotheses)
                aliases[rule.name] = alias
                hit = self.cache.get_by_alias(alias, rule.lhs, rule.rhs)
                if hit is not None:
                    answers[alias] = hit
                    cache_hits += 1
                elif alias not in {a for a, _ in pending}:
                    pending.append((alias, rule))

            worker_count = self._resolve_workers(workers, len(pending))
            job_metrics: Dict[str, Dict[str, Any]] = {}
            if pending:
                if worker_count > 1:
                    payloads = [(alias, rule.name)
                                for alias, rule in pending]
                    for (alias, verdict, delta), remote in self._map(
                            _run_rule, payloads, worker_count):
                        answers[alias] = verdict
                        self._store(alias, verdict)
                        job_metrics[alias] = delta
                        if remote:
                            REGISTRY.absorb(delta)
                else:
                    for alias, rule in pending:
                        before = REGISTRY.snapshot()
                        answers[alias] = self.pipeline.check(
                            rule.lhs, rule.rhs, rule.ctx_schema,
                            rule.hypotheses, factory=rule.instantiate,
                            alias=alias)
                        job_metrics[alias] = diff_snapshots(
                            before, REGISTRY.snapshot())

            verdicts = {rule.name: answers[aliases[rule.name]]
                        for rule in rules}
            sp.attrs["cache_hits"] = cache_hits
        return self._report(verdicts, len(rules),
                            len({a for a in aliases.values()}), cache_hits,
                            len(pending), worker_count, job_metrics,
                            sp.duration)

    # -- pool plumbing ------------------------------------------------------

    def _report(self, verdicts, total, unique, cache_hits, computed,
                worker_count, job_metrics, wall) -> BatchReport:
        """Assemble the report and publish the batch-level metrics."""
        metrics = empty_snapshot()
        for delta in job_metrics.values():
            metrics = merge_snapshots(metrics, delta)
        _JOBS_TOTAL.inc(total)
        _BATCH_CACHE_HITS.inc(cache_hits)
        _BATCH_WALL.observe(wall)
        report = BatchReport(
            verdicts=verdicts, total_jobs=total, unique_questions=unique,
            cache_hits=cache_hits, computed=computed,
            workers=worker_count if computed else 0, wall_seconds=wall,
            metrics=metrics, job_metrics=job_metrics)
        _log.debug("batch done: %s", report.summary())
        return report

    def _store(self, alias: str, verdict: Verdict) -> None:
        """Fold a worker verdict into the cache (same policy as Pipeline)."""
        if verdict.status is not Status.UNKNOWN \
                or self.pipeline.config.cache_unknown:
            self.cache.put(verdict.fingerprint, verdict, alias=alias)

    def _resolve_workers(self, requested: Optional[int],
                         pending: int) -> int:
        if requested is None:
            requested = self.default_workers
        if requested is None:
            requested = min(4, os.cpu_count() or 1)
        return max(1, min(requested, max(pending, 1)))

    def _map(self, fn, payloads, worker_count):
        """Yield ``(result, remote)`` pairs for every payload.

        ``remote`` tells the caller whether the job's metrics delta came
        from another process (and must be absorbed into this one's
        registry) or was produced inline (already counted here).
        """
        pool = self._ensure_pool(worker_count)
        if pool is None:
            # No fork/spawn available (restricted sandbox): degrade to
            # in-process execution on the service's own pipeline.  Only
            # pool *creation* is guarded — a job-level error must
            # propagate as itself, not trigger a bogus inline re-run.
            for payload in payloads:
                yield _run_inline(self.pipeline, fn, payload), False
            return
        for result in pool.imap_unordered(fn, payloads):
            yield result, True

    def _ensure_pool(self, worker_count: int):
        """The persistent pool, (re)built only when it must grow.

        A pool larger than this batch needs is reused as-is; returns None
        when the platform cannot create worker processes at all.
        """
        if self._pool is not None and self._pool_size < worker_count:
            self.close()
        if self._pool is None:
            ctx = self._pool_context()
            try:
                self._pool = ctx.Pool(processes=worker_count,
                                      initializer=_init_worker,
                                      initargs=(self.pipeline.config,))
            except (OSError, ValueError):
                return None
            self._pool_size = worker_count
        return self._pool

    @staticmethod
    def _pool_context():
        try:
            return multiprocessing.get_context("fork")
        except ValueError:
            return multiprocessing.get_context("spawn")


def _run_inline(pipeline: Pipeline, fn,
                payload) -> Tuple[str, Verdict, Dict[str, Any]]:
    global _WORKER_PIPELINE
    previous = _WORKER_PIPELINE
    _WORKER_PIPELINE = pipeline
    try:
        return fn(payload)
    finally:
        _WORKER_PIPELINE = previous


__all__ = ["BatchReport", "Job", "VerificationService"]

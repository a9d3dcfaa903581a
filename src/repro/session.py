"""The library's front door: :class:`Session` and :class:`QueryHandle`.

Everything the reproduction can do — compile SQL, normalize, prove,
disprove, optimize, batch-verify — used to require juggling ``Catalog``,
``compile_sql``, ``Pipeline``, ``VerificationService``, and ``optimize``
by hand.  A session owns all of them behind one fluent surface::

    from repro import Session

    with Session.from_tables("R(a:int,b:int)", cache="proof-store") as s:
        q1 = s.sql("SELECT DISTINCT a FROM R")
        q2 = s.sql("SELECT DISTINCT x.a FROM R AS x, R AS y "
                   "WHERE x.a = y.a")
        verdict = q1.equivalent_to(q2)        # PROVED
        plan = q1.optimize()                  # certified PlanHandle
        print(plan.explain(), plan.sql())
        report = s.check_all_pairs()          # O(N) normalizations

The performance story is the point, not just the ergonomics: a
:class:`QueryHandle` memoizes its compilation, denotation, normal form,
and canonical alpha key (a :class:`~repro.solver.pipeline
.NormalizedQuery`) the first time they are needed, and every subsequent
check feeds the *pre-normalized* forms into
:meth:`~repro.solver.pipeline.Pipeline.check_normalized`.  An all-pairs
workload over N queries therefore performs exactly N normalizations where
the naive per-pair :meth:`~repro.solver.pipeline.Pipeline.check` performs
N·(N−1) — the O(N²)→O(N) collapse ``benchmarks/bench_session_all_pairs
.py`` measures.

With ``cache="DIR"`` the proof cache is layered over a shard store
directory (:class:`~repro.serve.store.StoreProofCache`, the format
``repro serve --store-dir`` uses): every verdict is durable the moment
it is decided, and a later session, CLI run or daemon on the same
directory answers it without re-proving.  The session is a context
manager: leaving the ``with`` block tears down the batch service's
worker pool.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .core import ast
from .core.equivalence import Hypotheses, NO_HYPOTHESES
from .core.schema import BOOL, FLOAT, INT, SQLType, STRING
from .errors import ReproError, SchemaMismatchError
from .optimizer.cost import TableStats
from .optimizer.explain import explain, explain_result
from .optimizer.planner import PlanningResult, optimize
from .solver.cache import ProofCache
from .solver.disprover import Bound, DisproofResult, disprove
from .solver.pipeline import NormalizedQuery, Pipeline, PipelineConfig
from .solver.service import BatchReport, Job, VerificationService
from .solver.verdict import Status, Verdict
from .sql.decompile import plan_to_sql
from .sql.lexer import tokenize
from .sql.resolve import Catalog, Resolved, compile_sql


class SessionError(ReproError):
    """Raised on misuse of the session surface (closed session, foreign
    handles, malformed table specs)."""


class TableSpecError(SessionError):
    """Raised for a malformed ``"R(a:int,b:int)"`` table declaration."""


# ---------------------------------------------------------------------------
# Table specs — the "R(a:int,b:int)" mini-grammar shared with the CLI
# ---------------------------------------------------------------------------

_TYPES: Dict[str, SQLType] = {"int": INT, "bool": BOOL, "string": STRING,
                              "float": FLOAT}

_TYPE_NAMES = {ty: name for name, ty in _TYPES.items()}


def render_table_spec(name: str, columns: Sequence) -> str:
    """The canonical ``"R(a:int,b:int)"`` spec of a (name, columns) pair
    (the wire format a remote session forwards to ``repro serve``)."""
    parts = []
    for col, ty in columns:
        parts.append(f"{col}:{_TYPE_NAMES.get(ty, str(ty).lower())}")
    return f"{name}({','.join(parts)})"


_TABLE_RE = re.compile(r"^(\w+)\((.*)\)$")


def parse_table_spec(spec: str) -> Tuple[str, List[Tuple[str, SQLType]]]:
    """Parse ``R(a:int,b:int)`` into a (name, columns) pair."""
    match = _TABLE_RE.match(spec.strip())
    if not match:
        raise TableSpecError(f"malformed table spec {spec!r} "
                             f"(expected NAME(col:type,...))")
    name, cols_text = match.groups()
    columns: List[Tuple[str, SQLType]] = []
    seen = set()
    for part in cols_text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise TableSpecError(f"malformed column {part!r} in {spec!r}")
        col, ty = (x.strip() for x in part.split(":", 1))
        if ty not in _TYPES:
            raise TableSpecError(f"unknown type {ty!r} "
                                 f"(use int/bool/string/float)")
        if col in seen:
            raise TableSpecError(f"duplicate column {col!r} "
                                 f"in table {name!r}")
        seen.add(col)
        columns.append((col, _TYPES[ty]))
    if not columns:
        raise TableSpecError(f"table {name!r} needs at least one column")
    return name, columns


# ---------------------------------------------------------------------------
# Handles
# ---------------------------------------------------------------------------

#: "argument not given" marker where None is itself meaningful.
_UNSET = object()


class QueryHandle:
    """An immutable compiled query bound to its session.

    Construction (via :meth:`Session.sql`) pays parsing and resolution
    once; the denotation, normal form, and cache keys are computed lazily
    on first use and memoized for every later check.  Handles compare and
    hash by their compiled core query, so structurally identical SQL from
    different texts collapses in sets and dict keys.
    """

    __slots__ = ("_session", "_text", "_resolved", "_pre")

    def __init__(self, session: "Session", text: Optional[str],
                 resolved: Resolved) -> None:
        self._session = session
        self._text = text
        self._resolved = resolved
        self._pre: Optional[NormalizedQuery] = None

    # -- identity -----------------------------------------------------------

    @property
    def session(self) -> "Session":
        return self._session

    @property
    def text(self) -> Optional[str]:
        """The SQL this handle was compiled from (None for plan handles)."""
        return self._text

    @property
    def query(self) -> ast.Query:
        """The compiled core HoTTSQL query."""
        return self._resolved.query

    @property
    def schema(self):
        return self._resolved.schema

    @property
    def columns(self):
        return self._resolved.columns

    def __eq__(self, other) -> bool:
        if not isinstance(other, QueryHandle):
            return NotImplemented
        return self.query == other.query

    def __hash__(self) -> int:
        return hash(self.query)

    def __repr__(self) -> str:
        label = self._text if self._text is not None else repr(self.query)
        return f"QueryHandle({label!r})"

    # -- memoized normal form ----------------------------------------------

    @property
    def normalized(self) -> NormalizedQuery:
        """The memoized pre-normalized form (computed on first access)."""
        if self._pre is None:
            self._pre = NormalizedQuery.of(self.query)
        return self._pre

    # -- fluent verbs -------------------------------------------------------

    def equivalent_to(self, other: Union["QueryHandle", str],
                      hyps: Hypotheses = NO_HYPOTHESES) -> Verdict:
        """Decide equivalence through the session's tiered pipeline.

        On a session opened with :meth:`Session.connect` the question is
        answered by the remote ``repro serve`` daemon (and its shared
        proof store) instead of the local pipeline.
        """
        other = self._session._coerce(other)
        if self._session.is_remote:
            return self._session._remote_check(self, other, hyps)
        return self._session.pipeline.check_normalized(
            self.normalized, other.normalized, hyps)

    def disprove(self, other: Union["QueryHandle", str], *,
                 bound: Optional[Bound] = None,
                 max_instances: Union[int, None, object] = _UNSET,
                 hyps: Hypotheses = NO_HYPOTHESES) -> DisproofResult:
        """Bounded-exhaustive counterexample search against ``other``.

        ``max_instances`` defaults to the session config's budget; pass
        ``None`` explicitly for an unbounded search.
        """
        other = self._session._coerce(other)
        cfg = self._session.pipeline.config
        return disprove(
            self.query, other.query,
            bound=bound if bound is not None else cfg.disprover_bound,
            max_instances=(cfg.disprover_max_instances
                           if max_instances is _UNSET else max_instances),
            hyps=hyps)

    def optimize(self, stats: Optional[TableStats] = None, *,
                 max_plans: int = 400,
                 iterations: Optional[int] = None,
                 certify: bool = True) -> "PlanHandle":
        """Cost-based plan search; certification runs through the
        session's pipeline (and proof cache).

        ``max_plans`` (the e-node budget) and ``iterations`` (rewrite
        depth) bound the equality-saturation search.
        """
        stats = stats if stats is not None else TableStats()
        result = optimize(self.query, stats, max_plans=max_plans,
                          certify=certify,
                          pipeline=self._session.pipeline,
                          iterations=iterations)
        return PlanHandle(self, result, stats)

    def explain(self, stats: Optional[TableStats] = None) -> str:
        """EXPLAIN rendering of this query as a plan."""
        return explain(self.query, stats if stats is not None
                       else TableStats())

    def sql(self) -> str:
        """The compiled core query decompiled back to SQL text.

        This is the post-desugar view: GROUP BY, HAVING, and scalar
        aggregates render in their Sec. 4.2 encodings (and the text
        re-parses — the session test suite proves the round trip
        equivalent).  Raises
        :class:`~repro.sql.decompile.PlanRenderingError` when the query
        falls outside the SQL-renderable fragment.
        """
        return plan_to_sql(self.query, self._session.catalog)


class PlanHandle:
    """An optimized plan: the planner's result plus rendering verbs."""

    __slots__ = ("_source", "result", "stats")

    def __init__(self, source: QueryHandle, result: PlanningResult,
                 stats: TableStats) -> None:
        self._source = source
        self.result = result
        self.stats = stats

    @property
    def source(self) -> QueryHandle:
        return self._source

    @property
    def session(self) -> "Session":
        return self._source.session

    @property
    def plan(self) -> ast.Query:
        return self.result.best_plan

    @property
    def certified(self) -> Optional[bool]:
        return self.result.certified

    @property
    def improved(self) -> bool:
        return self.result.improved

    @property
    def cost(self) -> float:
        return self.result.best_cost

    @property
    def applied_rules(self) -> Tuple[str, ...]:
        return self.result.applied_rules

    def explain(self) -> str:
        """EXPLAIN rendering of the chosen plan: the certified rewrite
        chain and search counters, then the per-node cost tree."""
        return explain_result(self.result, self.stats)

    def sql(self) -> str:
        """The chosen plan decompiled back to SQL text.

        Raises :class:`~repro.sql.decompile.PlanRenderingError` when the
        plan falls outside the SQL-renderable fragment.
        """
        return plan_to_sql(self.plan, self.session.catalog)

    def handle(self) -> QueryHandle:
        """The optimized plan as a first-class query handle."""
        return QueryHandle(
            self.session, None,
            Resolved(self.plan, self._source.schema, self._source.columns))

    def __repr__(self) -> str:
        return (f"PlanHandle(cost={self.cost:.1f}, "
                f"rules={list(self.applied_rules)}, "
                f"certified={self.certified})")


# ---------------------------------------------------------------------------
# Pairwise reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairResult:
    """One pair's verdict inside a :class:`PairwiseReport`."""

    left: QueryHandle
    right: QueryHandle
    verdict: Verdict


@dataclass
class PairwiseReport:
    """Verdicts for a pairwise workload plus batch accounting."""

    results: List[PairResult]
    #: handles that had to be normalized during this call (first touch).
    normalizations: int
    #: pairs answered straight from the proof cache.
    cache_hits: int
    #: distinct symmetric questions among the pairs.
    unique_questions: int
    wall_seconds: float
    hyps: Hypotheses = NO_HYPOTHESES

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def count(self, status: Status) -> int:
        return sum(1 for r in self.results if r.verdict.status is status)

    def equivalent_pairs(self) -> List[PairResult]:
        return [r for r in self.results if r.verdict.proved]

    def summary(self) -> str:
        return (f"{len(self.results)} pair(s): "
                f"{self.count(Status.PROVED)} proved, "
                f"{self.count(Status.DISPROVED)} disproved, "
                f"{self.count(Status.UNKNOWN)} unknown "
                f"[{self.unique_questions} unique, "
                f"{self.cache_hits} cache hit(s), "
                f"{self.normalizations} normalization(s), "
                f"{self.wall_seconds * 1e3:.1f} ms]")


# ---------------------------------------------------------------------------
# The session
# ---------------------------------------------------------------------------

def _open_store(directory: str) -> ProofCache:
    """A proof cache layered over the shard store at ``directory``."""
    if os.path.isfile(directory):
        raise SessionError(
            f"proof cache {directory!r} is a file; a proof store is a "
            f"directory (the older JSON cache file format is not read)")
    # Lazy, like ServeClient in connect(): in-process sessions without a
    # store never import the serve package.
    from .serve.store import ShardedProofStore, StoreError, StoreProofCache
    try:
        return StoreProofCache(ShardedProofStore(directory))
    except (OSError, StoreError) as exc:
        raise SessionError(
            f"cannot open proof store {directory!r}: {exc}") from exc


class Session:
    """One catalog, one pipeline, one proof cache, one worker pool.

    Args:
        catalog: table declarations (a fresh empty catalog by default).
        config: pipeline stage knobs (:class:`PipelineConfig`).
        cache: a pre-built :class:`ProofCache` to share, or a proof store
            directory (created if missing), the layout ``repro serve
            --store-dir`` reads and writes.
        workers: default worker-process count for batch verification.
    """

    def __init__(self, catalog: Optional[Catalog] = None, *,
                 config: Optional[PipelineConfig] = None,
                 cache: Union[ProofCache, str, None] = None,
                 workers: Optional[int] = None) -> None:
        if isinstance(cache, str):
            cache = _open_store(cache)
        elif cache is not None and not isinstance(cache, ProofCache):
            raise SessionError(
                f"cache must be a ProofCache or a store directory, "
                f"got {type(cache).__name__}")
        self.catalog = catalog if catalog is not None else Catalog()
        self.pipeline = Pipeline(config, cache=cache)
        self.workers = workers
        self._service: Optional[VerificationService] = None
        #: token-stream key (or raw text for unlexable input) → handle.
        self._handles: Dict[object, QueryHandle] = {}
        #: exact SQL text → handle: a repeated text skips tokenizing.
        self._by_text: Dict[str, QueryHandle] = {}
        #: canonical "R(a:int,b:int)" specs, in declaration order — the
        #: catalog a remote session forwards with every request.
        self._table_specs: List[str] = []
        #: a connected ServeClient when opened via :meth:`connect`.
        self._remote: Optional[Any] = None
        self._closed = False

    @classmethod
    def from_tables(cls, *specs: str,
                    config: Optional[PipelineConfig] = None,
                    cache: Union[ProofCache, str, None] = None,
                    workers: Optional[int] = None) -> "Session":
        """Build a session from ``"R(a:int,b:int)"``-style declarations
        (``cache`` as for the constructor)."""
        catalog = Catalog()
        session = cls(catalog, config=config, cache=cache,
                      workers=workers)
        for spec in specs:
            session.add_table(spec)
        return session

    @classmethod
    def connect(cls, address, *tables: str,
                timeout: float = 60.0,
                connect_retries: int = 20,
                config: Optional[PipelineConfig] = None) -> "Session":
        """Open a session whose checks run on a ``repro serve`` daemon.

        The fluent surface is unchanged — ``s.sql(...)`` still compiles
        and type-checks locally (malformed SQL fails fast, before any
        network round trip) — but :meth:`check`,
        :meth:`QueryHandle.equivalent_to`, and :meth:`check_pairs` are
        answered by the daemon at ``address`` (``"host:port"``), which
        owns the warm pipeline and the shared proof store::

            with Session.connect("127.0.0.1:7341",
                                 "R(a:int,b:int)") as s:
                verdict = s.check("SELECT a FROM R", "SELECT a FROM R")

        ``optimize``/``disprove``/batch verbs still run locally against
        this process's pipeline; the remote daemon serves equivalence
        verdicts only.
        """
        from .serve.client import ServeClient  # lazy: keeps import light
        session = cls(config=config)
        for spec in tables:
            session.add_table(spec)
        client = ServeClient(address, timeout=timeout,
                             connect_retries=connect_retries)
        client.connect()
        session._remote = client
        return session

    # -- catalog ------------------------------------------------------------

    def add_table(self, spec: Union[str, Tuple[str, Sequence]],
                  columns: Optional[Sequence] = None) -> "Session":
        """Declare a table: ``add_table("R(a:int,b:int)")`` or
        ``add_table("R", [("a", INT)])``.  Returns the session (chainable).
        """
        self._ensure_open()
        if columns is None:
            if isinstance(spec, str):
                name, columns = parse_table_spec(spec)
            else:
                name, columns = spec
        else:
            name = spec
        self.catalog.add_table(name, columns)
        self._table_specs.append(render_table_spec(name, columns))
        return self

    # -- compilation --------------------------------------------------------

    def sql(self, text: str) -> QueryHandle:
        """Compile SQL to a memoized :class:`QueryHandle`.

        Repeated calls with the same query text return the *same* handle
        (an exact repeat is a dict probe; other texts are keyed on the
        token stream, so formatting differences collapse but
        string-literal contents are respected) and its memoized normal
        form is shared across every use site.
        """
        self._ensure_open()
        handle = self._by_text.get(text)
        if handle is not None:
            return handle
        try:
            key = tuple((t.kind, t.text) for t in tokenize(text))
        except ReproError:
            key = text  # let compile_sql raise the real lex error below
        handle = self._handles.get(key)
        if handle is None:
            handle = QueryHandle(self, text, compile_sql(text, self.catalog))
            self._handles[key] = handle
        self._by_text[text] = handle
        return handle

    @property
    def handles(self) -> List[QueryHandle]:
        """Every handle compiled by this session, in creation order."""
        return list(self._handles.values())

    def _coerce(self, query: Union[QueryHandle, str]) -> QueryHandle:
        if isinstance(query, QueryHandle):
            if query.session is not self:
                raise SessionError(
                    "handle belongs to a different session (its catalog "
                    "and cache are not this session's)")
            return query
        if isinstance(query, str):
            return self.sql(query)
        raise SessionError(f"expected SQL text or a QueryHandle, "
                           f"got {type(query).__name__}")

    # -- checking -----------------------------------------------------------

    @property
    def is_remote(self) -> bool:
        """True when checks are answered by a ``repro serve`` daemon."""
        return self._remote is not None

    @property
    def remote(self):
        """The underlying :class:`~repro.serve.client.ServeClient`
        (None on a local session)."""
        return self._remote

    def _remote_check(self, left: QueryHandle, right: QueryHandle,
                      hyps: Hypotheses) -> Verdict:
        if hyps.keys or hyps.fds:
            raise SessionError(
                "hypothetical equivalence is not supported on remote "
                "sessions; open a local Session for hypothesis checks")
        sql1 = left.text if left.text is not None else left.sql()
        sql2 = right.text if right.text is not None else right.sql()
        return self._remote.check(sql1, sql2, tables=self._table_specs)

    def check(self, q1: Union[QueryHandle, str], q2: Union[QueryHandle, str],
              hyps: Hypotheses = NO_HYPOTHESES) -> Verdict:
        """Decide one equivalence question through the tiered pipeline
        (or the connected daemon, on a remote session)."""
        return self._coerce(q1).equivalent_to(self._coerce(q2), hyps)

    def check_pairs(self, pairs: Iterable[Tuple[Union[QueryHandle, str],
                                                Union[QueryHandle, str]]],
                    hyps: Hypotheses = NO_HYPOTHESES) -> PairwiseReport:
        """Check many pairs, normalizing each distinct query only once.

        All pre-normalized forms stay in-process, so N queries cost N
        normalizations regardless of how many of the N² pairings are
        checked; duplicate and symmetric questions collapse in the proof
        cache.  A pair whose two queries have different output schemas is
        recorded as DISPROVED (stage ``schema``) rather than aborting the
        batch — no instance can make an ill-typed question true.
        """
        self._ensure_open()
        started = time.perf_counter()
        coerced = [(self._coerce(a), self._coerce(b)) for a, b in pairs]
        if self.is_remote:
            return self._remote_check_pairs(coerced, hyps, started)
        fresh = {id(h) for a, b in coerced for h in (a, b)
                 if h._pre is None}
        results: List[PairResult] = []
        fingerprints = set()
        cache_hits = 0
        for left, right in coerced:
            try:
                verdict = self.pipeline.check_normalized(
                    left.normalized, right.normalized, hyps)
            except SchemaMismatchError as exc:
                verdict = Verdict(status=Status.DISPROVED, stage="schema",
                                  detail=str(exc))
            else:
                fingerprints.add(verdict.fingerprint)
                cache_hits += verdict.cached
            results.append(PairResult(left, right, verdict))
        return PairwiseReport(
            results=results, normalizations=len(fresh),
            cache_hits=cache_hits, unique_questions=len(fingerprints),
            wall_seconds=time.perf_counter() - started, hyps=hyps)

    def _remote_check_pairs(self, coerced: List[Tuple[QueryHandle,
                                                      QueryHandle]],
                            hyps: Hypotheses,
                            started: float) -> PairwiseReport:
        """One ``batch-check`` round trip for a whole pairwise workload."""
        if hyps.keys or hyps.fds:
            raise SessionError(
                "hypothetical equivalence is not supported on remote "
                "sessions; open a local Session for hypothesis checks")
        texts = [(a.text if a.text is not None else a.sql(),
                  b.text if b.text is not None else b.sql())
                 for a, b in coerced]
        verdicts = self._remote.batch_check(texts,
                                            tables=self._table_specs)
        results = [PairResult(left, right, verdict)
                   for (left, right), verdict in zip(coerced, verdicts)]
        fingerprints = {v.fingerprint for v in verdicts if v.fingerprint}
        return PairwiseReport(
            results=results, normalizations=0,
            cache_hits=sum(v.cached for v in verdicts),
            unique_questions=len(fingerprints) or len({tuple(sorted(t))
                                                       for t in texts}),
            wall_seconds=time.perf_counter() - started, hyps=hyps)

    def check_all_pairs(self,
                        queries: Optional[Iterable[Union[QueryHandle, str]]]
                        = None,
                        hyps: Hypotheses = NO_HYPOTHESES) -> PairwiseReport:
        """Check every unordered pair of ``queries`` (default: every
        handle this session has compiled)."""
        handles = ([self._coerce(q) for q in queries]
                   if queries is not None else self.handles)
        pairs = [(handles[i], handles[j])
                 for i in range(len(handles))
                 for j in range(i + 1, len(handles))]
        return self.check_pairs(pairs, hyps)

    # -- batch service ------------------------------------------------------

    @property
    def service(self) -> VerificationService:
        """The batch verification service (worker pool is lazy)."""
        self._ensure_open()
        if self._service is None:
            self._service = VerificationService(pipeline=self.pipeline,
                                                workers=self.workers)
        return self._service

    def check_batch(self, jobs: Sequence[Job],
                    workers: Optional[int] = None) -> BatchReport:
        """Fan a batch of :class:`~repro.solver.service.Job`\\ s across the
        session's worker pool."""
        return self.service.check_batch(jobs, workers=workers)

    def check_rules(self, rules: Iterable,
                    workers: Optional[int] = None) -> BatchReport:
        """Verify a rewrite-rule corpus through the batch service."""
        return self.service.check_rules(rules, workers=workers)

    # -- cache & lifecycle --------------------------------------------------

    @property
    def cache(self) -> ProofCache:
        return self.pipeline.cache

    def kernel_stats(self) -> Dict[str, float]:
        """Interned-kernel and cache counters for this process + session.

        Interning and the normalize/denote memo tables are process-wide
        (canonical nodes are shared by every session); the proof-cache
        counters are this session's own.  ``check --verbose`` prints this
        next to the stage timings.
        """
        from .core.intern import kernel_stats as _kernel_stats
        stats: Dict[str, float] = dict(_kernel_stats())
        stats["proof_cache_entries"] = len(self.cache)
        stats["proof_cache_hits"] = self.cache.hits
        stats["proof_cache_misses"] = self.cache.misses
        stats["proof_cache_hit_rate"] = self.cache.hit_rate
        return stats

    def metrics(self) -> Dict[str, Any]:
        """Snapshot of the process-wide metrics registry.

        Everything the observability layer counts — per-tier latency
        histograms, verdict/cache/saturation counters — as one plain
        JSON-able dict (see :mod:`repro.obs.metrics` for the schema and
        the README's metric-name reference).  Batch runs fold worker
        deltas in here too, so after ``check_batch`` the snapshot covers
        work done in every worker process.
        """
        from .obs.metrics import REGISTRY
        return REGISTRY.snapshot()

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Tear down the worker pool and any daemon connection.
        Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._remote is not None:
            self._remote.close()
            self._remote = None
        if self._service is not None:
            self._service.close()
            self._service = None

    def __enter__(self) -> "Session":
        self._ensure_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise SessionError("session is closed")

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        if self.is_remote:
            state = f"remote {self._remote.host}:{self._remote.port}, " \
                    f"{state}"
        return (f"Session({len(self.catalog.tables)} table(s), "
                f"{len(self._handles)} handle(s), "
                f"{len(self.cache)} cached verdict(s), {state})")


__all__ = [
    "PairResult",
    "PairwiseReport",
    "PlanHandle",
    "QueryHandle",
    "Session",
    "SessionError",
    "TableSpecError",
    "parse_table_spec",
    "render_table_spec",
]

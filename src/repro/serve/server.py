"""``repro serve`` — the long-lived verification daemon.

The batch service forks a worker pool per :class:`~repro.session.Session`
and dies with it; nothing is shared across processes or survives a
restart.  This module is the front door the ROADMAP's "millions of
users" story needs: one process that stays up, keeps its pipeline (and
the interned kernel, and the proof cache) warm, and serves streaming
``check`` / ``batch-check`` / ``optimize`` requests over a trivial
newline-delimited JSON protocol (:mod:`repro.serve.protocol`).

Four mechanisms carry the load:

* **Persistent sharded store** — with ``store_dir`` set, the pipeline's
  cache is a :class:`~repro.serve.store.StoreProofCache`: an in-memory
  LRU hot tier over the disk-backed, file-locked shard store, so proofs
  survive restarts and are shared by every server process pointed at the
  same directory.
* **Alias-first answers** — a question asked before (same symmetric
  syntactic alias) is answered from the proof cache's alias index before
  any other work: two memo probes and one cache read, no pipeline run,
  no thread-pool hop.  Such responses carry the ``"alias"`` dedup role
  and count in ``serve.alias_hits_total``.
* **In-flight dedup** — identical concurrent questions (same symmetric
  syntactic alias) collapse onto a single pipeline run: the first
  requester becomes the *leader* and computes, later arrivals are
  *followers* that wait on the leader's event and fan in on completion.
  Observable via ``serve.inflight`` (gauge), ``serve.dedup_followers_
  total``, and ``serve.pipeline_runs_total`` (which therefore counts
  alias misses only).
* **Persistent worker pool** — leaders dispatch pipeline runs to a
  fixed-size thread pool, bounding concurrent proof search regardless of
  how many connections are open; ``max_inflight`` bounds the number of
  distinct questions in flight (beyond it clients get ``overloaded``
  instead of an ever-growing queue).

Shutdown is graceful: ``shutdown()`` (or the CLI's SIGTERM handler)
stops accepting connections, lets in-flight requests drain through the
pool, and only then returns.
"""

from __future__ import annotations

import socketserver
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.equivalence import NO_HYPOTHESES
from ..errors import ReproError
from ..obs.logs import get_logger
from ..obs.metrics import REGISTRY, counter, gauge
from ..obs.trace import span
from ..optimizer.cost import TableStats
from ..optimizer.planner import optimize
from ..session import parse_table_spec
from ..solver.cache import ProofCache, query_side_digest, syntactic_alias
from ..solver.pipeline import Pipeline, PipelineConfig
from ..solver.verdict import Verdict
from ..sql.decompile import plan_to_sql
from ..sql.resolve import Catalog, compile_sql
from .protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_request,
    encode,
    error_response,
    ok_response,
    read_message,
)
from .store import ShardedProofStore, StoreProofCache

_log = get_logger("serve.server")

_REQUESTS = counter("serve.requests_total")
_ERRORS = counter("serve.errors_total")
_CONNECTIONS = counter("serve.connections_total")
_PIPELINE_RUNS = counter("serve.pipeline_runs_total")
_ALIAS_HITS = counter("serve.alias_hits_total")
_DEDUP_FOLLOWERS = counter("serve.dedup_followers_total")
_INFLIGHT = gauge("serve.inflight")

#: How long a follower waits for its leader before giving up (seconds).
FOLLOWER_TIMEOUT = 600.0

#: Every field an ``optimize`` request may carry.
_OPTIMIZE_FIELDS = frozenset(
    ("op", "id", "sql", "tables", "rows", "max_plans", "certify"))


class ServeError(ReproError):
    """Server-side request failure with a protocol error code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class _InflightEntry:
    """One in-progress question: the leader computes, followers wait."""

    __slots__ = ("event", "verdict", "error", "followers")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.verdict: Optional[Verdict] = None
        self.error: Optional[BaseException] = None
        self.followers = 0


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, handler, repro_server: "ReproServer"):
        self.repro = repro_server
        super().__init__(address, handler)


class _Handler(socketserver.StreamRequestHandler):
    """One connection: a stream of request lines, a stream of responses."""

    def handle(self) -> None:  # pragma: no cover - thin I/O shell
        self.server.repro.handle_connection(self.rfile, self.wfile,
                                            self.client_address)


class ReproServer:
    """The daemon: a TCP listener over one warm pipeline + proof store.

    Args:
        host, port: bind address (``port=0`` picks an ephemeral port;
            read the actual one from :attr:`address`).
        tables: default table declarations (``"R(a:int,b:int)"`` specs)
            used when a request carries no ``tables`` of its own.
        store_dir: directory of the sharded proof store; None keeps the
            cache purely in-memory (still warm, but not shared/durable).
        shards: shard count when *creating* a store (an existing store's
            layout wins).
        workers: size of the pipeline thread pool.
        max_inflight: cap on distinct in-flight questions.
        hot_size: in-memory hot-tier LRU capacity.
        config: pipeline stage knobs.
        max_request_bytes: per-line payload cap.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 tables: Sequence[str] = (),
                 store_dir: Optional[str] = None,
                 shards: int = 16,
                 workers: int = 4,
                 max_inflight: int = 64,
                 hot_size: int = 4096,
                 config: Optional[PipelineConfig] = None,
                 max_request_bytes: int = MAX_LINE_BYTES) -> None:
        if workers < 1:
            raise ServeError("bad-request",
                             f"workers must be positive, got {workers}")
        if max_inflight < 1:
            raise ServeError("bad-request",
                             f"max_inflight must be positive, "
                             f"got {max_inflight}")
        self.default_tables: Tuple[str, ...] = tuple(tables)
        self.store: Optional[ShardedProofStore] = None
        if store_dir is not None:
            self.store = ShardedProofStore(store_dir, shards=shards)
            cache: ProofCache = StoreProofCache(self.store,
                                               max_size=hot_size)
        else:
            cache = ProofCache(max_size=hot_size)
        self.pipeline = Pipeline(config, cache=cache)
        self.workers = workers
        self.max_inflight = max_inflight
        self.max_request_bytes = max_request_bytes
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve")
        self._inflight: Dict[str, _InflightEntry] = {}
        self._inflight_lock = threading.Lock()
        self._catalogs: Dict[Tuple[str, ...], Catalog] = {}
        self._catalog_lock = threading.Lock()
        #: (catalog key, SQL text) → compiled query: a warm request's
        #: cost is a dict probe + a cache probe, not a re-parse.
        self._compiled: Dict[Tuple[Tuple[str, ...], str], Any] = {}
        self._compiled_lock = threading.Lock()
        self._shutting_down = threading.Event()
        #: whether the accept loop was entered; guarded by the lock so
        #: shutdown and serve_forever agree on it.
        self._serving = False
        self._lifecycle_lock = threading.Lock()
        self._started = time.monotonic()
        self._serve_thread: Optional[threading.Thread] = None
        self._tcp = _TCPServer((host, port), _Handler, self)
        self.address: Tuple[str, int] = self._tcp.server_address[:2]

    # -- lifecycle -----------------------------------------------------------

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` is called."""
        with self._lifecycle_lock:
            if self._shutting_down.is_set():
                return
            self._serving = True
        _log.info("serving on %s:%d", *self.address)
        self._tcp.serve_forever(poll_interval=0.1)

    def start(self) -> "ReproServer":
        """Serve on a background thread (tests and embedded use)."""
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-accept",
            daemon=True)
        self._serve_thread.start()
        return self

    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, optionally drain in-flight work, close down."""
        with self._lifecycle_lock:
            if self._shutting_down.is_set():
                return
            self._shutting_down.set()
            serving = self._serving
        if serving:
            # Stops serve_forever and waits for its loop; with no loop
            # ever entered there would be nothing to wait for, forever.
            self._tcp.shutdown()
        self._executor.shutdown(wait=drain)
        self._tcp.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
        _log.info("serve daemon stopped (drained=%s)", drain)

    def __enter__(self) -> "ReproServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- connection loop ------------------------------------------------------

    def handle_connection(self, rfile, wfile, peer) -> None:
        """Serve request lines on one connection until EOF or a framing
        error (protocol errors get a response; I/O errors end quietly)."""
        _CONNECTIONS.inc()
        _log.debug("connection from %s", peer)
        while not self._shutting_down.is_set():
            try:
                raw = read_message(rfile, self.max_request_bytes)
            except ProtocolError as exc:
                # The line never terminated: answer, then drop the
                # connection (there is no way to find the next frame).
                self._safe_write(wfile, error_response(exc.code, str(exc)))
                _ERRORS.inc()
                return
            except OSError:
                return  # peer vanished mid-read
            if raw is None:
                return  # clean EOF
            response = self.handle_request_line(raw)
            if not self._safe_write(wfile, response):
                return  # peer vanished mid-write

    @staticmethod
    def _safe_write(wfile, response: Dict[str, Any]) -> bool:
        try:
            wfile.write(encode(response))
            wfile.flush()
            return True
        except (OSError, ValueError):
            return False

    # -- request dispatch -----------------------------------------------------

    def handle_request_line(self, raw: bytes) -> Dict[str, Any]:
        """One raw request line → one response dict (never raises)."""
        request_id = None
        try:
            message = decode_request(raw)
            request_id = message.get("id")
            op = message["op"]
            if self._shutting_down.is_set() and op != "stats":
                return error_response("shutting-down",
                                      "server is draining", request_id)
            _REQUESTS.inc()
            with span("serve.request", op=op):
                handler = getattr(self, "_op_" + op.replace("-", "_"))
                return ok_response(handler(message), request_id)
        except ProtocolError as exc:
            _ERRORS.inc()
            return error_response(exc.code, str(exc),
                                  exc.request_id if request_id is None
                                  else request_id)
        except ServeError as exc:
            _ERRORS.inc()
            return error_response(exc.code, str(exc), request_id)
        except ReproError as exc:
            _ERRORS.inc()
            return error_response("compile-error",
                                  f"{type(exc).__name__}: {exc}",
                                  request_id)
        except Exception as exc:  # traceback stays server-side
            _log.exception("internal error handling request")
            _ERRORS.inc()
            return error_response("internal",
                                  f"{type(exc).__name__}: {exc}",
                                  request_id)

    # -- compilation ----------------------------------------------------------

    def _catalog_for(self, specs: Sequence[str]) -> Catalog:
        key = tuple(specs)
        with self._catalog_lock:
            catalog = self._catalogs.get(key)
            if catalog is None:
                catalog = Catalog()
                for spec in key:
                    name, columns = parse_table_spec(spec)
                    catalog.add_table(name, columns)
                if len(self._catalogs) > 256:
                    self._catalogs.clear()  # crude bound; rebuilt on demand
                self._catalogs[key] = catalog
            return catalog

    def _request_catalog(self, message: Dict[str, Any]) -> Catalog:
        tables = message.get("tables")
        if tables is None:
            tables = self.default_tables
        if not isinstance(tables, (list, tuple)) \
                or not all(isinstance(t, str) for t in tables):
            raise ProtocolError("bad-request",
                                '"tables" must be a list of '
                                '"R(a:int,b:int)" spec strings')
        return self._catalog_for(tables)

    def _compile_cached(self, sql: str, catalog: Catalog,
                        catalog_key: Tuple[str, ...]):
        key = (catalog_key, sql)
        with self._compiled_lock:
            query = self._compiled.get(key)
        if query is None:
            query = compile_sql(sql, catalog).query
            with self._compiled_lock:
                if len(self._compiled) > 4096:
                    self._compiled.clear()  # crude bound; rebuilt on demand
                self._compiled[key] = query
        return query

    def _compile_pair(self, message: Dict[str, Any],
                      sql1: str, sql2: str):
        catalog = self._request_catalog(message)
        catalog_key = tuple(message.get("tables") or self.default_tables)
        return (self._compile_cached(sql1, catalog, catalog_key),
                self._compile_cached(sql2, catalog, catalog_key), catalog)

    @staticmethod
    def _require_sql(message: Dict[str, Any], *fields: str) -> List[str]:
        values = []
        for name in fields:
            value = message.get(name)
            if not isinstance(value, str) or not value.strip():
                raise ProtocolError("bad-request",
                                    f'"{name}" must be a non-empty '
                                    f'SQL string')
            values.append(value)
        return values

    # -- answering: alias index, then in-flight dedup -------------------------

    def _answer(self, q1, q2) -> Tuple[Verdict, str]:
        """Answer one compiled question: from the alias index when it was
        asked before (role ``"alias"``), otherwise via :meth:`_checked`."""
        key = syntactic_alias(q1, q2)
        hit = self.pipeline.cache.get_by_alias(key, q1, q2)
        if hit is not None:
            _ALIAS_HITS.inc()
            return hit, "alias"
        return self._checked(q1, q2, key)

    def _checked(self, q1, q2, key: str) -> Tuple[Verdict, str]:
        """Answer one compiled question, deduplicating in-flight work.

        Returns ``(verdict, role)`` where role is ``"leader"`` (this
        request ran the pipeline) or ``"follower"`` (it fanned in on a
        concurrent identical question).
        """
        with self._inflight_lock:
            entry = self._inflight.get(key)
            if entry is None:
                if len(self._inflight) >= self.max_inflight:
                    raise ServeError(
                        "overloaded",
                        f"{self.max_inflight} questions already in "
                        f"flight; retry later")
                entry = _InflightEntry()
                self._inflight[key] = entry
                leader = True
                _INFLIGHT.set(len(self._inflight))
            else:
                entry.followers += 1
                leader = False
                _DEDUP_FOLLOWERS.inc()
        if leader:
            try:
                _PIPELINE_RUNS.inc()
                future = self._executor.submit(
                    self.pipeline.check, q1, q2, None, NO_HYPOTHESES,
                    alias=key)
                entry.verdict = future.result()
            except BaseException as exc:
                entry.error = exc
                raise
            finally:
                with self._inflight_lock:
                    self._inflight.pop(key, None)
                    _INFLIGHT.set(len(self._inflight))
                entry.event.set()
            return entry.verdict, "leader"
        if not entry.event.wait(FOLLOWER_TIMEOUT):
            raise ServeError("internal",
                             "timed out waiting for the in-flight "
                             "leader of an identical question")
        if entry.error is not None or entry.verdict is None:
            raise ServeError("internal",
                             f"the in-flight leader of this question "
                             f"failed: {entry.error}")
        # The alias key is symmetric, so the leader may have computed the
        # mirrored pair; re-orient any counterexample to this caller.
        verdict = entry.verdict.oriented_for(
            repr_digest=query_side_digest(q1))
        return verdict, "follower"

    # -- ops ------------------------------------------------------------------

    def _op_ping(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "uptime_seconds":
                time.monotonic() - self._started}

    def _check_result(self, verdict: Verdict, role: str,
                      wall: float) -> Dict[str, Any]:
        return {
            "verdict": verdict.to_dict(),
            "status": verdict.status.value,
            "stage": verdict.stage,
            "cached": verdict.cached,
            "dedup": role,
            "wall_seconds": wall,
        }

    def _op_check(self, message: Dict[str, Any]) -> Dict[str, Any]:
        sql1, sql2 = self._require_sql(message, "sql1", "sql2")
        started = time.perf_counter()
        q1, q2, _ = self._compile_pair(message, sql1, sql2)
        verdict, role = self._answer(q1, q2)
        return self._check_result(verdict, role,
                                  time.perf_counter() - started)

    def _op_batch_check(self, message: Dict[str, Any]) -> Dict[str, Any]:
        pairs = message.get("pairs")
        if not isinstance(pairs, list) or not pairs:
            raise ProtocolError("bad-request",
                                '"pairs" must be a non-empty list of '
                                '[SQL1, SQL2] pairs')
        results = []
        for i, pair in enumerate(pairs):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(isinstance(s, str) for s in pair)):
                raise ProtocolError("bad-request",
                                    f"pair #{i} is not a [SQL1, SQL2] "
                                    f"list of strings")
            started = time.perf_counter()
            q1, q2, _ = self._compile_pair(message, pair[0], pair[1])
            verdict, role = self._answer(q1, q2)
            results.append(self._check_result(
                verdict, role, time.perf_counter() - started))
        return {"results": results, "total": len(results)}

    def _op_optimize(self, message: Dict[str, Any]) -> Dict[str, Any]:
        (sql,) = self._require_sql(message, "sql")
        rows = message.get("rows") or {}
        if not isinstance(rows, dict):
            raise ProtocolError("bad-request",
                                '"rows" must be a {table: cardinality} '
                                'object')
        # NaN or a negative count would poison every cost comparison.
        if not all(type(n) in (int, float) and 0 <= n < float("inf")
                   for n in rows.values()):
            raise ProtocolError("bad-request",
                                '"rows" cardinalities must be finite '
                                'JSON numbers >= 0')
        unknown = sorted(set(message) - _OPTIMIZE_FIELDS)
        if unknown:
            raise ProtocolError(
                "bad-request",
                f"unknown optimize field(s) {', '.join(unknown)}: the "
                f"planner is equality saturation only, and its budget "
                f'is "max_plans"')
        max_plans = message.get("max_plans", 400)
        if type(max_plans) is not int or max_plans < 1:
            raise ProtocolError("bad-request",
                                '"max_plans" must be a positive integer')
        certify = message.get("certify", True)
        if not isinstance(certify, bool):
            raise ProtocolError("bad-request",
                                '"certify" must be a JSON boolean')
        catalog = self._request_catalog(message)
        q = compile_sql(sql, catalog).query
        started = time.perf_counter()
        stats = TableStats({str(k): float(n) for k, n in rows.items()})
        result = optimize(q, stats, max_plans=max_plans, certify=certify,
                          pipeline=self.pipeline)
        try:
            sql_out: Optional[str] = plan_to_sql(result.best_plan, catalog)
        except ReproError:
            sql_out = None
        return {
            "original_cost": result.original_cost,
            "best_cost": result.best_cost,
            "improved": result.improved,
            "certified": result.certified,
            "applied_rules": list(result.applied_rules),
            "plans_explored": result.plans_explored,
            "sql": sql_out,
            "wall_seconds": time.perf_counter() - started,
        }

    def _op_stats(self, message: Dict[str, Any]) -> Dict[str, Any]:
        cache = self.pipeline.cache
        if isinstance(cache, StoreProofCache):
            cache_stats: Dict[str, Any] = cache.stats()
        else:
            cache_stats = {"hot_entries": len(cache),
                           "hot_max_size": cache.max_size,
                           "hits": cache.hits, "misses": cache.misses,
                           "hit_rate": cache.hit_rate, "store": None}
        return {
            "server": {
                "address": list(self.address),
                "uptime_seconds": time.monotonic() - self._started,
                "workers": self.workers,
                "max_inflight": self.max_inflight,
                "inflight": len(self._inflight),
                "requests_total": _REQUESTS.value,
                "errors_total": _ERRORS.value,
                "connections_total": _CONNECTIONS.value,
                "pipeline_runs_total": _PIPELINE_RUNS.value,
                "alias_hits_total": _ALIAS_HITS.value,
                "dedup_followers_total": _DEDUP_FOLLOWERS.value,
                "shutting_down": self._shutting_down.is_set(),
            },
            "cache": cache_stats,
            "metrics": REGISTRY.snapshot(),
        }

    def _op_shutdown(self, message: Dict[str, Any]) -> Dict[str, Any]:
        # Acknowledge first, then drain on a separate thread — shutdown
        # blocks on the handler threads, this being one of them.
        threading.Thread(target=self.shutdown, kwargs={"drain": True},
                         name="repro-serve-shutdown",
                         daemon=True).start()
        return {"shutting_down": True}


__all__ = ["FOLLOWER_TIMEOUT", "ReproServer", "ServeError"]

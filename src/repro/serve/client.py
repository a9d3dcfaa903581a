"""``ServeClient`` — the library-side half of the serve protocol.

A thin, dependency-free socket client for the ``repro serve`` daemon:
connect with retry/backoff (daemons race their first clients in CI and
scripts), send one JSON line per request, read one JSON line per
response, and translate error responses into :class:`ServeClientError`.
Verdict payloads are rehydrated into real
:class:`~repro.solver.verdict.Verdict` objects, so remote answers are
interchangeable with local ones — which is what lets
:meth:`repro.session.Session.connect` route the fluent API over the
wire transparently.

The client is deliberately synchronous and single-connection: one
request in flight at a time per client.  Concurrency comes from using
many clients (one per thread/process), which is also how the server's
in-flight dedup is exercised.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..obs.logs import get_logger
from ..solver.verdict import Verdict
from .protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    encode,
    parse_address,
    read_message,
)

_log = get_logger("serve.client")


class ServeClientError(ReproError):
    """A failed request: connection trouble or a server error response.

    ``code`` carries the protocol error code (``"connection"`` for
    client-side transport failures).
    """

    def __init__(self, message: str, code: str = "connection") -> None:
        super().__init__(message)
        self.code = code


class ServeClient:
    """One connection to a ``repro serve`` daemon.

    Args:
        address: ``"host:port"`` or a ``(host, port)`` pair.
        timeout: per-request socket timeout (seconds).
        connect_retries: connection attempts before giving up (the
            daemon may still be starting).
        retry_delay: initial delay between attempts (backs off ×1.5).
    """

    def __init__(self, address, *, timeout: float = 60.0,
                 connect_retries: int = 20,
                 retry_delay: float = 0.05) -> None:
        try:
            self.host, self.port = parse_address(address)
        except ProtocolError as exc:
            raise ServeClientError(str(exc), "bad-request") from exc
        self.timeout = timeout
        self.connect_retries = connect_retries
        self.retry_delay = retry_delay
        self._sock: Optional[socket.socket] = None
        self._rfile = None

    # -- connection management ------------------------------------------------

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def connect(self) -> "ServeClient":
        """Open the connection, retrying while the daemon comes up."""
        if self._sock is not None:
            return self
        delay = self.retry_delay
        last: Optional[Exception] = None
        for _ in range(max(1, self.connect_retries)):
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout)
                sock.settimeout(self.timeout)
                self._sock = sock
                self._rfile = sock.makefile("rb")
                return self
            except OSError as exc:
                last = exc
                time.sleep(delay)
                delay = min(delay * 1.5, 2.0)
        raise ServeClientError(
            f"cannot connect to repro serve at "
            f"{self.host}:{self.port}: {last}")

    def close(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the request loop -----------------------------------------------------

    def request(self, op: str, **payload: Any) -> Any:
        """One round trip; returns the response's ``result`` payload.

        Every op the server exposes is idempotent, so a request that
        dies on a stale connection (daemon restarted, idle socket
        dropped) is retried once on a fresh one.
        """
        message = {"op": op, **{k: v for k, v in payload.items()
                                if v is not None}}
        try:
            return self._round_trip(message)
        except ServeClientError as exc:
            if exc.code != "connection":
                raise
            self.close()
            return self._round_trip(message)

    def _round_trip(self, message: Dict[str, Any]) -> Any:
        self.connect()
        assert self._sock is not None
        try:
            self._sock.sendall(encode(message))
            raw = read_message(self._rfile, MAX_LINE_BYTES)
        except ProtocolError as exc:
            self.close()
            raise ServeClientError(f"oversized response: {exc}",
                                   "too-large") from exc
        except OSError as exc:
            self.close()
            raise ServeClientError(
                f"connection to {self.host}:{self.port} failed: "
                f"{exc}") from exc
        if raw is None:
            self.close()
            raise ServeClientError(
                f"server at {self.host}:{self.port} closed the "
                f"connection mid-request")
        try:
            response = json.loads(raw)
        except ValueError as exc:
            self.close()
            raise ServeClientError(
                f"unparseable server response: {exc}") from exc
        if not isinstance(response, dict) or "ok" not in response:
            raise ServeClientError("malformed server response (no ok "
                                   "field)")
        if not response["ok"]:
            error = response.get("error") or {}
            raise ServeClientError(
                error.get("message", "unknown server error"),
                error.get("code", "internal"))
        return response.get("result")

    # -- typed verbs ----------------------------------------------------------

    @staticmethod
    def _rehydrate(result: Dict[str, Any]) -> Verdict:
        verdict = Verdict.from_dict(result["verdict"])
        verdict.cached = bool(result.get("cached", False))
        return verdict

    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    def check(self, sql1: str, sql2: str,
              tables: Optional[Sequence[str]] = None) -> Verdict:
        """Decide equivalence of two SQL texts on the server."""
        result = self.request("check", sql1=sql1, sql2=sql2,
                              tables=list(tables) if tables is not None
                              else None)
        return self._rehydrate(result)

    def check_detail(self, sql1: str, sql2: str,
                     tables: Optional[Sequence[str]] = None
                     ) -> Dict[str, Any]:
        """Like :meth:`check` but returns the raw result (dedup role,
        wall seconds, verdict dict)."""
        return self.request("check", sql1=sql1, sql2=sql2,
                            tables=list(tables) if tables is not None
                            else None)

    def batch_check(self, pairs: Iterable[Tuple[str, str]],
                    tables: Optional[Sequence[str]] = None
                    ) -> List[Verdict]:
        result = self.request(
            "batch-check", pairs=[list(p) for p in pairs],
            tables=list(tables) if tables is not None else None)
        return [self._rehydrate(r) for r in result["results"]]

    def optimize(self, sql: str,
                 tables: Optional[Sequence[str]] = None,
                 rows: Optional[Dict[str, float]] = None,
                 **knobs: Any) -> Dict[str, Any]:
        return self.request("optimize", sql=sql,
                            tables=list(tables) if tables is not None
                            else None,
                            rows=rows, **knobs)

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")

    def shutdown(self) -> bool:
        """Ask the daemon to drain and exit."""
        result = self.request("shutdown")
        self.close()
        return bool(result.get("shutting_down"))

    def __repr__(self) -> str:
        state = "connected" if self.connected else "disconnected"
        return f"ServeClient({self.host}:{self.port}, {state})"


__all__ = ["ServeClient", "ServeClientError"]

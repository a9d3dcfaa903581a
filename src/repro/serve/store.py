"""Sharded, disk-backed, content-addressed proof store.

The batch service's :class:`~repro.solver.cache.ProofCache` is one JSON
file rewritten wholesale — fine for a single process, useless as the
shared substrate of a long-lived verification service.  This module is
the persistent tier the ``repro serve`` daemon (and any number of other
processes) layer their in-memory caches over:

* **Content-addressed**: entries are keyed by the pipeline's symmetric
  alpha-canonical pair fingerprint (sha256 hex), so alpha-equivalent
  questions from different clients, processes, and runs land on the
  same record.
* **Sharded**: fingerprint prefix → shard (``int(fp[:8], 16) % shards``),
  one append-only JSONL segment per shard, so concurrent writers rarely
  contend and no single file grows unboundedly hot.
* **Multi-process safe**: appends happen under a per-shard advisory file
  lock (:func:`repro.fslock.file_lock`); readers keep a byte-offset
  index per shard and *tail-scan* incrementally, so a second server on
  the same ``--store-dir`` sees the first one's proofs without any
  coordination channel.  Compaction rewrites a segment last-wins via
  atomic rename; readers detect the rewrite (shrunk or diverged file)
  and rebuild their index.

Layout of a store directory::

    store.json            {"version": 1, "shards": N}
    shard-0000.jsonl      one ["<fingerprint>", {verdict}] record per line
    shard-0000.jsonl.lock sidecar advisory lock (flock)

:class:`StoreProofCache` is the layering: a drop-in
:class:`~repro.solver.cache.ProofCache` (so the untouched
:class:`~repro.solver.pipeline.Pipeline` probes and fills it) whose hot
tier is the bounded in-memory LRU and whose misses fall through to —
and whose inserts write through to — the shard store.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import zlib
from typing import Any, Dict, Optional

from ..fslock import file_lock
from ..obs.logs import get_logger
from ..obs.metrics import counter, gauge
from ..obs.trace import span
from ..solver.cache import ProofCache
from ..solver.verdict import Verdict

_log = get_logger("serve.store")

_SHARD_HITS = counter("store.shard_hits_total")
_SHARD_MISSES = counter("store.shard_misses_total")
_APPENDS = counter("store.appends_total")
_COMPACTIONS = counter("store.compactions_total")
_ENTRIES = gauge("store.entries")

#: Name of the store's metadata file (records the shard count, which is
#: fixed at creation — every process opening the store must agree).
META_FILE = "store.json"


class StoreError(ValueError):
    """Raised for an unusable store directory (bad meta, bad shards)."""


class ShardedProofStore:
    """The disk tier: fingerprint → verdict across sharded JSONL segments.

    Args:
        root: store directory (created if missing).
        shards: shard count for a *new* store; an existing store's
            recorded count always wins (a mismatch logs a warning).
        auto_compact: rewrite a segment when superseded records outnumber
            live ones (appends are last-wins, so re-proofs accumulate).
    """

    def __init__(self, root: str, shards: int = 16,
                 auto_compact: bool = True) -> None:
        if shards < 1:
            raise StoreError(f"shard count must be positive, got {shards}")
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.auto_compact = auto_compact
        self._lock = threading.RLock()
        #: shard → fingerprint → byte offset of its newest record.
        self._index: Dict[int, Dict[str, int]] = {}
        #: shard → bytes of the segment already folded into the index.
        self._scanned: Dict[int, int] = {}
        #: shard → superseded (dead) records seen while scanning.
        self._dead: Dict[int, int] = {}
        self.shards = self._init_meta(shards)

    def _init_meta(self, requested: int) -> int:
        """Create or read ``store.json`` (under its lock: two processes
        may race to create the same store)."""
        meta_path = os.path.join(self.root, META_FILE)
        with file_lock(meta_path):
            if os.path.exists(meta_path):
                with open(meta_path, "r", encoding="utf-8") as handle:
                    meta = json.load(handle)
                if meta.get("version") != 1 or "shards" not in meta:
                    raise StoreError(
                        f"unsupported store metadata in {meta_path!r}")
                recorded = int(meta["shards"])
                if recorded != requested:
                    _log.warning(
                        "store %s has %d shard(s); ignoring requested %d",
                        self.root, recorded, requested)
                return recorded
            payload = {"version": 1, "shards": requested}
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, meta_path)
            return requested

    # -- addressing ---------------------------------------------------------

    def shard_of(self, fingerprint: str) -> int:
        """Shard index of a fingerprint (stable across processes)."""
        try:
            prefix = int(fingerprint[:8], 16)
        except ValueError:
            # Non-hex keys (tests, future key schemes) need a digest that,
            # unlike the per-process salted ``hash``, agrees across
            # processes sharing the store.
            prefix = zlib.crc32(fingerprint.encode("utf-8"))
        return prefix % self.shards

    def _segment(self, shard: int) -> str:
        return os.path.join(self.root, f"shard-{shard:04d}.jsonl")

    # -- the incremental per-shard index -------------------------------------

    def _reset_shard(self, shard: int) -> None:
        self._index[shard] = {}
        self._scanned[shard] = 0
        self._dead[shard] = 0

    def _refresh_locked(self, shard: int) -> None:
        """Fold any segment bytes appended since the last scan (possibly
        by another process) into the in-memory offset index."""
        segment = self._segment(shard)
        try:
            size = os.path.getsize(segment)
        except OSError:
            size = 0
        start = self._scanned.get(shard, 0)
        if size < start:
            # Another process compacted the segment out from under us:
            # every offset is stale, rebuild from scratch.
            self._reset_shard(shard)
            start = 0
        if size <= start:
            self._index.setdefault(shard, {})
            return
        with open(segment, "rb") as handle:
            handle.seek(start)
            data = handle.read(size - start)
        complete = data.rfind(b"\n")
        if complete < 0:
            return  # only a partially flushed line so far
        index = self._index.setdefault(shard, {})
        dead = self._dead.get(shard, 0)
        offset = start
        for raw in data[:complete + 1].split(b"\n")[:-1]:
            record_offset = offset
            offset += len(raw) + 1
            try:
                fingerprint = json.loads(raw)[0]
            except (ValueError, IndexError, TypeError):
                continue  # torn or corrupt line: ignore, never crash
            if fingerprint in index:
                dead += 1
            index[fingerprint] = record_offset
        self._dead[shard] = dead
        self._scanned[shard] = start + complete + 1

    def _read_at(self, shard: int, fingerprint: str,
                 offset: int) -> Optional[Verdict]:
        segment = self._segment(shard)
        try:
            with open(segment, "rb") as handle:
                handle.seek(offset)
                raw = handle.readline()
            found, data = json.loads(raw)
            if found != fingerprint:
                raise ValueError("offset points at a different record")
            verdict = Verdict.from_dict(data)
            verdict.fingerprint = fingerprint
            return verdict
        except (OSError, ValueError, KeyError, TypeError):
            return None

    # -- public API ----------------------------------------------------------

    def read(self, fingerprint: str) -> Optional[Verdict]:
        """The newest stored verdict for a fingerprint, or None."""
        shard = self.shard_of(fingerprint)
        with self._lock:
            self._refresh_locked(shard)
            offset = self._index.get(shard, {}).get(fingerprint)
            if offset is not None:
                verdict = self._read_at(shard, fingerprint, offset)
                if verdict is None:
                    # Stale offset (concurrent compaction): rebuild once.
                    self._reset_shard(shard)
                    self._refresh_locked(shard)
                    offset = self._index.get(shard, {}).get(fingerprint)
                    if offset is not None:
                        verdict = self._read_at(shard, fingerprint, offset)
                if verdict is not None:
                    _SHARD_HITS.inc()
                    return verdict
            _SHARD_MISSES.inc()
            return None

    def append(self, fingerprint: str, verdict: Verdict) -> None:
        """Durably record a verdict (last-wins per fingerprint)."""
        line = json.dumps([fingerprint, verdict.to_dict()],
                          separators=(",", ":")).encode("utf-8") + b"\n"
        shard = self.shard_of(fingerprint)
        segment = self._segment(shard)
        with self._lock:
            with file_lock(segment):
                # Fold in whatever other processes appended first, so our
                # scan cursor can jump cleanly over our own record.
                self._refresh_locked(shard)
                offset = self._scanned.get(shard, 0)
                with open(segment, "ab") as handle:
                    # A concurrent writer may have appended between the
                    # scan and the open; trust the real end of file.
                    handle.seek(0, os.SEEK_END)
                    offset = handle.tell()
                    handle.write(line)
                index = self._index.setdefault(shard, {})
                if fingerprint in index:
                    self._dead[shard] = self._dead.get(shard, 0) + 1
                index[fingerprint] = offset
                self._scanned[shard] = offset + len(line)
            _APPENDS.inc()
            _ENTRIES.set(sum(len(i) for i in self._index.values()))
            if self.auto_compact and \
                    self._dead.get(shard, 0) > max(64, len(
                        self._index.get(shard, {}))):
                self.compact(shard)

    def compact(self, shard: Optional[int] = None) -> None:
        """Rewrite segment(s) keeping only the newest record per key."""
        targets = range(self.shards) if shard is None else (shard,)
        for target in targets:
            self._compact_one(target)

    def _compact_one(self, shard: int) -> None:
        segment = self._segment(shard)
        with self._lock:
            with file_lock(segment), span("store.compact", shard=shard):
                if not os.path.exists(segment):
                    return
                self._reset_shard(shard)
                self._refresh_locked(shard)
                index = self._index.get(shard, {})
                records = []
                for fingerprint in index:
                    verdict = self._read_at(shard, fingerprint,
                                            index[fingerprint])
                    if verdict is not None:
                        records.append((fingerprint, verdict))
                fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
                with os.fdopen(fd, "wb") as handle:
                    for fingerprint, verdict in records:
                        handle.write(json.dumps(
                            [fingerprint, verdict.to_dict()],
                            separators=(",", ":")).encode("utf-8") + b"\n")
                os.replace(tmp, segment)
                self._reset_shard(shard)
                self._refresh_locked(shard)
            _COMPACTIONS.inc()

    def __len__(self) -> int:
        """Distinct fingerprints currently indexed (refreshes all shards)."""
        with self._lock:
            for shard in range(self.shards):
                self._refresh_locked(shard)
            return sum(len(index) for index in self._index.values())

    def __contains__(self, fingerprint: str) -> bool:
        shard = self.shard_of(fingerprint)
        with self._lock:
            self._refresh_locked(shard)
            return fingerprint in self._index.get(shard, {})

    def stats(self) -> Dict[str, Any]:
        """Shard layout + per-shard entry counts + traffic counters."""
        with self._lock:
            for shard in range(self.shards):
                self._refresh_locked(shard)
            per_shard = {shard: len(self._index.get(shard, {}))
                         for shard in range(self.shards)}
            return {
                "root": self.root,
                "shards": self.shards,
                "entries": sum(per_shard.values()),
                "per_shard": per_shard,
                "dead_records": sum(self._dead.values()),
                "hits": _SHARD_HITS.value,
                "misses": _SHARD_MISSES.value,
                "appends": _APPENDS.value,
                "compactions": _COMPACTIONS.value,
            }


class StoreProofCache(ProofCache):
    """A :class:`ProofCache` whose cold tier is a shard store.

    Drop-in for the pipeline: probes hit the bounded in-memory LRU first
    (the hot tier this class inherits), fall through to the shard store
    on miss (promoting disk hits into the hot tier, *without* a
    write-back), and inserts write through to disk so every other
    process sharing the store directory profits.  ``hits``/``misses``
    count the layered result — a disk hit is a cache hit, exactly one
    count per probe.  An alias stays live while its record is on disk,
    so a re-ask whose entry left the hot tier still skips the pipeline.
    """

    def __init__(self, store: ShardedProofStore,
                 max_size: int = 4096) -> None:
        super().__init__(max_size=max_size)
        self._store = store

    @property
    def store(self) -> ShardedProofStore:
        return self._store

    # -- layered lookups ------------------------------------------------------

    def _resident(self, fingerprint: str) -> Optional[Verdict]:
        entry = super()._resident(fingerprint)
        if entry is None:
            entry = self._store.read(fingerprint)
            if entry is not None:
                # Promote into the hot tier only — the record is already
                # on disk, a write-back would just grow the segment.
                ProofCache.put(self, fingerprint, entry)
        return entry

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return (fingerprint in self._entries
                    or fingerprint in self._store)

    # -- write-through inserts ------------------------------------------------

    def put(self, fingerprint: str, verdict: Verdict,
            alias: Optional[str] = None) -> None:
        ProofCache.put(self, fingerprint, verdict, alias=alias)
        self._store.append(fingerprint, verdict)

    # -- persistence ----------------------------------------------------------

    def save(self, path: Optional[str] = None) -> str:
        """Every insert is already durable; saving is a no-op."""
        return self._store.root

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "hot_entries": len(self._entries),
                "hot_max_size": self.max_size,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hit_rate,
                "store": self._store.stats(),
            }


__all__ = ["META_FILE", "ShardedProofStore", "StoreError",
           "StoreProofCache"]

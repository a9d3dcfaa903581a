"""Sharded, disk-backed, content-addressed proof store.

This is the one persistent proof format: ``repro serve --store-dir``,
``Session(cache=DIR)`` and the CLI's ``--cache DIR`` all layer their
in-memory caches over a store directory, so a store written by one is
read by the others.  Every verdict is durable as soon as it is decided;
there is no save step.

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
  and rebuild their index.  A writer killed in the middle of an append
  leaves a torn line, which readers skip; the next append terminates it
  first, so it never swallows a later record.
* **Epoch-stamped**: every record carries the
  :data:`~repro.solver.verdict.PROOF_EPOCH` of the prover that wrote it;
  records from any other epoch read as misses and are dropped at the
  next compaction.

Layout of a store directory::

    store.json            {"version": 1, "shards": N}
    shard-0000.jsonl      one record per line:
                            ["<fingerprint>", {verdict}, epoch]
                            ["alias:<alias>", [fp, lhs_repr, lhs_norm], epoch]
    shard-0000.jsonl.lock sidecar advisory lock (flock)

:class:`StoreProofCache` is the layering: a drop-in
:class:`~repro.solver.cache.ProofCache` (so the untouched
:class:`~repro.solver.pipeline.Pipeline` probes and fills it) whose hot
tier is the bounded in-memory LRU and whose misses — fingerprint and
alias alike — fall through to, and whose inserts write through to, the
shard store.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import zlib
from typing import Any, Dict, Optional, Tuple

from ..fslock import file_lock
from ..obs.logs import get_logger
from ..obs.metrics import counter, gauge
from ..obs.trace import span
from ..solver.cache import ProofCache, alias_tag_for
from ..solver.verdict import PROOF_EPOCH, Verdict

_log = get_logger("serve.store")

_SHARD_HITS = counter("store.shard_hits_total")
_SHARD_MISSES = counter("store.shard_misses_total")
_APPENDS = counter("store.appends_total")
_COMPACTIONS = counter("store.compactions_total")
_ENTRIES = gauge("store.entries")

#: Name of the store's metadata file (records the shard count, which is
#: fixed at creation — every process opening the store must agree).
META_FILE = "store.json"

#: Key prefix of alias records, which share the shard segments with
#: verdicts (a fingerprint is hex, so the two key spaces never meet).
ALIAS_PREFIX = "alias:"


class StoreError(ValueError):
    """Raised for an unusable store directory (bad meta, bad shards)."""


def _record_head(raw: bytes) -> Optional[Tuple[str, Any]]:
    """``(key, epoch)`` of a record line, read off its ``["<key>",``
    head and its ``,<epoch>]`` tail without parsing the payload between
    them.  None for a line without a key head (corrupt); the epoch is
    None when the tail is not one (unstamped).  A line that has the
    shape but is not JSON (a payload torn mid-write) is caught by
    :meth:`ShardedProofStore._record_at`, which parses the whole record
    on read."""
    if not (raw.startswith(b'["') and raw.endswith(b"]")):
        return None
    close = raw.find(b'"', 2)
    if close < 0 or b"\\" in raw[2:close] \
            or raw[close + 1:close + 2] != b",":
        # An escaped key (none that this store writes) or a malformed
        # head: only a full parse can tell.
        try:
            record = json.loads(raw)
        except ValueError:
            return None
        if not isinstance(record, list) or not record \
                or not isinstance(record[0], str):
            return None
        return record[0], (record[2] if len(record) == 3 else None)
    try:
        key = raw[2:close].decode("utf-8")
    except UnicodeDecodeError:
        return None
    tail = raw.rfind(b",")
    try:
        epoch = int(raw[tail + 1:-1]) if tail > close else None
    except ValueError:
        epoch = None  # not an integer epoch: never the current one
    return key, epoch


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
        by another process) into the in-memory offset index.  Only
        records stamped with the current :data:`PROOF_EPOCH` are indexed;
        stale ones count as dead, so compaction drops them."""
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
        index = self._index.setdefault(shard, {})
        if size <= start:
            return
        with open(segment, "rb") as handle:
            handle.seek(start)
            data = handle.read(size - start)
        complete = data.rfind(b"\n")
        if complete < 0:
            return  # only a partially flushed line so far
        dead = self._dead.get(shard, 0)
        offset = start
        for raw in data[:complete + 1].split(b"\n")[:-1]:
            record_offset = offset
            offset += len(raw) + 1
            head = _record_head(raw)
            if head is None:
                continue  # torn or corrupt line: ignore, never crash
            key, epoch = head
            if epoch != PROOF_EPOCH:
                dead += 1  # unstamped, or another epoch's: a miss
                continue
            if key in index:
                dead += 1
            index[key] = record_offset
        self._dead[shard] = dead
        self._scanned[shard] = start + complete + 1

    def _record_at(self, shard: int, key: str,
                   offset: int) -> Optional[list]:
        """The ``[key, payload, epoch]`` record at a byte offset, or None
        when the offset no longer points at ``key``'s record."""
        try:
            with open(self._segment(shard), "rb") as handle:
                handle.seek(offset)
                record = json.loads(handle.readline())
        except (OSError, ValueError):
            return None
        if not isinstance(record, list) or record[:1] != [key] \
                or record[2:] != [PROOF_EPOCH]:
            return None
        return record

    def _lookup(self, key: str) -> Any:
        """The newest current-epoch payload stored under ``key``, or
        None."""
        shard = self.shard_of(key)
        with self._lock:
            self._refresh_locked(shard)
            offset = self._index[shard].get(key)
            if offset is None:
                return None
            record = self._record_at(shard, key, offset)
            if record is None:
                # Stale offset (concurrent compaction): rebuild once.
                self._reset_shard(shard)
                self._refresh_locked(shard)
                offset = self._index[shard].get(key)
                if offset is not None:
                    record = self._record_at(shard, key, offset)
            return None if record is None else record[1]

    def _append(self, key: str, payload: Any) -> None:
        """Durably record ``payload`` under ``key`` (last-wins)."""
        line = json.dumps([key, payload, PROOF_EPOCH],
                          separators=(",", ":")).encode("utf-8") + b"\n"
        shard = self.shard_of(key)
        segment = self._segment(shard)
        with self._lock:
            with file_lock(segment):
                # Fold in whatever other processes appended first, so our
                # scan cursor can jump cleanly over our own record.
                self._refresh_locked(shard)
                with open(segment, "a+b") as handle:
                    # Trust the real end of file, not the scan cursor.
                    offset = handle.seek(0, os.SEEK_END)
                    torn = b""
                    if offset:
                        handle.seek(offset - 1)
                        if handle.read(1) != b"\n":
                            # A writer died mid-append: terminate its
                            # torn line, or it would swallow this record.
                            torn = b"\n"
                    handle.write(torn + line)
                offset += len(torn)
                index = self._index[shard]
                if key in index:
                    self._dead[shard] = self._dead.get(shard, 0) + 1
                index[key] = offset
                self._scanned[shard] = offset + len(line)
            _APPENDS.inc()
            _ENTRIES.set(sum(len(i) for i in self._index.values()))
            if self.auto_compact and \
                    self._dead.get(shard, 0) > max(64, len(index)):
                self.compact(shard)

    # -- public API ----------------------------------------------------------

    def read(self, fingerprint: str) -> Optional[Verdict]:
        """The newest stored verdict for a fingerprint, or None."""
        payload = self._lookup(fingerprint)
        verdict = None
        if payload is not None:
            try:
                verdict = Verdict.from_dict(payload)
                verdict.fingerprint = fingerprint
            except (ValueError, KeyError, TypeError, AttributeError):
                verdict = None
        (_SHARD_HITS if verdict is not None else _SHARD_MISSES).inc()
        return verdict

    def read_alias(self, alias: str) -> Optional[Tuple[str, str, str]]:
        """The stored ``(fingerprint, lhs repr digest, lhs norm digest)``
        tag of a syntactic alias, or None."""
        tag = self._lookup(ALIAS_PREFIX + alias)
        if isinstance(tag, list) and len(tag) == 3 \
                and all(isinstance(part, str) for part in tag):
            return tuple(tag)
        return None

    def append(self, fingerprint: str, verdict: Verdict) -> None:
        """Durably record a verdict (last-wins per fingerprint)."""
        self._append(fingerprint, verdict.to_dict())

    def append_alias(self, alias: str, tag: Tuple[str, str, str]) -> None:
        """Durably record an alias tag (see :meth:`read_alias`)."""
        self._append(ALIAS_PREFIX + alias, list(tag))

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
                records = [self._record_at(shard, key, offset)
                           for key, offset in self._index[shard].items()]
                fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
                with os.fdopen(fd, "wb") as handle:
                    for record in records:
                        if record is not None:
                            handle.write(json.dumps(
                                record, separators=(",", ":"))
                                .encode("utf-8") + b"\n")
                os.replace(tmp, segment)
                self._reset_shard(shard)
                self._refresh_locked(shard)
            _COMPACTIONS.inc()

    def __len__(self) -> int:
        """Distinct fingerprints currently stored, alias records aside
        (refreshes all shards)."""
        with self._lock:
            for shard in range(self.shards):
                self._refresh_locked(shard)
            return sum(not key.startswith(ALIAS_PREFIX)
                       for index in self._index.values() for key in index)

    def __contains__(self, fingerprint: str) -> bool:
        shard = self.shard_of(fingerprint)
        with self._lock:
            self._refresh_locked(shard)
            return fingerprint in self._index[shard]

    def stats(self) -> Dict[str, Any]:
        """Shard layout + per-shard record counts + traffic counters."""
        with self._lock:
            return {
                "root": self.root,
                "shards": self.shards,
                "entries": len(self),
                "per_shard": {shard: len(self._index[shard])
                              for shard in range(self.shards)},
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
    count per probe.  Alias tags are persisted next to the verdicts, so
    an alias stays live while its record is on disk: a re-ask whose
    entry left the hot tier, or a warm batch in a fresh process, still
    skips the pipeline.
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

    def _alias_tag(self, alias: str) -> Optional[Tuple[str, str, str]]:
        tag = super()._alias_tag(alias)
        if tag is None:
            tag = self._store.read_alias(alias)
            if tag is not None:
                self._aliases[alias] = tag
        return tag

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return (fingerprint in self._entries
                    or fingerprint in self._store)

    # -- write-through inserts ------------------------------------------------

    def put(self, fingerprint: str, verdict: Verdict,
            alias: Optional[str] = None) -> None:
        ProofCache.put(self, fingerprint, verdict, alias=alias)
        self._store.append(fingerprint, verdict)
        if alias is not None:
            self._store.append_alias(alias,
                                     alias_tag_for(fingerprint, verdict))

    def register_alias(self, alias: str, verdict: Verdict) -> None:
        if verdict.fingerprint in self:
            ProofCache.register_alias(self, alias, verdict)
            self._store.append_alias(
                alias, alias_tag_for(verdict.fingerprint, verdict))

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


__all__ = ["ALIAS_PREFIX", "META_FILE", "ShardedProofStore", "StoreError",
           "StoreProofCache"]

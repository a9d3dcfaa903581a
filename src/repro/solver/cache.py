"""Content-addressed proof cache for equivalence verdicts.

Equivalence of two queries depends only on their *normal forms* modulo
alpha-renaming (plus the integrity-constraint hypotheses), so a verdict can
be cached under a fingerprint of exactly that data:

    fingerprint = sha256(sorted(alpha_key(NF₁), alpha_key(NF₂)) + hyps)

Sorting the two keys makes the fingerprint symmetric (equivalence is), and
using the *alpha* keys makes the cache hit on alpha-equivalent — not merely
textually identical — queries.  A secondary **alias index** maps cheap
syntactic keys (e.g. the SQL pair a batch job carries) onto fingerprints,
so a warm batch run or a served re-ask answers without even normalizing.
Each alias also records the orientation of the pair that registered it,
so an alias hit re-orients a counterexample by normal form, exactly as a
fingerprint hit does.

The cache is a bounded in-memory LRU, which is what lets a long-running
verification service amortize proof effort across requests.  Persistence
across processes and restarts is one layer up: a
:class:`~repro.serve.store.StoreProofCache` (what ``Session(cache=DIR)``,
the CLI's ``--cache DIR`` and ``repro serve`` open) overrides the
:meth:`ProofCache._resident` and :meth:`ProofCache._alias_tag` hooks to
fall through to a shard store on disk, and writes every insert through.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

from ..core.equivalence import Hypotheses, NO_HYPOTHESES
from ..core.intern import KernelLRU
from ..core.normalize import NSum, nsum_alpha_key
from ..obs.metrics import counter, gauge
from .verdict import Verdict

_HITS = counter("proofcache.hits_total")
_MISSES = counter("proofcache.misses_total")
_EVICTIONS = counter("proofcache.evictions_total")
_ENTRIES = gauge("proofcache.entries")

#: Memo for :func:`nsum_alpha_repr`, keyed on the interned normal form
#: plus the (small) free-variable labelling.  Repeated fingerprinting of
#: a memoized normal form — every pair of an all-pairs workload — is a
#: table lookup instead of an O(term) key rendering.
_ALPHA_REPR_MEMO = KernelLRU(4096, "alpha-repr")


def nsum_alpha_repr(n: NSum, free_env: Optional[Dict] = None) -> str:
    """The canonical (alpha-invariant) textual key of one normal form.

    ``free_env`` maps the *free* variables of the normal form (the
    denotation's context/tuple variables, whose fresh names differ from run
    to run) onto canonical labels; without it the key would depend on a
    process-global fresh-name counter.  Everything in this module — pair
    fingerprints and side digests alike — is a hash of these keys, so a
    caller that memoizes the key per query (a :class:`~repro.session
    .QueryHandle`) can fingerprint any pair without renormalizing.
    """
    memo_key = (n, frozenset(free_env.items()) if free_env else None)
    hit = _ALPHA_REPR_MEMO.get(memo_key)
    if hit is not None:
        return hit
    rendered = repr(nsum_alpha_key(n, dict(free_env or {})))
    _ALPHA_REPR_MEMO.put(memo_key, rendered)
    return rendered


def fingerprint_from_keys(k1: str, k2: str,
                          hyps: Hypotheses = None) -> str:
    """Symmetric pair fingerprint over two precomputed alpha keys."""
    if k2 < k1:
        k1, k2 = k2, k1
    hyp_part = "" if not hyps or hyps == Hypotheses() else repr(hyps)
    digest = hashlib.sha256()
    digest.update(k1.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(k2.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(hyp_part.encode("utf-8"))
    return digest.hexdigest()


def nsum_fingerprint(n1: NSum, n2: NSum,
                     hyps: Hypotheses = None,
                     free_env: Optional[Dict] = None) -> str:
    """Symmetric content address of an equivalence question.

    Alpha-equivalent normal forms map to the same digest, and the (Q1, Q2)
    and (Q2, Q1) orders agree.  See :func:`nsum_alpha_repr` for the role
    of ``free_env``.
    """
    return fingerprint_from_keys(nsum_alpha_repr(n1, free_env),
                                 nsum_alpha_repr(n2, free_env), hyps)


def digest_of_key(key: str) -> str:
    """Digest of one precomputed alpha key (orientation tag)."""
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


def nsum_side_digest(n: NSum, free_env: Optional[Dict] = None) -> str:
    """Digest identifying one side of a question (orientation tag)."""
    return digest_of_key(nsum_alpha_repr(n, free_env))


#: Memo for :func:`query_side_digest` (entries hold the query, so ids are
#: stable while cached).
_QUERY_DIGEST_MEMO = KernelLRU(4096, "query-digest")


def query_side_digest(q) -> str:
    """Repr-level orientation tag for one query of a pair (memoized)."""
    key = id(q)
    hit = _QUERY_DIGEST_MEMO.get(key)
    if hit is not None and hit[0] is q:
        return hit[1]
    digest = hashlib.sha256(repr(q).encode("utf-8")).hexdigest()
    _QUERY_DIGEST_MEMO.put(key, (q, digest))
    return digest


def syntactic_alias(q1, q2, ctx_schema=None,
                    hyps: Hypotheses = None) -> str:
    """A cheap symmetric key over the *un-normalized* question.

    Built from the memoized :func:`query_side_digest` of each side, so a
    query object asked about again (the serve daemon's compiled-query
    memo, a session handle) costs two memo probes, not two renderings.
    Distinct aliases may share a fingerprint (alpha-equivalent inputs);
    the alias index only ever short-circuits work, never changes answers.

    No hypotheses and :data:`NO_HYPOTHESES` are one question, so both
    spell ``None`` here: the daemon (which passes none) and
    batch-check / prove-all (which pass the empty set) agree on the
    alias of a closed pair and share each other's stored aliases.
    """
    k1, k2 = query_side_digest(q1), query_side_digest(q2)
    if k2 < k1:
        k1, k2 = k2, k1
    if hyps == NO_HYPOTHESES:
        hyps = None
    extra = f"|{ctx_schema!r}|{hyps!r}"
    return hashlib.sha256((k1 + "\x00" + k2 + extra)
                          .encode("utf-8")).hexdigest()


def alias_tag_for(fingerprint: str,
                  verdict: Verdict) -> Tuple[str, str, str]:
    """What the alias index stores: the fingerprint plus the registering
    caller's lhs digests (by repr and by normal form)."""
    return (fingerprint, verdict.lhs_repr_digest, verdict.lhs_norm_digest)


def _oriented_alias_hit(verdict: Verdict, tag: Tuple[str, str, str],
                        q1, q2) -> Verdict:
    """A cached record re-oriented for a caller asking (q1, q2).

    The alias is symmetric, so the caller's q1 is either the registering
    caller's lhs (same repr digest) or its rhs.  The registering lhs's
    normal-form digest then says whether the caller's lhs is the
    record's lhs: the record may have been produced by an alpha-variant
    pair, whose reprs say nothing about this one.
    """
    _, lhs_repr, lhs_norm = tag
    caller_lhs = query_side_digest(q1)
    same_side = caller_lhs == lhs_repr
    if verdict.counterexample is not None and lhs_norm \
            and verdict.lhs_norm_digest \
            and (lhs_norm == verdict.lhs_norm_digest) != same_side:
        verdict = verdict.swapped()
    verdict.lhs_norm_digest = lhs_norm if same_side else ""
    verdict.lhs_repr_digest = caller_lhs
    verdict.rhs_repr_digest = query_side_digest(q2)
    return verdict


class ProofCache:
    """Bounded LRU of fingerprint → :class:`Verdict`, plus the alias index.

    Thread-safe: the serve daemon probes it from connection threads while
    its worker pool inserts.

    Args:
        max_size: LRU capacity (entries beyond it evict oldest-used).
    """

    def __init__(self, max_size: int = 4096) -> None:
        if max_size <= 0:
            raise ValueError("cache max_size must be positive")
        self.max_size = max_size
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, Verdict]" = OrderedDict()
        #: alias → (fingerprint, registering lhs repr digest, registering
        #: lhs normal-form digest); see :func:`_oriented_alias_hit`.
        self._aliases: Dict[str, Tuple[str, str, str]] = {}
        #: alias-index size that triggers the next sweep of dead aliases.
        self._alias_sweep_at = 2 * max_size
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- lookups ------------------------------------------------------------

    def _resident(self, fingerprint: str) -> Optional[Verdict]:
        """The stored record for a fingerprint, marked most recently used
        (None when absent).  Called with the lock held; a layered cache
        overrides it to fall through to its cold tier."""
        entry = self._entries.get(fingerprint)
        if entry is not None:
            self._entries.move_to_end(fingerprint)
        return entry

    def _alias_tag(self, alias: str) -> Optional[Tuple[str, str, str]]:
        """The alias index's tag for ``alias`` (None when absent).  Called
        with the lock held; a layered cache overrides it to fall through
        to its cold tier."""
        return self._aliases.get(alias)

    def get(self, fingerprint: str) -> Optional[Verdict]:
        """Cached verdict for a fingerprint (counts toward hit rate)."""
        with self._lock:
            entry = self._resident(fingerprint)
            if entry is None:
                self.misses += 1
                _MISSES.inc()
                return None
            self.hits += 1
            _HITS.inc()
            return self._copy_as_cached(entry)

    def get_by_alias(self, alias: str, q1=None, q2=None) -> Optional[Verdict]:
        """Cached verdict for a syntactic alias, if ever registered.

        With the caller's queries given, the verdict comes back oriented
        for (q1, q2): counterexample sides and orientation tags follow the
        caller, not whichever pair first registered the alias.  Without
        them the record is returned as stored.

        Misses here are *not* counted: an alias miss normally precedes a
        fingerprint probe for the same question, and double-counting would
        understate the hit rate.
        """
        with self._lock:
            tag = self._alias_tag(alias)
            if tag is None:
                return None
            entry = self._resident(tag[0])
            if entry is None:
                self._aliases.pop(alias, None)  # lazily prune a dead alias
                return None
            self.hits += 1
            _HITS.inc()
            verdict = self._copy_as_cached(entry)
        if q1 is None:
            return verdict
        return _oriented_alias_hit(verdict, tag, q1, q2)

    @staticmethod
    def _copy_as_cached(entry: Verdict) -> Verdict:
        copy = Verdict.from_dict(entry.to_dict())
        copy.cached = True
        copy.stage = entry.stage
        return copy

    # -- insertion ----------------------------------------------------------

    def put(self, fingerprint: str, verdict: Verdict,
            alias: Optional[str] = None) -> None:
        """Store a verdict (serialization-safe part only) under its key.

        ``alias`` is registered with the verdict's lhs orientation tags,
        which must describe the pair the alias was computed from.
        """
        stored = Verdict.from_dict(verdict.to_dict())
        stored.fingerprint = fingerprint
        with self._lock:
            self._entries[fingerprint] = stored
            self._entries.move_to_end(fingerprint)
            if alias is not None:
                self._aliases[alias] = alias_tag_for(fingerprint, verdict)
            while len(self._entries) > self.max_size:
                self._entries.popitem(last=False)
                _EVICTIONS.inc()
            _ENTRIES.set(len(self._entries))
            # Dead aliases are pruned lazily on lookup; a bulk sweep runs
            # only once the index has doubled since the last one, so its
            # cost (a cold-tier probe per alias, in a layered cache)
            # stays amortized O(1) per insert.
            if len(self._aliases) > self._alias_sweep_at:
                self._aliases = {a: tag for a, tag in self._aliases.items()
                                 if tag[0] in self}
                self._alias_sweep_at = max(2 * self.max_size,
                                           2 * len(self._aliases))

    def register_alias(self, alias: str, verdict: Verdict) -> None:
        """Point ``alias`` at the cached record ``verdict`` answered from
        (``verdict`` carries the fingerprint and the lhs orientation of
        the pair the alias was computed from)."""
        with self._lock:
            if verdict.fingerprint in self:
                self._aliases[alias] = alias_tag_for(verdict.fingerprint,
                                                     verdict)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._aliases.clear()
            self._alias_sweep_at = 2 * self.max_size
            self.hits = 0
            self.misses = 0
            _ENTRIES.set(0)


__all__ = ["ProofCache", "alias_tag_for", "digest_of_key",
           "fingerprint_from_keys", "nsum_alpha_repr", "nsum_fingerprint",
           "nsum_side_digest", "query_side_digest", "syntactic_alias"]

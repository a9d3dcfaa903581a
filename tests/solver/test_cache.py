"""Content-addressed proof cache: fingerprints, LRU, alias index.

Persistence is the shard store's job: see ``tests/serve/test_store.py``.
"""

import sys
import threading

import pytest

from repro.core.denote import denote_closed
from repro.core.equivalence import align_denotations
from repro.core.normalize import normalize
from repro.core.schema import EMPTY, INT
from repro.solver import (
    Pipeline,
    ProofCache,
    Status,
    Verdict,
    nsum_fingerprint,
    syntactic_alias,
)
from repro.sql import Catalog, compile_sql


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.add_table("R", [("a", INT), ("b", INT)])
    return cat


def _normal_pair(q1, q2):
    d1 = denote_closed(q1, EMPTY)
    d2 = denote_closed(q2, EMPTY)
    lhs, rhs = align_denotations(d1, d2)
    return normalize(lhs), normalize(rhs), {d1.g: "@g", d1.t: "@t"}


class TestFingerprint:
    def test_symmetric(self, catalog):
        q1 = compile_sql("SELECT a FROM R", catalog).query
        q2 = compile_sql("SELECT b FROM R", catalog).query
        n1, n2, env = _normal_pair(q1, q2)
        assert nsum_fingerprint(n1, n2, free_env=env) == \
            nsum_fingerprint(n2, n1, free_env=env)

    def test_stable_across_runs(self, catalog):
        # Fresh-variable counters advance between compilations; the
        # fingerprint must not notice.
        q1 = compile_sql("SELECT a FROM R", catalog).query
        q2 = compile_sql("SELECT b FROM R", catalog).query
        pipeline = Pipeline()
        first = pipeline.check(q1, q2).fingerprint
        pipeline.cache.clear()
        second = pipeline.check(q1, q2).fingerprint
        assert first == second

    def test_alpha_equivalent_queries_share_fingerprint(self, catalog):
        # Different alias names, same question.
        q1 = compile_sql(
            "SELECT x.a FROM R AS x WHERE x.a = 1", catalog).query
        q2 = compile_sql(
            "SELECT y.a FROM R AS y WHERE y.a = 1", catalog).query
        pipeline = Pipeline()
        v1 = pipeline.check(q1, q1)
        v2 = pipeline.check(q2, q2)
        assert v1.fingerprint == v2.fingerprint

    def test_alias_is_symmetric(self, catalog):
        q1 = compile_sql("SELECT a FROM R", catalog).query
        q2 = compile_sql("SELECT b FROM R", catalog).query
        assert syntactic_alias(q1, q2) == syntactic_alias(q2, q1)


class TestLRU:
    def _verdict(self, tag):
        return Verdict(status=Status.PROVED, stage="prover",
                       fingerprint=tag)

    def test_eviction_order(self):
        cache = ProofCache(max_size=2)
        cache.put("a", self._verdict("a"))
        cache.put("b", self._verdict("b"))
        assert cache.get("a") is not None  # refresh a
        cache.put("c", self._verdict("c"))  # evicts b
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_hit_rate_accounting(self):
        cache = ProofCache(max_size=8)
        cache.put("a", self._verdict("a"))
        assert cache.get("a") is not None
        assert cache.get("missing") is None
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_cached_copies_are_marked(self):
        cache = ProofCache()
        cache.put("a", self._verdict("a"))
        hit = cache.get("a")
        assert hit.cached is True

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            ProofCache(max_size=0)


def _verdict(tag):
    return Verdict(status=Status.PROVED, stage="prover", fingerprint=tag)


class TestThreadSafety:
    def test_concurrent_probes_and_puts_lose_no_counts(self):
        # Connection threads probe while pool threads put (the serve
        # daemon); every probe must be counted exactly once.
        cache = ProofCache(max_size=16)
        found, missed, errors = [0] * 8, [0] * 8, []

        def worker(slot):
            try:
                for i in range(300):
                    fp = f"{slot}-{i}"
                    cache.put(fp, _verdict(fp), alias=f"alias-{fp}")
                    for probe in (cache.get(fp),
                                  cache.get(f"{slot}-{i // 2}"),
                                  cache.get_by_alias(f"alias-{slot}-{i // 3}")):
                        if probe is None:
                            missed[slot] += 1
                        else:
                            found[slot] += 1
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(slot,))
                       for slot in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert cache.hits == sum(found)
        # Alias misses are not counted (a fingerprint probe follows).
        assert cache.misses <= sum(missed)
        assert len(cache) <= cache.max_size

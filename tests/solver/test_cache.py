"""Content-addressed proof cache: fingerprints, LRU, persistence."""

import json
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


class TestPersistence:
    def test_roundtrip(self, tmp_path, catalog):
        path = str(tmp_path / "cache.json")
        q1 = compile_sql("SELECT DISTINCT a FROM R", catalog).query
        q2 = compile_sql(
            "SELECT DISTINCT x.a FROM R AS x, R AS y WHERE x.a = y.a",
            catalog).query
        pipeline = Pipeline(cache_path=path)
        cold = pipeline.check(q1, q2)
        assert cold.proved and not cold.cached
        pipeline.cache.save()

        fresh = Pipeline(cache_path=path)
        warm = fresh.check(q1, q2)
        assert warm.proved and warm.cached

    def test_counterexample_survives_roundtrip(self, tmp_path, catalog):
        path = str(tmp_path / "cache.json")
        q1 = compile_sql("SELECT a FROM R", catalog).query
        q2 = compile_sql("SELECT b FROM R", catalog).query
        pipeline = Pipeline(cache_path=path)
        cold = pipeline.check(q1, q2)
        assert cold.disproved and cold.counterexample is not None
        pipeline.cache.save()

        warm = Pipeline(cache_path=path).check(q1, q2)
        assert warm.disproved
        assert warm.counterexample == cold.counterexample

    def test_alias_tags_survive_roundtrip(self, tmp_path, catalog):
        path = str(tmp_path / "cache.json")
        q1 = compile_sql("SELECT a FROM R", catalog).query
        q2 = compile_sql("SELECT b FROM R", catalog).query
        alias = syntactic_alias(q1, q2)
        pipeline = Pipeline(cache_path=path)
        cold = pipeline.check(q1, q2, alias=alias)
        pipeline.cache.save()
        ProofCache().save(path)  # merge-on-save keeps the disk tags
        cache = ProofCache(path=path)
        assert cache.get_by_alias(alias, q1, q2).counterexample == \
            cold.counterexample
        assert cache.get_by_alias(alias, q2, q1).counterexample == \
            cold.counterexample.swap_sides()

    def test_untagged_aliases_are_dropped_on_load(self, tmp_path):
        path = str(tmp_path / "cache.json")
        fp = "f" * 64
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"version": 1,
                       "entries": [[fp, _verdict(fp).to_dict()]],
                       "aliases": {"old-alias": fp}}, handle)
        cache = ProofCache(path=path)
        assert fp in cache
        assert cache.get_by_alias("old-alias") is None

    def test_save_without_path_is_an_error(self):
        with pytest.raises(ValueError):
            ProofCache().save()


def _verdict(tag):
    return Verdict(status=Status.PROVED, stage="prover", fingerprint=tag)


class TestLoadMerge:
    """Loading a persisted cache into a warm one must not evict the warm
    working set or perturb the hit-rate counters."""

    def test_load_then_overflow_keeps_warm_entries(self, tmp_path):
        path = str(tmp_path / "cache.json")
        donor = ProofCache(max_size=8)
        for tag in ("d1", "d2", "d3"):
            donor.put(tag, _verdict(tag))
        donor.save(path)

        warm = ProofCache(max_size=4)
        warm.put("w1", _verdict("w1"))
        warm.put("w2", _verdict("w2"))
        warm.load(path)
        # 5 candidates into 4 slots: the overflow must shed loaded disk
        # history, never the in-memory working set.
        assert len(warm) == 4
        assert "w1" in warm and "w2" in warm
        assert "d1" not in warm  # oldest disk entry evicted

    def test_load_does_not_touch_hit_rate(self, tmp_path):
        path = str(tmp_path / "cache.json")
        donor = ProofCache(max_size=8)
        donor.put("d1", _verdict("d1"))
        donor.save(path)

        warm = ProofCache(max_size=8)
        warm.put("w1", _verdict("w1"))
        assert warm.get("w1") is not None
        assert warm.get("absent") is None
        hits, misses = warm.hits, warm.misses
        warm.load(path)
        assert (warm.hits, warm.misses) == (hits, misses)
        assert warm.hit_rate == 0.5

    def test_memory_entry_wins_over_disk_twin(self, tmp_path):
        path = str(tmp_path / "cache.json")
        donor = ProofCache(max_size=8)
        stale = Verdict(status=Status.UNKNOWN, stage="prover",
                        fingerprint="shared")
        donor.put("shared", stale)
        donor.save(path)

        warm = ProofCache(max_size=8)
        warm.put("shared", _verdict("shared"))
        warm.load(path)
        assert warm.get("shared").status is Status.PROVED

    def test_loaded_entries_rank_colder_than_warm_ones(self, tmp_path):
        path = str(tmp_path / "cache.json")
        donor = ProofCache(max_size=8)
        donor.put("d1", _verdict("d1"))
        donor.save(path)

        warm = ProofCache(max_size=2)
        warm.put("w1", _verdict("w1"))
        warm.load(path)
        warm.put("w2", _verdict("w2"))  # overflow: d1 must go, not w1
        assert "d1" not in warm
        assert "w1" in warm and "w2" in warm


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


class TestConcurrentSave:
    """Two caches saving to the same path must merge, not clobber."""

    def test_save_merges_with_disk(self, tmp_path):
        path = str(tmp_path / "cache.json")
        first = ProofCache(max_size=8)
        first.put("a", _verdict("a"))
        first.save(path)

        second = ProofCache(max_size=8)
        second.put("b", _verdict("b"))
        second.save(path)  # must not discard "a"

        merged = ProofCache(max_size=8, path=path)
        assert "a" in merged and "b" in merged

    def test_saver_wins_shared_fingerprint(self, tmp_path):
        path = str(tmp_path / "cache.json")
        first = ProofCache(max_size=8)
        first.put("shared", Verdict(status=Status.UNKNOWN, stage="prover",
                                    fingerprint="shared"))
        first.save(path)

        second = ProofCache(max_size=8)
        second.put("shared", _verdict("shared"))
        second.save(path)

        merged = ProofCache(max_size=8, path=path)
        assert merged.get("shared").status is Status.PROVED

    def test_merge_respects_max_size(self, tmp_path):
        path = str(tmp_path / "cache.json")
        first = ProofCache(max_size=4)
        for tag in ("a", "b", "c"):
            first.put(tag, _verdict(tag))
        first.save(path)

        second = ProofCache(max_size=4)
        for tag in ("x", "y", "z"):
            second.put(tag, _verdict(tag))
        second.save(path)
        # 6 candidates into 4 slots: the saver's own (warmest) entries
        # all survive; disk-only history fills the rest.
        merged = ProofCache(max_size=8, path=path)
        assert len(merged) == 4
        assert all(tag in merged for tag in ("x", "y", "z"))

    def test_concurrent_savers_union_survives(self, tmp_path):
        import multiprocessing

        path = str(tmp_path / "cache.json")
        ctx = multiprocessing.get_context("spawn")
        procs = [ctx.Process(target=_saver_proc, args=(path, i))
                 for i in range(4)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        merged = ProofCache(max_size=256, path=path)
        for i in range(4):
            for j in range(8):
                assert f"p{i}-{j}" in merged


def _saver_proc(path, seed):
    cache = ProofCache(max_size=256)
    for j in range(8):
        tag = f"p{seed}-{j}"
        cache.put(tag, Verdict(status=Status.PROVED, stage="prover",
                               fingerprint=tag))
        cache.save(path)

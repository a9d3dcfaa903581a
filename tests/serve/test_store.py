"""Sharded proof store: durability, sharing, compaction, corruption,
crashes mid-append, prover epochs, and persisted alias tags."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys

import pytest

from repro.core.schema import INT
from repro.serve import store as store_module
from repro.serve.store import (
    ALIAS_PREFIX,
    META_FILE,
    ShardedProofStore,
    StoreError,
    StoreProofCache,
)
from repro.solver import Pipeline, Status, Verdict, syntactic_alias
from repro.solver.verdict import PROOF_EPOCH
from repro.sql import Catalog, compile_sql


def _verdict(tag, status=Status.PROVED):
    return Verdict(status=status, stage="prover", fingerprint=tag)


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.add_table("R", [("a", INT), ("b", INT)])
    return cat


class TestShardedStore:
    def test_roundtrip(self, tmp_path):
        store = ShardedProofStore(str(tmp_path), shards=4)
        store.append("a" * 64, _verdict("a" * 64))
        hit = store.read("a" * 64)
        assert hit is not None and hit.status is Status.PROVED
        assert store.read("b" * 64) is None

    def test_last_wins(self, tmp_path):
        store = ShardedProofStore(str(tmp_path), shards=4)
        fp = "c" * 64
        store.append(fp, _verdict(fp, Status.UNKNOWN))
        store.append(fp, _verdict(fp, Status.PROVED))
        assert store.read(fp).status is Status.PROVED
        assert len(store) == 1

    def test_cross_instance_sharing(self, tmp_path):
        # Two store objects on one directory model two server processes.
        writer = ShardedProofStore(str(tmp_path), shards=4)
        reader = ShardedProofStore(str(tmp_path), shards=4)
        assert reader.read("d" * 64) is None
        writer.append("d" * 64, _verdict("d" * 64))
        hit = reader.read("d" * 64)  # tail-scan picks up the append
        assert hit is not None and hit.status is Status.PROVED

    def test_shard_layout_is_stable(self, tmp_path):
        store = ShardedProofStore(str(tmp_path), shards=8)
        fingerprints = [f"{i:064x}" for i in range(64)]
        for fp in fingerprints:
            assert 0 <= store.shard_of(fp) < 8
        again = ShardedProofStore(str(tmp_path), shards=8)
        assert [store.shard_of(fp) for fp in fingerprints] == \
            [again.shard_of(fp) for fp in fingerprints]

    def test_non_hex_shard_is_stable_across_processes(self, tmp_path):
        # Processes sharing a store must agree on every key's shard, also
        # under different str-hash salts.
        repo_src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))), "src")
        script = ("import sys; from repro.serve.store import "
                  "ShardedProofStore; store = ShardedProofStore("
                  "sys.argv[1], shards=16); print([store.shard_of(k) "
                  "for k in ('alpha', 'beta', 'gamma', 'ff' * 32)])")
        layouts = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONPATH=repo_src,
                       PYTHONHASHSEED=seed)
            layouts.add(subprocess.run(
                [sys.executable, "-c", script, str(tmp_path)], env=env,
                capture_output=True, text=True, check=True,
                timeout=60).stdout)
        assert len(layouts) == 1, layouts
        # Hex fingerprints shard by their leading 32 bits.
        assert layouts.pop().strip().endswith(f"{0xffffffff % 16}]")

    def test_existing_shard_count_wins(self, tmp_path):
        ShardedProofStore(str(tmp_path), shards=4)
        reopened = ShardedProofStore(str(tmp_path), shards=32)
        assert reopened.shards == 4

    def test_rejects_bad_meta(self, tmp_path):
        with open(os.path.join(str(tmp_path), META_FILE), "w",
                  encoding="utf-8") as handle:
            json.dump({"version": 99}, handle)
        with pytest.raises(StoreError):
            ShardedProofStore(str(tmp_path))

    def test_rejects_nonpositive_shards(self, tmp_path):
        with pytest.raises(StoreError):
            ShardedProofStore(str(tmp_path), shards=0)

    def test_compaction_keeps_newest(self, tmp_path):
        store = ShardedProofStore(str(tmp_path), shards=1,
                                  auto_compact=False)
        fp = "e" * 64
        for status in (Status.UNKNOWN, Status.DISPROVED, Status.PROVED):
            store.append(fp, _verdict(fp, status))
        store.append("f" * 64, _verdict("f" * 64))
        segment = os.path.join(str(tmp_path), "shard-0000.jsonl")
        before = os.path.getsize(segment)
        store.compact()
        after = os.path.getsize(segment)
        assert after < before  # two superseded records dropped
        assert store.read(fp).status is Status.PROVED
        assert store.read("f" * 64) is not None

    def test_reader_survives_concurrent_compaction(self, tmp_path):
        writer = ShardedProofStore(str(tmp_path), shards=1,
                                   auto_compact=False)
        reader = ShardedProofStore(str(tmp_path), shards=1)
        fp = "1" * 64
        for status in (Status.UNKNOWN, Status.PROVED):
            writer.append(fp, _verdict(fp, status))
        assert reader.read(fp).status is Status.PROVED  # index is warm
        writer.compact()  # shrinks the file under the reader's offsets
        assert reader.read(fp).status is Status.PROVED

    def test_corrupt_lines_are_skipped(self, tmp_path):
        store = ShardedProofStore(str(tmp_path), shards=1)
        store.append("2" * 64, _verdict("2" * 64))
        segment = os.path.join(str(tmp_path), "shard-0000.jsonl")
        with open(segment, "ab") as handle:
            handle.write(b"{not json at all\n")
            handle.write(b'["torn-record-without-newline"')
        fresh = ShardedProofStore(str(tmp_path), shards=1)
        assert fresh.read("2" * 64) is not None
        assert len(fresh) == 1

    def test_stats_shape(self, tmp_path):
        store = ShardedProofStore(str(tmp_path), shards=2)
        store.append("3" * 64, _verdict("3" * 64))
        stats = store.stats()
        assert stats["shards"] == 2
        assert stats["entries"] == 1
        assert sum(stats["per_shard"].values()) == 1


class TestStoreProofCache:
    def test_layered_hit_accounting(self, tmp_path):
        cache = StoreProofCache(ShardedProofStore(str(tmp_path)),
                                max_size=4)
        fp = "4" * 64
        assert cache.get(fp) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(fp, _verdict(fp))
        assert cache.get(fp).cached is True  # hot tier
        assert (cache.hits, cache.misses) == (1, 1)

    def test_disk_fallthrough_after_hot_eviction(self, tmp_path):
        cache = StoreProofCache(ShardedProofStore(str(tmp_path)),
                                max_size=2)
        fps = [f"{i:064x}" for i in range(5)]
        for fp in fps:
            cache.put(fp, _verdict(fp))
        # fps[0] left the 2-entry hot tier long ago but is on disk.
        hit = cache.get(fps[0])
        assert hit is not None and hit.cached is True

    def test_alias_survives_hot_eviction(self, tmp_path):
        cache = StoreProofCache(ShardedProofStore(str(tmp_path)),
                                max_size=2)
        fps = [f"{i:064x}" for i in range(4)]
        cache.put(fps[0], _verdict(fps[0]), alias="the-alias")
        for fp in fps[1:]:
            cache.put(fp, _verdict(fp))
        assert cache.get_by_alias("the-alias") is not None

    def test_alias_outlives_hot_tier_across_many_aliased_puts(self,
                                                              tmp_path):
        # More than 2 x hot_size aliased puts force alias-index sweeps;
        # an alias whose record lives only on disk must survive them.
        cache = StoreProofCache(ShardedProofStore(str(tmp_path)),
                                max_size=2)
        fps = [f"{i:064x}" for i in range(12)]
        cache.put(fps[0], _verdict(fps[0]), alias="the-alias")
        for i, fp in enumerate(fps[1:]):
            cache.put(fp, _verdict(fp), alias=f"alias-{i}")
        assert fps[0] not in cache._entries  # evicted from the hot tier
        hit = cache.get_by_alias("the-alias")
        assert hit is not None and hit.fingerprint == fps[0]

    def test_alias_sweeps_are_amortized(self, tmp_path, monkeypatch):
        # A sweep probes the store once per alias; it must rerun only
        # after the index doubles, not on every put past the threshold.
        store = ShardedProofStore(str(tmp_path))
        cache = StoreProofCache(store, max_size=2)
        probes = []
        contains = ShardedProofStore.__contains__
        monkeypatch.setattr(ShardedProofStore, "__contains__",
                            lambda self, fp: probes.append(fp)
                            or contains(self, fp))
        n = 200
        for i in range(n):
            fp = f"{i:064x}"
            cache.put(fp, _verdict(fp), alias=f"alias-{i}")
        assert len(cache._aliases) == n
        assert len(probes) < 2 * n

    def test_pipeline_restart_stays_warm(self, tmp_path, catalog):
        """A fresh pipeline over the same store dir serves previously
        proved pairs without re-proving (the cross-process warm story)."""
        q1 = compile_sql("SELECT DISTINCT a FROM R", catalog).query
        q2 = compile_sql(
            "SELECT DISTINCT x.a FROM R AS x, R AS y WHERE x.a = y.a",
            catalog).query
        first = Pipeline(cache=StoreProofCache(
            ShardedProofStore(str(tmp_path))))
        cold = first.check(q1, q2)
        assert cold.proved and not cold.cached

        second = Pipeline(cache=StoreProofCache(
            ShardedProofStore(str(tmp_path))))
        warm = second.check(q1, q2)
        assert warm.proved and warm.cached

    def test_counterexample_oriented_after_restart(self, tmp_path,
                                                   catalog):
        q1 = compile_sql("SELECT a FROM R", catalog).query
        q2 = compile_sql("SELECT b FROM R", catalog).query
        cold = Pipeline(cache=StoreProofCache(
            ShardedProofStore(str(tmp_path)))).check(q1, q2)
        assert cold.disproved and cold.counterexample is not None

        fresh = Pipeline(cache=StoreProofCache(
            ShardedProofStore(str(tmp_path))))
        warm = fresh.check(q1, q2)
        assert warm.disproved and warm.cached
        assert warm.counterexample == cold.counterexample
        mirrored = fresh.check(q2, q1)
        assert mirrored.counterexample == cold.counterexample.swap_sides()


class TestPersistedAliases:
    """Alias tags live in the shard segments next to the verdicts, so a
    fresh process answers a re-ask from the alias index."""

    def test_alias_tags_survive_restart(self, tmp_path, catalog):
        q1 = compile_sql("SELECT a FROM R", catalog).query
        q2 = compile_sql("SELECT b FROM R", catalog).query
        alias = syntactic_alias(q1, q2)
        cold = Pipeline(cache=StoreProofCache(
            ShardedProofStore(str(tmp_path)))).check(q1, q2, alias=alias)

        cache = StoreProofCache(ShardedProofStore(str(tmp_path)))
        assert cache.get_by_alias(alias, q1, q2).counterexample == \
            cold.counterexample
        assert cache.get_by_alias(alias, q2, q1).counterexample == \
            cold.counterexample.swap_sides()

    def test_registered_alias_survives_restart(self, tmp_path):
        fp = "5" * 64
        cache = StoreProofCache(ShardedProofStore(str(tmp_path)))
        cache.put(fp, _verdict(fp))
        cache.register_alias("late-alias", cache.get(fp))

        fresh = StoreProofCache(ShardedProofStore(str(tmp_path)))
        hit = fresh.get_by_alias("late-alias")
        assert hit is not None and hit.fingerprint == fp

    def test_alias_records_are_not_proofs(self, tmp_path):
        cache = StoreProofCache(ShardedProofStore(str(tmp_path)))
        cache.put("6" * 64, _verdict("6" * 64), alias="an-alias")
        assert len(cache.store) == cache.store.stats()["entries"] == 1

    def test_compaction_carries_alias_records(self, tmp_path):
        store = ShardedProofStore(str(tmp_path), shards=1,
                                  auto_compact=False)
        cache = StoreProofCache(store)
        fp = "7" * 64
        cache.put(fp, _verdict(fp, Status.UNKNOWN))
        cache.put(fp, _verdict(fp), alias="kept-alias")
        store.compact()
        fresh = StoreProofCache(ShardedProofStore(str(tmp_path)))
        hit = fresh.get_by_alias("kept-alias")
        assert hit is not None and hit.status is Status.PROVED

    def test_malformed_alias_record_is_ignored(self, tmp_path):
        # An alias that cannot orient its answer is worse than none.
        store = ShardedProofStore(str(tmp_path))
        store.append("8" * 64, _verdict("8" * 64))
        store._append(ALIAS_PREFIX + "untagged", "8" * 64)
        assert store.read_alias("untagged") is None
        cache = StoreProofCache(ShardedProofStore(str(tmp_path)))
        assert cache.get_by_alias("untagged") is None


def _torn_writer(root, fingerprint, torn):
    """Append one record, then die (SIGKILL) halfway through the next."""
    ShardedProofStore(root, shards=1).append(fingerprint,
                                              _verdict(fingerprint))
    line = json.dumps([torn, _verdict(torn).to_dict(), PROOF_EPOCH])
    with open(os.path.join(root, "shard-0000.jsonl"), "ab") as handle:
        handle.write(line[:len(line) // 2].encode("utf-8"))
        handle.flush()
        os.kill(os.getpid(), signal.SIGKILL)


def _concurrent_writer(root, seed):
    cache = StoreProofCache(ShardedProofStore(root, shards=2))
    for j in range(8):
        tag = f"{seed:02x}{j:062x}"
        cache.put(tag, _verdict(tag), alias=f"alias-{seed}-{j}")


class TestCrashesAndEpochs:
    def test_torn_tail_does_not_swallow_the_next_record(self, tmp_path):
        root = str(tmp_path)
        before, torn, after = "a1" * 32, "b2" * 32, "c3" * 32
        ctx = multiprocessing.get_context("spawn")
        child = ctx.Process(target=_torn_writer, args=(root, before, torn))
        child.start()
        child.join(timeout=60)
        assert child.exitcode == -signal.SIGKILL

        writer = ShardedProofStore(root, shards=1, auto_compact=False)
        writer.append(after, _verdict(after))
        fresh = ShardedProofStore(root, shards=1)
        assert fresh.read(before) is not None
        assert fresh.read(after) is not None
        assert fresh.read(torn) is None
        writer.compact()
        assert writer.read(before) is not None
        assert writer.read(after) is not None
        compacted = ShardedProofStore(root, shards=1)
        assert compacted.read(before) is not None
        assert compacted.read(after) is not None
        assert len(compacted) == 2

    def test_concurrent_writers_union_survives(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        procs = [ctx.Process(target=_concurrent_writer,
                             args=(str(tmp_path), i)) for i in range(4)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        cache = StoreProofCache(ShardedProofStore(str(tmp_path)))
        assert len(cache.store) == 32
        for i in range(4):
            for j in range(8):
                hit = cache.get_by_alias(f"alias-{i}-{j}")
                assert hit is not None
                assert hit.fingerprint == f"{i:02x}{j:062x}"

    def test_other_epoch_reads_as_miss(self, tmp_path, monkeypatch):
        root = str(tmp_path)
        fp = "d4" * 32
        store = ShardedProofStore(root, shards=1, auto_compact=False)
        store.append(fp, _verdict(fp))
        store.append_alias("old-alias", (fp, "", ""))
        monkeypatch.setattr(store_module, "PROOF_EPOCH", PROOF_EPOCH + 1)

        fresh = ShardedProofStore(root, shards=1, auto_compact=False)
        assert fresh.read(fp) is None
        assert fresh.read_alias("old-alias") is None
        assert len(fresh) == 0
        fresh.append(fp, _verdict(fp, Status.DISPROVED))  # decided again
        assert ShardedProofStore(root, shards=1).read(fp).status \
            is Status.DISPROVED
        fresh.compact()  # the stale records go
        with open(os.path.join(root, "shard-0000.jsonl"), "rb") as handle:
            records = [json.loads(line) for line in handle]
        assert [(r[0], r[2]) for r in records] == [(fp, PROOF_EPOCH + 1)]

    def test_payload_with_brackets_and_quotes_is_indexed(self, tmp_path):
        # The scan reads the key off the line's head and the epoch off
        # its tail; neither may be fooled by what the payload holds.
        tricky = ('a",b]', '],"x",9]', ', 1]')
        store = ShardedProofStore(str(tmp_path), shards=1)
        store.append_alias("tricky", tricky)
        store._append('key "with", quotes]', ["]", '",'])
        fresh = ShardedProofStore(str(tmp_path), shards=1)
        assert fresh.read_alias("tricky") == tricky
        assert fresh._lookup('key "with", quotes]') == ["]", '",']
        assert len(fresh) == 1  # alias records aside

    def test_torn_payload_of_record_shape_reads_as_miss(self, tmp_path):
        # A line cut inside its payload can still end in ",<epoch>]";
        # the full parse on read turns it into a miss, never a crash.
        fp = "f6" * 32
        ShardedProofStore(str(tmp_path), shards=1)
        with open(os.path.join(str(tmp_path), "shard-0000.jsonl"),
                  "w", encoding="utf-8") as handle:
            handle.write(f'["{fp}",{{"status":"PROVED","rows":[0,'
                         f'{PROOF_EPOCH}]\n')
        assert ShardedProofStore(str(tmp_path), shards=1).read(fp) is None

    def test_unstamped_records_read_as_miss(self, tmp_path):
        fp = "e5" * 32
        ShardedProofStore(str(tmp_path), shards=1)
        with open(os.path.join(str(tmp_path), "shard-0000.jsonl"),
                  "w", encoding="utf-8") as handle:
            handle.write(json.dumps([fp, _verdict(fp).to_dict()]) + "\n")
        assert ShardedProofStore(str(tmp_path), shards=1).read(fp) is None

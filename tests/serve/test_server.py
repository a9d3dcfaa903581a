"""The serve daemon: ops, in-flight dedup, cross-process warm serving."""

import json
import threading
import time

import pytest

from repro.serve.client import ServeClient
from repro.serve.server import ReproServer
from repro.serve.store import ShardedProofStore, StoreProofCache
from repro.session import Session
from repro.solver import Pipeline, Status
from repro.solver.service import Job, VerificationService

TABLES = ["R(a:int,b:int)"]
Q1 = "SELECT DISTINCT a FROM R"
Q2 = "SELECT DISTINCT x.a FROM R AS x, R AS y WHERE x.a = y.a"


@pytest.fixture
def server():
    srv = ReproServer(port=0, tables=TABLES, workers=4).start()
    yield srv
    srv.shutdown()


@pytest.fixture
def client(server):
    with ServeClient(server.address) as cli:
        yield cli


class TestOps:
    def test_ping(self, client):
        assert client.ping() is True

    def test_check_and_cache(self, client):
        cold = client.check(Q1, Q2)
        assert cold.status is Status.PROVED and not cold.cached
        warm = client.check(Q1, Q2)
        assert warm.status is Status.PROVED and warm.cached

    def test_check_disproved_carries_counterexample(self, client):
        verdict = client.check("SELECT a FROM R", "SELECT b FROM R")
        assert verdict.status is Status.DISPROVED
        assert verdict.counterexample is not None

    def test_check_uses_default_tables(self, client):
        # No per-request tables: the server's --table defaults apply.
        verdict = client.check(Q1, Q1)
        assert verdict.status is Status.PROVED

    def test_batch_check(self, client):
        verdicts = client.batch_check(
            [(Q1, Q2), ("SELECT a FROM R", "SELECT b FROM R")],
            tables=TABLES)
        assert [v.status for v in verdicts] == \
            [Status.PROVED, Status.DISPROVED]

    def test_optimize(self, client):
        result = client.optimize(
            "SELECT a FROM (SELECT a, b FROM R WHERE a = 1) AS s",
            tables=TABLES, rows={"R": 1000})
        assert result["certified"] is not False
        assert result["best_cost"] <= result["original_cost"]

    def test_stats_shape(self, client):
        client.check(Q1, Q2)
        stats = client.stats()
        assert stats["server"]["requests_total"] >= 1
        assert stats["server"]["pipeline_runs_total"] >= 1
        assert "hits" in stats["cache"]
        assert "counters" in stats["metrics"]

    def test_streaming_connection(self, client):
        # Many requests over one connection, interleaved ops.
        for _ in range(3):
            assert client.ping() is True
            assert client.check(Q1, Q1).proved


class TestOptimizeFields:
    """A malformed ``optimize`` field gets ``bad-request``, not a silent
    coercion or an internal error, and the daemon keeps answering."""

    SQL = "SELECT a FROM (SELECT a, b FROM R WHERE a = 1) AS s"

    def _ask(self, server, **fields):
        line = json.dumps({"op": "optimize", "sql": self.SQL,
                           "tables": TABLES, **fields})
        return server.handle_request_line(line.encode())

    def _assert_rejected(self, server, fragment, **fields):
        response = self._ask(server, **fields)
        assert not response["ok"]
        assert response["error"]["code"] == "bad-request"
        assert fragment in response["error"]["message"]
        after = self._ask(server, certify=False)
        assert after["ok"] and after["result"]["certified"] is None

    def test_strategy_field_is_rejected(self, server):
        self._assert_rejected(server, "equality saturation only",
                              strategy="nope")

    def test_certify_must_be_a_json_boolean(self, server):
        self._assert_rejected(server, '"certify" must be a JSON boolean',
                              certify="false")

    def test_max_plans_must_not_be_a_bool(self, server):
        self._assert_rejected(server, '"max_plans" must be a positive',
                              max_plans=True)

    @pytest.mark.parametrize("rows", [{"R": float("nan")}, {"R": -5},
                                      {"R": float("inf")}, {"R": "12"}],
                             ids=["nan", "negative", "inf", "string"])
    def test_rows_must_be_finite_numbers(self, server, rows):
        self._assert_rejected(server, '"rows" cardinalities must be finite',
                              rows=rows)


class TestShutdown:
    @staticmethod
    def _shutdown_returns(server):
        stopper = threading.Thread(target=server.shutdown, daemon=True)
        stopper.start()
        stopper.join(timeout=5.0)
        return not stopper.is_alive()

    def test_shutdown_without_start_returns(self):
        server = ReproServer(port=0, tables=TABLES)
        assert server.handle_request_line(b'{"op": "ping"}')["ok"]
        assert self._shutdown_returns(server)

    def test_shutdown_after_start_returns(self):
        server = ReproServer(port=0, tables=TABLES).start()
        with ServeClient(server.address) as cli:
            assert cli.ping() is True
        assert self._shutdown_returns(server)

    def test_start_after_shutdown_does_not_serve(self):
        server = ReproServer(port=0, tables=TABLES)
        assert self._shutdown_returns(server)
        server.serve_forever()  # returns at once: the server is closed


class TestInflightDedup:
    def test_identical_cold_checks_run_pipeline_once(self):
        """Two concurrent clients asking the same cold question trigger
        exactly one pipeline run; the second fans in as a follower."""
        server = ReproServer(port=0, tables=TABLES, workers=4).start()
        try:
            before = server._op_stats({})["server"]
            release = threading.Event()
            calls = []
            inner = server.pipeline.check

            def slow_check(*args, **kwargs):
                calls.append(threading.get_ident())
                release.wait(10.0)
                return inner(*args, **kwargs)

            server.pipeline.check = slow_check
            results = {}

            def ask(name):
                with ServeClient(server.address) as cli:
                    results[name] = cli.check_detail(Q1, Q2)

            threads = [threading.Thread(target=ask, args=(n,))
                       for n in ("first", "second")]
            for t in threads:
                t.start()
            # Wait until the leader is inside the (blocked) pipeline run
            # and the follower has had a chance to arrive.
            deadline = time.time() + 10.0
            while not calls and time.time() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)
            release.set()
            for t in threads:
                t.join(timeout=30.0)

            assert len(calls) == 1  # exactly one pipeline run
            roles = sorted(r["dedup"] for r in results.values())
            assert roles == ["follower", "leader"]
            for r in results.values():
                assert r["status"] == "PROVED"
            # The metric counters are process-wide; assert the deltas.
            stats = server._op_stats({})["server"]
            assert stats["pipeline_runs_total"] \
                - before["pipeline_runs_total"] == 1
            assert stats["dedup_followers_total"] \
                - before["dedup_followers_total"] == 1
            assert stats["inflight"] == 0  # all drained
        finally:
            release.set()
            server.shutdown()

    def test_follower_counterexample_is_reoriented(self):
        """A follower asking the mirrored pair gets the counterexample
        oriented for *its* argument order."""
        server = ReproServer(port=0, tables=TABLES, workers=4).start()
        try:
            release = threading.Event()
            started = threading.Event()
            inner = server.pipeline.check

            def slow_check(*args, **kwargs):
                started.set()
                release.wait(10.0)
                return inner(*args, **kwargs)

            server.pipeline.check = slow_check
            results = {}
            lhs, rhs = "SELECT a FROM R", "SELECT b FROM R"

            def ask(name, sql1, sql2):
                with ServeClient(server.address) as cli:
                    results[name] = cli.check(sql1, sql2)

            leader = threading.Thread(target=ask, args=("fwd", lhs, rhs))
            leader.start()
            assert started.wait(10.0)
            follower = threading.Thread(target=ask, args=("rev", rhs, lhs))
            follower.start()
            time.sleep(0.2)
            release.set()
            leader.join(timeout=30.0)
            follower.join(timeout=30.0)

            assert results["fwd"].status is Status.DISPROVED
            assert results["rev"].status is Status.DISPROVED
        finally:
            release.set()
            server.shutdown()


class TestSharedStore:
    def test_second_server_serves_from_store(self, tmp_path):
        """The headline acceptance check: a second server process on the
        same --store-dir answers previously proved pairs from the shard
        store, without re-proving."""
        first = ReproServer(port=0, tables=TABLES,
                            store_dir=str(tmp_path)).start()
        try:
            with ServeClient(first.address) as cli:
                cold = cli.check(Q1, Q2)
                assert cold.status is Status.PROVED and not cold.cached
        finally:
            first.shutdown()

        second = ReproServer(port=0, tables=TABLES,
                             store_dir=str(tmp_path)).start()
        try:
            with ServeClient(second.address) as cli:
                warm = cli.check(Q1, Q2)
            assert warm.status is Status.PROVED
            assert warm.cached  # answered from the shard store
        finally:
            second.shutdown()

    def test_server_reads_a_session_store(self, tmp_path):
        """One proof format: a store written by an in-process session is
        served by a daemon on the same directory."""
        with Session.from_tables(*TABLES, cache=str(tmp_path)) as session:
            cold = session.check(Q1, Q2)
        assert cold.status is Status.PROVED and not cold.cached

        server = ReproServer(port=0, tables=TABLES,
                             store_dir=str(tmp_path)).start()
        try:
            with ServeClient(server.address) as cli:
                detail = cli.check_detail(Q1, Q2)
            assert detail["cached"] is True
            assert detail["verdict"]["status"] == "PROVED"
        finally:
            server.shutdown()


    def test_batch_store_answers_daemon_from_its_alias_index(self,
                                                            tmp_path):
        """batch-check (which passes the empty hypothesis set) and the
        daemon (which passes none) compute one alias for a closed pair,
        so a store filled by a batch gives the daemon alias hits."""
        with Session.from_tables(*TABLES) as session:
            q1, q2 = session.sql(Q1).query, session.sql(Q2).query
        store = StoreProofCache(ShardedProofStore(str(tmp_path)))
        with VerificationService(Pipeline(cache=store)) as service:
            report = service.check_batch([Job("j0", q1, q2)], workers=1)
        assert report.computed == 1

        server = ReproServer(port=0, tables=TABLES,
                             store_dir=str(tmp_path)).start()
        try:
            before = server._op_stats({})["server"]
            with ServeClient(server.address) as cli:
                detail = cli.check_detail(Q1, Q2)
            after = server._op_stats({})["server"]
        finally:
            server.shutdown()
        assert detail["dedup"] == "alias"
        assert detail["cached"] is True
        assert detail["verdict"]["status"] == "PROVED"
        assert after["alias_hits_total"] == before["alias_hits_total"] + 1
        assert after["pipeline_runs_total"] == before["pipeline_runs_total"]


class TestAliasFirst:
    """A question asked before is answered from the alias index: no
    pipeline run, role ``"alias"``, the first answer's verdict."""

    @staticmethod
    def _counts(server):
        stats = server._op_stats({})["server"]
        return stats["pipeline_runs_total"], stats["alias_hits_total"]

    def test_reask_skips_the_pipeline(self, server, client):
        lhs, rhs = "SELECT a FROM R", "SELECT b FROM R"
        first = client.check_detail(lhs, rhs)
        cx = first["verdict"]["counterexample"]["disagreements"]
        runs, alias_hits = self._counts(server)

        plain = client.check_detail(lhs, rhs)
        mirrored = client.check_detail(rhs, lhs)
        batch = client.request("batch-check", pairs=[[lhs, rhs], [rhs, lhs]],
                               tables=TABLES)["results"]

        assert self._counts(server) == (runs, alias_hits + 4)
        for result in (plain, mirrored, *batch):
            assert result["dedup"] == "alias"
            assert result["cached"] is True
            assert (result["status"], result["stage"]) == \
                (first["status"], first["stage"])
        for result in (plain, batch[0]):
            assert result["verdict"]["counterexample"]["disagreements"] \
                == cx
        for result in (mirrored, batch[1]):
            assert result["verdict"]["counterexample"]["disagreements"] \
                == [[row, right, left] for row, left, right in cx]

    def test_alias_hit_of_alpha_variant_pair_keeps_orientation(self):
        # B is A mirrored with each UNION reordered: same fingerprint,
        # different reprs, so B's re-ask reads a record A produced.
        a = ("SELECT a FROM R UNION ALL SELECT a FROM S",
             "SELECT b FROM R UNION ALL SELECT b FROM S")
        b = ("SELECT b FROM S UNION ALL SELECT b FROM R",
             "SELECT a FROM S UNION ALL SELECT a FROM R")
        tables = ["R(a:int,b:int)", "S(a:int,b:int)"]
        with ReproServer(port=0, tables=tables) as srv:
            srv.start()
            with ServeClient(srv.address) as cli:
                first = cli.check_detail(*a)
                second = cli.check_detail(*b)
                reask = cli.check_detail(*b)
        cx = first["verdict"]["counterexample"]["disagreements"]
        assert first["status"] == "DISPROVED"
        assert second["verdict"]["counterexample"]["disagreements"] == \
            [[row, right, left] for row, left, right in cx]
        assert reask["dedup"] == "alias"
        assert reask["verdict"]["counterexample"] == \
            second["verdict"]["counterexample"]

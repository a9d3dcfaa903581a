"""ServeClient ergonomics and the remote Session.connect surface."""

import multiprocessing.process

import pytest

from repro.core.equivalence import Hypotheses, KeyConstraint
from repro.core.schema import INT
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.server import ReproServer
from repro.session import Session, SessionError
from repro.solver import Status, Verdict

TABLES = ["R(a:int,b:int)"]
Q1 = "SELECT DISTINCT a FROM R"
Q2 = "SELECT DISTINCT x.a FROM R AS x, R AS y WHERE x.a = y.a"


@pytest.fixture
def server():
    srv = ReproServer(port=0, tables=TABLES).start()
    yield srv
    srv.shutdown()


class TestServeClient:
    def test_connect_refused_raises_typed_error(self):
        client = ServeClient("127.0.0.1:1", connect_retries=2,
                             retry_delay=0.01)
        with pytest.raises(ServeClientError) as excinfo:
            client.connect()
        assert excinfo.value.code == "connection"

    def test_bad_address_raises(self):
        with pytest.raises(ServeClientError):
            ServeClient("not-an-address")

    def test_server_error_carries_code(self, server):
        with ServeClient(server.address) as cli:
            with pytest.raises(ServeClientError) as excinfo:
                cli.check("SELEKT nope", Q1, tables=TABLES)
            assert excinfo.value.code == "compile-error"

    def test_retry_after_server_restart_on_same_port(self, server):
        # An idle client survives the daemon dropping its connection.
        cli = ServeClient(server.address)
        assert cli.ping() is True
        cli._sock.close()  # simulate the daemon dropping the socket
        assert cli.ping() is True  # request() reconnects once
        cli.close()

    def test_disprover_knobs_thread_through(self, server, monkeypatch):
        # The disprover knobs no longer reach the daemon: they are ignored
        # like any unknown field, so a client cannot make it start a
        # process per instance, and the verdict is the plain one.
        sql1, sql2 = "SELECT a FROM R", "SELECT DISTINCT a FROM R"
        reference = ReproServer(port=0, tables=TABLES).start()
        try:
            with ServeClient(reference.address) as cli:
                plain = cli.check(sql1, sql2)
        finally:
            reference.shutdown()
        assert plain.status is Status.DISPROVED

        def refuse(process):
            pytest.fail(f"a check request started {process!r}")
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse)
        with ServeClient(server.address) as cli:
            result = cli.request("check", sql1=sql1, sql2=sql2,
                                 disprover_workers=64,
                                 disprover_batch_size=1)
        hostile = Verdict.from_dict(result["verdict"])
        for name in ("status", "stage", "engine_steps", "counterexample",
                     "bound", "detail"):
            assert getattr(hostile, name) == getattr(plain, name), name


class TestRemoteSession:
    def test_fluent_check_runs_remote(self, server):
        with Session.connect(server.address, *TABLES) as session:
            assert session.is_remote
            verdict = session.sql(Q1).equivalent_to(Q2)
            assert verdict.status is Status.PROVED
            # Second ask: served from the daemon's cache.
            assert session.check(Q1, Q2).cached

    def test_check_pairs_one_round_trip(self, server):
        with Session.connect(server.address, *TABLES) as session:
            report = session.check_pairs(
                [(Q1, Q2), ("SELECT a FROM R", "SELECT b FROM R")])
            assert len(report) == 2
            assert report.count(Status.PROVED) == 1
            assert report.count(Status.DISPROVED) == 1

    def test_local_compile_errors_fail_fast(self, server):
        with Session.connect(server.address, *TABLES) as session:
            with pytest.raises(Exception):
                session.sql("SELECT missing_col FROM R")

    def test_hypotheses_are_rejected_remotely(self, server):
        hyps = Hypotheses(keys=(KeyConstraint(
            rel="R", proj="a", proj_schema=INT),))
        with Session.connect(server.address, *TABLES) as session:
            with pytest.raises(SessionError):
                session.check(Q1, Q2, hyps)

    def test_close_releases_client(self, server):
        session = Session.connect(server.address, *TABLES)
        client = session.remote
        session.close()
        assert not session.is_remote
        assert not client.connected

    def test_connect_refused_surfaces(self):
        with pytest.raises(ServeClientError):
            Session.connect("127.0.0.1:1", *TABLES,
                            connect_retries=2)

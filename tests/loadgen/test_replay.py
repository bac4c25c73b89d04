"""Tests for the replay driver: open/closed loop, report, determinism."""

import contextlib
import dataclasses
import http.server
import json
import shutil
import ssl
import subprocess
import threading

import pytest

from repro.loadgen.arrivals import LoadSpec
from repro.loadgen.replay import (
    InProcessTransport,
    ReplayReport,
    iter_requests,
    replay_in_process,
)
from repro.serve.engine import OrchestrationEngine, ServeConfig

SPEC = LoadSpec(n_hives=6, rate_hz=0.02, horizon_s=1200.0, seed=11)


class TestOpenLoop:
    def test_report_accounts_for_every_arrival(self):
        engine, report = replay_in_process(SPEC)
        assert report.n_errors == 0
        assert report.n_requests == sum(report.by_op.values())
        assert report.by_op["admit"] == SPEC.n_hives
        assert report.n_requests == len(list(iter_requests(SPEC)))
        assert engine.n_requests == report.n_requests

    def test_replay_is_deterministic(self):
        _, r1 = replay_in_process(SPEC)
        _, r2 = replay_in_process(SPEC)
        assert r1 == r2
        assert r1.response_sha256 == r2.response_sha256

    def test_different_seed_different_fingerprint(self):
        _, r1 = replay_in_process(SPEC)
        _, r2 = replay_in_process(dataclasses.replace(SPEC, seed=SPEC.seed + 1))
        assert r1.response_sha256 != r2.response_sha256

    def test_all_admitted_inferences_go_cloud(self):
        spec = dataclasses.replace(SPEC, telemetry_fraction=0.0)
        _, report = replay_in_process(spec)
        inferences = report.by_op.get("inference", 0)
        assert inferences > 0
        assert report.placements.get("cloud", 0) == inferences

    def test_engine_errors_counted_not_raised(self):
        # A zero-budget engine rejects admits politely; inference before
        # admission falls back to edge.  Neither is a client-side error.
        engine = OrchestrationEngine(ServeConfig(max_servers=0))
        _, report = replay_in_process(SPEC, engine)
        assert report.n_errors == 0
        assert report.placements.get("edge", 0) > 0
        assert "cloud" not in report.placements

    def test_report_to_dict_is_stable(self):
        _, report = replay_in_process(SPEC)
        d = report.to_dict()
        assert set(d) == {
            "n_requests", "n_errors", "by_op", "by_class", "placements",
            "last_t", "response_sha256",
        }
        assert d["last_t"] <= SPEC.horizon_s


class TestClosedLoop:
    CLOSED = dataclasses.replace(
        SPEC, mode="closed", telemetry_fraction=0.0, rate_hz=1.0 / 200.0
    )

    def test_closed_loop_is_deterministic(self):
        _, r1 = replay_in_process(self.CLOSED)
        _, r2 = replay_in_process(self.CLOSED)
        assert r1 == r2

    def test_gating_never_breaks_monotonic_clock(self):
        engine, report = replay_in_process(self.CLOSED)
        assert report.n_errors == 0  # any non-monotonic t would error

    def test_closed_loop_issues_no_faster_than_completions(self):
        # Closed loop defers arrivals past each hive's done_t, so the
        # offered load can never outrun the service: at most one request
        # per hive per cycle reaches the engine's cloud path.
        engine, report = replay_in_process(self.CLOSED)
        cycles = self.CLOSED.horizon_s / engine.config.period
        per_hive_cap = cycles + 2  # admit + in-flight tail
        inferences = report.by_op.get("inference", 0)
        assert inferences <= self.CLOSED.n_hives * per_hive_cap

    def test_closed_loop_bounds_queueing_under_saturation(self):
        # Closed loop defers (never drops): both modes issue the same
        # arrivals, but open loop fires them at schedule and queues up,
        # while closed loop waits for done_t so at most one request per
        # hive is ever in flight.  Same counts, very different latency.
        hot = dataclasses.replace(self.CLOSED, rate_hz=0.05)
        open_spec = dataclasses.replace(hot, mode="open")
        closed_engine, closed = replay_in_process(hot)
        open_engine, opened = replay_in_process(open_spec)
        assert closed.by_op == opened.by_op
        assert closed.response_sha256 != opened.response_sha256
        closed_p99 = closed_engine.latency_report()["inference"]["p99_s"]
        open_p99 = open_engine.latency_report()["inference"]["p99_s"]
        assert closed_p99 <= 2 * closed_engine.config.period
        assert open_p99 > closed_p99

    def test_last_t_reports_the_pushed_back_issue_time(self):
        # Regression: _fold used to record the *scheduled* arrival.t, so a
        # gated closed loop under-reported the horizon (and overstated rps).
        # Saturate hard enough that deferral pushes the final issue time
        # past every scheduled arrival, then cross-check against the
        # engine's own clock — the engine saw issue times, nothing else.
        from repro.loadgen.arrivals import merged_stream

        hot = dataclasses.replace(self.CLOSED, rate_hz=0.05)
        engine, report = replay_in_process(hot)
        last_scheduled = max(a.t for a in merged_stream(hot))
        assert report.last_t > last_scheduled
        assert report.last_t == engine._last_t


class TestTransports:
    def test_in_process_transport_passes_copies(self):
        engine = OrchestrationEngine()
        transport = InProcessTransport(engine)
        request = {"op": "admit", "hive": 0, "t": 0.0}
        response = transport.send(request)
        assert response["ok"]
        assert request == {"op": "admit", "hive": 0, "t": 0.0}  # not mutated

    def test_replay_accepts_prebuilt_engine(self):
        engine = OrchestrationEngine(ServeConfig(policy="balanced"))
        same, report = replay_in_process(SPEC, engine)
        assert same is engine
        assert engine.steady_state_matches_batch()

    def test_empty_spec_yields_empty_report(self):
        _, report = replay_in_process(dataclasses.replace(SPEC, n_hives=0))
        assert report == ReplayReport(
            response_sha256=report.response_sha256
        )
        import hashlib

        assert report.response_sha256 == hashlib.sha256().hexdigest()


class TestErrorClasses:
    def test_classify_success_and_shed_and_engine(self):
        from repro.loadgen.replay import ENGINE_ERROR, SHED, classify_response

        assert classify_response({"ok": True, "op": "inference"}) is None
        assert classify_response({"ok": False, "shed": True}) == SHED
        assert classify_response({"ok": False, "error": "boom"}) == ENGINE_ERROR

    def test_classify_transport_tags_pass_through(self):
        from repro.loadgen.replay import CONNECTION_REFUSED, TIMEOUT, classify_response

        for cls in (CONNECTION_REFUSED, TIMEOUT):
            assert classify_response({"ok": False, "error_class": cls}) == cls

    def test_connection_refused_is_synthesized_not_raised(self):
        import socket

        from repro.loadgen.replay import CONNECTION_REFUSED, HttpTransport

        # grab a port that is certainly closed
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        transport = HttpTransport(
            f"http://127.0.0.1:{port}", max_attempts=2, backoff_s=0.01
        )
        response = transport.send({"op": "inference", "hive": 0, "t": 0.0})
        assert response["ok"] is False
        assert response["error_class"] == CONNECTION_REFUSED
        assert response["op"] == "inference"

    def test_timeout_is_synthesized_not_raised(self):
        import socket

        from repro.loadgen.replay import TIMEOUT, HttpTransport

        # a listener that accepts but never answers forces a read timeout
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            port = listener.getsockname()[1]
            transport = HttpTransport(
                f"http://127.0.0.1:{port}", timeout_s=0.2, max_attempts=1
            )
            response = transport.send({"op": "telemetry", "hive": 0, "t": 0.0})
        assert response["ok"] is False
        assert response["error_class"] == TIMEOUT
        assert transport._sock is None  # a failed exchange closes the socket

    def test_transport_backoff_is_seeded(self):
        from repro.loadgen.replay import HttpTransport

        a = HttpTransport("http://x", seed=1)
        b = HttpTransport("http://x", seed=1)
        assert [a._rng.uniform(-1, 1) for _ in range(4)] == [
            b._rng.uniform(-1, 1) for _ in range(4)
        ]

    def test_report_buckets_and_unexpected_classes(self):
        report = ReplayReport(
            n_errors=3, by_class={"shed": 2, "timeout": 1}
        )
        assert report.unexpected_classes(("shed",)) == {"timeout": 1}
        assert report.unexpected_classes(("shed", "timeout")) == {}
        assert report.unexpected_classes() == {"shed": 2, "timeout": 1}

    def test_shed_responses_counted_in_by_class(self):
        from repro.serve.engine import ServeConfig

        engine = OrchestrationEngine(ServeConfig(queue_bound=1))
        hot = dataclasses.replace(SPEC, rate_hz=0.05, telemetry_fraction=0.0)
        _, report = replay_in_process(hot, engine)
        assert report.by_class.get("shed", 0) > 0
        assert report.n_errors == sum(report.by_class.values())
        assert report.unexpected_classes(("shed",)) == {}


class _FlakyHandler(http.server.BaseHTTPRequestHandler):
    """Keep-alive stub: a plain-text 500 for ``/v1/boom``, JSON otherwise."""

    protocol_version = "HTTP/1.1"
    timeout = 5.0

    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers["Content-Length"]))
        if self.path == "/v1/boom":
            status, body = 500, b"upstream exploded"
        else:
            status, body = 200, json.dumps({"ok": True, "op": self.path[4:]}).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class _OneAnswerHandler(_FlakyHandler):
    """Closes each connection after its first answer, without saying so."""

    def do_POST(self):  # noqa: N802
        super().do_POST()
        self.close_connection = True


class _HealthHandler(_FlakyHandler):
    def do_GET(self):  # noqa: N802
        body = json.dumps({"ok": True, "op": "health"}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@contextlib.contextmanager
def _stub_server(handler, tls=None):
    """An ``http.server`` stub in a thread: yields ``(url, accepted connections)``."""
    server = http.server.HTTPServer(("127.0.0.1", 0), handler)
    if tls is not None:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
    accepted = []
    get_request = server.get_request

    def counted_get_request():
        request = get_request()
        accepted.append(1)
        return request

    server.get_request = counted_get_request
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"{'https://localhost' if tls else 'http://127.0.0.1'}:{server.server_address[1]}", accepted
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@pytest.fixture()
def tls_stub(tmp_path):
    """A TLS ``http.server`` stub with a throwaway self-signed certificate
    for ``localhost``: yields ``(url, accepted connections, certificate)``."""
    if shutil.which("openssl") is None:
        pytest.skip("openssl is not on PATH")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(
        ["openssl", "req", "-x509", "-newkey", "rsa:2048", "-nodes", "-days", "1",
         "-subj", "/CN=localhost", "-addext", "subjectAltName=DNS:localhost,IP:127.0.0.1",
         "-keyout", str(key), "-out", str(cert)],
        check=True, capture_output=True, timeout=60,
    )
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert, key)
    with _stub_server(_HealthHandler, tls=context) as (url, accepted):
        yield url, accepted, cert


class TestHttpTransport:
    def test_non_json_error_body_is_http_class_and_connection_reused(self):
        from repro.loadgen.replay import HTTP_ERROR, HttpTransport

        with _stub_server(_FlakyHandler) as (url, accepted):
            with HttpTransport(url, max_attempts=1) as transport:
                failed = transport.send({"op": "boom", "hive": 0, "t": 0.0})
                after = transport.send({"op": "admit", "hive": 0, "t": 0.0})
        assert failed["ok"] is False and failed["error_class"] == HTTP_ERROR
        assert "HTTP 500" in failed["error"] and "upstream exploded" in failed["error"]
        assert after == {"ok": True, "op": "admit"}
        assert len(accepted) == 1  # the error body was read, the connection kept

    def test_a_connection_closed_after_each_answer_is_reopened_free(self):
        """The server closes each connection after one answer, without
        ``Connection: close``: with one attempt, both sends still succeed."""
        from repro.loadgen.replay import HttpTransport

        with _stub_server(_OneAnswerHandler) as (url, accepted):
            with HttpTransport(url, max_attempts=1) as transport:
                first = transport.send({"op": "admit", "hive": 0, "t": 0.0})
                second = transport.send({"op": "inference", "hive": 0, "t": 1.0})
        assert first == {"ok": True, "op": "admit"}
        assert second == {"ok": True, "op": "inference"}
        assert len(accepted) == 2

    def test_https_round_trip_against_a_tls_stub(self, tls_stub, monkeypatch):
        from repro.loadgen.replay import HttpTransport

        url, accepted, cert = tls_stub
        monkeypatch.setenv("SSL_CERT_FILE", str(cert))
        with HttpTransport(url, max_attempts=1) as transport:
            assert transport.send({"op": "admit", "hive": 0, "t": 0.0}) == {"ok": True, "op": "admit"}
            assert transport.health() == {"ok": True, "op": "health"}
        assert len(accepted) == 1

    def test_https_with_an_untrusted_certificate_is_connection_refused(self, tls_stub, monkeypatch):
        from repro.loadgen.replay import CONNECTION_REFUSED, HttpTransport

        url, _accepted, _cert = tls_stub
        monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        transport = HttpTransport(url, max_attempts=1)
        response = transport.send({"op": "admit", "hive": 0, "t": 0.0})
        assert response["ok"] is False and response["error_class"] == CONNECTION_REFUSED

    @pytest.mark.parametrize(
        "response, error_class",
        [(b"HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\n{}" % (b"1" * 5000), "connection-refused"),
         (b"HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\n{}" % (b"9" * 20), "connection-refused"),
         (b"HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\n{}" % (b"9" * 18), "timeout"),
         (b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * (8 << 20), "connection-refused")],
        ids=["length-over-int-digit-limit", "length-over-sys-maxsize", "length-longer-than-sent",
             "head-without-end"],
    )
    def test_a_bogus_response_ends_the_exchange_not_the_replay(self, response, error_class):
        """A length ``int()`` refuses, one no ``recv`` buffer can hold, one
        the server never delivers, and a head that never ends."""
        import socket

        from repro.loadgen.replay import HttpTransport

        with socket.create_server(("127.0.0.1", 0)) as listener:

            def answer():
                conn, _ = listener.accept()
                with conn, contextlib.suppress(OSError):  # the client may hang up mid-send
                    conn.recv(65536)
                    conn.sendall(response)
                    conn.recv(1)  # hold the connection open until the client hangs up

            thread = threading.Thread(target=answer, daemon=True)
            thread.start()
            port = listener.getsockname()[1]
            transport = HttpTransport(f"http://127.0.0.1:{port}", timeout_s=1.0, max_attempts=1)
            reply = transport.send({"op": "admit", "hive": 0, "t": 0.0})
            thread.join(timeout=10)
        assert reply["ok"] is False and reply["error_class"] == error_class
        assert transport._sock is None

    @pytest.mark.parametrize(
        "url", ["ftp://127.0.0.1:8037", "127.0.0.1:8037", "localhost:8037", "ws://127.0.0.1:8037"]
    )
    def test_other_schemes_are_rejected(self, url):
        from repro.loadgen.replay import HttpTransport

        with pytest.raises(ValueError, match="scheme"):
            HttpTransport(url)

    @pytest.mark.parametrize("url", ["http://", "http:///v1", "https://:8443"])
    def test_urls_without_a_host_are_rejected(self, url):
        from repro.loadgen.replay import HttpTransport

        with pytest.raises(ValueError, match="no host"):
            HttpTransport(url)

    def test_cli_rejects_a_bad_target_url(self, capsys):
        from repro.loadgen.cli import main

        assert main(["--target", "ftp://127.0.0.1:8037"]) == 2
        assert "scheme" in capsys.readouterr().err


class TestSkipReconnect:
    def test_skip_replays_only_the_tail(self):
        from repro.loadgen.replay import InProcessTransport, replay

        full = list(iter_requests(SPEC))
        skip = len(full) // 2
        engine = OrchestrationEngine()
        for request in full[:skip]:
            engine.handle(dict(request))
        tail = replay(SPEC, InProcessTransport(engine), skip=skip)
        assert tail.n_requests == len(full) - skip
        # the server-side totals cover the whole stream
        assert engine.n_requests == len(full)

    def test_skip_validation(self):
        from repro.loadgen.replay import InProcessTransport, replay

        transport = InProcessTransport(OrchestrationEngine())
        with pytest.raises(ValueError):
            replay(SPEC, transport, skip=-1)
        with pytest.raises(ValueError):
            replay(dataclasses.replace(SPEC, mode="closed"), transport, skip=1)

    def test_skip_everything_is_an_empty_report(self):
        from repro.loadgen.replay import InProcessTransport, replay

        n = len(list(iter_requests(SPEC)))
        report = replay(SPEC, InProcessTransport(OrchestrationEngine()), skip=n)
        assert report.n_requests == 0


class TestCliErrorHandling:
    def test_unknown_allow_errors_class_exits_2(self, capsys):
        from repro.loadgen.cli import main

        assert main(["--in-process", "--hives", "2", "--horizon", "300",
                     "--allow-errors", "bogus"]) == 2
        assert "unknown error classes" in capsys.readouterr().err

    def test_resume_from_target_requires_http(self, capsys):
        from repro.loadgen.cli import main

        assert main(["--in-process", "--resume-from-target"]) == 2
        assert "HTTP" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--skip", "-1"],
        ["--skip", "3", "--mode", "closed"],
        ["--resume-from-target", "--mode", "closed"],
    ])
    def test_skip_it_cannot_honour_exits_2_before_sending(self, capsys, flags):
        from repro.loadgen.cli import main

        with _stub_server(_HealthHandler) as (url, accepted):
            assert main(["--target", url, "--hives", "2", "--horizon", "300", *flags]) == 2
        assert accepted == []  # no request, no health probe
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_clean_run_with_allow_errors_exits_0(self, capsys):
        from repro.loadgen.cli import main

        code = main(["--in-process", "--hives", "2", "--horizon", "300",
                     "--allow-errors", "shed", "--expect-zero-errors"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["n_errors"] == 0
        assert payload["skip"] == 0

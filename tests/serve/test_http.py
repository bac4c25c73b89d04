"""Integration tests: a real ``repro-serve`` subprocess behind HTTP.

Boots the server the same way CI's serve-smoke job does (ephemeral port,
``--port-file`` handshake, trace/obs artifacts) but with a load about 10×
smaller than the canonical :data:`repro.serve.smoke.SMOKE_SPEC` so the
whole module stays in the low seconds.  The full-size run is exercised by
``python -m repro.serve.smoke --http`` in CI and by the serve-trace golden.
"""

import contextlib
import errno
import http.client
import json
import math
import os
import re
import resource
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.loadgen.arrivals import LoadSpec
from repro.loadgen.replay import HttpTransport, replay, replay_in_process
from repro.serve import http as http_module
from repro.serve.engine import OrchestrationEngine, ServeConfig
from repro.serve.http import (
    MAX_BODY_BYTES, MAX_HEAD_BYTES, drain_pending, make_server, read_response, request_bytes,
)
from repro.serve.smoke import _boot_server

SMALL_SPEC = LoadSpec(
    n_hives=12,
    rate_hz=0.02,
    horizon_s=600.0,
    telemetry_fraction=0.5,
    payload_bytes=512,
    seed=0xBEE5,
    mode="open",
)


@pytest.fixture()
def server(tmp_path):
    proc, url, trace_out, obs_out = _boot_server(tmp_path)
    try:
        yield proc, url, trace_out, obs_out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


@pytest.fixture()
def threaded_server():
    """``make_server`` over a queue-bound engine, served from a background thread."""
    server = make_server(OrchestrationEngine(ServeConfig(queue_bound=1)), "127.0.0.1", 0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def shutdown(proc) -> str:
    """SIGTERM the server and return its stdout (the final report JSON)."""
    proc.send_signal(signal.SIGTERM)
    stdout, _ = proc.communicate(timeout=30)
    assert proc.returncode == 0, f"server exited {proc.returncode} on SIGTERM"
    return stdout.decode()


class TestLifecycle:
    def test_health_then_graceful_sigterm(self, server):
        proc, url, trace_out, obs_out = server
        with HttpTransport(url) as transport:
            health = transport.health()
        assert health["ok"] is True
        assert health["fleet"] == 0
        stdout = shutdown(proc)
        # shutdown flushed both artifacts and printed the report; the health
        # probe itself counts (every handled request does, since the
        # accounting fix) and must not register as an error
        report = json.loads(stdout)
        assert report["requests"] == 1
        assert report["errors"] == 0
        assert report["shutdown_signal"] == signal.SIGTERM
        assert trace_out.exists() and obs_out.exists()

    def test_obs_snapshot_flushed_on_sigterm(self, server):
        proc, url, trace_out, obs_out = server
        with HttpTransport(url) as t:
            t.send({"op": "admit", "hive": 1, "t": 0.0})
            t.send({"op": "inference", "hive": 1, "t": 5.0})
        shutdown(proc)
        snap = json.loads(obs_out.read_text())
        assert snap["schema_version"] >= 1
        assert snap["metrics"]["serve.requests"]["value"] == 2.0
        assert snap["run"]["kind"] == "serve"
        assert snap["run"]["report"]["requests"] == 2
        trace = json.loads(trace_out.read_text())
        assert trace["n_events"] == 2
        assert len(trace["events"]) == 2

    def test_sigterm_the_moment_the_port_file_appears_is_graceful(self, tmp_path):
        """The stop handlers are in before the port file is written, so a
        parent that signals as soon as the file appears still gets exit 0
        and the JSON report, every time."""
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"))
        for boot in range(6):
            port_file = tmp_path / f"port-{boot}"
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.serve.cli", "--port", "0",
                 "--port-file", str(port_file)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            )
            try:
                deadline = time.monotonic() + 30.0
                while not port_file.exists():  # no sleep: signal at once
                    assert proc.poll() is None and time.monotonic() < deadline
                proc.send_signal(signal.SIGTERM)
                stdout, _ = proc.communicate(timeout=30)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
            assert proc.returncode == 0, f"boot {boot}: exit {proc.returncode}"
            assert json.loads(stdout)["shutdown_signal"] == signal.SIGTERM

    def test_unknown_route_404_and_bad_json_400(self, server):
        proc, url, _trace, _obs = server
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"{url}/v1/frobnicate", data=b"{}", timeout=10)
        assert exc.value.code == 404
        req = urllib.request.Request(
            f"{url}/v1/admit", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=10)
        assert exc.value.code == 400

    def test_engine_error_is_422_with_body(self, server):
        proc, url, _trace, _obs = server
        with HttpTransport(url) as t:
            t.send({"op": "admit", "hive": 7, "t": 0.0})
            r = t.send({"op": "admit", "hive": 7, "t": 1.0})
        assert r["ok"] is False and "hive 7 is already admitted" in r["error"]


class _TakingTurns:
    """Send each request on the next of several transports in turn."""

    def __init__(self, transports) -> None:
        self.transports = transports
        self.n_sent = 0

    def send(self, request):
        transport = self.transports[self.n_sent % len(self.transports)]
        self.n_sent += 1
        return transport.send(request)


def _counting_connects(transport: HttpTransport) -> list:
    """Record every TCP connect the transport makes from here on."""
    connects = []
    connect = transport._connect

    def counted():
        connects.append(transport._address)
        return connect()

    transport._connect = counted
    return connects


class TestKeepAlive:
    def test_one_connection_carries_a_whole_replay_and_health(self, server):
        proc, url, _trace, _obs = server
        with HttpTransport(url) as transport:
            connects = _counting_connects(transport)
            report = replay(SMALL_SPEC, transport)
            health = transport.health()
        assert report.n_errors == 0
        assert health["requests"] == report.n_requests + 1
        assert len(connects) == 1
        assert transport._sock is None  # closed by leaving the block
        shutdown(proc)

    def test_sigterm_with_an_idle_connected_transport_exits_promptly(self, server):
        proc, url, _trace, _obs = server
        with HttpTransport(url) as transport:
            assert transport.health()["ok"] is True
            start = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=30)
            elapsed = time.monotonic() - start
            assert transport._sock is not None  # still connected at SIGTERM
        assert proc.returncode == 0
        assert elapsed < 1.0, f"repro-serve took {elapsed:.2f} s to exit"

    @pytest.mark.parametrize("n_clients", [2, 4])
    def test_interleaved_clients_keep_their_connections(self, server, n_clients):
        """Clients taking turns on one server: no reconnects, and the same
        trace as the in-process fold."""
        proc, url, trace_out, _obs = server
        transports = [HttpTransport(url, max_attempts=1) for _ in range(n_clients)]
        connects = [_counting_connects(transport) for transport in transports]
        try:
            report = replay(SMALL_SPEC, _TakingTurns(transports))
        finally:
            for transport in transports:
                transport.close()
        engine, local = replay_in_process(SMALL_SPEC)
        assert report.n_errors == 0
        assert report.response_sha256 == local.response_sha256
        assert [len(c) for c in connects] == [1] * n_clients
        shutdown(proc)
        assert json.loads(trace_out.read_text())["sha256"] == engine.trace.fingerprint()

    def test_a_half_sent_head_holds_up_no_one(self, threaded_server):
        with socket.create_connection(threaded_server.server_address, timeout=3) as stalled:
            stalled.sendall(b"POST /v1/admit HTTP/1.1\r\nHost: x\r\n")
            host, port = threaded_server.server_address
            start = time.monotonic()
            with urllib.request.urlopen(f"http://{host}:{port}/v1/health", timeout=10) as resp:
                assert json.loads(resp.read())["ok"] is True
            assert time.monotonic() - start < 0.5

    def test_expect_100_continue_is_answered_before_the_body(self, threaded_server):
        body = json.dumps({"hive": 1, "t": 0.0}).encode()
        with socket.create_connection(threaded_server.server_address, timeout=3) as sock:
            sock.sendall(b"POST /v1/admit HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body))
            sock.settimeout(0.5)
            assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.settimeout(3)
            sock.sendall(body)
            reply = sock.recv(65536)
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert threaded_server.engine.n_served == 1

    @pytest.mark.parametrize(
        "request_head",
        [b"GET /v1/health HTTP/1.0\r\n\r\n",
         b"GET /v1/health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"],
        ids=["http-1.0", "connection-close"],
    )
    def test_answered_then_closed(self, threaded_server, request_head):
        status_line, headers, body, closed = _raw_exchange(
            threaded_server.server_address, request_head)
        assert status_line == "HTTP/1.1 200 OK" and body["ok"] is True
        assert headers["Connection"] == "close" and closed

    def test_a_silent_connection_is_closed(self, threaded_server, monkeypatch):
        monkeypatch.setattr(http_module, "IDLE_TIMEOUT_S", 0.2)
        with socket.create_connection(threaded_server.server_address, timeout=3) as sock:
            start = time.monotonic()
            assert sock.recv(1) == b""
            assert 0.2 <= time.monotonic() - start < 2.0

    def test_a_talking_connection_outlives_a_silent_one(self, threaded_server, monkeypatch):
        """The talker connects first, so the idle sweep finds the silent
        connection only if each read moves its connection to the back."""
        monkeypatch.setattr(http_module, "IDLE_TIMEOUT_S", 0.3)
        address = threaded_server.server_address
        with socket.create_connection(address, timeout=3) as talker, \
                socket.create_connection(address, timeout=0.05) as silent:
            deadline = time.monotonic() + 2.0
            while True:
                talker.sendall(request_bytes("GET", "x", "/v1/health"))
                assert read_response(talker)[0] == 200
                try:
                    if silent.recv(1) == b"":
                        break  # closed while the talker kept talking
                except socket.timeout:
                    pass
                assert time.monotonic() < deadline, "the silent connection was never closed"

    @pytest.mark.skipif(not hasattr(resource, "prlimit"), reason="needs prlimit and /proc (Linux)")
    def test_out_of_descriptors_the_longest_idle_connection_gives_way(self, server):
        proc, url, _trace, _obs = server
        fds = [int(entry.name) for entry in Path(f"/proc/{proc.pid}/fd").iterdir()]
        limit = max(fds) + 4
        _soft, hard = resource.prlimit(proc.pid, resource.RLIMIT_NOFILE)
        resource.prlimit(proc.pid, resource.RLIMIT_NOFILE, (limit, hard))
        host, port = url[len("http://"):].split(":")
        health = request_bytes("GET", host, "/v1/health")
        with contextlib.ExitStack() as stack:

            def connect_and_ask():
                sock = stack.enter_context(socket.create_connection((host, int(port)), timeout=2))
                sock.sendall(health)
                assert read_response(sock)[0] == 200
                return sock

            socks = [connect_and_ask() for _ in range(limit - len(fds))]  # every free slot
            socks[0].sendall(health)  # the first is now the last heard from
            assert read_response(socks[0])[0] == 200
            newcomer = connect_and_ask()  # answered at once: the second gives way
            assert socks[1].recv(1) == b""
            for sock in (socks[0], newcomer):
                sock.sendall(health)
                assert read_response(sock)[0] == 200
        shutdown(proc)

    def test_out_of_descriptors_with_no_connection_open_backs_off(self, monkeypatch):
        """With nothing of its own to give up, the loop must not spin on a
        listener that stays readable."""
        accepts = []

        def out_of_descriptors(sock):
            accepts.append(time.monotonic())
            raise OSError(errno.EMFILE, "Too many open files")

        server = make_server(OrchestrationEngine(ServeConfig()), "127.0.0.1", 0)
        with contextlib.ExitStack() as stack:
            stack.callback(server.server_close)
            stack.enter_context(socket.create_connection(server.server_address, timeout=3))
            monkeypatch.setattr(socket.socket, "accept", out_of_descriptors)
            assert drain_pending(server, budget_s=0.5) == 0
        assert 1 <= len(accepts) <= 20

    def test_responses_carry_the_standard_headers(self, threaded_server):
        _status, headers, body, _closed = _raw_exchange(
            threaded_server.server_address, b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n")
        assert headers["Server"] == "repro-serve"
        assert headers["Content-Type"] == "application/json"
        assert headers["Date"].endswith(" GMT")
        assert int(headers["Content-Length"]) == len(json.dumps(body, sort_keys=True))

    def test_kept_alive_requests_do_not_stall(self, threaded_server):
        """A body sent after its headers would hold each request ~40 ms on
        Nagle plus the client's delayed ACK: 50 requests would take ~2 s."""
        host, port = threaded_server.server_address
        with HttpTransport(f"http://{host}:{port}") as transport:
            transport.health()
            start = time.monotonic()
            for _ in range(50):
                assert transport.health()["ok"] is True
            assert time.monotonic() - start < 1.0

    def test_each_response_is_one_send(self, threaded_server, monkeypatch):
        sends = []
        send = socket.socket.send

        def counting_send(sock, data, *args):
            sends.append(len(data))
            return send(sock, data, *args)

        monkeypatch.setattr(socket.socket, "send", counting_send)
        host, port = threaded_server.server_address
        with HttpTransport(f"http://{host}:{port}") as transport:
            for _ in range(20):
                assert transport.health()["ok"] is True
        assert len(sends) == 20

    def test_a_client_that_never_reads_holds_up_no_one(self, threaded_server):
        """One client pipelines far more responses than the socket buffers
        hold and reads none of them: a second client is still answered at
        once, and the first then gets every response, in order."""
        n = 20_000
        engine = threaded_server.engine
        with socket.socket() as hog:
            hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            hog.connect(threaded_server.server_address)
            threading.Thread(
                target=hog.sendall, args=(request_bytes("GET", "x", "/v1/health") * n,),
                daemon=True,
            ).start()
            deadline = time.monotonic() + 4.0
            seen = -1
            while seen != engine.n_requests:  # until the hog's answers back up
                seen = engine.n_requests
                time.sleep(0.2)
                assert time.monotonic() < deadline, "the hog's responses never backed up"
            assert seen < n
            with socket.create_connection(threaded_server.server_address, timeout=3) as probe:
                start = time.monotonic()
                probe.sendall(request_bytes("GET", "x", "/v1/health"))
                assert read_response(probe)[0] == 200
                assert time.monotonic() - start < 0.5
            hog.settimeout(10)
            stream, counts = b"", []
            while len(counts) < n:
                chunk = hog.recv(1 << 20)
                assert chunk, f"the connection closed after {len(counts)} responses"
                stream += chunk
                while (head_end := stream.find(b"\r\n\r\n")) >= 0:
                    head = stream[:head_end]
                    end = head_end + 4 + int(re.search(rb"Content-Length: (\d+)", head)[1])
                    if len(stream) < end:
                        break
                    assert head.startswith(b"HTTP/1.1 200 OK\r\n")
                    counts.append(json.loads(stream[head_end + 4:end])["requests"])
                    stream = stream[end:]
        assert counts == sorted(counts) and len(set(counts)) == n
        assert engine.n_requests == n + 1

    def test_error_bodies_and_retry_after_are_unchanged(self, threaded_server):
        """404/400/422/503 on one kept-alive connection, as the in-process path answers."""
        reference = OrchestrationEngine(ServeConfig(queue_bound=1))
        conn = http.client.HTTPConnection(*threaded_server.server_address, timeout=10)

        def post(op: str, body: bytes):
            conn.request("POST", f"/v1/{op}", body, {"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read()), resp.getheader("Retry-After")

        def post_request(op: str, request: dict):
            status, body, retry_after = post(op, json.dumps(request).encode())
            assert body == reference.handle({**request, "op": op})
            return status, body, retry_after

        try:
            assert post("frobnicate", b"{}") == (
                404, {"ok": False, "error": "no such endpoint: /v1/frobnicate"}, None
            )
            assert post("admit", b"not json") == (
                400,
                {"ok": False, "op": "admit",
                 "error": "bad request body: Expecting value: line 1 column 1 (char 0)"},
                None,
            )
            assert post_request("admit", {"hive": 7, "t": 0.0})[0] == 200
            assert post_request("admit", {"hive": 7, "t": 1.0})[0] == 422
            assert post_request("inference", {"hive": 7, "t": 2.0})[0] == 200
            status, shed, retry_after = post_request("inference", {"hive": 7, "t": 3.0})
            assert status == 503 and shed["shed"] is True
            assert retry_after == str(max(1, math.ceil(shed["retry_after_s"])))
        finally:
            conn.close()


def _raw_exchange(address, request: bytes):
    """Send one raw request; returns (status line, headers, JSON body, server closed)."""
    with socket.create_connection(address, timeout=3) as sock:
        sock.sendall(request)
        reply = b""
        while b"\r\n\r\n" not in reply:
            chunk = sock.recv(65536)
            assert chunk, f"connection closed before a response: {reply!r}"
            reply += chunk
        head_bytes, rest = reply.split(b"\r\n\r\n", 1)
        lines = head_bytes.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        while len(rest) < int(headers["Content-Length"]):
            rest += sock.recv(65536)
        sock.settimeout(0.5)
        try:
            closed = sock.recv(1) == b""
        except socket.timeout:
            closed = False
    return lines[0], headers, json.loads(rest), closed


class TestFraming:
    @pytest.mark.parametrize(
        "request_head, status",
        [
            (b"POST /v1/admit HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n", "400"),
            (b"POST /v1/admit HTTP/1.1\r\nHost: x\r\nContent-Length: 12abc\r\n\r\n", "400"),
            (b"POST /v1/admit HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n"
             % (MAX_BODY_BYTES + 1), "413"),
            (b"POST /v1/admit HTTP/1.1\r\nHost: x\r\nContent-Length: %s\r\n\r\n"
             % (b"1" * 5000), "413"),
            (b"POST /v1/admit HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n", "501"),
            (b"NONSENSE\r\n\r\n", "400"),
            (b"POST /v1/admit HTTP/1.1\r\nHost x\r\n\r\n", "400"),
            (b"GET /v1/health HTTP/1.1\r\nX-Pad: %s\r\n\r\n" % (b"a" * MAX_HEAD_BYTES), "431"),
            (b"DELETE /v1/health HTTP/1.1\r\nHost: x\r\n\r\n", "501"),
            (b"GET /v1/health HTTP/2.0\r\nHost: x\r\n\r\n", "505"),
        ],
        ids=["negative-length", "non-integer-length", "oversized-length",
             "length-over-int-digit-limit", "transfer-encoding",
             "request-line", "header-line", "head-too-long", "method", "version"],
    )
    def test_refused_at_once_and_connection_closed(self, threaded_server, request_head, status):
        start = time.monotonic()
        status_line, headers, body, closed = _raw_exchange(
            threaded_server.server_address, request_head)
        assert time.monotonic() - start < 1.0
        assert status_line.split(" ")[1] == status
        assert headers["Connection"] == "close" and closed
        assert body["ok"] is False and body["error"]
        assert threaded_server.engine.n_requests == 0

    def test_drain_answers_received_requests_with_connection_close(self):
        engine = OrchestrationEngine(ServeConfig())
        server = make_server(engine, "127.0.0.1", 0)
        with contextlib.ExitStack() as stack:
            stack.callback(server.server_close)
            socks = [stack.enter_context(socket.create_connection(server.server_address, timeout=3))
                     for _ in range(2)]
            for sock in socks:
                sock.sendall(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n")
            assert drain_pending(server, budget_s=5.0) == 2
            for sock in socks:
                reply = b""
                while chunk := sock.recv(65536):
                    reply += chunk
                assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
                assert b"\r\nConnection: close\r\n" in reply
        assert engine.n_requests == 2

    def test_missing_content_length_is_an_empty_body(self, threaded_server):
        status_line, _headers, body, closed = _raw_exchange(
            threaded_server.server_address, b"POST /v1/admit HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert status_line.split(" ")[1] == "422"
        assert body == OrchestrationEngine().handle({"op": "admit"})
        assert not closed

    def test_pipelined_requests_are_both_answered(self, threaded_server):
        with socket.create_connection(threaded_server.server_address, timeout=3) as sock:
            sock.sendall(b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n" * 2)
            reply = b""
            while reply.count(b"HTTP/1.1 200") < 2 or not reply.endswith(b"}"):
                chunk = sock.recv(65536)
                assert chunk, f"connection closed after {reply!r}"
                reply += chunk
        assert threaded_server.engine.n_requests == 2


class TestReplayOverHttp:
    def test_http_replay_matches_in_process_bit_for_bit(self, server):
        proc, url, trace_out, _obs = server
        with HttpTransport(url) as transport:
            report = replay(SMALL_SPEC, transport)
        assert report.n_errors == 0
        _engine, local = replay_in_process(SMALL_SPEC)
        assert report.n_requests == local.n_requests
        assert report.response_sha256 == local.response_sha256
        shutdown(proc)
        trace = json.loads(trace_out.read_text())
        assert trace["sha256"] == _engine.trace.fingerprint()

    def test_trace_is_deterministic_across_server_runs(self, tmp_path):
        def one_run(sub):
            d = tmp_path / sub
            d.mkdir()
            proc, url, trace_out, _obs = _boot_server(d)
            try:
                with HttpTransport(url) as transport:
                    report = replay(SMALL_SPEC, transport)
                assert report.n_errors == 0
                shutdown(proc)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
            return json.loads(trace_out.read_text())["sha256"]

        assert one_run("a") == one_run("b")


class TestGolden:
    def test_smoke_fingerprint_matches_committed_golden(self):
        from repro.serve.smoke import smoke_fingerprint
        from repro.validate.golden import diff_fingerprints, load_golden

        golden_dir = Path(__file__).resolve().parents[1] / "golden"
        stored = load_golden("serve-trace", golden_dir)
        drifts = diff_fingerprints(stored["fingerprint"], smoke_fingerprint())
        assert not drifts, f"serve-trace drifted: {drifts}"

    def test_smoke_main_gates_green(self):
        from repro.serve.smoke import main

        assert main([]) == 0


class TestCliFlags:
    def test_bad_policy_exits_nonzero(self):
        import os
        import sys

        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = str(src)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve.cli", "--policy", "nope", "--port", "0"],
            capture_output=True,
            env=env,
            timeout=30,
        )
        assert proc.returncode != 0
        assert b"policy" in proc.stderr

    def test_unwritable_port_file_exits_2(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve.cli", "--port", "0",
             "--port-file", str(tmp_path / "missing" / "port")],
            capture_output=True, env=env, timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stderr.decode().startswith("error: cannot write port file")
        assert proc.stdout == b""


def _boot_error(tmp_path, *argv) -> str:
    """Boot ``repro-serve argv`` that must fail: exit 2, one ``error:`` line,
    no traceback, no report and no port file.  Returns the line."""
    port_file = tmp_path / "port"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[2] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.serve.cli", "--port-file", str(port_file), *argv],
        capture_output=True, env=env, timeout=30,
    )
    lines = proc.stderr.decode().splitlines()
    assert proc.returncode == 2, lines
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert proc.stdout == b""
    assert not port_file.exists()
    return lines[0]


@contextlib.contextmanager
def _busy_port():
    """A port some other socket is listening on."""
    with socket.create_server(("127.0.0.1", 0)) as sock:
        yield sock.getsockname()[1]


class TestBootErrors:
    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_port_out_of_range(self, tmp_path, port):
        assert "--port" in _boot_error(tmp_path, "--port", port)

    def test_port_in_use(self, tmp_path):
        with _busy_port() as port:
            assert "cannot listen" in _boot_error(tmp_path, "--port", str(port))

    def test_address_not_on_this_host(self, tmp_path):
        # 192.0.2.1 is TEST-NET-1 (RFC 5737): a literal, so no name lookup,
        # and assigned to no interface, so the bind fails.
        line = _boot_error(tmp_path, "--host", "192.0.2.1", "--port", "0")
        assert "cannot listen" in line

    def test_engine_refuses_the_config(self, tmp_path):
        _boot_error(tmp_path, "--max-parallel", "0", "--port", "0")

    def test_fresh_boot_that_cannot_listen_keeps_the_earlier_checkpoint(self, tmp_path):
        from repro.serve.checkpoint import ServeCheckpointer, log_path, slot_paths

        ckpt = tmp_path / "serve.ckpt"
        engine = OrchestrationEngine(ServeConfig())
        checkpointer = ServeCheckpointer(ckpt, every=2)
        engine.checkpointer = checkpointer
        engine.handle({"op": "admit", "hive": 0, "t": 0.0})
        for t in (1.0, 2.0, 3.0):
            engine.handle({"op": "inference", "hive": 0, "t": t})
        checkpointer.close()
        files = [*slot_paths(ckpt), log_path(ckpt)]
        before = {f: f.read_bytes() for f in files}
        with _busy_port() as port:
            _boot_error(tmp_path, "--port", str(port), "--checkpoint", str(ckpt))
        assert {f: f.read_bytes() for f in files} == before

"""stdlib HTTP transport for the orchestration engine.

One deliberately small layer: ``POST /v1/{admit,release,telemetry,inference}``
with a JSON body and ``GET /v1/health`` map straight onto
:meth:`~repro.serve.engine.OrchestrationEngine.handle`.  The server is
**single-threaded by design** — requests are serialized in arrival order,
which is what makes an HTTP replay produce the same placement trace as the
in-process fold (the determinism the ``serve-trace`` golden pins).

Connections are kept alive, and each response leaves in one send.  Between
requests the serving thread waits on an idle connection only while nobody
else needs it: it gives the connection up as soon as shutdown has begun or
another client is queued on the listener, and after :attr:`_Handler.timeout`
at the latest.  A request body is read by its ``Content-Length`` alone, up
to :data:`MAX_BODY_BYTES`; any other framing is refused and the connection
closed, so unread bytes are never parsed as the next request.

Graceful shutdown: SIGTERM/SIGINT set a flag and stop the accept loop from
a helper thread (``HTTPServer.shutdown`` must not be called from the
serving thread); the process then flushes the final obs snapshot and the
full placement trace before exiting 0, so a supervised rollout never loses
the run's telemetry.  An exception out of the engine — a checkpoint save
that failed — instead stops the server at once, with the request that
raised it unanswered (crash-only: the caller exits and resumes from the
last save).
"""

from __future__ import annotations

import json
import math
import select
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Dict, Optional

from repro.serve.engine import OPS, OrchestrationEngine

#: URL prefix of the serving API.
API_PREFIX = "/v1/"

#: Accept-backlog drain budget on graceful shutdown (seconds).
DRAIN_BUDGET_S = 2.0

#: Largest request body the server reads; a longer one is refused with 413.
MAX_BODY_BYTES = 64 * 1024

#: How often an idle kept-alive connection re-checks for shutdown (seconds).
IDLE_POLL_S = 0.05


class _Server(HTTPServer):
    """``HTTPServer`` whose handlers can see that shutdown has begun.

    ``failure`` is an exception the engine raised while handling a request;
    the serving loop stops at once and re-raises it.
    """

    stopping = False
    failure: Optional[Exception] = None

    def shutdown(self) -> None:
        self.stopping = True
        super().shutdown()

    def service_actions(self) -> None:  # runs after every request the loop serves
        if self.failure is not None:
            raise self.failure


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # A rude keep-alive client must not wedge the single serving thread
    # (nor the shutdown drain): idle connections are dropped after this.
    timeout = 5.0
    # Responses collect in a 128 KiB write buffer flushed once per request,
    # so status line, headers and body leave in one send: a body sent after
    # the headers waits out Nagle plus the client's delayed ACK (~40 ms a
    # request on a kept-alive connection).
    wbufsize = 1 << 17
    engine: OrchestrationEngine  # set by make_server on the class
    server: _Server

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # keep stdout/stderr deterministic; obs carries the counters

    def handle(self) -> None:
        self.close_connection = True
        self.handle_one_request()
        while not self.close_connection and self._await_request():
            self.handle_one_request()

    def _await_request(self) -> bool:
        """Wait on the idle connection until its next request can be read.

        Returns False to give the connection up: shutdown has begun,
        another client is queued on the listener, or the idle timeout has
        passed.  One idle client must never hold the single serving thread.
        """
        if self._pipelined():
            return True
        deadline = time.monotonic() + self.timeout
        watched = (self.connection, self.server.socket)
        while not self.server.stopping:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            ready, _, _ = select.select(watched, (), (), min(remaining, IDLE_POLL_S))
            if self.connection in ready:
                return True  # the next request, or the client's close
            if ready:
                return False  # another client waits to connect
        return False

    def _pipelined(self) -> bool:
        """Whether a request the client sent early already sits in the read buffer."""
        self.connection.setblocking(False)
        try:
            return bool(self.rfile.peek(1))
        finally:
            self.connection.settimeout(self.timeout)

    def _reply(self, status: int, payload: Dict[str, Any],
               headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Optional[bytes]:
        """The request body, read by its ``Content-Length`` (none means empty).

        Returns None once the body has been refused: the refusal is sent at
        once and closes the connection, because on a kept-alive connection
        the unread body would be parsed as the next request.
        """
        length = ",".join(self.headers.get_all("Content-Length", ["0"])).strip()
        if "Transfer-Encoding" in self.headers:
            status, error = 501, "Transfer-Encoding is not supported; send Content-Length"
        elif not (length.isascii() and length.isdigit()):
            status, error = 400, f"bad Content-Length {length!r}"
        elif int(length) > MAX_BODY_BYTES:
            status, error = 413, f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        else:
            return self.rfile.read(int(length))
        self._reply(status, {"ok": False, "error": error}, headers={"Connection": "close"})
        return None

    def _answer(self, request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The engine's response, or None when the engine raised.

        The engine never raises on a bad request, so an exception means its
        state is in doubt (a checkpoint save failed after the request was
        applied): the request goes unanswered, its connection closes, and
        the server stops rather than apply a re-sent copy.
        """
        try:
            return self.engine.handle(request)
        except Exception as exc:  # noqa: BLE001 — re-raised by the serving loop
            self.server.failure = exc
            self.close_connection = True
            return None

    def _route(self) -> Optional[str]:
        if not self.path.startswith(API_PREFIX):
            return None
        op = self.path[len(API_PREFIX):].rstrip("/")
        return op if op in OPS else None

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        if self._read_body() is None:
            return
        if self._route() == "health":
            response = self._answer({"op": "health"})
            if response is not None:
                self._reply(200, response)
        else:
            self._reply(404, {"ok": False, "error": f"no such endpoint: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802
        body = self._read_body()
        if body is None:
            return
        op = self._route()
        if op is None:
            self._reply(404, {"ok": False, "error": f"no such endpoint: {self.path}"})
            return
        try:
            request = json.loads(body or b"{}")
            if not isinstance(request, dict):
                raise ValueError("request body must be a JSON object")
        except (ValueError, json.JSONDecodeError) as exc:
            self._reply(400, {"ok": False, "op": op, "error": f"bad request body: {exc}"})
            return
        request["op"] = op
        response = self._answer(request)
        if response is None:
            return
        if response.get("shed"):
            # Deterministic overload rejection: 503 plus the engine's hint
            # for when the oldest in-flight request frees a queue slot.
            retry_after = max(1, math.ceil(float(response.get("retry_after_s", 1.0))))
            self._reply(503, response, headers={"Retry-After": str(retry_after)})
            return
        self._reply(200 if response.get("ok") else 422, response)


def make_server(engine: OrchestrationEngine, host: str = "127.0.0.1",
                port: int = 0) -> HTTPServer:
    """Bind an HTTP server on ``host:port`` (0 = ephemeral) for ``engine``."""
    handler = type("BoundHandler", (_Handler,), {"engine": engine})
    return _Server((host, port), handler)


def drain_pending(server: HTTPServer, budget_s: float = DRAIN_BUDGET_S) -> int:
    """Serve connections already queued in the accept backlog.

    ``HTTPServer.shutdown`` only stops the *loop*: a request whose TCP
    connection was accepted by the kernel but not yet picked up by
    ``serve_forever`` would be silently dropped — offered but never
    counted, breaking the serve-conservation contract at the transport.
    This drains the backlog (bounded by ``budget_s``) before the socket
    closes, so every request that reached the listener gets an answer.
    Draining is part of shutdown, so each drained connection is given up
    after its first request.  Returns the number of drained connections.
    """
    server.stopping = True
    deadline = time.monotonic() + budget_s
    drained = 0
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        ready, _, _ = select.select([server], [], [], min(remaining, 0.05))
        if not ready:
            break  # backlog empty — nothing left to answer
        server.handle_request()
        drained += 1
        if server.failure is not None:
            raise server.failure
    return drained


def serve_until_signal(server: HTTPServer) -> int:
    """Run the accept loop until SIGTERM/SIGINT; returns the signal number.

    Restores the previous handlers on exit so embedding callers (tests)
    keep their signal disposition.  Before the socket closes, the accept
    backlog is drained (:func:`drain_pending`) so a graceful stop never
    drops an already-connected client.  An exception the engine raised
    while handling a request stops the server without draining, and is
    re-raised here.
    """
    got = {"signum": 0}

    def _stop(signum: int, frame: Any) -> None:
        got["signum"] = signum
        # shutdown() blocks until serve_forever drains; hop threads so the
        # handler (which runs on the serving thread) cannot deadlock.
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = {
        sig: signal.signal(sig, _stop) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        server.serve_forever(poll_interval=0.05)
        drain_pending(server)
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
        server.server_close()
    return got["signum"]


__all__ = ["API_PREFIX", "DRAIN_BUDGET_S", "MAX_BODY_BYTES", "make_server", "serve_until_signal",
           "drain_pending"]

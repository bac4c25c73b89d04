"""Lean HTTP/1.1 front end for the orchestration engine, and the framing
both ends of the wire share.

One deliberately small layer: ``POST /v1/{admit,release,telemetry,inference}``
with a JSON body and ``GET /v1/health`` map straight onto
:meth:`~repro.serve.engine.OrchestrationEngine.handle`.  The server is
**single-threaded by design**: one ``selectors`` loop holds every open
connection and serves complete requests one at a time, in the order it
reads them, which is what makes an HTTP replay produce the same placement
trace as the in-process fold (the determinism the ``serve-trace`` golden
pins).  A client that has sent half a request, or stopped reading its
responses, holds up nobody, and a connection that makes no progress for
:data:`IDLE_TIMEOUT_S` is closed.  Out of file
descriptors, the server closes its longest-idle connection to accept the
next one.

:func:`cut_request` is a pure function of a connection's bytes: the next
complete request, or the :class:`Refusal` that ends the connection.  The
body is read by ``Content-Length`` alone, up to :data:`MAX_BODY_BYTES`, and
the head is capped at :data:`MAX_HEAD_BYTES`; any other framing is refused,
so unread bytes are never parsed as the next request.  Every response is
built from one header template and leaves in one send.  The client half,
:func:`request_bytes` and :func:`read_response`, is what
:class:`~repro.loadgen.replay.HttpTransport` speaks.

Graceful shutdown: SIGTERM/SIGINT stop the loop within one poll, the
requests already received (the accept backlog included) are answered with
``Connection: close`` (:func:`drain_pending`), and the process then
flushes the final obs snapshot and the full placement trace before
exiting 0.  An exception out of the engine (a checkpoint save that
failed) instead stops the server at once, with the request that raised it
unanswered (crash-only: the caller exits and resumes from the last save).
"""

from __future__ import annotations

import errno
import json
import math
import re
import selectors
import signal
import socket
import sys
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.serve.engine import OPS, OrchestrationEngine

#: URL prefix of the serving API.
API_PREFIX = "/v1/"

#: Budget for answering the requests already received, accept backlog
#: included, on graceful shutdown (seconds).
DRAIN_BUDGET_S = 2.0

#: Largest request body the server reads; a longer one is refused with 413.
MAX_BODY_BYTES = 64 * 1024

#: Largest request head (request line, header lines and the blank line);
#: a longer one is refused with 431.
MAX_HEAD_BYTES = 16 * 1024

#: A connection that sends nothing, or takes none of a pending response,
#: for this long is closed (seconds).
IDLE_TIMEOUT_S = 5.0

_TOKEN = re.compile(rb"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_VERSION = re.compile(rb"HTTP/[0-9]\.[0-9]")
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 413: "Content Too Large",
    422: "Unprocessable Content", 431: "Request Header Fields Too Large",
    501: "Not Implemented", 503: "Service Unavailable", 505: "HTTP Version Not Supported",
}


class Request(NamedTuple):
    """One request cut from a connection's bytes.

    ``body`` is None while the body is still on its way; ``end`` is the
    offset just past the whole request.
    """

    method: str
    path: str
    body: Optional[bytes]
    close: bool
    expect_continue: bool
    end: int


class Refusal(NamedTuple):
    """A request the server will not read: answered with ``status``, then closed."""

    status: int
    error: str


def _fields(lines: List[bytes]) -> Optional[Dict[bytes, bytes]]:
    """Header fields by lower-case name (repeats comma-joined); None if a line is malformed."""
    fields: Dict[bytes, bytes] = {}
    for line in lines:
        name, colon, value = line.partition(b":")
        if not colon or not _TOKEN.fullmatch(name):
            return None
        name = name.lower()
        value = value.strip(b" \t")
        fields[name] = fields[name] + b"," + value if name in fields else value
    return fields


def _closes(fields: Dict[bytes, bytes]) -> bool:
    """Whether the ``Connection`` field asks to close after this message."""
    tokens = fields.get(b"connection", b"").lower().split(b",")
    return b"close" in [token.strip(b" \t") for token in tokens]


def _length(value: bytes, limit: int) -> Optional[int]:
    """A ``Content-Length`` value: None unless all digits, ``limit + 1`` if over ``limit``.

    The digits are counted before ``int``, which refuses strings of over 4,300.
    """
    if not value.isdigit():
        return None
    digits = value.lstrip(b"0")
    if len(digits) > len(str(limit)):
        return limit + 1
    return min(int(digits or b"0"), limit + 1)


def cut_request(data: bytes) -> Union[None, Request, Refusal]:
    """The first request in ``data``, a refusal, or None until its head is complete."""
    head_end = data.find(b"\r\n\r\n", 0, MAX_HEAD_BYTES)
    if head_end < 0:
        if len(data) >= MAX_HEAD_BYTES:
            return Refusal(431, f"request head exceeds {MAX_HEAD_BYTES} bytes")
        return None
    request_line, *lines = data[:head_end].split(b"\r\n")
    parts = request_line.split(b" ")
    if len(parts) != 3 or not parts[0] or not parts[1]:
        return Refusal(400, f"bad request line {request_line[:200].decode('latin-1')!r}")
    method, target, version = parts
    if version not in (b"HTTP/1.1", b"HTTP/1.0"):
        if _VERSION.fullmatch(version):
            return Refusal(505, f"HTTP version {version.decode()} is not supported")
        return Refusal(400, f"bad HTTP version {version[:50].decode('latin-1')!r}")
    if method not in (b"GET", b"POST"):
        return Refusal(501, f"method {method[:50].decode('latin-1')!r} is not supported")
    fields = _fields(lines)
    if fields is None:
        return Refusal(400, "bad header line")
    if b"transfer-encoding" in fields:
        return Refusal(501, "Transfer-Encoding is not supported; send Content-Length")
    length = fields.get(b"content-length", b"0")
    size = _length(length, MAX_BODY_BYTES)
    if size is None:
        return Refusal(400, f"bad Content-Length {length[:50].decode('latin-1')!r}")
    if size > MAX_BODY_BYTES:
        shown = length[:20].decode() + ("..." if len(length) > 20 else "")
        return Refusal(413, f"body of {shown} bytes exceeds the {MAX_BODY_BYTES}-byte limit")
    http11 = version == b"HTTP/1.1"
    close = not http11 or _closes(fields)
    start = head_end + 4
    end = start + size
    body = data[start:end] if len(data) >= end else None
    expect = http11 and fields.get(b"expect", b"").lower() == b"100-continue"
    return Request(method.decode(), target.decode("latin-1"), body, close, expect, end)


_encode = json.JSONEncoder(sort_keys=True).encode


def _response(status: int, payload: Dict[str, Any], close: bool, extra: str = "") -> bytes:
    body = _encode(payload).encode("utf-8")
    connection = "Connection: close\r\n" if close else ""
    # English day and month names: Python leaves LC_TIME at "C"
    date = time.strftime("%a, %d %b %Y %H:%M:%S GMT", time.gmtime())
    return (
        f"HTTP/1.1 {status} {_REASONS[status]}\r\nServer: repro-serve\r\nDate: {date}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        f"{extra}{connection}\r\n"
    ).encode("latin-1") + body


def _route(path: str) -> Optional[str]:
    if not path.startswith(API_PREFIX):
        return None
    op = path[len(API_PREFIX):].rstrip("/")
    return op if op in OPS else None


class _Connection:
    __slots__ = ("sock", "data", "seen", "continued", "out", "closing")

    def __init__(self, sock: socket.socket, now: float) -> None:
        self.sock = sock
        self.data = b""
        self.seen = now
        self.continued = False
        self.out = b""  # the unsent tail of a response
        self.closing = False  # close once ``out`` is sent


class HttpServer:
    """The engine behind one listening socket, served by one ``selectors`` loop.

    ``stopping`` ends :meth:`serve_forever` within one poll; every response
    sent once it is set carries ``Connection: close``.  Open connections
    are kept least recently heard from first, so the idle sweep and the
    choice of a connection to give up look only at the front.  Sockets are
    non-blocking: a response the client's buffers cannot take at once
    waits on its connection for ``EVENT_WRITE``, and until it has gone the
    loop neither reads from that connection nor answers its requests, so a
    client that stops reading stalls only itself.
    """

    def __init__(self, engine: OrchestrationEngine, host: str, port: int) -> None:
        self.engine = engine
        self.socket = socket.create_server((host, port))
        self.socket.setblocking(False)
        self.server_address: Tuple[str, int] = self.socket.getsockname()[:2]
        self.stopping = False
        self._connections: "OrderedDict[_Connection, None]" = OrderedDict()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ)
        self._idle = threading.Event()
        self._idle.set()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve until :meth:`shutdown`; an exception out of the engine propagates."""
        self._idle.clear()
        try:
            while not self.stopping:
                self._poll(poll_interval)
        finally:
            self._idle.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` from another thread and wait for it."""
        self.stopping = True
        self._idle.wait()

    def server_close(self) -> None:
        for conn in list(self._connections):
            self._close(conn)
        self._selector.close()
        self.socket.close()

    def _poll(self, timeout: float) -> Tuple[int, int]:
        """Accept, read and serve what is ready within ``timeout``.

        Returns ``(ready, answered)``: sockets that were ready, responses sent.
        """
        events = self._selector.select(timeout)
        now = time.monotonic()
        answered = 0
        for key, mask in events:
            if key.data is None:
                self._accept(now)
            elif mask & selectors.EVENT_WRITE:
                answered += self._write(key.data, now)
            else:
                answered += self._read(key.data, now)
        while self._connections:
            oldest = next(iter(self._connections))
            if now - oldest.seen <= IDLE_TIMEOUT_S:
                break
            self._close(oldest)
        return len(events), answered

    def _accept(self, now: float) -> None:
        try:
            sock, _ = self.socket.accept()
        except OSError as exc:
            if exc.errno in (errno.EMFILE, errno.ENFILE):
                # Out of descriptors: the listener stays readable, so give
                # up the longest-idle connection rather than spin on it.
                if self._connections:
                    self._close(next(iter(self._connections)))
                else:
                    time.sleep(0.05)
            return  # otherwise the client gave up while queued
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        conn = _Connection(sock, now)
        self._connections[conn] = None
        self._selector.register(sock, selectors.EVENT_READ, conn)

    def _close(self, conn: _Connection) -> None:
        if conn in self._connections:
            del self._connections[conn]
            self._selector.unregister(conn.sock)
            conn.sock.close()

    def _read(self, conn: _Connection, now: float) -> int:
        """Take what ``conn`` sent and answer every complete request in it."""
        try:
            chunk = conn.sock.recv(65536)
        except BlockingIOError:  # nothing to read after all
            return 0
        except OSError:  # reset by the client
            chunk = b""
        if not chunk:
            self._close(conn)
            return 0
        conn.seen = now
        self._connections.move_to_end(conn)
        conn.data = conn.data + chunk if conn.data else chunk
        return self._serve(conn)

    def _write(self, conn: _Connection, now: float) -> int:
        """Send more of ``conn``'s pending response; once it is all gone,
        read from ``conn`` again and answer the requests it already sent."""
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            return 0
        except OSError:
            self._close(conn)
            return 0
        conn.out = conn.out[sent:]
        conn.seen = now
        self._connections.move_to_end(conn)
        if conn.out:
            return 0
        if conn.closing:
            self._close(conn)
            return 0
        self._selector.modify(conn.sock, selectors.EVENT_READ, conn)
        return self._serve(conn)

    def _serve(self, conn: _Connection) -> int:
        """Answer the complete requests in ``conn``'s bytes, in order, until
        one leaves a response pending or closes the connection."""
        data = conn.data
        answered = 0
        while True:
            request = cut_request(data)
            if request is None:
                break
            if isinstance(request, Refusal):
                self._send(conn, _response(request.status, {"ok": False, "error": request.error},
                                           close=True), close=True)
                return answered + 1
            if request.body is None:
                if request.expect_continue and not conn.continued:
                    conn.continued = True
                    self._send(conn, b"HTTP/1.1 100 Continue\r\n\r\n")
                break
            data = data[request.end:]
            conn.continued = False
            close = request.close or self.stopping
            try:
                reply = self._answer(request, close)
            except BaseException:
                self._close(conn)  # unanswered: the engine's state is in doubt
                raise
            answered += 1
            if not self._send(conn, reply, close):
                break
        conn.data = data
        return answered

    def _send(self, conn: _Connection, payload: bytes, close: bool = False) -> bool:
        """Send ``payload`` with one ``send``; whatever the socket does not
        take waits for ``EVENT_WRITE``.  Returns whether ``conn`` can be
        answered again right away."""
        try:
            sent = conn.sock.send(payload)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._close(conn)
            return False
        if sent < len(payload):
            conn.out = payload[sent:]
            conn.closing = close
            self._selector.modify(conn.sock, selectors.EVENT_WRITE, conn)
            return False
        if close:
            self._close(conn)
            return False
        return True

    def _answer(self, request: Request, close: bool) -> bytes:
        """The response to one complete request.

        Only :meth:`OrchestrationEngine.handle` may raise here, and only
        when its state is in doubt (a checkpoint save failed after the
        request was applied): the server then stops rather than apply a
        re-sent copy.
        """
        op = _route(request.path)
        if op is None or (request.method == "GET" and op != "health"):
            return _response(404, {"ok": False, "error": f"no such endpoint: {request.path}"}, close)
        if request.method == "GET":
            return _response(200, self.engine.handle({"op": "health"}), close)
        try:
            body = json.loads(request.body or b"{}")
            if not isinstance(body, dict):
                raise ValueError("request body must be a JSON object")
        except (ValueError, RecursionError) as exc:
            return _response(400, {"ok": False, "op": op, "error": f"bad request body: {exc}"}, close)
        body["op"] = op
        response = self.engine.handle(body)
        if response.get("shed"):
            # Deterministic overload rejection: 503 plus the engine's hint
            # for when the oldest in-flight request frees a queue slot.
            retry_after = max(1, math.ceil(float(response.get("retry_after_s", 1.0))))
            return _response(503, response, close, f"Retry-After: {retry_after}\r\n")
        return _response(200 if response.get("ok") else 422, response, close)


def make_server(engine: OrchestrationEngine, host: str = "127.0.0.1",
                port: int = 0) -> HttpServer:
    """Bind an HTTP server on ``host:port`` (0 = ephemeral) for ``engine``."""
    return HttpServer(engine, host, port)


def drain_pending(server: HttpServer, budget_s: float = DRAIN_BUDGET_S) -> int:
    """Answer the requests already received once the loop has stopped.

    Stopping the loop must not drop a request that reached the server:
    one still in the accept backlog, or one sent on an open connection,
    would otherwise be offered but never counted, breaking the
    serve-conservation contract at the transport.  This keeps serving,
    each answer with ``Connection: close``, until a poll finds nothing
    ready and no response is still pending, or ``budget_s`` has passed.
    Returns the number of responses sent.
    """
    server.stopping = True
    deadline = time.monotonic() + budget_s
    answered = 0
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        ready, sent = server._poll(min(remaining, 0.05))
        answered += sent
        if not ready and not any(conn.out for conn in server._connections):
            break  # nothing left to answer or send
    return answered


def serve_until_signal(server: HttpServer, ready: Callable[[], None]) -> int:
    """Run the loop until SIGTERM/SIGINT; returns the signal number.

    ``ready`` runs once the stop handlers are installed, before the first
    poll, so a signal sent as soon as it has announced the server stops it
    gracefully.  Restores the previous handlers on exit so embedding
    callers (tests) keep their signal disposition.  Before the socket
    closes, the requests already received are answered
    (:func:`drain_pending`), so a graceful stop never drops an
    already-connected client.  An exception the engine
    raised while handling a request stops the server without draining, and
    is re-raised here.
    """
    got = {"signum": 0}

    def _stop(signum: int, frame: Any) -> None:
        got["signum"] = signum
        server.stopping = True

    previous = {
        sig: signal.signal(sig, _stop) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        ready()
        server.serve_forever(poll_interval=0.05)
        drain_pending(server)
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)
        server.server_close()
    return got["signum"]


def request_bytes(method: str, host: str, path: str, body: Optional[bytes] = None) -> bytes:
    """One whole client request, head and JSON body, ready for a single send."""
    if body is None:
        return f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("latin-1")
    return (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body


def read_response(sock: socket.socket) -> Tuple[int, bytes, bool]:
    """Read one response by its ``Content-Length``: ``(status, body, server closes)``.

    A connection that ends before the first byte raises
    ``ConnectionResetError``; any other broken response raises
    ``ConnectionError``, as does a head over :data:`MAX_HEAD_BYTES`.  The
    body is read in bounded pieces, so a bogus length costs no more memory
    than the bytes that actually arrive.
    """
    data = b""
    head_end = -1
    while head_end < 0:
        if len(data) >= MAX_HEAD_BYTES:
            raise ConnectionError(f"response head exceeds {MAX_HEAD_BYTES} bytes")
        chunk = sock.recv(65536)
        if not chunk:
            if data:
                raise ConnectionError("connection closed inside a response head")
            raise ConnectionResetError("connection closed before a response")
        data += chunk
        head_end = data.find(b"\r\n\r\n")
    status_line, *lines = data[:head_end].split(b"\r\n")
    version, _, rest = status_line.partition(b" ")
    fields = _fields(lines)
    size = None if fields is None else _length(fields.get(b"content-length", b""), sys.maxsize)
    if size is None or size > sys.maxsize or not (_VERSION.fullmatch(version) and rest[:3].isdigit()):
        raise ConnectionError(f"unsupported response head {data[:head_end][:200]!r}")
    data = data[head_end + 4:]
    while len(data) < size:
        chunk = sock.recv(min(size - len(data), 1 << 20))
        if not chunk:
            raise ConnectionError("connection closed inside a response body")
        data += chunk
    closes = version == b"HTTP/1.0" or _closes(fields) or len(data) > size
    return int(rest[:3]), data[:size], closes


__all__ = ["API_PREFIX", "DRAIN_BUDGET_S", "IDLE_TIMEOUT_S", "MAX_BODY_BYTES", "MAX_HEAD_BYTES",
           "HttpServer", "Refusal", "Request", "cut_request", "drain_pending", "make_server",
           "read_response", "request_bytes", "serve_until_signal"]

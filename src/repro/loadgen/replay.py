"""Replay a load spec against a serving target, open- or closed-loop.

The transport is pluggable so the *same* replay drives both the in-process
engine (experiments, golden case — zero copies, fast) and a real
``repro-serve`` subprocess over HTTP (integration tests, CI smoke).  The
report folds a canonical SHA-256 over every response, so "two replays saw
identical outcomes" is one string comparison — the client-side twin of the
server's placement-trace fingerprint.

Open loop sends every arrival at its scheduled sim time regardless of how
the service is keeping up (the saturation-knee probe).  Closed loop gates
each hive on its previous inference's ``done_t`` — a hive does not offer
its next request while the last one is in flight, the classic
think-time/feedback load model.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import socket
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Protocol, Tuple

from repro.loadgen.arrivals import Arrival, LoadSpec, arrival_to_request, hive_stream, merged_stream
from repro.serve.engine import OrchestrationEngine
from repro.serve.http import read_response, request_bytes
from repro.serve.trace import render_event
from repro.util.rng import derive_seed, make_rng

#: Structured failure classes a replay distinguishes in its report.
SHED = "shed"                            # deterministic 503 overload rejection
ENGINE_ERROR = "engine"                  # structured engine error (422 / ok=False)
CONNECTION_REFUSED = "connection-refused"  # nothing listening / reset
TIMEOUT = "timeout"                      # request exceeded the client budget
HTTP_ERROR = "http"                      # non-JSON HTTP failure (4xx/5xx)

ERROR_CLASSES = (SHED, ENGINE_ERROR, CONNECTION_REFUSED, TIMEOUT, HTTP_ERROR)


def classify_response(response: Dict[str, Any]) -> Optional[str]:
    """The failure class of one response dict (``None`` for a success).

    Shed responses are classified first (they carry ``ok=False`` *and*
    ``shed=True``); transport-synthesized failures tag themselves with
    ``error_class``; any other ``ok=False`` is a structured engine error.
    """
    if response.get("shed"):
        return SHED
    if response.get("ok"):
        return None
    return response.get("error_class") or ENGINE_ERROR


class Transport(Protocol):
    """Anything that can answer one request dict with a response dict."""

    def send(self, request: Dict[str, Any]) -> Dict[str, Any]: ...


class InProcessTransport:
    """Call the engine directly (no serialization, fully deterministic)."""

    def __init__(self, engine: OrchestrationEngine) -> None:
        self.engine = engine

    def send(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self.engine.handle(dict(request))


#: Default port per URL scheme :class:`HttpTransport` accepts.
_PORTS = {"http": 80, "https": 443}

#: What a reused connection raises when the server closed it while it sat idle.
_DROPPED_WHILE_IDLE = (ConnectionResetError, ConnectionAbortedError, BrokenPipeError)


class HttpTransport:
    """POST each request to a running ``repro-serve`` over HTTP/1.1.

    Every ``send`` and ``health`` call shares one ``TCP_NODELAY`` socket
    (wrapped with ``ssl`` for ``https://``), opened at the first call and
    reopened after it fails or the server closes it; ``close()`` (or
    leaving a ``with`` block) releases it.  Each request leaves in one
    send, and its response is read in full by ``Content-Length``
    (:func:`repro.serve.http.read_response`), so the connection is always
    ready for the next request.  A reused connection that the server
    closed while it sat idle is reopened once without using an attempt,
    because the server never read the request sent on it.

    Transport-level failures never raise: refused connections and timeouts
    are retried up to ``max_attempts`` with seeded-jitter exponential
    backoff (wall-clock; the *sim* clock is untouched), then surfaced as a
    synthetic ``ok=False`` response tagged with ``error_class`` so the
    replay report can bucket them.  HTTP errors that carry a JSON body
    (422 engine errors, 503 sheds) pass through as that body — the same
    dict the in-process transport would have returned.
    """

    def __init__(self, base_url: str, timeout_s: float = 10.0,
                 max_attempts: int = 3, backoff_s: float = 0.2,
                 seed: int = 0) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        url = urllib.parse.urlsplit(base_url)
        if url.scheme not in _PORTS:
            raise ValueError(f"unsupported URL scheme in {base_url!r}: use http:// or https://")
        if not url.hostname:
            raise ValueError(f"no host in URL {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self._rng = make_rng(derive_seed(seed, "loadgen", "transport"))
        self._prefix = url.path.rstrip("/")
        self._address = (url.hostname, url.port or _PORTS[url.scheme])
        self._host = url.netloc.rpartition("@")[2]
        self._tls = None
        if url.scheme == "https":
            import ssl

            self._tls = ssl.create_default_context()
        self._sock: Optional[socket.socket] = None

    def close(self) -> None:
        """Close the connection; the next call opens a new one."""
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "HttpTransport":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self._address, timeout=self.timeout_s)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        return sock

    def _round_trip(self, sock: socket.socket, message: bytes) -> Tuple[int, bytes]:
        sock.sendall(message)
        status, payload, closes = read_response(sock)
        if closes:
            self.close()
        return status, payload

    def _exchange(self, method: str, op: str,
                  body: Optional[bytes] = None) -> Tuple[int, bytes]:
        """One request and its whole response body, as ``(status, body)``.

        Any failure closes the connection before it propagates, so the
        next exchange starts on a new one.
        """
        message = request_bytes(method, self._host, f"{self._prefix}/v1/{op}", body)
        try:
            if self._sock is None:
                return self._round_trip(self._connect(), message)
            try:
                return self._round_trip(self._sock, message)
            except _DROPPED_WHILE_IDLE:
                self.close()
                return self._round_trip(self._connect(), message)
        except BaseException:
            self.close()
            raise

    def _backoff(self, attempt: int) -> None:
        jitter = 1.0 + 0.25 * float(self._rng.uniform(-1.0, 1.0))
        time.sleep(self.backoff_s * (2.0 ** attempt) * jitter)

    def send(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request["op"]
        body = json.dumps({k: v for k, v in request.items() if k != "op"}).encode("utf-8")
        failure: Dict[str, Any] = {}
        for attempt in range(self.max_attempts):
            try:
                status, payload = self._exchange("POST", op, body)
            except TimeoutError as exc:
                failure = {
                    "ok": False, "op": op,
                    "error": f"timeout after {self.timeout_s}s: {exc}",
                    "error_class": TIMEOUT,
                }
            except OSError as exc:
                failure = {
                    "ok": False, "op": op,
                    "error": f"connection failed: {exc}",
                    "error_class": CONNECTION_REFUSED,
                }
            else:
                # The server answered — never retry.  Engine-level failures
                # (422) and sheds (503) come back as the same JSON body the
                # in-process transport would return.
                try:
                    return json.loads(payload)
                except ValueError:
                    return {
                        "ok": False, "op": op,
                        "error": f"HTTP {status}: {payload[:200]!r}",
                        "error_class": HTTP_ERROR,
                    }
            if attempt + 1 < self.max_attempts:
                self._backoff(attempt)
        return failure

    def health(self) -> Dict[str, Any]:
        """``GET /v1/health``; raises ``OSError`` when it cannot be answered."""
        status, payload = self._exchange("GET", "health")
        if status != 200:
            raise OSError(f"{self.base_url}/v1/health answered HTTP {status}: {payload[:200]!r}")
        return json.loads(payload)


@dataclass
class ReplayReport:
    """Client-side outcome of one replay."""

    n_requests: int = 0
    n_errors: int = 0
    by_op: Dict[str, int] = field(default_factory=dict)
    by_class: Dict[str, int] = field(default_factory=dict)
    placements: Dict[str, int] = field(default_factory=dict)
    last_t: float = 0.0
    response_sha256: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_requests": self.n_requests,
            "n_errors": self.n_errors,
            "by_op": dict(sorted(self.by_op.items())),
            "by_class": dict(sorted(self.by_class.items())),
            "placements": dict(sorted(self.placements.items())),
            "last_t": self.last_t,
            "response_sha256": self.response_sha256,
        }

    def unexpected_classes(self, allowed: Iterable[str] = ()) -> Dict[str, int]:
        """Failure classes seen beyond the caller's allow-list."""
        allow = set(allowed)
        return {c: n for c, n in sorted(self.by_class.items()) if c not in allow}


def _fold(report: ReplayReport, digest: "hashlib._Hash",
          arrival: Arrival, issued_t: float, response: Dict[str, Any]) -> None:
    report.n_requests += 1
    report.by_op[arrival.op] = report.by_op.get(arrival.op, 0) + 1
    # the *issued* time, not the scheduled one: closed-loop gating pushes
    # arrivals back, and last_t must report the offered horizon the engine
    # actually saw (rps derived from a smaller horizon overstates load).
    report.last_t = max(report.last_t, issued_t)
    failure_class = classify_response(response)
    if failure_class is not None:
        report.n_errors += 1
        report.by_class[failure_class] = report.by_class.get(failure_class, 0) + 1
    where = response.get("placement")
    if where:
        report.placements[where] = report.placements.get(where, 0) + 1
    digest.update(render_event(response).encode("utf-8"))
    digest.update(b"\n")


def replay(spec: LoadSpec, transport: Transport, skip: int = 0) -> ReplayReport:
    """Send the spec's arrivals through ``transport``; returns the report.

    ``skip`` drops the first N arrivals of the (deterministic) open-loop
    stream before sending — the reconnect primitive: a resumed server's
    ``/v1/health`` reports how many requests it has already ``offered``,
    and a loadgen restarted with that skip continues the replay exactly
    where the checkpoint left it.  The report (and its response digest)
    covers only the tail actually sent.
    """
    if skip < 0:
        raise ValueError(f"skip must be >= 0, got {skip}")
    if skip and spec.mode != "open":
        raise ValueError("skip/reconnect is only supported for open-loop replay")
    report = ReplayReport()
    digest = hashlib.sha256()
    if spec.mode == "open":
        _replay_open(spec, transport, report, digest, skip)
    else:
        _replay_closed(spec, transport, report, digest)
    report.response_sha256 = digest.hexdigest()
    return report


def _replay_open(spec: LoadSpec, transport: Transport,
                 report: ReplayReport, digest: "hashlib._Hash",
                 skip: int = 0) -> None:
    for index, arrival in enumerate(merged_stream(spec)):
        if index < skip:
            continue
        _fold(report, digest, arrival, arrival.t,
              transport.send(arrival_to_request(arrival)))


def _replay_closed(spec: LoadSpec, transport: Transport,
                   report: ReplayReport, digest: "hashlib._Hash") -> None:
    """Per-hive feedback gating, still in one deterministic global order.

    Each hive's pending arrival is keyed by its *issue* time — the later of
    its scheduled time and the hive's previous completion (``done_t``).
    A heap over (issue_t, hive, seq) serializes the fleet; deferred
    arrivals re-enter the heap with their pushed-back issue time, keeping
    the engine's request clock monotonic.
    """
    streams = {h: iter(hive_stream(spec, h)) for h in range(spec.n_hives)}
    ready: Dict[int, float] = {h: 0.0 for h in streams}  # hive -> earliest issue
    heap = []
    for hive, stream in streams.items():
        first = next(stream, None)
        if first is not None:
            heapq.heappush(heap, (first.t, hive, first.seq, first))
    while heap:
        issue_t, hive, _seq, arrival = heapq.heappop(heap)
        gate = ready[hive]
        if issue_t < gate:
            heapq.heappush(heap, (gate, hive, arrival.seq, arrival))
            continue
        request = arrival_to_request(arrival)
        request["t"] = issue_t
        response = transport.send(request)
        _fold(report, digest, arrival, issue_t, response)
        done = response.get("done_t")
        if done is not None:
            ready[hive] = float(done)
        nxt = next(streams[hive], None)
        if nxt is not None:
            heapq.heappush(heap, (max(nxt.t, ready[hive]), hive, nxt.seq, nxt))


def replay_in_process(
    spec: LoadSpec, engine: Optional[OrchestrationEngine] = None
) -> tuple:
    """Convenience: replay against a fresh (or given) in-process engine.

    Returns ``(engine, report)`` so callers can inspect the server-side
    trace alongside the client-side report.
    """
    engine = engine or OrchestrationEngine()
    report = replay(spec, InProcessTransport(engine))
    return engine, report


def iter_requests(spec: LoadSpec) -> Iterable[Dict[str, Any]]:
    """The open-loop request dicts of a spec (for tooling and tests)."""
    return (arrival_to_request(a) for a in merged_stream(spec))


__all__ = [
    "SHED",
    "ENGINE_ERROR",
    "CONNECTION_REFUSED",
    "TIMEOUT",
    "HTTP_ERROR",
    "ERROR_CLASSES",
    "classify_response",
    "Transport",
    "InProcessTransport",
    "HttpTransport",
    "ReplayReport",
    "replay",
    "replay_in_process",
    "iter_requests",
]

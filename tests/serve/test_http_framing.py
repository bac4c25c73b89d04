"""Properties of the HTTP/1.1 framing in ``repro.serve.http``.

:func:`cut_request` works on a byte buffer with no socket, so hypothesis
drives it directly: a stream of well-formed requests, with at most one
malformed request mixed in and cut into arbitrary chunks, must yield the
same requests and refusal fed chunk by chunk as fed whole.  A slower
property sends such streams, cut and pipelined, to a real server.
"""

import json
import socket
import threading

from hypothesis import given, settings, strategies as st

from repro.serve.engine import OrchestrationEngine, ServeConfig
from repro.serve.http import MAX_BODY_BYTES, MAX_HEAD_BYTES, Refusal, Request, cut_request, make_server

#: One request of each refusal kind, with the status it must get.
MALFORMED = [
    (b"NONSENSE\r\n\r\n", 400),
    (b"POST /v1/admit HTTP/1.1\r\nHost x\r\n\r\n", 400),
    (b"POST /v1/admit HTTP/1.1\r\nContent-Length: 1x\r\n\r\n", 400),
    (b"POST /v1/admit HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1), 413),
    (b"POST /v1/admit HTTP/1.1\r\nContent-Length: %s\r\n\r\n" % (b"1" * 5000), 413),
    (b"GET /v1/health HTTP/1.1\r\nX-Pad: " + b"a" * MAX_HEAD_BYTES + b"\r\n\r\n", 431),
    (b"DELETE /v1/health HTTP/1.1\r\nHost: x\r\n\r\n", 501),
    (b"POST /v1/admit HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
    (b"GET /v1/health HTTP/2.0\r\nHost: x\r\n\r\n", 505),
]


def frame(method: str, path: str, body: bytes, version: str,
          connection, expect: bool) -> bytes:
    lines = [f"{method} {path} HTTP/{version}", "Host: x"]
    if connection:
        lines.append(f"Connection: {connection}")
    if expect:
        lines.append("Expect: 100-continue")
    if body or method == "POST":
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


@st.composite
def streams(draw, engine_requests: bool):
    """``(messages, expected)``: the request bytes of a stream, and for each
    message what the server must make of it — ``(method, path, body, close)``,
    or a refusal status.  With ``engine_requests``, bodies are engine JSON
    padded to 0–2 KiB; otherwise any bytes on any path."""
    messages, expected = [], []
    for index in range(draw(st.integers(0, 5))):
        version = draw(st.sampled_from(["1.1", "1.0"]))
        connection = draw(st.sampled_from([None, "keep-alive", "close", "Keep-Alive, Close"]))
        expect = draw(st.booleans())
        method = draw(st.sampled_from(["GET", "POST"]))
        if engine_requests:
            op = "health" if method == "GET" else draw(
                st.sampled_from(["admit", "inference", "telemetry", "release", "health"]))
            path = f"/v1/{op}"
            pad = draw(st.integers(0, 2048))
            if method == "GET":
                body = b"x" * pad
            else:
                request = {"hive": draw(st.integers(0, 3)), "t": float(index), "pad": "x" * pad}
                body = json.dumps(request).encode()
        else:
            path = draw(st.sampled_from(["/v1/health", "/v1/admit", "/", "/v1/admit?x=1"]))
            body = draw(st.binary(max_size=2048))
        messages.append(frame(method, path, body, version, connection, expect))
        close = version == "1.0" or "close" in (connection or "").lower()
        expected.append((method, path, body, close))
    if draw(st.booleans()):
        raw, status = draw(st.sampled_from(MALFORMED))
        at = draw(st.integers(0, len(messages)))
        messages.insert(at, raw)
        expected.insert(at, status)
    return messages, expected


def chunked(draw, data: bytes):
    cuts = sorted(draw(st.lists(st.integers(0, len(data)), max_size=12)))
    bounds = [0, *cuts, len(data)]
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


def parse_fed(chunks):
    """Everything :func:`cut_request` yields for a stream fed in ``chunks``."""
    out, data = [], b""
    for chunk in chunks:
        data += chunk
        while True:
            item = cut_request(data)
            if item is None or (isinstance(item, Request) and item.body is None):
                break
            out.append(item)
            if isinstance(item, Refusal):
                return out
            data = data[item.end:]
    return out


def described(items):
    return [item.status if isinstance(item, Refusal)
            else (item.method, item.path, item.body, item.close) for item in items]


def until_terminal(expected):
    """The messages the server answers: up to the first refusal or close."""
    for index, item in enumerate(expected):
        if isinstance(item, int) or item[3]:
            return expected[:index + 1]
    return expected


class TestCutRequest:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_chunked_and_whole_streams_yield_the_same_requests(self, data):
        messages, expected = data.draw(streams(engine_requests=False))
        stream = b"".join(messages)
        whole = parse_fed([stream])
        assert parse_fed(chunked(data.draw, stream)) == whole
        # exactly the requests, in order, up to and including the refusal
        refused = [i for i, item in enumerate(expected) if isinstance(item, int)]
        assert described(whole) == (expected[:refused[0] + 1] if refused else expected)


def split_responses(data: bytes):
    """``(status, JSON body, Connection: close)`` of each final response."""
    out = []
    while data:
        head, _, rest = data.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        status = int(status_line.split(" ")[1])
        if status == 100:
            data = rest
            continue
        headers = dict(line.lower().split(": ", 1) for line in lines)
        size = int(headers["content-length"])
        out.append((status, json.loads(rest[:size]), headers.get("connection") == "close"))
        data = rest[size:]
    return out


def exchange(address, chunks, closing: bool) -> bytes:
    """Send ``chunks`` on one connection; returns every byte read until the server closes."""
    reply = b""
    with socket.create_connection(address, timeout=5) as sock:
        try:
            for chunk in chunks:
                sock.sendall(chunk)
            if not closing:
                sock.shutdown(socket.SHUT_WR)  # the server closes once it has answered
        except (BrokenPipeError, ConnectionResetError):
            pass  # a refused head may be closed on before its last chunk is sent
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:
            pass
    return reply


class TestServerFraming:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_pipelined_streams_are_answered_in_order_then_closed(self, data):
        messages, expected = data.draw(streams(engine_requests=True))
        answered = until_terminal(expected)
        closing = bool(answered) and (isinstance(answered[-1], int) or answered[-1][3])
        sent = b"".join(messages[:len(answered)])
        server = make_server(OrchestrationEngine(ServeConfig()), "127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
        thread.start()
        try:
            reply = exchange(server.server_address, chunked(data.draw, sent), closing)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        reference = OrchestrationEngine(ServeConfig())
        wanted = []
        for item in answered:
            if isinstance(item, int):
                wanted.append(item)
                continue
            method, path, body, close = item
            request = {"op": "health"} if method == "GET" else {**json.loads(body), "op": path[4:]}
            wanted.append((reference.handle(request), close))
        got = split_responses(reply)
        assert len(got) == len(wanted)
        for (status, body, close), want in zip(got, wanted):
            if isinstance(want, int):
                assert (status, body["ok"], close) == (want, False, True)
            else:
                assert (body, close) == want
                assert status == (200 if body["ok"] else 422)
        assert server.engine.trace.fingerprint() == reference.trace.fingerprint()

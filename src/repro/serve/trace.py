"""Deterministic placement trace: the serve layer's golden-able artifact.

Every placement-relevant event the orchestration engine emits — admission,
release, repack, and each request's placement decision — is appended here
in arrival order.  The trace folds a running SHA-256 over a canonical
line rendering (``repr`` floats, so the hash is exact to the bit, same
discipline as the DES event-trace goldens), which makes "same seed, same
run" checkable across processes, transports (in-process vs HTTP), and
time (the committed ``tests/golden/serve-trace.json`` pin).

Each event is rendered once.  While a log is attached (see
:mod:`repro.serve.checkpoint`), the same bytes the hash reads are kept for
it, so a log of those lines hashes to the trace fingerprint, and
:func:`parse_event` turns a line back into the exact event it renders.
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import chain
from typing import Any, Dict, List, Optional

from repro.resilience.errors import CheckpointCorrupt

#: Bump on any change to the canonical event rendering.
TRACE_VERSION = 1

#: Every key an engine trace event carries; :func:`parse_event` refuses others.
EVENT_KEYS = frozenset({
    "bytes", "dropped", "energy", "hive", "latency", "op", "orphans", "outcome",
    "payloads", "placement", "position", "queue_depth", "readmitted", "reason",
    "retries", "retry_after", "retry_energy", "seq", "server", "server_energy",
    "shed_op", "slot", "t",
})

#: A word value, which the JSON form of a canonical line quotes.
_WORD = re.compile(rb"=([A-Za-z][A-Za-z0-9_-]*)")

#: Every byte a canonical line can hold: printable ASCII but the JSON
#: quote and escape, and the newline that ends it.
_LINE_BYTES = bytes(b for b in range(32, 127) if b not in b'"\\') + b"\n"


def render_event(event: Dict[str, Any]) -> str:
    """Canonical one-line rendering of one trace event.

    Floats go through ``repr`` (shortest round-trip form, stable across
    CPython versions we support); keys are sorted so dict construction
    order cannot leak into the hash.
    """
    parts = []
    for key in sorted(event):
        value = event[key]
        if isinstance(value, float):
            parts.append(f"{key}={value!r}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def _not_finite(constant: str) -> Any:
    raise ValueError(f"non-finite value {constant}")


def parse_lines(data: bytes) -> List[Dict[str, Any]]:
    """The events whose canonical lines, each ending in a newline, are ``data``.

    The inverse of :func:`render_event`: each value comes back as the type it
    was rendered from — an int, a finite float, or a word (a letter, then
    letters, digits, ``-`` or ``_``).  The lines are decoded as one JSON
    array, written by quoting the words and turning ``=`` into ``:``, each
    space into ``,`` and each newline into ``},{``; JSON reads ``repr``
    floats and ``str`` ints back exactly.  A non-ASCII byte, a missing
    ``=``, a doubled space, an unknown or repeated key, a non-finite number
    or a value that is none of the three raises
    :class:`~repro.resilience.errors.CheckpointCorrupt`.  A line that
    differs from a canonical one only in the order of its keys or the form
    of a number (``1.50``) is read as the event it means: a log is parsed
    only after it has matched its SHA-256.
    """
    if not data:
        return []
    if not data.endswith(b"\n") or data.translate(None, _LINE_BYTES):
        raise CheckpointCorrupt("trace log is not lines of printable ASCII")
    pieces = _WORD.split(data[:-1])
    pieces[1::2] = [b'="' + word + b'"' for word in pieces[1::2]]
    body = b"".join(pieces).replace(b"=", b'":').replace(b" ", b',"').replace(b"\n", b'},{"')
    try:
        events = json.loads(b'[{"' + body + b"}]", parse_constant=_not_finite)
    except ValueError as exc:  # json.JSONDecodeError is one
        raise CheckpointCorrupt(f"not canonical trace lines: {exc}") from None
    if (data.count(b"=") != sum(map(len, events))
            or not EVENT_KEYS.issuperset(chain.from_iterable(events))):
        raise CheckpointCorrupt("trace lines hold an unknown or repeated key")
    return events


def parse_event(line: str) -> Dict[str, Any]:
    """The event that :func:`render_event` renders as ``line`` (see :func:`parse_lines`)."""
    if not line.isascii() or "\n" in line:
        raise CheckpointCorrupt(f"not one ASCII line: {line[:120]!r}")
    return parse_lines(line.encode("ascii") + b"\n")[0]


class PlacementTrace:
    """Append-only event log with a streaming canonical hash.

    ``keep_events=False`` retains only the hash and counters (for sweep
    workloads that replay many runs, and for a server that writes no
    ``--trace-out``); ``keep_events=True`` keeps every event so the full
    log can be dumped on shutdown.
    """

    def __init__(self, keep_events: bool = True) -> None:
        self.keep_events = keep_events
        self.n_events = 0
        self._hash = hashlib.sha256()
        self._events: List[Dict[str, Any]] = []
        self._lines: Optional[List[bytes]] = None  # rendered, not yet taken by a log

    @classmethod
    def from_log(cls, data: bytes, sha256: str, keep_events: bool = True) -> "PlacementTrace":
        """The trace whose canonical lines are ``data``, continuing its hash exactly.

        ``data`` must hash to ``sha256``, the fingerprint recorded with it,
        before any line is parsed; otherwise
        :class:`~repro.resilience.errors.CheckpointCorrupt` is raised.
        """
        trace = cls(keep_events=keep_events)
        trace._hash.update(data)
        if trace.fingerprint() != sha256:
            raise CheckpointCorrupt("trace log does not hash to the checkpoint's SHA-256")
        trace.n_events = data.count(b"\n")
        if keep_events:
            trace._events = parse_lines(data)
        return trace

    def append(self, **event: Any) -> None:
        event["seq"] = self.n_events
        line = (render_event(event) + "\n").encode("ascii")
        self._hash.update(line)
        if self._lines is not None:
            self._lines.append(line)
        self.n_events += 1
        if self.keep_events:
            self._events.append(event)

    def attach_log(self) -> None:
        """Keep every line rendered from now on until :meth:`take_lines` takes it."""
        self._lines = []

    def detach_log(self) -> None:
        """Stop keeping rendered lines."""
        self._lines = None

    def take_lines(self) -> bytes:
        """The canonical lines rendered since the last call, as one block."""
        lines, self._lines = self._lines, []
        return b"".join(lines)

    @property
    def events(self) -> List[Dict[str, Any]]:
        if not self.keep_events:
            raise RuntimeError("trace was created with keep_events=False")
        return self._events

    def fingerprint(self) -> str:
        """Hex digest of the canonical event stream so far."""
        return self._hash.hexdigest()

    def to_dict(self, include_events: bool = False) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "trace_version": TRACE_VERSION,
            "n_events": self.n_events,
            "sha256": self.fingerprint(),
        }
        if include_events:
            payload["events"] = [dict(e) for e in self.events]
        return payload

    def dump(self, fh: Any) -> None:
        """Write the full trace (metadata + events) as stable JSON."""
        json.dump(self.to_dict(include_events=True), fh, indent=2, sort_keys=True)
        fh.write("\n")


def trace_summary(trace: Optional[PlacementTrace]) -> Dict[str, Any]:
    """Hash-and-count summary (``{}`` for an absent trace)."""
    return {} if trace is None else trace.to_dict(include_events=False)


__all__ = [
    "TRACE_VERSION",
    "EVENT_KEYS",
    "PlacementTrace",
    "parse_event",
    "parse_lines",
    "render_event",
    "trace_summary",
]

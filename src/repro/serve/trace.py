"""Deterministic placement trace: the serve layer's golden-able artifact.

Every placement-relevant event the orchestration engine emits — admission,
release, repack, and each request's placement decision — is appended here
in arrival order.  The trace folds a running SHA-256 over a canonical
line rendering (``repr`` floats, so the hash is exact to the bit, same
discipline as the DES event-trace goldens), which makes "same seed, same
run" checkable across processes, transports (in-process vs HTTP), and
time (the committed ``tests/golden/serve-trace.json`` pin).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

#: Bump on any change to the canonical event rendering.
TRACE_VERSION = 1


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


class PlacementTrace:
    """Append-only event log with a streaming canonical hash.

    ``keep_events=False`` retains only the hash and counters (for sweep
    workloads that replay many runs); the serving CLI keeps the events so
    ``--trace-out`` can flush the full log on shutdown.
    """

    def __init__(self, keep_events: bool = True) -> None:
        self.keep_events = keep_events
        self.n_events = 0
        self._hash = hashlib.sha256()
        self._events: List[Dict[str, Any]] = []

    @classmethod
    def from_events(
        cls, events: List[Dict[str, Any]], keep_events: bool = True
    ) -> "PlacementTrace":
        """The trace that recorded ``events`` (sequence numbers included),
        with its streaming hash re-derived so appends continue it exactly."""
        trace = cls(keep_events=keep_events)
        update = trace._hash.update
        for event in events:
            update((render_event(event) + "\n").encode("ascii"))
        trace.n_events = len(events)
        if keep_events:
            trace._events = list(events)
        return trace

    def append(self, **event: Any) -> None:
        event["seq"] = self.n_events
        self._hash.update(render_event(event).encode("ascii"))
        self._hash.update(b"\n")
        self.n_events += 1
        if self.keep_events:
            self._events.append(event)

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


__all__ = ["TRACE_VERSION", "PlacementTrace", "render_event", "trace_summary"]

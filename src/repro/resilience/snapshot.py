"""Versioned snapshots of an observability collector.

:func:`snapshot_obs` freezes the counters/gauges/histograms, phase ledger
and span buffer of an :class:`repro.obs.Obs` collector to a JSON-able
dict, and :func:`restore_obs` rebuilds a collector whose ledgers
*continue* from it instead of restarting from zero.  Every serve
checkpoint envelope carries this payload (:mod:`repro.serve.checkpoint`),
and :func:`check_snapshot` gates every restore on
:data:`SNAPSHOT_VERSION` and the ``kind`` tag.
"""

from __future__ import annotations

import math
from typing import Any, Dict

from repro.resilience.errors import SnapshotError

#: Bump on any structural change to the snapshot layout; restore refuses
#: (with both versions named) rather than guessing at stale layouts.
SNAPSHOT_VERSION = 1


def check_snapshot(snap: Dict[str, Any], kind: str) -> None:
    """Schema gate shared by every restore path."""
    if not isinstance(snap, dict):
        raise SnapshotError(f"snapshot must be a dict, got {type(snap).__name__}")
    version = snap.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version!r} is not supported by this code "
            f"(expects {SNAPSHOT_VERSION}); re-create the snapshot"
        )
    if snap.get("kind") != kind:
        raise SnapshotError(f"expected a {kind!r} snapshot, got {snap.get('kind')!r}")


def snapshot_obs(obs) -> Dict[str, Any]:
    """Freeze an :class:`repro.obs.Obs` collector for ledger continuity."""
    metrics = []
    for name in obs.metrics.names():
        inst = obs.metrics._instruments[name]
        rec = {"name": name, **inst.to_dict()}
        if rec["type"] == "histogram":
            rec["min"] = None if rec["min"] is None else float(rec["min"])
        metrics.append(rec)
    return {
        "version": SNAPSHOT_VERSION,
        "kind": "obs",
        "metrics": metrics,
        "ledger": {
            "energy": dict(obs.ledger._energy),
            "time": dict(obs.ledger._time),
            "expected_total": obs.ledger._expected_total,
        },
        "trace": {
            "dropped": obs.trace.dropped,
            "max_spans": obs.trace._max_spans,
            "spans": [s.to_dict() for s in obs.trace.spans],
        },
    }


def restore_obs(snap: Dict[str, Any]):
    """Rebuild a collector whose ledgers continue from the snapshot."""
    from repro.obs import Obs
    from repro.obs.trace import Span

    check_snapshot(snap, "obs")
    obs = Obs(max_spans=snap["trace"]["max_spans"])
    for rec in snap["metrics"]:
        name, mtype = rec["name"], rec["type"]
        if mtype == "counter":
            obs.metrics.counter(name).value = float(rec["value"])
        elif mtype == "gauge":
            if rec["value"] is not None:
                obs.metrics.gauge(name).set(rec["value"])
            else:
                obs.metrics.gauge(name)
        elif mtype == "histogram":
            h = obs.metrics.histogram(name)
            h.count = int(rec["count"])
            h.total = float(rec["total"])
            h.min = math.inf if rec["min"] is None else float(rec["min"])
            h.max = -math.inf if rec["max"] is None else float(rec["max"])
            h._buckets = {int(k): int(v) for k, v in rec["buckets"].items()}
        else:
            raise SnapshotError(f"unknown metric type {mtype!r} in obs snapshot")
    for phase, e in snap["ledger"]["energy"].items():
        obs.ledger.add(phase, e, snap["ledger"]["time"].get(phase, 0.0))
    if snap["ledger"]["expected_total"] is not None:
        obs.ledger.note_total(snap["ledger"]["expected_total"])
    obs.trace.dropped = int(snap["trace"]["dropped"])
    for s in snap["trace"]["spans"]:
        span = Span(
            name=s["name"],
            start=s["start"],
            end=s["end"],
            parent=s.get("parent"),
            attrs=dict(s.get("attrs", {})),
        )
        obs.trace._spans.append(span)
    return obs


__all__ = [
    "SNAPSHOT_VERSION",
    "check_snapshot",
    "snapshot_obs",
    "restore_obs",
]

"""Crash-recoverable serving: bounded checkpoints and exact resume.

The orchestration engine is quiescent between requests — all of its state
(live allocation layout, sim clock, busy map, streaming trace, obs ledger,
fault cursor, buffers, conservation counters) is a pure fold over the
request stream.  A serve checkpoint freezes that fold after request ``k``
as two files, so that a save costs the same after 50k requests as after 1k:

* ``<checkpoint>.log`` — the placement-trace events, one JSON line each,
  append-only.  Every event value is a plain ``int``/``float``/``str``, so
  a line decodes to the exact event that was hashed.
* ``<checkpoint>`` — the digest-protected envelope of
  :mod:`repro.resilience.checkpoint`, holding only O(live-state): admission
  order, clocks, busy map, counters, fault cursor, down set, obs, the
  in-flight completions still pending, and the log offset, event count and
  trace SHA-256 that state is consistent with.

Each :meth:`ServeCheckpointer.flush` appends the events added since the
previous flush and fsyncs the log *before* it atomically replaces the
envelope.  A crash between the two writes leaves log records past the
envelope's offset; :func:`resume_engine` decodes the log prefix in one
pass, re-derives the trace hash, the latency samples and the edge buffers
from it, refuses with :class:`~repro.resilience.errors.CheckpointCorrupt`
when the prefix is short or does not match the envelope's count and SHA,
and truncates the tail.  A SIGKILLed ``repro-serve`` therefore restarts
with ``--resume`` and a reconnecting load generator converges to the
identical :class:`~repro.serve.trace.PlacementTrace` fingerprint as an
uninterrupted run.

The live allocation is stored as its **admission order** (``client_ids``)
rather than its seat map: rank-derived placement makes the layout a pure
function of that order, and failure repacks only ever rotate orphans to
the tail of it — so re-admitting in order reproduces the exact layout,
post-repack included.  A serve checkpoint refuses to resume under a
different :class:`~repro.serve.engine.ServeConfig` (run-key binding) or
from another payload layout.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.obs import Obs
from repro.resilience.checkpoint import load_checkpoint, run_key, write_checkpoint
from repro.resilience.errors import CheckpointCorrupt, CheckpointSchemaMismatch
from repro.resilience.snapshot import restore_obs, snapshot_obs
from repro.serve.engine import OrchestrationEngine, ServeConfig
from repro.serve.trace import PlacementTrace
from repro.util.atomic import atomic_write

#: Envelope ``kind`` tag for serve checkpoints.
SERVE_CHECKPOINT_KIND = "serve"

#: Default checkpoint cadence (requests between snapshots).
DEFAULT_EVERY = 50

#: Layout of the serve payload inside the envelope.  1 (unversioned) held
#: every trace event and latency sample; 2 holds live state plus the
#: position in the trace log.
SERVE_LAYOUT = 2

_encode = json.JSONEncoder(separators=(",", ":")).encode


def log_path(path) -> Path:
    """The trace log that belongs to the checkpoint at ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".log")


def encode_events(events: List[Dict[str, Any]]) -> bytes:
    """Trace events as log records: one JSON line each."""
    return "".join([_encode(event) + "\n" for event in events]).encode("ascii")


def engine_run_key(config: ServeConfig) -> str:
    """Run identity a checkpoint is bound to: the full config header."""
    return run_key("serve", json.dumps(config.describe(), sort_keys=True))


def snapshot_engine(engine: OrchestrationEngine) -> Dict[str, Any]:
    """Freeze one quiescent engine's live state as a plain payload dict.

    The trace contributes only its event count and SHA-256; the events
    themselves live in the log.  The next request's time is at least the
    request clock, so in-flight completions at or before it can never be
    observed again (that request prunes them first): they are dropped from
    the engine before it is frozen.  For the same reason a busy-map entry
    at or before a non-negative clock acts exactly like the missing entry's
    0.0 default, and is left out.
    """
    last_t = engine._last_t
    if last_t is not None:
        engine._prune_inflight(last_t)
    floor = last_t if last_t is not None and last_t >= 0.0 else -math.inf
    return {
        "layout": SERVE_LAYOUT,
        "trace": {"n_events": engine.trace.n_events, "sha256": engine.trace.fingerprint()},
        "clients": engine.live.client_ids(),
        "last_t": last_t,
        "busy_until": sorted((h, v) for h, v in engine._busy_until.items() if v > floor),
        "inflight": engine._inflight_completions(),
        "counters": {
            "n_requests": engine.n_requests,
            "n_errors": engine.n_errors,
            "n_offered": engine.n_offered,
            "n_served": engine.n_served,
            "n_shed": engine.n_shed,
            "n_errored": engine.n_errored,
        },
        "fault_cursor": engine._fault_cursor,
        "down_servers": sorted(engine._down_servers),
        "obs": snapshot_obs(engine.obs),
    }


def _check_layout(payload: Dict[str, Any], path: Optional[str] = None) -> None:
    layout = payload.get("layout", 1)
    if layout != SERVE_LAYOUT:
        where = f" {path}" if path else ""
        raise CheckpointSchemaMismatch(
            f"serve checkpoint{where} has payload layout {layout!r}; this code "
            f"expects {SERVE_LAYOUT}. Restart the server without --resume "
            "(the old checkpoint is unusable).",
            path=path,
            found=layout if isinstance(layout, int) else None,
            expected=SERVE_LAYOUT,
        )


def _replay_history(engine: OrchestrationEngine, events: List[Dict[str, Any]]) -> None:
    """Re-derive the engine state that is history of the trace, not live state.

    Each latency sample is the ``latency`` of a telemetry or inference
    event.  Edge buffers are a fold over the dark-window telemetry they
    stored and the drains that emptied them, both logged as they happened.
    """
    latencies = engine._latencies
    for event in events:
        op = event["op"]
        if op == "drain":
            engine._buffers[event["hive"]].drain(event["t"], event["payloads"])
        elif "latency" in event:
            latencies[op].append(event["latency"])
        elif op == "telemetry":  # stored (or refused) by a dark hive's buffer
            engine._buffer_for(event["hive"]).offer(event["t"], event["bytes"])


def restore_engine(
    config: ServeConfig,
    payload: Dict[str, Any],
    events: List[Dict[str, Any]],
    keep_trace_events: bool = True,
) -> OrchestrationEngine:
    """Rebuild an engine that continues bit-identically from ``payload``.

    ``events`` is the trace the payload was frozen after (as logged);
    a count or SHA-256 that disagrees with the payload raises
    :class:`~repro.resilience.errors.CheckpointCorrupt`.
    """
    _check_layout(payload)
    expected = payload["trace"]
    if len(events) != expected["n_events"]:
        raise CheckpointCorrupt(
            f"trace log holds {len(events)} events, the checkpoint expects "
            f"{expected['n_events']}"
        )
    trace = PlacementTrace.from_events(events, keep_events=keep_trace_events)
    if trace.fingerprint() != expected["sha256"]:
        raise CheckpointCorrupt("trace log does not hash to the checkpoint's SHA-256")
    engine = OrchestrationEngine(config, obs=restore_obs(payload["obs"]))
    for client_id in payload["clients"]:
        engine.live.admit(client_id)
    engine.trace = trace
    _replay_history(engine, events)
    engine._last_t = payload["last_t"]
    engine._busy_until = {int(h): float(v) for h, v in payload["busy_until"]}
    for done in payload["inflight"]:
        engine._push_inflight(float(done))
    counters = payload["counters"]
    engine.n_requests = int(counters["n_requests"])
    engine.n_errors = int(counters["n_errors"])
    engine.n_offered = int(counters["n_offered"])
    engine.n_served = int(counters["n_served"])
    engine.n_shed = int(counters["n_shed"])
    engine.n_errored = int(counters["n_errored"])
    engine._fault_cursor = int(payload["fault_cursor"])
    engine._down_servers = set(int(s) for s in payload["down_servers"])
    return engine


def _read_log(path: Path, offset: int) -> List[Dict[str, Any]]:
    """Decode the first ``offset`` bytes of a trace log in one pass."""
    try:
        with open(path, "rb") as fh:
            data = fh.read(offset)
    except FileNotFoundError:
        data = b""
    if len(data) < offset:
        raise CheckpointCorrupt(
            f"trace log {path} holds {len(data)} bytes, the checkpoint needs {offset}",
            path=str(path),
        )
    if not data:
        return []
    if not data.endswith(b"\n"):
        raise CheckpointCorrupt(f"trace log {path} ends mid-record at {offset}", path=str(path))
    try:
        events = json.loads(b"[" + data[:-1].replace(b"\n", b",") + b"]")
    except ValueError as exc:
        raise CheckpointCorrupt(
            f"trace log {path} does not decode: {exc}", path=str(path)
        ) from exc
    if not all(type(event) is dict and "op" in event for event in events):
        raise CheckpointCorrupt(f"trace log {path} holds a non-event record", path=str(path))
    return events


def _resume(path, config: ServeConfig, keep_trace_events: bool):
    """(engine, log offset) for the checkpoint at ``path``; cuts the log to the offset."""
    payload = load_checkpoint(
        path, kind=SERVE_CHECKPOINT_KIND, expect_run_key=engine_run_key(config)
    )
    _check_layout(payload, str(path))
    log = log_path(path)
    offset = payload["log_offset"]
    engine = restore_engine(config, payload, _read_log(log, offset),
                            keep_trace_events=keep_trace_events)
    if log.exists() and log.stat().st_size > offset:
        os.truncate(log, offset)  # records a crash left past the envelope
    return engine, offset


def save_engine(path, engine: OrchestrationEngine) -> None:
    """Write one serve checkpoint: a fresh trace log, then the envelope."""
    ServeCheckpointer(path).flush(engine)


def resume_engine(
    path,
    config: ServeConfig,
    obs: Optional[Obs] = None,
    keep_trace_events: bool = True,
) -> OrchestrationEngine:
    """Load a serve checkpoint written under exactly this config.

    ``obs`` is accepted for signature symmetry with the engine constructor
    but must be ``None`` — the checkpoint carries its own obs continuity.
    """
    if obs is not None:
        raise ValueError("resume_engine restores obs from the checkpoint; pass obs=None")
    return _resume(path, config, keep_trace_events)[0]


class ServeCheckpointer:
    """Request-cadence checkpoint hook the CLI attaches to the engine.

    ``engine.handle`` calls :meth:`after_request` once per handled request;
    every ``every`` requests the live state is flushed.  The first flush of
    an engine starts a new trace log (atomic replace); later flushes append
    only the events added since the previous one.  :meth:`resume` instead
    continues the log of the checkpoint it resumes from.
    """

    def __init__(self, path, every: int = DEFAULT_EVERY) -> None:
        if every < 1:
            raise ValueError(f"checkpoint cadence must be >= 1, got {every}")
        self.path = Path(path)
        self.log_path = log_path(path)
        self.every = int(every)
        self.n_written = 0
        self._since = 0
        self._engine: Optional[OrchestrationEngine] = None  # whose events the log holds
        self._run_key = ""
        self._n_logged = 0
        self._offset = 0

    def _bind(self, engine: OrchestrationEngine, offset: int) -> None:
        self._engine = engine
        self._run_key = engine_run_key(engine.config)
        self._n_logged = engine.trace.n_events
        self._offset = offset

    def resume(self, config: ServeConfig) -> OrchestrationEngine:
        """Resume from this checkpoint and keep appending to its log."""
        engine, offset = _resume(self.path, config, keep_trace_events=True)
        self._bind(engine, offset)
        return engine

    def after_request(self, engine: OrchestrationEngine) -> None:
        self._since += 1
        if self._since >= self.every:
            self._since = 0
            self.flush(engine)

    def flush(self, engine: OrchestrationEngine) -> None:
        """Make the log durable up to ``engine``'s last event, then replace the envelope."""
        if engine is not self._engine:
            data = encode_events(engine.trace.events)
            atomic_write(self.log_path, data)
            self._bind(engine, len(data))
        elif engine.trace.n_events > self._n_logged:
            data = encode_events(engine.trace.events[self._n_logged:])
            try:
                with open(self.log_path, "ab") as fh:
                    fh.write(data)
                    fh.flush()
                    os.fsync(fh.fileno())
            except BaseException:
                self._engine = None  # the tail is unknown: the next flush starts a new log
                raise
            self._n_logged = engine.trace.n_events
            self._offset += len(data)
        write_checkpoint(
            self.path,
            {**snapshot_engine(engine), "log_offset": self._offset},
            kind=SERVE_CHECKPOINT_KIND,
            run_key=self._run_key,
        )
        self.n_written += 1


__all__ = [
    "SERVE_CHECKPOINT_KIND",
    "DEFAULT_EVERY",
    "SERVE_LAYOUT",
    "log_path",
    "encode_events",
    "engine_run_key",
    "snapshot_engine",
    "restore_engine",
    "save_engine",
    "resume_engine",
    "ServeCheckpointer",
]

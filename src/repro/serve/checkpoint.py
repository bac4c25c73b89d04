"""Crash-recoverable serving: bounded checkpoints and exact resume.

The orchestration engine is quiescent between requests — all of its state
(live allocation layout, sim clock, busy map, streaming trace, obs ledger,
fault cursor, buffers, conservation counters) is a pure fold over the
request stream.  A serve checkpoint freezes that fold after request ``k``
in three files, so that a save costs the same after 50k requests as after
1k and writes no file but in place:

* ``<checkpoint>.log`` — the placement trace's canonical lines
  (:func:`~repro.serve.trace.render_event` plus a newline), append-only.
  These are the very bytes the trace hash reads, so the SHA-256 of the
  log's first ``offset`` bytes is the trace fingerprint after the event
  that ends there.
* ``<checkpoint>`` and ``<checkpoint>.alt`` — two slots, each holding the
  digest-protected envelope of :mod:`repro.resilience.checkpoint` for one
  save: only O(live-state) — admission order, clocks, busy map, counters,
  fault cursor, down set, obs, the in-flight completions still pending —
  plus the log offset, event count and trace SHA-256 that state is
  consistent with, and the save's sequence number.  Save ``n`` goes to
  slot ``n % 2``, so the other slot holds save ``n - 1``.

Each :meth:`ServeCheckpointer.flush` appends the lines added since the
previous flush to the log it keeps open and fsyncs it, then writes the
envelope over the older slot and fsyncs that: two fsyncs, and once both
slots exist no temp file, rename or directory fsync.  A crash before the
log fsync leaves both slots pointing into the durable log; a crash before
the slot fsync can tear that slot, which then fails its digest, and
resume falls back to the other.  :func:`resume_engine` loads the newest
slot that passes its digest, hashes the log prefix in one SHA-256 call,
refuses with :class:`~repro.resilience.errors.CheckpointCorrupt` when the
prefix is short or does not match the slot's count and SHA, re-derives the
latency samples and edge buffers from the bytes, and truncates the records
a crash left past the offset.  A SIGKILLed ``repro-serve`` therefore
restarts with ``--resume`` and a reconnecting load generator converges to
the identical :class:`~repro.serve.trace.PlacementTrace` fingerprint as an
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
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.resilience.checkpoint import (
    check_envelope,
    decode_payload,
    encode_checkpoint,
    read_envelope,
    run_key,
    verify_digest,
)
from repro.resilience.errors import CheckpointCorrupt, CheckpointSchemaMismatch
from repro.resilience.snapshot import restore_obs, snapshot_obs
from repro.serve.engine import OrchestrationEngine, ServeConfig
from repro.serve.trace import PlacementTrace, parse_event, render_event
from repro.util.atomic import atomic_write

#: Envelope ``kind`` tag for serve checkpoints.
SERVE_CHECKPOINT_KIND = "serve"

#: Default checkpoint cadence (requests between snapshots).
DEFAULT_EVERY = 50

#: Layout of the serve payload inside the envelope.  1 (unversioned) held
#: every trace event and latency sample; 2 held live state plus the
#: position in a JSON-lines trace log; 3 the same over a log of canonical
#: lines, in two alternating slots.
SERVE_LAYOUT = 3

#: A latency sample in the log: a telemetry or inference event's
#: ``latency``, and its ``op``, which sorts after it.
_LATENCY = re.compile(rb" latency=([^ \n]+) (?:[^ \n]+ )*?op=([a-z]+)")

#: Events that fold into an edge buffer: drains, and telemetry a dark hive
#: stored or refused (the only telemetry with an ``outcome``).
_BUFFERED = re.compile(rb" op=(?:drain |telemetry (?:[^ \n]+ )*?outcome=)")


def log_path(path) -> Path:
    """The trace log that belongs to the checkpoint at ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".log")


def slot_paths(path) -> Tuple[Path, Path]:
    """The two envelope slots of the checkpoint at ``path``."""
    path = Path(path)
    return path, path.with_name(path.name + ".alt")


def encode_events(events: List[Dict[str, Any]]) -> bytes:
    """Trace events as log records: their canonical lines."""
    return "".join([render_event(event) + "\n" for event in events]).encode("ascii")


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


def _replay_history(engine: OrchestrationEngine, log: bytes) -> None:
    """Re-derive the engine state that is history of the trace, not live state.

    Each latency sample is the ``latency`` of a telemetry or inference
    event.  Edge buffers are a fold over the dark-window telemetry they
    stored and the drains that emptied them, both logged as they happened.
    Both are scanned from the canonical lines without decoding the rest.
    """
    appends = {op.encode("ascii"): samples.append for op, samples in engine._latencies.items()}
    for latency, op in _LATENCY.findall(log):
        appends[op](float(latency))
    for match in _BUFFERED.finditer(log):
        start = log.rfind(b"\n", 0, match.start()) + 1
        event = parse_event(log[start:log.index(b"\n", match.end())].decode("ascii"))
        if event["op"] == "drain":
            engine._buffers[event["hive"]].drain(event["t"], event["payloads"])
        else:
            engine._buffer_for(event["hive"]).offer(event["t"], event["bytes"])


def _restore(config: ServeConfig, payload: Dict[str, Any], log: bytes,
             keep_trace_events: bool) -> OrchestrationEngine:
    _check_layout(payload)
    expected = payload["trace"]
    trace = PlacementTrace.from_log(log, expected["sha256"], keep_events=keep_trace_events)
    if trace.n_events != expected["n_events"]:
        raise CheckpointCorrupt(
            f"trace log holds {trace.n_events} events, the checkpoint expects "
            f"{expected['n_events']}"
        )
    engine = OrchestrationEngine(config, obs=restore_obs(payload["obs"]),
                                 keep_trace_events=keep_trace_events)
    for client_id in payload["clients"]:
        engine.live.admit(client_id)
    engine.trace = trace
    _replay_history(engine, log)
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


def restore_engine(
    config: ServeConfig,
    payload: Dict[str, Any],
    events: List[Dict[str, Any]],
    keep_trace_events: bool = True,
) -> OrchestrationEngine:
    """Rebuild an engine that continues bit-identically from ``payload``.

    ``events`` is the trace the payload was frozen after; a count or
    SHA-256 that disagrees with the payload raises
    :class:`~repro.resilience.errors.CheckpointCorrupt`.
    """
    return _restore(config, payload, encode_events(events), keep_trace_events)


def _read_log(path: Path, offset: int) -> bytes:
    """The first ``offset`` bytes of a trace log."""
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
    return data


def _newest_slot(path, config: ServeConfig) -> Dict[str, Any]:
    """The payload of the newest slot at ``path`` that passes its digest.

    A slot that fails its digest — torn by a crash before its fsync — is
    skipped; the schema, kind, run-key and layout refusals apply to the
    newest one that passes.  ``FileNotFoundError`` when neither slot exists.
    """
    intact = []
    missing = 0
    for slot in slot_paths(path):
        try:
            envelope = read_envelope(slot)
            verify_digest(envelope, slot)
            payload = decode_payload(envelope, slot)
        except FileNotFoundError:
            missing += 1
            continue
        except CheckpointCorrupt:
            continue
        intact.append((payload.get("seq", -1), slot, envelope, payload))
    if missing == 2:
        raise FileNotFoundError(f"no serve checkpoint at {path}")
    if not intact:
        raise CheckpointCorrupt(f"both slots of serve checkpoint {path} are torn", path=str(path))
    _seq, slot, envelope, payload = max(intact, key=lambda entry: entry[0])
    check_envelope(envelope, slot, kind=SERVE_CHECKPOINT_KIND,
                   expect_run_key=engine_run_key(config))
    _check_layout(payload, str(slot))
    return payload


def _resume(path, config: ServeConfig, keep_trace_events: bool):
    """(engine, payload) for the checkpoint at ``path``; cuts the log to its offset."""
    payload = _newest_slot(path, config)
    log = log_path(path)
    offset = payload["log_offset"]
    engine = _restore(config, payload, _read_log(log, offset), keep_trace_events)
    if log.exists() and log.stat().st_size > offset:
        os.truncate(log, offset)  # records a crash left past the envelope
    return engine, payload


def save_engine(path, engine: OrchestrationEngine) -> None:
    """Write one serve checkpoint: a fresh trace log, then the envelope."""
    checkpointer = ServeCheckpointer(path)
    try:
        checkpointer.flush(engine)
    finally:
        checkpointer.close()


def resume_engine(
    path, config: ServeConfig, keep_trace_events: bool = True
) -> OrchestrationEngine:
    """Load a serve checkpoint written under exactly this config; the
    checkpoint carries its own obs continuity."""
    return _resume(path, config, keep_trace_events)[0]


class ServeCheckpointer:
    """Request-cadence checkpoint hook the CLI attaches to the engine.

    ``engine.handle`` calls :meth:`after_request` once per handled request;
    every ``every`` requests the live state is flushed.  The first flush of
    an engine deletes both slots and starts a new trace log (atomic
    replace), so no slot ever points into a log it was not written for;
    later flushes append only the lines rendered since the previous one.
    :meth:`resume` instead continues the log of the checkpoint it resumes
    from.  The checkpointer holds the log and both slots open between
    saves; :meth:`close` (or dropping it) releases them.
    """

    # What close() releases; set before __init__ can raise.
    _trace: Optional[PlacementTrace] = None  # whose lines the log holds
    _log: Optional[Any] = None
    _slots: Sequence[Optional[Any]] = (None, None)

    def __init__(self, path, every: int = DEFAULT_EVERY) -> None:
        if every < 1:
            raise ValueError(f"checkpoint cadence must be >= 1, got {every}")
        self.path = Path(path)
        self.log_path = log_path(path)
        self.slot_paths = slot_paths(path)
        self.every = int(every)
        self.n_written = 0
        self._since = 0
        self._run_key = ""
        self._offset = 0
        self._seq = 0  # sequence number of the next save
        self._slots = [None, None]

    def close(self) -> None:
        """Release the open log and slot files; the next flush starts a new log."""
        if self._trace is not None:
            self._trace.detach_log()
            self._trace = None
        for fh in (self._log, *self._slots):
            if fh is not None:
                fh.close()
        self._log = None
        self._slots = [None, None]

    def __del__(self) -> None:
        self.close()

    def _bind(self, engine: OrchestrationEngine, offset: int, seq: int) -> None:
        self._log = open(self.log_path, "ab")
        self._trace = engine.trace
        self._trace.attach_log()
        self._run_key = engine_run_key(engine.config)
        self._offset = offset
        self._seq = seq

    def _start(self, engine: OrchestrationEngine) -> None:
        """Begin a new log holding ``engine``'s trace so far."""
        self.close()
        trace = engine.trace
        if trace.n_events and not trace.keep_events:
            raise RuntimeError(
                "a trace that keeps no events must be checkpointed from its first event"
            )
        for slot in self.slot_paths:
            try:
                slot.unlink()
            except FileNotFoundError:
                pass
        data = encode_events(trace.events) if trace.n_events else b""
        # fsyncs the directory too, so the slots are gone before the new log is in
        atomic_write(self.log_path, data)
        self._bind(engine, len(data), 0)

    def resume(self, config: ServeConfig, keep_trace_events: bool = True) -> OrchestrationEngine:
        """Resume from this checkpoint and keep appending to its log."""
        self.close()
        engine, payload = _resume(self.path, config, keep_trace_events)
        self._bind(engine, payload["log_offset"], payload["seq"] + 1)
        return engine

    def after_request(self, engine: OrchestrationEngine) -> None:
        self._since += 1
        if self._since >= self.every:
            self._since = 0
            self.flush(engine)

    def _write_slot(self, data: bytes) -> None:
        index = self._seq % 2
        fh = self._slots[index]
        if fh is None:
            try:
                fh = open(self.slot_paths[index], "r+b")
            except FileNotFoundError:
                atomic_write(self.slot_paths[index], data)  # a new slot appears whole
                self._slots[index] = open(self.slot_paths[index], "r+b")
                return
            self._slots[index] = fh
        fh.seek(0)
        fh.write(data)
        fh.truncate()
        fh.flush()
        os.fsync(fh.fileno())

    def flush(self, engine: OrchestrationEngine) -> None:
        """Make the log durable up to ``engine``'s last event, then write the
        envelope over the older slot; both are on disk when this returns."""
        if engine.trace is not self._trace:
            self._start(engine)
        try:
            data = engine.trace.take_lines()
            if data:
                self._log.write(data)
                self._log.flush()
                os.fsync(self._log.fileno())
                self._offset += len(data)
            payload = {**snapshot_engine(engine), "log_offset": self._offset, "seq": self._seq}
            self._write_slot(encode_checkpoint(
                payload, kind=SERVE_CHECKPOINT_KIND, run_key=self._run_key,
            ))
        except BaseException:
            self.close()  # what reached the files is unknown: the next flush starts anew
            raise
        self._seq += 1
        self.n_written += 1


__all__ = [
    "SERVE_CHECKPOINT_KIND",
    "DEFAULT_EVERY",
    "SERVE_LAYOUT",
    "log_path",
    "slot_paths",
    "encode_events",
    "engine_run_key",
    "snapshot_engine",
    "restore_engine",
    "save_engine",
    "resume_engine",
    "ServeCheckpointer",
]

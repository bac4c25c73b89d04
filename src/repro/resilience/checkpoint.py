"""Crash-only checkpoint files and cadence policies.

A checkpoint is a single JSON *envelope* written atomically
(:mod:`repro.util.atomic`: tmp + fsync + rename) around a compressed,
digest-protected payload::

    {
      "schema":  2,                 # CHECKPOINT_SCHEMA — refused if stale
      "kind":    "run",             # what the payload is
      "run_key": "<sha256>",        # identity of the producing run
      "sha256":  "<hex>",           # digest of the payload field
      "payload": "<base64(zlib(pickle(state)))>"
    }

:func:`encode_checkpoint` renders those bytes, which the serve checkpointer
(:mod:`repro.serve.checkpoint`) instead writes in place, into the older of
two slots.  The envelope makes every failure mode a *structured* one:

* a crash mid-write never leaves a truncated file (atomic replace);
* a truncated/tampered file fails JSON parsing or the digest check and
  raises :class:`~repro.resilience.errors.CheckpointCorrupt`;
* a checkpoint from an older code generation raises
  :class:`~repro.resilience.errors.CheckpointSchemaMismatch` naming both
  versions instead of being misinterpreted;
* a checkpoint from a *different run* (other experiment or parameters)
  raises :class:`~repro.resilience.errors.CheckpointMismatch`.

:class:`Checkpointer` decides *when* to persist — every N completed work
units — and :class:`RunCheckpoint` layers a multi-stage store on top (one
section per pipeline stage, chunk results keyed by index), which is what
the experiment runners and the supervised parallel map share.
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
import zlib
from typing import Any, Callable, Dict, Optional

from repro.resilience.errors import (
    CheckpointCorrupt,
    CheckpointMismatch,
    CheckpointSchemaMismatch,
    InterruptedRun,
)
from repro.util.atomic import atomic_write

#: Bump on any structural change to the envelope or payload layout.
#: 2 — supervised chunk entries carry their (lo, hi) item bounds so resume
#:     can refuse a same-index chunk recorded under a different chunking.
CHECKPOINT_SCHEMA = 2

_REQUIRED_KEYS = ("schema", "kind", "sha256", "payload")


def run_key(*parts: Any) -> str:
    """Stable identity hash of a run: experiment id + canonical parameters.

    Length-prefixed like :func:`repro.util.rng.derive_seed`, so component
    structure is part of the key and no separator collisions exist.
    """
    h = hashlib.sha256()
    for part in parts:
        data = repr(part).encode()
        h.update(len(data).to_bytes(4, "little"))
        h.update(data)
    return h.hexdigest()


def encode_checkpoint(payload: Any, *, kind: str, run_key: Optional[str] = None) -> bytes:
    """The digest-protected envelope of ``payload``: the bytes a checkpoint file holds."""
    blob = base64.b64encode(zlib.compress(pickle.dumps(payload, protocol=4))).decode("ascii")
    envelope = {
        "schema": CHECKPOINT_SCHEMA,
        "kind": kind,
        "run_key": run_key,
        "sha256": hashlib.sha256(blob.encode("ascii")).hexdigest(),
        "payload": blob,
    }
    return (json.dumps(envelope, indent=2) + "\n").encode("utf-8")


def write_checkpoint(
    path, payload: Any, *, kind: str, run_key: Optional[str] = None
) -> None:
    """Atomically persist ``payload`` under the digest-protected envelope."""
    atomic_write(path, encode_checkpoint(payload, kind=kind, run_key=run_key))


def read_envelope(path) -> Dict[str, Any]:
    """The envelope a checkpoint file holds, with every field present.

    Raises :class:`~repro.resilience.errors.CheckpointCorrupt` for a file
    that is not one (a truncated write or a foreign file).
    """
    path_s = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointCorrupt(
            f"checkpoint {path_s} is not valid JSON (truncated write or foreign file): {exc}",
            path=path_s,
        ) from exc
    if not isinstance(envelope, dict) or any(k not in envelope for k in _REQUIRED_KEYS):
        raise CheckpointCorrupt(
            f"checkpoint {path_s} is missing envelope fields", path=path_s
        )
    return envelope


def verify_digest(envelope: Dict[str, Any], path) -> None:
    """Raise :class:`~repro.resilience.errors.CheckpointCorrupt` unless the
    payload matches the envelope's digest."""
    if hashlib.sha256(str(envelope["payload"]).encode("ascii")).hexdigest() != envelope["sha256"]:
        raise CheckpointCorrupt(
            f"checkpoint {path} fails its payload digest (corrupt or tampered)",
            path=str(path),
        )


def check_envelope(
    envelope: Dict[str, Any], path, *, kind: Optional[str] = None,
    expect_run_key: Optional[str] = None,
) -> None:
    """The refusals every load applies: schema, digest, kind and run key."""
    path_s = str(path)
    schema = envelope["schema"]
    if schema != CHECKPOINT_SCHEMA:
        raise CheckpointSchemaMismatch(
            f"checkpoint {path_s} was written with schema {schema!r}; this code "
            f"expects {CHECKPOINT_SCHEMA}. Resuming across schema generations is "
            "refused — restart the run fresh (the old checkpoint is unusable).",
            path=path_s,
            found=schema if isinstance(schema, int) else None,
            expected=CHECKPOINT_SCHEMA,
        )
    verify_digest(envelope, path_s)
    if kind is not None and envelope["kind"] != kind:
        raise CheckpointMismatch(
            f"checkpoint {path_s} holds a {envelope['kind']!r} payload, expected {kind!r}",
            path=path_s,
        )
    if expect_run_key is not None and envelope.get("run_key") != expect_run_key:
        raise CheckpointMismatch(
            f"checkpoint {path_s} belongs to a different run "
            f"(run_key {envelope.get('run_key')!r} != expected {expect_run_key!r}); "
            "refusing to splice incompatible state — pick a different --checkpoint "
            "path or drop --resume",
            path=path_s,
        )


def decode_payload(envelope: Dict[str, Any], path) -> Any:
    """The payload an envelope carries."""
    try:
        return pickle.loads(zlib.decompress(base64.b64decode(envelope["payload"])))
    except Exception as exc:  # zlib.error, pickle errors, binascii.Error
        raise CheckpointCorrupt(
            f"checkpoint {path} payload does not decode: {exc}", path=str(path)
        ) from exc


def load_checkpoint(
    path, *, kind: Optional[str] = None, expect_run_key: Optional[str] = None
) -> Any:
    """Load and verify a checkpoint; every failure is a structured error."""
    envelope = read_envelope(path)
    check_envelope(envelope, path, kind=kind, expect_run_key=expect_run_key)
    return decode_payload(envelope, path)


# ---------------------------------------------------------------------------
# cadence
# ---------------------------------------------------------------------------


class Checkpointer:
    """Cadence-driven checkpoint writer with a deterministic chaos hook.

    ``every_units=N`` persists after every N completed work units; the
    default of 1 persists after every unit — maximally durable, and still
    cheap because units are whole simulation chunks (see the overhead
    budget in ``docs/PERFORMANCE.md``).

    ``abort_after_saves=N`` raises
    :class:`~repro.resilience.errors.InterruptedRun` immediately after the
    N-th durable save — a *deterministic* simulated crash landing exactly
    on a checkpoint boundary, which is what the chaos suite and the
    ``checkpoint-resume`` golden case use to prove resume == fresh.
    """

    def __init__(
        self,
        path,
        kind: str = "run",
        run_key: Optional[str] = None,
        every_units: int = 1,
        abort_after_saves: Optional[int] = None,
    ) -> None:
        if every_units < 1:
            raise ValueError("every_units must be >= 1")
        self.path = str(path)
        self.kind = kind
        self.run_key = run_key
        self.every_units = every_units
        self.abort_after_saves = abort_after_saves
        self.saves = 0
        self._units_since_save = 0

    def record_units(self, n: int = 1) -> None:
        """Count ``n`` completed work units toward the cadence."""
        self._units_since_save += n

    @property
    def due(self) -> bool:
        return self._units_since_save >= self.every_units

    def save(self, payload: Any) -> None:
        """Unconditionally persist ``payload`` (atomic, digest-protected)."""
        write_checkpoint(self.path, payload, kind=self.kind, run_key=self.run_key)
        self.saves += 1
        self._units_since_save = 0
        if self.abort_after_saves is not None and self.saves >= self.abort_after_saves:
            raise InterruptedRun(
                f"chaos hook: simulated crash after {self.saves} checkpoint save(s)",
                checkpoint_path=self.path,
            )

    def maybe_save(self, payload_fn: Callable[[], Any]) -> bool:
        """Persist if the cadence says so; returns whether a save happened."""
        if not self.due:
            return False
        self.save(payload_fn())
        return True


# ---------------------------------------------------------------------------
# multi-stage run checkpoints
# ---------------------------------------------------------------------------


class RunCheckpoint:
    """Durable multi-stage store for one run (e.g. one experiment).

    The payload maps stage names to ``{chunk_index: chunk_results}``
    sections.  Chunk results are pure functions of their items, so a
    resumed run that reuses them is bit-identical to an uninterrupted one.
    """

    def __init__(
        self,
        path,
        run_key: str,
        every_units: int = 1,
        resume: bool = False,
        abort_after_saves: Optional[int] = None,
    ) -> None:
        self._ckpt = Checkpointer(
            path, kind="run", run_key=run_key,
            every_units=every_units, abort_after_saves=abort_after_saves,
        )
        self._stages: Dict[str, Dict[int, Any]] = {}
        self.resumed = False
        if resume:
            try:
                payload = load_checkpoint(path, kind="run", expect_run_key=run_key)
            except FileNotFoundError:
                payload = None
            if payload is not None:
                self._stages = {
                    stage: {int(k): v for k, v in chunks.items()}
                    for stage, chunks in payload.get("stages", {}).items()
                }
                self.resumed = True

    @property
    def path(self) -> str:
        return self._ckpt.path

    @property
    def saves(self) -> int:
        return self._ckpt.saves

    def completed(self, stage: str) -> Dict[int, Any]:
        """Chunk results already durable for ``stage`` (resume skip-set)."""
        return dict(self._stages.get(stage, {}))

    def _payload(self) -> Dict[str, Any]:
        return {
            "stages": {
                stage: {str(k): v for k, v in chunks.items()}
                for stage, chunks in self._stages.items()
            },
        }

    def record(self, stage: str, chunk_index: int, results: Any, units: int = 1) -> None:
        """Store one completed chunk and persist if the cadence is due."""
        self._stages.setdefault(stage, {})[int(chunk_index)] = results
        self._ckpt.record_units(units)
        self._ckpt.maybe_save(self._payload)

    def flush(self) -> None:
        """Persist unconditionally (used on interrupts and stage boundaries)."""
        self._ckpt.save(self._payload())

    def stage(self, name: str) -> "StageCheckpoint":
        """A view bound to one stage, as consumed by ``supervised_map``."""
        return StageCheckpoint(self, name)


class StageCheckpoint:
    """One stage's slice of a :class:`RunCheckpoint` (supervisor-facing)."""

    def __init__(self, run: RunCheckpoint, stage: str) -> None:
        self._run = run
        self.stage = stage

    @property
    def path(self) -> str:
        return self._run.path

    def completed(self) -> Dict[int, Any]:
        return self._run.completed(self.stage)

    def record(self, chunk_index: int, results: Any, units: int = 1) -> None:
        self._run.record(self.stage, chunk_index, results, units=units)

    def flush(self) -> None:
        self._run.flush()


__all__ = [
    "CHECKPOINT_SCHEMA",
    "run_key",
    "encode_checkpoint",
    "write_checkpoint",
    "read_envelope",
    "verify_digest",
    "check_envelope",
    "decode_payload",
    "load_checkpoint",
    "Checkpointer",
    "RunCheckpoint",
    "StageCheckpoint",
]

"""Structured failure taxonomy for crash-safe execution.

Every resilience failure mode maps to one exception type so callers (the
CLI, the chaos harness, CI) can branch on *what* went wrong instead of
parsing messages:

``CheckpointCorrupt``
    The checkpoint file is truncated or its payload digest does not match
    — the run that wrote it died mid-write *outside* the atomic protocol
    (e.g. the file was tampered with), or the storage lost bytes.  The
    file is unusable; the run must restart fresh.
``CheckpointSchemaMismatch``
    The checkpoint was written by an incompatible schema version; it is
    refused with a message naming both versions rather than silently
    misinterpreted.
``CheckpointMismatch``
    The checkpoint is internally valid but belongs to a *different run*
    (other experiment, other parameters); resuming from it would splice
    incompatible state.
``InterruptedRun``
    The run was interrupted (Ctrl-C) after a clean shutdown; carries the
    path of the last durable checkpoint so the caller can print an exact
    resume command.
``SupervisionError``
    A supervised parallel chunk exhausted its retry budget; carries the
    per-chunk attempt ledger instead of hanging or dying with a bare
    ``BrokenProcessPool``.
``SnapshotError``
    An observability snapshot cannot be restored: it was written under
    another snapshot version, or it is not an ``obs`` snapshot.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional


class ResilienceError(RuntimeError):
    """Base class for all crash-safe-execution failures."""


class SnapshotError(ResilienceError):
    """An obs snapshot is of another version or kind than restore expects."""


class CheckpointError(ResilienceError):
    """Base class for checkpoint-file problems; carries the offending path."""

    def __init__(self, message: str, path: Optional[str] = None) -> None:
        super().__init__(message)
        self.path = path


class CheckpointCorrupt(CheckpointError):
    """Checkpoint file is truncated, unparseable, or fails its digest."""


class CheckpointSchemaMismatch(CheckpointError):
    """Checkpoint was written by an incompatible schema version."""

    def __init__(
        self,
        message: str,
        path: Optional[str] = None,
        found: Optional[int] = None,
        expected: Optional[int] = None,
    ) -> None:
        super().__init__(message, path)
        self.found = found
        self.expected = expected


class CheckpointMismatch(CheckpointError):
    """Checkpoint belongs to a different run (experiment or parameters)."""


class InterruptedRun(ResilienceError):
    """A run was interrupted after clean shutdown.

    ``checkpoint_path`` is the last durable checkpoint (``None`` when the
    run was not checkpointing), ``completed``/``total`` count finished work
    units at the moment of interruption.
    """

    def __init__(
        self,
        message: str = "run interrupted",
        checkpoint_path: Optional[str] = None,
        completed: int = 0,
        total: int = 0,
    ) -> None:
        super().__init__(message)
        self.checkpoint_path = checkpoint_path
        self.completed = completed
        self.total = total

    def resume_hint(self) -> str:
        """One-line human hint on how to pick the run back up."""
        if self.checkpoint_path is None:
            return "no checkpoint was active; the run must restart from scratch"
        return (
            f"{self.completed}/{self.total} work units are durable in "
            f"{self.checkpoint_path}; re-run with --resume to continue"
        )


class SupervisionError(ResilienceError):
    """A supervised parallel run failed structurally after bounded retries.

    ``failures`` is a list of per-chunk records ``{chunk, attempts, error,
    kind}`` where ``kind`` is ``"crash"`` (worker died), ``"deadline"``
    (worker exceeded its chunk deadline) or ``"exception"`` (the work
    function itself raised).
    """

    def __init__(self, message: str, failures: Optional[List[Dict[str, Any]]] = None) -> None:
        super().__init__(message)
        self.failures = failures or []

    def describe(self) -> str:
        lines = [str(self)]
        for f in self.failures:
            lines.append(
                f"  chunk {f.get('chunk')}: {f.get('kind')} after "
                f"{f.get('attempts')} attempt(s): {f.get('error')}"
            )
        return "\n".join(lines)


__all__ = [
    "ResilienceError",
    "SnapshotError",
    "CheckpointError",
    "CheckpointCorrupt",
    "CheckpointSchemaMismatch",
    "CheckpointMismatch",
    "InterruptedRun",
    "SupervisionError",
]

"""Snapshot/restore round-trip guarantees (repro.resilience.snapshot)."""

from __future__ import annotations

import json

import pytest

from repro.resilience.errors import SnapshotError
from repro.resilience.snapshot import SNAPSHOT_VERSION, restore_obs, snapshot_obs


class TestObsRoundTrip:
    def _populated_obs(self):
        from repro.obs import Obs

        obs = Obs()
        obs.metrics.counter("cycles").inc(7)
        obs.metrics.gauge("clients").set(42)
        h = obs.metrics.histogram("latency")
        for v in (0.1, 0.5, 2.0, 8.0):
            h.record(v)
        obs.ledger.add("transfer", 12.5, 3.0)
        obs.ledger.add("idle", 1.25, 60.0)
        obs.ledger.note_total(100.0)
        with obs.trace.span("cycle", 0):
            with obs.trace.span("upload", 0):
                pass
        return obs

    def test_snapshot_equality_after_restore(self):
        obs = self._populated_obs()
        restored = restore_obs(json.loads(json.dumps(snapshot_obs(obs))))
        assert restored.snapshot() == obs.snapshot()

    def test_ledger_continues_not_restarts(self):
        obs = self._populated_obs()
        restored = restore_obs(snapshot_obs(obs))
        restored.ledger.add("transfer", 1.0, 1.0)
        assert restored.ledger._energy["transfer"] == pytest.approx(13.5)

    def test_stale_version_refused(self):
        snap = snapshot_obs(self._populated_obs())
        snap["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(SnapshotError, match="version"):
            restore_obs(snap)

    def test_kind_mismatch_refused(self):
        snap = snapshot_obs(self._populated_obs())
        snap["kind"] = "engine"
        with pytest.raises(SnapshotError, match="expected a 'obs' snapshot, got 'engine'"):
            restore_obs(snap)

"""Checkpoint envelope, save cadence and multi-stage store tests."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.resilience.checkpoint import (
    CHECKPOINT_SCHEMA,
    Checkpointer,
    RunCheckpoint,
    load_checkpoint,
    run_key,
    write_checkpoint,
)
from repro.resilience.errors import (
    CheckpointCorrupt,
    CheckpointMismatch,
    CheckpointSchemaMismatch,
    InterruptedRun,
)


class TestEnvelope:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ck.json"
        payload = {"stages": {"s": {"0": [1, 2]}}, "extra": {"rng": [3, 4]}}
        write_checkpoint(path, payload, kind="run", run_key="abc")
        assert load_checkpoint(path, kind="run", expect_run_key="abc") == payload

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "absent.json")

    @settings(max_examples=30, deadline=None)
    @given(frac=st.floats(min_value=0.0, max_value=1.0))
    def test_any_truncation_is_payload_or_corrupt(self, frac, tmp_path_factory):
        """The crash-only contract: an arbitrary prefix of a checkpoint file
        either loads the complete payload (whitespace-only cuts) or raises
        CheckpointCorrupt — it never yields partial or wrong data."""
        tmp_path = tmp_path_factory.mktemp("trunc")
        path = tmp_path / "ck.json"
        write_checkpoint(path, {"k": list(range(50))}, kind="run")
        data = path.read_bytes()
        cut = int(frac * len(data))
        cut_file = tmp_path / "cut.json"
        cut_file.write_bytes(data[:cut])
        try:
            loaded = load_checkpoint(cut_file)
        except CheckpointCorrupt:
            pass
        else:
            assert loaded == {"k": list(range(50))}
            assert cut >= len(data) - 1  # only the trailing newline was lost

    def test_tampered_payload_fails_digest(self, tmp_path):
        path = tmp_path / "ck.json"
        write_checkpoint(path, {"x": 1}, kind="run")
        envelope = json.loads(path.read_text())
        blob = envelope["payload"]
        envelope["payload"] = blob[:-4] + ("AAAA" if blob[-4:] != "AAAA" else "BBBB")
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointCorrupt, match="digest"):
            load_checkpoint(path)

    def test_missing_envelope_field_is_corrupt(self, tmp_path):
        path = tmp_path / "ck.json"
        write_checkpoint(path, {"x": 1}, kind="run")
        envelope = json.loads(path.read_text())
        del envelope["sha256"]
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointCorrupt, match="envelope"):
            load_checkpoint(path)

    def test_stale_schema_refused_naming_both_versions(self, tmp_path):
        path = tmp_path / "ck.json"
        write_checkpoint(path, {"x": 1}, kind="run")
        envelope = json.loads(path.read_text())
        envelope["schema"] = CHECKPOINT_SCHEMA + 7
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointSchemaMismatch) as exc_info:
            load_checkpoint(path)
        assert exc_info.value.found == CHECKPOINT_SCHEMA + 7
        assert exc_info.value.expected == CHECKPOINT_SCHEMA

    def test_wrong_kind_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        write_checkpoint(path, {"x": 1}, kind="engine")
        with pytest.raises(CheckpointMismatch):
            load_checkpoint(path, kind="run")

    def test_wrong_run_key_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        write_checkpoint(path, {"x": 1}, kind="run", run_key=run_key("a", 1))
        with pytest.raises(CheckpointMismatch, match="different run"):
            load_checkpoint(path, kind="run", expect_run_key=run_key("a", 2))


class TestRunKey:
    def test_deterministic(self):
        assert run_key("fig7", 0) == run_key("fig7", 0)

    def test_parts_matter(self):
        assert run_key("fig7", 0) != run_key("fig7", 1)
        assert run_key("fig7", 0) != run_key("ext-faults", 0)

    def test_structure_is_part_of_the_key(self):
        # Length-prefixed hashing: shifting content between parts must not
        # collide (the derive_seed lesson, applied to run identity).
        assert run_key("ab", "c") != run_key("a", "bc")


class TestPolicy:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpointer(tmp_path / "ck.json", every_units=0)
        with pytest.raises(ValueError):
            RunCheckpoint(tmp_path / "run.json", run_key="k", every_units=0)

    def test_units_cadence(self, tmp_path):
        ck = Checkpointer(tmp_path / "ck.json", every_units=3)
        saves = []
        for _ in range(7):
            ck.record_units(1)
            ck.maybe_save(lambda: saves.append(1) or {"n": len(saves)})
        assert ck.saves == 2  # after units 3 and 6

    def test_abort_after_saves_raises_interrupted(self, tmp_path):
        ck = Checkpointer(tmp_path / "ck.json", abort_after_saves=2)
        ck.save({"n": 1})
        with pytest.raises(InterruptedRun) as exc_info:
            ck.save({"n": 2})
        assert exc_info.value.checkpoint_path == str(tmp_path / "ck.json")
        # The save COMPLETED before the simulated crash: the file is loadable
        # and holds the latest payload (crash lands on the checkpoint boundary).
        assert load_checkpoint(tmp_path / "ck.json") == {"n": 2}


class TestRunCheckpoint:
    def test_resume_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        rc = RunCheckpoint(path, run_key="k")
        rc.record("stage-a", 0, [1, 2], units=2)
        rc.record("stage-a", 1, [3], units=1)
        rc.record("stage-b", 0, ["x"], units=1)
        rc.flush()

        rc2 = RunCheckpoint(path, run_key="k", resume=True)
        assert rc2.resumed
        assert rc2.completed("stage-a") == {0: [1, 2], 1: [3]}
        assert rc2.completed("stage-b") == {0: ["x"]}
        assert rc2.completed("stage-c") == {}

    def test_fresh_when_file_absent(self, tmp_path):
        rc = RunCheckpoint(tmp_path / "none.json", run_key="k", resume=True)
        assert not rc.resumed
        assert rc.completed("s") == {}

    def test_resume_refuses_foreign_run_key(self, tmp_path):
        path = tmp_path / "run.json"
        rc = RunCheckpoint(path, run_key="mine")
        rc.record("s", 0, [1])
        rc.flush()
        with pytest.raises(CheckpointMismatch):
            RunCheckpoint(path, run_key="theirs", resume=True)

    def test_chunk_indices_are_ints_after_resume(self, tmp_path):
        # JSON stringifies dict keys inside the pickled payload's stages map;
        # resume must hand back integer chunk indices.
        path = tmp_path / "run.json"
        rc = RunCheckpoint(path, run_key="k")
        rc.record("s", 3, ["r"])
        rc.flush()
        rc2 = RunCheckpoint(path, run_key="k", resume=True)
        assert list(rc2.completed("s")) == [3]
        assert all(isinstance(i, int) for i in rc2.completed("s"))

    def test_stage_view_delegates(self, tmp_path):
        rc = RunCheckpoint(tmp_path / "run.json", run_key="k")
        stage = rc.stage("s")
        stage.record(0, [9])
        stage.flush()
        assert stage.completed() == {0: [9]}
        assert stage.path == str(tmp_path / "run.json")

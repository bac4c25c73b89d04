"""Live-path resilience: fault injection, shedding, crash recovery.

Covers the serving layer's survival story end to end — the compiled fault
timetable, mid-replay server death and repack, dark-window buffering,
deterministic overload shedding with the ``offered == served + shed +
errored`` conservation partition, the checkpoint/resume round trip, the
bounded checkpoint (two envelope slots plus a log of the trace's canonical
lines) and its crash windows, the serve CLI's save failures and the
request boundary's refusal of ill-typed operands — plus Hypothesis nets:
the canonical line parser against the renderer, conservation under
arbitrary request interleavings, and live-equals-batch-fold across every
placement policy under fail/repack/recover churn.
"""

import dataclasses
import hashlib
import json
import math
import os
import pickle
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.placement import POLICY_KINDS
from repro.loadgen.arrivals import LoadSpec
from repro.loadgen.replay import HttpTransport, iter_requests, replay_in_process
from repro.resilience.checkpoint import load_checkpoint, write_checkpoint
from repro.resilience.errors import (
    CheckpointCorrupt,
    CheckpointError,
    CheckpointSchemaMismatch,
)
from repro.resilience.snapshot import snapshot_obs
from repro.serve.checkpoint import (
    SERVE_LAYOUT,
    ServeCheckpointer,
    encode_events,
    engine_run_key,
    log_path,
    restore_engine,
    resume_engine,
    save_engine,
    slot_paths,
    snapshot_engine,
)
from repro.serve.engine import (
    MAX_REQUEST_T,
    MAX_TELEMETRY_BYTES,
    OrchestrationEngine,
    ServeConfig,
)
from repro.serve.faults import SERVER_FAIL, SERVER_RECOVER, ServeFaultSpec
from repro.serve.http import drain_pending, make_server
from repro.serve.trace import EVENT_KEYS, parse_event, render_event
from repro.validate.invariants import ServeConservation, run_checkers

FAULTS = ServeFaultSpec(
    server_mtbf_s=150.0,
    server_repair_s=60.0,
    fault_servers=3,
    dark_mtbf_s=200.0,
    dark_repair_s=80.0,
    fault_hives=6,
    horizon_s=1200.0,
    seed=7,
)

LOAD = LoadSpec(
    n_hives=12,
    rate_hz=0.02,
    horizon_s=1200.0,
    telemetry_fraction=0.5,
    payload_bytes=1024,
    seed=0xFA01,
    mode="open",
)


class TestFaultSpec:
    def test_inactive_by_default(self):
        spec = ServeFaultSpec()
        assert spec.active is False
        assert spec.compile().transitions == ()

    def test_active_when_any_process_can_fire(self):
        assert FAULTS.active is True
        assert ServeFaultSpec(server_mtbf_s=100.0, fault_servers=0).active is False
        assert ServeFaultSpec(dark_mtbf_s=100.0, fault_hives=2).active is True

    def test_describe_renders_inf_and_round_trips_json(self):
        d = ServeFaultSpec().describe()
        assert d["server_mtbf_s"] == "inf" and d["dark_mtbf_s"] == "inf"
        assert json.loads(json.dumps(d, sort_keys=True)) == d

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            ServeFaultSpec(server_mtbf_s=0.0)
        with pytest.raises(ValueError):
            ServeFaultSpec(fault_servers=-1)
        with pytest.raises(ValueError):
            ServeFaultSpec(horizon_s=0.0)

    def test_transitions_sorted_and_paired_with_point_queries(self):
        compiled = FAULTS.compile()
        times = [t for t, *_ in compiled.transitions]
        assert times == sorted(times)
        assert any(k == SERVER_FAIL for _, _, k, _ in compiled.transitions)
        assert any(k == SERVER_RECOVER for _, _, k, _ in compiled.transitions)
        # just after a fail (and before its recover) the server reads down
        for when, _target, kind, server in compiled.transitions:
            if kind == SERVER_FAIL:
                assert compiled.server_down(server, when + 1e-6)
                break

    def test_compile_is_deterministic(self):
        assert FAULTS.compile().transitions == FAULTS.compile().transitions
        reseeded = dataclasses.replace(FAULTS, seed=FAULTS.seed + 1)
        assert reseeded.compile().transitions != FAULTS.compile().transitions


def _first_fail(compiled):
    return next(
        (when, server)
        for when, _t, kind, server in compiled.transitions
        if kind == SERVER_FAIL
    )


class TestFaultInjection:
    N_HIVES = 40  # with max_parallel=1 (18 slots/server) this spans servers 0-2

    def test_server_failure_repacks_and_stays_the_batch_fold(self):
        # The repack does not shun the dead index — the retry ladder covers
        # requests aimed at it — but every orphan must be accounted for and
        # the layout must remain the canonical fold over admission order.
        spec = dataclasses.replace(FAULTS, dark_mtbf_s=math.inf, fault_hives=0)
        engine = OrchestrationEngine(ServeConfig(max_parallel=1, faults=spec))
        fail_t, failed = _first_fail(spec.compile())
        for hive in range(self.N_HIVES):
            engine.handle({"op": "admit", "hive": hive, "t": 0.0})
        assert any(
            engine.live.placement_of(h).server == failed for h in range(self.N_HIVES)
        ), "fleet never reached the failing server — fix the fixture"
        engine.handle({"op": "telemetry", "hive": 0, "t": fail_t + 1.0})
        assert failed in engine._down_servers
        fails = [e for e in engine.trace.events if e["op"] == "server-fail"]
        assert fails and fails[0]["server"] == failed
        assert fails[0]["orphans"] >= 1
        assert fails[0]["orphans"] == fails[0]["readmitted"] + fails[0]["dropped"]
        assert engine.report()["failed_servers"] == [failed]
        assert engine.steady_state_matches_batch()

    def test_recovery_clears_the_down_flag(self):
        spec = dataclasses.replace(FAULTS, dark_mtbf_s=math.inf, fault_hives=0)
        compiled = spec.compile()
        fail_t, failed = _first_fail(compiled)
        recover_t = next(
            when for when, _t, kind, server in compiled.transitions
            if kind == SERVER_RECOVER and server == failed and when > fail_t
        )
        engine = OrchestrationEngine(ServeConfig(faults=spec))
        engine.handle({"op": "telemetry", "hive": 0, "t": fail_t + 1.0})
        assert failed in engine._down_servers
        engine.handle({"op": "telemetry", "hive": 0, "t": recover_t + 1.0})
        assert failed not in engine._down_servers
        ops = [e["op"] for e in engine.trace.events]
        assert "server-recover" in ops

    def test_inference_at_down_server_walks_the_retry_ladder(self):
        spec = dataclasses.replace(FAULTS, dark_mtbf_s=math.inf, fault_hives=0)
        engine = OrchestrationEngine(ServeConfig(max_parallel=1, faults=spec))
        fail_t, failed = _first_fail(spec.compile())
        # Apply the failure while the fleet is empty (a not-yet-allocated
        # server index cannot be repacked), then admit a fleet wide enough
        # that placements land on the already-down server: its inference
        # must walk the retry ladder.
        t = fail_t + 0.5
        engine.handle({"op": "telemetry", "hive": 99, "t": t})
        assert failed in engine._down_servers
        victim = None
        for hive in range(self.N_HIVES):
            r = engine.handle({"op": "admit", "hive": hive, "t": t})
            if r["admitted"] and r["server"] == failed:
                victim = hive
                break
        assert victim is not None
        response = engine.handle({"op": "inference", "hive": victim, "t": t})
        assert response["ok"] is True
        assert response["retries"] >= 1
        assert response["retry_energy_j"] > 0.0
        assert engine.obs.ledger.energy_j("retry") == pytest.approx(
            response["retry_energy_j"]
        )
        # rescued mid-ladder onto the cloud, or exhausted onto the edge
        if response["placement"] == "edge":
            assert response["reason"] == "server-down"

    def test_full_replay_under_faults_conserves_and_matches_batch(self):
        engine = OrchestrationEngine(ServeConfig(faults=FAULTS))
        _, client = replay_in_process(LOAD, engine)
        assert client.unexpected_classes(()) == {}  # faults never leak errors
        report = engine.report()  # conservation checker runs inside
        assert report["offered"] == report["served"] + report["shed"] + report["errored"]
        assert report["shed"] == 0  # no queue bound configured
        ops = {e["op"] for e in engine.trace.events}
        assert "server-fail" in ops
        assert engine.steady_state_matches_batch()


class TestDarkWindows:
    @pytest.fixture(scope="class")
    def dark_point(self):
        """(hive, t) inside a realized blackout window."""
        compiled = FAULTS.compile()
        for hive in range(FAULTS.fault_hives):
            for t in range(0, int(FAULTS.horizon_s), 5):
                if compiled.hive_dark(hive, float(t)):
                    return hive, float(t)
        pytest.fail("seed realized no dark window — fix the fixture")

    def test_dark_telemetry_is_buffered_with_zero_radio(self, dark_point):
        hive, t = dark_point
        engine = OrchestrationEngine(ServeConfig(faults=FAULTS))
        before = engine.obs.ledger.energy_j("transfer")
        r = engine.handle({"op": "telemetry", "hive": hive, "t": t, "bytes": 512})
        assert r["ok"] is True and r["buffered"] is True
        assert engine.obs.ledger.energy_j("transfer") == before  # radio stayed off
        assert engine._buffers[hive].resident_payloads == 1

    def test_dark_inference_degrades_to_edge(self, dark_point):
        hive, t = dark_point
        engine = OrchestrationEngine(ServeConfig(faults=FAULTS))
        engine.handle({"op": "admit", "hive": hive, "t": 0.0})
        r = engine.handle({"op": "inference", "hive": hive, "t": t})
        assert r["placement"] == "edge"
        assert r["reason"] == "link-dark"

    def test_reconnected_hive_drains_its_backlog_at_a_price(self, dark_point):
        hive, t = dark_point
        compiled = FAULTS.compile()
        engine = OrchestrationEngine(ServeConfig(faults=FAULTS))
        engine.handle({"op": "telemetry", "hive": hive, "t": t, "bytes": 512})
        bright = next(
            float(u) for u in range(int(t) + 1, int(FAULTS.horizon_s))
            if not compiled.hive_dark(hive, float(u))
        )
        before = engine.obs.ledger.energy_j("transfer")
        engine.handle({"op": "telemetry", "hive": hive, "t": bright, "bytes": 512})
        drains = [e for e in engine.trace.events if e["op"] == "drain"]
        assert drains and drains[0]["hive"] == hive and drains[0]["payloads"] == 1
        assert engine.obs.ledger.energy_j("transfer") > before  # catch-up priced
        assert engine._buffers[hive].resident_payloads == 0


class TestShedding:
    def test_bad_queue_bound_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(queue_bound=0)

    def test_telemetry_sheds_at_half_bound_inference_at_bound(self):
        engine = OrchestrationEngine(ServeConfig(queue_bound=2))
        engine.handle({"op": "admit", "hive": 0, "t": 0.0})
        first = engine.handle({"op": "inference", "hive": 0, "t": 0.0})
        assert first["ok"] is True  # depth 0 < 2
        shed_tel = engine.handle({"op": "telemetry", "hive": 0, "t": 1.0})
        assert shed_tel["shed"] is True  # depth 1 >= (2+1)//2
        assert shed_tel["ok"] is False
        second = engine.handle({"op": "inference", "hive": 0, "t": 2.0})
        assert second["ok"] is True  # depth 1 < 2
        shed_inf = engine.handle({"op": "inference", "hive": 0, "t": 3.0})
        assert shed_inf["shed"] is True  # depth 2 >= 2
        assert shed_inf["queue_depth"] == 2
        assert shed_inf["retry_after_s"] > 0.0
        # conservation partition: 5 offered = 3 served + 2 shed + 0 errored
        assert (engine.n_offered, engine.n_served, engine.n_shed,
                engine.n_errored) == (5, 3, 2, 0)
        run_checkers(engine, [ServeConservation()], {"path": "test"})

    def test_health_reports_degraded_at_the_bound(self):
        engine = OrchestrationEngine(ServeConfig(queue_bound=1))
        assert engine.handle({"op": "health"})["status"] == "up"
        engine.handle({"op": "admit", "hive": 0, "t": 0.0})
        engine.handle({"op": "inference", "hive": 0, "t": 0.0})
        health = engine.handle({"op": "health"})
        assert health["status"] == "degraded"
        assert health["queue_depth"] == 1
        # health probes are never offered: the partition ignores them
        assert engine.n_offered == 2

    def test_queue_drains_as_time_passes(self):
        engine = OrchestrationEngine(ServeConfig(queue_bound=1))
        engine.handle({"op": "admit", "hive": 0, "t": 0.0})
        done = engine.handle({"op": "inference", "hive": 0, "t": 0.0})["done_t"]
        assert engine.handle({"op": "inference", "hive": 0, "t": 1.0})["shed"] is True
        late = engine.handle({"op": "inference", "hive": 0, "t": done + 1.0})
        assert late.get("shed") is None and late["ok"] is True

    @pytest.mark.parametrize(
        "config",
        [ServeConfig(), ServeConfig(queue_bound=4, faults=FAULTS)],
        ids=["unbounded", "bounded-faulty"],
    )
    def test_inflight_holds_exactly_the_pending_completions(self, config):
        """Pruned at every arrival, the heap holds only the work still pending.

        Shed responses, health answers and checkpoint envelopes answer from
        exactly those completions.
        """
        engine = OrchestrationEngine(config)
        completions = []
        for index, request in enumerate(iter_requests(LOAD)):
            t = request["t"]
            pending = sorted(c for c in completions if c > t)
            response = engine.handle(dict(request))
            if response.get("shed"):
                assert response["queue_depth"] == len(pending)
                assert response["retry_after_s"] == pending[0] - t
            elif response.get("placement") == "cloud":
                completions.append(response["done_t"])
            elif response["op"] == "telemetry" and "latency_s" in response:
                completions.append(t + response["latency_s"])
            pending = sorted(c for c in completions if c > t)
            assert engine._inflight_completions() == pending
            if index % 25 == 0:
                assert engine.handle({"op": "health"})["queue_depth"] == len(pending)
                assert snapshot_engine(engine)["inflight"] == pending
        assert len(completions) > 2 * len(pending)  # most work finished: pruning mattered
        assert (engine.n_shed > 0) == (config.queue_bound is not None)

    @pytest.mark.parametrize(
        "config, trace_sha, answers_sha, envelopes_sha",
        [
            (ServeConfig(),
             "0a2ba0ecf68754ffec97c1fef3fda69f286092ae7635595d3eedfec1f54bbee1",
             "93e1b454a54d4de2e3988a3e3e4b002742485c5776fd290dd1419edf66b839aa",
             "49fc847c6ed038ec9bb166137b96c2bed5c50a34b9593b1bbbd2f4e68a7506a0"),
            (ServeConfig(queue_bound=4, faults=FAULTS),
             "3491551c0f765afa7f76c2d596191c72ef117229786f395e54b4348084a5c7f5",
             "acf8a71ae82f4e923c2221fe5fcf72c77fa046782e9b4d9b729a623befe921ae",
             "24fe7ab74192cf3c6dfa01cc9e412f6ae05f8e3f6c8f5e0b1b12b5ac5abefacc"),
        ],
        ids=["unbounded", "bounded-faulty"],
    )
    def test_pruning_at_arrival_changes_no_answer(self, config, trace_sha, answers_sha,
                                                  envelopes_sha):
        """Responses, health answers and trace SHA are pinned from the engine
        that pruned in-flight work only to shed or answer health; envelopes,
        which carry the payload layout, have a pin of their own."""
        engine = OrchestrationEngine(config)
        answers, envelopes = hashlib.sha256(), hashlib.sha256()
        for index, request in enumerate(iter_requests(LOAD)):
            answers.update(json.dumps(engine.handle(dict(request)), sort_keys=True).encode())
            if index % 25 == 0:
                answers.update(json.dumps(engine.handle({"op": "health"}), sort_keys=True).encode())
                envelopes.update(json.dumps(snapshot_engine(engine), sort_keys=True).encode())
        assert engine.trace.fingerprint() == trace_sha
        assert answers.hexdigest() == answers_sha
        assert envelopes.hexdigest() == envelopes_sha

    def test_unbounded_engine_never_sheds(self):
        engine = OrchestrationEngine(ServeConfig())
        engine.handle({"op": "admit", "hive": 0, "t": 0.0})
        for i in range(10):
            r = engine.handle({"op": "inference", "hive": 0, "t": float(i + 1)})
            assert r["ok"] is True
        assert engine.n_shed == 0


class TestCheckpoint:
    CONFIG = ServeConfig(policy="best-fit", queue_bound=8, faults=FAULTS)

    def test_snapshot_restore_round_trip_is_bit_identical(self):
        from repro.loadgen.replay import iter_requests

        requests = list(iter_requests(LOAD))
        cut = len(requests) // 2
        engine = OrchestrationEngine(self.CONFIG)
        for request in requests[:cut]:
            engine.handle(dict(request))
        clone = restore_engine(self.CONFIG, snapshot_engine(engine), engine.trace.events)
        assert clone.trace.fingerprint() == engine.trace.fingerprint()
        for request in requests[cut:]:
            a = engine.handle(dict(request))
            b = clone.handle(dict(request))
            assert a == b
        assert clone.trace.fingerprint() == engine.trace.fingerprint()
        assert clone.report() == engine.report()

    def test_save_resume_refuses_a_different_config(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        engine = OrchestrationEngine(self.CONFIG)
        engine.handle({"op": "admit", "hive": 0, "t": 0.0})
        save_engine(path, engine)
        resumed = resume_engine(path, self.CONFIG)
        assert resumed.trace.fingerprint() == engine.trace.fingerprint()
        other = dataclasses.replace(self.CONFIG, policy="first-fit")
        with pytest.raises(CheckpointError):
            resume_engine(path, other)

    def test_checkpointer_writes_on_cadence_and_flushes(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        engine = OrchestrationEngine(ServeConfig())
        engine.checkpointer = ServeCheckpointer(path, every=3)
        for i in range(7):
            engine.handle({"op": "telemetry", "hive": 0, "t": float(i)})
        assert engine.checkpointer.n_written == 2  # after requests 3 and 6
        engine.checkpointer.flush(engine)
        resumed = resume_engine(path, ServeConfig())
        assert resumed.n_requests == 7
        assert resumed.trace.fingerprint() == engine.trace.fingerprint()

    def test_restored_engine_resumes_fault_cursor_and_buffers(self):
        compiled = FAULTS.compile()
        fail_t, _failed = _first_fail(compiled)
        engine = OrchestrationEngine(ServeConfig(faults=FAULTS))
        dark = next(
            (h, float(t))
            for h in range(FAULTS.fault_hives)
            for t in range(int(fail_t) + 1, int(FAULTS.horizon_s), 5)
            if compiled.hive_dark(h, float(t))
        )
        engine.handle({"op": "telemetry", "hive": dark[0], "t": dark[1], "bytes": 256})
        clone = restore_engine(ServeConfig(faults=FAULTS), snapshot_engine(engine),
                               engine.trace.events)
        assert clone._fault_cursor == engine._fault_cursor
        assert clone._down_servers == engine._down_servers
        assert clone._buffers[dark[0]].resident_payloads == 1


def _buffer_ledgers(engine):
    return {
        hive: (list(buf._queue), buf.delays_s, buf.offered_bytes, buf.delivered_bytes,
               buf.dropped_bytes, buf.blocked_payloads)
        for hive, buf in engine._buffers.items()
    }


class TestBoundedCheckpoint:
    """The envelope holds live state only; history is re-derived from the log."""

    CONFIG = ServeConfig(policy="best-fit", queue_bound=8, faults=FAULTS)

    @pytest.mark.parametrize(
        "config, load",
        [
            (ServeConfig(queue_bound=16),
             LoadSpec(n_hives=64, rate_hz=0.02, horizon_s=12000.0, seed=0xB0D5)),
            # no queue bound: only the checkpoint prunes finished in-flight work
            (ServeConfig(),
             LoadSpec(n_hives=64, rate_hz=1.0 / 300.0, horizon_s=72000.0, seed=0xB0D5)),
        ],
        ids=["queue-bounded", "unbounded"],
    )
    def test_payload_size_is_flat_in_requests_served(self, tmp_path, config, load):
        path = tmp_path / "serve.ckpt"
        engine = OrchestrationEngine(config)
        engine.checkpointer = ServeCheckpointer(path)
        sizes = {}
        for request in iter_requests(load):
            engine.handle(dict(request))
            if engine.n_requests in (1000, 15000):
                engine.checkpointer.flush(engine)
                payload = load_checkpoint(path, kind="serve")
                sizes[engine.n_requests] = len(pickle.dumps(payload, protocol=4))
            if engine.n_requests == 15000:
                break
        assert set(sizes) == {1000, 15000}
        assert abs(sizes[15000] - sizes[1000]) <= 0.10 * sizes[1000]
        assert log_path(path).read_bytes() == encode_events(engine.trace.events)

    def test_history_rederived_from_the_log_equals_the_live_engine(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        engine, _ = replay_in_process(LOAD, OrchestrationEngine(self.CONFIG))
        drained = any(buf.delays_s for buf in engine._buffers.values())
        assert drained, "no drains — fix the fixture"
        save_engine(path, engine)
        for keep in (True, False):
            resumed = resume_engine(path, self.CONFIG, keep_trace_events=keep)
            assert resumed.trace.fingerprint() == engine.trace.fingerprint()
            assert resumed._latencies == engine._latencies
            assert _buffer_ledgers(resumed) == _buffer_ledgers(engine)
            assert resumed.report() == engine.report()

    def test_fresh_checkpointer_starts_a_new_log(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        first = OrchestrationEngine(ServeConfig())
        first.checkpointer = ServeCheckpointer(path, every=5)
        for i in range(40):
            first.handle({"op": "telemetry", "hive": i % 4, "t": float(i)})
        second = OrchestrationEngine(ServeConfig())
        second.checkpointer = ServeCheckpointer(path, every=5)
        for i in range(10):
            second.handle({"op": "telemetry", "hive": 9, "t": float(i)})
        assert log_path(path).read_bytes() == encode_events(second.trace.events)
        resumed = resume_engine(path, ServeConfig())
        assert resumed.trace.fingerprint() == second.trace.fingerprint()

    def test_resumed_checkpointer_appends_to_the_log_it_resumed(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        requests = list(iter_requests(LOAD))
        cut = len(requests) // 2
        engine = OrchestrationEngine(self.CONFIG)
        engine.checkpointer = ServeCheckpointer(path, every=10)
        for request in requests[:cut]:
            engine.handle(dict(request))
        engine.checkpointer.flush(engine)
        engine.checkpointer = None
        inode = log_path(path).stat().st_ino
        checkpointer = ServeCheckpointer(path, every=10)
        resumed = checkpointer.resume(self.CONFIG)
        resumed.checkpointer = checkpointer
        for request in requests[cut:]:
            assert resumed.handle(dict(request)) == engine.handle(dict(request))
        checkpointer.flush(resumed)
        assert log_path(path).stat().st_ino == inode  # appended, never rewritten
        assert log_path(path).read_bytes() == encode_events(engine.trace.events)
        final = resume_engine(path, self.CONFIG)
        assert final.trace.fingerprint() == engine.trace.fingerprint()
        assert final.report() == engine.report()

    def test_tampered_or_missing_log_is_refused(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        engine = OrchestrationEngine(ServeConfig())
        for i in range(6):
            engine.handle({"op": "telemetry", "hive": 0, "t": float(i)})
        save_engine(path, engine)
        log = log_path(path)
        intact = log.read_bytes()
        tampered = intact.replace(b"t=3.0", b"t=4.0", 1)  # same length
        assert tampered != intact
        log.write_bytes(tampered)
        with pytest.raises(CheckpointCorrupt):
            resume_engine(path, ServeConfig())
        log.unlink()
        with pytest.raises(CheckpointCorrupt):
            resume_engine(path, ServeConfig())

    def test_full_state_layout_is_refused_structurally(self, tmp_path, capsys):
        path = tmp_path / "serve.ckpt"
        engine = OrchestrationEngine(ServeConfig())
        engine.handle({"op": "admit", "hive": 0, "t": 0.0})
        full_state = {  # the layout before the trace log: every event inline
            "clients": [0],
            "last_t": 0.0,
            "busy_until": [],
            "inflight": [],
            "latencies": {"telemetry": [], "inference": []},
            "counters": {"n_requests": 1, "n_errors": 0, "n_offered": 1,
                         "n_served": 1, "n_shed": 0, "n_errored": 0},
            "fault_cursor": 0,
            "down_servers": [],
            "buffers": {},
            "trace_events": [dict(e) for e in engine.trace.events],
            "obs": snapshot_obs(engine.obs),
        }
        write_checkpoint(path, full_state, kind="serve", run_key=engine_run_key(ServeConfig()))
        with pytest.raises(CheckpointSchemaMismatch) as exc:
            resume_engine(path, ServeConfig())
        assert (exc.value.found, exc.value.expected) == (1, SERVE_LAYOUT)
        from repro.serve.cli import main

        assert main(["--port", "0", "--checkpoint", str(path), "--resume"]) == 3
        assert "payload layout 1" in capsys.readouterr().err


#: Event values of every form a canonical line holds: ints of any size and
#: sign, finite floats (the edge cases of ``repr`` among them) and words.
_VALUES = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([2**63, 2**63 + 1, -(2**63) - 1]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e22, -1e22, 1e-05, 0.1 + 0.2]),
    st.from_regex(r"\A[A-Za-z][A-Za-z0-9_-]{0,15}\Z"),
    st.sampled_from(["link-dark", "upload-costs-more-than-local-inference", "server-fail"]),
)
_EVENTS = st.dictionaries(st.sampled_from(sorted(EVENT_KEYS)), _VALUES, min_size=1)


def _typed(event):
    """An event with each value's exact form: type, sign of zero, every bit."""
    return {key: (type(value), repr(value)) for key, value in event.items()}


class TestCanonicalLog:
    """The log holds the trace's own canonical lines, and they parse back exactly."""

    @settings(max_examples=300, deadline=None)
    @given(event=_EVENTS)
    def test_parse_inverts_render(self, event):
        line = render_event(event)
        parsed = parse_event(line)
        assert _typed(parsed) == _typed(event)
        assert render_event(parsed) == line

    @pytest.mark.parametrize("line", [
        "colour=red op=admit",  # unknown key
        "hive=3 op",  # missing "="
        "hive3 op=admit",
        "hive=3  op=admit",  # doubled space
        " hive=3 op=admit",
        "hive=3 op=admit ",
        "hive=3 op=admité",  # non-ASCII
        "hive=3 hive=4",  # repeated key
        "t=-inf",  # not finite
        "t=-Infinity",
        "t=1.5x",
        'op="admit"',
        "op=adm\\u0069t",
        "hive=\t3",
        "",
    ])
    def test_lines_no_event_renders_to_are_refused(self, line):
        with pytest.raises(CheckpointCorrupt):
            parse_event(line)

    def test_the_log_hashes_to_the_trace_fingerprint(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        engine = OrchestrationEngine(TestBoundedCheckpoint.CONFIG)
        engine.checkpointer = ServeCheckpointer(path, every=7)
        for request in iter_requests(LOAD):
            engine.handle(dict(request))
        engine.checkpointer.flush(engine)
        log = log_path(path).read_bytes()
        assert hashlib.sha256(log).hexdigest() == engine.trace.fingerprint()
        assert log == encode_events(engine.trace.events)
        for op in ("server-fail", "drain", "shed"):
            assert f" op={op} ".encode() in log, f"no {op} event — fix the fixture"


class TestEnvelopeSlots:
    """Two slots written in place: a torn newest one falls back to the other."""

    def _saves(self, tmp_path):
        """Five saves, the newest over a longer envelope in place; returns the
        checkpoint path, the engine, and (slot, bytes) of each save."""
        path = tmp_path / "serve.ckpt"
        engine = OrchestrationEngine(ServeConfig())
        checkpointer = ServeCheckpointer(path)
        admits = [{"op": "admit", "hive": h, "t": 0.0} for h in range(400)]
        releases = [{"op": "release", "hive": h, "t": 1.0} for h in range(395)]
        uploads = [{"op": "telemetry", "hive": 396, "t": 2.0 + i} for i in range(5)]
        written = []
        for requests in ([], admits, [], releases, uploads):
            for request in requests:
                engine.handle(request)
            checkpointer.flush(engine)
            slots = [slot for slot in slot_paths(path) if slot.exists()]
            newest = max(slots, key=lambda slot: load_checkpoint(slot)["seq"])
            written.append((newest, newest.read_bytes()))
        checkpointer.close()
        return path, engine, written

    def test_torn_newest_slot_falls_back_and_truncates_the_log(self, tmp_path):
        path, engine, written = self._saves(tmp_path)
        (newest, new), (previous_slot, _), (_, old) = written[4], written[3], written[2]
        assert newest != previous_slot and written[2][0] == newest
        assert len(old) > len(new), "the overwritten envelope must be the longer one"
        previous = load_checkpoint(previous_slot)
        log = log_path(path)
        full_log = log.read_bytes()
        assert len(full_log) > previous["log_offset"]
        tears = [(new[:cut], not new[cut:].strip()) for cut in range(len(new))]
        tears.append((new + old[len(new):], False))  # written, but not yet cut to length
        for torn, whole in tears:
            newest.write_bytes(torn)
            log.write_bytes(full_log)
            resumed = resume_engine(path, ServeConfig(), keep_trace_events=False)
            if whole:  # only the trailing newline was lost
                assert resumed.n_requests == engine.n_requests
                continue
            assert resumed.n_requests == previous["counters"]["n_requests"]
            assert resumed.trace.fingerprint() == previous["trace"]["sha256"]
            assert log.read_bytes() == full_log[: previous["log_offset"]]

    def test_both_slots_torn_is_corrupt(self, tmp_path):
        path, _engine, _written = self._saves(tmp_path)
        for slot in slot_paths(path):
            slot.write_bytes(slot.read_bytes()[:-40])
        with pytest.raises(CheckpointCorrupt):
            resume_engine(path, ServeConfig())

    def test_a_save_is_two_fsyncs_and_writes_in_place(self, tmp_path, monkeypatch):
        path = tmp_path / "serve.ckpt"
        engine = OrchestrationEngine(ServeConfig())
        engine.checkpointer = ServeCheckpointer(path, every=5)
        for i in range(10):  # two saves: both slots exist from here on
            engine.handle({"op": "telemetry", "hive": 0, "t": float(i)})
        inodes = {p: p.stat().st_ino for p in (log_path(path), *slot_paths(path))}
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd))[1])
        monkeypatch.setattr(os, "replace", lambda *a: pytest.fail("a save renamed a file"))
        for i in range(10, 30):
            engine.handle({"op": "telemetry", "hive": 0, "t": float(i)})
        monkeypatch.undo()
        assert engine.checkpointer.n_written == 6
        assert len(fsyncs) == 2 * 4
        assert {p: p.stat().st_ino for p in inodes} == inodes

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_dropped_checkpointers_leak_no_descriptor(self, tmp_path):
        def open_files():
            return len(os.listdir("/proc/self/fd"))

        before = open_files()
        for _ in range(5):  # one checkpointer per replay, dropped with its engine
            engine = OrchestrationEngine(ServeConfig())
            engine.checkpointer = ServeCheckpointer(tmp_path / "serve.ckpt", every=2)
            for i in range(6):
                engine.handle({"op": "telemetry", "hive": 0, "t": float(i)})
            assert open_files() == before + 3  # the log and both slots
        del engine
        assert open_files() == before

    def test_crash_at_any_fsync_resumes_a_completed_save(self, tmp_path, monkeypatch):
        """Rebuild the files from only the bytes fsynced before each fsync
        boundary of four saves: a killed process keeps the OS cache, so the
        writes a power cut would lose are discarded here."""
        config = ServeConfig(queue_bound=8, faults=FAULTS)
        requests = list(iter_requests(LOAD))[:200]
        reference = OrchestrationEngine(config)
        for request in requests:
            reference.handle(dict(request))
        path = tmp_path / "serve.ckpt"
        files = (log_path(path), *slot_paths(path))
        engine = OrchestrationEngine(config)
        engine.checkpointer = ServeCheckpointer(path, every=20)
        for request in requests[:60]:  # saves at 20, 40 and 60 requests: both slots exist
            engine.handle(dict(request))
        durable = {f: f.read_bytes() for f in files}
        saved = [40, 60]  # request counts of the two newest completed saves
        crashes = []
        real_fsync = os.fsync

        def fsync(fd):
            synced = next(f for f in files if f.stat().st_ino == os.fstat(fd).st_ino)
            crashes.append((dict(durable), saved[-2:]))  # its new bytes are lost
            real_fsync(fd)
            durable[synced] = synced.read_bytes()
            if synced != files[0]:  # a slot: the save is complete
                saved.append(engine.n_requests)
            crashes.append((dict(durable), saved[-2:]))

        monkeypatch.setattr(os, "fsync", fsync)
        for request in requests[60:140]:
            engine.handle(dict(request))
        monkeypatch.undo()
        assert len(crashes) == 4 * 2 * 2
        for index, (contents, completed) in enumerate(crashes):
            crash = tmp_path / f"crash-{index}" / path.name
            crash.parent.mkdir()
            for f, data in contents.items():
                crash.with_name(f.name).write_bytes(data)
            checkpointer = ServeCheckpointer(crash, every=20)
            resumed = checkpointer.resume(config)
            assert resumed.n_requests in completed
            resumed.checkpointer = checkpointer
            for request in requests[resumed.n_requests:]:
                resumed.handle(dict(request))
            checkpointer.close()
            assert resumed.trace.fingerprint() == reference.trace.fingerprint()
            assert resumed.report() == reference.report()

    def test_a_trace_without_events_is_checkpointed_from_its_first_event(self, tmp_path):
        path = tmp_path / "serve.ckpt"
        engine = OrchestrationEngine(ServeConfig(), keep_trace_events=False)
        engine.checkpointer = ServeCheckpointer(path, every=3)
        engine.checkpointer.flush(engine)  # binds the log before the first event
        for i in range(7):
            engine.handle({"op": "telemetry", "hive": 0, "t": float(i)})
        engine.checkpointer.flush(engine)
        resumed = resume_engine(path, ServeConfig(), keep_trace_events=False)
        assert resumed.trace.fingerprint() == engine.trace.fingerprint()
        assert resumed._latencies == engine._latencies
        late = OrchestrationEngine(ServeConfig(), keep_trace_events=False)
        late.handle({"op": "telemetry", "hive": 0, "t": 0.0})
        with pytest.raises(RuntimeError, match="from its first event"):
            save_engine(tmp_path / "late.ckpt", late)

    def test_layout_2_checkpoint_is_refused(self, tmp_path, capsys):
        """The previous layout: one envelope, and a log of JSON lines."""
        path = tmp_path / "serve.ckpt"
        engine = OrchestrationEngine(ServeConfig())
        for i in range(4):
            engine.handle({"op": "telemetry", "hive": 0, "t": float(i)})
        log = "".join(json.dumps(e, separators=(",", ":")) + "\n" for e in engine.trace.events)
        log_path(path).write_bytes(log.encode("ascii"))
        payload = {**snapshot_engine(engine), "layout": 2, "log_offset": len(log)}
        write_checkpoint(path, payload, kind="serve", run_key=engine_run_key(ServeConfig()))
        with pytest.raises(CheckpointSchemaMismatch) as exc:
            resume_engine(path, ServeConfig())
        assert (exc.value.found, exc.value.expected) == (2, SERVE_LAYOUT)
        from repro.serve.cli import main

        assert main(["--port", "0", "--checkpoint", str(path), "--resume"]) == 3
        assert "payload layout 2" in capsys.readouterr().err


class TestRequestBoundary:
    def test_nan_time_cannot_poison_the_request_clock(self, tmp_path):
        engine = OrchestrationEngine(ServeConfig())
        poisoned = engine.handle({"op": "telemetry", "hive": 0, "t": math.nan})
        assert poisoned["ok"] is False and "non-finite" in poisoned["error"]
        assert engine.handle({"op": "telemetry", "hive": 0, "t": 5.0})["ok"] is True
        early = engine.handle({"op": "telemetry", "hive": 0, "t": 1.0})
        assert early["ok"] is False and "non-monotonic" in early["error"]
        assert engine.handle({"op": "health"})["uptime_s"] == 5.0
        path = tmp_path / "serve.ckpt"
        save_engine(path, engine)
        resumed = resume_engine(path, ServeConfig())
        assert resumed.handle({"op": "health"})["uptime_s"] == 5.0
        assert resumed.handle({"op": "telemetry", "hive": 0, "t": 1.0})["ok"] is False

    @pytest.mark.parametrize("t", [math.inf, -math.inf])
    def test_non_finite_time_is_a_structured_error(self, t):
        engine = OrchestrationEngine(ServeConfig())
        response = engine.handle({"op": "inference", "hive": 0, "t": t})
        assert response["ok"] is False and "non-finite" in response["error"]
        assert engine._last_t is None
        assert engine.n_errored == 1

    @pytest.mark.parametrize(
        "op, operands, message",
        [
            pytest.param("admit", {"hive": 1.9}, "hive must be an int", id="hive-float"),
            pytest.param("admit", {"hive": "7"}, "hive must be an int", id="hive-str"),
            pytest.param("admit", {"hive": True}, "hive must be an int", id="hive-bool"),
            pytest.param("telemetry", {"t": "5"}, "must be a number", id="t-str"),
            pytest.param("inference", {"t": "nan"}, "must be a number", id="t-str-nan"),
            pytest.param("inference", {"t": "inf"}, "must be a number", id="t-str-inf"),
            pytest.param("admit", {"t": True}, "must be a number", id="t-bool"),
            pytest.param("admit", {"t": 1e308}, "horizon", id="t-1e308"),
            pytest.param("admit", {"t": 2**32 + 1}, "horizon", id="t-past-horizon"),
            pytest.param("telemetry", {"bytes": 2.7}, "bytes must be", id="bytes-float"),
            pytest.param("telemetry", {"bytes": 10**12}, "bytes must be", id="bytes-huge"),
            pytest.param("telemetry", {"bytes": -1}, "bytes must be", id="bytes-negative"),
            pytest.param("telemetry", {"bytes": True}, "bytes must be", id="bytes-bool"),
            pytest.param("telemetry", {"bytes": "abc"}, "bytes must be", id="bytes-str"),
        ],
    )
    def test_bad_operand_changes_no_state(self, op, operands, message):
        engine = OrchestrationEngine(ServeConfig())
        response = engine.handle({"op": op, "hive": 0, "t": 1.0, **operands})
        assert response["ok"] is False and message in response["error"]
        assert engine._last_t is None
        assert engine.n_errored == 1

    def test_refused_bytes_leave_the_clock(self):
        engine = OrchestrationEngine(ServeConfig())
        bad = engine.handle({"op": "telemetry", "hive": 1, "t": 100.0, "bytes": "abc"})
        assert bad["ok"] is False
        assert engine.handle({"op": "admit", "hive": 1, "t": 50.0})["ok"] is True
        assert engine._last_t == 50.0

    @pytest.mark.parametrize("faults", [None, FAULTS], ids=["fault-free", "failure-due"])
    @pytest.mark.parametrize(
        "op, hive, error",
        [("admit", 39, "ValueError: hive 39 is already admitted"),
         ("release", 99, "ValueError: hive 99 is not admitted")],
        ids=["duplicate-admit", "unseated-release"],
    )
    def test_refused_seat_change_moves_only_the_counters(self, op, hive, error, faults):
        # 40 hives span servers 0-2; with faults the refused request comes
        # after the first failure is due, and the failure stays pending.
        engine = OrchestrationEngine(ServeConfig(max_parallel=1, faults=faults))
        for seat in range(40):
            assert engine.handle({"op": "admit", "hive": seat, "t": 1.0})["admitted"] is True
        t = 2.0
        if faults is not None:
            fail_t, failed = _first_fail(engine.faults)
            assert fail_t > 1.0 and engine.live.placement_of(39).server == failed
            t = fail_t + 1.0
        before = snapshot_engine(engine)
        assert engine.handle({"op": op, "hive": hive, "t": t}) == {
            "ok": False, "op": op, "error": error,
        }
        assert engine._last_t == 1.0
        after = snapshot_engine(engine)

        def uncounted(snapshot):
            metrics = [m for m in snapshot["obs"]["metrics"]
                       if m["name"] not in ("serve.requests", f"serve.requests.{op}", "serve.errors")]
            return {**snapshot, "counters": None, "obs": {**snapshot["obs"], "metrics": metrics}}

        assert uncounted(after) == uncounted(before)
        counted = ("n_requests", "n_errors", "n_offered", "n_errored")
        assert after["counters"] == {
            name: value + (name in counted) for name, value in before["counters"].items()
        }
        assert engine.handle({"op": "inference", "hive": 0, "t": 1.5})["ok"] is True

    def test_operand_limits_are_inclusive(self):
        engine = OrchestrationEngine(ServeConfig())
        assert engine.handle({"op": "admit", "hive": 0, "t": 0})["ok"] is True
        full = engine.handle(
            {"op": "telemetry", "hive": 0, "t": 1, "bytes": MAX_TELEMETRY_BYTES}
        )
        assert full["ok"] is True and full["bytes"] == MAX_TELEMETRY_BYTES
        assert engine.handle({"op": "inference", "hive": 0, "t": MAX_REQUEST_T})["ok"] is True
        assert engine.n_errored == 0


class TestPropertyNets:
    @settings(max_examples=30, deadline=None)
    @given(
        bound=st.integers(min_value=1, max_value=4),
        steps=st.lists(
            st.tuples(
                st.sampled_from(["admit", "release", "telemetry", "inference", "health"]),
                st.integers(min_value=0, max_value=5),
                st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
            ),
            min_size=1,
            max_size=50,
        ),
    )
    def test_conservation_under_arbitrary_interleavings(self, bound, steps):
        """offered == served + shed + errored for every request soup."""
        engine = OrchestrationEngine(ServeConfig(queue_bound=bound))
        t = 0.0
        n_health = 0
        for op, hive, dt in steps:
            t += dt
            n_health += op == "health"
            engine.handle({"op": op, "hive": hive, "t": t})
        assert engine.n_offered == len(steps) - n_health
        assert engine.n_offered == engine.n_served + engine.n_shed + engine.n_errored
        run_checkers(engine, [ServeConservation()], {"path": "property"})

    @settings(max_examples=21, deadline=None)
    @given(
        policy=st.sampled_from(POLICY_KINDS),
        seed=st.integers(min_value=0, max_value=2**16 - 1),
    )
    def test_live_matches_batch_fold_under_fail_repack_recover(self, policy, seed):
        """After any fault churn, the live layout equals the batch fold."""
        spec = dataclasses.replace(FAULTS, seed=seed)
        engine = OrchestrationEngine(ServeConfig(policy=policy, faults=spec))
        t = 0.0
        for hive in range(10):
            engine.handle({"op": "admit", "hive": hive, "t": t})
        # sweep the request clock across the whole fault horizon so every
        # transition (fail + repack, recover) is applied
        step = spec.horizon_s / 24.0
        for i in range(26):
            t += step
            engine.handle({"op": "inference", "hive": i % 10, "t": t})
        engine.handle({"op": "release", "hive": 3, "t": t})
        engine.handle({"op": "admit", "hive": 11, "t": t})
        assert engine.steady_state_matches_batch()
        assert engine.n_offered == engine.n_served + engine.n_shed + engine.n_errored


class TestDrainPending:
    def test_backlogged_connection_is_answered_not_dropped(self):
        engine = OrchestrationEngine(ServeConfig())
        server = make_server(engine, "127.0.0.1", 0)
        try:
            host, port = server.server_address
            body = json.dumps({"hive": 1, "t": 0.0}).encode()
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(
                    b"POST /v1/admit HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                # the accept loop never ran: only drain_pending can answer
                assert drain_pending(server, budget_s=5.0) == 1
                reply = sock.recv(65536)
            assert b"200" in reply.split(b"\r\n", 1)[0]
            assert engine.n_requests == 1 and engine.n_served == 1
        finally:
            server.server_close()

    def test_engine_failure_stops_the_server_unanswered(self):
        class FailingSave:  # a checkpoint save that fails after the request applied
            def after_request(self, engine):
                raise OSError("disk gone")

        engine = OrchestrationEngine(ServeConfig())
        engine.checkpointer = FailingSave()
        server = make_server(engine, "127.0.0.1", 0)
        try:
            body = json.dumps({"hive": 1, "t": 0.0}).encode()
            with socket.create_connection(server.server_address, timeout=5) as sock:
                sock.sendall(
                    b"POST /v1/admit HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
                with pytest.raises(OSError, match="disk gone"):
                    drain_pending(server, budget_s=5.0)
                assert sock.recv(65536) == b""  # closed without an answer
            assert engine.n_requests == 1
        finally:
            server.server_close()

    def test_empty_backlog_drains_zero_quickly(self):
        engine = OrchestrationEngine(ServeConfig())
        server = make_server(engine, "127.0.0.1", 0)
        try:
            start = time.monotonic()
            assert drain_pending(server, budget_s=0.5) == 0
            assert time.monotonic() - start < 0.5
        finally:
            server.server_close()


def _boot_resilient_server(tmp: Path, *extra: str, stderr=subprocess.DEVNULL):
    """Start repro-serve with resilience flags on an ephemeral port."""
    port_file = tmp / "port"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve.cli",
            "--port", "0", "--port-file", str(port_file), *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=stderr,
        env=env,
    )
    deadline = time.monotonic() + 30.0
    while not port_file.exists():
        if proc.poll() is not None:
            raise RuntimeError(f"repro-serve exited early with {proc.returncode}")
        if time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError("repro-serve did not write its port file in 30 s")
        time.sleep(0.05)
    return proc, f"http://127.0.0.1:{int(port_file.read_text().strip())}"


class TestHttpResilience:
    def test_shed_is_503_with_retry_after_and_degraded_health(self, tmp_path):
        proc, url = _boot_resilient_server(tmp_path, "--queue-bound", "1")
        try:
            def post(op, payload):
                req = urllib.request.Request(
                    f"{url}/v1/{op}",
                    data=json.dumps(payload).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                return urllib.request.urlopen(req, timeout=10)

            assert post("admit", {"hive": 0, "t": 0.0}).status == 200
            assert post("inference", {"hive": 0, "t": 0.0}).status == 200
            with pytest.raises(urllib.error.HTTPError) as exc:
                post("inference", {"hive": 0, "t": 1.0})
            assert exc.value.code == 503
            assert int(exc.value.headers["Retry-After"]) >= 1
            body = json.loads(exc.value.read())
            assert body["shed"] is True and body["retry_after_s"] > 0.0
            with urllib.request.urlopen(f"{url}/v1/health", timeout=10) as r:
                health = json.loads(r.read())
            assert health["status"] == "degraded"
            assert health["shed"] == 1 and health["served"] == 2
            proc.send_signal(signal.SIGTERM)
            stdout, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0
            report = json.loads(stdout)
            assert report["offered"] == 3
            assert report["served"] + report["shed"] + report["errored"] == 3
            assert report["shed"] == 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_resume_without_checkpoint_flag_is_rejected(self):
        from repro.serve.cli import main

        assert main(["--resume"]) == 2


class TestServeCliCheckpoint:
    """A save either lands or the server stops: a request is never applied twice."""

    def test_unwritable_checkpoint_exits_2_before_the_port_file(self, tmp_path, capsys):
        from repro.serve.cli import main

        missing = tmp_path / "no-such-dir" / "serve.ckpt"
        port_file = tmp_path / "port"
        argv = ["--port", "0", "--port-file", str(port_file), "--checkpoint", str(missing)]
        assert main(argv) == 2
        assert str(missing) in capsys.readouterr().err
        assert not port_file.exists()

    def test_zero_checkpoint_cadence_exits_2(self, tmp_path, capsys):
        from repro.serve.cli import main

        argv = ["--port", "0", "--checkpoint", str(tmp_path / "c"), "--checkpoint-every", "0"]
        assert main(argv) == 2
        assert "--checkpoint-every must be >= 1" in capsys.readouterr().err

    def test_failed_save_mid_run_stops_unanswered_and_exits_4(self, tmp_path):
        ckpt = tmp_path / "serve.ckpt"
        requests = list(iter_requests(LOAD))[:12]
        flags = ("--checkpoint", str(ckpt), "--checkpoint-every", "3", "--resume")
        proc, url = _boot_resilient_server(tmp_path, *flags, stderr=subprocess.PIPE)
        blocker = slot_paths(ckpt)[1]
        blocker.mkdir()  # the second save cannot put its slot in place
        try:
            with HttpTransport(url, max_attempts=2, backoff_s=0.05) as transport:
                answers = [transport.send(dict(request)) for request in requests[:3]]
            assert [a.get("error_class") for a in answers[:2]] == [None, None]
            assert answers[2]["ok"] is False and answers[2].get("error_class")
            assert proc.wait(timeout=30) == 4
            err = proc.stderr.read().decode()
            assert "Traceback" not in err
            assert err.splitlines()[-1].startswith("error: checkpoint save failed")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
            proc.stderr.close()
            proc.stdout.close()

        blocker.rmdir()
        (tmp_path / "port").unlink()
        proc, url = _boot_resilient_server(tmp_path, *flags)
        try:
            with HttpTransport(url) as transport:
                offered = transport.health()["offered"]
                assert offered == 0  # the failed save's request was never made durable
                for request in requests:
                    assert "error_class" not in transport.send(dict(request))
            proc.send_signal(signal.SIGTERM)
            stdout, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        reference = OrchestrationEngine(ServeConfig())
        for request in requests:
            reference.handle(dict(request))
        report = json.loads(stdout)
        assert report["offered"] == len(requests)
        assert report["trace"]["sha256"] == reference.trace.fingerprint()

    @pytest.mark.parametrize("trace_out", [False, True], ids=["no-trace-out", "trace-out"])
    def test_sigkilled_server_resumes_to_the_in_process_fold(self, tmp_path, trace_out):
        """Events stay in memory only for ``--trace-out``; either way the
        resumed server's trace is the in-process fold's."""
        requests = list(iter_requests(LOAD))[:90]
        reference = OrchestrationEngine(ServeConfig())
        for request in requests:
            reference.handle(dict(request))
        trace_file = tmp_path / "trace.json"
        flags = ["--checkpoint", str(tmp_path / "serve.ckpt"), "--checkpoint-every", "7",
                 "--resume"] + (["--trace-out", str(trace_file)] if trace_out else [])
        proc, url = _boot_resilient_server(tmp_path, *flags)
        try:
            with HttpTransport(url) as transport:
                for request in requests[:50]:
                    assert "error_class" not in transport.send(dict(request))
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()
            (tmp_path / "port").unlink()
            proc, url = _boot_resilient_server(tmp_path, *flags)
            with HttpTransport(url) as transport:
                offered = transport.health()["offered"]
                assert 0 < offered <= 50
                for request in requests[offered:]:
                    assert "error_class" not in transport.send(dict(request))
            proc.send_signal(signal.SIGTERM)
            stdout, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        report = json.loads(stdout)
        assert report["offered"] == len(requests)
        assert report["trace"]["sha256"] == reference.trace.fingerprint()
        if trace_out:
            assert json.loads(trace_file.read_text())["events"] == reference.trace.events
        else:
            assert not trace_file.exists()

"""Unit tests for the transport-free orchestration engine."""

import json

import pytest

from repro.core.calibration import PAPER
from repro.serve.engine import MAX_TELEMETRY_BYTES, OrchestrationEngine, ServeConfig


def engine(**kwargs) -> OrchestrationEngine:
    return OrchestrationEngine(ServeConfig(**kwargs))


class TestConfig:
    def test_policy_aliases_normalize(self):
        assert ServeConfig(policy="FirstFit").policy == "first-fit"
        assert ServeConfig(policy="roundrobin").policy == "round-robin"
        assert ServeConfig(policy="bestfit").policy == "best-fit"
        assert ServeConfig(policy="solar").policy == "solar-budget"
        assert ServeConfig(policy="swarm").policy == "swarm-scored"

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            ServeConfig(policy="worst-case")

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError, match="period"):
            ServeConfig(period=0.0)

    @pytest.mark.parametrize("field, value", [
        ("telemetry_bytes", MAX_TELEMETRY_BYTES + 1),
        ("telemetry_bytes", 3_000_000),
        ("telemetry_bytes", -1),
        ("telemetry_bytes", 2.5),
        ("telemetry_bytes", True),
        ("telemetry_bytes", "1024"),
        ("queue_bound", 0),
        ("queue_bound", 2.5),
        ("queue_bound", True),
        ("queue_bound", "8"),
    ])
    def test_operand_the_engine_would_refuse_is_refused_at_config(self, field, value):
        with pytest.raises(ValueError, match=field):
            ServeConfig(**{field: value})

    @pytest.mark.parametrize("nbytes", [0, MAX_TELEMETRY_BYTES])
    def test_telemetry_bytes_bounds_accepted(self, nbytes):
        e = engine(telemetry_bytes=nbytes)
        e.handle({"op": "admit", "hive": 0, "t": 0.0})
        assert e.handle({"op": "telemetry", "hive": 0, "t": 1.0})["ok"]

    def test_describe_pins_the_full_engine_behaviour(self):
        desc = ServeConfig(policy="swarm-scored", policy_seed=7).describe()
        json.dumps(desc, sort_keys=True)  # JSON-safe throughout
        assert desc["policy"] == "swarm-scored"
        assert desc["policy_params"] == {
            "kind": "swarm-scored", "seed": 7, "evaporation": 0.5, "iterations": 3,
        }
        # the two fields the header used to omit: two engines priced by
        # different links or calibration constants must describe differently
        assert desc["link"] == {
            "nominal_bps": ServeConfig().link.nominal_bps,
            "cv": ServeConfig().link.cv,
            "handshake_s": ServeConfig().link.handshake_s,
        }
        assert desc["constants"]["svm_edge_j"] == PAPER.svm_edge_j
        assert desc["constants"]["send_audio_j"] == PAPER.send_audio_j


class TestAdmitRelease:
    def test_admit_reports_placement(self):
        e = engine()
        r = e.handle({"op": "admit", "hive": 4, "t": 0.0})
        assert r["ok"] and r["admitted"]
        assert (r["server"], r["slot"], r["position"]) == (0, 0, 0)

    def test_duplicate_admit_is_an_error_response(self):
        e = engine()
        e.handle({"op": "admit", "hive": 4, "t": 0.0})
        r = e.handle({"op": "admit", "hive": 4, "t": 1.0})
        assert not r["ok"] and "hive 4 is already admitted" in r["error"]
        assert e.n_errors == 1

    def test_budget_exhaustion_is_a_polite_rejection(self):
        e = engine(max_servers=0)
        r = e.handle({"op": "admit", "hive": 1, "t": 0.0})
        assert r["ok"] and r["admitted"] is False
        assert "full" in r["reason"]
        assert e.n_errors == 0  # a rejection is an outcome, not an error

    def test_release_unknown_hive_errors(self):
        e = engine()
        r = e.handle({"op": "release", "hive": 9, "t": 0.0})
        assert not r["ok"] and "not admitted" in r["error"]

    def test_non_monotonic_time_rejected(self):
        e = engine()
        e.handle({"op": "admit", "hive": 0, "t": 10.0})
        r = e.handle({"op": "telemetry", "hive": 0, "t": 5.0})
        assert not r["ok"] and "non-monotonic" in r["error"]


class TestPlacementDecision:
    def test_admitted_hive_runs_in_the_cloud(self):
        e = engine()
        e.handle({"op": "admit", "hive": 0, "t": 0.0})
        r = e.handle({"op": "inference", "hive": 0, "t": 1.0})
        assert r["placement"] == "cloud"
        # client-side cost is the audio upload, not the local inference
        assert r["energy_j"] == PAPER.send_audio_j
        assert r["server_energy_j"] > 0.0

    def test_unadmitted_hive_falls_back_to_edge(self):
        e = engine()
        r = e.handle({"op": "inference", "hive": 3, "t": 0.0})
        assert r["placement"] == "edge" and r["reason"] == "not-admitted"
        assert r["energy_j"] == PAPER.svm_edge_j
        assert r["latency_s"] == PAPER.svm_edge_s

    def test_cloud_latency_waits_for_the_slot_window(self):
        e = engine()
        e.handle({"op": "admit", "hive": 0, "t": 0.0})
        r = e.handle({"op": "inference", "hive": 0, "t": 10.0})
        # hive 0 sits in slot 0: next occurrence is the t=300 cycle boundary
        assert r["done_t"] > 300.0
        assert r["latency_s"] == r["done_t"] - 10.0

    def test_back_to_back_requests_queue_a_full_cycle(self):
        e = engine()
        e.handle({"op": "admit", "hive": 0, "t": 0.0})
        r1 = e.handle({"op": "inference", "hive": 0, "t": 10.0})
        r2 = e.handle({"op": "inference", "hive": 0, "t": 11.0})
        assert r2["done_t"] == pytest.approx(r1["done_t"] + e.config.period)

    def test_telemetry_priced_on_the_link(self):
        e = engine()
        r = e.handle({"op": "telemetry", "hive": 5, "t": 0.0, "bytes": 2048})
        assert r["ok"] and r["bytes"] == 2048
        assert r["latency_s"] > 0 and r["energy_j"] > 0
        # deterministic link expectation: same bytes, same price
        r2 = e.handle({"op": "telemetry", "hive": 6, "t": 1.0, "bytes": 2048})
        assert r2["latency_s"] == r["latency_s"]


class TestObsAndReport:
    def test_metrics_and_ledger_accumulate(self):
        e = engine()
        e.handle({"op": "admit", "hive": 0, "t": 0.0})
        e.handle({"op": "telemetry", "hive": 0, "t": 1.0})
        e.handle({"op": "inference", "hive": 0, "t": 2.0})
        snap = e.obs.snapshot()
        assert snap["metrics"]["serve.requests"]["value"] == 3.0
        assert snap["metrics"]["serve.placements.cloud"]["value"] == 1.0
        assert json.dumps(snap, sort_keys=True)  # snapshot is valid JSON

    def test_latency_report_quantiles(self):
        e = engine()
        for h in range(5):
            e.handle({"op": "inference", "hive": h, "t": float(h)})
        rep = e.latency_report()
        assert rep["inference"]["count"] == 5
        assert rep["inference"]["p50_s"] == PAPER.svm_edge_s
        assert rep["rps"] == pytest.approx(5 / 4.0)

    def test_report_is_json_and_matches_state(self):
        e = engine()
        for h in range(7):
            e.handle({"op": "admit", "hive": h, "t": 0.0})
        e.handle({"op": "release", "hive": 3, "t": 1.0})
        report = e.report()
        json.dumps(report)
        assert report["fleet"] == 6
        assert sum(sum(o) for o in report["occupancies"]) == 6


class TestAccounting:
    """Every request counts exactly once — health and garbage included."""

    def test_health_and_malformed_requests_are_counted(self):
        e = engine()
        e.handle({"op": "health"})
        e.handle({"op": "admit", "hive": 0, "t": 0.0})
        e.handle({"op": "reboot", "hive": 0, "t": 1.0})  # unknown op
        e.handle({"op": "admit", "t": 2.0})  # missing hive
        e.handle({"op": "admit", "hive": 0, "t": 3.0})  # duplicate admit
        e.handle({"op": "health"})
        assert e.n_requests == 6
        assert e.n_errors == 3
        assert e.n_requests >= e.n_errors

    def test_per_op_counters_sum_to_the_request_count(self):
        e = engine()
        requests = [
            {"op": "health"},
            {"op": "admit", "hive": 0, "t": 0.0},
            {"op": "telemetry", "hive": 0, "t": 1.0},
            {"op": "inference", "hive": 0, "t": 2.0},
            {"op": "inference", "hive": 0, "t": 1.0},  # non-monotonic -> error
            {"op": "frobnicate"},  # unknown -> invalid bucket
            {},  # no op at all -> invalid bucket
            {"op": "release", "hive": 0, "t": 3.0},
        ]
        for r in requests:
            e.handle(r)
        metrics = e.obs.snapshot()["metrics"]
        assert metrics["serve.requests"]["value"] == float(len(requests))
        by_op = {
            op: metrics.get(f"serve.requests.{op}", {"value": 0.0})["value"]
            for op in ("admit", "release", "telemetry", "inference", "health", "invalid")
        }
        assert by_op == {
            "admit": 1.0, "release": 1.0, "telemetry": 1.0, "inference": 2.0,
            "health": 1.0, "invalid": 2.0,
        }
        assert sum(by_op.values()) == metrics["serve.requests"]["value"]
        assert e.n_requests == len(requests)
        assert e.n_errors == 3  # non-monotonic + two invalid ops

    def test_health_probe_reports_itself_in_the_request_count(self):
        e = engine()
        first = e.handle({"op": "health"})
        assert first["requests"] == 1  # the probe itself is request #1
        second = e.handle({"op": "health"})
        assert second["requests"] == 2
        assert e.n_errors == 0


class TestBatchIdentity:
    @pytest.mark.parametrize(
        "policy",
        ["first-fit", "round-robin", "balanced", "best-fit", "worst-fit",
         "solar-budget", "swarm-scored"],
    )
    def test_steady_state_matches_batch_after_churn(self, policy):
        e = engine(policy=policy)
        t = 0.0
        for h in range(40):
            e.handle({"op": "admit", "hive": h, "t": t})
        for h in range(0, 40, 3):
            t += 1.0
            e.handle({"op": "release", "hive": h, "t": t})
        for h in range(100, 110):
            t += 1.0
            e.handle({"op": "admit", "hive": h, "t": t})
        assert e.steady_state_matches_batch()

    def test_trace_fingerprint_deterministic(self):
        def run():
            e = engine()
            for h in range(10):
                e.handle({"op": "admit", "hive": h, "t": float(h)})
                e.handle({"op": "inference", "hive": h, "t": float(h) + 0.5})
            return e.trace.fingerprint()

        assert run() == run()

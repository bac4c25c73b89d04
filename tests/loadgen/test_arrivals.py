"""Property tests for the seeded arrival processes (satellite 4).

Pins the three contracts the module docstring advertises: rate
stationarity, chunking/fleet-size independence, and replay identity.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.loadgen.arrivals import (
    Arrival,
    LoadSpec,
    arrival_to_request,
    hive_stream,
    merged_stream,
)

BASE = LoadSpec(n_hives=8, rate_hz=0.05, horizon_s=2000.0, seed=42)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("n_hives", -1, "n_hives"),
            ("rate_hz", 0.0, "rate_hz"),
            ("horizon_s", -0.5, "horizon_s"),
            ("telemetry_fraction", 1.5, "telemetry_fraction"),
            ("mode", "burst", "mode"),
        ],
    )
    def test_bad_values_rejected(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            dataclasses.replace(BASE, **{field: value})

    @pytest.mark.parametrize("payload", [3_000_000, -5, 2.5, True])
    def test_payloads_the_engine_refuses_are_refused(self, payload):
        with pytest.raises(ValueError, match="payload_bytes"):
            LoadSpec(n_hives=2, horizon_s=900.0, payload_bytes=payload, seed=1)

    def test_the_largest_payload_the_engine_takes_is_accepted(self):
        from repro.loadgen.replay import replay_in_process
        from repro.serve.engine import MAX_TELEMETRY_BYTES

        assert MAX_TELEMETRY_BYTES == 2_073_000
        spec = LoadSpec(n_hives=2, horizon_s=900.0, payload_bytes=2_073_000, seed=1)
        assert replay_in_process(spec)[1].n_errors == 0

    def test_cli_refuses_the_payload_before_sending(self, capsys):
        from repro.loadgen.cli import main

        argv = ["--in-process", "--hives", "2", "--horizon", "900", "--payload-bytes", "3000000"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            "error: payload_bytes must be an int in [0, 2073000], got 3000000"]

    def test_describe_round_trips_through_replace(self):
        spec = LoadSpec(**BASE.describe())
        assert spec == BASE


class TestStreamShape:
    def test_opens_with_admit_inside_window(self):
        for hive in range(BASE.n_hives):
            stream = hive_stream(BASE, hive)
            first = stream[0]
            assert first.op == "admit" and first.seq == 0
            assert 0.0 <= first.t <= BASE.admit_window_s

    def test_strictly_increasing_times_and_seqs(self):
        stream = hive_stream(BASE, 3)
        for a, b in zip(stream, stream[1:]):
            assert b.t > a.t and b.seq == a.seq + 1
            assert b.t <= BASE.horizon_s

    def test_merged_stream_globally_sorted(self):
        arrivals = list(merged_stream(BASE))
        keys = [a.sort_key for a in arrivals]
        assert keys == sorted(keys)
        assert sum(1 for a in arrivals if a.op == "admit") == BASE.n_hives

    def test_telemetry_fraction_extremes(self):
        all_tel = dataclasses.replace(BASE, telemetry_fraction=1.0)
        assert all(a.op == "telemetry" for a in hive_stream(all_tel, 0)[1:])
        no_tel = dataclasses.replace(BASE, telemetry_fraction=0.0)
        assert all(a.op == "inference" for a in hive_stream(no_tel, 0)[1:])

    def test_request_dict_carries_payload_only_for_telemetry(self):
        req = arrival_to_request(Arrival(1.0, 2, 3, "telemetry", 512))
        assert req == {"op": "telemetry", "hive": 2, "t": 1.0, "bytes": 512}
        req = arrival_to_request(Arrival(1.0, 2, 3, "inference"))
        assert "bytes" not in req


class TestRateStationarity:
    @settings(max_examples=15, deadline=None)
    @given(
        rate=st.sampled_from([0.01, 0.05, 0.2]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_mean_gap_converges_to_inverse_rate(self, rate, seed):
        # One long stream: horizon sized for ~2000 arrivals.
        spec = LoadSpec(
            n_hives=1, rate_hz=rate, horizon_s=2000.0 / rate, seed=seed
        )
        times = [a.t for a in hive_stream(spec, 0)][1:]  # drop the admit
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert len(gaps) > 1000
        mean = sum(gaps) / len(gaps)
        assert mean == pytest.approx(1.0 / rate, rel=0.15)

    def test_first_and_second_half_rates_agree(self):
        spec = LoadSpec(n_hives=1, rate_hz=0.1, horizon_s=40_000.0, seed=7)
        times = [a.t for a in hive_stream(spec, 0)][1:]
        half = spec.horizon_s / 2
        first = sum(1 for t in times if t <= half)
        second = len(times) - first
        assert first == pytest.approx(second, rel=0.1)


class TestIndependence:
    @settings(max_examples=20, deadline=None)
    @given(
        n_small=st.integers(min_value=1, max_value=6),
        n_big=st.integers(min_value=7, max_value=24),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_fleet_growth_never_perturbs_existing_hives(self, n_small, n_big, seed):
        small = dataclasses.replace(BASE, n_hives=n_small, seed=seed)
        big = dataclasses.replace(BASE, n_hives=n_big, seed=seed)
        for hive in range(n_small):
            assert hive_stream(small, hive) == hive_stream(big, hive)

    def test_merged_equals_concat_of_per_hive_streams(self):
        # Chunking independence: generating hive-by-hive then sorting is the
        # merged stream — no cross-hive RNG coupling.
        per_hive = [a for h in range(BASE.n_hives) for a in hive_stream(BASE, h)]
        per_hive.sort(key=lambda a: a.sort_key)
        assert per_hive == list(merged_stream(BASE))

    def test_distinct_hives_get_distinct_streams(self):
        assert hive_stream(BASE, 0) != hive_stream(BASE, 1)

    def test_distinct_seeds_get_distinct_streams(self):
        other = dataclasses.replace(BASE, seed=BASE.seed + 1)
        assert hive_stream(BASE, 0) != hive_stream(other, 0)


class TestReplayIdentity:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_same_spec_same_stream(self, seed):
        spec = dataclasses.replace(BASE, seed=seed)
        assert list(merged_stream(spec)) == list(merged_stream(spec))

    def test_zero_hives_and_zero_horizon(self):
        assert list(merged_stream(dataclasses.replace(BASE, n_hives=0))) == []
        flat = dataclasses.replace(BASE, horizon_s=0.0)
        for hive in range(flat.n_hives):
            stream = hive_stream(flat, hive)
            assert [a.op for a in stream] in ([], ["admit"])

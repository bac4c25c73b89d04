"""Regression tests for retry accounting (PR 4 bugfix satellite).

Pins the invariants the retry ladder must keep:

* ``RetryPolicy.none()`` (timeout_s=0): a first-attempt failure charges
  *zero* radio-on energy and records *exactly one* attempt — no phantom
  zero-duration ledger entries, no double counting;
* charged radio-on retry time equals ``timeout_attempts × timeout_s``
  exactly, on both the DES and the analytic fault paths;
* the realized ladder wall-clock is the sum of the timeouts plus the
  realized (jittered) backoffs actually incurred.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.routines import make_scenario
from repro.faults.config import FaultConfig, LinkBlackout
from repro.faults.desfaults import run_des_faulty_fleet
from repro.faults.spec import ServerOutage
from repro.faults.fleetsim import run_faulty_fleet
from repro.faults.retry import RetryPolicy


@pytest.fixture(scope="module")
def cloud():
    return make_scenario("edge+cloud", "svm", max_parallel=35)


def _outage_none():
    # Probed: seed 4 below yields 80 fallback cycles over 3 cycles x 40 clients.
    return FaultConfig(
        server_outage=ServerOutage(mtbf_s=1200.0, repair_s=400.0),
        retry=RetryPolicy.none(),
    )


class TestZeroTimeoutDes:
    @pytest.fixture(scope="class")
    def result(self, cloud):
        return run_des_faulty_fleet(
            40, cloud, faults=_outage_none(), n_cycles=3, seed=4
        )

    def test_failures_occurred(self, result):
        assert result.report.cycles_fallback + result.report.cycles_failover > 0

    def test_zero_radio_energy_charged(self, result):
        assert result.report.retry_energy_j == 0.0
        for acc in result.client_accounts:
            assert "send_retry_timeout" not in acc.breakdown()

    def test_exactly_one_attempt_per_cycle(self, result):
        # Outage-only config, fallback on: no crashes, no misses, so every
        # expected cycle makes exactly one attempt, plus one extra per
        # successful failover re-upload.
        rep = result.report
        assert rep.cycles_missed == 0
        assert result.monitor.send_attempts == rep.cycles_expected + rep.cycles_failover

    def test_no_timeout_attempts(self, result):
        assert result.monitor.timeout_attempts == 0


class TestZeroTimeoutAnalytic:
    @pytest.fixture(scope="class")
    def result(self, cloud):
        # Probed: seed 0 yields 80 fallback cycles over 4 cycles x 40 clients.
        return run_faulty_fleet(40, cloud, faults=_outage_none(), n_cycles=4, seed=0)

    def test_failures_occurred(self, result):
        assert result.report.cycles_fallback + result.report.cycles_failover > 0

    def test_zero_radio_energy_charged(self, result):
        assert result.report.retry_energy_j == 0.0
        assert float(result.retry_energy_j.sum()) == 0.0

    def test_exactly_one_attempt_per_cycle(self, result):
        # One attempt per expected cycle (orphans fail instantly, once),
        # plus one extra per successful failover re-upload.
        rep = result.report
        assert rep.cycles_missed == 0
        assert result.monitor.send_attempts == rep.cycles_expected + rep.cycles_failover

    def test_no_timeout_attempts(self, result):
        assert result.monitor.timeout_attempts == 0


class TestChargedRadioTimeInvariant:
    """Charged retry airtime == timeout_attempts × timeout_s, both paths."""

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_des_radio_time_matches_timeouts(self, cloud, seed):
        fc = FaultConfig(
            server_outage=ServerOutage(mtbf_s=1800.0, repair_s=300.0),
            link_blackout=LinkBlackout(mtbf_s=3600.0, repair_s=120.0),
        )
        r = run_des_faulty_fleet(40, cloud, faults=fc, n_cycles=3, seed=seed)
        charged = sum(
            acc.category_duration("send_retry_timeout")
            for acc in r.client_accounts
            if "send_retry_timeout" in acc.breakdown()
        )
        assert charged == pytest.approx(
            r.monitor.timeout_attempts * fc.retry.timeout_s, rel=1e-12
        )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_analytic_retry_energy_matches_timeouts(self, cloud, seed):
        fc = FaultConfig(server_outage=ServerOutage(mtbf_s=1800.0, repair_s=300.0))
        r = run_faulty_fleet(40, cloud, faults=fc, n_cycles=4, seed=seed)
        send_w = cloud.client.active_tasks.get("send_audio").power
        # The analytic path has no aborted partial sends, so the whole
        # itemized retry energy is timeout airtime.
        assert r.report.retry_energy_j == pytest.approx(
            r.monitor.timeout_attempts * fc.retry.timeout_s * send_w, rel=1e-12
        )


class TestLadderProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        max_retries=st.integers(min_value=0, max_value=4),
        timeout_s=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        base=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        factor=st.floats(min_value=1.0, max_value=3.0, allow_nan=False),
        jitter=st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_radio_time_is_timeouts_wallclock_adds_backoffs(
        self, max_retries, timeout_s, base, factor, jitter, seed
    ):
        p = RetryPolicy(
            max_retries=max_retries,
            timeout_s=timeout_s,
            backoff_base_s=base,
            backoff_factor=factor,
            jitter=jitter,
        )
        watts = 2.487
        n_attempts = 1 + p.max_retries
        # Charged radio time of a fully exhausted ladder is the timeouts
        # alone — backoffs are slept with the radio off.
        radio_s = p.exhausted_energy_j(watts) / watts
        assert radio_s == pytest.approx(n_attempts * p.timeout_s, rel=1e-12, abs=1e-12)
        # The realized wall-clock is timeouts + the jittered backoffs the
        # run actually incurred, each inside its nominal jitter band and
        # never past the worst-case bound.
        delays = p.delays_s(seed)
        assert len(delays) == p.max_retries
        for i, d in enumerate(delays):
            nominal = p.nominal_delay_s(i)
            assert nominal * (1 - p.jitter) - 1e-9 <= d <= nominal * (1 + p.jitter) + 1e-9
        wall = n_attempts * p.timeout_s + sum(delays)
        assert wall <= p.worst_case_duration_s() + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_zero_timeout_first_failure_is_free(self, seed):
        p = RetryPolicy.none()
        assert p.attempt_energy_j(2.487) == 0.0
        assert p.exhausted_energy_j(2.487) == 0.0
        assert p.delays_s(seed) == []
        assert p.worst_case_duration_s() == 0.0

"""Integration tests: every instrumented entry point reconciles its ledger.

The tentpole contract (ISSUE 4): with a collector attached, each run's
per-phase energy attribution sums to the run's independently computed total
within 1e-6 relative, the span tree covers every phase the run exercised,
and with no collector the instrumentation is a no-op.
"""

import numpy as np
import pytest

from repro.core.dessim import run_des_fleet
from repro.core.routines import make_scenario
from repro.core.simulate import simulate_fleet
from repro.core.sweep import sweep_clients
from repro.faults.config import FaultConfig, LinkBlackout
from repro.faults.desfaults import run_des_faulty_fleet
from repro.faults.spec import ServerOutage
from repro.faults.fleetsim import run_faulty_fleet
from repro.obs import Obs, observing


@pytest.fixture(scope="module")
def cloud():
    return make_scenario("edge+cloud", "svm", max_parallel=35)


@pytest.fixture(scope="module")
def faults():
    return FaultConfig(
        server_outage=ServerOutage(mtbf_s=1800.0, repair_s=300.0),
        link_blackout=LinkBlackout(mtbf_s=3600.0, repair_s=120.0),
    )


def _span_names(obs):
    return {s.name for s in obs.trace.spans}


def _assert_reconciles(obs, total):
    ledger = obs.ledger
    assert ledger.reconciles(rtol=1e-6, atol=1e-9)
    assert ledger.expected_total_j == pytest.approx(total, rel=1e-12)
    assert ledger.total_energy_j == pytest.approx(total, rel=1e-6)


class TestSimulateFleet:
    def test_reconciles_and_traces(self, cloud):
        obs = Obs()
        r = simulate_fleet(120, cloud, obs=obs)
        _assert_reconciles(obs, r.total_energy_j)
        names = _span_names(obs)
        assert "fleet_cycle" in names
        assert {"phase:sense", "phase:infer", "phase:transfer", "phase:sleep",
                "phase:idle"} <= names
        assert obs.metrics.counter("fleet.runs").value == 1
        assert obs.metrics.counter("fleet.clients_active").value == 120

    def test_nothing_attributed_to_other(self, cloud):
        obs = Obs()
        simulate_fleet(50, cloud, obs=obs)
        assert obs.ledger.energy_j("other") == 0.0


class TestSweep:
    def test_reconciles_over_whole_sweep(self, cloud):
        obs = Obs()
        r = sweep_clients(np.arange(0, 200, 7), cloud, obs=obs)
        _assert_reconciles(obs, float(r.total_energy_j.sum()))


class TestDesFleet:
    @pytest.mark.parametrize("cohort", [False, True])
    def test_reconciles(self, cloud, cohort):
        obs = Obs()
        r = run_des_fleet(50, cloud, n_cycles=2, cohort=cohort, obs=obs)
        _assert_reconciles(obs, r.total_energy_j)
        assert "des_fleet" in _span_names(obs)
        assert obs.metrics.counter("des.events_fired").value > 0
        assert obs.metrics.histogram("des.events_per_run").count == 1

    def test_cohort_and_per_client_attribute_identically(self, cloud):
        totals = {}
        for cohort in (False, True):
            obs = Obs()
            run_des_fleet(50, cloud, n_cycles=2, cohort=cohort, obs=obs)
            totals[cohort] = obs.ledger.total_energy_j
        assert totals[False] == pytest.approx(totals[True], rel=1e-12)


class TestFaultPaths:
    @pytest.mark.parametrize("cohort", [False, True])
    def test_des_faulty_reconciles(self, cloud, faults, cohort):
        obs = Obs()
        r = run_des_faulty_fleet(
            60, cloud, faults=faults, n_cycles=4, seed=3, cohort=cohort, obs=obs
        )
        _assert_reconciles(obs, r.total_energy_j)
        assert "des_faulty_fleet" in _span_names(obs)
        assert (
            obs.metrics.counter("faults.cycles_expected").value
            == r.report.cycles_expected
        )
        assert obs.metrics.gauge("faults.availability").value == r.availability

    def test_des_faulty_retry_phase_populated(self, cloud, faults):
        # Probed: seed 4 burns retry timeouts under this config.
        obs = Obs()
        run_des_faulty_fleet(40, cloud, faults=faults, n_cycles=3, seed=4, obs=obs)
        assert obs.ledger.energy_j("retry") > 0.0
        assert "phase:retry" in _span_names(obs)

    def test_analytic_faulty_reconciles(self, cloud, faults):
        obs = Obs()
        r = run_faulty_fleet(60, cloud, faults=faults, n_cycles=4, seed=3, obs=obs)
        _assert_reconciles(obs, r.total_energy_j)
        assert "faulty_fleet" in _span_names(obs)

    def test_analytic_faulty_metrics_are_sim_clock_only(self, cloud, faults):
        # repro.obs is sim-clock: same-seed runs record equal metrics, and
        # the slot geometry a policy selects never shows in the metric names.
        def metrics(policy):
            obs = Obs()
            run_faulty_fleet(
                60, cloud, faults=faults, n_cycles=4, seed=3, policy=policy, obs=obs
            )
            return obs.metrics.to_dict()

        first_fit = metrics(None)
        assert metrics(None) == first_fit
        round_robin = metrics("round-robin")
        assert metrics("round-robin") == round_robin
        assert set(first_fit) == set(round_robin)

    def test_analytic_edge_only_reconciles(self):
        edge = make_scenario("edge", "svm")
        obs = Obs()
        r = run_faulty_fleet(30, edge, faults=FaultConfig.none(), n_cycles=3, obs=obs)
        _assert_reconciles(obs, r.total_energy_j)


class TestAmbientCollector:
    def test_observing_covers_all_paths(self, cloud, faults):
        obs = Obs()
        with observing(obs):
            r1 = simulate_fleet(40, cloud)
            r2 = run_des_fleet(20, cloud)
            r3 = run_faulty_fleet(20, cloud, faults=faults, seed=1)
        total = r1.total_energy_j + r2.total_energy_j + r3.total_energy_j
        _assert_reconciles(obs, total)
        assert obs.metrics.counter("fleet.runs").value == 2  # analytic paths
        assert obs.metrics.counter("des.runs").value == 1

    def test_no_collector_records_nothing(self, cloud):
        fresh = Obs()
        simulate_fleet(40, cloud)  # no obs anywhere
        assert len(fresh.metrics) == 0
        assert fresh.trace.spans == []

"""Tests for event-driven fault injection on the DES kernel."""

import math

import pytest

from repro.core.dessim import run_des_fleet
from repro.core.losses import ClientLoss, LossConfig
from repro.core.routines import make_scenario
from repro.faults.config import FaultConfig
from repro.faults.desfaults import DesFaultyResult, run_des_faulty_fleet
from repro.faults.spec import ClientCrash, ServerOutage


@pytest.fixture(scope="module")
def cloud():
    return make_scenario("edge+cloud", "svm", max_parallel=35)


@pytest.fixture(scope="module")
def cloud_small():
    return make_scenario("edge+cloud", "svm", max_parallel=3)  # capacity 54


class TestValidation:
    def test_edge_only_rejected(self):
        edge = make_scenario("edge", "svm")
        with pytest.raises(ValueError, match="needs a server"):
            run_des_faulty_fleet(10, edge, FaultConfig.none())

    def test_loss_c_rejected(self, cloud):
        with pytest.raises(ValueError, match="client_crash"):
            run_des_faulty_fleet(
                10,
                cloud,
                FaultConfig.none(),
                losses=LossConfig(client_loss=ClientLoss(0.1, 0.02)),
            )


class TestIdealEquivalence:
    def test_empty_schedule_matches_ideal_des(self, cloud):
        # An injector with infinite MTBF compiles to an empty timetable, so
        # the faulty DES must reproduce the ideal DES ledgers exactly.
        ideal = run_des_fleet(12, cloud, n_cycles=2)
        faulty = run_des_faulty_fleet(
            12,
            cloud,
            FaultConfig(server_outage=ServerOutage(mtbf_s=math.inf, repair_s=0.0)),
            n_cycles=2,
            seed=0,
        )
        assert faulty.edge_energy_j == pytest.approx(ideal.edge_energy_j, abs=1e-6)
        assert faulty.server_energy_j == pytest.approx(ideal.server_energy_j, abs=1e-6)
        assert faulty.availability == 1.0
        assert faulty.report.resilience_energy_j == 0.0

    def test_run_des_fleet_delegates_active_faults(self, cloud):
        result = run_des_fleet(
            12,
            cloud,
            n_cycles=1,
            faults=FaultConfig(server_outage=ServerOutage(mtbf_s=600.0, repair_s=300.0)),
            seed=0,
        )
        assert isinstance(result, DesFaultyResult)


class TestMidCycleOutage:
    @pytest.fixture(scope="class")
    def result(self, cloud_small):
        # Seed 4 (probed): the outage lands so that retries, failover to the
        # surviving server AND local fallback all happen in one run.
        return run_des_faulty_fleet(
            60,
            cloud_small,
            FaultConfig(server_outage=ServerOutage(mtbf_s=450.0, repair_s=250.0)),
            n_cycles=2,
            seed=4,
        )

    def test_every_expected_cycle_is_resolved(self, result):
        rep = result.report
        assert rep.cycles_expected == 120
        assert rep.cycles_detected + rep.cycles_missed == rep.cycles_expected

    def test_all_resilience_paths_exercised(self, result):
        rep = result.report
        assert rep.cycles_retried > 0
        assert rep.cycles_failover > 0
        assert rep.cycles_fallback > 0
        assert rep.retry_energy_j > 0.0
        assert rep.failover_energy_j > 0.0
        assert rep.fallback_energy_j > 0.0

    def test_fault_lifecycle_is_logged(self, result):
        log = result.monitor.log
        assert log.count("outage_begin") >= 1
        assert log.count("outage_begin") >= log.count("outage_end") - 1
        assert log.count("failover") == result.report.cycles_failover
        times = [e.time for e in log]
        assert times == sorted(times)

    def test_ledgers_stay_positive_and_plausible(self, result, cloud_small):
        assert result.edge_energy_j > 0.0
        assert result.server_energy_j > 0.0
        # Two servers, two cycles: the ledger can't exceed the always-on
        # receive-power envelope.
        envelope = 2 * 2 * result.period * cloud_small.server.receive_watts
        assert result.server_energy_j < envelope


class TestClientCrashDes:
    def test_crashed_cycles_are_missed(self, cloud):
        r = run_des_faulty_fleet(
            10,
            cloud,
            FaultConfig(client_crash=ClientCrash(mtbf_s=600.0, repair_s=0.0)),
            n_cycles=4,
            seed=1,
        )
        rep = r.report
        assert rep.cycles_missed > 0
        assert r.availability < 1.0
        assert rep.cycles_detected + rep.cycles_missed == 40
        # Zero-repair crashes burn no resilience energy: the cycle is
        # silently skipped (loss-C convention).
        assert rep.retry_energy_j == 0.0
        assert rep.fallback_energy_j == 0.0

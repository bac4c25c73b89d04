"""Tests for the analytic cycle-level faulty-fleet simulation."""

import numpy as np
import pytest

from repro.core.losses import ClientLoss, LossConfig
from repro.core.routines import make_scenario
from repro.core.simulate import simulate_fleet
from repro.faults.config import FaultConfig
from repro.faults.fleetsim import run_faulty_fleet
from repro.faults.spec import ClientCrash, LinkBlackout, LinkDegradation, ServerOutage


@pytest.fixture(scope="module")
def cloud():
    return make_scenario("edge+cloud", "svm", max_parallel=35)


@pytest.fixture(scope="module")
def cloud_small():
    # Two small servers (capacity 36 each) so failover has somewhere to go.
    return make_scenario("edge+cloud", "svm", max_parallel=2)


class TestIdealEquivalence:
    @pytest.mark.parametrize("n_clients", [1, 35, 40, 100])
    def test_faults_off_is_bit_for_bit_ideal(self, cloud, n_clients):
        ideal = simulate_fleet(n_clients, cloud)
        faulty = run_faulty_fleet(n_clients, cloud, FaultConfig.none(), n_cycles=2)
        assert float(faulty.edge_energy_j[0]) == ideal.edge_energy_j
        assert float(faulty.edge_energy_j[1]) == ideal.edge_energy_j
        assert float(faulty.server_energy_j[0]) == ideal.server_energy_j
        assert faulty.report.availability == 1.0
        assert faulty.resilience_energy_j == 0.0

    def test_edge_only_faults_off_is_ideal(self):
        edge = make_scenario("edge", "svm")
        ideal = simulate_fleet(10, edge)
        faulty = run_faulty_fleet(10, edge, FaultConfig.none(), n_cycles=3)
        assert float(faulty.edge_energy_j.sum()) == pytest.approx(3 * ideal.edge_energy_j)
        assert float(faulty.server_energy_j.sum()) == 0.0

    def test_inactive_specs_are_still_ideal(self, cloud):
        # An injector that never fires must not perturb anything.
        ideal = simulate_fleet(40, cloud)
        faulty = run_faulty_fleet(
            40,
            cloud,
            FaultConfig(server_outage=ServerOutage(mtbf_s=float("inf"), repair_s=0.0)),
            n_cycles=2,
            seed=0,
        )
        assert float(faulty.edge_energy_j[0]) == ideal.edge_energy_j

    def test_loss_c_must_be_expressed_as_crash(self, cloud):
        with pytest.raises(ValueError, match="ClientCrash"):
            run_faulty_fleet(
                40,
                cloud,
                FaultConfig.none(),
                losses=LossConfig(client_loss=ClientLoss(0.1, 0.02)),
            )


class TestClientCrash:
    def test_crashes_void_cycles_and_save_edge_energy(self, cloud):
        crash = ClientCrash(mtbf_s=1500.0, repair_s=0.0)  # ~18 % per cycle
        r = run_faulty_fleet(
            50, cloud, FaultConfig(client_crash=crash), n_cycles=20, seed=1
        )
        rep = r.report
        assert rep.cycles_expected == 50 * 20
        assert rep.cycles_missed > 0
        assert rep.cycles_detected + rep.cycles_missed == rep.cycles_expected
        assert r.availability < 1.0
        assert np.all(r.n_active <= 50)
        assert int(r.n_active.sum()) == rep.cycles_detected
        # Crashed clients spend nothing: edge energy scales with survivors.
        per_active = r.edge_energy_j / np.maximum(r.n_active, 1)
        assert np.allclose(per_active, cloud.client.cycle_energy)


class TestServerOutage:
    def test_failover_repacks_into_surviving_server(self, cloud_small):
        # Seed 1 downs servers while a survivor still has spare capacity
        # (probed: 32 failovers, 4 fallbacks over 3 cycles).
        r = run_faulty_fleet(
            40,
            cloud_small,
            FaultConfig(server_outage=ServerOutage(mtbf_s=900.0, repair_s=600.0)),
            n_cycles=3,
            seed=1,
        )
        rep = r.report
        assert rep.cycles_failover > 0
        assert rep.retry_energy_j > 0.0  # orphans burned their retry budget
        assert rep.failover_energy_j > 0.0  # plus one extra upload each
        assert r.availability == 1.0  # failover + fallback cover everyone
        assert rep.cloud_availability < 1.0
        assert int(r.n_servers_down.sum()) > 0

    def test_concurrent_outages_count_each_cycle_once(self, cloud_small):
        # Regression: repacking downed servers one at a time could land an
        # orphan on another server that was itself down the same cycle,
        # recording that client's cycle twice (failover *and* fallback) and
        # pushing availability above 1.0.
        cfg = FaultConfig(server_outage=ServerOutage(mtbf_s=900.0, repair_s=600.0))
        for seed in range(10):
            r = run_faulty_fleet(40, cloud_small, cfg, n_cycles=3, seed=seed)
            rep = r.report
            assert rep.cycles_detected + rep.cycles_missed == rep.cycles_expected
            assert r.availability <= 1.0

    def test_fallback_off_turns_unplaced_into_missed(self, cloud_small):
        cfg = FaultConfig(server_outage=ServerOutage(mtbf_s=900.0, repair_s=600.0))
        with_fb = run_faulty_fleet(40, cloud_small, cfg, n_cycles=3, seed=0)
        without = run_faulty_fleet(
            40,
            cloud_small,
            FaultConfig(server_outage=cfg.server_outage, fallback=False),
            n_cycles=3,
            seed=0,
        )
        assert with_fb.report.cycles_fallback > 0
        assert without.report.cycles_missed == with_fb.report.cycles_fallback
        assert without.availability < 1.0

    def test_downed_server_draws_no_power_while_down(self, cloud):
        # One server, always down: the fleet falls back locally and the
        # server ledger holds only the idle power of its up-fraction.
        r = run_faulty_fleet(
            35,
            cloud,
            FaultConfig(server_outage=ServerOutage(mtbf_s=1e-3, repair_s=1e9)),
            n_cycles=2,
            seed=0,
        )
        assert np.all(r.n_servers_down == 1)
        assert float(r.server_energy_j.sum()) < cloud.server.idle_watts * 2 * r.period
        assert r.report.cloud_availability == 0.0
        assert r.availability == 1.0  # everyone degraded to local inference


class TestLinkFaults:
    def test_degradation_charges_extra_airtime_only(self, cloud):
        r = run_faulty_fleet(
            40,
            cloud,
            FaultConfig(
                link_degradation=LinkDegradation(
                    mtbf_s=600.0, repair_s=1800.0, throughput_factor=0.25
                )
            ),
            n_cycles=4,
            seed=3,
        )
        rep = r.report
        assert rep.degradation_energy_j > 0.0
        assert rep.retry_energy_j == 0.0
        assert r.availability == 1.0  # degraded uploads still land
        send = cloud.client.active_tasks.get("send_audio")
        # Worst case: every client degraded every cycle at 4x stretch.
        assert rep.degradation_energy_j <= 40 * 4 * send.power * cloud.server.transfer_s * 3.0

    def test_blackout_recovers_or_falls_back(self, cloud):
        r = run_faulty_fleet(
            40,
            cloud,
            FaultConfig(
                link_blackout=LinkBlackout(mtbf_s=1200.0, repair_s=30.0),
            ),
            n_cycles=6,
            seed=2,
        )
        rep = r.report
        assert rep.retry_energy_j > 0.0
        assert rep.cycles_retried + rep.cycles_fallback > 0
        assert rep.cycles_detected == rep.cycles_expected  # fallback on


class TestLedgerConsistency:
    def test_itemized_arrays_match_report(self, cloud_small):
        r = run_faulty_fleet(
            40,
            cloud_small,
            FaultConfig(
                server_outage=ServerOutage(mtbf_s=900.0, repair_s=600.0),
                link_blackout=LinkBlackout(mtbf_s=1800.0, repair_s=60.0),
            ),
            n_cycles=4,
            seed=5,
        )
        rep = r.report
        assert float(r.retry_energy_j.sum()) == pytest.approx(rep.retry_energy_j)
        assert float(r.failover_energy_j.sum()) == pytest.approx(rep.failover_energy_j)
        assert float(r.fallback_energy_j.sum()) == pytest.approx(rep.fallback_energy_j)
        assert float(r.degradation_energy_j.sum()) == pytest.approx(
            rep.degradation_energy_j
        )
        # Resilience buckets live inside the edge ledger.
        baseline = r.n_active * cloud_small.client.cycle_energy
        overhead = (
            r.retry_energy_j + r.failover_energy_j + r.fallback_energy_j + r.degradation_energy_j
        )
        assert np.allclose(r.edge_energy_j, baseline + overhead)

    def test_input_validation(self, cloud):
        # n_clients=0 is valid since PR 4 (tests/core/test_zero_fleet.py);
        # only negative fleets and empty horizons are rejected.
        with pytest.raises(ValueError):
            run_faulty_fleet(-1, cloud)
        with pytest.raises(ValueError):
            run_faulty_fleet(10, cloud, n_cycles=0)

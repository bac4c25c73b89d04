"""Regression tests: n_clients=0 is well-defined on every path (PR 4).

An empty fleet used to raise ``n_clients must be >= 1`` on the DES and
fault paths; every entry point now returns empty/zero ledgers, per-client
means are 0.0 (never NaN or a ZeroDivisionError), and the full invariant
suite accepts the empty runs.
"""

import math

import numpy as np
import pytest

from repro.core.dessim import run_des_fleet
from repro.core.routines import make_scenario
from repro.core.simulate import simulate_fleet
from repro.core.sweep import sweep_clients
from repro.faults.config import FaultConfig
from repro.faults.desfaults import run_des_faulty_fleet
from repro.faults.fleetsim import run_faulty_fleet
from repro.faults.spec import ServerOutage


@pytest.fixture(scope="module")
def cloud():
    return make_scenario("edge+cloud", "svm", max_parallel=35)


@pytest.fixture(scope="module")
def edge():
    return make_scenario("edge", "svm")


@pytest.fixture(scope="module")
def faults():
    return FaultConfig(server_outage=ServerOutage(mtbf_s=1800.0, repair_s=300.0))


class TestAnalytic:
    @pytest.mark.parametrize("scen", ["cloud", "edge"])
    def test_simulate_fleet_zero(self, scen, cloud, edge, request):
        scenario = {"cloud": cloud, "edge": edge}[scen]
        r = simulate_fleet(0, scenario, validate=True)
        assert r.n_clients_initial == 0
        assert r.n_servers == 0
        assert r.total_energy_j == 0.0
        assert r.edge_energy_per_client == 0.0
        assert r.total_energy_per_active_client == 0.0

    def test_sweep_with_zero_entry(self, cloud):
        r = sweep_clients(np.array([0, 5, 0, 40]), cloud, validate=True)
        assert r.total_energy_j[0] == 0.0
        assert r.total_energy_j[2] == 0.0
        assert r.n_servers[0] == 0
        per_client = r.total_energy_per_client
        assert math.isfinite(per_client[0]) and per_client[0] == 0.0
        assert per_client[1] > 0.0

    def test_sweep_all_zero(self, cloud):
        r = sweep_clients(np.array([0]), cloud, validate=True)
        assert float(r.total_energy_j.sum()) == 0.0


class TestDes:
    @pytest.mark.parametrize("cohort", [False, True])
    def test_run_des_fleet_zero(self, cloud, cohort):
        r = run_des_fleet(0, cloud, n_cycles=2, cohort=cohort, validate=True)
        assert r.n_clients == 0
        assert r.client_accounts == ()
        assert r.server_accounts == ()
        assert r.total_energy_j == 0.0
        assert r.edge_energy_per_client_cycle == 0.0
        assert r.expand_client_accounts() == ()

    def test_run_des_fleet_zero_edge_only(self, edge):
        r = run_des_fleet(0, edge, validate=True)
        assert r.total_energy_j == 0.0

    def test_negative_still_rejected(self, cloud):
        with pytest.raises(ValueError, match=">= 0"):
            run_des_fleet(-1, cloud)


class TestFaultPaths:
    @pytest.mark.parametrize("cohort", [False, True])
    def test_des_faulty_zero(self, cloud, faults, cohort):
        r = run_des_faulty_fleet(
            0, cloud, faults=faults, n_cycles=2, seed=0, cohort=cohort, validate=True
        )
        assert r.n_clients == 0
        assert r.total_energy_j == 0.0
        assert r.availability == 1.0
        assert r.edge_energy_per_client_cycle == 0.0

    def test_analytic_faulty_zero(self, cloud, faults):
        r = run_faulty_fleet(0, cloud, faults=faults, n_cycles=2, seed=0, validate=True)
        assert r.n_clients == 0
        assert r.total_energy_j == 0.0
        assert r.availability == 1.0
        assert r.mean_total_per_client_cycle == 0.0

    def test_analytic_faulty_zero_edge_only(self, edge):
        r = run_faulty_fleet(0, edge, faults=FaultConfig.none(), n_cycles=2, validate=True)
        assert r.total_energy_j == 0.0

    def test_negative_still_rejected(self, cloud, faults):
        with pytest.raises(ValueError, match=">= 0"):
            run_des_faulty_fleet(-1, cloud, faults=faults)
        with pytest.raises(ValueError, match=">= 0"):
            run_faulty_fleet(-1, cloud, faults=faults)

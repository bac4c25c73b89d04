"""Closed-form first-fit geometry: bit-identity to the per-client geometry.

:func:`run_faulty_fleet` runs a first-fit fleet on the closed-form slot
geometry and every other policy on the per-client ``Allocation`` geometry.
Forced onto the per-client geometry through the private ``_slot_geometry``
hook, a first-fit run hands the shared accounting the same operands in the
same order, so *everything* must match exactly — per-cycle ledgers, the
monitor report, attempt counters, and the store-and-forward buffer ledger.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.losses import LossConfig, SaturationPenalty, TransferTimePenalty
from repro.core.routines import EDGE_SVM, make_scenario
from repro.faults import fleetsim
from repro.faults.config import FaultConfig
from repro.faults.fleetsim import run_faulty_fleet
from repro.faults.spec import ClientCrash, LinkBlackout, LinkDegradation, ServerOutage
from repro.network.buffer import BLOCK, BufferSpec
from repro.network.outage import OutagePattern

CLOUD = make_scenario("edge+cloud", "svm", max_parallel=10)

SERIES = (
    "edge_energy_j", "server_energy_j", "retry_energy_j", "failover_energy_j",
    "fallback_energy_j", "degradation_energy_j", "n_active", "n_servers_down",
    "buffered_energy_j", "drain_energy_j",
)


def assert_faulty_bit_identical(oracle, closed):
    for field in SERIES:
        a, s = getattr(closed, field), getattr(oracle, field)
        if s is None:
            assert a is None
            continue
        assert np.array_equal(a, s), field
    assert closed.report == oracle.report
    assert closed.monitor.send_attempts == oracle.monitor.send_attempts
    assert closed.monitor.timeout_attempts == oracle.monitor.timeout_attempts
    assert (closed.buffer_report is None) == (oracle.buffer_report is None)
    if oracle.buffer_report is not None:
        assert closed.buffer_report == oracle.buffer_report
    assert closed.total_energy_j == oracle.total_energy_j


def golden_faults():
    return FaultConfig(
        server_outage=ServerOutage(mtbf_s=900.0, repair_s=240.0),
        link_blackout=LinkBlackout(mtbf_s=2400.0, repair_s=60.0),
        client_crash=ClientCrash(mtbf_s=6000.0, repair_s=0.0),
    )


def per_client(**kw):
    """A first-fit run forced onto the per-client ``Allocation`` geometry."""
    with mock.patch.object(
        fleetsim, "_slot_geometry", lambda policy: fleetsim._AllocationSlots
    ):
        return run_faulty_fleet(**kw)


def compare(tag, **kw):
    oracle = per_client(**kw)
    closed = run_faulty_fleet(**kw)
    assert_faulty_bit_identical(oracle, closed)
    return oracle


class TestBitIdentity:
    def test_golden_analytic_config(self):
        res = compare(
            "golden", n_clients=80, scenario=CLOUD, faults=golden_faults(),
            n_cycles=6, seed=3, validate=True,
        )
        assert res.report.cycles_missed > 0  # the config actually faults

    def test_edge_only(self):
        compare(
            "edge", n_clients=40, scenario=EDGE_SVM, faults=golden_faults(),
            n_cycles=6, seed=5, validate=True,
        )

    def test_outage_with_buffer_drain(self):
        faults = FaultConfig(
            link_outage=OutagePattern.duty_cycle(4 * 3600.0, 2 * 3600.0),
            buffer=BufferSpec.for_cycles(4),
        )
        res = compare(
            "outage", n_clients=60, scenario=CLOUD, faults=faults,
            n_cycles=48, seed=3, validate=True,
        )
        assert res.buffer_report.delivered_payloads > 0  # drains exercised

    def test_outage_block_policy(self):
        faults = FaultConfig(
            link_outage=OutagePattern.duty_cycle(4 * 3600.0, 2 * 3600.0),
            buffer=BufferSpec.for_cycles(2, policy=BLOCK),
        )
        compare(
            "block", n_clients=60, scenario=CLOUD, faults=faults,
            n_cycles=48, seed=11, validate=True,
        )

    def test_all_fault_classes_with_losses(self):
        faults = FaultConfig(
            link_outage=OutagePattern.duty_cycle(4 * 3600.0, 2 * 3600.0),
            buffer=BufferSpec.for_cycles(4),
            server_outage=ServerOutage(mtbf_s=900.0, repair_s=240.0),
            link_blackout=LinkBlackout(mtbf_s=2400.0, repair_s=60.0),
            client_crash=ClientCrash(mtbf_s=6000.0, repair_s=0.0),
            link_degradation=LinkDegradation(
                mtbf_s=1800.0, repair_s=300.0, throughput_factor=0.5
            ),
        )
        losses = LossConfig(
            saturation=SaturationPenalty(), transfer=TransferTimePenalty()
        )
        compare(
            "everything", n_clients=50, scenario=CLOUD, faults=faults,
            n_cycles=24, seed=9, losses=losses, validate=True,
        )

    def test_no_fallback_misses(self):
        faults = FaultConfig(
            server_outage=ServerOutage(mtbf_s=600.0, repair_s=600.0), fallback=False
        )
        compare(
            "no-fallback", n_clients=40, scenario=CLOUD, faults=faults,
            n_cycles=10, seed=4, validate=True,
        )

    def test_empty_fleet(self):
        compare(
            "empty", n_clients=0, scenario=CLOUD, faults=golden_faults(),
            n_cycles=3, seed=1, validate=True,
        )

    @settings(max_examples=20, deadline=None)
    @given(
        n_clients=st.integers(min_value=0, max_value=90),
        n_cycles=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
        srv_mtbf=st.sampled_from([None, 400.0, 900.0, 3600.0]),
        blk_mtbf=st.sampled_from([None, 1200.0, 2400.0]),
        crash_mtbf=st.sampled_from([None, 3000.0, 6000.0]),
        degr_mtbf=st.sampled_from([None, 1800.0]),
        outage=st.booleans(),
        lossy=st.booleans(),
    )
    def test_property_random_fault_configs(
        self, n_clients, n_cycles, seed, srv_mtbf, blk_mtbf, crash_mtbf,
        degr_mtbf, outage, lossy,
    ):
        kw = {}
        if srv_mtbf:
            kw["server_outage"] = ServerOutage(mtbf_s=srv_mtbf, repair_s=240.0)
        if blk_mtbf:
            kw["link_blackout"] = LinkBlackout(mtbf_s=blk_mtbf, repair_s=60.0)
        if crash_mtbf:
            kw["client_crash"] = ClientCrash(mtbf_s=crash_mtbf, repair_s=0.0)
        if degr_mtbf:
            kw["link_degradation"] = LinkDegradation(
                mtbf_s=degr_mtbf, repair_s=300.0, throughput_factor=0.5
            )
        if outage:
            kw["link_outage"] = OutagePattern.duty_cycle(3 * 3600.0, 2 * 3600.0)
            kw["buffer"] = BufferSpec.for_cycles(3)
        losses = (
            LossConfig(saturation=SaturationPenalty(), transfer=TransferTimePenalty())
            if lossy
            else None
        )
        compare(
            "prop", n_clients=n_clients, scenario=CLOUD, faults=FaultConfig(**kw),
            n_cycles=n_cycles, seed=seed, losses=losses, validate=False,
        )


class TestDispatch:
    def test_first_fit_runs_closed_form(self, monkeypatch):
        picked = []
        real = fleetsim._slot_geometry
        monkeypatch.setattr(
            fleetsim, "_slot_geometry",
            lambda policy: picked.append(real(policy)) or picked[-1],
        )
        run_faulty_fleet(10, CLOUD, faults=golden_faults(), n_cycles=2, seed=0)
        assert picked == [fleetsim._FirstFitSlots]

    @pytest.mark.parametrize(
        "policy",
        ["round-robin", "balanced", "best-fit", "worst-fit", "solar-budget", "swarm-scored"],
    )
    def test_auto_falls_back_for_custom_policy(self, policy):
        from repro.core.allocator import resolve_policy

        faults = FaultConfig(
            server_outage=ServerOutage(mtbf_s=900.0, repair_s=240.0),
            link_blackout=LinkBlackout(mtbf_s=2400.0, repair_s=60.0),
            client_crash=ClientCrash(mtbf_s=6000.0, repair_s=0.0),
            link_outage=OutagePattern.duty_cycle(4 * 3600.0, 2 * 3600.0),
            buffer=BufferSpec.for_cycles(4),
        )
        pol = resolve_policy(policy)
        assert fleetsim._slot_geometry(pol) is fleetsim._AllocationSlots
        res = run_faulty_fleet(
            60, CLOUD, faults=faults, n_cycles=24, seed=9, policy=pol, validate=True,
        )
        assert res.n_clients == 60  # the per-client geometry served the request
        assert res.report.cycles_failover + res.report.cycles_buffered > 0

    def test_rejects_loss_model_c(self):
        from repro.core.losses import ClientLoss

        losses = LossConfig(client_loss=ClientLoss(0.1, 0.05))
        with pytest.raises(ValueError, match="ClientCrash"):
            run_faulty_fleet(5, CLOUD, losses=losses)

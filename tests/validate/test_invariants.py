"""Unit tests for the invariant-checking layer (repro.validate)."""

from __future__ import annotations

import math

import pytest

from repro.core.cohort import check_partition
from repro.core.dessim import run_des_fleet
from repro.core.routines import EDGE_CLOUD_SVM, EDGE_SVM, make_scenario
from repro.core.server import SlotPlan
from repro.core.allocator import Allocation, ServerAssignment
from repro.energy.account import EnergyAccount
from repro.validate.errors import InvariantViolation
from repro.validate.invariants import (
    AvailabilityBounds,
    CohortPartition,
    LedgerConservation,
    battery_delta,
    check_monotone_nonincreasing,
    run_checkers,
    validate_des_run,
)
from repro.validate.state import (
    checks_run,
    reset_check_count,
    resolve,
    set_validation,
    validation,
    validation_enabled,
)


class TestInvariantViolation:
    def test_is_value_error(self):
        exc = InvariantViolation("energy-conservation", "boom")
        assert isinstance(exc, ValueError)

    def test_message_carries_name_and_context(self):
        exc = InvariantViolation("slot-occupancy", "too full", {"server": 3})
        assert exc.invariant == "slot-occupancy"
        assert "slot-occupancy" in str(exc)
        assert "too full" in str(exc)
        assert "server=3" in str(exc)
        assert exc.context == {"server": 3}

    def test_with_context_merges(self):
        exc = InvariantViolation("x", "m", {"a": 1}).with_context(b=2)
        assert exc.context == {"a": 1, "b": 2}
        assert exc.invariant == "x"


class TestValidationState:
    def test_default_off(self):
        assert validation_enabled() is False
        assert resolve(None) is False

    def test_explicit_wins_over_global(self):
        with validation(True):
            assert resolve(False) is False
        assert resolve(True) is True

    def test_context_manager_restores(self):
        assert not validation_enabled()
        with validation(True):
            assert validation_enabled()
            with validation(False):
                assert not validation_enabled()
            assert validation_enabled()
        assert not validation_enabled()

    def test_set_validation_round_trip(self):
        set_validation(True)
        try:
            assert validation_enabled()
            assert resolve(None) is True
        finally:
            set_validation(False)

    def test_check_counter(self):
        reset_check_count()
        assert checks_run() == 0
        run_checkers(object(), [], {})
        assert checks_run() == 0
        with validation(True):
            run_des_fleet(5, EDGE_SVM, n_cycles=1)
        assert checks_run() > 0


class TestBatteryDelta:
    def test_replay_matches_total(self):
        acc = EnergyAccount(owner="dev")
        acc.charge("collect", 12.5, 3.0)
        acc.charge("sleep", 100.0, 250.0)
        assert battery_delta(acc) == pytest.approx(acc.total, rel=1e-12)

    def test_empty_account(self):
        assert battery_delta(EnergyAccount(owner="idle")) == 0.0


class TestLedgerConservation:
    def _result(self):
        return run_des_fleet(4, EDGE_CLOUD_SVM, n_cycles=1)

    def test_clean_run_passes(self):
        result = self._result()
        run_checkers(result, [LedgerConservation("client_accounts")], {})

    def test_negative_category_raises(self):
        result = self._result()
        result.client_accounts[0]._totals["sleep"] = -1.0
        with pytest.raises(InvariantViolation) as exc:
            run_checkers(result, [LedgerConservation("client_accounts")], {})
        assert exc.value.invariant == "energy-conservation"

    def test_nan_category_raises(self):
        result = self._result()
        result.client_accounts[1]._totals["collect"] = float("nan")
        with pytest.raises(InvariantViolation):
            run_checkers(result, [LedgerConservation("client_accounts")], {})

    def test_corrupted_ledger_trips_validate_des_run(self):
        """Acceptance check: a deliberately corrupted energy ledger raises."""
        result = self._result()
        result.client_accounts[0]._totals["phantom_task"] = 42.0
        with pytest.raises(InvariantViolation):
            validate_des_run(result, scenario=EDGE_CLOUD_SVM)


class TestSlotOccupancy:
    def _plan(self):
        return SlotPlan.for_server(EDGE_CLOUD_SVM.server, 300.0)

    def test_overfull_slot_raises_structured(self):
        plan = self._plan()
        too_many = tuple(range(plan.max_parallel + 1))
        alloc = Allocation((ServerAssignment(0, (too_many,)),), plan)
        with pytest.raises(InvariantViolation) as exc:
            alloc.validate()
        assert exc.value.invariant == "slot-occupancy"
        assert "max_parallel" in str(exc.value)

    def test_duplicate_client_raises_structured(self):
        plan = self._plan()
        alloc = Allocation((ServerAssignment(0, ((7,), (7,))),), plan)
        with pytest.raises(InvariantViolation, match="client 7 allocated twice"):
            alloc.validate()


class TestCohortPartition:
    def test_check_partition_accepts_partition(self):
        check_partition([(0, 2), (1,), (3, 4)], 5)

    def test_check_partition_rejects_duplicate(self):
        with pytest.raises(ValueError, match="two cohorts"):
            check_partition([(0, 1), (1, 2)], 3)

    def test_check_partition_rejects_gap(self):
        with pytest.raises(ValueError, match="without a cohort"):
            check_partition([(0,), (2,)], 3)

    def test_check_partition_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            check_partition([(0, 5)], 3)

    def test_checker_on_cohort_run(self):
        result = run_des_fleet(50, EDGE_CLOUD_SVM, n_cycles=1, cohort=True)
        run_checkers(result, [CohortPartition()], {})

    def test_checker_rejects_bad_multiplicity(self):
        result = run_des_fleet(50, EDGE_CLOUD_SVM, n_cycles=1, cohort=True)
        bad = result.client_multiplicities[:-1] + (result.client_multiplicities[-1] + 1,)
        object.__setattr__(result, "client_multiplicities", bad)
        with pytest.raises(InvariantViolation) as exc:
            run_checkers(result, [CohortPartition()], {})
        assert exc.value.invariant == "cohort-partition"


class TestAvailabilityBounds:
    def test_faulty_run_passes(self):
        from repro.faults.config import FaultConfig
        from repro.faults.fleetsim import run_faulty_fleet
        from repro.faults.spec import ServerOutage

        scenario = make_scenario("edge+cloud", "svm", max_parallel=10)
        faults = FaultConfig(server_outage=ServerOutage(mtbf_s=1200.0, repair_s=300.0))
        result = run_faulty_fleet(30, scenario, faults=faults, n_cycles=3, seed=1)
        run_checkers(result, [AvailabilityBounds()], {"expected_cycles": 90})

    def test_wrong_expected_cycles_raises(self):
        from repro.faults.config import FaultConfig
        from repro.faults.fleetsim import run_faulty_fleet
        from repro.faults.spec import ServerOutage

        scenario = make_scenario("edge+cloud", "svm", max_parallel=10)
        faults = FaultConfig(server_outage=ServerOutage(mtbf_s=1200.0, repair_s=300.0))
        result = run_faulty_fleet(30, scenario, faults=faults, n_cycles=3, seed=1)
        with pytest.raises(InvariantViolation) as exc:
            run_checkers(result, [AvailabilityBounds()], {"expected_cycles": 91})
        assert exc.value.invariant == "availability-bounds"


class TestMonotone:
    def test_accepts_non_increasing(self):
        check_monotone_nonincreasing([1.0, 1.0, 0.9, 0.5])

    def test_rejects_increase(self):
        with pytest.raises(InvariantViolation, match="increases at index 1"):
            check_monotone_nonincreasing([1.0, 0.8, 0.9])


class TestSweepValidation:
    def test_sweep_cross_check_catches_drift(self):
        import numpy as np

        from repro.core.sweep import sweep_clients
        from repro.validate.invariants import validate_sweep_result

        sweep = sweep_clients(range(10, 200, 10), EDGE_CLOUD_SVM)
        validate_sweep_result(sweep, EDGE_CLOUD_SVM, 300.0)
        tampered = np.array(sweep.server_energy_j)
        tampered[0] *= 1.001
        object.__setattr__(sweep, "server_energy_j", tampered)
        with pytest.raises(InvariantViolation) as exc:
            validate_sweep_result(sweep, EDGE_CLOUD_SVM, 300.0)
        assert exc.value.invariant == "sweep-cross-check"


class TestEngineChecks:
    def test_drained_property(self):
        from repro.des.engine import Engine

        eng = Engine()
        assert eng.drained
        eng.timeout(5.0)
        assert not eng.drained
        eng.run()
        assert eng.drained

    def test_check_clock_runs_clean(self):
        from repro.des.engine import Engine

        eng = Engine(check_clock=True)
        fired = []

        def proc():
            yield eng.timeout(1.0)
            fired.append(eng.now)
            yield eng.timeout(2.0)
            fired.append(eng.now)

        eng.process(proc())
        eng.run()
        assert fired == [1.0, 3.0]

    def test_clock_monotonicity_checker_flags_undrained_engine(self):
        from repro.des.engine import Engine
        from repro.validate.invariants import ClockMonotonicity

        eng = Engine()
        eng.timeout(10.0)
        with pytest.raises(InvariantViolation) as exc:
            run_checkers(object(), [ClockMonotonicity()], {"engine": eng})
        assert exc.value.invariant == "clock-monotonicity"


def test_validated_paths_report_zero_violations():
    """Acceptance check: all checkers enabled, zero violations on real runs."""
    from repro.faults.config import FaultConfig
    from repro.faults.desfaults import run_des_faulty_fleet
    from repro.faults.spec import ServerOutage

    reset_check_count()
    with validation(True):
        run_des_fleet(20, EDGE_CLOUD_SVM, n_cycles=2)
        run_des_fleet(60, EDGE_CLOUD_SVM, n_cycles=2, cohort=True)
        scenario = make_scenario("edge+cloud", "svm", max_parallel=10)
        run_des_faulty_fleet(
            24,
            scenario,
            faults=FaultConfig(server_outage=ServerOutage(mtbf_s=900.0, repair_s=200.0)),
            n_cycles=2,
            seed=11,
        )
    assert checks_run() >= 18  # 7 + 7 + 6 checkers minimum across the three runs

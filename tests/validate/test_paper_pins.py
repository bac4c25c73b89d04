"""Golden pins against the paper's published numbers.

These are *paper* regressions, not self-consistency checks: each assertion
compares a measured quantity against the value printed in the source paper
(Tables I/II, Figure 3) with an explicit tolerance.  If one of these moves,
the model no longer reproduces the publication — that is never a
"regenerate the golden" situation (see docs/TESTING.md).
"""

from __future__ import annotations

import pytest

from repro.core.calibration import CYCLE_SECONDS, PAPER
from repro.experiments.registry import run_experiment


def _comparisons(result):
    return {c.quantity: c for c in result.comparisons}


class TestTableI:
    """Table I: the edge routine — 89 s, 2.14 W, 190.1 J — and per-task split."""

    def test_routine_calibration_matches_paper(self):
        assert PAPER.routine.duration_s == 89.0
        assert PAPER.routine.energy_j == pytest.approx(190.1, abs=0.05)
        assert PAPER.routine.power_w == pytest.approx(2.14, abs=0.005)
        assert CYCLE_SECONDS == 300.0

    def test_table1_totals_within_half_percent(self):
        result = run_experiment("table1")
        for comparison in result.comparisons:
            assert comparison.measured_value == pytest.approx(
                comparison.paper_value, rel=5e-3
            ), comparison.quantity

    def test_edge_cycle_energy_pins(self):
        result = run_experiment("table1")
        by_quantity = _comparisons(result)
        svm = next(c for q, c in by_quantity.items() if "svm" in q.lower())
        assert svm.paper_value == pytest.approx(PAPER.edge_svm_total_j)
        assert svm.measured_value == pytest.approx(366.3, rel=2e-3)


class TestTableII:
    """Table II: edge+cloud split — light client, heavy (shared) server."""

    def test_table2_totals_within_one_percent(self):
        result = run_experiment("table2")
        for comparison in result.comparisons:
            assert comparison.measured_value == pytest.approx(
                comparison.paper_value, rel=1e-2
            ), comparison.quantity

    def test_client_side_pin(self):
        result = run_experiment("table2")
        client = next(
            c for c in result.comparisons if c.quantity == "edge+cloud (svm) edge total (J)"
        )
        assert client.paper_value == pytest.approx(PAPER.edge_cloud_client_j)
        assert client.measured_value == pytest.approx(322.0, rel=1e-2)


class TestFig3:
    """Figure 3: 1.19 W at the 5-minute period, converging to the 0.62 W floor."""

    def test_power_at_5min(self):
        result = run_experiment("fig3")
        powers = result.series["average_power_w"]
        periods = result.series["period_s"]
        assert periods[0] == pytest.approx(300.0)
        assert powers[0] == pytest.approx(1.19, rel=2e-2)

    def test_converges_to_sleep_floor(self):
        result = run_experiment("fig3")
        powers = result.series["average_power_w"]
        assert powers[-1] == pytest.approx(0.62, rel=0.10)
        assert powers[-1] >= PAPER.sleep_watts  # floor is the sleep draw

    def test_monotone_decrease(self):
        from repro.validate.invariants import check_monotone_nonincreasing

        result = run_experiment("fig3")
        check_monotone_nonincreasing(
            result.series["average_power_w"], invariant="fig3-monotone"
        )

    def test_within_tolerance_flags_set(self):
        result = run_experiment("fig3")
        for comparison in result.comparisons:
            assert comparison.within_tolerance is True, comparison.quantity

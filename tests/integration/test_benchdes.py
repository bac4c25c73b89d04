"""``bench-desscale``: report rows and argument checking (repro.benchdes)."""

import pytest

from repro.benchdes import bench_size, main


def test_small_fleet_row_is_bit_identical():
    # At the report's default 5 cycles the cohort and per-client edge sums
    # agree to the last bit (at 2 cycles they differ in the last ulp).
    row = bench_size(25, n_cycles=5, repeats=1)
    assert row["edge_energy_rel_diff"] == 0.0
    assert row["analytic_rel_diff"] < 1e-12  # per-cycle division: ulp-level
    assert row["capped"] is False
    assert row["per_client_s"] > 0.0 and row["cohort_s"] > 0.0
    assert not [key for key in row if "array" in key]


@pytest.mark.parametrize(
    "argv", [["--repeats", "0"], ["--cycles", "0"], ["--sizes", "1000,-5"]]
)
def test_bad_arguments_are_usage_errors(argv, tmp_path):
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()

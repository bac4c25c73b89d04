"""``bench-desscale``: DES fleet-scaling benchmark (per-client vs cohort).

Times the event-driven fleet simulator at increasing fleet sizes on two
paths — the per-client replay (one generator per client) and the exact
cohort-aggregated fast path (one process per distinct deterministic
context) — and writes a machine-readable report to ``BENCH_desscale.json``.

The committed ``BENCH_desscale.json`` at the repository root is the
acceptance artifact for the cohort path: it must show the cohort run of a
10 000-client edge+cloud fleet over 5 cycles at least 10× faster than the
per-client run, and ``edge_energy_rel_diff == 0.0`` (bit-identity) on
every row.  ``docs/PERFORMANCE.md`` explains how to read the fields.

Usage::

    bench-desscale                      # defaults: 1k/10k/100k/1M, 5 cycles
    bench-desscale --sizes 1000,1000000 --out /tmp/bench.json
    python -m repro.benchdes --repeats 5
"""

from __future__ import annotations

import argparse
import platform
import sys
import time
from typing import List, Optional

from repro.core.dessim import run_des_fleet
from repro.core.routines import EDGE_CLOUD_SVM
from repro.core.simulate import simulate_fleet

#: Fleet sizes above this are timed on the cohort path only: the
#: per-client path is O(clients) generators and would dominate the
#: benchmark's runtime without adding information (its per-client cost is
#: ~flat).  Capped rows carry ``"per_client_s": null, "capped": true`` so
#: downstream tooling need not infer the cap from the sizes.
PER_CLIENT_CAP = 100_000


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_size(n_clients: int, n_cycles: int, repeats: int) -> dict:
    """Time both DES paths at one fleet size and cross-check their energies."""
    scenario = EDGE_CLOUD_SVM
    row: dict = {"n_clients": n_clients, "n_cycles": n_cycles}

    cohort_res = run_des_fleet(n_clients, scenario, n_cycles=n_cycles, cohort=True)
    row["cohort_s"] = _best_of(
        lambda: run_des_fleet(n_clients, scenario, n_cycles=n_cycles, cohort=True), repeats
    )
    row["n_client_cohorts"] = len(cohort_res.client_accounts)
    row["n_server_cohorts"] = len(cohort_res.server_accounts)

    if n_clients <= PER_CLIENT_CAP:
        per_res = run_des_fleet(n_clients, scenario, n_cycles=n_cycles, cohort=False)
        row["per_client_s"] = _best_of(
            lambda: run_des_fleet(n_clients, scenario, n_cycles=n_cycles, cohort=False),
            repeats,
        )
        row["capped"] = False
        row["speedup"] = row["per_client_s"] / row["cohort_s"]
        per_edge = per_res.edge_energy_j
    else:
        row["per_client_s"] = None
        row["capped"] = True
        row["speedup"] = None
        # Above the cap the per-client reference is reconstructed from the
        # cohort run: summing the expanded per-member view accumulates in
        # client-id order, exactly like the per-client result's
        # ``edge_energy_j``, so bit-identity stays checkable at every size.
        per_edge = sum(acc.total for acc in cohort_res.expand_client_accounts())

    denom = per_edge or 1.0
    row["edge_energy_rel_diff"] = abs(per_edge - cohort_res.edge_energy_j) / denom

    analytic = simulate_fleet(n_clients, scenario)
    row["edge_energy_j_cohort"] = cohort_res.edge_energy_j
    row["analytic_rel_diff"] = (
        abs(cohort_res.edge_energy_j / n_cycles - analytic.edge_energy_j)
        / analytic.edge_energy_j
    )
    return row


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _fleet_sizes(text: str) -> List[int]:
    sizes = [_positive_int(s) for s in text.split(",") if s.strip()]
    if not sizes:
        raise argparse.ArgumentTypeError("needs at least one fleet size")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench-desscale",
        description="Benchmark the DES fleet simulator: per-client vs cohort fast path.",
    )
    parser.add_argument(
        "--sizes", type=_fleet_sizes, default="1000,10000,100000,1000000",
        help="comma-separated fleet sizes (default: 1000,10000,100000,1000000)",
    )
    parser.add_argument(
        "--cycles", type=_positive_int, default=5, help="simulated cycles per run (default 5)"
    )
    parser.add_argument(
        "--repeats", type=_positive_int, default=3, help="timing repeats, best-of (default 3)"
    )
    parser.add_argument("--out", default="BENCH_desscale.json", help="output JSON path")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    results = []
    for n in args.sizes:
        row = bench_size(n, args.cycles, args.repeats)
        results.append(row)
        speed = f"{row['speedup']:.1f}x" if row["speedup"] is not None else "n/a"
        per = f"{row['per_client_s']:.3f}s" if row["per_client_s"] is not None else "capped"
        print(
            f"n={n:>8}: per-client {per:>9}  cohort {row['cohort_s']:.4f}s ({speed:>7})  "
            f"cohorts {row['n_client_cohorts']}+{row['n_server_cohorts']}"
        )
    report = {
        "benchmark": "des-scale",
        "scenario": "edge+cloud svm (paper §VI-B fleet)",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "per_client_cap": PER_CLIENT_CAP,
        "results": results,
    }
    from repro.util.atomic import atomic_write_json

    atomic_write_json(args.out, report)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

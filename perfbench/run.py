"""Benchmark of the live serving stack and the batch fleet simulator.

Run from the repository root:

    python3 perfbench/run.py --workload serve-inproc --seed 1 --seconds 10 --trace 0

Workloads (see README.md for why each exists): ``serve-inproc``,
``serve-http``, ``serve-faults`` and ``batch``.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs the same workload with a span at
every layer boundary and reports per-layer metrics instead.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from spans import Spans
from workloads import ROOT, SLICE_S, WORKLOADS, Outcome

#: Per-request self time of each serve layer, in microseconds.
SERVE_LAYERS_US = ("arrivals", "loadgen", "transport", "engine", "alloc", "pricing",
                   "faults", "shed", "trace", "obs")


def quantile(ordered, q: float) -> float:
    """Nearest-rank quantile of a sorted list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(out: Outcome) -> dict:
    """Each figure as the program sustained it in three quarters of the slices.

    Throughput, p50 and p99 are taken per slice of measured time, then the
    lower quartile of the slice rates and the upper quartile of the slice
    latencies are reported.  On a shared host the CPU's speed switches
    between regimes that last seconds or longer, as other tenants come and
    go; a quartile stays in the slow regime unless the run barely sees it,
    where a figure over the whole run follows whichever regime held most of
    it.  A short last slice is left out.
    """
    slices = [s for s in out.slices if s.seconds >= SLICE_S] or out.slices
    rates = sorted(len(s.latencies_s) / s.seconds for s in slices)
    latencies = [sorted(s.latencies_s) for s in slices]
    p50s = sorted(quantile(lat, 0.50) for lat in latencies)
    p99s = sorted(quantile(lat, 0.99) for lat in latencies)
    return {
        "throughput_ops_s": (quantile(rates, 0.25), "1/s"),
        "latency_p50_ms": (quantile(p50s, 0.75) * 1e3, "ms"),
        "latency_p99_ms": (quantile(p99s, 0.75) * 1e3, "ms"),
        "setup_s": (statistics.median(out.setup_s), "s"),
    }


def per_layer(out: Outcome, spans: Spans) -> dict:
    counts = out.counts
    requests = int(counts.get("requests", 0))
    studies = int(counts.get("studies", 0))
    saves = int(counts.get("checkpoint_saves", 0))
    inferences = counts.get("cloud", 0) + counts.get("edge", 0)
    metrics = {f"{layer}_us": (spans.per_op(layer, requests, 1e3), "us")
               for layer in SERVE_LAYERS_US}
    metrics.update({
        "checkpoint_ms": (spans.per_op("checkpoint", saves, 1e6), "ms"),
        "spans_per_request": (spans.n_spans / requests if requests else 0.0, "count"),
        "checkpoint_saves": (saves, "count"),
        "requests": (requests, "count"),
        "shed_ratio": (counts.get("shed", 0) / requests if requests else 0.0, "ratio"),
        "cloud_ratio": (counts.get("cloud", 0) / inferences if inferences else 0.0, "ratio"),
        "server_failures": (int(counts.get("server_failures", 0)), "count"),
        "studies": (studies, "count"),
        "des_loop_ms": (spans.per_op("des_loop", studies, 1e6), "ms"),
    })
    large = counts.get("large_fleets", 0)
    for layer, runs in (("des_ideal", studies), ("des_faulty", studies),
                        ("fault_kernel", studies), ("des_large", large)):
        seconds = counts.get(f"{layer}_s", 0.0)
        metrics[f"{layer}_ms"] = (seconds * 1e3 / runs if runs else 0.0, "ms")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if hasattr(os, "sched_setaffinity"):
        # The host's CPUs differ in how often other tenants slow them down,
        # and a process that migrates between them changes speed mid-run.
        # The benchmark and every process it starts stay on one CPU.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    spans = Spans() if args.trace else None
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        out = WORKLOADS[args.workload](args.seed, args.seconds, spans, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = per_layer(out, spans) if spans is not None else end_to_end(out)
    for problem in out.problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

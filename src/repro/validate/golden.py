"""Golden-trace regression harness (``repro-golden``).

Records canonical *fingerprints* of the paper's tables/figures and of the
fault/cohort/parallel simulation paths into versioned JSON files under
``tests/golden/``, and diffs fresh runs against them field by field.  A
fingerprint is deliberately small — rounded scalar summaries plus SHA-256
hashes of the full series/event traces — so drift is caught without
committing megabytes of arrays, and the differ can say *which* quantity
moved and by how much.

Workflow
--------
``repro-golden --check``
    Re-run every case and diff against the committed goldens; exit 1 and
    print a per-field drift report on any mismatch (``--report out.json``
    also writes the report as machine-readable JSON — CI uploads it as an
    artifact).
``repro-golden --update``
    Regenerate the golden files after an *intentional* model change.  The
    diff of ``tests/golden/*.json`` then documents exactly what moved, and
    the PR review answers whether the drift is legitimate (see
    ``docs/TESTING.md``).
``repro-golden --list`` / ``--only case1,case2``
    Enumerate or restrict cases.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Bump when the fingerprint *structure* changes (not when values drift).
FINGERPRINT_VERSION = 1

#: Default location of the committed goldens (repo layout: src/repro/validate/).
GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden"

#: Relative tolerance when diffing stored vs fresh scalars.  Fingerprint
#: scalars are canonically rounded to 10 significant digits, so same-machine
#: reruns match exactly; the band absorbs cross-platform libm noise while
#: still flagging any real drift (perturbations land at 1e-3 and above).
DIFF_RTOL = 1e-6
DIFF_ATOL = 1e-9


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


def round_sig(value: float, sig: int = 10) -> float:
    """Round to ``sig`` significant digits (canonical fingerprint scalar)."""
    if not math.isfinite(value):
        return value
    return float(f"{value:.{sig}g}")


def hash_floats(values, sig: int = 6) -> str:
    """SHA-256 over ``sig``-significant-digit renderings of ``values``.

    The coarse rendering makes the hash stable across platforms' last-ulp
    differences while still changing for any perturbation above ~1e-5
    relative.
    """
    joined = ",".join(f"{float(v):.{sig}g}" for v in values)
    return hashlib.sha256(joined.encode()).hexdigest()


def hash_lines(lines) -> str:
    """SHA-256 over newline-joined canonical event/trace lines."""
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def account_fingerprint(account) -> Dict[str, Any]:
    """Canonical form of one :class:`~repro.energy.account.EnergyAccount`."""
    return {
        "total_j": round_sig(account.total),
        "categories": {k: round_sig(v) for k, v in sorted(account.breakdown().items())},
    }


def timeline_trace(device) -> List[str]:
    """Canonical per-segment lines of a device's state timeline."""
    return [
        f"{t0:.6g} {t1:.6g} {state}"
        for t0, t1, state in device.timeline.segments()
    ]


def event_trace(log) -> List[str]:
    """Canonical lines of a :class:`~repro.des.monitor.EventLog`."""
    lines = []
    for ev in log:
        detail = " ".join(f"{k}={ev.detail[k]}" for k in sorted(ev.detail))
        lines.append(f"{ev.time:.6g} {ev.kind} {detail}".rstrip())
    return lines


# ---------------------------------------------------------------------------
# case fingerprints
# ---------------------------------------------------------------------------


def _experiment_fingerprint(experiment_id: str, **kwargs) -> Dict[str, Any]:
    from repro.experiments.registry import run_experiment

    return run_experiment(experiment_id, **kwargs).fingerprint()


def _des_common(res) -> Dict[str, Any]:
    from repro.energy.account import EnergyAccount

    fleet = EnergyAccount.sum(res.client_accounts, owner="clients")
    return {
        "n_clients": res.n_clients,
        "n_cycles": res.n_cycles,
        "edge_energy_j": round_sig(res.edge_energy_j),
        "server_energy_j": round_sig(res.server_energy_j),
        "total_energy_j": round_sig(res.total_energy_j),
        "edge_per_client_cycle_j": round_sig(res.edge_energy_per_client_cycle),
        "client_categories": account_fingerprint(fleet)["categories"],
        "n_client_accounts": len(res.client_accounts),
        "n_server_accounts": len(res.server_accounts),
    }


def _case_des_ideal() -> Dict[str, Any]:
    from repro.core.dessim import run_des_fleet
    from repro.core.routines import EDGE_CLOUD_SVM

    res = run_des_fleet(37, EDGE_CLOUD_SVM, n_cycles=2, validate=True)
    fp = _des_common(res)
    fp["client0"] = account_fingerprint(res.client_accounts[0])
    fp["server0"] = account_fingerprint(res.server_accounts[0])
    return fp


def _case_des_cohort() -> Dict[str, Any]:
    from repro.core.dessim import run_des_fleet
    from repro.core.routines import EDGE_CLOUD_SVM

    res = run_des_fleet(200, EDGE_CLOUD_SVM, n_cycles=2, cohort=True, validate=True)
    fp = _des_common(res)
    fp["multiplicities"] = list(res.client_multiplicities)
    fp["server_multiplicities"] = list(res.server_multiplicities)
    fp["cohort_layout_sha256"] = hash_lines(
        [",".join(map(str, ids)) for ids in res.client_cohorts]
    )
    return fp


def _golden_faults():
    from repro.faults.config import FaultConfig
    from repro.faults.spec import ClientCrash, LinkBlackout, ServerOutage

    return FaultConfig(
        server_outage=ServerOutage(mtbf_s=900.0, repair_s=240.0),
        link_blackout=LinkBlackout(mtbf_s=2400.0, repair_s=60.0),
        client_crash=ClientCrash(mtbf_s=6000.0, repair_s=0.0),
    )


def _faulty_common(res) -> Dict[str, Any]:
    report = res.report
    return {
        "availability": round_sig(report.availability),
        "cloud_availability": round_sig(report.cloud_availability),
        "cycles": {
            "expected": report.cycles_expected,
            "ok": report.cycles_ok,
            "retried": report.cycles_retried,
            "failover": report.cycles_failover,
            "fallback": report.cycles_fallback,
            "missed": report.cycles_missed,
        },
        "retry_energy_j": round_sig(report.retry_energy_j),
        "failover_energy_j": round_sig(report.failover_energy_j),
        "fallback_energy_j": round_sig(report.fallback_energy_j),
        "degradation_energy_j": round_sig(report.degradation_energy_j),
        "n_fault_events": report.n_fault_events,
    }


def _case_des_faulty(cohort: bool = False) -> Dict[str, Any]:
    from repro.core.routines import make_scenario
    from repro.faults.desfaults import run_des_faulty_fleet

    scenario = make_scenario("edge+cloud", "svm", max_parallel=10)
    res = run_des_faulty_fleet(
        60, scenario, faults=_golden_faults(), n_cycles=4, seed=7, cohort=cohort,
        validate=True,
    )
    fp = _faulty_common(res)
    fp.update(
        {
            "n_clients": res.n_clients,
            "n_cycles": res.n_cycles,
            "edge_energy_j": round_sig(res.edge_energy_j),
            "server_energy_j": round_sig(res.server_energy_j),
            "total_energy_j": round_sig(res.total_energy_j),
            "event_trace_sha256": hash_lines(event_trace(res.monitor.log)),
            "n_schedule_windows": len(res.schedule.windows),
        }
    )
    if cohort:
        fp["multiplicities_sha256"] = hash_lines(
            [",".join(map(str, ids)) for ids in res.client_cohorts]
        )
        fp["n_client_accounts"] = len(res.client_accounts)
    return fp


def _case_faulty_analytic() -> Dict[str, Any]:
    from repro.core.routines import make_scenario
    from repro.faults.fleetsim import run_faulty_fleet

    scenario = make_scenario("edge+cloud", "svm", max_parallel=10)
    res = run_faulty_fleet(
        80, scenario, faults=_golden_faults(), n_cycles=6, seed=3, validate=True
    )
    fp = _faulty_common(res)
    fp.update(
        {
            "n_clients": res.n_clients,
            "n_cycles": res.n_cycles,
            "total_energy_j": round_sig(res.total_energy_j),
            "mean_total_per_client_cycle_j": round_sig(res.mean_total_per_client_cycle),
            "edge_series_sha256": hash_floats(res.edge_energy_j),
            "server_series_sha256": hash_floats(res.server_energy_j),
            "n_active_series": [int(v) for v in res.n_active],
            "n_servers_down_series": [int(v) for v in res.n_servers_down],
        }
    )
    return fp


def _case_faulty_array() -> Dict[str, Any]:
    """The closed-form first-fit geometry must match the per-client
    ``Allocation`` geometry exactly (ledgers, monitor report and buffer
    ledger) before its pin is taken."""
    from unittest import mock

    import numpy as np

    from repro.core.routines import make_scenario
    from repro.faults import fleetsim
    from repro.faults.config import FaultConfig
    from repro.faults.fleetsim import run_faulty_fleet
    from repro.faults.spec import ClientCrash, LinkBlackout, ServerOutage
    from repro.network.buffer import BufferSpec
    from repro.network.outage import OutagePattern

    scenario = make_scenario("edge+cloud", "svm", max_parallel=10)
    faults = FaultConfig(
        server_outage=ServerOutage(mtbf_s=900.0, repair_s=240.0),
        link_blackout=LinkBlackout(mtbf_s=2400.0, repair_s=60.0),
        client_crash=ClientCrash(mtbf_s=6000.0, repair_s=0.0),
        link_outage=OutagePattern.duty_cycle(4 * 3600.0, 2 * 3600.0),
        buffer=BufferSpec.for_cycles(4),
    )
    kwargs = dict(faults=faults, n_cycles=24, seed=9, validate=True)
    closed = run_faulty_fleet(60, scenario, **kwargs)
    with mock.patch.object(
        fleetsim, "_slot_geometry", lambda policy: fleetsim._AllocationSlots
    ):
        oracle = run_faulty_fleet(60, scenario, **kwargs)
    for field in (
        "edge_energy_j", "server_energy_j", "retry_energy_j", "failover_energy_j",
        "fallback_energy_j", "degradation_energy_j", "buffered_energy_j",
        "drain_energy_j", "n_active", "n_servers_down",
    ):
        if not np.array_equal(getattr(closed, field), getattr(oracle, field)):
            raise RuntimeError(f"closed-form faulty geometry diverged on {field}")
    if closed.report != oracle.report or closed.buffer_report != oracle.buffer_report:
        raise RuntimeError("closed-form faulty geometry report diverged")
    fp = _faulty_common(closed)
    fp.update(
        {
            "n_clients": closed.n_clients,
            "n_cycles": closed.n_cycles,
            "total_energy_j": round_sig(closed.total_energy_j),
            "edge_series_sha256": hash_floats(closed.edge_energy_j),
            "server_series_sha256": hash_floats(closed.server_energy_j),
            "drain_series_sha256": hash_floats(closed.drain_energy_j),
            "delivered_data_fraction": round_sig(closed.delivered_data_fraction),
            "buffer_delivered": closed.buffer_report.delivered_payloads,
            "buffer_dropped": closed.buffer_report.dropped_payloads,
        }
    )
    return fp


def _case_parallel_crossover() -> Dict[str, Any]:
    """The chunked parallel runner must be bit-identical to a serial run."""
    from repro.experiments.registry import run_experiment

    kwargs = dict(n_clients=70, n_cycles=12, crossover_sizes=(350, 650, 150), seed=0)
    serial = run_experiment("ext-faults", **kwargs).fingerprint()
    parallel = run_experiment("ext-faults", workers=2, **kwargs).fingerprint()
    if serial != parallel:
        raise RuntimeError("parallel ext-faults fingerprint diverged from serial run")
    return serial


def _case_checkpoint_resume() -> Dict[str, Any]:
    """An interrupted-then-resumed run must be bit-identical to a fresh one.

    The run is interrupted *deterministically* — the checkpointer's chaos
    hook raises :class:`~repro.resilience.errors.InterruptedRun` right
    after the second durable save — then resumed from the checkpoint file.
    The resumed fingerprint must equal the uninterrupted fingerprint, which
    is the whole crash-safety contract (docs/RESILIENCE.md).
    """
    import tempfile
    from pathlib import Path

    from repro.experiments.registry import run_experiment
    from repro.resilience.checkpoint import RunCheckpoint, run_key
    from repro.resilience.errors import InterruptedRun

    kwargs = dict(n_clients=70, n_cycles=12, crossover_sizes=(350, 650, 150), seed=0)
    fresh = run_experiment("ext-faults", **kwargs).fingerprint()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ext-faults.ckpt.json"
        key = run_key("ext-faults", kwargs["seed"])
        try:
            run_experiment(
                "ext-faults",
                checkpoint=RunCheckpoint(path, run_key=key, abort_after_saves=2),
                **kwargs,
            )
        except InterruptedRun:
            pass
        else:
            raise RuntimeError("chaos hook did not interrupt the checkpointed run")
        resumed = run_experiment(
            "ext-faults",
            checkpoint=RunCheckpoint(path, run_key=key, resume=True),
            **kwargs,
        ).fingerprint()
    if fresh != resumed:
        raise RuntimeError("resumed ext-faults fingerprint diverged from fresh run")
    return fresh


def _case_serve_trace() -> Dict[str, Any]:
    """Canonical serve-under-load replay (see :mod:`repro.serve.smoke`).

    The builder itself refuses to fingerprint if the replay errors or the
    steady-state live allocation diverges from the batch allocate fold.
    """
    from repro.serve.smoke import smoke_fingerprint

    return smoke_fingerprint()


def _build_cases() -> Dict[str, Tuple[Callable[[], Dict[str, Any]], str]]:
    def fig5_case() -> Dict[str, Any]:
        from repro.audio.dataset import DatasetSpec

        return _experiment_fingerprint(
            "fig5",
            sizes=(20, 60, 100),
            dataset_spec=DatasetSpec.small(n_samples=120, clip_duration=2.0, seed=5),
        )

    return {
        "table1": (lambda: _experiment_fingerprint("table1"), "Table I per-task edge energies"),
        "table2": (lambda: _experiment_fingerprint("table2"), "Table II edge+cloud energies"),
        "fig3": (lambda: _experiment_fingerprint("fig3"), "Fig 3 average power vs wake-up period"),
        "fig5": (fig5_case, "Fig 5 CNN energy/accuracy vs image size (reduced corpus)"),
        "fig7": (lambda: _experiment_fingerprint("fig7"), "Fig 7 edge vs edge+cloud crossover"),
        "fig8": (lambda: _experiment_fingerprint("fig8", seed=42), "Fig 8 loss models A/B/C"),
        "fig9": (lambda: _experiment_fingerprint("fig9", seed=42), "Fig 9 crossover under losses"),
        "des-ideal": (_case_des_ideal, "Per-client DES ledgers, ideal edge+cloud fleet"),
        "des-cohort": (_case_des_cohort, "Cohort-aggregated DES ledgers (exact collapse)"),
        "des-faulty": (lambda: _case_des_faulty(False), "Event-driven faulty fleet + event trace"),
        "des-faulty-cohort": (
            lambda: _case_des_faulty(True),
            "Cohort-aggregated faulty DES (statically-quiet collapse)",
        ),
        "faulty-analytic": (_case_faulty_analytic, "Cycle-level faulty fleet arrays"),
        "faulty-array": (
            _case_faulty_array,
            "Closed-form faulty kernel vs scalar reference (bit-identical)",
        ),
        "ext-outage": (
            lambda: _experiment_fingerprint(
                "ext-outage",
                n_clients=70,
                n_cycles=12,
                crossover_sizes=(350, 650, 150),
                seed=0,
            ),
            "Intermittent-connectivity sweep (reduced grid): outage schedules, "
            "store-and-forward buffering, crossover shift",
        ),
        "ext-policies": (
            lambda: _experiment_fingerprint(
                "ext-policies",
                fleet_sizes=(100, 350),
                seed=0,
            ),
            "Placement-policy sweep (reduced grid): energy and solar "
            "alignment per policy, online == batch pins",
        ),
        "parallel-crossover": (
            _case_parallel_crossover,
            "ext-faults via the chunked parallel runner (serial == parallel)",
        ),
        "checkpoint-resume": (
            _case_checkpoint_resume,
            "ext-faults interrupted at a checkpoint and resumed (resume == fresh)",
        ),
        "serve-trace": (
            _case_serve_trace,
            "Canonical serve-under-load replay: placement trace, response "
            "hashes, steady state == batch fold",
        ),
        "ext-serve-faults": (
            lambda: _experiment_fingerprint(
                "ext-serve-faults",
                policies=("first-fit",),
                fault_levels=(0.0, 3.0),
                queue_bounds=(None, 8),
                n_hives=12,
                horizon_cycles=4,
            ),
            "Fault-injected serving sweep (reduced grid): availability, "
            "shedding, retry energy, zero-fault bit-identity pin",
        ),
    }


def case_ids() -> List[str]:
    return list(_build_cases())


def compute_fingerprint(case_id: str) -> Dict[str, Any]:
    """Run one case and return its canonical fingerprint."""
    cases = _build_cases()
    if case_id not in cases:
        raise KeyError(f"unknown golden case {case_id!r} (known: {', '.join(cases)})")
    builder, _description = cases[case_id]
    return builder()


# ---------------------------------------------------------------------------
# differ
# ---------------------------------------------------------------------------


def diff_fingerprints(
    expected: Any, actual: Any, path: str = "", rtol: float = DIFF_RTOL, atol: float = DIFF_ATOL
) -> List[Dict[str, Any]]:
    """Recursive per-field drift report between two fingerprints.

    Returns a list of drift records ``{field, kind, expected, actual,
    rel_err}``; empty means the fingerprints agree within tolerance.
    """
    drifts: List[Dict[str, Any]] = []

    def visit(exp: Any, act: Any, where: str) -> None:
        if isinstance(exp, dict) and isinstance(act, dict):
            for key in exp:
                if key not in act:
                    drifts.append({"field": f"{where}.{key}".lstrip("."), "kind": "missing",
                                   "expected": exp[key], "actual": None})
                else:
                    visit(exp[key], act[key], f"{where}.{key}")
            for key in act:
                if key not in exp:
                    drifts.append({"field": f"{where}.{key}".lstrip("."), "kind": "extra",
                                   "expected": None, "actual": act[key]})
            return
        if isinstance(exp, list) and isinstance(act, list):
            if len(exp) != len(act):
                drifts.append({"field": where.lstrip("."), "kind": "length",
                               "expected": len(exp), "actual": len(act)})
                return
            for i, (e, a) in enumerate(zip(exp, act)):
                visit(e, a, f"{where}[{i}]")
            return
        if isinstance(exp, bool) or isinstance(act, bool) or isinstance(exp, str) or isinstance(act, str):
            # bool-vs-number counts as drift even though True == 1 in Python.
            if exp != act or isinstance(exp, bool) != isinstance(act, bool):
                drifts.append({"field": where.lstrip("."), "kind": "value-drift",
                               "expected": exp, "actual": act})
            return
        if isinstance(exp, (int, float)) and isinstance(act, (int, float)):
            e, a = float(exp), float(act)
            if math.isfinite(e) and math.isfinite(a):
                err = abs(a - e)
                scale = max(abs(e), abs(a))
                if err > atol + rtol * scale:
                    drifts.append({
                        "field": where.lstrip("."), "kind": "value-drift",
                        "expected": exp, "actual": act,
                        "rel_err": err / scale if scale else math.inf,
                    })
            elif e != a and not (math.isnan(e) and math.isnan(a)):
                drifts.append({"field": where.lstrip("."), "kind": "value-drift",
                               "expected": exp, "actual": act})
            return
        if exp != act:
            drifts.append({"field": where.lstrip("."), "kind": "type",
                           "expected": exp, "actual": act})

    visit(expected, actual, path)
    return drifts


def _drift_severity(drift: Dict[str, Any]) -> float:
    """Ordering key for drift records: numeric drifts rank by relative error;
    structural drifts (missing/extra/length/type) always outrank them."""
    if drift["kind"] != "value-drift":
        return math.inf
    return drift.get("rel_err", math.inf)


def worst_offender(drifts: List[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """The most severe drift record of a case, or ``None`` if it is clean."""
    if not drifts:
        return None
    return max(drifts, key=_drift_severity)


def render_drift_report(report: Dict[str, List[Dict[str, Any]]]) -> str:
    """Human-readable drift report: one block per drifted case, fields
    ordered worst-first, with the worst offender named up front."""
    lines: List[str] = []
    for case_id, drifts in report.items():
        if not drifts:
            continue
        worst = worst_offender(drifts)
        lines.append(
            f"case {case_id}: {len(drifts)} drifted field(s), "
            f"worst: {worst['field']}"
        )
        for d in sorted(drifts, key=_drift_severity, reverse=True):
            rel = f"  rel_err={d['rel_err']:.3g}" if "rel_err" in d else ""
            lines.append(
                f"  [{d['kind']}] {d['field']}: expected={d['expected']!r} "
                f"actual={d['actual']!r}{rel}"
            )
    return "\n".join(lines) if lines else "all golden fingerprints match"


# ---------------------------------------------------------------------------
# storage + CLI
# ---------------------------------------------------------------------------


def golden_path(case_id: str, directory: Optional[Path] = None) -> Path:
    return Path(directory or GOLDEN_DIR) / f"{case_id.replace('/', '_')}.json"


def load_golden(case_id: str, directory: Optional[Path] = None) -> Dict[str, Any]:
    path = golden_path(case_id, directory)
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != FINGERPRINT_VERSION:
        raise ValueError(
            f"golden {case_id!r} has fingerprint version {payload.get('version')!r}, "
            f"this code expects {FINGERPRINT_VERSION} — regenerate with repro-golden --update"
        )
    return payload


def save_golden(case_id: str, fingerprint: Dict[str, Any], directory: Optional[Path] = None) -> Path:
    from repro.util.atomic import atomic_write_json

    cases = _build_cases()
    path = golden_path(case_id, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "case": case_id,
        "version": FINGERPRINT_VERSION,
        "description": cases[case_id][1],
        "fingerprint": fingerprint,
    }
    atomic_write_json(path, payload, sort_keys=True)
    return path


def check_cases(
    only: Optional[List[str]] = None, directory: Optional[Path] = None
) -> Dict[str, List[Dict[str, Any]]]:
    """Run cases and diff against stored goldens; ``{case: drift-list}``.

    A missing golden file is reported as a single ``missing-golden`` drift.
    """
    report: Dict[str, List[Dict[str, Any]]] = {}
    for case_id in only or case_ids():
        try:
            stored = load_golden(case_id, directory)
        except FileNotFoundError:
            report[case_id] = [{
                "field": "<file>", "kind": "missing-golden",
                "expected": str(golden_path(case_id, directory)), "actual": None,
            }]
            continue
        fresh = compute_fingerprint(case_id)
        report[case_id] = diff_fingerprints(stored["fingerprint"], fresh)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-golden",
        description="Golden-trace regression harness: record and diff canonical "
        "fingerprints of every simulation path.",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="diff fresh runs against stored goldens (default)")
    mode.add_argument("--update", action="store_true", help="regenerate the stored goldens")
    mode.add_argument("--list", action="store_true", help="list golden case ids")
    parser.add_argument("--only", default=None, help="comma-separated subset of case ids")
    parser.add_argument("--dir", default=None, help=f"golden directory (default: {GOLDEN_DIR})")
    parser.add_argument("--report", default=None, help="with --check: also write the drift report as JSON")
    args = parser.parse_args(argv)

    cases = _build_cases()
    if args.list:
        for case_id, (_builder, description) in cases.items():
            print(f"{case_id:22s} {description}")
        return 0

    only = None
    if args.only:
        only = [c.strip() for c in args.only.split(",") if c.strip()]
        unknown = [c for c in only if c not in cases]
        if unknown:
            print(f"unknown case ids: {', '.join(unknown)}", file=sys.stderr)
            return 2

    directory = Path(args.dir) if args.dir else None
    if args.update:
        for case_id in only or case_ids():
            path = save_golden(case_id, compute_fingerprint(case_id), directory)
            print(f"updated {path}")
        return 0

    report = check_cases(only, directory)
    drifted = {k: v for k, v in report.items() if v}
    print(render_drift_report(report))
    clean = [k for k in report if k not in drifted]
    if clean:
        print(f"ok: {', '.join(clean)}")
    if args.report:
        from repro.util.atomic import atomic_write_json

        atomic_write_json(
            args.report,
            {
                "version": FINGERPRINT_VERSION,
                "cases": report,
                "drifted": sorted(drifted),
                "worst_offenders": {
                    k: worst_offender(v)["field"] for k, v in drifted.items()
                },
            },
            sort_keys=True,
        )
        print(f"drift report written to {args.report}")
    return 1 if drifted else 0


if __name__ == "__main__":
    raise SystemExit(main())

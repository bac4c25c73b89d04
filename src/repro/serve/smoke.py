"""Serve smoke: one canonical serve-under-load run, pinned end to end.

One configuration — 64 hives, ~5.2k requests over a simulated 4000 s —
is shared by three consumers so they can never drift apart:

* the ``serve-trace`` golden case (``repro-golden``): fingerprints the
  in-process replay (placement-trace SHA-256, response SHA-256, placement
  counts, final occupancies) into ``tests/golden/serve-trace.json``;
* the gating ``serve-smoke`` CI job (``python -m repro.serve.smoke --http``):
  boots a real ``repro-serve`` subprocess, replays the same load over HTTP,
  and requires zero errors, an HTTP trace bit-identical to the in-process
  fold, a match against the committed golden, and an exit within
  :data:`SHUTDOWN_BUDGET_S` of a SIGTERM sent while the client's
  connection is still open;
* the non-gating ``serve-latency`` CI job (``--latency-out``): uploads the
  p50/p99/RPS report as an artifact.

The fingerprint *refuses* to be taken unless the steady-state live
allocation is bit-identical to the batch ``Allocator.allocate`` fold over
the same client set — the acceptance criterion of the serving PR — the
same refuse-then-pin pattern as the ``faulty-array`` case.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.loadgen.arrivals import LoadSpec
from repro.loadgen.replay import HttpTransport, ReplayReport, replay, replay_in_process
from repro.serve.engine import OrchestrationEngine, ServeConfig

#: The canonical smoke load: ~64 × (1 admit + 0.02 Hz × 4000 s) ≈ 5.2k requests.
SMOKE_SPEC = LoadSpec(
    n_hives=64,
    rate_hz=0.02,
    horizon_s=4000.0,
    telemetry_fraction=0.5,
    payload_bytes=1024,
    seed=0xBEE5,
    mode="open",
)


def run_smoke_in_process(
    policy: str = "first-fit", policy_seed: int = 0
) -> Tuple[OrchestrationEngine, ReplayReport]:
    """The canonical replay against an in-process engine under ``policy``."""
    engine = OrchestrationEngine(ServeConfig(policy=policy, policy_seed=policy_seed))
    return replay_in_process(SMOKE_SPEC, engine)


def smoke_fingerprint(policy: str = "first-fit", policy_seed: int = 0) -> Dict[str, Any]:
    """Golden-able fingerprint of the canonical run (raises on any breach)."""
    from repro.validate.golden import round_sig

    engine, report = run_smoke_in_process(policy, policy_seed)
    if report.n_errors:
        raise RuntimeError(f"smoke replay produced {report.n_errors} failed responses")
    if not engine.steady_state_matches_batch():
        raise RuntimeError(
            "steady-state live allocation diverged from the batch allocate fold"
        )
    alloc = engine.live.to_allocation()
    latency = engine.latency_report()
    return {
        "spec": SMOKE_SPEC.describe(),
        # the full engine config header (policy params, link, calibration
        # constants): a retuned engine cannot silently share a fingerprint
        "config": engine.config.describe(),
        "n_requests": report.n_requests,
        "n_errors": report.n_errors,
        "by_op": dict(sorted(report.by_op.items())),
        "placements": dict(sorted(report.placements.items())),
        "response_sha256": report.response_sha256,
        "trace_sha256": engine.trace.fingerprint(),
        "trace_events": engine.trace.n_events,
        "fleet": len(engine.live),
        "servers": engine.live.n_servers,
        "occupancies": [srv.occupancies for srv in alloc.servers],
        "latency": {
            kind: {
                "count": stats["count"],
                "p50_s": round_sig(stats["p50_s"]),
                "p99_s": round_sig(stats["p99_s"]),
            }
            for kind, stats in latency.items()
            if isinstance(stats, dict) and stats.get("count")
        },
        "rps": round_sig(latency["rps"]),
    }


# ---------------------------------------------------------------------------
# subprocess HTTP smoke (the gating CI job)
# ---------------------------------------------------------------------------

#: Seconds ``repro-serve`` may take to exit after SIGTERM in the HTTP smoke.
SHUTDOWN_BUDGET_S = 2.0


def _boot_server(
    tmp: Path, policy: str = "first-fit", policy_seed: int = 0
) -> Tuple[subprocess.Popen, str, Path, Path]:
    """Start ``repro-serve`` on an ephemeral port; returns (proc, url, trace, obs)."""
    port_file = tmp / "port"
    trace_out = tmp / "trace.json"
    obs_out = tmp / "obs.json"
    env = dict(os.environ)
    src = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env['PYTHONPATH']}" if env.get("PYTHONPATH") else str(src)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve.cli",
            "--policy", policy, "--policy-seed", str(policy_seed),
            "--port", "0", "--port-file", str(port_file),
            "--trace-out", str(trace_out), "--obs-out", str(obs_out),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    deadline = time.monotonic() + 30.0
    while not port_file.exists():
        if proc.poll() is not None:
            raise RuntimeError(f"repro-serve exited early with {proc.returncode}")
        if time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError("repro-serve did not write its port file in 30 s")
        time.sleep(0.05)
    port = int(port_file.read_text().strip())
    return proc, f"http://127.0.0.1:{port}", trace_out, obs_out


def run_smoke_http(policy: str = "first-fit", policy_seed: int = 0) -> Dict[str, Any]:
    """Boot a real server, replay the canonical load over HTTP, shut it down.

    Returns ``{report, trace_sha256, trace_events, obs_snapshot}`` read
    back from the server's shutdown artifacts.
    """
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmpdir:
        tmp = Path(tmpdir)
        proc, url, trace_out, obs_out = _boot_server(tmp, policy, policy_seed)
        with HttpTransport(url) as transport:
            try:
                health = transport.health()
                if not health.get("ok"):
                    raise RuntimeError(f"health endpoint not ok: {health}")
                report = replay(SMOKE_SPEC, transport)
            finally:
                # SIGTERM while the transport still holds its idle kept-alive
                # connection, which must not hold up the shutdown.
                proc.send_signal(signal.SIGTERM)
                try:
                    stdout, _ = proc.communicate(timeout=SHUTDOWN_BUDGET_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    raise RuntimeError(
                        f"repro-serve did not shut down within {SHUTDOWN_BUDGET_S:g} s of SIGTERM"
                    )
        if proc.returncode != 0:
            raise RuntimeError(f"repro-serve exited {proc.returncode} on SIGTERM")
        trace = json.loads(trace_out.read_text())
        obs_snapshot = json.loads(obs_out.read_text())
        del stdout
        return {
            "report": report,
            "trace_sha256": trace["sha256"],
            "trace_events": trace["n_events"],
            "obs_snapshot": obs_snapshot,
        }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve-smoke",
        description="Replay the canonical serve load and gate on the golden trace.",
    )
    parser.add_argument("--http", action="store_true",
                        help="also boot a repro-serve subprocess and replay over HTTP")
    parser.add_argument("--policy", default="first-fit",
                        help="placement policy to smoke (non-default skips the "
                             "golden compare; zero-error + bit-identity still gate)")
    parser.add_argument("--policy-seed", type=int, default=0,
                        help="seed for stochastic-score policies (swarm-scored)")
    parser.add_argument("--golden-dir", default=None,
                        help="directory holding serve-trace.json (default: tests/golden)")
    parser.add_argument("--latency-out", default=None,
                        help="write the p50/p99/RPS latency report here (CI artifact)")
    args = parser.parse_args(argv)

    from repro.core.placement import normalize_kind
    from repro.validate.golden import diff_fingerprints, load_golden, render_drift_report

    policy = normalize_kind(args.policy)
    fresh = smoke_fingerprint(policy, args.policy_seed)
    print(f"in-process replay [{policy}]: {fresh['n_requests']} requests, "
          f"{fresh['n_errors']} errors, trace {fresh['trace_sha256'][:16]}…")

    canonical = policy == "first-fit" and args.policy_seed == 0
    if canonical:
        directory = Path(args.golden_dir) if args.golden_dir else None
        stored = load_golden("serve-trace", directory)
        drifts = diff_fingerprints(stored["fingerprint"], fresh)
        if drifts:
            print(render_drift_report({"serve-trace": drifts}))
            return 1
        print("golden serve-trace: match")
    else:
        # only the canonical config is pinned; other policies still gate on
        # zero errors (smoke_fingerprint raised otherwise) and, with --http,
        # on subprocess bit-identity below
        print(f"golden serve-trace: skipped (non-canonical policy {policy})")

    if args.latency_out:
        from repro.util.atomic import atomic_write_json

        engine, _report = run_smoke_in_process(policy, args.policy_seed)
        atomic_write_json(
            args.latency_out,
            {"spec": SMOKE_SPEC.describe(), "policy": policy,
             "latency": engine.latency_report()},
            sort_keys=True,
        )
        print(f"latency report written to {args.latency_out}")

    if args.http:
        http = run_smoke_http(policy, args.policy_seed)
        report: ReplayReport = http["report"]
        if report.n_errors:
            print(f"HTTP replay: {report.n_errors} failed responses")
            return 1
        if report.response_sha256 != fresh["response_sha256"]:
            print("HTTP responses diverged from the in-process replay")
            return 1
        if http["trace_sha256"] != fresh["trace_sha256"]:
            print("HTTP server trace diverged from the in-process fold")
            return 1
        if http["obs_snapshot"].get("schema_version") is None:
            print("server obs snapshot missing schema_version")
            return 1
        print(f"HTTP replay: {report.n_requests} requests, 0 errors, "
              "trace bit-identical to in-process")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Chaos suite: the ``repro-chaos`` scenarios, run under pytest for CI.

Each test drives one scenario function directly (same code path as the
CLI), so a red test names the exact broken guarantee.  The CLI surface
itself — argument handling, exit codes, the ``--chaos-abort-after-saves``
hook on ``repro-exp`` — is covered at the bottom via subprocesses.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.resilience import chaos

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _run_cli(module: str, *args: str, timeout: float = 300.0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (REPO_SRC, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


# -- scenario guarantees ------------------------------------------------------


def test_kill_worker_retried_exact():
    assert "results exact" in chaos.scenario_kill_worker()


def test_hang_worker_reaped_by_deadline():
    assert "results exact" in chaos.scenario_hang_worker()


def test_truncate_checkpoint_never_garbage():
    assert "CheckpointCorrupt" in chaos.scenario_truncate_checkpoint()


def test_stale_schema_refused_with_versions():
    from repro.resilience.checkpoint import CHECKPOINT_SCHEMA

    detail = chaos.scenario_stale_schema()
    assert f"found {CHECKPOINT_SCHEMA + 1}" in detail
    assert f"expected {CHECKPOINT_SCHEMA}" in detail


def test_kill_resume_bit_identical():
    assert "bit-identical" in chaos.scenario_kill_resume()


def test_link_outage_resume_matches_golden():
    assert "matched the committed golden" in chaos.scenario_link_outage_resume()


def test_kill_serve_resume_trace_bit_identical():
    assert "bit-identical" in chaos.scenario_kill_serve_resume()


def test_truncate_serve_log_refuses_short_and_cuts_torn_tail():
    detail = chaos.scenario_truncate_serve_log()
    assert "refused with CheckpointCorrupt" in detail
    assert "the finished replay the uninterrupted one" in detail


# -- CLI surface --------------------------------------------------------------


def test_chaos_cli_lists_every_scenario():
    proc = _run_cli("repro.resilience.chaos", "--list")
    assert proc.returncode == 0
    for name in chaos.SCENARIOS:
        assert name in proc.stdout


def test_chaos_cli_rejects_unknown_scenario():
    proc = _run_cli("repro.resilience.chaos", "no-such-scenario")
    assert proc.returncode == 2
    assert "unknown scenario" in proc.stderr


def test_chaos_cli_runs_selected_scenarios():
    proc = _run_cli("repro.resilience.chaos", "stale-schema", "truncate-checkpoint")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all 2 chaos scenario(s) survived" in proc.stdout


def test_exp_cli_chaos_abort_then_resume_is_byte_identical(tmp_path):
    """The repro-exp flags end to end: deterministic crash at the second
    checkpoint save (exit 130 + resume hint), then --resume completing to a
    JSON document byte-identical to an uninterrupted run's."""
    fresh = tmp_path / "fresh.json"
    resumed = tmp_path / "resumed.json"
    ckpt = tmp_path / "ck.json"

    ok = _run_cli("repro.cli", "ext-contention", "--seed", "7", "--json-out", str(fresh))
    assert ok.returncode == 0, ok.stderr

    crashed = _run_cli(
        "repro.cli", "ext-contention", "--seed", "7",
        "--checkpoint", str(ckpt), "--chaos-abort-after-saves", "2",
        "--json-out", str(tmp_path / "never.json"),
    )
    assert crashed.returncode == 130
    assert "re-run with --resume" in crashed.stderr
    assert not (tmp_path / "never.json").exists()

    done = _run_cli(
        "repro.cli", "ext-contention", "--seed", "7",
        "--checkpoint", str(ckpt), "--resume", "--json-out", str(resumed),
    )
    assert done.returncode == 0, done.stderr
    assert "resuming from checkpoint" in done.stderr
    assert fresh.read_bytes() == resumed.read_bytes()


def test_exp_cli_refuses_wrong_seed_checkpoint(tmp_path):
    ckpt = tmp_path / "ck.json"
    crashed = _run_cli(
        "repro.cli", "ext-contention", "--seed", "7",
        "--checkpoint", str(ckpt), "--chaos-abort-after-saves", "1",
    )
    assert crashed.returncode == 130
    other = _run_cli(
        "repro.cli", "ext-contention", "--seed", "8",
        "--checkpoint", str(ckpt), "--resume",
    )
    assert other.returncode == 3
    assert "different run" in other.stderr


def test_exp_cli_refuses_truncated_checkpoint(tmp_path):
    ckpt = tmp_path / "ck.json"
    crashed = _run_cli(
        "repro.cli", "ext-contention", "--seed", "7",
        "--checkpoint", str(ckpt), "--chaos-abort-after-saves", "1",
    )
    assert crashed.returncode == 130
    ckpt.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2])
    cut = _run_cli(
        "repro.cli", "ext-contention", "--seed", "7",
        "--checkpoint", str(ckpt), "--resume",
    )
    assert cut.returncode == 3
    assert "checkpoint error" in cut.stderr


def test_exp_cli_refuses_stale_schema(tmp_path):
    ckpt = tmp_path / "ck.json"
    crashed = _run_cli(
        "repro.cli", "ext-contention", "--seed", "7",
        "--checkpoint", str(ckpt), "--chaos-abort-after-saves", "1",
    )
    assert crashed.returncode == 130
    envelope = json.loads(ckpt.read_text())
    envelope["schema"] = 99
    ckpt.write_text(json.dumps(envelope))
    stale = _run_cli(
        "repro.cli", "ext-contention", "--seed", "7",
        "--checkpoint", str(ckpt), "--resume",
    )
    assert stale.returncode == 3
    assert "refused" in stale.stderr


def test_exp_cli_checkpoint_argument_validation():
    two = _run_cli("repro.cli", "fig7", "ext-contention", "--checkpoint", "x.json")
    assert two.returncode == 2
    not_ckpt = _run_cli("repro.cli", "table1", "--checkpoint", "x.json")
    assert not_ckpt.returncode == 2
    bare_resume = _run_cli("repro.cli", "ext-contention", "--resume")
    assert bare_resume.returncode == 2
    assert "--resume requires --checkpoint" in bare_resume.stderr
    bad_cadence = _run_cli(
        "repro.cli", "ext-contention", "--checkpoint", "x.json",
        "--checkpoint-every", "0",
    )
    assert bad_cadence.returncode == 2
    assert "--checkpoint-every must be >= 1" in bad_cadence.stderr

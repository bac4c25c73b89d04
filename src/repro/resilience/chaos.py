"""``repro-chaos`` — executable crash-safety scenarios.

Each scenario *injects* a real failure (SIGKILL, an infinite hang, file
truncation, a stale schema) and asserts the structured recovery the
resilience layer promises.  They run as a CLI (``repro-chaos --list``)
and are also driven by ``tests/chaos/`` in CI, so the guarantees in
``docs/RESILIENCE.md`` stay executable rather than aspirational:

``kill-worker``
    A worker SIGKILLs itself mid-chunk; :func:`~repro.resilience.
    supervisor.supervised_map` must detect the broken pool, retry the
    chunk on a fresh worker, and still return the exact serial result.
``hang-worker``
    A worker sleeps far past the chunk deadline; the supervisor must tear
    the pool down, retry, and return the exact serial result.
``truncate-checkpoint``
    Every prefix of a checkpoint file must either load the complete
    payload (when only trailing whitespace was lost) or raise
    :class:`~repro.resilience.errors.CheckpointCorrupt` — never garbage.
``stale-schema``
    A checkpoint from another schema generation must be refused with a
    :class:`~repro.resilience.errors.CheckpointSchemaMismatch` naming
    both versions.
``kill-resume``
    A checkpointing run in a subprocess is SIGKILLed mid-run (no cleanup
    of any kind runs); resuming from its checkpoint must produce results
    bit-identical to an uninterrupted run.
``link-outage-resume``
    A checkpointed ``ext-outage`` sweep (link-outage schedules, buffered
    degraded-mode fleets) is SIGKILLed mid-grid in a subprocess; the
    resumed run's fingerprint must match the committed golden pin in
    ``tests/golden/ext-outage.json`` — crash-safety composed with the
    intermittent-connectivity subsystem.
``kill-serve-resume``
    A live ``repro-serve`` (fault injection, shedding and checkpointing
    all on) is SIGKILLed **twice** mid-replay; each reboot ``--resume``\\ s
    from its checkpoint and the reconnecting load generator continues from
    the ``offered`` count ``/v1/health`` reports.  The final flushed
    placement trace must be SHA-256 bit-identical to one uninterrupted
    in-process run of the same load — the serving tentpole's end-to-end
    guarantee.
``truncate-serve-log``
    A serve checkpoint's trace log is cut mid-record below the offset its
    envelope records (refused with ``CheckpointCorrupt``), then given a torn
    tail past that offset, as a crash between the log fsync and the envelope
    replace leaves it: resume truncates the tail, lands on the checkpoint's
    SHA, and the finished replay matches the uninterrupted one.

Workers communicate "I already crashed once" through marker files in a
scratch directory, so every injected failure happens exactly once and the
retry path is exercised deterministically.
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
from typing import Callable, Dict, List, Optional, Tuple

from repro.util.rng import derive_seed

#: Wall-clock ceiling for the hang scenario's stuck worker (far above the
#: deadline handed to the supervisor, far below any CI timeout).
_HANG_SLEEP_S = 60.0


# ---------------------------------------------------------------------------
# chaotic work functions (module-level: picklable by qualified name)
# ---------------------------------------------------------------------------


def _value(item: int) -> int:
    """The deterministic ground truth every scenario compares against."""
    return derive_seed(item, "chaos") % 1_000_003


def _kill_once(args: Tuple[int, str]) -> int:
    """SIGKILL the worker process on first contact with item 5."""
    item, scratch = args
    marker = Path(scratch) / "killed"
    if item == 5 and not marker.exists():
        marker.touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return _value(item)


def _hang_once(args: Tuple[int, str]) -> int:
    """Sleep far past the chunk deadline on first contact with item 5."""
    item, scratch = args
    marker = Path(scratch) / "hung"
    if item == 5 and not marker.exists():
        marker.touch()
        time.sleep(_HANG_SLEEP_S)
    return _value(item)


def _slow_value(item: int) -> int:
    """Ground-truth value, paced so a run spans many checkpoint saves."""
    time.sleep(0.05)
    return _value(item)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def scenario_kill_worker() -> str:
    """SIGKILLed worker → chunk retried on a fresh pool, results exact."""
    from repro.resilience.supervisor import supervised_map

    items = list(range(12))
    expected = [_value(i) for i in items]
    with tempfile.TemporaryDirectory() as scratch:
        got = supervised_map(
            _kill_once, [(i, scratch) for i in items], workers=2, chunksize=2
        )
        if not (Path(scratch) / "killed").exists():
            raise AssertionError("kill marker missing: the fault was never injected")
    if got != expected:
        raise AssertionError(f"retried results diverged: {got} != {expected}")
    return "worker SIGKILLed mid-chunk; chunk retried on a fresh pool, results exact"


def scenario_hang_worker() -> str:
    """Hung worker → deadline fires, pool torn down, retried, results exact."""
    from repro.resilience.supervisor import supervised_map

    items = list(range(12))
    expected = [_value(i) for i in items]
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory() as scratch:
        got = supervised_map(
            _hang_once,
            [(i, scratch) for i in items],
            workers=2,
            chunksize=2,
            deadline_s=2.0,
        )
        if not (Path(scratch) / "hung").exists():
            raise AssertionError("hang marker missing: the fault was never injected")
    elapsed = time.monotonic() - t0
    if elapsed >= _HANG_SLEEP_S:
        raise AssertionError(f"deadline never fired ({elapsed:.0f}s elapsed)")
    if got != expected:
        raise AssertionError(f"retried results diverged: {got} != {expected}")
    return f"hung worker reaped after the 2s deadline ({elapsed:.1f}s total), results exact"


def scenario_truncate_checkpoint() -> str:
    """Every truncation → full payload or CheckpointCorrupt, never garbage."""
    from repro.resilience.checkpoint import load_checkpoint, write_checkpoint
    from repro.resilience.errors import CheckpointCorrupt

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.json"
        payload = {"stages": {"s": {str(i): [i * i] for i in range(8)}}}
        write_checkpoint(path, payload, kind="run")
        data = path.read_bytes()
        good = load_checkpoint(path)
        cut_path = Path(tmp) / "cut.json"
        corrupt = 0
        for cut in range(len(data) + 1):
            cut_path.write_bytes(data[:cut])
            try:
                loaded = load_checkpoint(cut_path)
            except CheckpointCorrupt:
                corrupt += 1
            else:
                if loaded != good:
                    raise AssertionError(f"cut at {cut} loaded garbage")
        if corrupt < len(data) - 2:
            raise AssertionError(f"only {corrupt}/{len(data) + 1} cuts were rejected")
    return (
        f"{corrupt} content-removing truncations all raised CheckpointCorrupt; "
        "whitespace-only cuts loaded the intact payload"
    )


def scenario_stale_schema() -> str:
    """Foreign schema generation → refused with both versions named."""
    from repro.resilience.checkpoint import (
        CHECKPOINT_SCHEMA,
        load_checkpoint,
        write_checkpoint,
    )
    from repro.resilience.errors import CheckpointSchemaMismatch

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.json"
        write_checkpoint(path, {"x": 1}, kind="run")
        envelope = json.loads(path.read_text())
        envelope["schema"] = CHECKPOINT_SCHEMA + 1
        path.write_text(json.dumps(envelope))
        try:
            load_checkpoint(path)
        except CheckpointSchemaMismatch as exc:
            if exc.found != CHECKPOINT_SCHEMA + 1 or exc.expected != CHECKPOINT_SCHEMA:
                raise AssertionError(f"schema versions not carried: {exc.found}/{exc.expected}")
            return f"stale schema refused: found {exc.found}, expected {exc.expected}"
        raise AssertionError("stale schema was accepted")


def _driver(ckpt: str, out: str, n_items: int) -> int:
    """Subprocess body for ``kill-resume``: a slow checkpointing run."""
    from repro.resilience.checkpoint import RunCheckpoint, run_key
    from repro.resilience.supervisor import supervised_map

    rc = RunCheckpoint(ckpt, run_key=run_key("chaos-driver", n_items), resume=True)
    results = supervised_map(
        _slow_value, list(range(n_items)), chunksize=1, checkpoint=rc.stage("main")
    )
    Path(out).write_text(json.dumps(results))
    return 0


#: The reduced ext-outage configuration shared with the golden case — the
#: resumed fingerprint is diffed against ``tests/golden/ext-outage.json``.
_OUTAGE_KWARGS = dict(
    n_clients=70, n_cycles=12, crossover_sizes=(350, 650, 150), seed=0
)


def _outage_driver(ckpt: str, out: str, mode: str) -> int:
    """Subprocess body for ``link-outage-resume``.

    ``mode='crash'`` arms the checkpointer's deterministic chaos hook and
    escalates the interrupt into a real SIGKILL of this process, so no
    atexit/finally/flush path runs — the durable saves alone must carry
    the run.  ``mode='resume'`` completes from the checkpoint and writes
    the result fingerprint.
    """
    from repro.experiments.registry import run_experiment
    from repro.resilience.checkpoint import RunCheckpoint, run_key
    from repro.resilience.errors import InterruptedRun

    rc = RunCheckpoint(
        ckpt,
        run_key=run_key("ext-outage", _OUTAGE_KWARGS["seed"]),
        resume=(mode == "resume"),
        abort_after_saves=2 if mode == "crash" else None,
    )
    try:
        fp = run_experiment("ext-outage", checkpoint=rc, **_OUTAGE_KWARGS).fingerprint()
    except InterruptedRun:
        os.kill(os.getpid(), signal.SIGKILL)
    Path(out).write_text(json.dumps(fp, sort_keys=True))
    return 0


def _child_env() -> Dict[str, str]:
    """Subprocess env importing repro from wherever *this* process did,
    regardless of the caller's cwd or (relative) PYTHONPATH."""
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    return env


def scenario_kill_resume() -> str:
    """SIGKILL a checkpointing run mid-flight; resume must be bit-identical."""
    expected = [_value(i) for i in range(40)]
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = str(Path(tmp) / "ck.json")
        out = str(Path(tmp) / "out.json")
        cmd = [sys.executable, "-m", "repro.resilience.chaos", "--_driver", ckpt, out, "40"]
        env = _child_env()
        proc = subprocess.Popen(cmd, env=env)
        # SIGKILL the run once its checkpoint holds some (but not all) chunks:
        # no atexit, no finally, no flush runs — the crash-only protocol alone
        # must leave a loadable file behind.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise AssertionError("driver finished before it could be killed")
            if Path(ckpt).exists() and Path(ckpt).stat().st_size > 0:
                time.sleep(0.3)  # let a few more chunks land mid-file
                break
            time.sleep(0.01)
        proc.kill()
        proc.wait()
        if Path(out).exists():
            raise AssertionError("driver wrote its output despite the SIGKILL")

        from repro.resilience.checkpoint import RunCheckpoint, run_key

        rc = RunCheckpoint(ckpt, run_key=run_key("chaos-driver", 40), resume=True)
        durable = len(rc.completed("main"))
        if not rc.resumed or durable == 0:
            raise AssertionError("no durable chunks survived the SIGKILL")
        rerun = subprocess.run(cmd, env=env, timeout=60)
        if rerun.returncode != 0:
            raise AssertionError(f"resumed driver failed (exit {rerun.returncode})")
        results = json.loads(Path(out).read_text())
    if results != expected:
        raise AssertionError("resumed results diverged from the uninterrupted ground truth")
    return (
        f"run SIGKILLed with {durable}/40 chunks durable; resume completed "
        "bit-identical to the uninterrupted ground truth"
    )


def scenario_link_outage_resume() -> str:
    """SIGKILL a checkpointed outage sweep mid-grid; resume matches golden."""
    from repro.resilience.checkpoint import RunCheckpoint, run_key
    from repro.validate.golden import diff_fingerprints, load_golden

    try:
        golden = load_golden("ext-outage")
    except FileNotFoundError:
        raise AssertionError(
            "tests/golden/ext-outage.json is missing — regenerate with "
            "repro-golden --update --only ext-outage"
        )
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = str(Path(tmp) / "ck.json")
        out = str(Path(tmp) / "fingerprint.json")
        base = [sys.executable, "-m", "repro.resilience.chaos", "--_outage_driver", ckpt, out]
        env = _child_env()
        crashed = subprocess.run(base + ["crash"], env=env, timeout=300)
        if crashed.returncode != -signal.SIGKILL:
            raise AssertionError(
                f"crash driver exited {crashed.returncode}, expected SIGKILL"
            )
        if Path(out).exists():
            raise AssertionError("driver wrote its fingerprint despite the SIGKILL")
        rc = RunCheckpoint(ckpt, run_key=run_key("ext-outage", 0), resume=True)
        durable = len(rc.completed("outage-grid"))
        if not rc.resumed or durable == 0:
            raise AssertionError("no durable outage-grid chunks survived the SIGKILL")
        resumed = subprocess.run(base + ["resume"], env=env, timeout=300)
        if resumed.returncode != 0:
            raise AssertionError(f"resumed driver failed (exit {resumed.returncode})")
        fingerprint = json.loads(Path(out).read_text())
    drifts = diff_fingerprints(golden["fingerprint"], fingerprint)
    if drifts:
        raise AssertionError(
            f"resumed outage sweep drifted from the golden pin: {drifts[:3]}"
        )
    return (
        f"outage sweep SIGKILLed with {durable} grid chunk(s) durable; "
        "resume matched the committed golden fingerprint"
    )


#: Serving twin of the chaos suite: one fault-injected, shedding,
#: checkpointing serve run.  The CLI flags and this config MUST stay in
#: lockstep — the scenario's in-process reference uses the config, the
#: subprocess uses the flags.
_SERVE_FLAGS = [
    "--policy", "best-fit", "--queue-bound", "8",
    "--server-mtbf", "150", "--server-repair", "60", "--fault-servers", "3",
    "--dark-mtbf", "200", "--dark-repair", "60", "--fault-hives", "6",
    "--fault-horizon", "600", "--fault-seed", "7",
]


def _serve_chaos_config():
    """The in-process ``ServeConfig`` twin of :data:`_SERVE_FLAGS`."""
    from repro.serve.engine import ServeConfig
    from repro.serve.faults import ServeFaultSpec

    return ServeConfig(
        policy="best-fit",
        queue_bound=8,
        faults=ServeFaultSpec(
            server_mtbf_s=150.0, server_repair_s=60.0, fault_servers=3,
            dark_mtbf_s=200.0, dark_repair_s=60.0, fault_hives=6,
            horizon_s=600.0, seed=7,
        ),
    )


def _serve_chaos_spec():
    """The load every serve-chaos participant replays (open loop)."""
    from repro.loadgen.arrivals import LoadSpec

    return LoadSpec(
        n_hives=16, rate_hz=0.05, horizon_s=600.0,
        telemetry_fraction=0.5, payload_bytes=1024,
        seed=0xC0FFEE, mode="open",
    )


def _boot_serve(tmp: str, ckpt: str, trace_out: str) -> Tuple[subprocess.Popen, str]:
    """Start ``repro-serve`` with checkpoint+resume; wait for its port."""
    port_file = Path(tmp) / "port"
    if port_file.exists():
        port_file.unlink()
    cmd = [
        sys.executable, "-m", "repro.serve.cli",
        "--host", "127.0.0.1", "--port", "0", "--port-file", str(port_file),
        *_SERVE_FLAGS,
        "--checkpoint", ckpt, "--checkpoint-every", "20", "--resume",
        "--trace-out", trace_out,
    ]
    proc = subprocess.Popen(
        cmd, env=_child_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if port_file.exists():
            text = port_file.read_text().strip()
            if text:
                return proc, f"http://127.0.0.1:{int(text)}"
        if proc.poll() is not None:
            raise AssertionError(f"serve exited {proc.returncode} during boot")
        time.sleep(0.01)
    proc.kill()
    raise AssertionError("serve did not announce a port within 30s")


def scenario_kill_serve_resume() -> str:
    """SIGKILL a live serve twice mid-replay; resumed trace bit-identical."""
    from repro.loadgen.arrivals import arrival_to_request, merged_stream
    from repro.loadgen.replay import HttpTransport
    from repro.serve.engine import OrchestrationEngine

    spec = _serve_chaos_spec()
    requests = [arrival_to_request(a) for a in merged_stream(spec)]
    if len(requests) < 60:
        raise AssertionError(f"chaos load too small to be interesting: {len(requests)}")

    # Ground truth: one uninterrupted in-process fold over the same load.
    reference = OrchestrationEngine(_serve_chaos_config())
    for request in requests:
        reference.handle(dict(request))
    expected_sha = reference.trace.fingerprint()
    expected_events = reference.trace.n_events

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = str(Path(tmp) / "serve-ck.json")
        trace_out = str(Path(tmp) / "trace.json")
        sent = 0
        # Two kill points: the first exercises kill-serve (fresh boot →
        # SIGKILL), the second kill-resume (resumed boot → SIGKILL again).
        for cut in (len(requests) // 3, (2 * len(requests)) // 3):
            proc, base_url = _boot_serve(tmp, ckpt, trace_out)
            transport = HttpTransport(base_url)
            offered = int(transport.health().get("offered", 0))
            if offered > sent:
                raise AssertionError(
                    f"resumed serve claims {offered} offered > {sent} actually sent"
                )
            for request in requests[offered:cut]:
                response = transport.send(dict(request))
                if response.get("error_class"):
                    raise AssertionError(f"transport failure mid-replay: {response}")
            sent = cut
            proc.kill()  # SIGKILL: no drain, no flush, no atexit
            proc.wait()
        if not Path(ckpt).exists():
            raise AssertionError("no serve checkpoint survived the SIGKILLs")

        proc, base_url = _boot_serve(tmp, ckpt, trace_out)
        transport = HttpTransport(base_url)
        offered = int(transport.health().get("offered", 0))
        if offered == 0:
            raise AssertionError("second resume lost the whole run (offered=0)")
        for request in requests[offered:]:
            response = transport.send(dict(request))
            if response.get("error_class"):
                raise AssertionError(f"transport failure mid-replay: {response}")
        proc.send_signal(signal.SIGTERM)
        if proc.wait(timeout=30) != 0:
            raise AssertionError(f"serve exited {proc.returncode} on SIGTERM")
        trace = json.loads(Path(trace_out).read_text())

    if trace["sha256"] != expected_sha or trace["n_events"] != expected_events:
        raise AssertionError(
            f"resumed serve trace diverged: {trace['n_events']} events, "
            f"sha {trace['sha256'][:12]}… vs expected {expected_events} "
            f"events, sha {expected_sha[:12]}…"
        )
    return (
        f"serve SIGKILLed twice mid-replay; resumed+reconnected trace "
        f"bit-identical ({expected_events} events, sha {expected_sha[:12]}…)"
    )


def scenario_truncate_serve_log() -> str:
    """Cut a serve trace log below the checkpoint's offset, then tear its tail.

    A log cut mid-record anywhere below the offset the envelope records must
    refuse to resume with :class:`~repro.resilience.errors.CheckpointCorrupt`.
    Records past the offset — what a crash between the log fsync and the
    envelope replace leaves, here with a torn last record — must be cut
    away: the resume lands on the checkpoint's SHA, and finishing the
    replay from there reaches the uninterrupted run's SHA.
    """
    from repro.loadgen.arrivals import arrival_to_request, merged_stream
    from repro.resilience.errors import CheckpointCorrupt
    from repro.serve.checkpoint import (
        ServeCheckpointer,
        encode_events,
        log_path,
        resume_engine,
    )
    from repro.serve.engine import OrchestrationEngine

    config = _serve_chaos_config()
    requests = [arrival_to_request(a) for a in merged_stream(_serve_chaos_spec())]
    reference = OrchestrationEngine(config)
    for request in requests:
        reference.handle(dict(request))
    expected_sha = reference.trace.fingerprint()

    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "serve-ck.json"
        log = log_path(ckpt)
        engine = OrchestrationEngine(config)
        engine.checkpointer = ServeCheckpointer(ckpt, 20)
        for request in requests[: len(requests) // 2]:
            engine.handle(dict(request))
        engine.checkpointer.flush(engine)
        saved_sha, saved_events = engine.trace.fingerprint(), engine.trace.n_events
        intact = log.read_bytes()

        # 1. cut mid-record below the offset: refused, never resumed short
        ends = [i + 1 for i, byte in enumerate(intact) if byte == ord("\n")]
        starts = [0] + ends[:-1]
        picks = range(0, len(starts), max(1, len(starts) // 16))
        cuts = [(starts[i] + ends[i]) // 2 for i in picks] + [len(intact) - 1]
        for cut in cuts:
            log.write_bytes(intact[:cut])
            try:
                resume_engine(ckpt, config)
            except CheckpointCorrupt:
                continue
            raise AssertionError(f"log cut at byte {cut} of {len(intact)} was resumed")

        # 2. a torn tail past the offset: truncated, resume exact
        engine.checkpointer = None
        for request in requests[len(requests) // 2 : (2 * len(requests)) // 3]:
            engine.handle(dict(request))
        tail = encode_events(engine.trace.events[saved_events:])
        torn = tail[: tail.index(b"\n") // 2]  # a record cut halfway by the crash
        log.write_bytes(intact + tail + torn)
        checkpointer = ServeCheckpointer(ckpt, 20)
        resumed = checkpointer.resume(config)
        if (resumed.trace.fingerprint(), resumed.trace.n_events) != (saved_sha, saved_events):
            raise AssertionError("resume past a torn tail did not land on the checkpoint")
        if log.read_bytes() != intact:
            raise AssertionError("resume left the torn tail in the log")
        resumed.checkpointer = checkpointer
        for request in requests[resumed.n_requests :]:
            resumed.handle(dict(request))
        checkpointer.flush(resumed)
        final = resume_engine(ckpt, config)
    if resumed.trace.fingerprint() != expected_sha or final.trace.fingerprint() != expected_sha:
        raise AssertionError("replay finished after the torn tail diverged from the reference")
    return (
        f"{len(cuts)} mid-record log cuts below the offset refused with "
        f"CheckpointCorrupt; a tail of {engine.trace.n_events - saved_events} "
        "records plus a torn one was truncated, resume matched the checkpoint "
        f"and the finished replay the uninterrupted one (sha {expected_sha[:12]}…)"
    )


SCENARIOS: Dict[str, Tuple[Callable[[], str], str]] = {
    "kill-worker": (scenario_kill_worker, "SIGKILL a pool worker mid-chunk"),
    "hang-worker": (scenario_hang_worker, "hang a worker past its chunk deadline"),
    "truncate-checkpoint": (scenario_truncate_checkpoint, "truncate a checkpoint at every offset"),
    "stale-schema": (scenario_stale_schema, "age a checkpoint's schema version"),
    "kill-resume": (scenario_kill_resume, "SIGKILL a checkpointing run, then resume it"),
    "link-outage-resume": (
        scenario_link_outage_resume,
        "SIGKILL a checkpointed link-outage sweep, resume against the golden",
    ),
    "kill-serve-resume": (
        scenario_kill_serve_resume,
        "SIGKILL a live serve twice mid-replay, resume + reconnect, trace bit-identical",
    ),
    "truncate-serve-log": (
        scenario_truncate_serve_log,
        "cut a serve trace log below its checkpoint, then tear its tail",
    ),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-chaos",
        description="Inject real failures and assert the documented structured recovery.",
    )
    parser.add_argument("scenarios", nargs="*", help="scenario ids (default: all; see --list)")
    parser.add_argument("--list", action="store_true", help="list scenarios")
    parser.add_argument("--_driver", nargs=3, metavar=("CKPT", "OUT", "N"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--_outage_driver", nargs=3, metavar=("CKPT", "OUT", "MODE"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args._driver:
        ckpt, out, n = args._driver
        return _driver(ckpt, out, int(n))
    if args._outage_driver:
        return _outage_driver(*args._outage_driver)
    if args.list:
        for name, (_fn, desc) in SCENARIOS.items():
            print(f"{name:22s} {desc}")
        return 0
    ids = args.scenarios or list(SCENARIOS)
    unknown = [i for i in ids if i not in SCENARIOS]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for name in ids:
        fn, _desc = SCENARIOS[name]
        try:
            detail = fn()
        except Exception as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}: {detail}")
    if failed:
        print(f"{failed}/{len(ids)} scenario(s) failed", file=sys.stderr)
        return 1
    print(f"all {len(ids)} chaos scenario(s) survived")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

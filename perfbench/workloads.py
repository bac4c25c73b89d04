"""The four benchmark workloads: three over the live serving stack, one batch.

Every serve workload replays seeded loads through ``repro.loadgen.replay``,
the load generator the ``repro-loadgen`` command uses.  A load is a
simulated-time schedule; the replay sends it back to back, so in wall-clock
terms each replay is one closed-loop client that sends its next request
when the previous answer arrives.  An operation is one request; its latency
is the wall time from send to answer.  The batch workload's operation is
one fleet study: the same seeded fleet simulated by three batch kernels.

Each run repeats fresh replays (or studies) with inputs derived from the
run's seed until ``seconds`` of measured time have passed.  Correctness
checks run outside the measured time.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from spans import BATCH_BOUNDARIES, SERVE_BOUNDARIES, Spans

ROOT = Path(__file__).resolve().parent.parent
BOOT_SCRIPT = Path(__file__).resolve().parent / "boot.py"

#: Fresh-process boots per run whose median is ``setup_s`` (in-process workloads).
BOOTS = 5

#: Loads, as ``LoadSpec`` fields.  ``serve-inproc`` uses the smoke load's
#: per-hive rate (six requests per service window, so hives stay saturated)
#: over a 1k-hive fleet; ``serve-http`` the smoke load's 64 hives;
#: ``serve-faults`` one request per cycle per hive, which the bounded queue
#: below sheds only in bursts.
INPROC_LOAD = dict(n_hives=1024, rate_hz=0.02, horizon_s=1000.0)
HTTP_LOAD = dict(n_hives=64, rate_hz=0.02, horizon_s=3000.0)
FAULTS_LOAD = dict(n_hives=256, rate_hz=1.0 / 300.0, horizon_s=4000.0)
FAULTS_QUEUE_BOUND = 256

#: Batch fleet study: cycles and fleet size per kernel.
BATCH_CYCLES = 3
BATCH_IDEAL_CLIENTS = 4000
BATCH_FAULTY_DES_CLIENTS = 25
BATCH_FAULT_KERNEL_CLIENTS = 200
#: Every 16th study also simulates a paper-scale ideal fleet.  These are 6%
#: of the studies, so a slice's p99 latency is one of them: a fixed, large
#: piece of work rather than whichever small study the host slowed most.
BATCH_LARGE_EVERY = 16
BATCH_LARGE_CLIENTS = 64000

#: Layers measured inside the serving process, as opposed to the client's.
ENGINE_LAYERS = ("engine", "alloc", "pricing", "faults", "shed", "trace", "obs", "checkpoint")


#: Measured time is cut into consecutive slices of at least this length;
#: each end-to-end figure is taken per slice first (see ``run.py``).
SLICE_S = 1.0


@dataclass
class Slice:
    """Operations completed in one slice of measured time."""

    seconds: float = 0.0
    latencies_s: List[float] = field(default_factory=list)


@dataclass
class Outcome:
    """What one run measured and checked."""

    slices: List[Slice] = field(default_factory=list)
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    setup_s: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)

    def record(self, latency_s: float, seconds: float) -> None:
        """One operation, ``seconds`` of measured time after the previous one."""
        if not self.slices or self.slices[-1].seconds >= SLICE_S:
            self.slices.append(Slice())
        current = self.slices[-1]
        current.seconds += seconds
        current.latencies_s.append(latency_s)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def expect(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def input_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th replay or study of a run seeded ``seed``."""
    return seed * 1009 + index


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def boot_times(workload: str) -> List[float]:
    """Wall time for a fresh process to import and build ``workload``'s program."""
    times = []
    for _ in range(BOOTS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BOOT_SCRIPT), workload],
            stdout=subprocess.PIPE, cwd=ROOT, env=program_env(),
        )
        with proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"boot of {workload} failed with exit code {proc.returncode}")
    return times


class TimedTransport:
    """Records every request sent through ``inner`` into ``out``.

    A request's slice time runs from the previous answer to its own, so it
    includes the load generator's work between the two.
    """

    def __init__(self, inner, out: Outcome) -> None:
        self.inner = inner
        self.out = out
        self.last = time.perf_counter()

    def send(self, request):
        start = time.perf_counter()
        response = self.inner.send(request)
        end = time.perf_counter()
        self.out.record(end - start, end - self.last)
        self.last = end
        return response


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------


def faults_config(seed: int):
    from repro.serve.engine import ServeConfig
    from repro.serve.faults import ServeFaultSpec

    return ServeConfig(
        queue_bound=FAULTS_QUEUE_BOUND,
        faults=ServeFaultSpec(
            server_mtbf_s=900.0, server_repair_s=300.0, fault_servers=4,
            dark_mtbf_s=1200.0, dark_repair_s=240.0, fault_hives=64,
            horizon_s=FAULTS_LOAD["horizon_s"], seed=seed,
        ),
    )


def _record_replay(out: Outcome, report, allowed=()) -> None:
    out.attempted += report.n_requests
    unexpected = report.unexpected_classes(allowed)
    out.failed += sum(unexpected.values())
    out.expect(not unexpected, f"unexpected failures {unexpected}")
    out.count("requests", report.n_requests)
    out.count("shed", report.by_class.get("shed", 0))
    out.count("cloud", report.placements.get("cloud", 0))
    out.count("edge", report.placements.get("edge", 0))


def _check_engine(out: Outcome, engine) -> None:
    """Conservation and live == batch fold, on one replayed engine."""
    try:
        engine.report()  # raises when offered != served + shed + errored
    except Exception as exc:  # noqa: BLE001 — any failure is a wrong result
        out.problems.append(f"engine report failed: {exc!r}")
    out.expect(engine.steady_state_matches_batch(), "live allocation diverged from the batch fold")
    failures = engine.obs.metrics.to_dict().get("serve.faults.server_fail", {})
    out.count("server_failures", failures.get("value", 0))


def serve_in_process(seed: int, seconds: float, spans: Optional[Spans], work: Path,
                     faults: bool) -> Outcome:
    """``serve-inproc`` (``faults=False``) and ``serve-faults``."""
    from repro.loadgen.arrivals import LoadSpec
    from repro.loadgen.replay import InProcessTransport, replay
    from repro.serve.checkpoint import DEFAULT_EVERY, ServeCheckpointer, resume_engine
    from repro.serve.engine import OrchestrationEngine, ServeConfig

    out = Outcome(setup_s=boot_times("serve-faults" if faults else "serve-inproc"))
    ckpt = work / "serve.ckpt"
    allowed = ("shed",) if faults else ()

    def run(index: int, timed: bool):
        spec = LoadSpec(seed=input_seed(seed, index), **(FAULTS_LOAD if faults else INPROC_LOAD))
        config = faults_config(input_seed(seed, index)) if faults else ServeConfig()
        engine = OrchestrationEngine(config)
        if faults:
            engine.checkpointer = ServeCheckpointer(ckpt, DEFAULT_EVERY)
        transport = InProcessTransport(engine)
        if timed:
            transport = TimedTransport(transport, out)
        return config, engine, replay(spec, transport)

    # An unmeasured warm-up replay, checked here and replayed again at the end.
    config, engine, report = run(0, False)
    first = (report.response_sha256, engine.trace.fingerprint())
    _check_engine(out, engine)
    if faults:
        engine.checkpointer.flush(engine)
        resumed = resume_engine(ckpt, config)
        out.expect(
            resumed.trace.fingerprint() == engine.trace.fingerprint()
            and resumed.live.client_ids() == engine.live.client_ids()
            and resumed.n_offered == engine.n_offered,
            "resumed engine differs from the engine it was saved from",
        )
    index = 1
    while out.wall_s < seconds:
        start = time.perf_counter()
        if spans is None:
            config, engine, report = run(index, True)
        else:
            with spans.patched(SERVE_BOUNDARIES):
                config, engine, report = spans.timed("loadgen", run)(index, False)
        out.wall_s += time.perf_counter() - start
        _record_replay(out, report, allowed)
        _check_engine(out, engine)
        if faults:
            out.count("checkpoint_saves", engine.checkpointer.n_written)
        index += 1
    _config, engine, report = run(0, False)
    out.expect((report.response_sha256, engine.trace.fingerprint()) == first,
               "the same seed replayed to different responses")
    return out


def _boot_server(tmp: Path):
    """Start ``repro-serve`` on an ephemeral port; returns (process, url)."""
    port_file = tmp / "port"
    if port_file.exists():
        port_file.unlink()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve.cli", "--port", "0", "--port-file", str(port_file)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, cwd=ROOT, env=program_env(),
    )
    deadline = time.monotonic() + 60.0
    while not port_file.exists():
        if proc.poll() is not None or time.monotonic() > deadline:
            _stop_server(proc)
            raise RuntimeError(f"repro-serve did not start (exit code {proc.returncode})")
        time.sleep(0.002)
    return proc, f"http://127.0.0.1:{int(port_file.read_text())}"


def _stop_server(proc) -> bytes:
    """SIGTERM the server and wait for it; returns its stdout."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        stdout, _ = proc.communicate(timeout=60.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, _ = proc.communicate()
    return stdout or b""


def serve_http(seed: int, seconds: float, spans: Optional[Spans], work: Path) -> Outcome:
    """``serve-http``: each replay against a freshly booted ``repro-serve``.

    Each boot is one ``setup_s`` sample.  The same load replayed in process
    is the reference the HTTP answers and the server's trace must equal;
    in a traced run it also supplies the server-side layers, and transport
    is the client's round trip minus that server-side time.
    """
    from repro.loadgen.arrivals import LoadSpec
    from repro.loadgen.replay import HttpTransport, replay, replay_in_process

    out = Outcome()
    server_spans = Spans() if spans is not None else None
    index = 0
    while out.wall_s < seconds:
        spec = LoadSpec(seed=input_seed(seed, index), **HTTP_LOAD)
        boot_start = time.perf_counter()
        proc, url = _boot_server(work)
        try:
            out.setup_s.append(time.perf_counter() - boot_start)
            transport = HttpTransport(url)
            start = time.perf_counter()
            if spans is None:
                report = replay(spec, TimedTransport(transport, out))
            else:
                with spans.patched(SERVE_BOUNDARIES):
                    report = spans.timed("loadgen", replay)(spec, transport)
            out.wall_s += time.perf_counter() - start
        finally:
            stdout = _stop_server(proc)
        _record_replay(out, report)
        out.expect(proc.returncode == 0, f"repro-serve exited {proc.returncode}")
        if server_spans is None:
            engine, reference = replay_in_process(spec)
        else:
            with server_spans.patched(SERVE_BOUNDARIES):
                engine, reference = replay_in_process(spec)
        _check_engine(out, engine)
        out.expect(report.response_sha256 == reference.response_sha256,
                   "HTTP answers differ from the in-process replay")
        try:
            server_sha = json.loads(stdout)["trace"]["sha256"]
        except (ValueError, KeyError, TypeError):
            server_sha = None
        out.expect(server_sha == engine.trace.fingerprint(),
                   "server placement trace differs from the in-process replay")
        index += 1
    if spans is not None:
        server_ns = 0
        for layer in ENGINE_LAYERS:
            ns = server_spans.self_ns.get(layer, 0)
            spans.self_ns[layer] = ns
            server_ns += ns
        spans.self_ns["transport"] = spans.self_ns.get("transport", 0) - server_ns
        spans.n_spans += server_spans.n_spans
    return out


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------


def batch(seed: int, seconds: float, spans: Optional[Spans], work: Path) -> Outcome:
    """``batch``: one fleet study per operation, three kernels each.

    The ideal cohort DES is checked against the closed-form fleet model;
    the faulty DES and the closed-form faulty kernel against their charged
    retry-airtime identities.  Fault timetables come from the study's seed.
    """
    from repro.core.dessim import run_des_fleet
    from repro.core.routines import EDGE_CLOUD_SVM
    from repro.core.simulate import simulate_fleet
    from repro.faults.config import FaultConfig
    from repro.faults.fleetsim import run_faulty_fleet
    from repro.faults.spec import LinkBlackout, ServerOutage

    del work
    out = Outcome(setup_s=boot_times("batch"))
    scenario = EDGE_CLOUD_SVM
    faults = FaultConfig(
        server_outage=ServerOutage(mtbf_s=900.0, repair_s=600.0),
        link_blackout=LinkBlackout(mtbf_s=1800.0, repair_s=120.0),
    )
    timeout_s = faults.retry.timeout_s
    send_w = scenario.client.active_tasks.get("send_audio").power
    analytic = {n: simulate_fleet(n, scenario).edge_energy_j
                for n in (BATCH_IDEAL_CLIENTS, BATCH_LARGE_CLIENTS)}

    def study(index: int, times: Dict[str, float]):
        s = input_seed(seed, index)
        runs = (
            ("des_ideal_s", run_des_fleet, (BATCH_IDEAL_CLIENTS, scenario),
             dict(n_cycles=BATCH_CYCLES, cohort=True)),
            ("des_faulty_s", run_des_fleet, (BATCH_FAULTY_DES_CLIENTS, scenario),
             dict(n_cycles=BATCH_CYCLES, faults=faults, seed=s, cohort=True)),
            ("fault_kernel_s", run_faulty_fleet, (BATCH_FAULT_KERNEL_CLIENTS, scenario, faults),
             dict(n_cycles=BATCH_CYCLES, seed=s)),
        )
        if index % BATCH_LARGE_EVERY == 0:
            runs += (("des_large_s", run_des_fleet, (BATCH_LARGE_CLIENTS, scenario),
                      dict(n_cycles=BATCH_CYCLES, cohort=True)),)
        results = []
        for layer, fn, args, kwargs in runs:
            start = time.perf_counter()
            results.append(fn(*args, **kwargs))
            times[layer] = times.get(layer, 0.0) + time.perf_counter() - start
        return results

    def correct(ideal, des, kernel, *large) -> bool:
        charged_s = sum(
            acc.category_duration("send_retry_timeout")
            for acc in des.client_accounts if "send_retry_timeout" in acc.breakdown()
        )
        return (
            all(abs(r.edge_energy_j / BATCH_CYCLES - analytic[r.n_clients])
                <= 1e-9 * analytic[r.n_clients] for r in (ideal, *large))
            and math.isclose(charged_s, des.monitor.timeout_attempts * timeout_s, rel_tol=1e-9)
            and math.isclose(kernel.report.retry_energy_j,
                             kernel.monitor.timeout_attempts * timeout_s * send_w,
                             rel_tol=1e-9)
            and all(0.0 <= r.availability <= 1.0 and math.isfinite(r.total_energy_j)
                    for r in (des, kernel))
        )

    # An unmeasured warm-up study, checked here and simulated again at the end.
    warm = study(0, {})
    out.expect(correct(*warm), "warm-up study broke an energy identity")
    _ideal, des, kernel = warm[:3]
    first = (des.total_energy_j, kernel.total_energy_j)
    index = 1
    while out.wall_s < seconds:
        start = time.perf_counter()
        if spans is None:
            results = study(index, out.counts)
        else:
            with spans.patched(BATCH_BOUNDARIES):
                results = study(index, out.counts)
        elapsed = time.perf_counter() - start
        out.record(elapsed, elapsed)
        out.wall_s += elapsed
        out.attempted += 1
        out.count("studies")
        out.count("large_fleets", len(results) - 3)
        if not correct(*results):
            out.failed += 1
            out.problems.append(f"study {index} broke an energy identity")
        index += 1
    _ideal, des, kernel = study(0, {})[:3]
    out.expect((des.total_energy_j, kernel.total_energy_j) == first,
               "the same seed simulated to different energies")
    return out


WORKLOADS = {
    "serve-inproc": lambda seed, seconds, spans, work: serve_in_process(
        seed, seconds, spans, work, faults=False),
    "serve-http": serve_http,
    "serve-faults": lambda seed, seconds, spans, work: serve_in_process(
        seed, seconds, spans, work, faults=True),
    "batch": batch,
}

"""``repro-serve``: run the orchestration service from the command line.

Boots an :class:`~repro.serve.engine.OrchestrationEngine` behind the stdlib
HTTP front end, announces the bound address, and serves until SIGTERM or
SIGINT.  On shutdown it flushes the final obs snapshot (``--obs-out``) and
the full placement trace (``--trace-out``) atomically, prints the run
report to stdout, and exits 0 — the contract the integration tests and the
``serve-smoke`` CI job rely on.

``--port 0`` binds an ephemeral port; ``--port-file`` writes the chosen
port once the socket is bound and the SIGTERM/SIGINT handlers are in, so
a parent process (test harness, load generator script) can discover it
without racing the boot, and stop it gracefully the moment it appears.

Resilience knobs (all off by default — the default run stays bit-identical
to the fault-free serving layer):

* ``--server-mtbf`` / ``--dark-mtbf`` turn on the seeded live fault surface
  (server crash/repair, per-hive link blackouts) of
  :class:`~repro.serve.faults.ServeFaultSpec`;
* ``--queue-bound`` enables deterministic overload shedding (503 +
  Retry-After, telemetry shed before inference);
* ``--checkpoint FILE`` writes a crash checkpoint at boot and every
  ``--checkpoint-every`` requests: ``FILE.log`` holds the placement trace's
  canonical lines, append-only, and ``FILE`` and its sibling ``FILE.alt``
  take turns holding the envelope of the newest save.  A SIGKILLed process
  restarts with the same arguments plus ``--resume`` and continues
  bit-identically.  ``--resume`` with no checkpoint file starts fresh
  (first boot and resumed boot share one command line); a checkpoint
  written under a *different* config, or in an older layout, refuses with
  exit code 3.  A path that cannot be written exits 2 at boot, before the
  port file appears; a save that fails later stops the server without
  answering the request that triggered it and exits 4.

Trace events are kept in memory only when ``--trace-out`` will write them.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.core.calibration import CYCLE_SECONDS
from repro.core.placement import POLICY_KINDS
from repro.resilience.errors import CheckpointError
from repro.serve.checkpoint import DEFAULT_EVERY, ServeCheckpointer, slot_paths
from repro.serve.engine import OrchestrationEngine, ServeConfig
from repro.serve.faults import ServeFaultSpec
from repro.serve.http import make_server, serve_until_signal
from repro.util.atomic import atomic_write, atomic_write_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve live admission/placement decisions for a hive fleet.",
    )
    parser.add_argument("--model", choices=("svm", "cnn"), default="svm")
    parser.add_argument(
        "--policy",
        choices=POLICY_KINDS,
        default="first-fit",
        help="slot filling policy (default: the paper's first-fit)",
    )
    parser.add_argument(
        "--policy-seed", type=int, default=0,
        help="seed for stochastic-score policies (swarm-scored)",
    )
    parser.add_argument("--max-parallel", type=int, default=None,
                        help="per-slot client cap (default: calibration)")
    parser.add_argument("--period", type=float, default=CYCLE_SECONDS,
                        help="wake-up cycle seconds (default: %(default)s)")
    parser.add_argument("--max-servers", type=int, default=None,
                        help="server budget; omit for elastic cloud")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8037,
                        help="listen port; 0 binds an ephemeral port")
    parser.add_argument("--port-file", default=None,
                        help="write the bound port to this file once listening")
    parser.add_argument("--trace-out", default=None,
                        help="flush the full placement trace here on shutdown")
    parser.add_argument("--obs-out", default=None,
                        help="flush the final obs snapshot here on shutdown")
    overload = parser.add_argument_group("overload protection")
    overload.add_argument(
        "--queue-bound", type=int, default=None,
        help="bounded admission queue: shed inference at this in-flight "
        "depth, telemetry at half of it (default: unbounded, never shed)",
    )
    faults = parser.add_argument_group("live fault injection (off unless an MTBF is given)")
    faults.add_argument("--server-mtbf", type=float, default=None,
                        help="mean seconds between failures per faulty server")
    faults.add_argument("--server-repair", type=float, default=600.0,
                        help="mean repair seconds per server outage (default: %(default)s)")
    faults.add_argument("--fault-servers", type=int, default=4,
                        help="how many logical servers can fail (default: %(default)s)")
    faults.add_argument("--dark-mtbf", type=float, default=None,
                        help="mean seconds between link blackouts per faulty hive")
    faults.add_argument("--dark-repair", type=float, default=240.0,
                        help="mean blackout seconds (default: %(default)s)")
    faults.add_argument("--fault-hives", type=int, default=0,
                        help="how many hives see link blackouts (default: %(default)s)")
    faults.add_argument("--fault-horizon", type=float, default=4000.0,
                        help="sim seconds the fault schedules cover (default: %(default)s)")
    faults.add_argument("--fault-seed", type=int, default=0,
                        help="base seed of every fault/retry stream (default: %(default)s)")
    recovery = parser.add_argument_group("crash recovery")
    recovery.add_argument("--checkpoint", default=None, metavar="FILE",
                          help="write a crash checkpoint of the engine state here "
                          "(and its trace log to FILE.log)")
    recovery.add_argument("--checkpoint-every", type=int, default=DEFAULT_EVERY,
                          help="requests between checkpoints (default: %(default)s)")
    recovery.add_argument("--resume", action="store_true",
                          help="continue from --checkpoint if it exists "
                          "(fresh start when it does not)")
    return parser


def _fault_spec(args: argparse.Namespace) -> Optional[ServeFaultSpec]:
    """Build the live fault surface the flags describe (None when off)."""
    if args.server_mtbf is None and args.dark_mtbf is None:
        return None
    import math

    return ServeFaultSpec(
        server_mtbf_s=args.server_mtbf if args.server_mtbf is not None else math.inf,
        server_repair_s=args.server_repair,
        fault_servers=args.fault_servers,
        dark_mtbf_s=args.dark_mtbf if args.dark_mtbf is not None else math.inf,
        dark_repair_s=args.dark_repair,
        fault_hives=args.fault_hives,
        horizon_s=args.fault_horizon,
        seed=args.fault_seed,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.max_servers is not None and args.max_servers < 0:
        print("error: --max-servers must be >= 0", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    if args.checkpoint_every < 1:
        print("error: --checkpoint-every must be >= 1", file=sys.stderr)
        return 2
    try:
        config = ServeConfig(
            model=args.model,
            policy=args.policy,
            policy_seed=args.policy_seed,
            max_parallel=args.max_parallel,
            period=args.period,
            max_servers=args.max_servers,
            queue_bound=args.queue_bound,
            faults=_fault_spec(args),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    keep_events = args.trace_out is not None
    checkpointer = (
        ServeCheckpointer(args.checkpoint, args.checkpoint_every) if args.checkpoint else None
    )
    resumed = args.resume and any(slot.exists() for slot in slot_paths(args.checkpoint))
    try:
        if resumed:
            engine = checkpointer.resume(config, keep_trace_events=keep_events)
        else:
            engine = OrchestrationEngine(config, keep_trace_events=keep_events)
        if checkpointer is not None:
            checkpointer.flush(engine)  # a path that cannot be written fails here
    except CheckpointError as exc:
        print(f"error: cannot resume from {args.checkpoint}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write checkpoint {args.checkpoint}: {exc}", file=sys.stderr)
        return 2
    engine.checkpointer = checkpointer

    server = make_server(engine, args.host, args.port)
    port = server.server_address[1]
    state = "resumed" if resumed else "fresh"

    def announce() -> None:
        # Called once the stop handlers are in: a parent that signals as
        # soon as the port file appears still gets a graceful stop and a report.
        if args.port_file:
            try:
                atomic_write(args.port_file, f"{port}\n")
            except OSError as exc:
                print(f"error: cannot write port file {args.port_file}: {exc}", file=sys.stderr)
                raise SystemExit(2) from None
        print(f"repro-serve listening on http://{args.host}:{port}/v1/ "
              f"(policy={config.policy}, model={config.model}, {state}, "
              f"requests={engine.n_requests})", file=sys.stderr)

    try:
        signum = serve_until_signal(server, announce)
        if checkpointer is not None:
            checkpointer.flush(engine)
    except OSError as exc:
        print(f"error: checkpoint save failed, serving stopped: {exc}; "
              "restart with --resume to continue from the last save", file=sys.stderr)
        return 4
    finally:
        if checkpointer is not None:
            checkpointer.close()
    report = engine.report()
    report["shutdown_signal"] = signum
    report["resumed"] = resumed
    if args.trace_out:
        from repro.util.atomic import atomic_writer

        with atomic_writer(args.trace_out) as fh:
            engine.trace.dump(fh)
    if args.obs_out:
        atomic_write_json(
            args.obs_out,
            engine.obs.snapshot(extra={"kind": "serve", "report": report}),
            sort_keys=True,
        )
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

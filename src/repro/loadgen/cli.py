"""``repro-loadgen``: replay a seeded hive fleet against a serving target.

Examples
--------
Replay an hour of 32 hives against a live server::

    repro-loadgen --target http://127.0.0.1:8037 --hives 32 --horizon 3600

Same load, no server needed (in-process engine), JSON report to a file::

    repro-loadgen --in-process --hives 32 --horizon 3600 --json report.json

The report includes a ``response_sha256`` fingerprint: two runs with the
same spec against the same server configuration produce the same digest,
which is how the integration tests assert end-to-end determinism.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from typing import Optional, Sequence

from repro.loadgen.arrivals import LoadSpec
from repro.loadgen.replay import ERROR_CLASSES, HttpTransport, InProcessTransport, replay
from repro.util.atomic import atomic_write_json
from repro.util.rng import DEFAULT_SEED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-loadgen",
        description="Replay seeded hive telemetry/inference load on repro-serve.",
    )
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--target", help="base URL of a running repro-serve")
    target.add_argument("--in-process", action="store_true",
                        help="drive a fresh in-process engine instead of HTTP")
    parser.add_argument("--hives", type=int, default=16)
    parser.add_argument("--rate", type=float, default=1.0 / 300.0,
                        help="per-hive request rate in Hz (default: 1 per cycle)")
    parser.add_argument("--horizon", type=float, default=3600.0,
                        help="simulated seconds of load (default: %(default)s)")
    parser.add_argument("--telemetry-fraction", type=float, default=0.5)
    parser.add_argument("--payload-bytes", type=int, default=1024)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--mode", choices=("open", "closed"), default="open")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="also write the report to this file atomically")
    parser.add_argument("--expect-zero-errors", action="store_true",
                        help="exit 1 unless every response was ok (CI smoke)")
    parser.add_argument(
        "--allow-errors", default=None, metavar="CLASSES",
        help="comma-separated failure classes that are expected (e.g. "
        f"'shed'); any other class exits 1. Known: {', '.join(ERROR_CLASSES)}",
    )
    parser.add_argument("--skip", type=int, default=0,
                        help="skip the first N arrivals (reconnect primitive)")
    parser.add_argument(
        "--resume-from-target", action="store_true",
        help="ask the target's /v1/health how many requests it already "
        "offered and skip that many — reconnect after a serve --resume",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = LoadSpec(
            n_hives=args.hives,
            rate_hz=args.rate,
            horizon_s=args.horizon,
            telemetry_fraction=args.telemetry_fraction,
            payload_bytes=args.payload_bytes,
            seed=args.seed,
            mode=args.mode,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    allowed = []
    if args.allow_errors:
        allowed = [c.strip() for c in args.allow_errors.split(",") if c.strip()]
        unknown = [c for c in allowed if c not in ERROR_CLASSES]
        if unknown:
            print(f"error: unknown error classes: {', '.join(unknown)} "
                  f"(known: {', '.join(ERROR_CLASSES)})", file=sys.stderr)
            return 2
    if args.resume_from_target and args.in_process:
        print("error: --resume-from-target needs an HTTP --target", file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        if args.in_process:
            from repro.serve.engine import OrchestrationEngine

            transport = InProcessTransport(OrchestrationEngine())
        else:
            try:
                transport = stack.enter_context(HttpTransport(args.target))
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        skip = args.skip
        if args.resume_from_target:
            try:
                health = transport.health()
            except OSError as exc:
                print(f"error: cannot reach target for resume: {exc}", file=sys.stderr)
                return 1
            skip = max(skip, int(health.get("offered", 0)))
            print(f"resuming: target already offered {health.get('offered', 0)} "
                  f"requests, skipping to arrival {skip}", file=sys.stderr)
        report = replay(spec, transport, skip=skip)
    payload = {"spec": spec.describe(), "report": report.to_dict(), "skip": skip}
    if args.json_out:
        atomic_write_json(args.json_out, payload, sort_keys=True)
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if report.by_class:
        classes = ", ".join(f"{c}={n}" for c, n in sorted(report.by_class.items()))
        print(f"failure classes: {classes}", file=sys.stderr)
    if args.expect_zero_errors and report.n_errors:
        print(f"error: {report.n_errors} failed responses", file=sys.stderr)
        return 1
    unexpected = report.unexpected_classes(allowed)
    if args.allow_errors is not None and unexpected:
        detail = ", ".join(f"{c}={n}" for c, n in unexpected.items())
        print(f"error: unexpected failure classes: {detail}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

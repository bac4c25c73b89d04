"""Command-line entry point: ``repro-exp [ids...]`` runs experiments.

Examples
--------
``repro-exp --list``            list experiment ids
``repro-exp fig3 table1``       run two experiments
``repro-exp --all``             run everything (fig5 uses the fast backend)
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.registry import experiment_ids, run_experiment

#: Experiments that accept a ``seed`` keyword.
_SEEDABLE = {
    "fig2", "fig5", "fig8", "fig9",
    "ext-adaptive", "ext-contention", "ext-faults", "ext-outage", "ext-serve",
}

#: Experiments whose sweeps route through the chunked parallel runner
#: (:mod:`repro.core.parallel`) and accept a ``workers`` keyword.
_PARALLEL = {"fig7", "ext-contention", "ext-faults", "ext-outage"}

#: Experiments that accept a ``checkpoint`` keyword (a
#: :class:`repro.resilience.checkpoint.RunCheckpoint`): their sweeps record
#: completed chunks durably and ``--resume`` skips them bit-identically.
_CHECKPOINTABLE = {"fig7", "ext-contention", "ext-faults", "ext-outage"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-exp",
        description="Reproduce tables and figures of the energy-aware precision-beekeeping paper.",
    )
    parser.add_argument("ids", nargs="*", help="experiment ids (see --list)")
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument("--all", action="store_true", help="run every paper experiment")
    parser.add_argument(
        "--extensions", action="store_true",
        help="with --list/--all: include the future-work extension experiments",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed where applicable")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for parallelizable sweeps (default: serial; "
        "results are seed-stable — identical for any worker count)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of tables; stdout carries "
        "only the JSON document (charts and diagnostics go to stderr)",
    )
    parser.add_argument(
        "--json-out", metavar="FILE", default=None,
        help="write the JSON document to FILE via a crash-safe atomic "
        "replace (tmp + fsync + rename) instead of stdout; implies --json",
    )
    parser.add_argument("--plot", action="store_true", help="also draw the figure's curves as an ASCII chart")
    parser.add_argument(
        "--metrics", action="store_true",
        help="collect observability metrics and the per-phase energy ledger "
        "during the runs (see docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="collect sim-clock spans during the runs (see docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--obs-out", metavar="FILE", default=None,
        help="write the versioned observability snapshot to FILE "
        "(default: stderr); implies --metrics --trace",
    )
    parser.add_argument(
        "--no-series", action="store_true", help="with --json: omit the (large) series arrays"
    )
    parser.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="persist sweep progress to FILE (atomic, digest-protected; see "
        "docs/RESILIENCE.md); requires exactly one checkpointable experiment "
        f"id ({', '.join(sorted(_CHECKPOINTABLE))})",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, metavar="N", default=1,
        help="persist after every N completed sweep chunks (default: 1)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="with --checkpoint: load FILE and skip every chunk already "
        "recorded there; the resumed run is bit-identical to an "
        "uninterrupted one (stale schema or foreign run_key is refused)",
    )
    parser.add_argument(
        "--chaos-abort-after-saves", type=int, metavar="N", default=None,
        help="chaos hook: simulate a crash immediately after the N-th "
        "checkpoint save (used by repro-chaos and the resume golden case)",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="run every simulation invariant checker during the experiments "
        "and validate the output schema (see docs/TESTING.md); "
        "reports the number of checks that ran",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.json_out is not None:
        args.json = True
    if args.list:
        for eid in experiment_ids(include_extensions=args.extensions):
            print(eid)
        return 0
    ids = experiment_ids(include_extensions=args.extensions) if args.all else args.ids
    if not ids:
        build_parser().print_help()
        return 2
    known = set(experiment_ids(include_extensions=True))
    unknown = [i for i in ids if i not in known]
    if unknown:
        print(f"unknown experiment ids: {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.resume and args.checkpoint is None:
        print("--resume requires --checkpoint FILE", file=sys.stderr)
        return 2
    if args.checkpoint_every < 1:
        print("--checkpoint-every must be >= 1", file=sys.stderr)
        return 2
    if args.checkpoint is not None:
        ckpt_ids = [i for i in ids if i in _CHECKPOINTABLE]
        if len(ids) != 1 or not ckpt_ids:
            print(
                "--checkpoint requires exactly one checkpointable experiment id "
                f"({', '.join(sorted(_CHECKPOINTABLE))}); got: {', '.join(ids)}",
                file=sys.stderr,
            )
            return 2
    from contextlib import ExitStack

    stack = ExitStack()
    if args.validate:
        from repro.validate.schema import check_experiment_result
        from repro.validate.state import checks_run, reset_check_count, validation

        stack.enter_context(validation(True))
        reset_check_count()
    obs = None
    if args.metrics or args.trace or args.obs_out is not None:
        from repro.obs import Obs, dump_snapshot, observing

        obs = Obs()
        stack.enter_context(observing(obs))
    from repro.resilience.errors import CheckpointError, InterruptedRun

    json_out = []
    for eid in ids:
        kwargs = {}
        if args.seed is not None and eid in _SEEDABLE:
            kwargs["seed"] = args.seed
        if args.workers is not None and eid in _PARALLEL:
            kwargs["workers"] = args.workers
        if args.checkpoint is not None and eid in _CHECKPOINTABLE:
            from repro.resilience.checkpoint import (
                CheckpointPolicy,
                RunCheckpoint,
                run_key,
            )

            # The run key binds the checkpoint to the experiment identity:
            # id + seed (never worker count — results are seed-stable, so a
            # resume may legally use a different --workers).
            key = run_key(eid, kwargs.get("seed"))
            try:
                kwargs["checkpoint"] = RunCheckpoint(
                    args.checkpoint,
                    run_key=key,
                    policy=CheckpointPolicy(every_units=args.checkpoint_every),
                    resume=args.resume,
                    abort_after_saves=args.chaos_abort_after_saves,
                )
            except CheckpointError as exc:
                print(f"checkpoint error: {exc}", file=sys.stderr)
                return 3
            if args.resume and kwargs["checkpoint"].resumed:
                print(f"resuming from checkpoint {args.checkpoint}", file=sys.stderr)
        try:
            result = run_experiment(eid, **kwargs)
        except InterruptedRun as exc:
            print(f"interrupted: {exc}", file=sys.stderr)
            print(exc.resume_hint(), file=sys.stderr)
            return 130
        except CheckpointError as exc:
            print(f"checkpoint error: {exc}", file=sys.stderr)
            return 3
        if args.validate:
            check_experiment_result(result, include_series=not args.no_series)
        chart = None
        if args.plot:
            from repro.util.asciiplot import plot_experiment

            chart = plot_experiment(result)
        if args.json:
            json_out.append(result.to_dict(include_series=not args.no_series))
            # --json wins: stdout stays a single parseable JSON document,
            # so the chart goes to stderr instead of interleaving.
            if chart:
                print(chart, file=sys.stderr)
                print(file=sys.stderr)
        else:
            print(result.render())
            if chart:
                print()
                print(chart)
            print()
    if args.json:
        import json

        if args.json_out is not None:
            from repro.util.atomic import atomic_write_json

            atomic_write_json(args.json_out, json_out)
            print(f"JSON results written to {args.json_out}", file=sys.stderr)
        else:
            print(json.dumps(json_out, indent=2))
    stack.close()
    if obs is not None:
        extra = {"ids": list(ids)}
        if args.seed is not None:
            extra["seed"] = args.seed
        if args.obs_out is not None:
            from repro.util.atomic import atomic_writer

            with atomic_writer(args.obs_out) as fh:
                dump_snapshot(obs, fh, extra)
            print(f"observability snapshot written to {args.obs_out}", file=sys.stderr)
        else:
            dump_snapshot(obs, sys.stderr, extra)
    if args.validate:
        n = checks_run()
        # Parallel worker processes run their own checkers but cannot report
        # into this process's counter (documented in docs/TESTING.md).
        print(f"validation: {n} invariant check(s) ran, 0 violations", file=sys.stderr)
        if n == 0:
            print("validation: WARNING — no checkers ran", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

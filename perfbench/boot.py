"""Start one workload's program in a fresh process, for the ``setup_s`` metric.

Imports the layers the workload drives, builds them as a run does, prints
``ready`` and exits.  ``serve-http`` is absent: its set-up is the boot of a
real ``repro-serve`` process.

    python3 perfbench/boot.py serve-inproc|serve-faults|batch
"""

from __future__ import annotations

import sys


def main(workload: str) -> int:
    if workload == "batch":
        from repro.core.dessim import run_des_fleet  # noqa: F401
        from repro.core.routines import EDGE_CLOUD_SVM  # noqa: F401
        from repro.faults.fleetsim import run_faulty_fleet  # noqa: F401
    elif workload in ("serve-inproc", "serve-faults"):
        from repro.loadgen.replay import replay  # noqa: F401
        from repro.serve.engine import OrchestrationEngine, ServeConfig

        config = ServeConfig()
        if workload == "serve-faults":
            from repro.serve.checkpoint import ServeCheckpointer  # noqa: F401
            from workloads import faults_config

            config = faults_config(0)
        OrchestrationEngine(config)
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1] if len(sys.argv) > 1 else ""))

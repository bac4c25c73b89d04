"""Each entry point imports only the layers it runs.

Every check runs in a fresh interpreter, so nothing this test process has
already imported can hide an import:

* ``import repro`` loads no other module of the package, and its documented
  names still resolve on first use;
* ``repro-serve``'s boot, then a default engine behind ``make_server``
  answering the canonical smoke load and reporting, never imports numpy or
  the experiment, ML, audio, DSP and discrete-event packages;
* the batch workload's boot imports load nothing of the serving stack and
  no experiment.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.loadgen.replay import iter_requests
from repro.serve.smoke import SMOKE_SPEC

SRC = Path(__file__).resolve().parents[2] / "src"

#: Packages the default server must never import.
SERVE_NEVER = ("numpy", "repro.experiments", "repro.ml", "repro.audio", "repro.dsp", "repro.des")

SERVE_SMOKE = """
import json, socket, sys, threading
import repro.serve.cli
from repro.serve.engine import OrchestrationEngine, ServeConfig
from repro.serve.http import make_server, read_response, request_bytes

requests = json.load(sys.stdin)
engine = OrchestrationEngine(ServeConfig())
server = make_server(engine)
thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
thread.start()
host, port = server.server_address
statuses = []
with socket.create_connection((host, port)) as sock:
    for request in requests:
        path = "/v1/" + request.pop("op")
        sock.sendall(request_bytes("POST", host, path, json.dumps(request).encode()))
        statuses.append(read_response(sock)[0])
    sock.sendall(request_bytes("GET", host, "/v1/health"))
    statuses.append(read_response(sock)[0])
server.shutdown()
thread.join()
server.server_close()
report = engine.report()
print(json.dumps({"statuses": statuses, "served": report["served"], "modules": sorted(sys.modules)}))
"""


def _run(code: str, stdin: str = "") -> dict:
    """Run ``code`` in a fresh interpreter and parse the JSON it prints."""
    proc = subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded(modules, packages):
    return sorted(m for m in modules if any(m == p or m.startswith(p + ".") for p in packages))


def test_import_repro_loads_nothing_else():
    out = _run(
        "import json, sys\n"
        "import repro\n"
        "modules = sorted(sys.modules)\n"
        "names = [name for name in repro.__all__ if getattr(repro, name) is not None]\n"
        "print(json.dumps({'modules': modules, 'names': names}))\n"
    )
    assert [m for m in out["modules"] if m.startswith("repro.")] == []
    assert len(out["names"]) == 14  # the 13 documented names and __version__


def test_default_server_answers_the_smoke_load_without_numpy():
    requests = list(iter_requests(SMOKE_SPEC))
    out = _run(SERVE_SMOKE, json.dumps(requests))
    assert out["statuses"] == [200] * (len(requests) + 1)
    assert out["served"] == len(requests)
    assert _loaded(out["modules"], SERVE_NEVER) == []


def test_batch_boot_loads_no_serving_stack():
    out = _run(
        "import json, sys\n"
        "import repro.core.dessim, repro.core.routines, repro.faults.fleetsim\n"
        "print(json.dumps({'modules': sorted(sys.modules)}))\n"
    )
    assert _loaded(out["modules"], ("repro.serve", "repro.experiments")) == []

"""Wall-clock spans recorded from the benchmark's side of each layer boundary.

A traced run replaces the functions at each layer boundary with timed
wrappers for the duration of the run and restores them afterwards; the
program itself carries no instrumentation.  Spans nest: each span's *self*
time excludes the spans opened inside it, so the layers of one request sum
to the time spent in the outermost span.  Every wrapper costs about half a
microsecond, which the enclosing layer's self time includes; end-to-end
figures come from untraced runs.

A boundary the program no longer has is skipped, and its layer reads 0.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: (module, class or None for a module function, attribute, layer).
SERVE_BOUNDARIES: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.loadgen.replay", None, "merged_stream", "arrivals"),
    ("repro.loadgen.replay", "InProcessTransport", "send", "transport"),
    ("repro.loadgen.replay", "HttpTransport", "send", "transport"),
    ("repro.serve.engine", "OrchestrationEngine", "handle", "engine"),
    ("repro.core.livealloc", "LiveAllocation", "admit", "alloc"),
    ("repro.core.livealloc", "LiveAllocation", "release", "alloc"),
    ("repro.core.livealloc", "LiveAllocation", "placement_of", "alloc"),
    ("repro.core.livealloc", "LiveAllocation", "slot_occupancy", "alloc"),
    ("repro.core.livealloc", "LiveAllocation", "repack_on_failure", "alloc"),
    ("repro.serve.engine", "OrchestrationEngine", "_slot_marginal_j", "pricing"),
    ("repro.serve.engine", "OrchestrationEngine", "_edge_cost", "pricing"),
    ("repro.serve.engine", "OrchestrationEngine", "_next_slot_start", "pricing"),
    ("repro.network.link", "LinkModel", "expected_duration", "pricing"),
    ("repro.serve.engine", "OrchestrationEngine", "_advance_faults", "faults"),
    ("repro.serve.engine", "OrchestrationEngine", "_maybe_drain", "faults"),
    ("repro.serve.engine", "OrchestrationEngine", "_buffer_telemetry", "faults"),
    ("repro.serve.engine", "OrchestrationEngine", "_retry_cloud", "faults"),
    ("repro.serve.faults", "CompiledServeFaults", "hive_dark", "faults"),
    ("repro.serve.faults", "CompiledServeFaults", "server_down", "faults"),
    ("repro.serve.engine", "OrchestrationEngine", "_maybe_shed", "shed"),
    ("repro.serve.trace", "PlacementTrace", "append", "trace"),
    ("repro.obs.metrics", "MetricsRegistry", "counter", "obs"),
    ("repro.obs.metrics", "MetricsRegistry", "gauge", "obs"),
    ("repro.obs.metrics", "MetricsRegistry", "histogram", "obs"),
    ("repro.obs.metrics", "Counter", "inc", "obs"),
    ("repro.obs.metrics", "Gauge", "set", "obs"),
    ("repro.obs.metrics", "Histogram", "record", "obs"),
    ("repro.obs.ledger", "PhaseLedger", "add", "obs"),
    ("repro.serve.checkpoint", "ServeCheckpointer", "flush", "checkpoint"),
)

#: The discrete-event engine's run loop, shared by both DES kernels.
BATCH_BOUNDARIES: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.des.engine", "Engine", "run", "des_loop"),
)


class Spans:
    """Per-layer self time of one traced run, and the number of spans.

    A wrapper costs about half a microsecond, which lands in the self time
    of the enclosing layer; ``n_spans`` says how many there were.
    """

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {}
        self.n_spans = 0
        self._child_ns: List[int] = [0]

    def timed(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each call is one span of ``layer``."""
        clock = time.perf_counter_ns
        child_ns = self._child_ns
        self_ns = self.self_ns

        def span(*args, **kwargs):
            child_ns.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child_ns.pop()
                child_ns[-1] += elapsed
                self_ns[layer] = self_ns.get(layer, 0) + elapsed - inner
                self.n_spans += 1

        return span

    @contextlib.contextmanager
    def patched(self, boundaries: Iterable[Tuple[str, Optional[str], str, str]]) -> Iterator[None]:
        """Wrap every boundary the program has while the block runs."""
        patches = []
        try:
            for module_name, class_name, attr, layer in boundaries:
                try:
                    owner = importlib.import_module(module_name)
                except ImportError:
                    continue
                if class_name is not None:
                    owner = getattr(owner, class_name, None)
                original = owner.__dict__.get(attr) if owner is not None else None
                if not callable(original):
                    continue
                patches.append((owner, attr, original))
                setattr(owner, attr, self.timed(layer, original))
            yield
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def per_op(self, layer: str, n_ops: int, scale: float) -> float:
        """Self time of ``layer`` per operation, in units of ``scale`` ns."""
        return self.self_ns.get(layer, 0) / scale / n_ops if n_ops else 0.0

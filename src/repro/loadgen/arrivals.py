"""Seeded arrival processes: N hives' telemetry/inference request streams.

Each hive is an independent Poisson source (exponential inter-arrivals at
``rate_hz``) whose RNG stream is derived as
``derive_seed(seed, "loadgen", "hive", hive)`` — the same per-entity
derivation discipline as the fault and outage schedules, so a hive's
arrivals are a function of ``(seed, hive)`` alone.  Consequences the test
suite pins:

* **fleet-size independence** — adding hives (or generating hives in any
  chunking) never perturbs an existing hive's stream;
* **replay identity** — the same spec yields the same merged stream,
  request for request;
* **rate stationarity** — mean inter-arrival converges to ``1/rate_hz``.

A stream opens with one ``admit`` arrival (uniform in the admit window, so
a fleet does not stampede the service at t=0) followed by the hive's
telemetry/inference mix until the horizon.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, List

from repro.serve.engine import MAX_TELEMETRY_BYTES
from repro.util.rng import DEFAULT_SEED, derive_seed, make_rng


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: sort key is (t, hive, seq)."""

    t: float
    hive: int
    seq: int
    op: str  # "admit" | "telemetry" | "inference"
    payload_bytes: int = 0

    @property
    def sort_key(self):
        return (self.t, self.hive, self.seq)


@dataclass(frozen=True)
class LoadSpec:
    """Everything that pins a load run (and thus the server's trace)."""

    n_hives: int = 16
    rate_hz: float = 1.0 / 300.0  # one request per paper cycle per hive
    horizon_s: float = 3600.0
    telemetry_fraction: float = 0.5
    payload_bytes: int = 1024
    admit_window_s: float = 60.0
    seed: int = DEFAULT_SEED
    mode: str = "open"  # "open" (fire at schedule) | "closed" (wait for done)

    def __post_init__(self) -> None:
        if self.n_hives < 0:
            raise ValueError(f"n_hives must be >= 0, got {self.n_hives}")
        if self.rate_hz <= 0:
            raise ValueError(f"rate_hz must be > 0, got {self.rate_hz}")
        if self.horizon_s < 0:
            raise ValueError(f"horizon_s must be >= 0, got {self.horizon_s}")
        if not 0.0 <= self.telemetry_fraction <= 1.0:
            raise ValueError(
                f"telemetry_fraction must be in [0, 1], got {self.telemetry_fraction}"
            )
        if self.mode not in ("open", "closed"):
            raise ValueError(f"mode must be 'open' or 'closed', got {self.mode!r}")
        # the engine refuses any other telemetry size; bool subclasses int
        if type(self.payload_bytes) is not int or not 0 <= self.payload_bytes <= MAX_TELEMETRY_BYTES:
            raise ValueError(f"payload_bytes must be an int in [0, {MAX_TELEMETRY_BYTES}], "
                             f"got {self.payload_bytes!r}")

    def describe(self) -> dict:
        return {
            "n_hives": self.n_hives,
            "rate_hz": self.rate_hz,
            "horizon_s": self.horizon_s,
            "telemetry_fraction": self.telemetry_fraction,
            "payload_bytes": self.payload_bytes,
            "admit_window_s": self.admit_window_s,
            "seed": self.seed,
            "mode": self.mode,
        }


def hive_stream(spec: LoadSpec, hive: int) -> List[Arrival]:
    """One hive's full arrival list, a function of ``(spec.seed, hive)`` only."""
    rng = make_rng(derive_seed(spec.seed, "loadgen", "hive", hive))
    window = min(spec.admit_window_s, spec.horizon_s)
    t = float(rng.uniform(0.0, window)) if window > 0 else 0.0
    if t > spec.horizon_s:
        return []
    arrivals = [Arrival(t, hive, 0, "admit")]
    seq = 1
    while True:
        t += float(rng.exponential(1.0 / spec.rate_hz))
        if t > spec.horizon_s:
            return arrivals
        op = "telemetry" if float(rng.random()) < spec.telemetry_fraction else "inference"
        arrivals.append(
            Arrival(t, hive, seq, op, spec.payload_bytes if op == "telemetry" else 0)
        )
        seq += 1


def merged_stream(spec: LoadSpec) -> Iterator[Arrival]:
    """All hives' arrivals in global time order (ties broken by hive, seq)."""
    return heapq.merge(
        *(hive_stream(spec, hive) for hive in range(spec.n_hives)),
        key=lambda a: a.sort_key,
    )


def arrival_to_request(arrival: Arrival) -> dict:
    """The engine/HTTP request dict for one arrival."""
    request = {"op": arrival.op, "hive": arrival.hive, "t": arrival.t}
    if arrival.op == "telemetry":
        request["bytes"] = arrival.payload_bytes
    return request


__all__ = ["Arrival", "LoadSpec", "hive_stream", "merged_stream", "arrival_to_request"]

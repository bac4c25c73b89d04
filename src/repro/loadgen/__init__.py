"""Seeded, deterministic load generation for the orchestration service.

``repro.loadgen`` replays N simulated hives' telemetry/inference arrivals
against a serving target — the in-process engine or a live ``repro-serve``
over HTTP — reproducibly from a seed.  Per-hive arrival streams are
independent RNG streams (fleet-size- and chunking-independent, same
discipline as the fault schedules), so a load run is pinned by its
:class:`~repro.loadgen.arrivals.LoadSpec` alone and the resulting
placement trace can be checked against the batch simulator.

See ``docs/SERVING.md`` for usage and the open- vs closed-loop semantics.
"""

"""Crash-safe execution: checkpoints, supervision, chaos.

The north-star "production-scale system" must survive interruption: a
week-long sweep that is preempted, OOM-killed, or loses a worker must
resume from durable state and finish **bit-identical** to an
uninterrupted run — the orchestration-resilience concern the paper raises
for duty-cycled edge nodes (§IV night outages), lifted to the simulation
infrastructure itself.  Three layers:

:mod:`repro.resilience.snapshot`
    Versioned, schema-checked snapshot/restore of live state: the DES
    engine's full scheduling state, numpy RNG streams, realized fault
    schedules (re-armed on restore), and observability collectors.
:mod:`repro.resilience.checkpoint`
    Crash-only checkpoint files (atomic replace + payload digest +
    schema gate), cadence policies (every N units / N wall-seconds), and
    the multi-stage :class:`RunCheckpoint` the experiments resume from.
:mod:`repro.resilience.supervisor`
    :func:`supervised_map` — chunked parallel execution with heartbeats,
    per-chunk deadlines, crash/hang retries on fresh workers (same
    derived seeds, so retried == serial bit for bit), bounded retries
    then structured failure, and clean Ctrl-C teardown surfacing
    :class:`InterruptedRun`.

``repro-chaos`` (:mod:`repro.resilience.chaos`) turns the guarantees into
executable scenarios: SIGKILLed workers, truncated checkpoints, stale
schemas, kill-and-resume fingerprint equality.  ``docs/RESILIENCE.md``
is the prose contract.

The package re-exports nothing: import each name from its module, so
importing one layer loads no other.
"""

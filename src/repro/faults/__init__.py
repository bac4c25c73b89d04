"""Fault injection, retry/backoff resilience, failover and graceful degradation.

The subsystem layers onto the §VI models without touching the ideal paths:

* :mod:`~repro.faults.spec` — stochastic failure processes (server outage,
  link blackout/degradation, client crash) with seeded, reproducible draws;
* :mod:`~repro.faults.schedule` — specs compiled into deterministic
  time-stamped fault windows;
* :mod:`~repro.faults.retry` — timeout + exponential-backoff-with-jitter
  policy, energy-accounted;
* :mod:`~repro.faults.config` — per-run composition (which faults, how
  clients cope);
* :mod:`~repro.faults.monitor` — availability and resilience-energy metrics;
* :mod:`~repro.faults.fleetsim` — analytic cycle-level faulty fleet runs;
* :mod:`~repro.faults.desfaults` — the same faults as live, interruptible
  DES processes.
"""

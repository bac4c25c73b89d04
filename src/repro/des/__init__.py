"""Minimal discrete-event simulation (DES) kernel.

The paper's large-scale study (§VI) uses a cycle-level analytic model; this
package provides an event-driven counterpart used to *cross-validate* the
analytic simulator in :mod:`repro.core.dessim` and to model phenomena the
analytic model abstracts away (asynchronous wake-ups, battery depletion
mid-cycle, per-event energy ledgers).

Design: a binary-heap event queue ordered by ``(time, priority, sequence)``
(sequence breaks ties FIFO, which makes runs deterministic), generator-based
processes in the style of SimPy, and monitors that log events and state
timelines.
"""

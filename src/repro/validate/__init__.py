"""Runtime invariant checking and golden-trace regression (``repro.validate``).

Two halves:

* **Invariants** (:mod:`repro.validate.invariants`) — composable
  :class:`~repro.validate.invariants.Checker` objects that recompute
  conservation laws (energy-ledger totals vs battery delta, slot occupancy
  vs ``max_parallel``, cohort partitions vs fleet size, DES clock
  monotonicity, availability bounds) from independent derivations and raise
  structured :class:`InvariantViolation` errors.  Every simulation path
  takes ``validate=`` (tri-state: ``None`` defers to the global switch),
  and ``repro-exp <id> --validate`` flips the switch for a whole run.
* **Goldens** (:mod:`repro.validate.golden`, CLI ``repro-golden``) —
  canonical fingerprints of the paper's tables/figures and the
  fault/cohort/parallel simulation paths, committed under ``tests/golden/``
  and diffed field-by-field against fresh runs.

See ``docs/TESTING.md`` for the invariant catalog and the golden
regeneration workflow.
"""

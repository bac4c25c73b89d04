"""Live fleet orchestration service (ROADMAP item 1).

The batch simulator answers "what would the fleet cost"; this package
*runs* the orchestration: a long-lived process admitting hives, placing
each telemetry/inference request on the edge or in the cloud with the
existing energy models, and exposing the decisions over HTTP.  The core is
:class:`~repro.core.livealloc.LiveAllocation` — the same layout engine the
batch policies fold over — so online placement and batch allocation cannot
disagree (the ``serve-trace`` golden and the hypothesis suite in
``tests/core/test_livealloc.py`` pin this).

Layering, innermost first:

``repro.serve.engine``
    :class:`OrchestrationEngine` — deterministic, transport-free request
    handler (simulated time, obs-instrumented, trace-hashed).
``repro.serve.trace``
    :class:`PlacementTrace` — canonical event log + streaming SHA-256.
``repro.serve.http``
    lean HTTP/1.1 front end: one ``selectors`` loop on one thread holds
    every connection; graceful SIGTERM drain.
``repro.serve.cli``
    the ``repro-serve`` entry point.
``repro.serve.smoke``
    the canonical smoke configuration shared by CI and the golden case.

Drive it with :mod:`repro.loadgen` for seeded, replayable load.
"""

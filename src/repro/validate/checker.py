"""The checker contract, and the one checker the serving layer runs.

Split from :mod:`repro.validate.invariants` so that importing the serving
engine loads only this module and its two leaves
(:mod:`repro.validate.errors`, :mod:`repro.validate.state`), not the whole
catalog of batch-path checkers and the energy models they replay against.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.validate.errors import InvariantViolation
from repro.validate.state import note_check


class Checker:
    """One invariant contract.  Subclasses implement :meth:`check`."""

    #: Kebab-case invariant name used in violations and the docs catalog.
    name: str = "checker"
    #: One-line contract statement (rendered into docs/TESTING.md's catalog).
    contract: str = ""

    def check(self, subject: Any, context: Dict[str, Any]) -> None:
        raise NotImplementedError

    def violation(self, message: str, context: Dict[str, Any], **extra: Any) -> InvariantViolation:
        merged = dict(context)
        merged.update(extra)
        return InvariantViolation(self.name, message, merged)


def run_checkers(subject: Any, checkers: Iterable[Checker], context: Optional[Dict[str, Any]] = None) -> None:
    """Run every checker against ``subject``; first violation propagates."""
    ctx = dict(context or {})
    for checker in checkers:
        note_check()
        checker.check(subject, ctx)


class ServeConservation(Checker):
    """The serving layer's request partition: nothing offered is lost.

    Every non-health request an :class:`~repro.serve.engine.
    OrchestrationEngine` accepts lands in exactly one of three ledgers —
    served (an ``ok`` response), shed (deterministic overload rejection,
    503 over HTTP) or errored (a structured engine error) — checked with
    exact integer arithmetic.  The subject is anything exposing the four
    counters (the engine itself, or a report-shaped stand-in).
    """

    name = "serve-conservation"
    contract = "offered requests == served + shed + errored (exact integers)"

    def check(self, subject: Any, context: Dict[str, Any]) -> None:
        offered = int(getattr(subject, "n_offered"))
        served = int(getattr(subject, "n_served"))
        shed = int(getattr(subject, "n_shed"))
        errored = int(getattr(subject, "n_errored"))
        for label, value in (
            ("n_offered", offered), ("n_served", served),
            ("n_shed", shed), ("n_errored", errored),
        ):
            if value < 0:
                raise self.violation(f"{label} is negative ({value})", context)
        if offered != served + shed + errored:
            raise self.violation(
                f"offered {offered} != served {served} + shed {shed} "
                f"+ errored {errored}",
                context,
                n_offered=offered, n_served=served, n_shed=shed, n_errored=errored,
            )


__all__ = ["Checker", "run_checkers", "ServeConservation"]

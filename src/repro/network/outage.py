"""Seeded renewal outage schedules for intermittent connectivity.

Field deployments consistently report the Wi-Fi uplink *flapping* — hours of
connectivity followed by hours of darkness — rather than the short blackout
bursts :class:`repro.faults.spec.LinkBlackout` models.  This module realizes
that regime as an alternating **up/down renewal process** per client:

* an :class:`IntervalDist` describes one interval family (fixed,
  exponential, uniform, or log-normal — the distributions rural-link
  surveys actually fit);
* an :class:`OutagePattern` pairs an up-interval and a down-interval
  distribution and compiles them, per target, into the same
  :class:`~repro.faults.spec.FaultWindow` objects the fault timetable
  machinery already indexes (kind :data:`LINK_OUTAGE`);
* compilation is deterministic via the shared
  :func:`repro.util.rng.derive_seed` discipline — each target draws from
  its own ``(base, "link_outage", target)`` stream, so widening the fleet
  or chunking a sweep never perturbs another client's schedule.

The compiled up/down intervals *tile the horizon exactly* (property-tested):
:meth:`OutagePattern.compile_segments` returns the alternating ``(state,
t0, t1)`` tiles, and :meth:`compile_target` is simply its down tiles, so no
instant is ever both up and down and none is unaccounted for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Tuple

import numpy as np

from repro.util.validation import check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.spec import FaultWindow

#: Window kind for compiled outage intervals (client-targeted, like the
#: blackout/degradation kinds in :mod:`repro.faults.spec`).
LINK_OUTAGE = "link_outage"

#: Supported interval families.
FIXED = "fixed"
EXPONENTIAL = "exponential"
UNIFORM = "uniform"
LOGNORMAL = "lognormal"
INFINITE = "infinite"

_KINDS = (FIXED, EXPONENTIAL, UNIFORM, LOGNORMAL, INFINITE)


@dataclass(frozen=True)
class IntervalDist:
    """One renewal-interval family: strictly positive random durations.

    Use the named constructors (:meth:`fixed`, :meth:`exponential`,
    :meth:`uniform`, :meth:`lognormal`, :meth:`infinite`) rather than the
    raw ``(kind, a, b)`` fields; ``infinite`` is the "this state never
    ends" sentinel that :meth:`OutagePattern.always_up` builds on.
    """

    kind: str
    a: float
    b: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown interval kind {self.kind!r} (known: {_KINDS})")
        if self.kind == INFINITE:
            return
        check_positive(self.a, f"IntervalDist.{self.kind}.a")
        if self.kind == UNIFORM:
            check_positive(self.b, "IntervalDist.uniform.high")
            if self.b < self.a:
                raise ValueError(
                    f"uniform interval needs low <= high, got [{self.a}, {self.b}]"
                )
        elif self.kind == LOGNORMAL:
            check_non_negative(self.b, "IntervalDist.lognormal.cv")
        # fixed/exponential carry no second parameter.

    # -- constructors -----------------------------------------------------
    @staticmethod
    def fixed(seconds: float) -> "IntervalDist":
        """Deterministic intervals of exactly ``seconds``."""
        return IntervalDist(FIXED, seconds)

    @staticmethod
    def exponential(mean_s: float) -> "IntervalDist":
        """Memoryless intervals with mean ``mean_s``."""
        return IntervalDist(EXPONENTIAL, mean_s)

    @staticmethod
    def uniform(low_s: float, high_s: float) -> "IntervalDist":
        """Uniform intervals on ``[low_s, high_s]``."""
        return IntervalDist(UNIFORM, low_s, high_s)

    @staticmethod
    def lognormal(median_s: float, cv: float = 0.5) -> "IntervalDist":
        """Log-normal intervals with the given median and coefficient of
        variation (the long-tailed shape rural-link surveys report)."""
        return IntervalDist(LOGNORMAL, median_s, cv)

    @staticmethod
    def infinite() -> "IntervalDist":
        """The state never ends — used by :meth:`OutagePattern.always_up`."""
        return IntervalDist(INFINITE, 1.0)

    # -- behaviour --------------------------------------------------------
    @property
    def mean_s(self) -> float:
        """Expected interval length (``inf`` for the infinite sentinel)."""
        if self.kind == INFINITE:
            return math.inf
        if self.kind in (FIXED, EXPONENTIAL):
            return self.a
        if self.kind == UNIFORM:
            return 0.5 * (self.a + self.b)
        # log-normal mean = median * exp(sigma^2 / 2)
        sigma2 = math.log1p(self.b**2)
        return self.a * math.exp(sigma2 / 2.0)

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one interval.  Fixed intervals consume no randomness, so a
        fixed/fixed pattern is identical for every seed by construction."""
        if self.kind == INFINITE:
            return math.inf
        if self.kind == FIXED:
            return self.a
        if self.kind == EXPONENTIAL:
            return float(rng.exponential(self.a))
        if self.kind == UNIFORM:
            return float(rng.uniform(self.a, self.b))
        sigma = math.sqrt(math.log1p(self.b**2))
        if sigma == 0.0:
            return self.a
        return float(rng.lognormal(mean=math.log(self.a), sigma=sigma))

    def describe(self) -> str:
        if self.kind == INFINITE:
            return "inf"
        if self.kind == FIXED:
            return f"{self.a:g}s"
        if self.kind == EXPONENTIAL:
            return f"exp({self.a:g}s)"
        if self.kind == UNIFORM:
            return f"U[{self.a:g},{self.b:g}]s"
        return f"lognorm({self.a:g}s, cv={self.b:g})"


@dataclass(frozen=True)
class OutagePattern:
    """Alternating up/down renewal process for one client's uplink.

    Compatible with the :class:`~repro.faults.spec.FaultSpec` compilation
    protocol (``kind`` attribute + ``compile_target``), so
    :func:`repro.faults.schedule.compile_schedule` realizes it alongside
    the other injectors with the same per-target seed derivation.

    Attributes
    ----------
    up, down:
        Interval distributions for the connected / disconnected states.
    start_up:
        Whether the link is connected at ``t=0`` (the common case; set
        ``False`` to model deployments that boot into darkness).
    """

    up: IntervalDist
    down: IntervalDist
    start_up: bool = True

    #: Compiled windows carry this kind (class attribute, spec protocol).
    kind = LINK_OUTAGE

    def __post_init__(self) -> None:
        if self.down.kind == INFINITE and self.up.kind == INFINITE:
            raise ValueError("up and down intervals cannot both be infinite")

    # -- constructors -----------------------------------------------------
    @staticmethod
    def always_up() -> "OutagePattern":
        """The zero-outage schedule: compiles to no windows for any seed."""
        return OutagePattern(up=IntervalDist.infinite(), down=IntervalDist.fixed(1.0))

    @staticmethod
    def duty_cycle(up_s: float, down_s: float, jitter: bool = True) -> "OutagePattern":
        """Mean ``up_s`` connected / ``down_s`` dark, memoryless if
        ``jitter`` else exactly periodic."""
        if jitter:
            return OutagePattern(
                up=IntervalDist.exponential(up_s), down=IntervalDist.exponential(down_s)
            )
        return OutagePattern(up=IntervalDist.fixed(up_s), down=IntervalDist.fixed(down_s))

    # -- compilation ------------------------------------------------------
    @property
    def never_fires(self) -> bool:
        """True when no down window can ever be realized."""
        return self.up.kind == INFINITE and self.start_up

    @property
    def expected_uptime_fraction(self) -> float:
        """Long-run fraction of time the link is up."""
        if self.up.kind == INFINITE:
            return 1.0
        if self.down.kind == INFINITE:
            return 0.0
        total = self.up.mean_s + self.down.mean_s
        return self.up.mean_s / total

    def compile_segments(
        self, horizon_s: float, rng: np.random.Generator
    ) -> List[Tuple[str, float, float]]:
        """Alternating ``("up"|"down", t0, t1)`` tiles covering exactly
        ``[0, horizon_s)`` — the invariant the property tests pin."""
        check_positive(horizon_s, "horizon_s")
        segments: List[Tuple[str, float, float]] = []
        t = 0.0
        state_up = self.start_up
        while t < horizon_s:
            dist = self.up if state_up else self.down
            # Exponential draws can round to exactly 0.0; clamp so the
            # renewal walk always advances and the loop terminates.
            length = max(dist.sample(rng), 1e-9)
            end = min(t + length, horizon_s)
            segments.append(("up" if state_up else "down", t, end))
            t = end
            state_up = not state_up
        return segments

    def compile_target(
        self, target: int, horizon_s: float, rng: np.random.Generator
    ) -> Tuple[FaultWindow, ...]:
        """Down tiles as :class:`FaultWindow` objects (spec protocol)."""
        # repro.faults imports this module while it initializes
        from repro.faults.spec import FaultWindow

        if self.never_fires:
            check_positive(horizon_s, "horizon_s")
            return ()
        return tuple(
            FaultWindow(start=t0, end=t1, kind=LINK_OUTAGE, target=target)
            for state, t0, t1 in self.compile_segments(horizon_s, rng)
            if state == "down" and t1 > t0
        )

    def describe(self) -> str:
        if self.never_fires:
            return f"{LINK_OUTAGE}(off)"
        return (
            f"{LINK_OUTAGE}(up={self.up.describe()}, down={self.down.describe()}"
            + ("" if self.start_up else ", starts down")
            + ")"
        )


__all__ = [
    "LINK_OUTAGE",
    "FIXED",
    "EXPONENTIAL",
    "UNIFORM",
    "LOGNORMAL",
    "INFINITE",
    "IntervalDist",
    "OutagePattern",
]

"""Fault specifications: stochastic failure processes with seeded draws.

Each spec describes one class of failure as a renewal process per target
(server index or client id): exponentially distributed time-to-failure with
mean ``mtbf_s``, followed by an exponentially distributed repair window with
mean ``repair_s``.  Compiling a spec against a horizon yields deterministic,
time-stamped :class:`FaultWindow` objects — the same seed always produces
the same fault timeline, so experiments are exactly reproducible.

The four concrete specs mirror the failure surface of the paper's §VI
deployment:

* :class:`ServerOutage` — a cloud server crashes and is unreachable.
* :class:`LinkBlackout` — a client's Wi-Fi uplink goes dark.
* :class:`LinkDegradation` — the uplink stays up but throughput collapses
  by ``throughput_factor``.
* :class:`ClientCrash` — the beehive client itself dies.  With zero repair
  time this degenerates to the paper's loss model C (per-wake-up dropout):
  a crash costs exactly the cycle it lands in and nothing else — see
  :meth:`ClientCrash.from_client_loss`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Tuple

from repro.core.calibration import CYCLE_SECONDS
from repro.core.losses import ClientLoss
from repro.util.validation import check_non_negative, check_positive

if TYPE_CHECKING:
    import numpy as np

#: Window kinds (``FaultWindow.kind`` values).
SERVER_OUTAGE = "server_outage"
LINK_BLACKOUT = "link_blackout"
LINK_DEGRADATION = "link_degradation"
CLIENT_CRASH = "client_crash"


@dataclass(frozen=True, order=True)
class FaultWindow:
    """One realized fault: ``target`` is affected during ``[start, end)``.

    Zero-width windows (``end == start``) model instantaneous faults that
    still abort whatever was in progress — the zero-repair client crash.
    """

    start: float
    end: float
    kind: str = field(compare=False)
    target: int = field(compare=False)
    severity: float = field(default=1.0, compare=False)

    def __post_init__(self) -> None:
        check_non_negative(self.start, "FaultWindow.start")
        if self.end < self.start:
            raise ValueError(f"window end {self.end} precedes start {self.start}")
        check_non_negative(self.severity, "FaultWindow.severity")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def covers(self, t: float) -> bool:
        """True if the fault is active at instant ``t`` (half-open window)."""
        return self.start <= t < self.end

    def overlaps(self, t0: float, t1: float) -> bool:
        """True if the fault intersects ``[t0, t1)``.

        A zero-width window overlaps the interval containing its instant, so
        zero-repair crashes still void the cycle they land in.
        """
        if self.end == self.start:
            return t0 <= self.start < t1
        return self.start < t1 and self.end > t0


class FaultSpec:
    """Shared renewal-process compilation for all fault specs."""

    kind: str = "fault"
    mtbf_s: float
    repair_s: float

    def _validate_process(self) -> None:
        # An infinite MTBF is the documented "never fires" sentinel, so it
        # bypasses the finite-number validation.
        if not (math.isinf(self.mtbf_s) and self.mtbf_s > 0):
            check_positive(self.mtbf_s, "mtbf_s")
        check_non_negative(self.repair_s, "repair_s")

    def _draw_repair(self, rng: np.random.Generator) -> float:
        if self.repair_s == 0.0:
            return 0.0
        return float(rng.exponential(self.repair_s))

    def compile_target(
        self, target: int, horizon_s: float, rng: np.random.Generator
    ) -> Tuple[FaultWindow, ...]:
        """Realize this spec's windows for one target over ``[0, horizon_s)``."""
        check_positive(horizon_s, "horizon_s")
        if not math.isfinite(self.mtbf_s):
            return ()
        windows: List[FaultWindow] = []
        t = float(rng.exponential(self.mtbf_s))
        while t < horizon_s:
            repair = self._draw_repair(rng)
            windows.append(
                FaultWindow(
                    start=t,
                    end=min(t + repair, horizon_s),
                    kind=self.kind,
                    target=target,
                    severity=self._severity(),
                )
            )
            t += repair + float(rng.exponential(self.mtbf_s))
        return tuple(windows)

    def _severity(self) -> float:
        return 1.0

    def describe(self) -> str:
        if not math.isfinite(self.mtbf_s):
            return f"{self.kind}(off)"
        return f"{self.kind}(mtbf={self.mtbf_s:g}s, repair={self.repair_s:g}s)"


@dataclass(frozen=True)
class ServerOutage(FaultSpec):
    """A cloud server crashes and serves nothing until repaired.

    While down the server draws no power (its idle baseline disappears from
    the ledger) but every client scheduled on it misses its slot and enters
    the retry/failover path.
    """

    mtbf_s: float = 24 * 3600.0
    repair_s: float = 600.0
    kind: str = field(default=SERVER_OUTAGE, init=False)

    def __post_init__(self) -> None:
        self._validate_process()


@dataclass(frozen=True)
class LinkBlackout(FaultSpec):
    """A client's uplink goes completely dark (AP reboot, interference)."""

    mtbf_s: float = 48 * 3600.0
    repair_s: float = 120.0
    kind: str = field(default=LINK_BLACKOUT, init=False)

    def __post_init__(self) -> None:
        self._validate_process()


@dataclass(frozen=True)
class LinkDegradation(FaultSpec):
    """The uplink survives but throughput drops to ``throughput_factor``.

    Transfers succeed, stretched by ``1/throughput_factor`` — the client's
    radio stays on longer, so the cycle costs more energy but no detection
    is lost.
    """

    mtbf_s: float = 12 * 3600.0
    repair_s: float = 1800.0
    throughput_factor: float = 0.25
    kind: str = field(default=LINK_DEGRADATION, init=False)

    def __post_init__(self) -> None:
        self._validate_process()
        if not 0.0 < self.throughput_factor <= 1.0:
            raise ValueError(
                f"throughput_factor must be in (0, 1], got {self.throughput_factor}"
            )

    def _severity(self) -> float:
        return self.throughput_factor

    def stretch_factor(self) -> float:
        """Wall-clock multiplier on transfer time while degraded."""
        return 1.0 / self.throughput_factor


@dataclass(frozen=True)
class ClientCrash(FaultSpec):
    """The beehive client dies; it misses every wake-up until repaired.

    A crash also voids the cycle it lands in (work in progress is lost), so
    ``repair_s=0`` — instantaneous reboot — reproduces the paper's loss
    model C exactly: each cycle is independently missed with probability
    ``1 − exp(−period/mtbf_s)`` and no other cycle is affected.
    """

    mtbf_s: float = 7 * 24 * 3600.0
    repair_s: float = 0.0
    kind: str = field(default=CLIENT_CRASH, init=False)

    def __post_init__(self) -> None:
        self._validate_process()

    @staticmethod
    def from_client_loss(
        loss: ClientLoss, period: float = CYCLE_SECONDS
    ) -> "ClientCrash":
        """The zero-repair crash process matching loss C's mean dropout.

        Loss C drops a Gaussian ``N(f·n, σ)`` number of clients per wake-up;
        the memoryless equivalent is each client independently missing a
        cycle with probability ``f``, i.e. an exponential crash process with
        ``P(crash in period) = f`` → ``mtbf = −period / ln(1 − f)``.  The
        per-cycle dropout *count* distribution differs (binomial vs clipped
        Gaussian) but its mean — and therefore the mean energy — agrees.
        """
        check_positive(period, "period")
        f = loss.mean_fraction
        if f <= 0.0:
            return ClientCrash(mtbf_s=math.inf, repair_s=0.0)
        if f >= 1.0:
            raise ValueError("cannot match a mean dropout fraction of 1.0")
        return ClientCrash(mtbf_s=-period / math.log1p(-f), repair_s=0.0)

    def miss_probability(self, period: float = CYCLE_SECONDS) -> float:
        """Probability a given cycle is missed (zero-repair reading)."""
        check_positive(period, "period")
        if not math.isfinite(self.mtbf_s):
            return 0.0
        return 1.0 - math.exp(-period / self.mtbf_s)


#: Public spec types, for isinstance checks and registry-style lookups.
ALL_FAULT_KINDS: Tuple[str, ...] = (
    SERVER_OUTAGE,
    LINK_BLACKOUT,
    LINK_DEGRADATION,
    CLIENT_CRASH,
)


def never() -> "ServerOutage":
    """A spec that never fires (infinite MTBF) — useful as a placeholder."""
    return ServerOutage(mtbf_s=math.inf, repair_s=0.0)


__all__ = [
    "FaultWindow",
    "FaultSpec",
    "ServerOutage",
    "LinkBlackout",
    "LinkDegradation",
    "ClientCrash",
    "SERVER_OUTAGE",
    "LINK_BLACKOUT",
    "LINK_DEGRADATION",
    "CLIENT_CRASH",
    "ALL_FAULT_KINDS",
    "never",
]

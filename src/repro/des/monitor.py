"""Time-series probes for DES runs.

:class:`Monitor` records ``(time, value)`` samples; :class:`StateTimeline`
records piecewise-constant state (e.g. a device's power state) and can
integrate a per-state weight over time — which is exactly how per-device
energy is computed from a power-state timeline.  :class:`EventLog` records
discrete tagged events (fault onsets, retries, failovers) for post-run
forensics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np


class Monitor:
    """Append-only ``(time, value)`` recorder with array export."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError(f"monitor {self.name!r}: time went backwards ({time} < {self._times[-1]})")
        self._times.append(float(time))
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._times)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(times, values)`` as float arrays."""
        return np.asarray(self._times), np.asarray(self._values)

    def mean(self) -> float:
        if not self._values:
            raise ValueError("empty monitor")
        return float(np.mean(self._values))

    def integrate(self) -> float:
        """Trapezoidal integral of value over time."""
        t, v = self.arrays()
        if t.size < 2:
            return 0.0
        return float(np.trapezoid(v, t))


@dataclass(frozen=True)
class LoggedEvent:
    """One discrete occurrence: ``kind`` at ``time`` with free-form detail."""

    time: float
    kind: str
    detail: Dict[str, object] = field(default_factory=dict)


class EventLog:
    """Append-only log of tagged events in non-decreasing time order.

    Used by the fault subsystem to record outage onsets/repairs, retries,
    failovers and fallbacks; generic enough for any discrete annotation a
    DES run wants to keep alongside its numeric monitors.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._events: List[LoggedEvent] = []

    def record(self, time: float, kind: str, **detail: object) -> LoggedEvent:
        if self._events and time < self._events[-1].time:
            raise ValueError(
                f"event log {self.name!r}: time went backwards "
                f"({time} < {self._events[-1].time})"
            )
        ev = LoggedEvent(float(time), kind, dict(detail))
        self._events.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    @property
    def events(self) -> List[LoggedEvent]:
        return list(self._events)

    def count(self, kind: str) -> int:
        return sum(1 for e in self._events if e.kind == kind)

    def kinds(self) -> List[str]:
        """Distinct kinds seen, sorted."""
        return sorted({e.kind for e in self._events})


class StateTimeline:
    """Piecewise-constant state recorder with weighted time integration.

    Typical use: record power-state transitions for a device, then call
    :meth:`integrate` with a ``state -> watts`` map to get joules.
    """

    def __init__(self, initial_state: str, start_time: float = 0.0) -> None:
        self._times: List[float] = [float(start_time)]
        self._states: List[str] = [initial_state]
        self._closed_at: Optional[float] = None

    @property
    def state(self) -> str:
        return self._states[-1]

    def transition(self, time: float, state: str) -> None:
        """Enter ``state`` at ``time``."""
        if self._closed_at is not None:
            raise ValueError("timeline is closed")
        if time < self._times[-1]:
            raise ValueError(f"time went backwards ({time} < {self._times[-1]})")
        if state == self._states[-1]:
            return  # no-op transition; keep timeline minimal
        self._times.append(float(time))
        self._states.append(state)

    def close(self, time: float) -> None:
        """Fix the end of the observation window."""
        if time < self._times[-1]:
            raise ValueError(f"close time {time} precedes last transition {self._times[-1]}")
        self._closed_at = float(time)

    def durations(self, end_time: Optional[float] = None) -> Dict[str, float]:
        """Total time spent per state up to ``end_time`` (or close time)."""
        end = self._resolve_end(end_time)
        out: Dict[str, float] = {}
        for i, state in enumerate(self._states):
            t0 = self._times[i]
            t1 = self._times[i + 1] if i + 1 < len(self._times) else end
            t1 = min(t1, end)
            if t1 > t0:
                out[state] = out.get(state, 0.0) + (t1 - t0)
        return out

    def integrate(self, weights: Dict[str, float], end_time: Optional[float] = None) -> float:
        """Integrate per-state ``weights`` (e.g. watts) over the timeline.

        Raises ``KeyError`` if a visited state has no weight — silent zeros
        would hide calibration gaps.
        """
        total = 0.0
        for state, dt in self.durations(end_time).items():
            total += weights[state] * dt
        return total

    def segments(self, end_time: Optional[float] = None) -> List[Tuple[float, float, str]]:
        """Return ``(t_start, t_end, state)`` triples."""
        end = self._resolve_end(end_time)
        segs = []
        for i, state in enumerate(self._states):
            t0 = self._times[i]
            t1 = self._times[i + 1] if i + 1 < len(self._times) else end
            t1 = min(t1, end)
            if t1 > t0:
                segs.append((t0, t1, state))
        return segs

    def _resolve_end(self, end_time: Optional[float]) -> float:
        if end_time is not None:
            return float(end_time)
        if self._closed_at is not None:
            return self._closed_at
        return self._times[-1]

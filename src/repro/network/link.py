"""Stochastic link model.

Throughput draws follow a log-normal around the nominal rate (long-tailed
slowdowns, never negative), with an optional per-transfer handshake latency.
The coefficient of variation defaults to the value that reproduces §IV's
routine-duration spread (σ ≈ 3.5 s on a ~15 s transfer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.util.rng import SeedLike, resolve_rng  # noqa: F401  (re-export)
from repro.util.validation import check_in_range, check_non_negative, check_positive

if TYPE_CHECKING:
    import numpy as np


def _check_payload(payload_bytes) -> float:
    """Reject NaN/inf/negative payloads before they poison transfer times."""
    if not math.isfinite(payload_bytes) or payload_bytes < 0:
        raise ValueError(
            f"payload_bytes must be a finite number >= 0, got {payload_bytes!r}"
        )
    return payload_bytes


@dataclass(frozen=True)
class LinkSample:
    """One realized transfer: throughput and total duration for a payload."""

    throughput_bps: float
    duration_s: float


class LinkModel:
    """Log-normal throughput link.

    Parameters
    ----------
    nominal_bps:
        Median throughput in bits/s.
    cv:
        Coefficient of variation of throughput (0 = deterministic).
    handshake_s:
        Fixed per-transfer setup latency (association, TLS, …).
    """

    def __init__(self, nominal_bps: float, cv: float = 0.25, handshake_s: float = 1.5) -> None:
        self.nominal_bps = check_positive(nominal_bps, "nominal_bps")
        self.cv = check_in_range(cv, "cv", 0.0, 2.0)
        self.handshake_s = check_non_negative(handshake_s, "handshake_s")
        # Log-normal parameterized so the *median* is nominal_bps and the
        # multiplicative spread matches cv.
        self._sigma = math.sqrt(math.log1p(self.cv**2))
        # Throughput at the log-normal's mean, which prices expected transfers.
        self._mean_bps = self.nominal_bps * math.exp(self._sigma**2 / 2)

    def sample_throughput(self, rng: np.random.Generator, size=None):
        """Draw throughput(s) in bits/s."""
        import numpy as np

        if self.cv == 0.0:
            if size is None:
                return self.nominal_bps
            return np.full(size, self.nominal_bps)
        draw = rng.lognormal(mean=np.log(self.nominal_bps), sigma=self._sigma, size=size)
        return float(draw) if size is None else draw

    def transfer(self, payload_bytes: int, rng: SeedLike = None, seed: SeedLike = None) -> LinkSample:
        """Realize one transfer of ``payload_bytes``.

        ``rng`` accepts anything :func:`repro.util.rng.make_rng` does — pass
        a live Generator to draw from an ongoing stream.  ``seed`` is a
        deprecated alias (see :func:`resolve_rng`).
        """
        _check_payload(payload_bytes)
        generator = resolve_rng(rng, seed)
        bps = self.sample_throughput(generator)
        duration = self.handshake_s + (payload_bytes * 8.0) / bps
        return LinkSample(throughput_bps=bps, duration_s=duration)

    def expected_duration(self, payload_bytes: int) -> float:
        """Duration at the *mean* throughput (log-normal mean > median)."""
        _check_payload(payload_bytes)
        return self.handshake_s + payload_bytes * 8.0 / self._mean_bps

    def describe(self) -> dict:
        """Stable, JSON-safe parameters (for config headers and fingerprints)."""
        return {
            "nominal_bps": self.nominal_bps,
            "cv": self.cv,
            "handshake_s": self.handshake_s,
        }

"""Retry policy: timeouts, exponential backoff with jitter, energy cost.

A failed upload is retried up to ``max_retries`` times.  Attempt ``i``
(0-based) waits ``timeout_s`` with the radio on before declaring failure,
then sleeps ``backoff_base_s · backoff_factor^i`` (± uniform jitter) before
the next attempt.  Every radio-on second is charged against the client's
cycle budget at the sender's transfer power — resilience is never free in
this model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.util.rng import SeedLike, make_rng
from repro.util.validation import check_in_range, check_non_negative

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/backoff parameters for failed uploads.

    Attributes
    ----------
    max_retries:
        Retries after the first failed attempt (0 disables retrying).
    timeout_s:
        Radio-on seconds a failing attempt burns before giving up.
    backoff_base_s:
        Backoff before the first retry.
    backoff_factor:
        Multiplier applied to the backoff per further retry.
    jitter:
        Uniform jitter fraction: the realized delay is
        ``nominal · (1 + U(−jitter, +jitter))``.
    max_delay_s:
        Ceiling on any single (jittered) backoff wait.  Exponential growth
        reaches it after ``log(max/base)/log(factor)`` retries and then
        stays flat, so large retry budgets neither overflow ``float`` nor
        sleep for geological time.  The default (300 s, one AP reboot) is
        far above the default 3-retry ladder (2/4/8 s), so existing runs
        are bit-identical.
    """

    max_retries: int = 3
    timeout_s: float = 5.0
    backoff_base_s: float = 2.0
    backoff_factor: float = 2.0
    jitter: float = 0.25
    max_delay_s: float = 300.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        check_non_negative(self.timeout_s, "timeout_s")
        check_non_negative(self.backoff_base_s, "backoff_base_s")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        check_in_range(self.jitter, "jitter", 0.0, 1.0)
        # inf is the documented "no cap" sentinel, mirroring FaultSpec.mtbf_s.
        if not (math.isinf(self.max_delay_s) and self.max_delay_s > 0):
            if not math.isfinite(self.max_delay_s) or self.max_delay_s <= 0:
                raise ValueError(
                    f"max_delay_s must be > 0 (or +inf to disable), got {self.max_delay_s}"
                )

    @staticmethod
    def none() -> "RetryPolicy":
        """Fail immediately: no retries, no waiting."""
        return RetryPolicy(max_retries=0, timeout_s=0.0, backoff_base_s=0.0)

    def nominal_delay_s(self, retry_index: int) -> float:
        """Jitter-free backoff before retry ``retry_index`` (0-based),
        capped at :attr:`max_delay_s`.

        Computed in log space so huge attempt indices (``2.0**10000`` would
        raise ``OverflowError``) saturate at the cap instead of exploding.
        """
        if retry_index < 0:
            raise ValueError("retry_index must be >= 0")
        if self.backoff_base_s == 0.0:
            return 0.0
        if self.backoff_factor > 1.0 and math.isfinite(self.max_delay_s):
            # Index beyond which base * factor**i >= max_delay_s.
            saturation = math.log(self.max_delay_s / self.backoff_base_s) / math.log(
                self.backoff_factor
            )
            if retry_index >= saturation:
                return self.max_delay_s
        try:
            raw = self.backoff_base_s * self.backoff_factor**retry_index
        except OverflowError:
            return self.max_delay_s
        return min(raw, self.max_delay_s)

    def delay_s(self, retry_index: int, rng: np.random.Generator) -> float:
        """Realized (jittered) backoff before retry ``retry_index``; the
        jittered value is also clamped to :attr:`max_delay_s`."""
        nominal = self.nominal_delay_s(retry_index)
        if self.jitter == 0.0 or nominal == 0.0:
            return nominal
        jittered = nominal * (1.0 + float(rng.uniform(-self.jitter, self.jitter)))
        return min(jittered, self.max_delay_s)

    def delays_s(self, rng_or_seed: SeedLike = None) -> List[float]:
        """Realized backoff sequence for a full retry budget."""
        rng = make_rng(rng_or_seed)
        return [self.delay_s(i, rng) for i in range(self.max_retries)]

    # -- energy accounting ------------------------------------------------
    def attempt_energy_j(self, radio_watts: float) -> float:
        """Joules one failed attempt burns (radio on for the timeout)."""
        check_non_negative(radio_watts, "radio_watts")
        return radio_watts * self.timeout_s

    def exhausted_energy_j(self, radio_watts: float) -> float:
        """Joules burned when every attempt fails (first try + all retries)."""
        return (1 + self.max_retries) * self.attempt_energy_j(radio_watts)

    def worst_case_duration_s(self) -> float:
        """Wall-clock upper bound of a fully exhausted retry sequence."""
        total = (1 + self.max_retries) * self.timeout_s
        for i in range(self.max_retries):
            total += min(self.nominal_delay_s(i) * (1.0 + self.jitter), self.max_delay_s)
        return total

    def describe(self) -> str:
        return (
            f"retry(x{self.max_retries}, timeout={self.timeout_s:g}s, "
            f"backoff={self.backoff_base_s:g}s×{self.backoff_factor:g}, "
            f"jitter=±{self.jitter:.0%})"
        )


__all__ = ["RetryPolicy"]

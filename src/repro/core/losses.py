"""Loss models of §VI-C.

Three independent loss mechanisms, composable through :class:`LossConfig`:

* **A — slot saturation** (:class:`SaturationPenalty`): once a slot's
  occupancy exceeds ``max_parallel − margin``, each extra client inflates
  the slot's energy by ``rate`` (default 10 %) of the slot energy.
* **B — transfer stretch** (:class:`TransferTimePenalty`): clients in a slot
  send simultaneously; each adds ``extra_s`` (default 1.5 s) to the slot's
  transfer window.  Slot *sizing* must assume the worst case
  (``max_parallel`` senders), so slots get longer, fewer fit per cycle and
  more servers are needed.
* **C — client loss** (:class:`ClientLoss`): at every wake-up a Gaussian
  number of clients (mean 10 % of the fleet, σ = 2) fails to report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.calibration import PAPER, PaperConstants
from repro.util.validation import check_non_negative

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SaturationPenalty:
    """Loss A: energy penalty on saturating slots.

    ``base`` selects what the penalty multiplies — the paper says "each
    additional client penalizes the whole energy slots by 10 %", which is
    ambiguous between the slot's *whole* window energy (``base='slot'``,
    the default: it reproduces Figure 8a's converged 186 J server cost) and
    only its *active* (receive+service) energy (``base='active'``: the
    interpretation under which Figure 9's edge+cloud-still-wins intervals
    are reachable).  See DESIGN.md §"loss-model ambiguities".
    """

    margin: int = PAPER.loss_a_margin
    rate: float = PAPER.loss_a_rate
    base: str = "slot"

    def __post_init__(self) -> None:
        if self.margin < 0:
            raise ValueError("margin must be >= 0")
        check_non_negative(self.rate, "rate")
        if self.base not in ("slot", "active"):
            raise ValueError(f"base must be 'slot' or 'active', got {self.base!r}")

    def multiplier(self, occupancy: int, max_parallel: int) -> float:
        """Slot-energy multiplier for ``occupancy`` clients."""
        if occupancy < 0 or occupancy > max_parallel:
            raise ValueError(f"occupancy {occupancy} outside [0, {max_parallel}]")
        threshold = max(max_parallel - self.margin, 0)
        over = max(occupancy - threshold, 0)
        return 1.0 + self.rate * over


@dataclass(frozen=True)
class TransferTimePenalty:
    """Loss B: transfer-time stretch.

    "A time penalty of 1.5 extra second per client for clients' data
    transfer time" with synchronized simultaneous senders is ambiguous:

    * ``cumulative=True`` (default): the slot's receive window grows by
      1.5 s *per admitted client* (channel contention scales with senders).
      This reproduces Figure 8b — 4 servers instead of 2 at 350 clients.
    * ``cumulative=False``: every client's transfer takes a constant 1.5 s
      longer regardless of how many send together.  This is the only
      reading under which Figure 9's "3 servers for 1600–1750 clients at 35
      per slot" is geometrically possible.
    """

    extra_s_per_client: float = PAPER.loss_b_extra_s_per_client
    cumulative: bool = True

    def __post_init__(self) -> None:
        check_non_negative(self.extra_s_per_client, "extra_s_per_client")

    def sizing_extra_s(self, max_parallel: int) -> float:
        """Transfer stretch used for slot sizing (worst case: full slot)."""
        if max_parallel < 1:
            raise ValueError("max_parallel must be >= 1")
        if self.cumulative:
            return self.extra_s_per_client * max_parallel
        return self.extra_s_per_client

    def actual_extra_s(self, occupancy: int) -> float:
        """Transfer stretch actually realized for an occupancy."""
        if occupancy < 0:
            raise ValueError("occupancy must be >= 0")
        if self.cumulative:
            return self.extra_s_per_client * occupancy
        return self.extra_s_per_client if occupancy > 0 else 0.0


@dataclass(frozen=True)
class ClientLoss:
    """Loss C: Gaussian per-wake-up client dropout.

    This is the *statistical* view of client unavailability: a count is
    drawn per wake-up with no notion of which client failed or for how
    long.  The explicit-process view lives in
    :class:`repro.faults.spec.ClientCrash` — a zero-repair crash process
    whose per-cycle miss probability matches ``mean_fraction`` reproduces
    this loss in expectation (see ``ClientCrash.from_client_loss``).
    """

    mean_fraction: float = PAPER.loss_c_mean_fraction
    std: float = PAPER.loss_c_std

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean_fraction <= 1.0:
            raise ValueError("mean_fraction must be in [0, 1]")
        check_non_negative(self.std, "std")

    def draw_lost(self, n_clients: int, rng: np.random.Generator) -> int:
        """Number of clients that fail to report this wake-up."""
        if n_clients < 0:
            raise ValueError("n_clients must be >= 0")
        if n_clients == 0:
            return 0
        lost = rng.normal(self.mean_fraction * n_clients, self.std)
        return int(min(max(round(lost), 0), n_clients))

    def draw_lost_array(self, n_clients: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Vectorized :meth:`draw_lost` over an array of fleet sizes."""
        import numpy as np

        n = np.asarray(n_clients, dtype=np.int64)
        if np.any(n < 0):
            raise ValueError("n_clients must be >= 0")
        lost = rng.normal(self.mean_fraction * n, self.std)
        return np.clip(np.round(lost), 0, n).astype(np.int64)


@dataclass(frozen=True)
class LossConfig:
    """Composition of the three loss models (any subset may be active)."""

    saturation: Optional[SaturationPenalty] = None
    transfer: Optional[TransferTimePenalty] = None
    client_loss: Optional[ClientLoss] = None

    @staticmethod
    def none() -> "LossConfig":
        """The ideal, loss-free configuration (§VI-B)."""
        return LossConfig()

    @staticmethod
    def all_paper(constants: PaperConstants = PAPER) -> "LossConfig":
        """All three losses at the paper's parameter values (§VI-C, Fig 8d).

        Uses the Figure-8-consistent readings (A on whole-slot energy,
        cumulative B); see :meth:`fig9` for the Figure-9-consistent variant.
        """
        return LossConfig(
            saturation=SaturationPenalty(constants.loss_a_margin, constants.loss_a_rate),
            transfer=TransferTimePenalty(constants.loss_b_extra_s_per_client),
            client_loss=ClientLoss(constants.loss_c_mean_fraction, constants.loss_c_std),
        )

    @staticmethod
    def fig9(constants: PaperConstants = PAPER) -> "LossConfig":
        """All three losses under the Figure-9-consistent readings.

        The paper's Figure 9 (35 clients/slot, all losses, edge+cloud still
        winning in intervals with only 3 servers up to ~1750 clients) is
        only reachable when loss B is a constant per-transfer stretch and
        loss A multiplies the slot's *active* energy; see the class
        docstrings and DESIGN.md.
        """
        return LossConfig(
            saturation=SaturationPenalty(constants.loss_a_margin, constants.loss_a_rate, base="active"),
            transfer=TransferTimePenalty(constants.loss_b_extra_s_per_client, cumulative=False),
            client_loss=ClientLoss(constants.loss_c_mean_fraction, constants.loss_c_std),
        )

    @property
    def any_active(self) -> bool:
        return any(x is not None for x in (self.saturation, self.transfer, self.client_loss))

    def describe(self) -> str:
        parts = []
        if self.saturation:
            parts.append(f"A(margin={self.saturation.margin}, rate={self.saturation.rate:g})")
        if self.transfer:
            parts.append(f"B(+{self.transfer.extra_s_per_client:g}s/client)")
        if self.client_loss:
            parts.append(f"C(mean={self.client_loss.mean_fraction:.0%}, std={self.client_loss.std:g})")
        return " + ".join(parts) if parts else "no loss"

"""Bounded store-and-forward edge buffer for intermittent uplinks.

When a client's uplink is dark (:mod:`repro.network.outage`), the cycle's
payload does not vanish: the hive stores it locally and drains the backlog
as a burst when connectivity returns.  This module models that buffer with
exact integer byte accounting so the conservation invariant

    ``offered == delivered + dropped + resident``

holds bit-for-bit at every instant (enforced by
:class:`repro.validate.invariants.BufferConservation`).

Three overflow policies, selected by :class:`BufferSpec`:

* :data:`DROP_OLDEST` — evict the oldest payloads until the new one fits
  (freshest data wins; evictions count as dropped).
* :data:`DROP_NEWEST` — refuse the incoming payload, keep the backlog
  (oldest data wins).
* :data:`BLOCK` — the buffer refuses and the client *skips the cycle*
  entirely (no local inference either); the orchestrator reads the
  ``"blocked"`` outcome and records a missed cycle.

Drain is link-contention aware: ``k`` clients draining through the same AP
each see ``nominal_bps / k`` (the same processor-sharing reading as
:mod:`repro.network.contention`), so :meth:`BufferSpec.drain_quota` shrinks
as reconnect bursts pile up.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, NamedTuple, Optional, Sequence, Tuple

from repro.network.link import LinkModel
from repro.network.wifi import PAPER_CYCLE_PAYLOAD_BYTES
from repro.util.validation import check_non_negative, check_positive

#: Overflow policies.
DROP_OLDEST = "drop-oldest"
DROP_NEWEST = "drop-newest"
BLOCK = "block"

BUFFER_POLICIES: Tuple[str, ...] = (DROP_OLDEST, DROP_NEWEST, BLOCK)

#: ``offer`` outcomes.
STORED = "stored"
DROPPED = "dropped"
BLOCKED = "blocked"


class BufferedPayload(NamedTuple):
    """One payload resident in (or drained from) the buffer."""

    enqueue_t: float
    nbytes: int


@dataclass(frozen=True)
class BufferSpec:
    """Sizing and policy of the per-client store-and-forward buffer.

    Attributes
    ----------
    capacity_bytes:
        Hard bound on resident bytes (flash/SD budget on the hive).
    policy:
        One of :data:`DROP_OLDEST`, :data:`DROP_NEWEST`, :data:`BLOCK`.
    payload_bytes:
        Size of one cycle's recording bundle (§IV payload by default).
    drain_window_s:
        Wall-clock budget per reconnected cycle for burst-draining backlog;
        the quota of payloads actually drained follows from the contended
        link rate (:meth:`drain_quota`).
    """

    capacity_bytes: int = 8 * PAPER_CYCLE_PAYLOAD_BYTES
    policy: str = DROP_OLDEST
    payload_bytes: int = PAPER_CYCLE_PAYLOAD_BYTES
    drain_window_s: float = 240.0

    def __post_init__(self) -> None:
        if self.policy not in BUFFER_POLICIES:
            raise ValueError(
                f"unknown buffer policy {self.policy!r} (known: {BUFFER_POLICIES})"
            )
        if not isinstance(self.capacity_bytes, numbers.Integral):
            raise ValueError("capacity_bytes must be an integer byte count")
        if not isinstance(self.payload_bytes, numbers.Integral):
            raise ValueError("payload_bytes must be an integer byte count")
        check_positive(self.capacity_bytes, "capacity_bytes")
        check_positive(self.payload_bytes, "payload_bytes")
        check_positive(self.drain_window_s, "drain_window_s")

    @staticmethod
    def for_cycles(n_cycles: int, policy: str = DROP_OLDEST, **kw) -> "BufferSpec":
        """A buffer holding exactly ``n_cycles`` paper payloads."""
        if n_cycles < 1:
            raise ValueError("for_cycles needs n_cycles >= 1")
        payload = int(kw.pop("payload_bytes", PAPER_CYCLE_PAYLOAD_BYTES))
        return BufferSpec(
            capacity_bytes=n_cycles * payload,
            policy=policy,
            payload_bytes=payload,
            **kw,
        )

    @property
    def capacity_payloads(self) -> int:
        """How many whole payloads fit."""
        return self.capacity_bytes // self.payload_bytes

    def drain_time_s(self, link: LinkModel, contenders: int = 1) -> float:
        """Airtime to drain ONE payload when ``contenders`` clients share
        the AP (processor-sharing: each sees ``nominal_bps/contenders``)."""
        if contenders < 1:
            raise ValueError("contenders must be >= 1")
        shared_bps = link.nominal_bps / contenders
        return link.handshake_s + self.payload_bytes * 8.0 / shared_bps

    def drain_quota(self, link: LinkModel, contenders: int = 1) -> int:
        """Whole payloads drainable inside ``drain_window_s`` at the
        contended rate.  Zero when even one payload cannot fit — the
        backlog then waits for a quieter cycle."""
        per = self.drain_time_s(link, contenders)
        if not math.isfinite(per) or per <= 0.0:
            return 0
        return int(self.drain_window_s // per)

    def drain_quota_for(self, per_payload_s: float, contenders: int = 1) -> int:
        """Same quota from a known single-drainer airtime (the fleet
        simulators price one payload at the scenario's calibrated upload
        duration rather than a :class:`LinkModel` draw).  ``contenders``
        stretches the airtime linearly, processor-sharing style."""
        check_positive(per_payload_s, "per_payload_s")
        if contenders < 1:
            raise ValueError("contenders must be >= 1")
        per = per_payload_s * contenders
        return int(self.drain_window_s // per)

    def describe(self) -> str:
        return (
            f"buffer({self.capacity_payloads}x{self.payload_bytes}B, "
            f"{self.policy}, drain<={self.drain_window_s:g}s)"
        )


class EdgeBuffer:
    """Mutable per-client buffer with exact byte conservation.

    Every byte presented via :meth:`offer` lands in exactly one of the
    delivered / dropped / resident ledgers; :attr:`conserves` checks the
    partition with integer equality.
    """

    def __init__(self, spec: BufferSpec) -> None:
        self.spec = spec
        self._queue: Deque[BufferedPayload] = deque()
        self.offered_bytes = 0
        self.delivered_bytes = 0
        self.dropped_bytes = 0
        self.offered_payloads = 0
        self.delivered_payloads = 0
        self.dropped_payloads = 0
        self.blocked_payloads = 0
        self.delays_s: List[float] = []

    # -- state -------------------------------------------------------------
    @property
    def resident_bytes(self) -> int:
        return sum(p.nbytes for p in self._queue)

    @property
    def resident_payloads(self) -> int:
        return len(self._queue)

    @property
    def conserves(self) -> bool:
        return (
            self.offered_bytes
            == self.delivered_bytes + self.dropped_bytes + self.resident_bytes
        )

    # -- ingest ------------------------------------------------------------
    def offer(self, t: float, nbytes: Optional[int] = None) -> str:
        """Present one payload at time ``t``; returns the outcome.

        ``"stored"`` — admitted (possibly after drop-oldest evictions);
        ``"dropped"`` — refused and discarded (drop-newest, or the payload
        can never fit); ``"blocked"`` — refused under :data:`BLOCK`, the
        caller must skip the cycle.  Blocked bytes count as dropped in the
        conservation ledger (they never become resident or delivered).
        """
        check_non_negative(t, "offer.t")
        nb = self.spec.payload_bytes if nbytes is None else int(nbytes)
        check_positive(nb, "offer.nbytes")
        self.offered_bytes += nb
        self.offered_payloads += 1
        if nb > self.spec.capacity_bytes:
            # Can never fit, under any policy.
            self.dropped_bytes += nb
            self.dropped_payloads += 1
            return DROPPED
        if self.resident_bytes + nb <= self.spec.capacity_bytes:
            self._queue.append(BufferedPayload(t, nb))
            return STORED
        if self.spec.policy == DROP_OLDEST:
            while self._queue and self.resident_bytes + nb > self.spec.capacity_bytes:
                evicted = self._queue.popleft()
                self.dropped_bytes += evicted.nbytes
                self.dropped_payloads += 1
            self._queue.append(BufferedPayload(t, nb))
            return STORED
        if self.spec.policy == DROP_NEWEST:
            self.dropped_bytes += nb
            self.dropped_payloads += 1
            return DROPPED
        # BLOCK: refuse and tell the caller to skip the cycle.
        self.dropped_bytes += nb
        self.dropped_payloads += 1
        self.blocked_payloads += 1
        return BLOCKED

    # -- drain -------------------------------------------------------------
    def take(self, t: float) -> Optional[BufferedPayload]:
        """Drain the oldest resident payload at time ``t`` (FIFO), or
        ``None`` when empty.  Records the store-and-forward delay."""
        if not self._queue:
            return None
        payload = self._queue.popleft()
        self.delivered_bytes += payload.nbytes
        self.delivered_payloads += 1
        self.delays_s.append(max(0.0, t - payload.enqueue_t))
        return payload

    def drain(self, t: float, max_payloads: int) -> List[BufferedPayload]:
        """Drain up to ``max_payloads`` oldest payloads at time ``t``."""
        out: List[BufferedPayload] = []
        for _ in range(max(0, int(max_payloads))):
            payload = self.take(t)
            if payload is None:
                break
            out.append(payload)
        return out

    def report(self) -> "BufferReport":
        return BufferReport.from_buffers([self])


@dataclass(frozen=True)
class BufferReport:
    """Fleet-level buffer ledger: integer byte totals plus delay stats.

    ``delays_s`` holds every drained payload's store-and-forward delay —
    the shift this subsystem adds to the detection-delay distribution.
    """

    offered_bytes: int = 0
    delivered_bytes: int = 0
    dropped_bytes: int = 0
    resident_bytes: int = 0
    offered_payloads: int = 0
    delivered_payloads: int = 0
    dropped_payloads: int = 0
    resident_payloads: int = 0
    blocked_payloads: int = 0
    delays_s: Tuple[float, ...] = field(default=(), repr=False)

    @staticmethod
    def from_buffers(buffers: Sequence[EdgeBuffer]) -> "BufferReport":
        delays: List[float] = []
        for b in buffers:
            delays.extend(b.delays_s)
        return BufferReport(
            offered_bytes=sum(b.offered_bytes for b in buffers),
            delivered_bytes=sum(b.delivered_bytes for b in buffers),
            dropped_bytes=sum(b.dropped_bytes for b in buffers),
            resident_bytes=sum(b.resident_bytes for b in buffers),
            offered_payloads=sum(b.offered_payloads for b in buffers),
            delivered_payloads=sum(b.delivered_payloads for b in buffers),
            dropped_payloads=sum(b.dropped_payloads for b in buffers),
            resident_payloads=sum(b.resident_payloads for b in buffers),
            blocked_payloads=sum(b.blocked_payloads for b in buffers),
            delays_s=tuple(delays),
        )

    @property
    def conserves(self) -> bool:
        """The tentpole invariant, with exact integer arithmetic."""
        return (
            self.offered_bytes
            == self.delivered_bytes + self.dropped_bytes + self.resident_bytes
        )

    @property
    def delivered_fraction(self) -> float:
        """Delivered / offered bytes (1.0 when nothing was ever buffered —
        a pristine link delivers everything directly)."""
        if self.offered_bytes == 0:
            return 1.0
        return self.delivered_bytes / self.offered_bytes

    def delay_quantile(self, q: float) -> float:
        """Store-and-forward delay quantile in seconds (0.0 when nothing
        was drained)."""
        if not self.delays_s:
            return 0.0
        import numpy as np

        return float(np.quantile(np.asarray(self.delays_s), q))

    def describe(self) -> str:
        return (
            f"buffered={self.offered_payloads} delivered={self.delivered_payloads} "
            f"dropped={self.dropped_payloads} resident={self.resident_payloads} "
            f"(delivered {100.0 * self.delivered_fraction:.1f}% of buffered bytes)"
        )


__all__ = [
    "DROP_OLDEST",
    "DROP_NEWEST",
    "BLOCK",
    "BUFFER_POLICIES",
    "STORED",
    "DROPPED",
    "BLOCKED",
    "BufferedPayload",
    "BufferSpec",
    "EdgeBuffer",
    "BufferReport",
]

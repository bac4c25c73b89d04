"""Slot contention: deriving loss model B from channel sharing.

§VI-C's loss B postulates "1.5 extra second per client for clients' data
transfer time" when synchronized clients send simultaneously.  This module
derives that shape from first principles: ``k`` clients sharing one
fixed-capacity uplink (fair sharing, as Wi-Fi DCF approximates in
expectation) each see throughput ``C/k``, so the slot's receive window grows
linearly in ``k`` — the cumulative reading of loss B.  A per-client MAC
overhead term adds the constant part.

:func:`slot_transfer_time` is the analytic model;
:func:`simulate_slot_contention` realizes it with stochastic per-client
throughput draws and processor-sharing dynamics (clients that finish early
return their bandwidth to the pool), which tests compare against the
analytic bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.network.link import LinkModel
from repro.util.rng import SeedLike, make_rng
from repro.util.validation import check_non_negative, check_positive


def slot_transfer_time(
    payload_bytes: int,
    n_clients: int,
    channel_bps: float,
    per_client_overhead_s: float = 0.0,
) -> float:
    """Time for ``n_clients`` to finish uploading ``payload_bytes`` each over
    a fairly shared channel of ``channel_bps`` (analytic, deterministic).

    With perfect sharing every client finishes together at
    ``n * payload * 8 / C`` — linear in ``n``, the cumulative loss-B shape.
    """
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be >= 0")
    check_positive(channel_bps, "channel_bps")
    check_non_negative(per_client_overhead_s, "per_client_overhead_s")
    return n_clients * (payload_bytes * 8.0 / channel_bps + per_client_overhead_s)


@dataclass(frozen=True)
class ContentionResult:
    """Outcome of one stochastic slot realization."""

    n_clients: int
    completion_times: np.ndarray  # per-client finish times (s)

    @property
    def slot_receive_time(self) -> float:
        """When the last client finishes — the slot's receive window."""
        return float(self.completion_times.max())


def simulate_slot_contention(
    payload_bytes: int,
    n_clients: int,
    link: LinkModel,
    seed: SeedLike = None,
) -> ContentionResult:
    """Processor-sharing realization of a synchronized upload slot.

    Every client draws an individual *access* rate from ``link`` (its radio
    conditions cap what it could achieve alone); the shared channel grants
    each active client ``min(own_rate, channel/k_active)`` where the channel
    capacity is the link's nominal rate.  When a client drains its payload,
    the remaining clients re-divide the channel.  Event-driven exact
    simulation (piecewise-constant rates).
    """
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be >= 0")
    rng = make_rng(seed)
    own_rate = np.asarray(link.sample_throughput(rng, size=n_clients), dtype=float)
    remaining = np.full(n_clients, payload_bytes * 8.0)
    finish = np.full(n_clients, link.handshake_s)
    active = np.ones(n_clients, dtype=bool)
    now = link.handshake_s
    channel = link.nominal_bps

    while active.any():
        k = int(active.sum())
        share = channel / k
        rates = np.minimum(own_rate[active], share)
        # Time until the first active client drains.
        dt = float((remaining[active] / rates).min())
        remaining[active] -= rates * dt
        now += dt
        done = active.copy()
        done[active] = remaining[active] <= 1e-9
        finish[done & active] = now
        active &= ~done

    return ContentionResult(n_clients=n_clients, completion_times=finish)


def overrun_probability(
    payload_bytes: int,
    link: LinkModel,
    window_s: float,
    n_trials: int = 2000,
    seed: SeedLike = 0,
    n_clients: int = 1,
) -> float:
    """Probability an upload exceeds a slot's receive window.

    This quantifies the slot guard-time choice: with the deployed link
    (median 15 s transfers, cv 0.25) a 16.6 s window (guard 1.5 s) still gets
    overrun by the throughput tail — the §IV duration variance made concrete
    at the slot calendar.

    ``n_clients`` models fair channel sharing during the window (each of
    ``k`` simultaneous senders sees ``1/k`` of its drawn rate), so with a
    fixed seed the durations grow — and the overrun probability is
    monotonically non-decreasing — in the client count.
    """
    check_positive(window_s, "window_s")
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    rng = make_rng(seed)
    bps = np.asarray(link.sample_throughput(rng, size=n_trials)) / n_clients
    durations = link.handshake_s + payload_bytes * 8.0 / bps
    return float(np.mean(durations > window_s))


def fitted_loss_b_seconds_per_client(
    payload_bytes: int,
    link: LinkModel,
    max_clients: int = 10,
    n_trials: int = 20,
    seed: SeedLike = 0,
) -> float:
    """Least-squares slope of slot receive time vs occupancy (s/client).

    This is the empirical counterpart of the paper's 1.5 s/client loss-B
    parameter for a given payload and link.
    """
    if max_clients < 2:
        raise ValueError("max_clients must be >= 2")
    rng = make_rng(seed)
    ks: List[int] = []
    times: List[float] = []
    for k in range(1, max_clients + 1):
        for _ in range(n_trials):
            result = simulate_slot_contention(
                payload_bytes, k, link, seed=int(rng.integers(2**62))
            )
            ks.append(k)
            times.append(result.slot_receive_time)
    slope, _intercept = np.polyfit(np.asarray(ks, dtype=float), np.asarray(times), 1)
    return float(slope)

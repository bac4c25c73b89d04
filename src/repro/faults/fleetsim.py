"""Cycle-level fleet simulation under explicit faults.

:func:`run_faulty_fleet` is the failure-aware counterpart of
:func:`repro.core.simulate.simulate_fleet`: it compiles the fault config
into a deterministic timetable, then replays ``n_cycles`` of the scenario
cycle by cycle.  Each cycle:

1. clients whose crash window intersects the cycle miss it entirely;
2. survivors are packed by the allocator's filling policy (identical maths
   to the loss-C path, so zero-repair crashes reproduce loss C);
3. servers whose outage window intersects the cycle serve nothing and draw
   only the idle power of their surviving fraction of the cycle;
4. clients of a downed server burn their full retry budget, then fail over
   into surviving servers' free slots (:func:`repack_failed_servers`) —
   paying one extra upload — or degrade to local edge inference;
5. clients with a link blackout at their slot retry on the backoff ladder
   (nominal delays; jitter is exercised by the DES path) and recover if the
   blackout ends inside the retry span, else degrade;
6. link degradation stretches the radio-on window of otherwise-successful
   uploads, charging the extra airtime;
7. clients inside a *scheduled* connectivity outage
   (:class:`~repro.network.outage.OutagePattern`) never key the radio:
   the payload is stored in the per-client
   :class:`~repro.network.buffer.EdgeBuffer`, the detection degrades to
   local edge inference (outcome ``buffered``), the allocator releases the
   client's slot by re-packing the *connected* cohort, and reconnected
   clients burst-drain their backlog — contention-stretched airtime on the
   client, base receive + service marginals on the server.

With ``FaultConfig.none()`` every step above is the identity, so the result
is bit-for-bit the ideal §VI-B simulation.  All granularity compromises are
per-cycle: a server is "down for the cycle" if its outage intersects it.

Two slot geometries
-------------------
The accounting above exists once.  Where each client sits in the cycle —
its server, its slot and so its upload time — comes from one of two
geometries, picked from the filling policy:

* :class:`_FirstFitSlots`, the closed form of the paper's first-fit policy
  (the default, and what every production caller runs).  It visits only the
  clients a fault window can touch, so a cycle costs O(faults + servers)
  instead of O(clients).
* :class:`_AllocationSlots`, the policy's own per-cycle
  :class:`~repro.core.allocator.Allocation` and
  :func:`~repro.core.allocator.repack_failed_servers`.  It serves the other
  placement policies and is the oracle the closed form is tested against.

Both hand the accounting the same operands in the same order, so a
first-fit run is bit-identical under either (the ``faulty-array`` golden and
a hypothesis property pin this, monitor report and buffer ledger included).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.allocator import (
    Allocator,
    FillingPolicy,
    FirstFitPolicy,
    repack_failed_servers,
)
from repro.core.calibration import CYCLE_SECONDS, PAPER, PaperConstants
from repro.core.client import fallback_extra_energy
from repro.core.losses import LossConfig
from repro.core.routines import Scenario
from repro.core.simulate import server_cycle_energy
from repro.faults.config import FaultConfig
from repro.faults.monitor import (
    OUTCOME_BUFFERED,
    OUTCOME_FAILOVER,
    OUTCOME_FALLBACK,
    OUTCOME_MISSED,
    OUTCOME_OK,
    OUTCOME_RETRIED,
    FaultMonitor,
    ResilienceReport,
)
from repro.faults.schedule import (
    CLIENT_CRASH,
    LINK_BLACKOUT,
    LINK_DEGRADATION,
    SERVER_OUTAGE,
    FaultSchedule,
)
from repro.network.buffer import BLOCKED, BufferReport, EdgeBuffer
from repro.network.outage import LINK_OUTAGE
from repro.util.rng import SeedLike


@dataclass(frozen=True)
class FaultyFleetResult:
    """Per-cycle ledgers and resilience metrics of a faulty-fleet run."""

    scenario_name: str
    n_clients: int
    n_cycles: int
    period: float
    edge_energy_j: np.ndarray       # per cycle, incl. resilience overheads
    server_energy_j: np.ndarray     # per cycle
    retry_energy_j: np.ndarray      # per cycle (itemized, already in edge)
    failover_energy_j: np.ndarray
    fallback_energy_j: np.ndarray
    degradation_energy_j: np.ndarray
    n_active: np.ndarray            # surviving clients per cycle
    n_servers_down: np.ndarray
    report: ResilienceReport
    monitor: FaultMonitor
    faults_description: str
    schedule: FaultSchedule
    buffered_energy_j: Optional[np.ndarray] = None   # per cycle, in edge
    drain_energy_j: Optional[np.ndarray] = None      # per cycle, in edge
    buffer_report: Optional[BufferReport] = None

    @property
    def total_energy_j(self) -> float:
        return float(self.edge_energy_j.sum() + self.server_energy_j.sum())

    @property
    def delivered_data_fraction(self) -> float:
        """Fraction of expected cycle payloads that reached the cloud —
        directly (ok/retried/failover) or via a later buffer drain."""
        r = self.report
        if r.cycles_expected == 0:
            return 1.0
        direct = r.cycles_ok + r.cycles_retried + r.cycles_failover
        drained = self.buffer_report.delivered_payloads if self.buffer_report else 0
        return (direct + drained) / r.cycles_expected

    @property
    def mean_edge_energy_per_cycle(self) -> float:
        return float(self.edge_energy_j.mean())

    @property
    def mean_server_energy_per_cycle(self) -> float:
        return float(self.server_energy_j.mean())

    @property
    def mean_total_per_client_cycle(self) -> float:
        """Joules per (initial) client per cycle, the Figure 6/7 y-axis."""
        if self.n_clients == 0:
            return 0.0
        return self.total_energy_j / (self.n_clients * self.n_cycles)

    @property
    def availability(self) -> float:
        return self.report.availability

    @property
    def resilience_energy_j(self) -> float:
        return self.report.resilience_energy_j


def _retries_until(up_at: float, attempt_times: List[float]) -> Optional[int]:
    """First attempt index (0-based) at or after ``up_at``, if any."""
    for i, t in enumerate(attempt_times):
        if t >= up_at:
            return i
    return None


def _rasterize(schedule: FaultSchedule, kind: str, period: float, n_cycles: int):
    """Per-cycle sorted target lists for every window of ``kind``.

    Exactness: a window is attached to cycle ``c`` iff it overlaps
    ``[c·period, (c+1)·period)`` under the schedule's own predicate and
    floats, so membership here *is* ``down_during`` — and any point query
    ``covers(t)`` with ``t`` inside the cycle implies overlap, so the lists
    are complete for ``is_down`` probes too.
    """
    per_cycle = [set() for _ in range(n_cycles)]
    for target in schedule.targets(kind):
        for w in schedule.windows_for(kind, target):
            lo = 0 if not math.isfinite(w.start) else max(int(w.start // period) - 1, 0)
            hi = (
                n_cycles
                if not math.isfinite(w.end)
                else min(int(w.end // period) + 2, n_cycles)
            )
            for c in range(lo, hi):
                if w.overlaps(c * period, (c + 1) * period):
                    per_cycle[c].add(target)
    return [sorted(s) for s in per_cycle]


class _FirstFitSlots:
    """Closed-form first-fit geometry.

    First-fit packs the connected cohort in ascending id order, so a
    client's place is arithmetic on its rank among the packed clients:
    ``rank = cid − |removed below cid|`` (one bisect on the sparse removed
    list), ``server = rank // capacity``, ``slot = (rank % capacity) //
    max_parallel``.  Failover is structural too: only the last (boundary)
    server can have spare capacity, so the orphans of downed servers fill
    it in ``down`` order and their placements, the repacked occupancies and
    every upload time follow from counts alone.  Each fault window is
    mapped once to the cycles it can touch (:func:`_rasterize`), and only
    those clients are ever visited.
    """

    def __init__(self, schedule: FaultSchedule, n_clients: int, n_cycles: int,
                 period: float, allocator: Optional[Allocator]) -> None:
        self.n_clients = n_clients
        self.plan = allocator.plan if allocator is not None else None
        self.by_cycle = {
            kind: _rasterize(schedule, kind, period, n_cycles)
            for kind in (CLIENT_CRASH, SERVER_OUTAGE, LINK_BLACKOUT,
                         LINK_DEGRADATION, LINK_OUTAGE)
        }

    def crashed(self, cycle: int, t0: float, t1: float) -> List[int]:
        self.cycle, self.t0 = cycle, t0
        return self.by_cycle[CLIENT_CRASH][cycle]

    def pack(self, removed: Iterable[int]) -> None:
        self.removed = sorted(removed)
        self.removed_set = set(self.removed)
        cap = self.plan.capacity
        n_packed = self.n_clients - len(self.removed)
        self.n_srv = -(-n_packed // cap)
        self.c_bound = n_packed - (self.n_srv - 1) * cap if self.n_srv else 0

    def _rank(self, cid: int) -> int:
        return cid - bisect_left(self.removed, cid)

    def _upload_t(self, slot_idx: int) -> float:
        return self.t0 + slot_idx * self.plan.slot_duration

    def _home_slot(self, rank: int) -> int:
        return (rank % self.plan.capacity) // self.plan.max_parallel

    def _count(self, s: int) -> int:
        return self.c_bound if s == self.n_srv - 1 else self.plan.capacity

    def outage_probes(self):
        for cid in self.by_cycle[LINK_OUTAGE][self.cycle]:
            if cid not in self.removed_set:
                yield cid, self._upload_t(self._home_slot(self._rank(cid)))

    def down_servers(self) -> List[int]:
        return [s for s in self.by_cycle[SERVER_OUTAGE][self.cycle] if s < self.n_srv]

    def fail_over(self, down: List[int]) -> Tuple[int, int]:
        self.down_set = set(down)
        self.orphan_base: Dict[int, int] = {}
        n_orphans = 0
        for s in down:
            self.orphan_base[s] = n_orphans
            n_orphans += self._count(s)
        boundary_up = self.n_srv > 0 and (self.n_srv - 1) not in self.down_set
        spare = (self.plan.capacity - self.c_bound) if boundary_up else 0
        self.n_placed = min(n_orphans, spare)
        return n_orphans, self.n_placed

    def link_probes(self):
        cand = self.by_cycle[LINK_BLACKOUT][self.cycle]
        degraded = self.by_cycle[LINK_DEGRADATION][self.cycle]
        if degraded:
            cand = sorted(set(cand) | set(degraded))
        cap = self.plan.capacity
        for cid in cand:
            if cid in self.removed_set:
                continue
            r = self._rank(cid)
            if r // cap not in self.down_set:
                yield cid, self._upload_t(self._home_slot(r))

    def uploads(self, cids: Iterable[int]) -> List[Tuple[int, float]]:
        cap = self.plan.capacity
        out = []
        for cid in cids:
            if cid in self.removed_set:
                continue
            r = self._rank(cid)
            s = r // cap
            if s not in self.down_set:
                out.append((cid, self._upload_t(self._home_slot(r))))
                continue
            o = self.orphan_base[s] + (r - s * cap)  # orphan ordinal
            if o < self.n_placed:
                slot_idx = (self.c_bound + o) // self.plan.max_parallel
                out.append((cid, self._upload_t(slot_idx)))
        return out

    def occupancies(self):
        p = self.plan.max_parallel
        full = (p,) * self.plan.slots_per_cycle
        last = self.n_srv - 1
        for s in range(self.n_srv):
            if s in self.down_set:
                continue
            if s == last:
                n, r = divmod(self.c_bound + self.n_placed, p)
                yield (p,) * n + ((r,) if r else ())
            else:
                yield full


class _AllocationSlots:
    """Per-client geometry: the policy's own ``Allocation`` every cycle.

    Serves every filling policy.  It probes every client of every slot and
    fails over through :func:`repack_failed_servers`, which makes it the
    oracle the closed form is tested against.
    """

    def __init__(self, schedule: FaultSchedule, n_clients: int, n_cycles: int,
                 period: float, allocator: Optional[Allocator]) -> None:
        self.schedule = schedule
        self.n_clients = n_clients
        self.allocator = allocator
        # Clients with at least one compiled outage window: an always_up
        # pattern compiles none, and the per-slot probing is skipped
        # outright — an armed-but-idle schedule must cost (almost) nothing.
        self.outage_clients = frozenset(
            cid for cid in range(n_clients) if schedule.windows_for(LINK_OUTAGE, cid)
        )

    def crashed(self, cycle: int, t0: float, t1: float) -> List[int]:
        self.t0, self.t1 = t0, t1
        down_during = self.schedule.down_during
        return [cid for cid in range(self.n_clients) if down_during(CLIENT_CRASH, cid, t0, t1)]

    def pack(self, removed: Iterable[int]) -> None:
        removed = set(removed)
        packed = [cid for cid in range(self.n_clients) if cid not in removed]
        self.allocation = self.allocator.policy.allocate(packed, self.allocator.plan)

    def _slots(self):
        """``(cid, upload time)`` for every packed client, in slot order."""
        slot_dur = self.allocator.plan.slot_duration
        for srv in self.allocation.servers:
            for slot_idx, slot in enumerate(srv.slots):
                upload_t = self.t0 + slot_idx * slot_dur
                for cid in slot:
                    yield cid, upload_t

    def outage_probes(self):
        if not self.outage_clients:
            return ()
        return ((cid, t) for cid, t in self._slots() if cid in self.outage_clients)

    def down_servers(self) -> List[int]:
        return [
            srv.server_index
            for srv in self.allocation.servers
            if self.schedule.down_during(SERVER_OUTAGE, srv.server_index, self.t0, self.t1)
        ]

    def fail_over(self, down: List[int]) -> Tuple[int, int]:
        down_set = set(down)
        self.orphans = frozenset(
            cid
            for srv in self.allocation.servers
            if srv.server_index in down_set
            for slot in srv.slots
            for cid in slot
        )
        if not down:
            return 0, 0
        self.allocation, left = repack_failed_servers(self.allocation, down)
        return len(self.orphans), len(self.orphans) - len(left)

    def link_probes(self):
        return ((cid, t) for cid, t in self._slots() if cid not in self.orphans)

    def uploads(self, cids: Iterable[int]) -> List[Tuple[int, float]]:
        upload_at = dict(self._slots())
        return [(cid, upload_at[cid]) for cid in cids if cid in upload_at]

    def occupancies(self):
        return (tuple(srv.occupancies) for srv in self.allocation.servers)


def _slot_geometry(policy: Optional[FillingPolicy]) -> type:
    """The closed form encodes first-fit packing; any other policy gets its
    own per-cycle ``Allocation``."""
    if policy is None or isinstance(policy, FirstFitPolicy):
        return _FirstFitSlots
    return _AllocationSlots


def run_faulty_fleet(
    n_clients: int,
    scenario: Scenario,
    faults: Optional[FaultConfig] = None,
    n_cycles: int = 1,
    period: float = CYCLE_SECONDS,
    losses: Optional[LossConfig] = None,
    policy: Optional[FillingPolicy] = None,
    seed: SeedLike = None,
    constants: PaperConstants = PAPER,
    validate: Optional[bool] = None,
    obs=None,
) -> FaultyFleetResult:
    """Replay ``n_cycles`` of the scenario under explicit fault processes.

    The first-fit policy (``policy=None``, the default) runs on the closed-form
    slot geometry; every other policy on its own per-cycle ``Allocation``
    (see the module docstring).

    ``losses`` may carry loss A/B (they price saturation and transfer
    stretch exactly as in the ideal model — including on failover-repacked
    slots); loss C must be expressed as a
    :class:`~repro.faults.spec.ClientCrash` instead, so dropout has an
    explicit failure process behind it.

    ``obs=`` (or the ambient collector; see :mod:`repro.obs`) attributes
    each cycle's energy per phase as it is computed — retry burn → ``retry``,
    failover re-uploads and degradation airtime → ``transfer``, fallback
    inference → ``infer``, downed-server up-fraction → ``idle`` — so the
    phase sum reconciles exactly with ``total_energy_j``.

    ``n_clients=0`` is well-defined: every cycle is empty and all ledgers
    are zero.
    """
    if n_clients < 0:
        raise ValueError("n_clients must be >= 0")
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    faults = faults or FaultConfig.none()
    losses = losses or LossConfig.none()
    if losses.client_loss is not None:
        raise ValueError(
            "run_faulty_fleet models dropout via ClientCrash; "
            "pass FaultConfig(client_crash=ClientCrash.from_client_loss(...)) "
            "instead of LossConfig(client_loss=...)"
        )

    horizon = n_cycles * period
    client = scenario.client
    fallback_model = "svm"
    if scenario.server is not None and "cnn" in scenario.server.service.name:
        fallback_model = "cnn"

    # -- allocator & schedule -------------------------------------------------
    allocator: Optional[Allocator] = None
    n_server_targets = 0
    if not scenario.is_edge_only:
        allocator = Allocator(scenario.server, period=period, losses=losses, policy=policy)
        n_server_targets = allocator.servers_required(n_clients)
    schedule = faults.compile(
        horizon, n_servers=n_server_targets, n_clients=n_clients, seed=seed
    )
    geo = _slot_geometry(policy)(schedule, n_clients, n_cycles, period, allocator)

    retry = faults.retry
    send_task = None
    svc_marginal_1 = 0.0
    if not scenario.is_edge_only:
        send_task = client.active_tasks.get("send_audio")
        svc_marginal_1 = (
            scenario.server.service.energy
            - scenario.server.idle_watts * scenario.server.service.duration
        )
    outage_on = faults.link_outage is not None and not scenario.is_edge_only
    buf_spec = faults.buffer_spec()
    buffers: Dict[int, EdgeBuffer] = {}
    buffered_infer_j = (
        fallback_extra_energy(client, fallback_model, constants) if outage_on else 0.0
    )
    mon = FaultMonitor()
    for w in schedule.windows:
        mon.record_fault(w.start, w.kind, target=w.target, duration=w.duration)

    from repro.obs.state import resolve as _resolve_obs

    obs_c = _resolve_obs(obs)
    local = None
    if obs_c is not None:
        from repro.obs.attribution import (
            attribute_client_cycle,
            attribute_server_cycle,
            record_run,
        )
        from repro.obs.ledger import PhaseLedger

        local = PhaseLedger()

    # A fleet has few distinct occupancy profiles per cycle (first-fit: full
    # and boundary), so each is priced once.
    priced_occ: Dict[tuple, float] = {}

    def priced(occ: tuple) -> float:
        e = priced_occ.get(occ)
        if e is None:
            e = priced_occ[occ] = server_cycle_energy(
                scenario.server,
                list(occ),
                period=period,
                sizing_extra_s=allocator.sizing_extra_s,
                losses=losses,
            )
        return e

    edge_e = np.zeros(n_cycles)
    server_e = np.zeros(n_cycles)
    retry_e = np.zeros(n_cycles)
    failover_e = np.zeros(n_cycles)
    fallback_e = np.zeros(n_cycles)
    degradation_e = np.zeros(n_cycles)
    buffered_e = np.zeros(n_cycles)
    drain_e = np.zeros(n_cycles)
    active_arr = np.zeros(n_cycles, dtype=np.int64)
    down_arr = np.zeros(n_cycles, dtype=np.int64)

    for cycle in range(n_cycles):
        t0, t1 = cycle * period, (cycle + 1) * period
        mon.expect_cycle(n_clients)

        crashed = geo.crashed(cycle, t0, t1)
        n_active = n_clients - len(crashed)
        active_arr[cycle] = n_active
        mon.record_outcome(OUTCOME_MISSED, len(crashed))

        if scenario.is_edge_only:
            edge_e[cycle] = n_active * client.cycle_energy
            if local is not None:
                attribute_client_cycle(local, client, weight=n_active)
            mon.record_outcome(OUTCOME_OK, n_active)
            continue

        assert allocator is not None and send_task is not None
        geo.pack(crashed)
        t_rx_base = scenario.server.transfer_s

        # Scheduled connectivity outages: the client *knows* the modem is
        # dark at its nominal upload time (unlike a transient blackout), so
        # it never keys the radio — the send energy is refunded, the payload
        # goes to the store-and-forward buffer, and the detection degrades
        # to local edge inference.  The allocator then releases those slots
        # by re-packing only the connected cohort (automatic re-admission
        # next cycle, since allocation is per-cycle).
        out_pairs = [
            (cid, upload_t)
            for cid, upload_t in geo.outage_probes()
            if schedule.is_down(LINK_OUTAGE, cid, upload_t)
        ]
        n_out = len(out_pairs)
        if n_out:
            geo.pack(crashed + [cid for cid, _ in out_pairs])
            for cid, up_t in out_pairs:
                outcome = buffers.setdefault(cid, EdgeBuffer(buf_spec)).offer(up_t)
                if outcome == BLOCKED:
                    # BLOCK policy: the cycle is skipped outright — no
                    # local inference, no detection.
                    mon.record_outcome(OUTCOME_MISSED)
                else:
                    buffered_e[cycle] += buffered_infer_j
                    mon.charge_buffered(buffered_infer_j)
                    mon.record_outcome(OUTCOME_BUFFERED)

        edge_e[cycle] = n_active * client.cycle_energy - n_out * send_task.energy
        if local is not None:
            attribute_client_cycle(local, client, weight=n_active - n_out)
            if n_out:
                attribute_client_cycle(
                    local, client, weight=n_out, skip_tasks=("send_audio",)
                )

        # Failover: strip *all* downed servers first, then repack their
        # clients into the true survivors.  (Repacking one failure at a
        # time could land an orphan on another server that is itself down,
        # double-counting that client's cycle and pushing availability
        # above 1.0.)
        down = geo.down_servers()
        down_arr[cycle] = len(down)
        n_orphans, n_placed = geo.fail_over(down)
        n_unplaced = n_orphans - n_placed

        # Every orphan burned its full retry budget against its dead server.
        if n_orphans:
            burn = retry.exhausted_energy_j(send_task.power)
            retry_e[cycle] += burn * n_orphans
            mon.charge_retry(burn * n_orphans)
            mon.record_attempts((1 + retry.max_retries) * n_orphans)
            if retry.timeout_s > 0:
                mon.record_timeout_attempts((1 + retry.max_retries) * n_orphans)
        if n_placed:
            extra = send_task.energy * n_placed
            failover_e[cycle] += extra
            mon.charge_failover(extra)
            mon.record_attempts(n_placed)
            mon.record_outcome(OUTCOME_FAILOVER, n_placed)
        if n_unplaced:
            if faults.fallback:
                per = fallback_extra_energy(client, fallback_model, constants)
                fallback_e[cycle] += per * n_unplaced
                mon.charge_fallback(per * n_unplaced)
                mon.record_outcome(OUTCOME_FALLBACK, n_unplaced)
            else:
                mon.record_outcome(OUTCOME_MISSED, n_unplaced)

        # Link faults for clients whose home server survived.
        n_retried = 0
        n_link_fallback = 0
        n_link_missed = 0
        link_failed: set = set()
        for cid, upload_t in geo.link_probes():
            if schedule.is_down(LINK_BLACKOUT, cid, upload_t):
                window = schedule.active_window(LINK_BLACKOUT, cid, upload_t)
                attempt_times = [upload_t]
                t = upload_t
                for i in range(retry.max_retries):
                    t += retry.timeout_s + retry.nominal_delay_s(i)
                    attempt_times.append(t)
                rec = _retries_until(window.end, attempt_times)
                if rec is not None:
                    burn = rec * retry.attempt_energy_j(send_task.power)
                    retry_e[cycle] += burn
                    mon.charge_retry(burn)
                    mon.record_attempts(rec + 1)  # rec timeouts + the success
                    if retry.timeout_s > 0:
                        mon.record_timeout_attempts(rec)
                    n_retried += 1
                else:
                    burn = retry.exhausted_energy_j(send_task.power)
                    retry_e[cycle] += burn
                    mon.charge_retry(burn)
                    mon.record_attempts(1 + retry.max_retries)
                    if retry.timeout_s > 0:
                        mon.record_timeout_attempts(1 + retry.max_retries)
                    link_failed.add(cid)
                    if faults.fallback:
                        per = fallback_extra_energy(client, fallback_model, constants)
                        fallback_e[cycle] += per
                        mon.charge_fallback(per)
                        n_link_fallback += 1
                        mon.record_outcome(OUTCOME_FALLBACK)
                    else:
                        n_link_missed += 1
                        mon.record_outcome(OUTCOME_MISSED)
            elif schedule.is_down(LINK_DEGRADATION, cid, upload_t):
                window = schedule.active_window(LINK_DEGRADATION, cid, upload_t)
                stretch = 1.0 / window.severity
                extra = send_task.power * t_rx_base * (stretch - 1.0)
                degradation_e[cycle] += extra
                mon.charge_degradation(extra)

        # Remaining survivors uploaded first-try.
        n_served = (
            n_active - n_out - n_orphans
            - n_retried - n_link_fallback - n_link_missed
        )
        mon.record_attempts(max(n_served, 0))  # first-try uploads
        mon.record_outcome(OUTCOME_RETRIED, n_retried)
        mon.record_outcome(OUTCOME_OK, max(n_served, 0))

        # Burst drain: reconnected clients with backlog push it to their
        # allocated server inside ``drain_window_s``.  With ``k`` clients
        # draining through the shared AP, processor sharing stretches each
        # payload's airtime ×k on the client side while the server receives
        # the k streams in parallel — its per-payload receive marginal stays
        # at the base transfer time.  Only clients holding a slot after the
        # repack drain (an unplaced orphan has no server this cycle).
        drain_server_j = 0.0
        n_drained = 0
        if outage_on and buffers:
            drainers = geo.uploads(
                cid
                for cid in sorted(buffers)
                if cid not in link_failed and buffers[cid].resident_payloads > 0
            )
            if drainers:
                k = len(drainers)
                quota = buf_spec.drain_quota_for(send_task.duration, contenders=k)
                for cid, upload_t in drainers:
                    payloads = buffers[cid].drain(upload_t + send_task.duration, quota)
                    if not payloads:
                        continue
                    n = len(payloads)
                    n_drained += n
                    client_j = send_task.energy * k * n
                    drain_e[cycle] += client_j
                    mon.charge_drain(client_j)
                    mon.record_attempts(n)
                    drain_server_j += n * (
                        (scenario.server.receive_watts - scenario.server.idle_watts)
                        * t_rx_base
                        + svc_marginal_1
                    )

        # Server-side energy: survivors serve their (possibly repacked)
        # occupancies; downed servers draw idle only outside their windows.
        energy = 0.0
        for occ in geo.occupancies():
            energy += priced(occ)
            if local is not None:
                attribute_server_cycle(
                    local,
                    scenario.server,
                    list(occ),
                    period=period,
                    sizing_extra_s=allocator.sizing_extra_s,
                    losses=losses,
                )
        for sidx in down:
            overlap = sum(
                max(0.0, min(w.end, t1) - max(w.start, t0))
                for w in schedule.windows_for(SERVER_OUTAGE, sidx)
            )
            up_s = max(period - overlap, 0.0)
            energy += scenario.server.idle_watts * up_s
            if local is not None:
                local.add("idle", scenario.server.idle_watts * up_s, up_s)
        server_e[cycle] = energy + drain_server_j
        edge_e[cycle] += (
            retry_e[cycle] + failover_e[cycle] + fallback_e[cycle]
            + degradation_e[cycle] + buffered_e[cycle] + drain_e[cycle]
        )
        if local is not None:
            # Resilience overheads, same per-cycle floats the ledgers carry:
            # retry burn is radio-on at the send power, failover re-uploads,
            # degradation stretch and backlog drains are extra airtime,
            # fallback and buffered-cycle inference are local compute.
            send_w = send_task.power
            if retry_e[cycle]:
                local.add("retry", retry_e[cycle], retry_e[cycle] / send_w)
            if failover_e[cycle]:
                local.add("transfer", failover_e[cycle], failover_e[cycle] / send_w)
            if degradation_e[cycle]:
                local.add("transfer", degradation_e[cycle], degradation_e[cycle] / send_w)
            if fallback_e[cycle]:
                local.add("infer", fallback_e[cycle])
            if buffered_e[cycle]:
                local.add("infer", buffered_e[cycle])
            if drain_e[cycle]:
                local.add("transfer", drain_e[cycle], drain_e[cycle] / send_w)
            if n_drained:
                # Server-side drain marginals, split like attribute_server_cycle.
                rx_j = n_drained * (
                    (scenario.server.receive_watts - scenario.server.idle_watts)
                    * t_rx_base
                )
                local.add("transfer", rx_j, n_drained * t_rx_base)
                local.add(
                    "infer",
                    n_drained * svc_marginal_1,
                    n_drained * scenario.server.service.duration,
                )

    result = FaultyFleetResult(
        scenario_name=scenario.name,
        n_clients=n_clients,
        n_cycles=n_cycles,
        period=period,
        edge_energy_j=edge_e,
        server_energy_j=server_e,
        retry_energy_j=retry_e,
        failover_energy_j=failover_e,
        fallback_energy_j=fallback_e,
        degradation_energy_j=degradation_e,
        n_active=active_arr,
        n_servers_down=down_arr,
        report=mon.report(),
        monitor=mon,
        faults_description=faults.describe(),
        schedule=schedule,
        buffered_energy_j=buffered_e,
        drain_energy_j=drain_e,
        buffer_report=(
            BufferReport.from_buffers(list(buffers.values())) if outage_on else None
        ),
    )

    if obs_c is not None:
        report = result.report
        obs_c.metrics.counter("fleet.runs").inc()
        obs_c.metrics.counter("fleet.clients_active").inc(int(active_arr.sum()))
        for label, count in (
            ("faults.cycles_expected", report.cycles_expected),
            ("faults.cycles_ok", report.cycles_ok),
            ("faults.cycles_retried", report.cycles_retried),
            ("faults.cycles_failover", report.cycles_failover),
            ("faults.cycles_fallback", report.cycles_fallback),
            ("faults.cycles_buffered", report.cycles_buffered),
            ("faults.cycles_missed", report.cycles_missed),
            ("faults.events", report.n_fault_events),
            ("faults.send_attempts", mon.send_attempts),
            ("faults.timeout_attempts", mon.timeout_attempts),
        ):
            obs_c.metrics.counter(label).inc(count)
        obs_c.metrics.gauge("faults.availability").set(report.availability)
        local.note_total(result.total_energy_j)
        record_run(
            obs_c, "faulty_fleet", 0.0, horizon, local,
            scenario=scenario.name, n_clients=n_clients,
            n_cycles=n_cycles, availability=report.availability,
        )

    from repro.validate.state import resolve

    if resolve(validate):
        from repro.validate.invariants import validate_faulty_fleet_result

        validate_faulty_fleet_result(
            result,
            context={
                "scenario_name": scenario.name,
                "faults": faults.describe(),
                "seed": seed,
            },
        )
    return result


__all__ = ["FaultyFleetResult", "run_faulty_fleet"]

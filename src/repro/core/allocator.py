"""The allocator: distribute clients over servers and time slots.

The paper's allocator "takes a list of clients, creates servers based on
their features, allocates every client to one server, and links them to a
wake-up time slot", with a single filling policy: "filling a server with
clients by filling one slot up to its maximum after another" — our
:class:`FirstFitPolicy`.  :class:`RoundRobinPolicy` and
:class:`BalancedPolicy` are documented extensions used by the ablation
benchmarks (they interact with loss model A, which penalizes saturated
slots); best-fit, worst-fit, solar-budget, and swarm-scored join them via
the :class:`~repro.core.placement.PlacementPolicy` interface (see
``docs/POLICIES.md``).  All policy classes live in
:mod:`repro.core.placement` and are re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence

from repro.core.calibration import CYCLE_SECONDS
from repro.core.losses import LossConfig
from repro.core.placement import (
    BalancedPolicy,
    BestFitPolicy,
    FirstFitPolicy,
    PlacementPolicy,
    RoundRobinPolicy,
    SolarBudgetPolicy,
    SwarmScoredPolicy,
    WorstFitPolicy,
    resolve_policy,
)
from repro.core.server import ServerProfile, SlotPlan
from repro.validate.errors import InvariantViolation


@dataclass(frozen=True)
class ServerAssignment:
    """One server's slot occupancy: ``slots[i]`` lists client ids in slot i."""

    server_index: int
    slots: tuple  # tuple[tuple[int, ...], ...]

    @property
    def n_clients(self) -> int:
        return sum(len(s) for s in self.slots)

    @property
    def occupancies(self) -> List[int]:
        return [len(s) for s in self.slots]


@dataclass(frozen=True)
class Allocation:
    """Full fleet → servers/slots mapping."""

    servers: tuple  # tuple[ServerAssignment, ...]
    plan: SlotPlan

    @property
    def n_servers(self) -> int:
        return len(self.servers)

    @property
    def n_clients(self) -> int:
        return sum(s.n_clients for s in self.servers)

    @property
    def client_ids(self) -> List[int]:
        """Every allocated client id, in slot order."""
        return [cid for srv in self.servers for slot in srv.slots for cid in slot]

    def server_of(self, client_id: int) -> int:
        """Index of the server serving ``client_id``."""
        for srv in self.servers:
            for slot in srv.slots:
                if client_id in slot:
                    return srv.server_index
        raise KeyError(f"client {client_id} is not allocated")

    def validate(self) -> None:
        """Check structural invariants; raises :class:`InvariantViolation`
        (a ``ValueError`` subclass, so pre-existing handlers keep working).

        The ``seen`` set spans *all* servers, so a client id appearing on
        two different servers (a failover-repack bug) is rejected, not just
        duplicates within one server.  Duplicate ``server_index`` values are
        rejected too: two assignments sharing an index keep occupancies
        summing correctly while corrupting every by-index consumer
        (:func:`repack_failed_servers` would silently drop one server's
        clients from its orphan list).
        """
        seen = set()
        seen_indices = set()
        for srv in self.servers:
            if srv.server_index in seen_indices:
                raise InvariantViolation(
                    "slot-occupancy",
                    f"server index {srv.server_index} assigned twice",
                    {"server_index": srv.server_index},
                )
            seen_indices.add(srv.server_index)
            if len(srv.slots) > self.plan.slots_per_cycle:
                raise InvariantViolation(
                    "slot-occupancy",
                    f"server {srv.server_index} uses {len(srv.slots)} slots "
                    f"(> {self.plan.slots_per_cycle} per cycle)",
                    {"server_index": srv.server_index},
                )
            for slot in srv.slots:
                if len(slot) > self.plan.max_parallel:
                    raise InvariantViolation(
                        "slot-occupancy",
                        f"server {srv.server_index}: slot holds {len(slot)} clients "
                        f"(> max_parallel {self.plan.max_parallel})",
                        {"server_index": srv.server_index},
                    )
                for cid in slot:
                    if cid in seen:
                        raise InvariantViolation(
                            "slot-occupancy",
                            f"client {cid} allocated twice",
                            {"client_id": cid},
                        )
                    seen.add(cid)


class FillingPolicy(Protocol):
    """Strategy interface: distribute ``client_ids`` into servers/slots.

    Concrete policies carry a ``kind`` tag recognized by
    :class:`repro.core.livealloc.LiveAllocation`; batch allocation *is* the
    fold of ``admit`` over ``client_ids`` in order, so the online and batch
    paths share one layout engine.  The canonical implementations live in
    :mod:`repro.core.placement` (:class:`PlacementPolicy` and subclasses);
    this Protocol remains for structural typing of third-party policies.
    """

    kind: str

    def allocate(self, client_ids: Sequence[int], plan: SlotPlan) -> Allocation: ...


def repack_failed_server(
    allocation: Allocation, failed_server_index: int,
    policy: Optional[object] = None,
) -> tuple:
    """Re-pack a failed server's clients into surviving servers' free slots.

    Single-failure shorthand for :func:`repack_failed_servers`; see there
    for the packing rules.
    """
    return repack_failed_servers(allocation, (failed_server_index,), policy)


def repack_failed_servers(
    allocation: Allocation, failed_server_indices: Sequence[int],
    policy: Optional[object] = None,
) -> tuple:
    """Re-pack every failed server's clients into surviving servers' free slots.

    Surviving servers keep their existing assignments untouched (their
    clients' wake-up offsets stay valid); orphaned clients fill the
    survivors' residual capacity one seat at a time, choosing at each step
    the open seat the ``policy`` prefers — topping up partially filled
    slots to ``max_parallel`` and opening unused slots up to the plan's
    ``slots_per_cycle``.  With no policy (or any whose
    :meth:`~repro.core.placement.PlacementPolicy.repack_preference` is the
    constant default: first-fit, round-robin, balanced) the fill is the
    historical first-fit repack — survivor order, slot order.  Best-fit
    tops up the fullest seats first, worst-fit the emptiest, solar-budget
    the sunniest slot windows, swarm-scored the highest-pheromone pairs.
    No new server is spun up: mid-cycle failover cannot provision hardware,
    so clients that do not fit are returned for the graceful-degradation
    path (local edge inference).

    All failures are removed *before* any orphan is placed, so a client can
    never fail over onto another server that is itself down (one-at-a-time
    repacking had exactly that cascade, double-counting the client's cycle).
    Orphans are gathered in the order the failed indices are given.

    Returns ``(new_allocation, unplaced_client_ids)``; the new allocation
    excludes the failed servers and is re-validated, so a repack can never
    silently duplicate a client or overfill a slot — saturating a slot to
    the cap is allowed (and loss A then prices it accordingly).
    """
    failed_set = set(failed_server_indices)
    known_set = {srv.server_index for srv in allocation.servers}
    missing = failed_set - known_set
    if missing:
        known = ", ".join(str(i) for i in sorted(known_set))
        bad = ", ".join(str(i) for i in sorted(missing))
        raise ValueError(f"no server {bad} in allocation (servers: {known})")

    by_index = {srv.server_index: srv for srv in allocation.servers}
    survivors: List[ServerAssignment] = [
        srv for srv in allocation.servers if srv.server_index not in failed_set
    ]

    plan = allocation.plan
    orphans = [
        cid
        for sidx in dict.fromkeys(failed_server_indices)
        for slot in by_index[sidx].slots
        for cid in slot
    ]
    pos = 0
    if policy is None:
        # historical first-fit fill, kept as the O(orphans + slots) fast path
        repacked: List[ServerAssignment] = []
        for srv in survivors:
            slots = [list(s) for s in srv.slots]
            for slot in slots:
                while pos < len(orphans) and len(slot) < plan.max_parallel:
                    slot.append(orphans[pos])
                    pos += 1
            while pos < len(orphans) and len(slots) < plan.slots_per_cycle:
                take = min(plan.max_parallel, len(orphans) - pos)
                slots.append(list(orphans[pos : pos + take]))
                pos += take
            repacked.append(
                ServerAssignment(srv.server_index, tuple(tuple(s) for s in slots))
            )
    else:
        pol = resolve_policy(policy)
        n_before = len(allocation.servers)
        open_slots = [[list(s) for s in srv.slots] for srv in survivors]
        while pos < len(orphans):
            best = None  # (preference, survivor_pos, slot_ordinal)
            for si, srv in enumerate(survivors):
                slots = open_slots[si]
                candidates = [
                    sj for sj, slot in enumerate(slots)
                    if len(slot) < plan.max_parallel
                ]
                if len(slots) < plan.slots_per_cycle:
                    candidates.append(len(slots))  # open a fresh slot
                for sj in candidates:
                    occ = len(slots[sj]) if sj < len(slots) else 0
                    key = (
                        pol.repack_preference(
                            srv.server_index, sj, occ, plan, n_before
                        ),
                        si,
                        sj,
                    )
                    if best is None or key < best[0]:
                        best = (key, si, sj)
            if best is None:
                break  # every survivor is full
            _, si, sj = best
            if sj == len(open_slots[si]):
                open_slots[si].append([])
            open_slots[si][sj].append(orphans[pos])
            pos += 1
        repacked = [
            ServerAssignment(srv.server_index, tuple(tuple(s) for s in open_slots[si]))
            for si, srv in enumerate(survivors)
        ]

    new_alloc = Allocation(tuple(repacked), plan)
    new_alloc.validate()
    return new_alloc, tuple(orphans[pos:])


class Allocator:
    """Front door: size slots for a server/loss combination and apply a policy."""

    def __init__(
        self,
        server: ServerProfile,
        period: float = CYCLE_SECONDS,
        losses: Optional[LossConfig] = None,
        policy: Optional[object] = None,
    ) -> None:
        self.server = server
        self.period = period
        self.losses = losses or LossConfig.none()
        # strings/aliases and PlacementPolicy instances both resolve; pass
        # an instance to share memoized score tables with a LiveAllocation.
        self.policy = resolve_policy(policy) if policy is not None else FirstFitPolicy()
        extra = (
            self.losses.transfer.sizing_extra_s(server.max_parallel)
            if self.losses.transfer is not None
            else 0.0
        )
        self.sizing_extra_s = extra
        self.plan = SlotPlan.for_server(server, period, extra_transfer_s=extra)

    def allocate(self, n_clients: int) -> Allocation:
        """Allocate ``n_clients`` anonymous clients (ids 0..n-1)."""
        if n_clients < 0:
            raise ValueError("n_clients must be >= 0")
        return self.policy.allocate(range(n_clients), self.plan)

    def servers_required(self, n_clients: int) -> int:
        """Minimum number of servers for ``n_clients``."""
        if n_clients < 0:
            raise ValueError("n_clients must be >= 0")
        if n_clients == 0:
            return 0
        return math.ceil(n_clients / self.plan.capacity)


__all__ = [
    "ServerAssignment",
    "Allocation",
    "FillingPolicy",
    "PlacementPolicy",
    "FirstFitPolicy",
    "RoundRobinPolicy",
    "BalancedPolicy",
    "BestFitPolicy",
    "WorstFitPolicy",
    "SolarBudgetPolicy",
    "SwarmScoredPolicy",
    "resolve_policy",
    "repack_failed_server",
    "repack_failed_servers",
    "Allocator",
]

"""Incrementally-updatable slot state: the live core of the allocator.

The batch :class:`~repro.core.allocator.Allocator` answers "given these
clients, what is the layout?" in one shot.  A *serving* orchestrator
(:mod:`repro.serve`) needs the same answer while clients come and go one
request at a time, without re-running the batch fold per admission.
:class:`LiveAllocation` is that structure: a canonical, policy-shaped slot
layout maintained under ``admit`` / ``release`` / ``repack_on_failure``.

Design
------
The state is *rank-derived*: the structure stores only the admission order
of the surviving clients (a sequence with tombstoned holes plus a Fenwick
tree over the alive flags), and every placement question — which server,
which slot, which position — is answered by a closed-form map from a
client's **rank** (its index among survivors, in admission order) under the
active :class:`~repro.core.placement.PlacementPolicy`.  That gives:

* ``admit``/``release`` in O(log n) (one dict update + one Fenwick update);
* ``placement_of``/``server_of`` in O(log n) (one Fenwick prefix sum);
* ``repack_on_failure`` in O(k log n) for a server holding k clients
  (k Fenwick selects + k release/admit pairs);
* ``to_allocation`` in O(n), materializing a batch
  :class:`~repro.core.allocator.Allocation` bit-identical to what the
  batch policy would produce for the surviving clients in admission order.

Because the layout is always the canonical fold, the equivalence invariant
is structural: **after any interleaving of admit/release/repack, the state
equals the batch policy applied to the surviving client sequence** (pinned
by the hypothesis suite in ``tests/core/test_livealloc.py``).  The batch
policies themselves are expressed as a fold over ``admit`` (see
:meth:`LiveAllocation.bulk_admit` and
:meth:`~repro.core.placement.PlacementPolicy.allocate`), so the online and
batch paths cannot drift: they are one engine — and any new policy written
against the :class:`~repro.core.placement.PlacementPolicy` interface
inherits the guarantee for free.

A consequence worth stating explicitly: unlike the mid-cycle failover
helper :func:`~repro.core.allocator.repack_failed_servers` (which pins the
surviving servers' assignments because their clients' wake-up offsets are
already programmed), :meth:`LiveAllocation.repack_on_failure` *recompacts*
— orphans of the failed logical server re-enter at the tail of the
admission order and every survivor keeps its rank-derived placement, which
may shift down one server index.  The serve layer applies such moves at
the next cycle boundary, where re-slotting is free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.placement import (
    POLICY_KINDS,
    Placement,
    PlacementPolicy,
    resolve_policy,
)
from repro.core.server import SlotPlan
from repro.validate.errors import InvariantViolation


class AdmissionFull(RuntimeError):
    """Raised by :meth:`LiveAllocation.admit` when the server budget is spent.

    Carries the rejected ``client_id`` and the binding ``max_servers`` so the
    serve layer can degrade gracefully (the client runs its inference at the
    edge instead).
    """

    def __init__(self, client_id: int, max_servers: int, capacity: int) -> None:
        super().__init__(
            f"cannot admit client {client_id}: all {max_servers} server(s) "
            f"full ({max_servers * capacity} seats)"
        )
        self.client_id = client_id
        self.max_servers = max_servers


@dataclass(frozen=True)
class RepackResult:
    """Outcome of :meth:`LiveAllocation.repack_on_failure`.

    ``orphans`` lists the failed server's clients in slot order;
    ``readmitted`` the ones re-placed (at the tail of the admission order);
    ``dropped`` the ones that no longer fit a reduced server budget.
    """

    orphans: Tuple[int, ...]
    readmitted: Tuple[int, ...]
    dropped: Tuple[int, ...]


class _Fenwick:
    """Append-only Fenwick (binary indexed) tree over 0/1 alive flags.

    Supports O(log n) point update, prefix sum, and *select* (find the
    position of the (r+1)-th alive flag), plus O(n) bulk (re)build.
    """

    __slots__ = ("_tree", "_size", "total")

    def __init__(self) -> None:
        self._tree: List[int] = [0]  # 1-indexed; slot 0 unused
        self._size = 0
        self.total = 0

    def __len__(self) -> int:
        return self._size

    def append(self, bit: int) -> None:
        """Extend the tree by one position holding ``bit``."""
        i = self._size + 1
        # tree[i] aggregates the last lowbit(i) values; derive it from two
        # prefix sums so appends never rebuild.
        t = bit + self.prefix(self._size) - self.prefix(i - (i & -i))
        self._tree.append(t)
        self._size = i
        self.total += bit

    def add(self, pos: int, delta: int) -> None:
        """Add ``delta`` at 0-based ``pos``."""
        self.total += delta
        i = pos + 1
        while i <= self._size:
            self._tree[i] += delta
            i += i & -i

    def prefix(self, count: int) -> int:
        """Sum of the first ``count`` flags (0-based positions < count)."""
        s = 0
        i = count
        while i > 0:
            s += self._tree[i]
            i -= i & -i
        return s

    def select(self, rank: int) -> int:
        """0-based position of the (rank+1)-th alive flag (O(log n))."""
        if not 0 <= rank < self.total:
            raise IndexError(f"rank {rank} outside [0, {self.total})")
        pos = 0
        remaining = rank + 1
        bit = 1 << (self._size.bit_length())
        while bit:
            nxt = pos + bit
            if nxt <= self._size and self._tree[nxt] < remaining:
                remaining -= self._tree[nxt]
                pos = nxt
            bit >>= 1
        return pos  # 0-based: pos is the count of positions strictly before

    def rebuild(self, bits: Sequence[int]) -> None:
        """Replace the contents with ``bits`` in O(n)."""
        n = len(bits)
        tree = [0] * (n + 1)
        for i, b in enumerate(bits, start=1):
            tree[i] += b
            j = i + (i & -i)
            if j <= n:
                tree[j] += tree[i]
        self._tree = tree
        self._size = n
        self.total = sum(bits)


# ---------------------------------------------------------------------------
# batch materialization
# ---------------------------------------------------------------------------


def materialize(policy: object, ordered_ids: Sequence[int], plan: SlotPlan):
    """Batch :class:`~repro.core.allocator.Allocation` of ``ordered_ids``.

    ``policy`` is anything :func:`~repro.core.placement.resolve_policy`
    accepts.  For the PR 8 trio this is bit-identical to what the legacy
    loop-based policies produced — the closed-form layout maps are their
    closed forms (hypothesis-pinned in ``tests/core/test_livealloc.py``);
    the trailing server keeps only its non-empty slots, exactly like the
    original fills.  The generic path (any other policy) buckets every rank
    through ``policy.place`` and lists each server's non-empty slots in
    schedule-ordinal order — so policies that fill slots out of schedule
    order (solar-budget, swarm-scored) leave no gaps in the materialized
    tuple even when high-priority ordinals are late in the cycle.
    """
    from repro.core.allocator import Allocation, ServerAssignment

    pol = resolve_policy(policy)
    ids = list(ordered_ids)
    n = len(ids)
    if n == 0:
        return Allocation((), plan)
    cap, mp, spc = plan.capacity, plan.max_parallel, plan.slots_per_cycle
    kind = pol.kind
    servers = []
    if kind == "first-fit":
        for k, lo in enumerate(range(0, n, cap)):
            chunk = ids[lo : lo + cap]
            slots = tuple(tuple(chunk[s : s + mp]) for s in range(0, len(chunk), mp))
            servers.append(ServerAssignment(k, slots))
    elif kind == "round-robin":
        for k, lo in enumerate(range(0, n, cap)):
            chunk = ids[lo : lo + cap]
            slots = tuple(tuple(chunk[s::spc]) for s in range(min(spc, len(chunk))))
            servers.append(ServerAssignment(k, slots))
    elif kind == "balanced":
        from repro.core.placement import _balanced_geometry

        n_servers, base, extra = _balanced_geometry(n, plan)
        pos = 0
        g = 0
        for k in range(n_servers):
            slots = []
            for _ in range(spc):
                take = base + (1 if g < extra else 0)
                g += 1
                if take == 0:
                    continue
                slots.append(tuple(ids[pos : pos + take]))
                pos += take
            servers.append(ServerAssignment(k, tuple(slots)))
    else:
        buckets: Dict[int, Dict[int, List[Tuple[int, int]]]] = {}
        for rank, cid in enumerate(ids):
            p = pol.place(rank, n, plan)
            buckets.setdefault(p.server, {}).setdefault(p.slot, []).append(
                (p.position, cid)
            )
        for k in range(pol.n_servers(n, plan)):
            slots_of = buckets.get(k, {})
            slots = tuple(
                tuple(cid for _, cid in sorted(slots_of[ordinal]))
                for ordinal in sorted(slots_of)
            )
            servers.append(ServerAssignment(k, slots))
    alloc = Allocation(tuple(servers), plan)
    alloc.validate()
    return alloc


# ---------------------------------------------------------------------------
# the live structure
# ---------------------------------------------------------------------------


class LiveAllocation:
    """Online admit/release/repack over the batch allocator's slot geometry.

    Parameters
    ----------
    plan:
        Resolved slot geometry (:class:`~repro.core.server.SlotPlan`).
    policy:
        A filling-policy kind (one of
        :data:`~repro.core.placement.POLICY_KINDS`, aliases accepted) or a
        :class:`~repro.core.placement.PlacementPolicy` instance — pass the
        instance when sharing memoized score tables with a batch
        :class:`~repro.core.allocator.Allocator`.
    max_servers:
        Optional server budget.  ``None`` (default) is the elastic-cloud
        batch semantics — a new logical server opens whenever needed;
        an integer makes :meth:`admit` raise :class:`AdmissionFull` once
        ``max_servers × plan.capacity`` clients are seated.
    """

    #: Dead fraction beyond which release() compacts the tombstoned
    #: sequence (amortized O(1) extra per release).
    _COMPACT_MIN_DEAD = 32

    def __init__(
        self,
        plan: SlotPlan,
        policy: object = "first-fit",
        max_servers: Optional[int] = None,
    ) -> None:
        self.policy: PlacementPolicy = resolve_policy(policy)
        if max_servers is not None and max_servers < 0:
            raise ValueError(f"max_servers must be >= 0, got {max_servers}")
        self.plan = plan
        self.kind = self.policy.kind
        self.max_servers = max_servers
        self._seq: List[Optional[int]] = []  # admission order; None = released
        self._index: Dict[int, int] = {}  # client id -> position in _seq
        self._bit = _Fenwick()
        self._dead = 0

    # -- size & membership --------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, client_id: int) -> bool:
        return client_id in self._index

    @property
    def n_clients(self) -> int:
        return len(self._index)

    @property
    def n_servers(self) -> int:
        n = len(self._index)
        return math.ceil(n / self.plan.capacity) if n else 0

    @property
    def capacity_left(self) -> Optional[int]:
        """Seats left under ``max_servers`` (``None`` when elastic)."""
        if self.max_servers is None:
            return None
        return self.max_servers * self.plan.capacity - len(self._index)

    # -- mutation ------------------------------------------------------------
    def admit(self, client_id: int) -> Placement:
        """Seat ``client_id`` at the tail of the admission order (O(log n)).

        Raises :class:`~repro.validate.errors.InvariantViolation` on a
        duplicate admission (same contract as the batch validator) and
        :class:`AdmissionFull` when a ``max_servers`` budget is exhausted.
        """
        if client_id in self._index:
            raise InvariantViolation(
                "slot-occupancy",
                f"client {client_id} allocated twice",
                {"client_id": client_id},
            )
        if (
            self.max_servers is not None
            and len(self._index) >= self.max_servers * self.plan.capacity
        ):
            raise AdmissionFull(client_id, self.max_servers, self.plan.capacity)
        pos = len(self._seq)
        self._seq.append(client_id)
        self._index[client_id] = pos
        self._bit.append(1)
        return self.placement_of(client_id)

    def bulk_admit(self, client_ids: Iterable[int]) -> int:
        """Fold :meth:`admit` over ``client_ids``; returns the count seated.

        Semantically identical to ``for cid in client_ids: admit(cid)``
        (hypothesis-pinned) but rebuilds the Fenwick tree once instead of
        per admission, so the batch policies can run their allocation as a
        fold without an O(n log n) constant.
        """
        count = 0
        budget = (
            None
            if self.max_servers is None
            else self.max_servers * self.plan.capacity - len(self._index)
        )
        for cid in client_ids:
            if cid in self._index:
                # roll nothing back: the structure is still consistent (the
                # Fenwick rebuild below covers everything appended so far).
                self._bit.rebuild([1 if c is not None else 0 for c in self._seq])
                raise InvariantViolation(
                    "slot-occupancy",
                    f"client {cid} allocated twice",
                    {"client_id": cid},
                )
            if budget is not None and count >= budget:
                self._bit.rebuild([1 if c is not None else 0 for c in self._seq])
                raise AdmissionFull(cid, self.max_servers, self.plan.capacity)
            self._index[cid] = len(self._seq)
            self._seq.append(cid)
            count += 1
        self._bit.rebuild([1 if c is not None else 0 for c in self._seq])
        return count

    def release(self, client_id: int) -> None:
        """Free ``client_id``'s seat (O(log n) amortized).

        Later-admitted clients' rank-derived placements shift down to fill
        the hole, preserving the canonical batch layout over survivors.
        Raises :class:`KeyError` for a client that is not seated.
        """
        pos = self._index.pop(client_id)
        self._seq[pos] = None
        self._bit.add(pos, -1)
        self._dead += 1
        if self._dead > self._COMPACT_MIN_DEAD and self._dead > len(self._index):
            self._compact()

    def repack_on_failure(
        self, server_index: int, reduce_capacity: bool = False,
        policy_order: bool = False,
    ) -> RepackResult:
        """React to the loss of logical server ``server_index``.

        The failed server's clients (gathered in slot order, the same order
        :func:`~repro.core.allocator.repack_failed_servers` uses) are
        released and re-admitted at the tail of the admission order, so the
        state stays the canonical batch fold over the surviving sequence.
        With ``reduce_capacity=True`` and a finite ``max_servers``, the
        budget shrinks by one first — orphans that no longer fit are
        *dropped* (returned for the edge-fallback path) instead of seated.

        With ``policy_order=True`` the orphans' *readmission order* is
        steered by the policy's
        :meth:`~repro.core.placement.PlacementPolicy.repack_preference`:
        the tail seats the orphans will occupy are previewed, ranked by
        preference, and the slot-order orphan queue is dealt onto the
        seats most-preferred-first — so a best-fit repack tops up full
        slots with its highest-priority orphans while a policy with a
        constant preference (the default) keeps the historical order
        exactly.  The final *layout* is rank-derived either way; only
        which orphan lands in which tail seat changes.

        O(k log n) for k orphans.
        """
        if not 0 <= server_index < self.n_servers:
            known = ", ".join(str(i) for i in range(self.n_servers))
            raise ValueError(
                f"no server {server_index} in allocation (servers: {known})"
            )
        orphans = self._server_members_slot_order(server_index)
        for cid in orphans:
            self.release(cid)
        if reduce_capacity and self.max_servers is not None:
            self.max_servers = max(0, self.max_servers - 1)
        admit_order = list(orphans)
        if policy_order and len(orphans) > 1:
            admit_order = self._policy_readmission_order(orphans)
        readmitted: List[int] = []
        dropped: List[int] = []
        for cid in admit_order:
            try:
                self.admit(cid)
            except AdmissionFull:
                dropped.append(cid)
            else:
                readmitted.append(cid)
        return RepackResult(tuple(orphans), tuple(readmitted), tuple(dropped))

    def _policy_readmission_order(self, orphans: List[int]) -> List[int]:
        """Deal slot-ordered orphans onto their previewed tail seats,
        most-preferred seat first (stable: a constant preference is the
        identity, preserving the historical admit order bit-for-bit)."""
        n0 = len(self._index)
        k = len(orphans)
        final_n = n0 + k
        n_servers = self.policy.n_servers(final_n, self.plan)
        prefs = []
        for i in range(k):
            p = self.policy.place(n0 + i, final_n, self.plan)
            occ = self.policy.slot_occupancy(p, final_n, self.plan)
            prefs.append(
                self.policy.repack_preference(p.server, p.slot, occ, self.plan, n_servers)
            )
        seat_order = sorted(range(k), key=lambda i: (prefs[i], i))
        order: List[Optional[int]] = [None] * k
        for priority, seat in enumerate(seat_order):
            order[seat] = orphans[priority]
        return [cid for cid in order if cid is not None]

    # -- queries -------------------------------------------------------------
    def rank_of(self, client_id: int) -> int:
        """Index of ``client_id`` among survivors, in admission order."""
        try:
            pos = self._index[client_id]
        except KeyError:
            raise KeyError(f"client {client_id} is not allocated") from None
        return self._bit.prefix(pos)

    def placement_of(self, client_id: int) -> Placement:
        """Closed-form (server, slot, position) for ``client_id`` (O(log n))."""
        return self.policy.place(self.rank_of(client_id), len(self._index), self.plan)

    def server_of(self, client_id: int) -> int:
        return self.placement_of(client_id).server

    def slot_occupancy(self, placement: Placement) -> int:
        """Number of clients sharing ``placement``'s (server, slot) (O(1))."""
        return self.policy.slot_occupancy(placement, len(self._index), self.plan)

    def client_ids(self) -> List[int]:
        """Surviving client ids in admission order (O(n))."""
        return [cid for cid in self._seq if cid is not None]

    def to_allocation(self):
        """Materialize the canonical batch :class:`Allocation` (O(n))."""
        return materialize(self.policy, self.client_ids(), self.plan)

    # -- invariants ----------------------------------------------------------
    def check(self) -> None:
        """Verify internal consistency and the slot-occupancy invariants.

        Raises :class:`~repro.validate.errors.InvariantViolation` on any
        breach; used by the property suite after every step.
        """
        if len(self._bit) != len(self._seq):
            raise InvariantViolation(
                "live-allocation",
                f"Fenwick spans {len(self._bit)} positions, sequence {len(self._seq)}",
                {},
            )
        if self._bit.total != len(self._index):
            raise InvariantViolation(
                "live-allocation",
                f"Fenwick counts {self._bit.total} alive, index holds {len(self._index)}",
                {},
            )
        for cid, pos in self._index.items():
            if self._seq[pos] != cid:
                raise InvariantViolation(
                    "live-allocation",
                    f"index maps client {cid} to position {pos} holding {self._seq[pos]!r}",
                    {"client_id": cid},
                )
        if self.max_servers is not None and self.n_servers > self.max_servers:
            raise InvariantViolation(
                "live-allocation",
                f"{self.n_servers} servers open under a budget of {self.max_servers}",
                {},
            )
        alloc = self.to_allocation()  # validates slot occupancy itself
        if alloc.n_clients != len(self._index):
            raise InvariantViolation(
                "live-allocation",
                f"materialized allocation seats {alloc.n_clients} clients, "
                f"live state holds {len(self._index)}",
                {},
            )

    # -- internals -----------------------------------------------------------
    def _server_members_slot_order(self, server_index: int) -> List[int]:
        """Clients of one logical server, in slot order (O(k log n)).

        The policy names the server's ranks; each rank's placement then
        orders the members by (slot ordinal, position) — for the PR 8 trio
        this reproduces the historical gathering order exactly.
        """
        n = len(self._index)
        ranks = self.policy.server_ranks(server_index, n, self.plan)
        members = []
        for r in ranks:
            p = self.policy.place(r, n, self.plan)
            members.append((p.slot, p.position, self._seq[self._bit.select(r)]))
        members.sort(key=lambda item: (item[0], item[1]))
        return [cid for _, _, cid in members]  # type: ignore[misc]

    def _compact(self) -> None:
        """Drop tombstones; survivor order (and thus every rank) is unchanged."""
        self._seq = [cid for cid in self._seq if cid is not None]
        self._index = {cid: pos for pos, cid in enumerate(self._seq)}
        self._bit.rebuild([1] * len(self._seq))
        self._dead = 0


__all__ = [
    "POLICY_KINDS",
    "AdmissionFull",
    "Placement",
    "RepackResult",
    "LiveAllocation",
    "materialize",
]

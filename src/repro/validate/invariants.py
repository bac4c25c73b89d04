"""Composable runtime invariant checkers for every simulation path.

Each :class:`Checker` encodes one contract the energy bookkeeping must
honour — ledger conservation, slot-occupancy bounds, availability bounds,
cohort-partition exactness, DES clock monotonicity — and raises a
structured :class:`~repro.validate.errors.InvariantViolation` carrying the
run context when the contract breaks.

The per-path entry points (:func:`validate_fleet_result`,
:func:`validate_des_run`, :func:`validate_faulty_fleet_result`,
:func:`validate_des_faulty_run`, :func:`validate_sweep_result`) compose the
applicable checkers and are what the simulators call when their
``validate=`` flag resolves true (see :mod:`repro.validate.state`).  They
are deliberately *recomputing* validators: wherever a quantity has two
independent derivations (event-driven ledger vs closed-form slot energy,
per-cycle array vs monitor counter, cohort-weighted sum vs per-member sum),
both are evaluated and reconciled, so silent drift in either implementation
trips a violation instead of skewing a figure.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Sequence

from repro.energy.account import EnergyAccount
from repro.energy.battery import Battery
from repro.validate.checker import Checker, run_checkers
from repro.validate.errors import InvariantViolation
from repro.validate.state import note_check

#: Relative tolerance used when reconciling two float derivations of the
#: same quantity.  The DES and analytic paths agree to ~1e-12 in practice;
#: 1e-9 leaves headroom for long accumulation chains without letting any
#: real modelling drift (which shows up at 1e-3 and above) through.
REL_TOL = 1e-9


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# ledger-level checkers
# ---------------------------------------------------------------------------


class LedgerConservation(Checker):
    """Energy-ledger conservation over a set of :class:`EnergyAccount`\\ s.

    Three-way reconciliation per account: the grand total must equal the sum
    of per-category (per-task) joules, every category must be finite and
    non-negative, and replaying the ledger against a lossless
    :class:`~repro.energy.battery.Battery` must drain exactly the total —
    the paper's "what the tasks spent is what the battery lost" identity.
    """

    name = "energy-conservation"
    contract = "sum of per-task joules == ledger total == lossless battery delta"

    def __init__(self, accounts_attr: str = "client_accounts") -> None:
        self.accounts_attr = accounts_attr

    def check(self, subject: Any, context: Dict[str, Any]) -> None:
        accounts: Sequence[EnergyAccount] = getattr(subject, self.accounts_attr)
        for i, account in enumerate(accounts):
            breakdown = account.breakdown()
            for category, joules in breakdown.items():
                if not math.isfinite(joules) or joules < 0:
                    raise self.violation(
                        f"category {category!r} of {account.owner!r} is {joules!r}",
                        context, account_index=i,
                    )
            category_sum = sum(breakdown.values())
            total = account.total
            if not _close(category_sum, total):
                raise self.violation(
                    f"{account.owner!r}: category sum {category_sum!r} != total {total!r}",
                    context, account_index=i,
                )
            if not _close(battery_delta(account), total):
                raise self.violation(
                    f"{account.owner!r}: lossless battery delta {battery_delta(account)!r} "
                    f"!= ledger total {total!r}",
                    context, account_index=i,
                )


def battery_delta(account: EnergyAccount) -> float:
    """Joules a lossless battery loses when the ledger is replayed onto it."""
    total = account.total
    capacity = max(2.0 * total, 1.0)
    battery = Battery(
        capacity_joules=capacity,
        soc=1.0,
        charge_efficiency=1.0,
        discharge_efficiency=1.0,
        cutoff_soc=0.0,
        recovery_soc=0.0,
    )
    for joules in account.breakdown().values():
        battery.discharge(joules)
    return capacity - battery.stored


class EdgeLedgerMatchesClient(Checker):
    """Ideal DES runs: each client ledger equals the closed-form cycle energy."""

    name = "edge-ledger-vs-analytic"
    contract = "per-client DES ledger total == n_cycles x analytic client cycle energy"

    def check(self, subject: Any, context: Dict[str, Any]) -> None:
        scenario = context.get("scenario")
        if scenario is None:
            return
        expected = subject.n_cycles * scenario.client.cycle_energy
        for i, account in enumerate(subject.client_accounts):
            if not _close(account.total, expected):
                raise self.violation(
                    f"client ledger {account.owner!r} holds {account.total!r} J, "
                    f"analytic model says {expected!r} J",
                    context, account_index=i,
                )


class ServerLedgerMatchesAnalytic(Checker):
    """Ideal DES runs: server ledgers reconcile with the closed-form slot math."""

    name = "server-ledger-vs-analytic"
    contract = "DES server energy == n_cycles x analytic server_cycle_energy over the allocation"

    def check(self, subject: Any, context: Dict[str, Any]) -> None:
        allocation = context.get("allocation")
        scenario = context.get("scenario")
        if allocation is None or scenario is None or scenario.server is None:
            return
        from repro.core.simulate import server_cycle_energy

        losses = context.get("losses")
        sizing_extra = context.get("sizing_extra_s", 0.0)
        analytic = subject.n_cycles * sum(
            server_cycle_energy(
                scenario.server,
                srv.occupancies,
                period=subject.period,
                sizing_extra_s=sizing_extra,
                losses=losses,
            )
            for srv in allocation.servers
        )
        measured = subject.server_energy_j
        if not _close(measured, analytic, rel=1e-8):
            raise self.violation(
                f"DES server energy {measured!r} J != analytic {analytic!r} J",
                context,
            )


# ---------------------------------------------------------------------------
# structural checkers
# ---------------------------------------------------------------------------


class SlotOccupancyBound(Checker):
    """No slot may exceed ``max_parallel``; no server may exceed its slot plan."""

    name = "slot-occupancy"
    contract = "every slot holds <= max_parallel clients; every server <= slots_per_cycle slots"

    def check(self, subject: Any, context: Dict[str, Any]) -> None:
        allocation = context.get("allocation")
        if allocation is None:
            return
        allocation.validate()  # raises InvariantViolation("slot-occupancy") itself
        expected = context.get("n_allocated")
        if expected is not None and allocation.n_clients != expected:
            raise self.violation(
                f"allocation places {allocation.n_clients} clients, expected {expected}",
                context,
            )


class CohortPartition(Checker):
    """Cohorts must partition the fleet and multiplicities must sum to it."""

    name = "cohort-partition"
    contract = "cohort member ids partition [0, n); multiplicities sum to the fleet size"

    def check(self, subject: Any, context: Dict[str, Any]) -> None:
        from repro.core.cohort import check_partition

        multiplicities = getattr(subject, "client_multiplicities", ())
        cohorts = getattr(subject, "client_cohorts", ())
        if not cohorts:
            n_accounts = len(subject.client_accounts)
            if n_accounts != subject.n_clients:
                raise self.violation(
                    f"per-client run has {n_accounts} ledgers for {subject.n_clients} clients",
                    context,
                )
            return
        if len(multiplicities) != len(cohorts):
            raise self.violation(
                f"{len(multiplicities)} multiplicities for {len(cohorts)} cohorts",
                context,
            )
        for mult, members in zip(multiplicities, cohorts):
            if mult != len(members):
                raise self.violation(
                    f"cohort {members[:3]}... has multiplicity {mult} but {len(members)} members",
                    context,
                )
        if sum(multiplicities) != subject.n_clients:
            raise self.violation(
                f"multiplicities sum to {sum(multiplicities)}, fleet size is {subject.n_clients}",
                context,
            )
        try:
            check_partition(cohorts, subject.n_clients)
        except ValueError as exc:
            raise self.violation(str(exc), context) from exc


class ClockMonotonicity(Checker):
    """The DES must drain its queue and every timeline must move forward."""

    name = "clock-monotonicity"
    contract = "event queue drained; per-device timelines strictly ordered in time"

    def check(self, subject: Any, context: Dict[str, Any]) -> None:
        engine = context.get("engine")
        if engine is not None:
            if not engine.drained:
                raise self.violation(
                    f"event queue still holds events (next at t={engine.peek()!r})",
                    context,
                )
            if engine.now < 0:
                raise self.violation(f"engine clock is negative ({engine.now!r})", context)
        for device in context.get("devices", ()):
            previous = -math.inf
            for t_start, t_end, state in device.timeline.segments():
                if t_end < t_start or t_start < previous:
                    raise self.violation(
                        f"device {device.name!r} timeline goes backwards at "
                        f"({t_start!r}, {t_end!r}, {state!r})",
                        context,
                    )
                previous = t_end


# ---------------------------------------------------------------------------
# resilience / availability checkers
# ---------------------------------------------------------------------------


class AvailabilityBounds(Checker):
    """Availability is a fraction of expected cycles, fully accounted for."""

    name = "availability-bounds"
    contract = "availability in [0, 1]; detected + missed cycles == expected cycles"

    def check(self, subject: Any, context: Dict[str, Any]) -> None:
        report = subject.report
        for label, value in (
            ("availability", report.availability),
            ("cloud_availability", report.cloud_availability),
        ):
            if not (0.0 <= value <= 1.0) or not math.isfinite(value):
                raise self.violation(f"{label} is {value!r}, outside [0, 1]", context)
        accounted = report.cycles_detected + report.cycles_missed
        if accounted != report.cycles_expected:
            raise self.violation(
                f"outcomes account for {accounted} cycles, {report.cycles_expected} expected",
                context,
            )
        expected = context.get("expected_cycles")
        if expected is not None and report.cycles_expected != expected:
            raise self.violation(
                f"monitor expected {report.cycles_expected} cycles, run implies {expected}",
                context,
            )
        itemized = (
            report.retry_energy_j
            + report.failover_energy_j
            + report.fallback_energy_j
            + report.degradation_energy_j
            + report.buffered_energy_j
            + report.drain_energy_j
        )
        if not _close(itemized, report.resilience_energy_j):
            raise self.violation(
                f"itemized overheads {itemized!r} J != resilience total "
                f"{report.resilience_energy_j!r} J",
                context,
            )


class FaultyArraysConsistent(Checker):
    """Per-cycle arrays of the analytic faulty path reconcile with the monitor."""

    name = "faulty-array-accounting"
    contract = "per-cycle overhead arrays are finite, non-negative, and sum to the monitor's totals"

    def check(self, subject: Any, context: Dict[str, Any]) -> None:
        import numpy as np

        arrays = {
            "edge_energy_j": subject.edge_energy_j,
            "server_energy_j": subject.server_energy_j,
            "retry_energy_j": subject.retry_energy_j,
            "failover_energy_j": subject.failover_energy_j,
            "fallback_energy_j": subject.fallback_energy_j,
            "degradation_energy_j": subject.degradation_energy_j,
        }
        if subject.buffered_energy_j is not None:
            arrays["buffered_energy_j"] = subject.buffered_energy_j
        if subject.drain_energy_j is not None:
            arrays["drain_energy_j"] = subject.drain_energy_j
        for label, arr in arrays.items():
            arr = np.asarray(arr)
            if arr.shape != (subject.n_cycles,):
                raise self.violation(
                    f"{label} has shape {arr.shape}, expected ({subject.n_cycles},)", context
                )
            if not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise self.violation(f"{label} holds non-finite or negative entries", context)
        overheads = (
            subject.retry_energy_j
            + subject.failover_energy_j
            + subject.fallback_energy_j
            + subject.degradation_energy_j
        )
        if subject.buffered_energy_j is not None:
            overheads = overheads + subject.buffered_energy_j
        if subject.drain_energy_j is not None:
            overheads = overheads + subject.drain_energy_j
        if np.any(subject.edge_energy_j + 1e-9 < overheads):
            raise self.violation(
                "a cycle's edge energy is below its itemized resilience overhead", context
            )
        report = subject.report
        itemized_pairs = [
            ("retry", subject.retry_energy_j, report.retry_energy_j),
            ("failover", subject.failover_energy_j, report.failover_energy_j),
            ("fallback", subject.fallback_energy_j, report.fallback_energy_j),
            ("degradation", subject.degradation_energy_j, report.degradation_energy_j),
        ]
        if subject.buffered_energy_j is not None:
            itemized_pairs.append(
                ("buffered", subject.buffered_energy_j, report.buffered_energy_j)
            )
        if subject.drain_energy_j is not None:
            itemized_pairs.append(("drain", subject.drain_energy_j, report.drain_energy_j))
        for label, arr, total in itemized_pairs:
            if not _close(float(arr.sum()), total):
                raise self.violation(
                    f"{label} array sums to {float(arr.sum())!r} J, monitor charged {total!r} J",
                    context,
                )
        if np.any(subject.n_active > subject.n_clients) or np.any(subject.n_active < 0):
            raise self.violation("n_active outside [0, n_clients]", context)
        if np.any(subject.n_servers_down < 0):
            raise self.violation("n_servers_down is negative", context)


class BufferConservation(Checker):
    """Store-and-forward buffers never create or lose bytes.

    The tentpole invariant of the intermittent-connectivity subsystem: every
    byte ever offered to an edge buffer is delivered, dropped, or still
    resident — checked with exact integer arithmetic, never a tolerance.
    Runs pass trivially when the result carries no ``buffer_report`` (no
    outage schedule configured).
    """

    name = "buffer-conservation"
    contract = "offered bytes == delivered + dropped + resident (exact integers)"

    _COUNTERS = (
        "offered_bytes",
        "delivered_bytes",
        "dropped_bytes",
        "resident_bytes",
        "offered_payloads",
        "delivered_payloads",
        "dropped_payloads",
        "resident_payloads",
        "blocked_payloads",
    )

    def check(self, subject: Any, context: Dict[str, Any]) -> None:
        report = getattr(subject, "buffer_report", None)
        if report is None:
            return
        for label in self._COUNTERS:
            value = getattr(report, label)
            if value < 0:
                raise self.violation(f"{label} is negative ({value})", context)
        if not report.conserves:
            raise self.violation(
                f"offered {report.offered_bytes} B != delivered {report.delivered_bytes}"
                f" + dropped {report.dropped_bytes}"
                f" + resident {report.resident_bytes} B",
                context,
            )
        partition = (
            report.delivered_payloads + report.dropped_payloads + report.resident_payloads
        )
        if report.offered_payloads != partition:
            raise self.violation(
                f"payload counters partition to {partition}, "
                f"{report.offered_payloads} offered",
                context,
            )
        if report.blocked_payloads > report.dropped_payloads:
            raise self.violation(
                f"blocked payloads ({report.blocked_payloads}) exceed dropped "
                f"({report.dropped_payloads}) — blocked must count as dropped",
                context,
            )
        if len(report.delays_s) != report.delivered_payloads:
            raise self.violation(
                f"{len(report.delays_s)} recorded delays for "
                f"{report.delivered_payloads} delivered payloads",
                context,
            )
        for delay in report.delays_s:
            if not math.isfinite(delay) or delay < 0:
                raise self.violation(
                    f"store-and-forward delay {delay!r} is negative or non-finite",
                    context,
                )


class FleetCountsConsistent(Checker):
    """Scalar sanity for the analytic single-cycle result."""

    name = "fleet-counts"
    contract = "0 <= active <= initial clients; energies finite and non-negative"

    def check(self, subject: Any, context: Dict[str, Any]) -> None:
        if not 0 <= subject.n_clients_active <= subject.n_clients_initial:
            raise self.violation(
                f"active clients {subject.n_clients_active} outside "
                f"[0, {subject.n_clients_initial}]",
                context,
            )
        for label in ("edge_energy_j", "server_energy_j", "total_energy_j"):
            value = getattr(subject, label)
            if not math.isfinite(value) or value < 0:
                raise self.violation(f"{label} is {value!r}", context)
        scenario = context.get("scenario")
        if scenario is not None:
            expected_edge = subject.n_clients_active * scenario.client.cycle_energy
            if not _close(subject.edge_energy_j, expected_edge):
                raise self.violation(
                    f"edge energy {subject.edge_energy_j!r} J != active clients x cycle "
                    f"energy {expected_edge!r} J",
                    context,
                )


#: Catalog rendered into docs/TESTING.md — every checker the subsystem ships.
def default_checkers() -> Dict[str, Checker]:
    """name -> checker instance, for introspection and documentation."""
    checkers = [
        LedgerConservation(),
        EdgeLedgerMatchesClient(),
        ServerLedgerMatchesAnalytic(),
        SlotOccupancyBound(),
        CohortPartition(),
        ClockMonotonicity(),
        AvailabilityBounds(),
        FaultyArraysConsistent(),
        BufferConservation(),
        FleetCountsConsistent(),
    ]
    return {c.name: c for c in checkers}


# ---------------------------------------------------------------------------
# per-path entry points (what the simulators call under validate=True)
# ---------------------------------------------------------------------------


def validate_fleet_result(result, scenario=None, allocation=None, context=None) -> None:
    """Invariants of one analytic :func:`repro.core.simulate.simulate_fleet` cycle."""
    ctx = {"path": "simulate_fleet", "n_clients": result.n_clients_initial}
    ctx.update(context or {})
    ctx.setdefault("scenario", scenario)
    ctx.setdefault("allocation", allocation)
    ctx.setdefault("n_allocated", result.n_clients_active if allocation is not None else None)
    run_checkers(result, [FleetCountsConsistent(), SlotOccupancyBound()], ctx)


def validate_des_run(
    result,
    scenario=None,
    engine=None,
    allocation=None,
    devices=(),
    losses=None,
    sizing_extra_s: float = 0.0,
    context=None,
) -> None:
    """Invariants of an ideal :func:`repro.core.dessim.run_des_fleet` run."""
    ctx = {"path": "run_des_fleet", "n_clients": result.n_clients, "n_cycles": result.n_cycles}
    ctx.update(context or {})
    ctx.setdefault("scenario", scenario)
    ctx.setdefault("engine", engine)
    ctx.setdefault("allocation", allocation)
    ctx.setdefault("devices", tuple(devices))
    ctx.setdefault("losses", losses)
    ctx.setdefault("sizing_extra_s", sizing_extra_s)
    ctx.setdefault("n_allocated", result.n_clients if allocation is not None else None)
    checkers = [
        ClockMonotonicity(),
        LedgerConservation("client_accounts"),
        LedgerConservation("server_accounts"),
        CohortPartition(),
        SlotOccupancyBound(),
        EdgeLedgerMatchesClient(),
        ServerLedgerMatchesAnalytic(),
    ]
    run_checkers(result, checkers, ctx)


def validate_faulty_fleet_result(result, context=None) -> None:
    """Invariants of an analytic :func:`repro.faults.fleetsim.run_faulty_fleet` run."""
    ctx = {
        "path": "run_faulty_fleet",
        "n_clients": result.n_clients,
        "n_cycles": result.n_cycles,
        "expected_cycles": result.n_clients * result.n_cycles,
    }
    ctx.update(context or {})
    run_checkers(
        result, [FaultyArraysConsistent(), AvailabilityBounds(), BufferConservation()], ctx
    )


def validate_des_faulty_run(result, engine=None, allocation=None, devices=(), context=None) -> None:
    """Invariants of a :func:`repro.faults.desfaults.run_des_faulty_fleet` run."""
    ctx = {
        "path": "run_des_faulty_fleet",
        "n_clients": result.n_clients,
        "n_cycles": result.n_cycles,
        "expected_cycles": result.n_clients * result.n_cycles,
    }
    ctx.update(context or {})
    ctx.setdefault("engine", engine)
    ctx.setdefault("allocation", allocation)
    ctx.setdefault("devices", tuple(devices))
    ctx.setdefault("n_allocated", result.n_clients if allocation is not None else None)
    checkers = [
        ClockMonotonicity(),
        LedgerConservation("client_accounts"),
        LedgerConservation("server_accounts"),
        CohortPartition(),
        SlotOccupancyBound(),
        AvailabilityBounds(),
        BufferConservation(),
    ]
    run_checkers(result, checkers, ctx)


def validate_sweep_result(
    sweep,
    scenario,
    period,
    losses=None,
    max_parallel=None,
    n_samples: int = 5,
    context=None,
) -> None:
    """Invariants of a vectorized sweep, cross-checked against the simulator.

    Array-level sanity always runs; when the sweep is deterministic (no loss
    model C) a handful of grid points are replayed through
    :func:`repro.core.simulate.simulate_fleet` and reconciled exactly —
    the closed-form fast path may never drift from the object-level model.
    """
    import numpy as np

    from repro.core.simulate import simulate_fleet

    ctx = {"path": "sweep_clients", "scenario": scenario.name}
    ctx.update(context or {})
    note_check()
    n = np.asarray(sweep.n_clients)
    for label in ("edge_energy_j", "server_energy_j", "n_active", "n_servers"):
        arr = np.asarray(getattr(sweep, label), dtype=float)
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise InvariantViolation(
                "sweep-sanity", f"{label} holds non-finite or negative entries", ctx
            )
    if np.any(np.asarray(sweep.n_active) > n):
        raise InvariantViolation("sweep-sanity", "n_active exceeds n_clients", ctx)

    stochastic = losses is not None and losses.client_loss is not None
    if stochastic or len(n) == 0:
        return
    note_check()
    indices = sorted({0, len(n) - 1, len(n) // 2, len(n) // 4, (3 * len(n)) // 4})[:n_samples]
    for i in indices:
        point = simulate_fleet(
            int(n[i]), scenario, period=period, losses=losses, max_parallel=max_parallel
        )
        for label, measured in (
            ("edge_energy_j", float(sweep.edge_energy_j[i])),
            ("server_energy_j", float(sweep.server_energy_j[i])),
        ):
            expected = getattr(point, label)
            if not _close(measured, expected):
                raise InvariantViolation(
                    "sweep-cross-check",
                    f"{label} at n={int(n[i])}: sweep says {measured!r} J, "
                    f"simulate_fleet says {expected!r} J",
                    ctx,
                )
        if int(sweep.n_servers[i]) != point.n_servers:
            raise InvariantViolation(
                "sweep-cross-check",
                f"n_servers at n={int(n[i])}: sweep says {int(sweep.n_servers[i])}, "
                f"simulate_fleet says {point.n_servers}",
                ctx,
            )


def check_monotone_nonincreasing(values, invariant: str = "monotone-availability", context=None) -> None:
    """Raise unless ``values`` is non-increasing (e.g. availability vs fault rate)."""
    import numpy as np

    arr = np.asarray(list(values), dtype=float)
    note_check()
    if np.any(np.diff(arr) > 1e-12):
        i = int(np.argmax(np.diff(arr) > 1e-12))
        raise InvariantViolation(
            invariant,
            f"sequence increases at index {i}: {arr[i]!r} -> {arr[i + 1]!r}",
            dict(context or {}),
        )


__all__ = [
    "default_checkers",
    "battery_delta",
    "LedgerConservation",
    "EdgeLedgerMatchesClient",
    "ServerLedgerMatchesAnalytic",
    "SlotOccupancyBound",
    "CohortPartition",
    "ClockMonotonicity",
    "AvailabilityBounds",
    "FaultyArraysConsistent",
    "FleetCountsConsistent",
    "validate_fleet_result",
    "validate_des_run",
    "validate_faulty_fleet_result",
    "validate_des_faulty_run",
    "validate_sweep_result",
    "check_monotone_nonincreasing",
    "REL_TOL",
]

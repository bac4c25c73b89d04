"""Discrete-event cross-validation of the cycle-level model.

The analytic simulator (:mod:`repro.core.simulate`) collapses each cycle to
closed-form energy sums.  This module replays the same scenario event by
event on the :mod:`repro.des` kernel — wake-ups, slot-boundary uploads,
sequential service executions — charging real device objects, and returns
per-entity ledgers.  Tests assert that the two agree to numerical precision,
which guards both implementations against modelling drift.

Observation windows: each client is observed over ``n_cycles`` periods
*phase-aligned to its own wake-up offset* (energy per cycle is phase
invariant, so this makes the ledgers exactly comparable to the analytic
per-cycle figures without boundary effects).  Servers are observed over
``[0, n_cycles × period)``.

Scaling: with ``cohort=True`` clients that share a wake offset (and servers
that share an occupancy profile) collapse into one simulated representative
carrying a multiplicity count (:mod:`repro.core.cohort`).  The collapse is
exact — member trajectories are bit-for-bit identical — and takes the DES
from O(clients) to O(slots + occupancy profiles) processes, which is what
makes 100k–1M-client fleets interactive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.allocator import Allocation, Allocator, FillingPolicy
from repro.core.calibration import CYCLE_SECONDS
from repro.core.cohort import Cohort, expand_accounts, group_cohorts, weighted_total
from repro.core.losses import LossConfig
from repro.core.routines import Scenario
from repro.des.engine import Engine
from repro.devices.device import AlwaysOnDevice, DutyCycledDevice
from repro.devices.specs import CLOUD_SERVER_I7_RTX2070, RASPBERRY_PI_3B_PLUS


@dataclass(frozen=True)
class DesFleetResult:
    """Per-entity energy ledgers from an event-driven run.

    For per-client runs ``client_accounts`` holds one ledger per client and
    the multiplicity/cohort fields are empty.  For cohort runs each entry is
    the *representative* (per-member, unscaled) ledger of one cohort, with
    ``client_multiplicities``/``client_cohorts`` parallel to it; aggregate
    properties weight by multiplicity, and per-client properties divide by
    ``n_clients`` — the true fleet size, not ``len(client_accounts)``.
    """

    n_cycles: int
    period: float
    client_accounts: tuple
    server_accounts: tuple
    n_clients: int = -1
    client_multiplicities: tuple = ()
    server_multiplicities: tuple = ()
    client_cohorts: tuple = ()  # tuple[tuple[int, ...]] parallel to client_accounts
    server_cohorts: tuple = ()  # tuple[tuple[int, ...]] parallel to server_accounts

    def __post_init__(self) -> None:
        if self.n_clients < 0:
            object.__setattr__(self, "n_clients", len(self.client_accounts))

    @property
    def n_servers(self) -> int:
        """True server count (cohort multiplicities included)."""
        if self.server_multiplicities:
            return sum(self.server_multiplicities)
        return len(self.server_accounts)

    @property
    def edge_energy_j(self) -> float:
        if self.client_multiplicities:
            return weighted_total(self.client_accounts, self.client_multiplicities)
        return sum(acc.total for acc in self.client_accounts)

    @property
    def server_energy_j(self) -> float:
        if self.server_multiplicities:
            return weighted_total(self.server_accounts, self.server_multiplicities)
        return sum(acc.total for acc in self.server_accounts)

    @property
    def total_energy_j(self) -> float:
        return self.edge_energy_j + self.server_energy_j

    @property
    def edge_energy_per_client_cycle(self) -> float:
        n = self.n_clients
        return self.edge_energy_j / (n * self.n_cycles) if n else 0.0

    @property
    def server_energy_per_cycle(self) -> float:
        return self.server_energy_j / self.n_cycles

    def expand_client_accounts(self) -> tuple:
        """Per-client ledger view (shared representative objects, id order)."""
        if not self.client_cohorts:
            return self.client_accounts
        cohorts = [Cohort(key=("client", ids[0]), member_ids=ids) for ids in self.client_cohorts]
        return expand_accounts(self.client_accounts, cohorts, self.n_clients)

    def expand_server_accounts(self) -> tuple:
        """Per-server ledger view (shared representative objects, index order)."""
        if not self.server_cohorts:
            return self.server_accounts
        cohorts = [Cohort(key=("server", ids[0]), member_ids=ids) for ids in self.server_cohorts]
        return expand_accounts(self.server_accounts, cohorts, self.n_servers)


def fleet_wake_offsets(
    n_clients: int,
    scenario: Scenario,
    period: float,
    losses: LossConfig,
    policy: Optional[FillingPolicy],
) -> Tuple[Optional[Allocation], float, Dict[int, float]]:
    """Allocate the fleet and derive each client's wake-up offset.

    Shared by the per-client and cohort paths so both see identical floats:
    a client wakes so its upload lands on its slot boundary (the tasks
    before ``send_audio`` run first).
    """
    tasks = list(scenario.client.active_tasks)
    if scenario.is_edge_only:
        return None, 0.0, {i: 0.0 for i in range(n_clients)}
    allocator = Allocator(scenario.server, period=period, losses=losses, policy=policy)
    allocation = allocator.allocate(n_clients)
    sizing_extra = allocator.sizing_extra_s
    pre_send = 0.0
    for t in tasks:
        if t.name == "send_audio":
            break
        pre_send += t.duration
    slot_dur = scenario.server.slot_duration(sizing_extra)
    wake_offsets: Dict[int, float] = {}
    for srv in allocation.servers:
        for slot_idx, slot in enumerate(srv.slots):
            for cid in slot:
                wake_offsets[cid] = max(slot_idx * slot_dur - pre_send, 0.0)
    return allocation, sizing_extra, wake_offsets


def server_process(engine, device, occupancies, profile, slot_dur, losses, n_cycles, period):
    """Generator driving one always-on server through its slot timeline.

    Shared by the per-client and cohort kernels: a server only ever waits
    on its own timeouts, so its charge sequence is independent of which
    client kernel runs alongside it.
    """
    for cycle in range(n_cycles):
        base = cycle * period
        for slot_idx, k in enumerate(occupancies):
            if k == 0:
                continue
            start = base + slot_idx * slot_dur
            delay = start - engine.now
            if delay > 0:
                yield engine.timeout(delay)
            device.idle_until(engine.now)
            actual_extra = losses.transfer.actual_extra_s(k) if losses.transfer else 0.0
            t_rx = profile.transfer_s + actual_extra
            device.excursion(engine.now, "receive", t_rx,
                             override=("receive", profile.receive_watts))
            # Service inferences pipeline with the slot timeline
            # (see ServerProfile.slot_energy): the device keeps
            # charging idle for the wall-clock, and the inferences
            # add their marginal energy over idling.
            svc_marginal = k * (
                profile.service.energy - profile.idle_watts * profile.service.duration
            )
            device.account.charge("service", svc_marginal, time=engine.now)
            if losses.saturation is not None:
                mult = losses.saturation.multiplier(k, profile.max_parallel)
                if mult > 1.0:
                    active = (
                        (profile.receive_watts - profile.idle_watts) * t_rx + svc_marginal
                    )
                    pen_base = (
                        profile.idle_watts * slot_dur + active
                        if losses.saturation.base == "slot"
                        else active
                    )
                    device.account.charge(
                        "saturation_penalty", (mult - 1.0) * pen_base, time=engine.now
                    )


def run_des_fleet(
    n_clients: int,
    scenario: Scenario,
    period: float = CYCLE_SECONDS,
    n_cycles: int = 1,
    losses: Optional[LossConfig] = None,
    policy: Optional[FillingPolicy] = None,
    faults=None,
    seed=None,
    cohort: bool = False,
    validate: Optional[bool] = None,
    obs=None,
):
    """Replay ``n_cycles`` of the scenario event by event.

    Loss model C (random client dropout) is excluded here — the DES run is
    a deterministic validator; stochastic losses are exercised at the
    analytic level where their statistics are testable in bulk.

    When a :class:`repro.faults.config.FaultConfig` with active injectors is
    passed via ``faults``, the run is delegated to
    :func:`repro.faults.desfaults.run_des_faulty_fleet` (``seed`` drives the
    fault timetable and retry jitter) and a
    :class:`~repro.faults.desfaults.DesFaultyResult` is returned instead.

    ``cohort=True`` enables the exact aggregation fast path: one process per
    distinct wake offset (clients) and per distinct occupancy profile
    (servers), with multiplicity-scaled ledgers.  Member trajectories are
    bit-for-bit identical, so the collapse changes no floats at the ledger
    level — property-tested against the per-client path on small fleets.

    ``validate=True`` (or the global ``--validate`` switch when left at
    ``None``) runs the full invariant suite on the finished run: ledger
    conservation, cohort partition, slot occupancy, clock monotonicity, and
    DES-vs-analytic energy reconciliation (see :mod:`repro.validate`).

    ``obs=`` (or the ambient collector; see :mod:`repro.obs`) attributes the
    run's energy per phase from the event-driven ledgers themselves —
    category totals folded through :func:`repro.obs.ledger.phase_of`, cohort
    multiplicities applied — so the phase sum equals the run total by
    construction, and records a ``des_fleet`` span with per-phase children
    plus the kernel's cumulative event count.

    ``n_clients=0`` is well-defined: an empty fleet drains instantly and
    returns empty ledgers with zero energy.
    """
    if faults is not None and faults.any_active:
        from repro.faults.desfaults import run_des_faulty_fleet

        return run_des_faulty_fleet(
            n_clients,
            scenario,
            faults=faults,
            n_cycles=n_cycles,
            period=period,
            losses=losses,
            policy=policy,
            seed=seed,
            cohort=cohort,
            validate=validate,
            obs=obs,
        )
    if n_clients < 0:
        raise ValueError("n_clients must be >= 0")
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    losses = losses or LossConfig.none()
    if losses.client_loss is not None:
        raise ValueError("run_des_fleet does not support loss model C (client dropout)")

    engine = Engine(pool_timeouts=True)
    horizon = n_cycles * period
    tasks = list(scenario.client.active_tasks)
    if scenario.client.active_tasks.total_duration > period:
        raise ValueError("client tasks exceed the period")

    allocation, sizing_extra, wake_offsets = fleet_wake_offsets(
        n_clients, scenario, period, losses, policy
    )

    # --- client processes -----------------------------------------------------
    def client_proc(device: DutyCycledDevice, offset: float):
        for cycle in range(n_cycles):
            wake = cycle * period + offset
            delay = wake - engine.now
            if delay > 0:
                yield engine.timeout(delay)
            device.sleep_until(engine.now)
            end = device.run_routine(engine.now, tasks)
            yield engine.timeout(end - engine.now)

    clients: List[DutyCycledDevice] = []
    client_ends: List[float] = []
    client_cohorts: List[Cohort] = []
    if cohort:
        client_cohorts = group_cohorts(wake_offsets)
        for co in client_cohorts:
            offset = wake_offsets[co.representative]
            dev = DutyCycledDevice(
                RASPBERRY_PI_3B_PLUS, start_time=offset, name=f"client-{co.representative}"
            )
            clients.append(dev)
            client_ends.append(offset + horizon)
            engine.process(client_proc(dev, offset))
    else:
        for cid in range(n_clients):
            offset = wake_offsets[cid]
            dev = DutyCycledDevice(RASPBERRY_PI_3B_PLUS, start_time=offset, name=f"client-{cid}")
            clients.append(dev)
            client_ends.append(offset + horizon)
            engine.process(client_proc(dev, offset))

    # --- server processes -------------------------------------------------------
    servers: List[AlwaysOnDevice] = []
    server_cohorts: List[Cohort] = []
    if allocation is not None:
        profile = scenario.server
        slot_dur = profile.slot_duration(sizing_extra)

        if cohort:
            occupancy_of = {
                srv.server_index: tuple(srv.occupancies) for srv in allocation.servers
            }
            server_cohorts = group_cohorts(occupancy_of)
            for co in server_cohorts:
                dev = AlwaysOnDevice(CLOUD_SERVER_I7_RTX2070, name=f"server-{co.representative}")
                servers.append(dev)
                engine.process(server_process(
                    engine, dev, list(occupancy_of[co.representative]),
                    profile, slot_dur, losses, n_cycles, period,
                ))
        else:
            for srv in allocation.servers:
                dev = AlwaysOnDevice(CLOUD_SERVER_I7_RTX2070, name=f"server-{srv.server_index}")
                servers.append(dev)
                engine.process(server_process(
                    engine, dev, list(srv.occupancies),
                    profile, slot_dur, losses, n_cycles, period,
                ))

    engine.run()  # drain every scheduled event

    for dev, end in zip(clients, client_ends):
        dev.finish(end)
    for dev in servers:
        dev.finish(horizon)

    result = DesFleetResult(
        n_cycles=n_cycles,
        period=period,
        client_accounts=tuple(d.account for d in clients),
        server_accounts=tuple(d.account for d in servers),
        n_clients=n_clients,
        client_multiplicities=tuple(c.multiplicity for c in client_cohorts),
        server_multiplicities=tuple(c.multiplicity for c in server_cohorts),
        client_cohorts=tuple(c.member_ids for c in client_cohorts),
        server_cohorts=tuple(c.member_ids for c in server_cohorts),
    )

    from repro.obs.state import resolve as _resolve_obs

    obs_c = _resolve_obs(obs)
    if obs_c is not None:
        from repro.obs.attribution import attribute_accounts, record_run
        from repro.obs.ledger import PhaseLedger

        obs_c.metrics.counter("des.runs").inc()
        obs_c.metrics.counter("des.clients").inc(n_clients)
        obs_c.metrics.counter("des.cycles").inc(n_cycles)
        obs_c.metrics.counter("des.events_fired").inc(engine.events_fired)
        obs_c.metrics.histogram("des.events_per_run").record(engine.events_fired)
        local = PhaseLedger()
        attribute_accounts(
            local, result.client_accounts, result.client_multiplicities or None
        )
        attribute_accounts(
            local, result.server_accounts, result.server_multiplicities or None
        )
        local.note_total(result.total_energy_j)
        record_run(
            obs_c, "des_fleet", 0.0, horizon, local,
            scenario=scenario.name, n_clients=n_clients,
            n_cycles=n_cycles, cohort=cohort,
            events_fired=engine.events_fired,
        )

    from repro.validate.state import resolve

    if resolve(validate):
        from repro.validate.invariants import validate_des_run

        validate_des_run(
            result,
            scenario=scenario,
            engine=engine,
            allocation=allocation,
            devices=tuple(clients) + tuple(servers),
            losses=losses,
            sizing_extra_s=sizing_extra,
            context={"scenario_name": scenario.name, "cohort": cohort},
        )
    return result

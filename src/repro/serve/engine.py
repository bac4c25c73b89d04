"""The orchestration engine: per-request admission and placement decisions.

This is the transport-free core of ``repro-serve``.  It owns a
:class:`~repro.core.livealloc.LiveAllocation` (the same layout engine the
batch simulator folds over), prices every request with the existing energy
primitives (:func:`~repro.core.simulate.occupied_slot_energy`, the Table
I/II task calibration, the Wi-Fi :class:`~repro.network.link.LinkModel`),
and answers in *simulated* time: requests carry their arrival time ``t``
and responses report deterministic completion times, so a replayed load is
bit-reproducible regardless of wall clock, host, or transport.

Request model
-------------
A request is a dict with an ``op`` in :data:`OPS` plus operands; the
response is a dict with ``ok`` and op-specific fields.  Five operations:

``admit``      seat a hive on the cloud tier (O(log n) via LiveAllocation)
``release``    free the hive's seat
``telemetry``  small sensor payload upload — priced on the wifi link
``inference``  one queen-detection request — the engine decides edge vs
               cloud by marginal system joules and reports latency/energy
``health``     liveness + fleet/occupancy snapshot

Latency semantics (documented in ``docs/SERVING.md``): cloud inferences
start at their slot's next cycle occurrence (wake-up slotting is the
paper's orchestration contract), edge inferences run immediately on the
hive, and both queue behind the same hive's previous in-flight request —
so offered load beyond one request per service window saturates and the
latency series shows the knee ``ext-serve`` sweeps for.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.allocator import Allocator
from repro.core.calibration import CYCLE_SECONDS, PAPER, PaperConstants
from repro.core.client import fallback_inference_task
from repro.core.livealloc import AdmissionFull, LiveAllocation
from repro.core.losses import LossConfig
from repro.core.placement import normalize_kind, resolve_policy
from repro.core.routines import make_scenario
from repro.core.simulate import occupied_slot_energy
from repro.network.buffer import STORED, EdgeBuffer
from repro.network.link import LinkModel
from repro.network.wifi import PAPER_CYCLE_PAYLOAD_BYTES, WIFI_80211N_2G4
from repro.obs import Obs
from repro.serve.faults import SERVER_FAIL, CompiledServeFaults, ServeFaultSpec
from repro.serve.trace import PlacementTrace
from repro.util.rng import derive_seed, make_rng
from repro.validate.checker import ServeConservation, run_checkers

#: The serving API's operation set.
OPS = ("admit", "release", "telemetry", "inference", "health")

#: Latest request time ``t`` the engine accepts (s).  Float spacing at
#: 2**32 s is 2**-20 s, under 1 µs; far past it the sim clock stops
#: resolving a cycle (at ``t = 1e308``, ``t + period == t``).
MAX_REQUEST_T = 2.0**32

#: Largest telemetry payload (bytes): one hive's whole cycle upload, the
#: three audio clips and five images of the paper's routine.
MAX_TELEMETRY_BYTES = PAPER_CYCLE_PAYLOAD_BYTES


def _operands(op: str, request: Dict[str, Any], default_bytes: int) -> Tuple[int, float, int]:
    """``(hive, t, bytes)`` of one request, refused unless each is well typed.

    Runs before the request touches any engine state, so a refused request
    moves neither the request clock nor the fault cursor.  Operands are
    never coerced: a float or string ``hive``, a string or bool ``t`` and a
    fractional ``bytes`` are errors, not truncated or parsed.  (``type(x)
    is int`` also refuses ``bool``, which subclasses ``int``.)
    """
    hive = request["hive"]
    if type(hive) is not int:
        raise TypeError(f"hive must be an int, got {hive!r}")
    t = request.get("t", 0.0)
    if type(t) is not int and not isinstance(t, float):
        raise TypeError(f"request time must be a number, got {t!r}")
    if isinstance(t, float) and not math.isfinite(t):
        raise ValueError(f"non-finite request time {t!r}")
    if t > MAX_REQUEST_T:
        raise ValueError(f"request time {t!r} is past the {MAX_REQUEST_T:.0f} s horizon")
    nbytes = request.get("bytes", default_bytes) if op == "telemetry" else 0
    if type(nbytes) is not int or not 0 <= nbytes <= MAX_TELEMETRY_BYTES:
        raise ValueError(f"bytes must be an int in [0, {MAX_TELEMETRY_BYTES}], got {nbytes!r}")
    return hive, float(t), nbytes


@dataclass(frozen=True)
class ServeConfig:
    """Everything that pins an engine's behaviour (and thus its trace).

    ``queue_bound`` switches on deterministic overload shedding: when the
    simulated number of in-flight server-bound requests reaches the bound,
    inference requests are shed; telemetry is shed earlier, at half the
    bound (lower-value traffic yields first).  ``faults`` attaches a seeded
    live fault surface (:class:`~repro.serve.faults.ServeFaultSpec`).  Both
    default to off, in which case the engine's trace and responses are
    byte-identical to the fault-free serving layer.
    """

    model: str = "svm"
    policy: str = "first-fit"
    policy_seed: int = 0
    max_parallel: Optional[int] = None
    period: float = CYCLE_SECONDS
    max_servers: Optional[int] = None
    telemetry_bytes: int = 1024
    constants: PaperConstants = PAPER
    losses: LossConfig = field(default_factory=LossConfig.none)
    link: LinkModel = WIFI_80211N_2G4
    queue_bound: Optional[int] = None
    faults: Optional[ServeFaultSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "policy", normalize_kind(self.policy))
        if self.period <= 0:
            raise ValueError(f"period must be > 0, got {self.period}")
        # what the engine would refuse on every request is refused here;
        # bool subclasses int
        tb = self.telemetry_bytes
        if type(tb) is not int or not 0 <= tb <= MAX_TELEMETRY_BYTES:
            raise ValueError(f"telemetry_bytes must be an int in [0, {MAX_TELEMETRY_BYTES}], "
                             f"got {tb!r}")
        qb = self.queue_bound
        if qb is not None and (type(qb) is not int or qb < 1):
            raise ValueError(f"queue_bound must be None or an int >= 1, got {qb!r}")

    def describe(self) -> Dict[str, Any]:
        """Stable, JSON-safe header pinning the full engine behaviour.

        Includes the link model and the calibration constants: two engines
        that price transfers differently (another Wi-Fi profile, retuned
        Table I/II numbers) must produce different trace/report headers,
        or the placement-trace fingerprint silently weakens.
        """
        return {
            "model": self.model,
            "policy": self.policy,
            "policy_params": resolve_policy(self.policy, seed=self.policy_seed).describe(),
            "max_parallel": self.max_parallel,
            "period": self.period,
            "max_servers": self.max_servers,
            "telemetry_bytes": self.telemetry_bytes,
            "losses": self.losses.describe(),
            "link": self.link.describe(),
            "queue_bound": self.queue_bound,
            "faults": None if self.faults is None else self.faults.describe(),
            # json round-trip flattens the nested dataclasses/tuples
            "constants": json.loads(json.dumps(dataclasses.asdict(self.constants))),
        }


class OrchestrationEngine:
    """Deterministic request-at-a-time orchestrator over a live allocation."""

    def __init__(self, config: Optional[ServeConfig] = None, obs: Optional[Obs] = None,
                 keep_trace_events: bool = True) -> None:
        self.config = config or ServeConfig()
        cfg = self.config
        scenario = make_scenario("edge+cloud", cfg.model, cfg.max_parallel, cfg.constants)
        self.server = scenario.server
        self.client = scenario.client
        # one shared policy instance: the batch allocator and the live
        # structure must agree on memoized score tables (solar/swarm)
        policy = resolve_policy(cfg.policy, seed=cfg.policy_seed)
        self.allocator = Allocator(self.server, cfg.period, cfg.losses, policy)
        self.plan = self.allocator.plan
        self.live = LiveAllocation(self.plan, policy, cfg.max_servers)
        self.edge_task = fallback_inference_task(cfg.model, cfg.constants)
        # Radio draw during an upload: the Table II send_audio row's power.
        self.radio_watts = cfg.constants.send_audio_j / cfg.constants.send_audio_s
        self.obs = obs if obs is not None else Obs()
        self.trace = PlacementTrace(keep_events=keep_trace_events)
        self._busy_until: Dict[int, float] = {}
        self._latencies: Dict[str, List[float]] = {"telemetry": [], "inference": []}
        self._last_t: Optional[float] = None
        self.n_requests = 0
        self.n_errors = 0
        # -- live-resilience state (all quiescent between requests) --------
        # Conservation ledgers over non-health requests: every offered
        # request lands in exactly one of served / shed / errored
        # (ServeConservation enforces the partition in report()).
        self.n_offered = 0
        self.n_served = 0
        self.n_shed = 0
        self.n_errored = 0
        self.faults: Optional[CompiledServeFaults] = (
            cfg.faults.compile() if cfg.faults is not None and cfg.faults.active else None
        )
        self._fault_cursor = 0
        self._down_servers: Set[int] = set()
        self._buffers: Dict[int, EdgeBuffer] = {}
        # Completion times of server-bound work (cloud inferences and
        # telemetry uploads) still in flight, pruned at every request's
        # arrival: a min-heap of distinct times, the number of completions
        # due at each, and their total, the admission-queue depth shedding
        # decides on.  A slot's cloud inferences all complete at one
        # instant, so pruning pops one heap entry for the whole slot.
        self._inflight: List[float] = []
        self._inflight_due: Dict[float, int] = {}
        self._inflight_depth = 0
        # Duck-typed checkpoint hook (see repro.serve.checkpoint): called
        # after every handled request, when attached by the CLI.
        self.checkpointer: Optional[Any] = None

    # -- pricing -------------------------------------------------------------
    def _slot_marginal_j(self, occupancy: int) -> float:
        """Server-side joules the ``occupancy``-th occupant adds to its slot."""
        cfg = self.config
        extra = self.allocator.sizing_extra_s
        full = occupied_slot_energy(self.server, occupancy, extra, cfg.losses)
        if occupancy > 1:
            rest = occupied_slot_energy(self.server, occupancy - 1, extra, cfg.losses)
        else:
            rest = self.server.idle_watts * self.server.slot_duration(extra)
        return full - rest

    def _cloud_cost(self, client_id: int) -> Tuple[float, float, Any]:
        """(client-side joules, server-side marginal joules, placement)."""
        placement = self.live.placement_of(client_id)
        occ = self.live.slot_occupancy(placement)
        send_j = self.config.constants.send_audio_j
        return send_j, self._slot_marginal_j(occ), placement

    def _edge_cost(self) -> Tuple[float, float]:
        return self.edge_task.energy, self.edge_task.duration

    def _next_slot_start(self, slot: int, after: float) -> float:
        """First occurrence of ``slot``'s window at or after sim time ``after``."""
        offset = slot * self.plan.slot_duration
        if after <= offset:
            return offset
        cycles = math.ceil((after - offset) / self.config.period)
        return offset + cycles * self.config.period

    # -- request handling ----------------------------------------------------
    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Process one request dict; never raises on a bad request.

        Every handled request is counted exactly once, *before* dispatch:
        health probes and malformed requests both land in ``n_requests``
        and the per-op counters (unknown ops under ``serve.requests.invalid``),
        so ``n_requests >= n_errors`` always holds and the per-op counter
        totals sum to the request count.
        """
        op = request.get("op")
        self.n_requests += 1
        m = self.obs.metrics
        m.counter("serve.requests").inc()
        m.counter(f"serve.requests.{op if op in OPS else 'invalid'}").inc()
        response = self._dispatch(op, request)
        if op != "health":
            self.n_offered += 1
            if response.get("shed"):
                self.n_shed += 1
            elif response.get("ok"):
                self.n_served += 1
            else:
                self.n_errored += 1
        if self.checkpointer is not None:
            self.checkpointer.after_request(self)
        return response

    def _dispatch(self, op: Optional[str], request: Dict[str, Any]) -> Dict[str, Any]:
        try:
            if op == "health":
                return self._health()
            if op not in OPS:
                raise ValueError(f"unknown op {op!r} (expected one of {OPS})")
            hive, t, nbytes = _operands(op, request, self.config.telemetry_bytes)
            if self._last_t is not None and t < self._last_t:
                raise ValueError(
                    f"non-monotonic request time {t!r} after {self._last_t!r}"
                )
            # Refuse a seat change before the clock moves.  No transition
            # seats or unseats a hive: a failure's repack re-seats every orphan.
            if op == "admit" and hive in self.live:
                raise ValueError(f"hive {hive} is already admitted")
            if op == "release" and hive not in self.live:
                raise ValueError(f"hive {hive} is not admitted")
            self._observe_arrival(t)
            self._prune_inflight(t)
            self._advance_faults(t)
            if op == "admit":
                return self._admit(hive, t)
            if op == "release":
                return self._release(hive, t)
            self._maybe_drain(hive, t)
            if op == "telemetry":
                return self._telemetry(hive, t, nbytes)
            return self._inference(hive, t)
        except Exception as exc:  # noqa: BLE001 — surface as a structured error
            self.n_errors += 1
            self.obs.metrics.counter("serve.errors").inc()
            return {"ok": False, "op": op, "error": f"{type(exc).__name__}: {exc}"}

    def _observe_arrival(self, t: float) -> None:
        if self._last_t is not None and t > self._last_t:
            self.obs.metrics.histogram("serve.interarrival_s").record(t - self._last_t)
        self._last_t = t if self._last_t is None else max(self._last_t, t)

    # -- live fault injection ------------------------------------------------
    def _advance_faults(self, t: float) -> None:
        """Apply every server fail/recover transition due at or before ``t``.

        Transitions ride the request clock: the engine is quiescent between
        requests, so applying them lazily — but always *before* the request
        that first observes time ``t`` — yields the same state as a
        continuously running timer, deterministically.  A failure repacks
        the live allocation immediately (the orchestrator re-seats the dead
        server's hives in the active policy's ``repack_preference`` order);
        recovery only clears the down flag — clients re-spread naturally as
        admissions churn, matching the batch fold over survivors.
        """
        f = self.faults
        if f is None:
            return
        while self._fault_cursor < len(f.transitions):
            when, _target, kind, server = f.transitions[self._fault_cursor]
            if when > t:
                break
            self._fault_cursor += 1
            if kind == SERVER_FAIL:
                self._down_servers.add(server)
                self.obs.metrics.counter("serve.faults.server_fail").inc()
                orphans = readmitted = dropped = 0
                if server < self.live.n_servers and len(self.live) > 0:
                    result = self.live.repack_on_failure(server, policy_order=True)
                    orphans = len(result.orphans)
                    readmitted = len(result.readmitted)
                    dropped = len(result.dropped)
                self.trace.append(
                    t=when, op="server-fail", server=server,
                    orphans=orphans, readmitted=readmitted, dropped=dropped,
                )
            else:
                self._down_servers.discard(server)
                self.obs.metrics.counter("serve.faults.server_recover").inc()
                self.trace.append(t=when, op="server-recover", server=server)
            self.obs.metrics.gauge("serve.servers_down").set(len(self._down_servers))

    def _buffer_for(self, hive: int) -> EdgeBuffer:
        buf = self._buffers.get(hive)
        if buf is None:
            buf = self._buffers[hive] = EdgeBuffer(self.faults.spec.buffer)
        return buf

    def _buffer_telemetry(self, hive: int, t: float, payload_bytes: int) -> Dict[str, Any]:
        """Dark-window telemetry: store-and-forward on the hive, zero radio."""
        buf = self._buffer_for(hive)
        outcome = buf.offer(t, payload_bytes)
        self.obs.metrics.counter(f"serve.buffered.{outcome}").inc()
        self.trace.append(
            t=t, op="telemetry", hive=hive, bytes=payload_bytes, outcome=outcome,
        )
        return {
            "ok": True, "op": "telemetry", "hive": hive, "t": t,
            "bytes": payload_bytes, "buffered": outcome == STORED,
            "outcome": outcome,
        }

    def _maybe_drain(self, hive: int, t: float) -> None:
        """Burst-drain a reconnected hive's backlog before its request.

        Bounded by the buffer's contended drain quota; each drained byte is
        priced on the serving link and charged to the hive's transfer phase
        — catching up is never free.
        """
        if self.faults is None:
            return
        buf = self._buffers.get(hive)
        if buf is None or buf.resident_payloads == 0:
            return
        if self.faults.hive_dark(hive, t):
            return
        quota = self.faults.spec.buffer.drain_quota(self.config.link, 1)
        payloads = buf.drain(t, quota)
        if not payloads:
            return
        nbytes = sum(p.nbytes for p in payloads)
        duration = self.config.link.expected_duration(nbytes)
        energy = self.radio_watts * duration
        self.obs.ledger.add("transfer", energy, duration)
        self.obs.metrics.counter("serve.drained").inc(len(payloads))
        self.trace.append(
            t=t, op="drain", hive=hive, payloads=len(payloads),
            bytes=nbytes, energy=energy,
        )

    # -- overload shedding ---------------------------------------------------
    def _push_inflight(self, done: float) -> None:
        due = self._inflight_due.get(done, 0)
        if not due:
            heapq.heappush(self._inflight, done)
        self._inflight_due[done] = due + 1
        self._inflight_depth += 1

    def _prune_inflight(self, t: float) -> None:
        while self._inflight and self._inflight[0] <= t:
            self._inflight_depth -= self._inflight_due.pop(heapq.heappop(self._inflight))

    def _inflight_completions(self) -> List[float]:
        """Completion times of the server-bound work in flight, one per request, sorted."""
        return sorted(done for done, due in self._inflight_due.items() for _ in range(due))

    def _maybe_shed(self, op: str, hive: int, t: float) -> Optional[Dict[str, Any]]:
        """Deterministic admission control over the bounded in-flight queue.

        Telemetry sheds first (at half the bound, rounded up); inference
        holds on until the queue is actually full.  The 503 carries a
        ``retry_after_s`` hint: the time until the oldest in-flight request
        completes (one service period when the queue is somehow empty).
        """
        bound = self.config.queue_bound
        if bound is None:
            return None
        depth = self._inflight_depth
        threshold = bound if op == "inference" else (bound + 1) // 2
        if depth < threshold:
            return None
        retry_after = self._inflight[0] - t if self._inflight else self.config.period
        self.obs.metrics.counter(f"serve.shed.{op}").inc()
        self.trace.append(
            t=t, op="shed", hive=hive, shed_op=op,
            queue_depth=depth, retry_after=retry_after,
        )
        return {
            "ok": False, "op": op, "hive": hive, "t": t, "shed": True,
            "queue_depth": depth, "retry_after_s": retry_after,
        }

    def _admit(self, hive: int, t: float) -> Dict[str, Any]:
        try:
            placement = self.live.admit(hive)
        except AdmissionFull as exc:
            self.obs.metrics.counter("serve.admissions.rejected").inc()
            self.trace.append(t=t, op="admit", hive=hive, outcome="rejected")
            return {
                "ok": True, "op": "admit", "hive": hive, "t": t,
                "admitted": False, "reason": str(exc),
            }
        self.obs.metrics.counter("serve.admissions").inc()
        self.obs.metrics.gauge("serve.fleet").set(len(self.live))
        self.obs.metrics.gauge("serve.servers").set(self.live.n_servers)
        self.trace.append(
            t=t, op="admit", hive=hive, outcome="admitted",
            server=placement.server, slot=placement.slot, position=placement.position,
        )
        return {
            "ok": True, "op": "admit", "hive": hive, "t": t, "admitted": True,
            "server": placement.server, "slot": placement.slot,
            "position": placement.position,
        }

    def _release(self, hive: int, t: float) -> Dict[str, Any]:
        self.live.release(hive)
        self.obs.metrics.counter("serve.releases").inc()
        self.obs.metrics.gauge("serve.fleet").set(len(self.live))
        self.obs.metrics.gauge("serve.servers").set(self.live.n_servers)
        self.trace.append(t=t, op="release", hive=hive, outcome="released")
        return {"ok": True, "op": "release", "hive": hive, "t": t, "released": True}

    def _telemetry(self, hive: int, t: float, payload_bytes: int) -> Dict[str, Any]:
        if self.faults is not None and self.faults.hive_dark(hive, t):
            return self._buffer_telemetry(hive, t, payload_bytes)
        shed = self._maybe_shed("telemetry", hive, t)
        if shed is not None:
            return shed
        duration = self.config.link.expected_duration(payload_bytes)
        energy = self.radio_watts * duration
        self.obs.ledger.add("transfer", energy, duration)
        self._latencies["telemetry"].append(duration)
        self.obs.metrics.histogram("serve.latency_s.telemetry").record(duration)
        self.trace.append(
            t=t, op="telemetry", hive=hive, bytes=payload_bytes,
            latency=duration, energy=energy,
        )
        self._push_inflight(t + duration)
        return {
            "ok": True, "op": "telemetry", "hive": hive, "t": t,
            "bytes": payload_bytes, "latency_s": duration, "energy_j": energy,
        }

    def _inference(self, hive: int, t: float) -> Dict[str, Any]:
        """Place one inference by *client* joules — the hive battery is the
        paper's objective; the server's marginal draw is attributed to the
        ledger but amortizes over the fleet rather than vetoing offload."""
        edge_j, edge_service_s = self._edge_cost()
        if self.faults is not None and self.faults.hive_dark(hive, t):
            # A dark hive cannot reach the service at all: it degrades to
            # local inference without consulting (or loading) the frontend.
            return self._run_edge(hive, t, edge_j, edge_service_s, "link-dark")
        shed = self._maybe_shed("inference", hive, t)
        if shed is not None:
            return shed
        if hive in self.live:
            client_j, server_j, placement = self._cloud_cost(hive)
            if client_j <= edge_j:
                if self.faults is not None and placement.server in self._down_servers:
                    return self._retry_cloud(hive, t, client_j, server_j, placement)
                return self._run_cloud(hive, t, client_j, server_j, placement)
            reason = "upload-costs-more-than-local-inference"
        else:
            reason = "not-admitted"
        return self._run_edge(hive, t, edge_j, edge_service_s, reason)

    def _retry_cloud(self, hive: int, t: float, client_j: float, server_j: float,
                     placement) -> Dict[str, Any]:
        """Upload aimed at a down server: walk the seeded retry ladder.

        Attempt ``i`` probes the fault schedule at its (timeout- and
        backoff-shifted) start time — a server repaired mid-ladder rescues
        the request onto the cloud path with the accumulated delay and
        retry joules attached; an exhausted ladder degrades to the edge
        with reason ``server-down``.  The jitter stream is derived from
        ``(fault seed, hive, trace position)``, so a resumed engine replays
        the identical ladder.
        """
        spec = self.faults.spec
        retry = spec.retry
        rng = make_rng(derive_seed(spec.seed, "serve-retry", hive, self.trace.n_events))
        attempt_t = max(t, self._busy_until.get(hive, 0.0))
        attempts = 0
        retry_j = 0.0
        for i in range(retry.max_retries + 1):
            if not self.faults.server_down(placement.server, attempt_t):
                return self._run_cloud(
                    hive, t, client_j, server_j, placement,
                    start_floor=attempt_t, retries=attempts, retry_energy=retry_j,
                )
            attempts += 1
            burn = retry.attempt_energy_j(self.radio_watts)
            retry_j += burn
            self.obs.ledger.add("retry", burn, retry.timeout_s)
            attempt_t += retry.timeout_s
            if i < retry.max_retries:
                attempt_t += retry.delay_s(i, rng)
        self.obs.metrics.counter("serve.retries.exhausted").inc()
        edge_j, edge_service_s = self._edge_cost()
        return self._run_edge(
            hive, t, edge_j, edge_service_s, "server-down",
            start_floor=attempt_t, retries=attempts, retry_energy=retry_j,
        )

    def _run_cloud(self, hive: int, t: float, client_j: float, server_j: float,
                   placement, start_floor: Optional[float] = None,
                   retries: int = 0, retry_energy: float = 0.0) -> Dict[str, Any]:
        eff_t = max(t, self._busy_until.get(hive, 0.0))
        if start_floor is not None:
            eff_t = max(eff_t, start_floor)
        start = self._next_slot_start(placement.slot, eff_t)
        done = start + self.server.transfer_s + self.server.service.duration
        self._busy_until[hive] = done
        latency = done - t
        self.obs.ledger.add("transfer", client_j, self.config.constants.send_audio_s)
        self.obs.ledger.add("infer", server_j, self.server.service.duration)
        self._record_inference("cloud", latency)
        extra = {"retries": retries, "retry_energy": retry_energy} if retries else {}
        self.trace.append(
            t=t, op="inference", hive=hive, placement="cloud",
            server=placement.server, slot=placement.slot, position=placement.position,
            latency=latency, energy=client_j, server_energy=server_j, **extra,
        )
        self._push_inflight(done)
        response = {
            "ok": True, "op": "inference", "hive": hive, "t": t,
            "placement": "cloud", "server": placement.server,
            "slot": placement.slot, "position": placement.position,
            "latency_s": latency, "energy_j": client_j,
            "server_energy_j": server_j, "done_t": done,
        }
        if retries:
            response["retries"] = retries
            response["retry_energy_j"] = retry_energy
        return response

    def _run_edge(self, hive: int, t: float, energy_j: float, service_s: float,
                  reason: str, start_floor: Optional[float] = None,
                  retries: int = 0, retry_energy: float = 0.0) -> Dict[str, Any]:
        eff_t = max(t, self._busy_until.get(hive, 0.0))
        if start_floor is not None:
            eff_t = max(eff_t, start_floor)
        done = eff_t + service_s
        self._busy_until[hive] = done
        latency = done - t
        self.obs.ledger.add("infer", energy_j, service_s)
        self._record_inference("edge", latency)
        extra = {"retries": retries, "retry_energy": retry_energy} if retries else {}
        self.trace.append(
            t=t, op="inference", hive=hive, placement="edge", reason=reason,
            latency=latency, energy=energy_j, **extra,
        )
        response = {
            "ok": True, "op": "inference", "hive": hive, "t": t,
            "placement": "edge", "reason": reason,
            "latency_s": latency, "energy_j": energy_j, "done_t": done,
        }
        if retries:
            response["retries"] = retries
            response["retry_energy_j"] = retry_energy
        return response

    def _record_inference(self, where: str, latency: float) -> None:
        self.obs.metrics.counter(f"serve.placements.{where}").inc()
        self._latencies["inference"].append(latency)
        self.obs.metrics.histogram("serve.latency_s.inference").record(latency)

    def _health(self) -> Dict[str, Any]:
        if self._last_t is not None:
            self._prune_inflight(self._last_t)
        depth = self._inflight_depth
        degraded = bool(self._down_servers) or (
            self.config.queue_bound is not None and depth >= self.config.queue_bound
        )
        return {
            "ok": True, "op": "health",
            "status": "degraded" if degraded else "up",
            "fleet": len(self.live), "servers": self.live.n_servers,
            "requests": self.n_requests, "errors": self.n_errors,
            "policy": self.config.policy, "capacity_left": self.live.capacity_left,
            "offered": self.n_offered, "served": self.n_served,
            "shed": self.n_shed, "errored": self.n_errored,
            "queue_depth": depth, "failed_servers": len(self._down_servers),
            "uptime_s": self._last_t if self._last_t is not None else 0.0,
        }

    # -- reporting -----------------------------------------------------------
    def latency_report(self) -> Dict[str, Any]:
        """Exact p50/p99 latency quantiles plus offered requests/sec."""
        out: Dict[str, Any] = {}
        for kind, values in self._latencies.items():
            if not values:
                out[kind] = {"count": 0}
                continue
            ordered = sorted(values)
            out[kind] = {
                "count": len(ordered),
                "p50_s": _quantile(ordered, 0.50),
                "p99_s": _quantile(ordered, 0.99),
                "mean_s": sum(ordered) / len(ordered),
                "max_s": ordered[-1],
            }
        horizon = self._last_t or 0.0
        out["rps"] = self.n_requests / horizon if horizon > 0 else 0.0
        return out

    def report(self) -> Dict[str, Any]:
        """Shutdown summary: config, counters, latency, trace, allocation.

        Runs the serve-conservation checker first: a report whose request
        partition does not balance raises instead of publishing.
        """
        run_checkers(self, [ServeConservation()], {"path": "serve-report"})
        alloc = self.live.to_allocation()
        return {
            "config": self.config.describe(),
            "requests": self.n_requests,
            "errors": self.n_errors,
            "offered": self.n_offered,
            "served": self.n_served,
            "shed": self.n_shed,
            "errored": self.n_errored,
            "fleet": len(self.live),
            "servers": self.live.n_servers,
            "failed_servers": sorted(self._down_servers),
            "occupancies": [srv.occupancies for srv in alloc.servers],
            "latency": self.latency_report(),
            "trace": self.trace.to_dict(include_events=False),
        }

    def steady_state_matches_batch(self) -> bool:
        """True iff the live layout equals the batch fold over survivors.

        Structurally guaranteed (``to_allocation`` *is* the fold), but the
        serve smoke re-asserts it end-to-end through the request path.
        """
        batch = self.allocator.policy.allocate(self.live.client_ids(), self.plan)
        live = self.live.to_allocation()
        return batch.servers == live.servers and batch.plan == live.plan


def _quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted list."""
    idx = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[idx]


__all__ = ["OPS", "ServeConfig", "OrchestrationEngine"]

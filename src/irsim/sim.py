"""Deterministic discrete-event highway simulation.

Vehicles follow straight lanes at constant speed on a two-way highway and
wrap around at the ends. The radio is a unit disk with independent
Bernoulli loss per directed link. Beacons keep per-receiver freshness
state; warnings, misbehavior reports, and ledger broadcasts run through
the protocol state machines. Identical (config, seed) pairs produce
bit-identical event logs and metrics.

Two deterministic random streams are used: one for world building and
emission schedules (shared between pipelines so both see the same traffic
and attacks), one for channel loss and ranging noise.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .metrics import DecisionLog, DecisionRecord, MetricsReport, RunInfo, finalize
from .protocol import (
    Disposition,
    EventKind,
    MisbehaviorReport,
    NeighborView,
    ProtocolConfig,
    RrlBroadcast,
    RsuNode,
    VehicleNode,
    Warning,
    encode_rrl_broadcast,
    encode_warning,
    NON_SAFETY_MESSAGE_BYTES,
    SAFETY_MESSAGE_BYTES,
)
from .scenario import ConfigError, ScenarioConfig

RSU_ID_BASE = 10_000
ANCHOR_ID_BASE = 20_000
_BEACON_WIRE_BYTES = 56
_REPORT_WIRE_BYTES = 33

_KINDS = (EventKind.CRASH, EventKind.ICE, EventKind.SUDDEN_BRAKE)


@dataclass(frozen=True, slots=True)
class EventInfo:
    truth: bool
    kind: EventKind
    position: tuple[float, float]
    spawn_time: float


class EventRegistry:
    """Ground truth for every event id a warning may reference."""

    def __init__(self) -> None:
        self.events: dict[int, EventInfo] = {}
        self._next_id = 1

    def register(self, truth: bool, kind: EventKind, position: tuple[float, float], now: float) -> int:
        event_id = self._next_id
        self._next_id += 1
        self.events[event_id] = EventInfo(truth, kind, position, now)
        return event_id

    def message_truth(self, warning: Warning, tolerance_m: float) -> bool:
        """A message is truthful iff its event is real and its content matches."""
        info = self.events[warning.event_id]
        if not info.truth:
            return False
        if warning.event_kind is not info.kind:
            return False
        dx = warning.event_position[0] - info.position[0]
        dy = warning.event_position[1] - info.position[1]
        return math.hypot(dx, dy) <= tolerance_m


@dataclass(frozen=True, slots=True)
class AttackerProfile:
    """Attacker behavior: fabrication, alteration, or far-away claims."""

    kind: str  # one of scenario.ATTACKER_PROFILES
    rate: float  # emissions per second

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError("attacker rate must be >= 0")


def deliver(
    sender_position: tuple[float, float],
    receiver_position: tuple[float, float],
    range_m: float,
    loss_probability: float,
    rng: np.random.Generator,
) -> bool:
    """Radio model for one directed transmission.

    Never delivers beyond ``range_m``; within range, delivery succeeds with
    probability 1 - loss.
    """
    if range_m <= 0:
        raise ValueError("range must be > 0")
    dx = sender_position[0] - receiver_position[0]
    dy = sender_position[1] - receiver_position[1]
    if math.hypot(dx, dy) > range_m:
        return False
    return rng.random() >= loss_probability


class SimWorld:
    """Built scenario: mobility arrays, protocol nodes, event registry."""

    def __init__(self, config: ScenarioConfig, pipeline: str = "irs") -> None:
        config.validate()
        if pipeline not in ("irs", "accept-all"):
            raise ConfigError(f"pipeline must be 'irs' or 'accept-all', got {pipeline!r}")
        self.config = config
        self.pipeline = pipeline

        seq = np.random.SeedSequence(config.seed)
        sched_seed, chan_seed = seq.spawn(2)
        self.rng_sched = np.random.Generator(np.random.PCG64(sched_seed))
        self.rng_chan = np.random.Generator(np.random.PCG64(chan_seed))

        n = config.vehicle_count
        self.n = n
        width, height = config.grid
        lanes = 2 * config.lanes_per_direction
        lane_gap = 4.0
        lane_index = np.arange(n) % lanes if n else np.zeros(0, dtype=int)
        offsets = (np.arange(lanes) - (lanes - 1) / 2.0) * lane_gap
        self.lane_y = height / 2.0 + offsets[lane_index] if n else np.zeros(0)
        self.direction = np.where(lane_index < config.lanes_per_direction, 1.0, -1.0)
        self.x0 = self.rng_sched.uniform(0.0, width, n)
        self.speed = self.rng_sched.uniform(config.speed_range[0], config.speed_range[1], n)

        attacker_ids = (
            sorted(int(i) for i in self.rng_sched.choice(n, size=config.attacker_count, replace=False))
            if config.attacker_count
            else []
        )
        self.attacker_ids = attacker_ids
        self.is_attacker = np.zeros(n, dtype=bool)
        for idx in attacker_ids:
            self.is_attacker[idx] = True
        self.benign = frozenset(i for i in range(n) if not self.is_attacker[i])
        self.profile = AttackerProfile(config.attacker_profile, config.attacker_rate)

        self.protocol_config = ProtocolConfig(
            grid=config.grid,
            pending_ttl=config.pending_ttl,
            neighbor_ttl=config.neighbor_ttl,
            suspicion_ttl=config.suspicion_ttl,
            broadcast_period=config.broadcast_period,
            corroboration_tolerance_m=config.corroboration_tolerance_m,
            plausibility_radius_m=config.transmission_range,
            strict_top_heuristic=config.strict_top_heuristic,
            initial_points=config.initial_points,
        )

        sigma = config.ranging_noise_sigma
        per_m = config.ranging_noise_per_meter
        noise = (
            (lambda ranging: float(self.rng_chan.normal(0.0, sigma + per_m * ranging)))
            if (sigma > 0 or per_m > 0)
            else None
        )
        self.nodes: list[VehicleNode] = [
            VehicleNode(
                i,
                self.protocol_config,
                kind="attacker" if self.is_attacker[i] else "benign",
                distance_noise=noise,
            )
            for i in range(n)
        ]

        anchors = [
            (ANCHOR_ID_BASE + i, config.anchor_top_points, 0)
            for i in range(config.trusted_anchors)
        ] + [
            (ANCHOR_ID_BASE + config.trusted_anchors + i, config.anchor_low_points, 1)
            for i in range(config.flagged_anchors)
        ]
        rsu_order = sorted(range(len(config.rsu_positions)), key=lambda k: config.rsu_positions[k])
        self.rsus: list[RsuNode] = []
        for rank, k in enumerate(rsu_order):
            adjacent = []
            if rank > 0:
                adjacent.append(RSU_ID_BASE + rsu_order[rank - 1])
            if rank < len(rsu_order) - 1:
                adjacent.append(RSU_ID_BASE + rsu_order[rank + 1])
            rsu = RsuNode(
                RSU_ID_BASE + k,
                config.rsu_positions[k],
                config.rsu_coverage_radius,
                self.protocol_config,
                adjacent=tuple(adjacent),
            )
            # Registered vehicles start at neutral points; anchor entries pin
            # the band geometry to the full scale from the first broadcast.
            rsu.seed(list(range(n)), config.initial_points, anchors)
            self.rsus.append(rsu)
        self.rsus_by_id = {rsu.id: rsu for rsu in self.rsus}

        self.registry = EventRegistry()
        # Per-conflicting-attacker memory of true events they can distort.
        self.known_true: dict[int, list[int]] = {i: [] for i in attacker_ids}
        self.altered: set[int] = set()

    def positions_at(self, t: float) -> np.ndarray:
        width = self.config.grid[0]
        x = np.mod(self.x0 + self.direction * self.speed * t, width)
        return np.column_stack((x, self.lane_y))


def build_scenario(config: ScenarioConfig, pipeline: str = "irs") -> SimWorld:
    """Validate a config and lay out the world (vehicles, attackers, roadside units)."""
    return SimWorld(config, pipeline)


def attacker_emit(world: SimWorld, attacker: int, now: float) -> list[Warning]:
    """Craft this attacker's warnings for one attack opportunity."""
    rng = world.rng_sched
    cfg = world.config
    pos = world.positions_at(now)[attacker]
    profile = world.profile

    if profile.kind == "false-warning":
        # Fabricated hazard close enough to pass the sender-distance check.
        ex = float(np.clip(pos[0] + rng.uniform(-60.0, 60.0), 0.0, cfg.grid[0]))
        ey = float(np.clip(pos[1] + rng.uniform(-3.0, 3.0), 0.0, cfg.grid[1]))
        kind = _KINDS[int(rng.integers(len(_KINDS)))]
        event_id = world.registry.register(False, kind, (ex, ey), now)
        return [Warning(attacker, event_id, kind, (ex, ey), now)]

    if profile.kind == "far-event-claim":
        offset = cfg.transmission_range + float(rng.uniform(100.0, 250.0))
        ex = pos[0] + offset if pos[0] < cfg.grid[0] / 2.0 else pos[0] - offset
        ex = float(np.clip(ex, 0.0, cfg.grid[0]))
        ey = float(np.clip(pos[1] + rng.uniform(-3.0, 3.0), 0.0, cfg.grid[1]))
        kind = _KINDS[int(rng.integers(len(_KINDS)))]
        event_id = world.registry.register(False, kind, (ex, ey), now)
        return [Warning(attacker, event_id, kind, (ex, ey), now)]

    # conflicting-info: re-broadcast a known true event with the kind swapped.
    for event_id in world.known_true[attacker]:
        if event_id in world.altered:
            continue
        info = world.registry.events[event_id]
        wrong_kind = _KINDS[(_KINDS.index(info.kind) + 1) % len(_KINDS)]
        world.altered.add(event_id)
        return [Warning(attacker, event_id, wrong_kind, info.position, now)]
    return []


@dataclass
class RunResult:
    log_lines: list[str]
    report: MetricsReport
    decisions: DecisionLog
    timings: dict = field(default_factory=dict)

    def log_text(self) -> str:
        return "\n".join(self.log_lines) + ("\n" if self.log_lines else "")


# Event kinds for the queue, dispatched in (time, sequence) order.
_ROUND, _RSU_TICK, _HAZARD, _ATTACK, _WARNING = range(5)


class _Runner:
    def __init__(self, world: SimWorld) -> None:
        self.world = world
        self.cfg = world.config
        self.irs = world.pipeline == "irs"
        self.log: list[str] = []
        self.decisions = DecisionLog()
        self.heap: list[tuple[float, int, int, object]] = []
        self._seq = 0
        n = world.n
        self.last_heard = np.full((n, n), -np.inf)
        self.next_tx = np.zeros(n)
        self.beacon_iv = (
            world.rng_sched.uniform(self.cfg.beacon_interval[0], self.cfg.beacon_interval[1], n)
            if n
            else np.zeros(0)
        )
        self.pending_vehicles: set[int] = set()
        # (receiver, event, sender) -> (truth, distance) for provisional decisions.
        self.pending_meta: dict[tuple[int, int, int], tuple[bool, float]] = {}
        self.counters = {
            "beacons_emitted": 0,
            "warnings_emitted": 0,
            "warning_deliveries": 0,
            "reports_delivered": 0,
            "rrl_deliveries": 0,
            "rrl_broadcasts": 0,
            "encoded_bytes": 0,
        }

    # -- plumbing ---------------------------------------------------------

    def push(self, t: float, kind: int, payload: object = None) -> None:
        heapq.heappush(self.heap, (t, self._seq, kind, payload))
        self._seq += 1

    def emit_line(
        self,
        t: float,
        kind: str,
        sender: object = "-",
        receiver: object = "-",
        event: object = "-",
        decision: str = "-",
        truth: str = "-",
        distance: str = "-",
    ) -> None:
        self.log.append(f"{t:.6f}\t{kind}\t{sender}\t{receiver}\t{event}\t{decision}\t{truth}\t{distance}")

    # -- main loop ---------------------------------------------------------

    def run(self) -> RunResult:
        wall_start = time.perf_counter()
        world, cfg = self.world, self.cfg

        if world.n:
            if self.irs:
                self.push(0.0, _ROUND, 0)
                if world.rsus:
                    # First publication at power-up, then one per period.
                    self.push(0.0, _RSU_TICK, 0)
            if cfg.event_rate_per_min > 0:
                scale = 60.0 / cfg.event_rate_per_min
                self.push(float(world.rng_sched.exponential(scale)), _HAZARD)
            if world.profile.rate > 0:
                for attacker in world.attacker_ids:
                    self.push(float(world.rng_sched.exponential(1.0 / world.profile.rate)), _ATTACK, attacker)

        while self.heap:
            t, _seq, kind, payload = heapq.heappop(self.heap)
            if t > cfg.duration:
                break
            if kind == _ROUND:
                self.handle_round(t, payload)  # type: ignore[arg-type]
            elif kind == _RSU_TICK:
                self.handle_rsu_tick(t, payload)  # type: ignore[arg-type]
            elif kind == _HAZARD:
                self.handle_hazard(t)
            elif kind == _ATTACK:
                self.handle_attack(t, payload)  # type: ignore[arg-type]
            elif kind == _WARNING:
                self.emit_warning(payload, t)  # type: ignore[arg-type]

        self.final_expiry()
        report = self.build_report()
        wall = time.perf_counter() - wall_start
        return RunResult(self.log, report, self.decisions, {"wall_s": wall})

    # -- handlers ----------------------------------------------------------

    def handle_round(self, t: float, index: int) -> None:
        world, cfg = self.world, self.cfg
        positions = world.positions_at(t)

        due = self.next_tx <= t + 1e-9
        n_due = int(due.sum())
        if n_due:
            dx = positions[:, 0][:, None] - positions[:, 0][None, :]
            dy = positions[:, 1][:, None] - positions[:, 1][None, :]
            within = dx * dx + dy * dy <= cfg.transmission_range**2
            keep = world.rng_chan.random((world.n, world.n)) >= cfg.delivery_loss_probability
            ok = within & keep & due[None, :]
            np.fill_diagonal(ok, False)
            self.last_heard = np.where(ok, t, self.last_heard)
            self.next_tx[due] += self.beacon_iv[due]
            self.counters["beacons_emitted"] += n_due

        if self.pending_vehicles:
            # Randomize processing order: report arrival at the roadside unit
            # would otherwise always favor low vehicle ids when crediting the
            # first two reporters of an event.
            order = world.rng_chan.permutation(sorted(self.pending_vehicles))
            for idx in order:
                self.expire_for(int(idx), t, positions)
            self.pending_vehicles = {i for i in self.pending_vehicles if world.nodes[i].pending}

        req_every = max(1, round(cfg.rrl_request_period / cfg.beacon_interval[0]))
        if world.rsus and index % req_every == 0:
            self.handle_requests(t, positions)

        nxt = (index + 1) * cfg.beacon_interval[0]
        if nxt <= cfg.duration:
            self.push(nxt, _ROUND, index + 1)

    def handle_requests(self, t: float, positions: np.ndarray) -> None:
        world, cfg = self.world, self.cfg
        for idx, node in enumerate(world.nodes):
            node.neighbors = self.neighbor_view(idx, t)
            if not node.maybe_request_rrl():
                continue
            self.emit_line(t, "REQ", idx)
            rsu = self.nearest_rsu(positions[idx])
            if rsu is None:
                continue
            # The request and the response each cross the lossy channel.
            if world.rng_chan.random() < cfg.delivery_loss_probability:
                continue
            if world.rng_chan.random() < cfg.delivery_loss_probability:
                continue
            node.handle_rrl_broadcast(RrlBroadcast(rsu.snapshot(), t))
            self.counters["rrl_deliveries"] += 1
            self.emit_line(t, "RRL", rsu.id, idx)

    def handle_rsu_tick(self, t: float, index: int) -> None:
        world, cfg = self.world, self.cfg
        positions = world.positions_at(t)
        for rsu in world.rsus:
            broadcast, forwards = rsu.tick(t)
            self.counters["rrl_broadcasts"] += 1
            self.counters["encoded_bytes"] += len(encode_rrl_broadcast(broadcast))
            d = np.hypot(positions[:, 0] - rsu.position[0], positions[:, 1] - rsu.position[1])
            in_range = d <= rsu.coverage_radius
            keep = world.rng_chan.random(world.n) >= cfg.delivery_loss_probability
            for idx in np.nonzero(in_range & keep)[0]:
                if world.nodes[int(idx)].handle_rrl_broadcast(broadcast):
                    self.counters["rrl_deliveries"] += 1
                    self.emit_line(t, "RRL", rsu.id, int(idx), "-")
            for fwd in forwards:
                target = world.rsus_by_id.get(fwd.destination)
                if target is not None:
                    target.handle_forward(fwd, t)
                    self.emit_line(t, "FWD", fwd.origin, fwd.destination, "-")
        nxt = (index + 1) * cfg.broadcast_period
        if nxt <= cfg.duration:
            self.push(nxt, _RSU_TICK, index + 1)

    def handle_hazard(self, t: float) -> None:
        world, cfg = self.world, self.cfg
        rng = world.rng_sched
        positions = world.positions_at(t)
        ex = float(rng.uniform(0.0, cfg.grid[0]))
        ey = float(cfg.grid[1] / 2.0 + rng.uniform(-10.0, 10.0))
        kind = _KINDS[int(rng.integers(len(_KINDS)))]
        event_id = world.registry.register(True, kind, (ex, ey), t)
        self.emit_line(t, "SPAWN", "-", "-", event_id)

        d = np.hypot(positions[:, 0] - ex, positions[:, 1] - ey)
        candidates = [int(i) for i in np.nonzero((d <= cfg.sensing_radius) & ~world.is_attacker)[0]]
        if len(candidates) > cfg.witness_count:
            picks = rng.choice(len(candidates), size=cfg.witness_count, replace=False)
            witnesses = sorted(candidates[int(i)] for i in picks)
        else:
            witnesses = candidates
        for witness in witnesses:
            delay = float(rng.uniform(0.0, cfg.warning_jitter))
            warning = Warning(witness, event_id, kind, (ex, ey), t + delay)
            self.push(t + delay, _WARNING, warning)

        scale = 60.0 / cfg.event_rate_per_min
        self.push(t + float(rng.exponential(scale)), _HAZARD)

    def handle_attack(self, t: float, attacker: int) -> None:
        world = self.world
        for warning in attacker_emit(world, attacker, t):
            self.emit_warning(warning, t)
        self.push(t + float(world.rng_sched.exponential(1.0 / world.profile.rate)), _ATTACK, attacker)

    # -- warning dissemination ----------------------------------------------

    def emit_warning(self, warning: Warning, now: float) -> None:
        world, cfg = self.world, self.cfg
        sender = warning.sender
        self.counters["warnings_emitted"] += 1
        self.counters["encoded_bytes"] += len(encode_warning(warning))
        self.emit_line(now, "EMIT", sender, "-", warning.event_id)

        positions = world.positions_at(now)
        spos = positions[sender]
        d = np.hypot(positions[:, 0] - spos[0], positions[:, 1] - spos[1])
        in_range = d <= cfg.transmission_range
        in_range[sender] = False
        keep = world.rng_chan.random(world.n) >= cfg.delivery_loss_probability
        receivers = world.rng_chan.permutation(np.nonzero(in_range & keep)[0])
        truth = world.registry.message_truth(warning, cfg.corroboration_tolerance_m)

        for r in receivers:
            idx = int(r)
            if idx in world.known_true and truth and warning.event_id not in world.known_true[idx]:
                world.known_true[idx].append(warning.event_id)
            if self.irs:
                self.deliver_irs(idx, warning, now, float(d[idx]), truth, positions)
            else:
                self.deliver_accept_all(idx, warning, now, float(d[idx]), truth)

    def deliver_accept_all(self, idx: int, warning: Warning, now: float, distance: float, truth: bool) -> None:
        started = time.perf_counter_ns()
        disposition = Disposition.ACCEPT
        latency = time.perf_counter_ns() - started
        self.counters["warning_deliveries"] += 1
        self.record_decision(now, idx, warning, truth, disposition, distance, latency)

    def deliver_irs(
        self,
        idx: int,
        warning: Warning,
        now: float,
        distance: float,
        truth: bool,
        positions: np.ndarray,
    ) -> None:
        world, cfg = self.world, self.cfg
        node = world.nodes[idx]
        node.position = (float(positions[idx][0]), float(positions[idx][1]))
        node.neighbors = self.neighbor_view(idx, now)

        started = time.perf_counter_ns()
        outcome = node.handle_warning(warning, now)
        latency = time.perf_counter_ns() - started

        if outcome.disposition is None:
            return
        self.counters["warning_deliveries"] += 1
        self.record_decision(now, idx, warning, truth, outcome.disposition, distance, latency)
        if outcome.disposition is Disposition.PENDING:
            self.pending_meta[(idx, warning.event_id, warning.sender)] = (truth, distance)
            self.pending_vehicles.add(idx)
        for s_vid, event_id, disposition in outcome.finalized:
            p_truth, p_distance = self.pending_meta.pop((idx, event_id, s_vid))
            self.decisions.record(
                DecisionRecord(now, idx, s_vid, event_id, p_truth, disposition, p_distance)
            )
            self.emit_line(
                now, "RESOLVE", s_vid, idx, event_id,
                _decision_name(disposition), "1" if p_truth else "0", f"{p_distance:.3f}",
            )
        for report in outcome.reports:
            self.route_report(idx, report, now, positions)

    def record_decision(
        self,
        now: float,
        idx: int,
        warning: Warning,
        truth: bool,
        disposition: Disposition,
        distance: float,
        latency: int,
    ) -> None:
        self.decisions.record(
            DecisionRecord(now, idx, warning.sender, warning.event_id, truth, disposition, distance, latency)
        )
        self.emit_line(
            now, "DELIVER", warning.sender, idx, warning.event_id,
            _decision_name(disposition), "1" if truth else "0", f"{distance:.3f}",
        )

    def neighbor_view(self, idx: int, now: float) -> NeighborView:
        """Whom ``idx`` heard within the neighbor TTL, and where each sender was then."""
        world, cfg = self.world, self.cfg
        row = self.last_heard[idx]
        fresh = np.nonzero(row >= now - cfg.neighbor_ttl)[0]
        xs = np.mod(world.x0[fresh] + world.direction[fresh] * world.speed[fresh] * row[fresh], cfg.grid[0])
        return NeighborView(tuple(fresh.tolist()), xs, world.lane_y[fresh])

    def nearest_rsu(self, pos: np.ndarray) -> Optional[RsuNode]:
        """The closest roadside unit within transmission range of ``pos``, if any."""
        best: Optional[RsuNode] = None
        best_d = 0.0
        for rsu in self.world.rsus:
            d = math.hypot(pos[0] - rsu.position[0], pos[1] - rsu.position[1])
            if d <= self.cfg.transmission_range and (best is None or d < best_d):
                best, best_d = rsu, d
        return best

    def route_report(self, reporter: int, report: MisbehaviorReport, now: float, positions: np.ndarray) -> None:
        world, cfg = self.world, self.cfg
        if not world.rsus:
            return
        # Attackers do not cooperate with the misbehavior-reporting scheme.
        if world.is_attacker[reporter]:
            return
        self.counters["encoded_bytes"] += _REPORT_WIRE_BYTES
        rsu = self.nearest_rsu(positions[reporter])
        if rsu is None:
            return
        if world.rng_chan.random() < cfg.delivery_loss_probability:
            return
        rsu.handle_report(report, now)
        self.counters["reports_delivered"] += 1
        self.emit_line(now, "REPORT", reporter, rsu.id, report.event_id)

    # -- pending expiry ------------------------------------------------------

    def expire_for(self, idx: int, now: float, positions: np.ndarray) -> None:
        node = self.world.nodes[idx]
        resolutions, reports = node.expire_pending(now)
        for warning, disposition in resolutions:
            truth, distance = self.pending_meta.pop((idx, warning.event_id, warning.sender))
            self.decisions.record(
                DecisionRecord(now, idx, warning.sender, warning.event_id, truth, disposition, distance)
            )
            self.emit_line(
                now, "EXPIRE", warning.sender, idx, warning.event_id,
                _decision_name(disposition), "1" if truth else "0", f"{distance:.3f}",
            )
        for report in reports:
            self.route_report(idx, report, now, positions)

    def final_expiry(self) -> None:
        """Force-resolve anything still buffered when the run ends."""
        if not self.irs:
            return
        now = self.cfg.duration + self.cfg.pending_ttl + 0.001
        positions = self.world.positions_at(self.cfg.duration)
        for idx in sorted(self.pending_vehicles):
            self.expire_for(idx, now, positions)
        self.pending_vehicles.clear()

    # -- reporting -------------------------------------------------------------

    def build_report(self) -> MetricsReport:
        cfg = self.world.config
        nominal = (
            (self.counters["beacons_emitted"] + self.counters["warnings_emitted"]) * SAFETY_MESSAGE_BYTES
            + (self.counters["rrl_broadcasts"] + self.counters["reports_delivered"]) * NON_SAFETY_MESSAGE_BYTES
        )
        encoded = self.counters["encoded_bytes"] + self.counters["beacons_emitted"] * _BEACON_WIRE_BYTES
        extras = {
            "vehicle_count": self.world.n,
            "benign_count": len(self.world.benign),
            "beacons_emitted": self.counters["beacons_emitted"],
            "warnings_emitted": self.counters["warnings_emitted"],
            "warning_deliveries": self.counters["warning_deliveries"],
            "reports_delivered": self.counters["reports_delivered"],
            "rrl_deliveries": self.counters["rrl_deliveries"],
            "channel_nominal_bytes": nominal,
            "channel_encoded_bytes": encoded,
        }
        info = RunInfo(
            config_hash=cfg.canonical_hash(),
            seed=cfg.seed,
            pipeline=self.world.pipeline,
            benign=self.world.benign,
            range_m=cfg.transmission_range,
            extras=extras,
        )
        return finalize(self.decisions, info)


def _decision_name(d: Disposition) -> str:
    return {Disposition.ACCEPT: "accept", Disposition.REJECT: "reject", Disposition.PENDING: "pending"}[d]


def run(world: SimWorld) -> RunResult:
    """Drive the event queue to the configured duration and report."""
    return _Runner(world).run()

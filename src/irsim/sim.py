"""Deterministic discrete-event highway simulation.

Vehicles follow straight lanes at constant speed on a two-way highway and
wrap around at the ends. The radio is a unit disk with independent
Bernoulli loss per directed link. Beacons keep per-receiver freshness
state; warnings, misbehavior reports, and ledger broadcasts run through
the protocol state machines. Identical (config, seed) pairs produce
bit-identical event logs and metrics.

Two deterministic random streams are used: one for world building and
emission schedules (shared between pipelines so both see the same traffic
and attacks), and one that only the ``Channel`` draws from, for link loss,
arrival order and ranging noise.
"""

from __future__ import annotations

import heapq
import math
import struct
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .metrics import DISPOSITION_NAMES, DecisionLog, DecisionRecord, MetricsReport, RunInfo, finalize
from .protocol import (
    Disposition,
    EventKind,
    Heard,
    MisbehaviorReport,
    ProtocolConfig,
    RrlBroadcast,
    RsuNode,
    VehicleNode,
    Warning,
    WarningOutcome,
    encode_rrl_broadcast,
    encode_warning,
    BEACON_FORMAT,
    NON_SAFETY_MESSAGE_BYTES,
    REPORT_FORMAT,
    SAFETY_MESSAGE_BYTES,
)
from .scenario import PIPELINES, ConfigError, ScenarioConfig

RSU_ID_BASE = 10_000
ANCHOR_ID_BASE = 20_000
_BEACON_WIRE_BYTES = struct.calcsize(BEACON_FORMAT)
_REPORT_WIRE_BYTES = struct.calcsize(REPORT_FORMAT)

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


class Channel:
    """The radio: a unit disk with independent Bernoulli loss per directed link.

    The only user of the channel random stream. Each draw keeps the order and
    shape in which the event loop makes it, so a run stays reproducible:
    loss draws, arrival orders and ranging noise all come from here.
    """

    def __init__(self, range_m: float, loss: float, rng: np.random.Generator, rsus: Sequence[RsuNode] = ()) -> None:
        if range_m <= 0:
            raise ValueError("range must be > 0")
        self.range_m = range_m
        self.loss = loss
        self.rng = rng
        self.rsus = rsus

    def in_range(self, dx, dy, radius: Optional[float] = None):
        """The range predicate: squared distance against the squared radius (default: the range)."""
        return self.in_range_sq(dx, dy * dy, radius)

    def in_range_sq(self, dx, dy_sq, radius: Optional[float] = None, out: Optional[np.ndarray] = None):
        """``in_range`` with the y gap given squared, for a caller that keeps it (lanes never change).

        With ``out`` (a bool array) the result goes there, and ``dx``, then a float array of the result's
        shape, is overwritten with the squared distances. Each element takes the same operations either way.
        """
        limit = (self.range_m if radius is None else radius) ** 2
        if out is None:
            return dx * dx + dy_sq <= limit
        np.multiply(dx, dx, out=dx)
        dx += dy_sq
        return np.less_equal(dx, limit, out=out)

    def kept(self, shape=None, out: Optional[np.ndarray] = None, draws: Optional[np.ndarray] = None):
        """Loss draws: True where a link's transmission survives; one draw per element of ``shape``.

        With ``out`` (a bool array) the result goes there, and the uniforms are drawn into ``draws``, a
        float array of the same shape, in the order a draw of that shape makes them.
        """
        if out is None:
            return self.rng.random(shape) >= self.loss
        return np.greater_equal(self.rng.random(out=draws), self.loss, out=out)

    def hears(self, receivers: np.ndarray, origin, radius: Optional[float] = None) -> np.ndarray:
        """Which receivers hear a transmission from ``origin``: in range and not lost.

        ``receivers`` and ``origin`` hold x, y in their last axis and broadcast
        together; each element of the result gets its own loss draw. Warnings
        and ledger broadcasts use it; the beacon round, whose y gaps never
        change, calls ``in_range_sq`` and ``kept`` itself, with squared gaps it
        computed once and buffers it keeps for the run.
        """
        origin = np.asarray(origin)
        dy = receivers[..., 1] - origin[..., 1]
        within = self.in_range_sq(receivers[..., 0] - origin[..., 0], dy * dy, radius)
        return within & self.kept(within.shape)

    def arrival_order(self, ids) -> np.ndarray:
        """A random permutation of ``ids``: the order in which they are served."""
        return self.rng.permutation(ids)

    def ranging_noise(self, sigma: float, per_m: float) -> Optional[Callable[[float], float]]:
        """Signal-strength ranging error for ``VehicleNode``, or None when both terms are 0."""
        if not (sigma > 0 or per_m > 0):
            return None
        return lambda ranging: float(self.rng.normal(0.0, sigma + per_m * ranging))

    def nearest_rsu(self, pos) -> Optional[RsuNode]:
        """The closest roadside unit within range of ``pos``, if any; a tie goes to the first listed."""
        gaps = [(pos[0] - rsu.position[0], pos[1] - rsu.position[1]) for rsu in self.rsus]
        if not gaps:
            return None
        k = min(range(len(gaps)), key=lambda k: gaps[k][0] * gaps[k][0] + gaps[k][1] * gaps[k][1])
        return self.rsus[k] if self.in_range(*gaps[k]) else None


class SimWorld:
    """Built scenario: mobility arrays, protocol nodes, event registry."""

    def __init__(self, config: ScenarioConfig, pipeline: str = "irs") -> None:
        config.validate()
        if pipeline not in PIPELINES:
            raise ConfigError(f"pipeline must be one of {PIPELINES}, got {pipeline!r}")
        self.config = config
        self.pipeline = pipeline

        seq = np.random.SeedSequence(config.seed)
        sched_seed, chan_seed = seq.spawn(2)
        self.rng_sched = np.random.Generator(np.random.PCG64(sched_seed))

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

        self.protocol_config = ProtocolConfig(
            grid=config.grid,
            pending_ttl=config.pending_ttl,
            suspicion_ttl=config.suspicion_ttl,
            corroboration_tolerance_m=config.corroboration_tolerance_m,
            plausibility_radius_m=config.transmission_range,
            strict_top_heuristic=config.strict_top_heuristic,
            initial_points=config.initial_points,
        )

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

        chan_rng = np.random.Generator(np.random.PCG64(chan_seed))
        self.channel = Channel(config.transmission_range, config.delivery_loss_probability, chan_rng, self.rsus)
        noise = self.channel.ranging_noise(config.ranging_noise_sigma, config.ranging_noise_per_meter)
        self.nodes: list[VehicleNode] = [VehicleNode(i, self.protocol_config, noise) for i in range(n)]

        self.registry = EventRegistry()
        # Per-conflicting-attacker memory of true events they can distort.
        self.known_true: dict[int, list[int]] = {i: [] for i in attacker_ids}
        self.altered: set[int] = set()

    def x_at(self, t: float) -> np.ndarray:
        """Every vehicle's x at time ``t``."""
        return np.mod(self.x0 + self.direction * self.speed * t, self.config.grid[0])

    def positions_at(self, t: float) -> np.ndarray:
        return np.column_stack((self.x_at(t), self.lane_y))


def build_scenario(config: ScenarioConfig, pipeline: str = "irs") -> SimWorld:
    """Validate a config and lay out the world (vehicles, attackers, roadside units)."""
    return SimWorld(config, pipeline)


def attacker_emit(world: SimWorld, attacker: int, now: float) -> list[Warning]:
    """Craft this attacker's warnings for one attack opportunity."""
    rng = world.rng_sched
    cfg = world.config
    pos = world.positions_at(now)[attacker]

    if cfg.attacker_profile == "false-warning":
        # Fabricated hazard close enough to pass the sender-distance check.
        ex = float(np.clip(pos[0] + rng.uniform(-60.0, 60.0), 0.0, cfg.grid[0]))
        ey = float(np.clip(pos[1] + rng.uniform(-3.0, 3.0), 0.0, cfg.grid[1]))
        kind = _KINDS[int(rng.integers(len(_KINDS)))]
        event_id = world.registry.register(False, kind, (ex, ey), now)
        return [Warning(attacker, event_id, kind, (ex, ey), now)]

    if cfg.attacker_profile == "far-event-claim":
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
        interval = self.cfg.beacon_interval[0]
        # heard_round[r, s]: the last round index in which r heard s's beacon, -1 for never.
        # Round ``index`` runs at ``index * interval``, so indices order beacons as their times do.
        self.heard_round = np.full((n, n), -1, dtype=np.int32)
        # Every vehicle's x in the last ``ring`` rounds, round k in row k % ring. The rounds fresh at
        # any time span at most neighbor_ttl / interval + 2, so no fresh round's row is overwritten.
        self.ring = min(int(self.cfg.neighbor_ttl / interval) + 3, int(self.cfg.duration / interval) + 2)
        self.round_x = np.zeros((self.ring, n))
        self.last_round = -1
        # Squared lane gap of each (receiver, sender) pair: vehicles never change lane.
        lane_gap = world.lane_y[:, None] - world.lane_y[None, :]
        self.lane_gap_sq = lane_gap * lane_gap
        # The beacon round's buffers: the range and loss masks, and one that holds the x gaps, then the
        # loss draws, and last, as int32 in its first half, the round stamps.
        self._ok = np.empty((n, n), dtype=bool)
        self._kept = np.empty((n, n), dtype=bool)
        self._gap = np.empty((n, n))
        self._stamp = self._gap.reshape(-1).view(np.int32)[: n * n].reshape(n, n)
        # Each vehicle's oldest_pending, refreshed after every call that can change its buffer.
        self.oldest_pending = np.full(n, np.inf)
        self.next_tx = np.zeros(n)
        self.beacon_iv = (
            world.rng_sched.uniform(self.cfg.beacon_interval[0], self.cfg.beacon_interval[1], n)
            if n
            else np.zeros(0)
        )
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

    @property
    def last_heard(self) -> np.ndarray:
        """The time of each pair's last beacon round, ``index * beacon_interval[0]``; -inf for never (a copy)."""
        return np.where(self.heard_round >= 0, self.heard_round * self.cfg.beacon_interval[0], -np.inf)

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
            if cfg.attacker_rate > 0:
                for attacker in world.attacker_ids:
                    self.push(float(world.rng_sched.exponential(1.0 / cfg.attacker_rate)), _ATTACK, attacker)

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
        x = positions[:, 0]
        self.round_x[index % self.ring] = x
        self.last_round = index

        due = self.next_tx <= t + 1e-9
        n_due = int(due.sum())
        if n_due:
            # ok[r, s]: receiver r heard sender s's beacon this round; one loss draw per pair, as in hears.
            channel, gap, ok = world.channel, self._gap, self._ok
            np.subtract(x[:, None], x[None, :], out=gap)
            channel.in_range_sq(gap, self.lane_gap_sq, out=ok)
            ok &= channel.kept(out=self._kept, draws=gap)
            if n_due < world.n:
                ok &= due
            np.fill_diagonal(ok, False)
            # index where heard, -1 elsewhere; indices only grow, so a max records the round without a branch.
            stamp = np.multiply(ok.view(np.uint8), np.int32(index + 1), out=self._stamp)
            stamp -= 1
            np.maximum(self.heard_round, stamp, out=self.heard_round)
            self.next_tx[due] += self.beacon_iv[due]
            self.counters["beacons_emitted"] += n_due

        # Randomize processing order: report arrival at the roadside unit
        # would otherwise always favor low vehicle ids when crediting the
        # first two reporters of an event.
        # The same test as VehicleNode.pending_due, over all vehicles at once, in id order.
        expiring = np.nonzero(t - self.oldest_pending > cfg.pending_ttl)[0]
        for idx in world.channel.arrival_order(expiring).tolist():
            node = world.nodes[idx]
            outcome = node.expire_pending(t)
            self.oldest_pending[idx] = node.oldest_pending
            self.settle(idx, "EXPIRE", outcome, t, positions)

        req_every = max(1, round(cfg.rrl_request_period / cfg.beacon_interval[0]))
        if world.rsus and index % req_every == 0:
            self.handle_requests(t, positions)

        nxt = (index + 1) * cfg.beacon_interval[0]
        if nxt <= cfg.duration:
            self.push(nxt, _ROUND, index + 1)

    def handle_requests(self, t: float, positions: np.ndarray) -> None:
        """Each vehicle holding no ledger asks its nearest roadside unit for one, in id order.

        A held ledger is never stale (``rrl_is_stale``) here: every roadside
        unit is seeded with every vehicle id and no ledger drops an entry, so
        it lists every neighbor a vehicle can hear.
        """
        channel = self.world.channel
        for idx, node in enumerate(self.world.nodes):
            if node.cached_rrl is not None:
                continue
            self.emit_line(t, "REQ", idx)
            rsu = channel.nearest_rsu(positions[idx])
            # The request and the response each cross the lossy channel.
            if rsu is not None and channel.kept() and channel.kept():
                self.deliver_ledger(t, rsu, idx, RrlBroadcast(rsu.snapshot(), t))

    def deliver_ledger(self, t: float, rsu: RsuNode, idx: int, broadcast: RrlBroadcast) -> None:
        """Hand a ledger to vehicle ``idx``; count and log it only if the vehicle keeps it."""
        if self.world.nodes[idx].handle_rrl_broadcast(broadcast):
            self.counters["rrl_deliveries"] += 1
            self.emit_line(t, "RRL", rsu.id, idx)

    def handle_rsu_tick(self, t: float, index: int) -> None:
        world, cfg = self.world, self.cfg
        positions = world.positions_at(t)
        for rsu in world.rsus:
            broadcast, forwards = rsu.tick(t)
            self.counters["rrl_broadcasts"] += 1
            self.counters["encoded_bytes"] += len(encode_rrl_broadcast(broadcast))
            for idx in np.nonzero(world.channel.hears(positions, rsu.position, rsu.coverage_radius))[0]:
                self.deliver_ledger(t, rsu, int(idx), broadcast)
            for fwd in forwards:
                world.rsus_by_id[fwd.destination].handle_forward(fwd, t)
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
        self.push(t + float(world.rng_sched.exponential(1.0 / self.cfg.attacker_rate)), _ATTACK, attacker)

    # -- warning dissemination ----------------------------------------------

    def emit_warning(self, warning: Warning, now: float) -> None:
        world, cfg = self.world, self.cfg
        sender = warning.sender
        self.counters["warnings_emitted"] += 1
        self.counters["encoded_bytes"] += len(encode_warning(warning))
        self.emit_line(now, "EMIT", sender, "-", warning.event_id)

        positions = world.positions_at(now)
        reached = world.channel.hears(positions, positions[sender])
        reached[sender] = False
        receivers = world.channel.arrival_order(np.nonzero(reached)[0])
        gaps = positions[receivers] - positions[sender]
        # Records keep the distance their log line prints, so a replayed log buckets it alike.
        distances = [float(f"{d:.3f}") for d in np.hypot(gaps[:, 0], gaps[:, 1]).tolist()]
        truth = world.registry.message_truth(warning, cfg.corroboration_tolerance_m)
        facts = self.heard(receivers, warning, now) if self.irs else [None] * len(distances)

        for r, distance, heard in zip(receivers.tolist(), distances, facts):
            if r in world.known_true and truth and warning.event_id not in world.known_true[r]:
                world.known_true[r].append(warning.event_id)
            if self.irs:
                self.deliver_irs(r, warning, now, distance, truth, positions, heard)
            else:
                self.deliver_accept_all(r, warning, now, distance, truth)

    def deliver_accept_all(self, idx: int, warning: Warning, now: float, distance: float, truth: bool) -> None:
        started = time.perf_counter_ns()
        disposition = Disposition.ACCEPT
        latency = time.perf_counter_ns() - started
        self.counters["warning_deliveries"] += 1
        self.record_decision(
            "DELIVER", DecisionRecord(now, idx, warning.sender, warning.event_id, truth, disposition, distance, latency)
        )

    def deliver_irs(
        self,
        idx: int,
        warning: Warning,
        now: float,
        distance: float,
        truth: bool,
        positions: np.ndarray,
        heard: Optional[Heard],
    ) -> None:
        node = self.world.nodes[idx]
        started = time.perf_counter_ns()
        outcome = node.handle_warning(warning, now, heard)
        latency = time.perf_counter_ns() - started
        self.oldest_pending[idx] = node.oldest_pending

        if outcome.disposition is None:
            return
        self.counters["warning_deliveries"] += 1
        self.record_decision(
            "DELIVER",
            DecisionRecord(now, idx, warning.sender, warning.event_id, truth, outcome.disposition, distance, latency),
        )
        self.settle(idx, "RESOLVE", outcome, now, positions)

    def record_decision(self, kind: str, r: DecisionRecord) -> None:
        """Record one decision and write its DELIVER, RESOLVE or EXPIRE line."""
        self.decisions.record(r)
        self.emit_line(
            r.time, kind, r.sender, r.receiver, r.event_id,
            DISPOSITION_NAMES[r.decision], "1" if r.ground_truth else "0", f"{r.distance_m:.3f}",
        )

    def first_fresh_round(self, now: float) -> int:
        """The first round whose beacons are fresh at ``now``: its time is at least ``now - neighbor_ttl``."""
        interval, oldest = self.cfg.beacon_interval[0], now - self.cfg.neighbor_ttl
        k = max(0, math.ceil(oldest / interval))
        # The quotient may round either way; settle k with the products the rounds were pushed at.
        while k > 0 and (k - 1) * interval >= oldest:
            k -= 1
        while k * interval < oldest:
            k += 1
        return k

    def heard(self, receivers: np.ndarray, warning: Warning, now: float) -> list[Optional[Heard]]:
        """Each receiver's beacon facts for ``warning``, in one pass over the receivers that read them.

        None where no beacon of the sender arrived within the neighbor TTL, and where the receiver
        already holds the event: a repeat reads no facts. Past positions come from ``round_x``. A tie for
        the nearest or farthest fresh neighbor goes to the lowest id. np.hypot can differ from math.hypot
        in the last bit, so it only picks the two; the decision measures them again.
        """
        world, sender, event_id = self.world, warning.sender, warning.event_id
        kmin = self.first_fresh_round(now)
        facts: list[Optional[Heard]] = [None] * len(receivers)
        fresh_sender = (self.heard_round[receivers, sender] >= kmin).tolist()
        nodes = world.nodes
        wanted = [
            i for i, (r, ok) in enumerate(zip(receivers.tolist(), fresh_sender))
            if ok and event_id not in nodes[r].pending
        ]
        if not wanted:
            return facts
        assert self.last_round - kmin < self.ring, "a fresh round left the ring"
        # Row k - kmin: every vehicle's x at fresh round k, and its distance to the event there.
        xs = self.round_x[[k % self.ring for k in range(kmin, self.last_round + 1)]]
        ex, ey = warning.event_position
        table = np.hypot(xs - ex, world.lane_y - ey)
        readers = receivers[wanted]
        rounds = self.heard_round[readers]
        fresh = rounds >= kmin
        # Each pair's row; a stale pair reads row 0, and the mask drops it.
        rows = np.maximum(rounds - kmin, 0)
        vehicles = np.arange(world.n)
        spread = np.take(table, rows * world.n + vehicles)
        nearest = np.where(fresh, spread, np.inf).argmin(axis=1)
        farthest = np.where(fresh, spread, -np.inf).argmax(axis=1)
        k = np.arange(len(readers))
        own = zip(world.x_at(now)[readers].tolist(), world.lane_y[readers].tolist())
        near = zip(xs[rows[k, nearest], nearest].tolist(), world.lane_y[nearest].tolist())
        far = zip(xs[rows[k, farthest], farthest].tolist(), world.lane_y[farthest].tolist())
        sender_x = xs[rows[:, sender], sender].tolist()
        sender_y = float(world.lane_y[sender])
        for i, r, x, n, f in zip(wanted, own, sender_x, near, far):
            facts[i] = Heard(r, (x, sender_y), n, f)
        return facts

    def route_report(self, reporter: int, report: MisbehaviorReport, now: float, positions: np.ndarray) -> None:
        world = self.world
        if not world.rsus:
            return
        # Attackers do not cooperate with the misbehavior-reporting scheme.
        if world.is_attacker[reporter]:
            return
        self.counters["encoded_bytes"] += _REPORT_WIRE_BYTES
        rsu = world.channel.nearest_rsu(positions[reporter])
        if rsu is None or not world.channel.kept():
            return
        rsu.handle_report(report, now)
        self.counters["reports_delivered"] += 1
        self.emit_line(now, "REPORT", reporter, rsu.id, report.event_id)

    # -- held warnings -------------------------------------------------------

    def settle(self, idx: int, kind: str, outcome: WarningOutcome, now: float, positions: np.ndarray) -> None:
        """Write the RESOLVE or EXPIRE record of each warning ``outcome`` finalized, then route its reports.

        Truth and distance come from the warning's PENDING record.
        """
        for sender, event_id, disposition in outcome.finalized:
            held = self.decisions.provisional(idx, event_id, sender)
            self.record_decision(
                kind, DecisionRecord(now, idx, sender, event_id, held.ground_truth, disposition, held.distance_m)
            )
        for report in outcome.reports:
            self.route_report(idx, report, now, positions)

    def final_expiry(self) -> None:
        """Force-resolve anything still buffered when the run ends, in vehicle id order."""
        now = self.cfg.duration + self.cfg.pending_ttl + 0.001
        positions = self.world.positions_at(self.cfg.duration)
        for idx, node in enumerate(self.world.nodes):
            self.settle(idx, "EXPIRE", node.expire_pending(now), now, positions)

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


def run(world: SimWorld) -> RunResult:
    """Drive the event queue to the configured duration and report."""
    return _Runner(world).run()

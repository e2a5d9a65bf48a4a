"""Deterministic discrete-event highway simulation.

Vehicles follow straight lanes at constant speed on a two-way highway and
wrap around at the ends. The radio is a unit disk with independent
Bernoulli loss per directed link. Beacon rounds keep recent positions and
who was due to beacon; warnings, misbehavior reports, and ledger
broadcasts run through the protocol state machines. Identical (config,
seed) pairs produce bit-identical event logs and metrics.

Two deterministic random streams are used: one for world building and
emission schedules (shared between pipelines so both see the same traffic
and attacks), and one that the ``Channel`` owns, for link loss, arrival
order and ranging errors, which reach a vehicle with the warning's beacon
facts, so a decision draws nothing. Beacon loss draws from neither:
each beacon link's loss is a keyed hash of (seed, round index, sender,
receiver), so beacon reception is worked out only for the links a warning
reads.
"""

from __future__ import annotations

import gc
import heapq
import math
import struct
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .metrics import DISPOSITION_NAMES, DecisionLog, DecisionRecord, MetricsReport, RunInfo, finalize
from .protocol import (
    Disposition,
    EventKind,
    Heard,
    MisbehaviorReport,
    RrlBroadcast,
    RsuNode,
    VehicleNode,
    Warning,
    WarningOutcome,
    encode_rrl_broadcast,  # noqa: F401  (perfbench/tracing.py patches this name here)
    encode_warning,  # noqa: F401  (perfbench/tracing.py patches this name here)
    BEACON_FORMAT,
    NON_SAFETY_MESSAGE_BYTES,
    REPORT_FORMAT,
    RRL_HEAD_FORMAT,
    RRL_ROW_FORMAT,
    RRL_TAIL_FORMAT,
    SAFETY_MESSAGE_BYTES,
    WARNING_FORMAT,
)
from .scenario import PIPELINES, ConfigError, ScenarioConfig

RSU_ID_BASE = 10_000
ANCHOR_ID_BASE = 20_000
# Wire sizes from the encoders' struct formats; the encoders themselves are not run.
_BEACON_WIRE_BYTES = struct.calcsize(BEACON_FORMAT)
_REPORT_WIRE_BYTES = struct.calcsize(REPORT_FORMAT)
_WARNING_WIRE_BYTES = struct.calcsize(WARNING_FORMAT)
_RRL_FIXED_WIRE_BYTES = struct.calcsize(RRL_HEAD_FORMAT) + struct.calcsize(RRL_TAIL_FORMAT)
_RRL_ROW_WIRE_BYTES = struct.calcsize(RRL_ROW_FORMAT)

_KINDS = (EventKind.CRASH, EventKind.ICE, EventKind.SUDDEN_BRAKE)


@dataclass(frozen=True, slots=True)
class EventInfo:
    truth: bool
    kind: EventKind
    position: tuple[float, float]


class EventRegistry:
    """Ground truth for every event id a warning may reference."""

    def __init__(self) -> None:
        self.events: dict[int, EventInfo] = {}
        self._next_id = 1

    def register(self, truth: bool, kind: EventKind, position: tuple[float, float]) -> int:
        event_id = self._next_id
        self._next_id += 1
        self.events[event_id] = EventInfo(truth, kind, position)
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


# SplitMix64's increment and output multipliers (Steele, Lea & Flood, OOPSLA 2014), and the shifts
# the keyed beacon draw uses, as uint64 so that no operation leaves unsigned 64-bit arithmetic.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT_11, _SHIFT_27, _SHIFT_30, _SHIFT_31, _SHIFT_32 = (np.uint64(b) for b in (11, 27, 30, 31, 32))


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's step and output function on a uint64 array, in place."""
    z += _GAMMA
    z ^= z >> _SHIFT_30
    z *= _MIX1
    z ^= z >> _SHIFT_27
    z *= _MIX2
    z ^= z >> _SHIFT_31
    return z


class Channel:
    """The radio: a unit disk with independent Bernoulli loss per directed link.

    Owns the channel random stream. Each draw keeps the order and shape in
    which the event loop makes it, so a run stays reproducible: loss draws,
    arrival orders and ranging errors all come from here. Beacon loss is the
    exception: ``beacon_uniform`` is a counter-based draw keyed by
    (``beacon_key``, round, sender, receiver), so a link's fate does not depend
    on which other links were evaluated, or when (Salmon et al., SC'11).
    """

    def __init__(
        self, range_m: float, loss: float, rng: np.random.Generator, rsus: Sequence[RsuNode] = (), beacon_key: int = 0
    ) -> None:
        if range_m <= 0:
            raise ValueError("range must be > 0")
        self.range_m = range_m
        self.loss = loss
        self.rng = rng
        self.rsus = rsus
        self.beacon_key = np.uint64(beacon_key)

    def in_range_sq(self, dx, dy_sq, radius: Optional[float] = None):
        """The range predicate: ``dx * dx + dy_sq`` (the y gap comes squared) against the squared radius.

        The radius defaults to the transmission range.
        """
        return dx * dx + dy_sq <= (self.range_m if radius is None else radius) ** 2

    def kept(self, shape=None):
        """Loss draws: True where a link's transmission survives; one draw per element of ``shape``."""
        return self.rng.random(shape) >= self.loss

    def beacon_uniform(self, rounds, senders, receivers) -> np.ndarray:
        """The keyed uniform in [0, 1) of each beacon link (round, sender, receiver); the three broadcast together.

        Two SplitMix64 mixes: one of the key and the round, then one of that and the link, sender in the
        high 32 bits. The top 53 bits make the double, as ``Generator.random`` makes its doubles. The
        result is at least 1-d: numpy scalars would warn on the wrapping arithmetic.
        """
        z = np.array(rounds, dtype=np.uint64, ndmin=1)
        z ^= self.beacon_key
        link = (np.asarray(senders, dtype=np.uint64) << _SHIFT_32) | np.asarray(receivers, dtype=np.uint64)
        return (_mix64(_mix64(z) ^ link) >> _SHIFT_11) * 2.0**-53

    def beacon_kept(self, rounds, senders, receivers) -> np.ndarray:
        """True where a beacon link's transmission survives: its keyed uniform is at least the loss."""
        return self.beacon_uniform(rounds, senders, receivers) >= self.loss

    def hears(self, receivers: np.ndarray, origin, radius: Optional[float] = None) -> np.ndarray:
        """Which receivers hear a transmission from ``origin``: in range and not lost.

        ``receivers`` and ``origin`` hold x, y in their last axis and broadcast
        together; each element of the result gets its own loss draw from the
        stream. Warnings and ledger broadcasts use it; beacons use
        ``beacon_kept`` (see ``_Runner.last_heard_round``).
        """
        origin = np.asarray(origin)
        dy = receivers[..., 1] - origin[..., 1]
        within = self.in_range_sq(receivers[..., 0] - origin[..., 0], dy * dy, radius)
        return within & self.kept(within.shape)

    def arrival_order(self, ids) -> np.ndarray:
        """A random permutation of ``ids``: the order in which they are served."""
        return self.rng.permutation(ids)

    def ranging_errors(self, ranges: np.ndarray, sigma: float, per_m: float) -> np.ndarray:
        """Two ranging errors per element of ``ranges``: column 0 for the plausibility check, 1 for the band.

        Row i takes two unit normals from the stream, scaled by ``sigma + per_m * ranges[i]``, so the error
        grows with the receiver's range to the sender. When both terms are 0 the errors are 0 and
        nothing is drawn.
        """
        if sigma > 0 or per_m > 0:
            return (sigma + per_m * ranges)[:, None] * self.rng.standard_normal((len(ranges), 2))
        return np.zeros((len(ranges), 2))

    def nearest_rsu(self, pos) -> Optional[RsuNode]:
        """The closest roadside unit within range of ``pos``, if any; a tie goes to the first in ``rsus``.

        ``SimWorld`` lists its units sorted by position, x then y, so in a run a tie goes to the unit with
        the lowest position, not to the first in ``rsu_positions``; units at one place keep that order.

        Squared distances are ``dx * dx + dy * dy``, compared with ``r ** 2`` as ``in_range_sq`` does.
        """
        x, y = float(pos[0]), float(pos[1])
        best, best_sq = None, math.inf
        for rsu in self.rsus:
            dx = x - rsu.position[0]
            dy = y - rsu.position[1]
            d_sq = dx * dx + dy * dy
            if d_sq < best_sq:
                best, best_sq = rsu, d_sq
        return best if best_sq <= self.range_m ** 2 else None


class SimWorld:
    """Built scenario: mobility arrays, protocol nodes, event registry."""

    def __init__(self, config: ScenarioConfig, pipeline: str = "irs") -> None:
        config.validate()
        if pipeline not in PIPELINES:
            raise ConfigError(f"pipeline must be one of {PIPELINES}, got {pipeline!r}")
        self.config = config
        self.pipeline = pipeline

        seq = np.random.SeedSequence(config.seed)
        # The first two children are those ``spawn(2)`` gives, so adding the third moved neither stream.
        sched_seed, chan_seed, beacon_seed = seq.spawn(3)
        self.rng_sched = np.random.Generator(np.random.PCG64(sched_seed))

        n = config.vehicle_count
        self.n = n
        width, height = config.grid
        lanes = 2 * config.lanes_per_direction
        lane_gap = 4.0
        lane_index = np.arange(n) % lanes
        offsets = (np.arange(lanes) - (lanes - 1) / 2.0) * lane_gap
        self.lane_y = height / 2.0 + offsets[lane_index]
        self.direction = np.where(lane_index < config.lanes_per_direction, 1.0, -1.0)
        self.x0 = self.rng_sched.uniform(0.0, width, n)
        self.speed = self.rng_sched.uniform(config.speed_range[0], config.speed_range[1], n)
        self.velocity = self.direction * self.speed  # x_at's first product, so positions keep their bits

        attacker_ids = (
            sorted(self.rng_sched.choice(n, size=config.attacker_count, replace=False).tolist())
            if config.attacker_count
            else []
        )
        self.attacker_ids = attacker_ids
        self.is_attacker = np.zeros(n, dtype=bool)
        self.is_attacker[attacker_ids] = True
        self.benign = frozenset(range(n)).difference(attacker_ids)

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
            rsu = RsuNode(RSU_ID_BASE + k, config.rsu_positions[k], config, adjacent=tuple(adjacent))
            # Registered vehicles start at neutral points; anchor entries pin
            # the band geometry to the full scale from the first broadcast.
            # Every unit starts from the same rows, so only the first is
            # seeded and each other unit gets its own copy of that ledger.
            if self.rsus:
                first = self.rsus[0]
                rsu.ledger = first.ledger.copy()
                rsu.misbehavior = dict(first.misbehavior)
            else:
                rsu.seed(range(n), config.initial_points, anchors)
            self.rsus.append(rsu)
        self.rsus_by_id = {rsu.id: rsu for rsu in self.rsus}

        chan_rng = np.random.Generator(np.random.PCG64(chan_seed))
        beacon_key = int(beacon_seed.generate_state(1, np.uint64)[0])
        self.channel = Channel(
            config.transmission_range, config.delivery_loss_probability, chan_rng, self.rsus, beacon_key
        )
        self.nodes: list[VehicleNode] = [VehicleNode(i, config) for i in range(n)]

        self.registry = EventRegistry()
        # Per-conflicting-attacker memory of true events they can distort.
        self.known_true: dict[int, list[int]] = {i: [] for i in attacker_ids}
        self.altered: set[int] = set()

    def x_at(self, t: float, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Every vehicle's x at time ``t``, written to ``out`` when given."""
        return np.mod(self.x0 + self.velocity * t, self.config.grid[0], out=out)

    def positions_at(self, t: float) -> np.ndarray:
        """Every vehicle's (x, y) at time ``t``, one row per vehicle."""
        positions = np.empty((self.n, 2))
        self.x_at(t, out=positions[:, 0])
        positions[:, 1] = self.lane_y
        return positions


def build_scenario(config: ScenarioConfig, pipeline: str = "irs") -> SimWorld:
    """Validate a config and lay out the world (vehicles, attackers, roadside units)."""
    return SimWorld(config, pipeline)


def attacker_emit(world: SimWorld, attacker: int, now: float) -> list[Warning]:
    """Craft this attacker's warnings for one attack opportunity."""
    rng = world.rng_sched
    cfg = world.config
    pos = world.positions_at(now)[attacker]

    if cfg.attacker_profile == "conflicting-info":
        # Re-broadcast a known true event with the kind swapped.
        for event_id in world.known_true[attacker]:
            if event_id in world.altered:
                continue
            info = world.registry.events[event_id]
            wrong_kind = _KINDS[(_KINDS.index(info.kind) + 1) % len(_KINDS)]
            world.altered.add(event_id)
            return [Warning(attacker, event_id, wrong_kind, info.position, now)]
        return []

    # A fabricated hazard: each profile draws its x, then both draw y and the kind.
    if cfg.attacker_profile == "false-warning":
        # Close enough to pass the sender-distance check.
        ex = pos[0] + rng.uniform(-60.0, 60.0)
    else:  # far-event-claim: beyond the transmission range, on the side with more road
        offset = cfg.transmission_range + float(rng.uniform(100.0, 250.0))
        ex = pos[0] + offset if pos[0] < cfg.grid[0] / 2.0 else pos[0] - offset
    ex = float(np.clip(ex, 0.0, cfg.grid[0]))
    ey = float(np.clip(pos[1] + rng.uniform(-3.0, 3.0), 0.0, cfg.grid[1]))
    kind = _KINDS[int(rng.integers(len(_KINDS)))]
    event_id = world.registry.register(False, kind, (ex, ey))
    return [Warning(attacker, event_id, kind, (ex, ey), now)]


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
        # The last time ``head`` formatted, and its text.
        self._head_t, self._head_text = math.nan, ""
        self.decisions = DecisionLog()
        self.heap: list[tuple[float, int, int, object]] = []
        self._seq = 0
        n = world.n
        interval = self.cfg.beacon_interval[0]
        # Every vehicle's x and whether it was due to beacon, in the last ``ring`` rounds: round k in row
        # k % ring. Round ``index`` runs at ``index * interval``. The rounds fresh at any time span at most
        # neighbor_ttl / interval + 2, so no fresh round's row is overwritten. Who heard whom is worked out
        # from these only when a warning asks (``last_heard_round``): 9 bytes per vehicle and round.
        self.ring = min(int(self.cfg.neighbor_ttl / interval) + 3, int(self.cfg.duration / interval) + 2)
        self.round_x = np.zeros((self.ring, n))
        self.round_due = np.zeros((self.ring, n), dtype=bool)
        self.last_round = -1
        # (first_seen, vehicle) of every entry the vehicles hold, in the order they were held. An entry is
        # held at its delivery's time, and events run in time order, so the times never decrease; every
        # entry lives pending_ttl, so the front falls due first. With one timeout for all, appending keeps
        # the timer list sorted (Varghese & Lauck, "Hashed and hierarchical timing wheels", SOSP 1987).
        self.held: deque[tuple[float, int]] = deque()
        self.next_tx = np.zeros(n)
        self.beacon_iv = world.rng_sched.uniform(self.cfg.beacon_interval[0], self.cfg.beacon_interval[1], n)
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

    def head(self, t: float, kind: str) -> str:
        """The time and kind fields of a line, and the tab after them.

        A line has 8 tab-separated fields: time, kind, sender, receiver, event, decision, truth and
        distance, with ``-`` in each field its kind does not use. The lines of one event share one head:
        a warning's DELIVER lines, a publication's RRL lines, a ``settle`` call's RESOLVE or EXPIRE lines.
        The time is formatted once per event time, since the queue pops times in non-decreasing order.
        """
        if t != self._head_t:
            self._head_t, self._head_text = t, f"{t:.6f}"
        return f"{self._head_text}\t{kind}\t"

    def emit_line(self, t: float, kind: str, sender: object = "-", receiver: object = "-", event: object = "-") -> None:
        """Write one line of a kind with no decision, truth or distance."""
        self.log.append(f"{self.head(t, kind)}{sender}\t{receiver}\t{event}\t-\t-\t-")

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
        row = index % self.ring
        world.x_at(t, out=self.round_x[row])
        due = np.less_equal(self.next_tx, t + 1e-9, out=self.round_due[row])
        self.last_round = index
        n_due = int(np.count_nonzero(due))
        if n_due:
            np.add(self.next_tx, self.beacon_iv, out=self.next_tx, where=due)
            self.counters["beacons_emitted"] += n_due

        # Randomize processing order: report arrival at the roadside unit
        # would otherwise always favor low vehicle ids when crediting the
        # first two reporters of an event.
        # A shuffle of no ids draws nothing from the stream, so a round with none skips it. Only a round
        # that ages something out or serves requests needs the (x, y) positions.
        expiring = self.due(t)
        positions = None
        if expiring:
            positions = world.positions_at(t)
            self.expire(world.channel.arrival_order(expiring).tolist(), t, positions)

        req_every = max(1, round(cfg.rrl_request_period / cfg.beacon_interval[0]))
        if world.rsus and index % req_every == 0:
            self.handle_requests(t, world.positions_at(t) if positions is None else positions)

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
                self.deliver_ledger(t, rsu, [idx], rsu.publish(t))

    def deliver_ledger(self, t: float, rsu: RsuNode, ids: list[int], broadcast: RrlBroadcast) -> None:
        """Hand one ledger publication to each vehicle in ``ids``, in order; count and log each that keeps it."""
        nodes, append = self.world.nodes, self.log.append
        head = f"{self.head(t, 'RRL')}{rsu.id}\t"
        kept = 0
        for idx in ids:
            if nodes[idx].handle_rrl_broadcast(broadcast):
                kept += 1
                append(f"{head}{idx}\t-\t-\t-\t-")
        self.counters["rrl_deliveries"] += kept

    def handle_rsu_tick(self, t: float, index: int) -> None:
        world, cfg = self.world, self.cfg
        positions = world.positions_at(t)
        for rsu in world.rsus:
            broadcast, forwards = rsu.tick(t)
            self.counters["rrl_broadcasts"] += 1
            self.counters["encoded_bytes"] += _RRL_FIXED_WIRE_BYTES + _RRL_ROW_WIRE_BYTES * len(broadcast.rrl)
            hearers = np.nonzero(world.channel.hears(positions, rsu.position, cfg.rsu_coverage_radius))[0]
            self.deliver_ledger(t, rsu, hearers.tolist(), broadcast)
            for fwd in forwards:
                world.rsus_by_id[fwd.destination].handle_forward(fwd)
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
        event_id = world.registry.register(True, kind, (ex, ey))
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
        self.counters["encoded_bytes"] += _WARNING_WIRE_BYTES
        self.emit_line(now, "EMIT", sender, "-", warning.event_id)

        positions = world.positions_at(now)
        reached = world.channel.hears(positions, positions[sender])
        reached[sender] = False
        receivers = world.channel.arrival_order(np.nonzero(reached)[0])
        gaps = positions[receivers] - positions[sender]
        # Each range as its log line prints it; records keep float(text), so a replayed log buckets alike.
        texts = [f"{d:.3f}" for d in np.hypot(gaps[:, 0], gaps[:, 1]).tolist()]
        truth = world.registry.message_truth(warning, cfg.corroboration_tolerance_m)
        facts = self.heard(receivers, warning, now, positions) if self.irs else [None] * len(texts)
        receivers = receivers.tolist()
        if truth:
            for r in receivers:
                if r in world.known_true and warning.event_id not in world.known_true[r]:
                    world.known_true[r].append(warning.event_id)
        self.deliver(warning, now, truth, receivers, texts, facts, positions)

    def deliver(
        self,
        warning: Warning,
        now: float,
        truth: bool,
        receivers: Sequence[int],
        texts: Sequence[str],
        facts: Sequence[Optional[Heard]],
        positions: np.ndarray,
    ) -> None:
        """Hand ``warning`` to each receiver in order: decide, record, and write the DELIVER line.

        ``texts`` are the ranges as the lines print them, ``facts`` each receiver's beacon facts (irs),
        and ``positions`` every vehicle's at ``now``. The timed window holds only the decision itself:
        ``VehicleNode.handle_warning`` (irs) or the constant accept (accept-all). A decision that
        finalized or reported something is settled right after its own line. A decision that held the
        warning (the receiver's buffer grew, by one entry at most) queues it in ``held`` at ``now``. Each
        record is built without ``DecisionRecord``'s Python-level ``__new__``, after the same distance
        check.
        """
        nodes, irs, held = self.world.nodes, self.irs, self.held
        record, append, clock = self.decisions.record, self.log.append, time.perf_counter_ns
        new = tuple.__new__
        sender, event_id = warning.sender, warning.event_id
        # Each line is head, receiver, middle, decision, tail, distance.
        head = f"{self.head(now, 'DELIVER')}{sender}\t"
        middle, tail = f"\t{event_id}\t", "\t1\t" if truth else "\t0\t"
        delivered = 0
        for r, text, heard in zip(receivers, texts, facts):
            if irs:
                node = nodes[r]
                size = len(node.pending)
                started = clock()
                outcome = node.handle_warning(warning, now, heard)
                latency = clock() - started
                if len(node.pending) > size:
                    held.append((now, r))
                disposition = outcome.disposition
                if disposition is None:
                    continue
            else:
                started = clock()
                disposition = Disposition.ACCEPT
                latency = clock() - started
            delivered += 1
            distance = float(text)
            if distance < 0:
                raise ValueError("distance must be >= 0")
            record(new(DecisionRecord, (now, r, sender, event_id, truth, disposition, distance, latency)))
            append(f"{head}{r}{middle}{DISPOSITION_NAMES[disposition]}{tail}{text}")
            if irs and (outcome.finalized or outcome.reports):
                self.settle(r, "RESOLVE", outcome, now, positions)
        self.counters["warning_deliveries"] += delivered

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

    def last_heard_round(self, receivers: np.ndarray, senders: np.ndarray, kmin: int) -> np.ndarray:
        """The last round in ``kmin .. last_round`` in which each receiver heard its sender's beacon; -1 for none.

        ``receivers`` and ``senders`` are equal-length arrays of vehicle ids, one link per element.
        Receiver r hears sender s in round k when s was due to beacon, r is not s, the two were in range
        at round k's positions (``Channel.in_range_sq``), and the link's keyed loss draw kept it
        (``Channel.beacon_kept``). Only the links asked for are worked out, for the rounds asked for.
        """
        last = self.last_round
        assert last - kmin < self.ring, "a fresh round left the ring"
        if kmin > last:
            return np.full(len(receivers), -1)
        rounds = np.arange(kmin, last + 1)
        rows = rounds % self.ring
        channel, lane_y = self.world.channel, self.world.lane_y
        x = self.round_x.take(rows, axis=0)
        dy = lane_y[receivers] - lane_y[senders]
        # heard[k, link]: round kmin + k in the first axis.
        heard = channel.in_range_sq(x[:, receivers] - x[:, senders], dy * dy)
        heard &= self.round_due.take(rows, axis=0)[:, senders]
        heard &= receivers != senders
        k, link = np.nonzero(heard)
        heard[k, link] = channel.beacon_kept(rounds[k], senders[link], receivers[link])
        return np.where(heard, rounds[:, None], -1).max(axis=0)

    def heard(
        self, receivers: np.ndarray, warning: Warning, now: float, positions: np.ndarray
    ) -> list[Optional[Heard]]:
        """Each receiver's beacon facts for ``warning``, in one pass over the receivers that read them.

        None where no beacon of the sender arrived within the neighbor TTL, and where the receiver
        already holds the event: a repeat reads no facts, so its beacons are not worked out.
        ``positions`` are every vehicle's at ``now`` (``SimWorld.positions_at``); past positions come
        from ``round_x``. The facts' ranging errors are one ``Channel.ranging_errors`` draw, a row per
        fact in arrival order, scaled by the range from each receiver now to the sender's last beacon
        position; a warning with no fact draws nothing. Every fact shares one ``extremes``:
        ``_Runner.extremes`` with the event, the first fresh round and this round bound, which the
        decision calls with its own id. So only a decision that bands the sender pays for the neighbor
        lookup, and no reader pays to bind it.
        """
        world, sender, event_id = self.world, warning.sender, warning.event_id
        facts: list[Optional[Heard]] = [None] * len(receivers)
        nodes = world.nodes
        wanted = [i for i, r in enumerate(receivers.tolist()) if event_id not in nodes[r].pending]
        if not wanted:
            return facts
        kmin = self.first_fresh_round(now)
        askers = receivers[wanted]
        rounds = self.last_heard_round(askers, np.full(len(askers), sender), kmin)
        fresh = np.nonzero(rounds >= kmin)[0]
        own = positions[askers[fresh]]
        sender_x = self.round_x[rounds[fresh] % self.ring, sender]
        sender_y = float(world.lane_y[sender])
        ranges = np.hypot(own[:, 0] - sender_x, own[:, 1] - sender_y)
        errors = world.channel.ranging_errors(ranges, self.cfg.ranging_noise_sigma, self.cfg.ranging_noise_per_meter)
        extremes = partial(self.extremes, event=warning.event_position, kmin=kmin, last_round=self.last_round)
        new = tuple.__new__  # builds each Heard without the NamedTuple's Python-level __new__
        for i, x, pair in zip(fresh.tolist(), sender_x.tolist(), errors.tolist()):
            facts[wanted[i]] = new(Heard, ((x, sender_y), pair, extremes))
        return facts

    def extremes(
        self, receiver: int, event: tuple[float, float], kmin: int, last_round: int
    ) -> tuple[tuple[float, float], tuple[float, float]]:
        """Where ``receiver``'s fresh neighbors nearest to and farthest from ``event`` were at their last beacons.

        Fresh neighbors are those heard in round ``kmin`` or later. The lookup reads the rounds as round
        ``last_round`` left the ring, so it fails once a later round has run. ``heard`` binds all but
        ``receiver`` once per warning. A tie goes to the lowest id.
        np.hypot can differ from math.hypot in the last bit, so it only picks the two; the decision
        measures them again.
        """
        if self.last_round != last_round:
            raise RuntimeError(f"beacon facts of round {last_round} read after round {self.last_round}")
        lane_y = self.world.lane_y
        vehicles = np.arange(len(lane_y))
        rounds = self.last_heard_round(np.full(len(vehicles), receiver), vehicles, kmin)
        # Each neighbor's x at its last beacon; an unheard one reads some row, and the mask drops it.
        x = self.round_x[rounds % self.ring, vehicles]
        spread = np.hypot(x - event[0], lane_y - event[1])
        fresh = rounds >= kmin
        nearest = int(np.where(fresh, spread, np.inf).argmin())
        farthest = int(np.where(fresh, spread, -np.inf).argmax())
        return (float(x[nearest]), float(lane_y[nearest])), (float(x[farthest]), float(lane_y[farthest]))

    def route_report(self, reporter: int, report: MisbehaviorReport, now: float, positions: np.ndarray) -> None:
        world = self.world
        if not world.rsus:
            return
        # Attackers do not cooperate with the misbehavior-reporting scheme.
        if reporter not in world.benign:
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

        Truth and distance come from the warning's PENDING record, which passed ``DecisionRecord``'s
        check, so the final record is built from them without running it again.
        """
        head = self.head(now, kind)
        decisions, new = self.decisions, tuple.__new__
        for sender, event_id, disposition in outcome.finalized:
            held = decisions.provisional(idx, event_id, sender)
            truth, distance = held[4], held[6]  # ground_truth, distance_m
            decisions.record(new(DecisionRecord, (now, idx, sender, event_id, truth, disposition, distance, None)))
            self.log.append(
                f"{head}{sender}\t{idx}\t{event_id}\t{DISPOSITION_NAMES[disposition]}"
                f"\t{'1' if truth else '0'}\t{distance:.3f}"
            )
        for report in outcome.reports:
            self.route_report(idx, report, now, positions)

    def due(self, t: float) -> list[int]:
        """The vehicles holding an entry past the pending TTL at ``t``, in id order.

        Pops those entries from the front of ``held``: the same test as ``VehicleNode.expire_pending``,
        and float subtraction is monotone, so the entries past the TTL are a prefix of the queue.
        """
        held, ttl = self.held, self.cfg.pending_ttl
        vehicles = set()
        while held and t - held[0][0] > ttl:
            vehicles.add(held.popleft()[1])
        return sorted(vehicles)

    def expire(self, ids: Sequence[int], t: float, positions: np.ndarray) -> None:
        """Each vehicle in ``ids``, in order, ages its buffer out at ``t``; settle what that finalizes."""
        nodes = self.world.nodes
        for idx in ids:
            outcome = nodes[idx].expire_pending(t)
            if outcome.finalized:
                self.settle(idx, "EXPIRE", outcome, t, positions)

    def final_expiry(self) -> None:
        """Force-resolve anything still buffered when the run ends, in vehicle id order.

        Every entry was held by ``duration``, and ``duration + pending_ttl`` is kept where 0.001 s still
        tells (``MAX_TIME_S``), so this pops all of ``held``.
        """
        now = self.cfg.duration + self.cfg.pending_ttl + 0.001
        self.expire(self.due(now), now, self.world.positions_at(self.cfg.duration))

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
    """Drive the event queue to the configured duration and report.

    The objects alive when the run starts are frozen for its length (``gc.freeze``), so a full
    collection inside it walks only the run's own objects, not the caller's heap. A caller that
    froze objects itself keeps them frozen, and the run freezes nothing more.
    """
    if gc.get_freeze_count():
        return _Runner(world).run()
    gc.freeze()
    try:
        return _Runner(world).run()
    finally:
        gc.unfreeze()

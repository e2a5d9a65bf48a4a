"""Vehicle-side and roadside-unit state machines for safety-message trust.

A vehicle runs every incoming warning through a fixed pipeline:
corroboration against warnings it is already holding, conflict detection,
sender-distance plausibility, then a banded trust decision combining its
own ledger with the roadside unit's published one. Lone suspicious
warnings are buffered and expire to a rejection if nobody corroborates
them. What the vehicle's beacons say about a warning's sender arrives with
the warning as a ``Heard``: where the sender was when last heard, the
vehicle's own position, and the nearest and farthest fresh neighbors to the
event. The roadside unit pairs misbehavior reports from distinct reporters
before it dings anyone, and periodically broadcasts its ledger.

Nodes are single-owner state machines: all mutation happens through the
handler methods, which the caller must invoke sequentially per node.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Callable, Iterable, NamedTuple, Optional

from .reputation import (
    HeuristicBand,
    LocalReputationList,
    ReputationRecord,
    RsuReputationList,
    RrlStanding,
    TrustBands,
    TrustDecision,
    TrustLevel,
    VehicleId,
    apply_point_delta,
    classify_heuristic,
    classify_trust,
    compute_heuristic_bands,
    compute_trust_bands,  # noqa: F401  (perfbench/tracing.py patches this binding)
    decide_trust,
    heuristic_from_distance,
    standing_of,
)

EventId = int
RsuId = int

Position = tuple[float, float]


class EventKind(Enum):
    CRASH = "crash"
    ICE = "ice"
    SUDDEN_BRAKE = "sudden-brake"


class Disposition(IntEnum):
    """Final or provisional fate of a received warning."""

    REJECT = 0
    PENDING = 1
    ACCEPT = 2


@dataclass(frozen=True, slots=True)
class Beacon:
    sender: VehicleId
    position: Position
    speed: float
    heading: tuple[float, float]
    timestamp: float


@dataclass(frozen=True, slots=True)
class Warning:
    sender: VehicleId
    event_id: EventId
    event_kind: EventKind
    event_position: Position
    timestamp: float


@dataclass(frozen=True, slots=True)
class MisbehaviorReport:
    reporter: VehicleId
    accused: VehicleId
    event_id: EventId
    timestamp: float
    signature_valid: bool = True

    def __post_init__(self) -> None:
        if self.reporter == self.accused:
            raise ValueError("reporter and accused must differ")


@dataclass(frozen=True, slots=True)
class RrlBroadcast:
    """One publication of a roadside unit's ledger; receivers share ``rrl``."""

    rrl: RsuReputationList
    timestamp: float
    signature_valid: bool = True


@dataclass(frozen=True, slots=True)
class RsuForward:
    """Misbehaving-vehicle digest pushed to an adjacent roadside unit."""

    origin: RsuId
    destination: RsuId
    entries: tuple[tuple[VehicleId, int, int], ...]
    timestamp: float


class PendingState(Enum):
    AWAITING = "awaiting"
    RESOLVED = "resolved"


@dataclass
class PendingWarning:
    """Per-event memory of received warnings, held in ``VehicleNode.pending``.

    The buffer is the only place a held warning lives. An AWAITING entry is
    a lone suspicious warning whose one corroborator is its sender: a
    consistent copy from another sender resolves it to ACCEPT, and
    ``expire_pending`` past the TTL resolves it to REJECT with a
    misbehavior report. A RESOLVED entry keeps a decided warning as the
    reference that later copies are credited or contradicted against.
    Entries of either state leave in the first ``expire_pending`` call past
    the TTL.
    """

    warning: Warning
    first_seen: float
    corroborators: set[VehicleId]
    state: PendingState


class Heard(NamedTuple):
    """What a receiver's beacon rounds say about one warning, as (x, y) positions.

    ``receiver`` is where it is now; ``sender``, ``nearest`` and ``farthest`` are where the sender
    and the fresh neighbors nearest to and farthest from the event were at their last beacons.
    """

    receiver: Position
    sender: Position
    nearest: Position
    farthest: Position


@dataclass
class ProtocolConfig:
    """Timing and geometry knobs shared by vehicles and roadside units."""

    grid: tuple[float, float] = (1000.0, 1000.0)
    pending_ttl: float = 2.0
    suspicion_ttl: float = 30.0
    corroboration_tolerance_m: float = 20.0
    plausibility_radius_m: float = 300.0
    strict_top_heuristic: bool = False
    initial_points: int = 5


@dataclass
class WarningOutcome:
    """Result of one warning delivery or one pass over the pending buffer.

    ``disposition`` is None when the message was a duplicate and ignored,
    and for a pass over the buffer. ``finalized`` lists earlier pending
    messages this call resolved, as (sender, event_id, disposition) tuples.
    """

    disposition: Optional[Disposition]
    reports: list[MisbehaviorReport] = field(default_factory=list)
    finalized: list[tuple[VehicleId, EventId, Disposition]] = field(default_factory=list)


def _distance(a: Position, b: Position) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def _neutral_points(bands: Optional[TrustBands], initial_points: int) -> int:
    """Entry points for a vehicle a ledger has no history with: the middle of its range."""
    if bands is None:
        return initial_points
    return (bands.min_points + bands.max_points) // 2


class VehicleNode:
    """On-board trust state: local ledger, cached network ledger, pending buffer.

    ``distance_noise`` models signal-strength ranging error: called with the
    receiver's range to the sender in meters, it returns an additive offset.
    Ranging error grows with range, so the offset distribution may depend on
    the input.
    """

    def __init__(
        self,
        vehicle_id: VehicleId,
        config: ProtocolConfig,
        distance_noise: Optional[Callable[[float], float]] = None,
    ) -> None:
        self.id = vehicle_id
        self.config = config
        self.lrl = LocalReputationList()
        self.cached_rrl: Optional[RsuReputationList] = None
        self.pending: dict[EventId, PendingWarning] = {}
        # Earliest first_seen in ``pending`` (inf when empty); entries enter through _hold.
        # Read-only outside this class: the simulator mirrors it to find vehicles due to expire.
        self.oldest_pending = math.inf
        self._distance_noise = distance_noise

    # -- warnings ---------------------------------------------------------

    def handle_warning(self, warning: Warning, now: float, heard: Optional[Heard] = None) -> WarningOutcome:
        """Run the full message-trust pipeline for one incoming warning.

        ``heard`` is None when no beacon of the sender arrived within the neighbor TTL. The simulator
        builds it from the index of the last beacon round in which this vehicle heard each neighbor and
        from a ring of every vehicle's x over the recent rounds. It also passes None when this vehicle
        already holds the event: that copy takes the repeat path, which reads no beacon facts.
        """
        if warning.sender == self.id:
            return WarningOutcome(None)
        if not self._position_ok(warning.event_position):
            return WarningOutcome(Disposition.REJECT)

        entry = self.pending.get(warning.event_id)
        if entry is not None:
            return self._handle_repeat(entry, warning, now)

        report = self._implausibly_far(warning, now, heard)
        if report is not None:
            return WarningOutcome(Disposition.REJECT, [report])

        return self._handle_lone(warning, now, heard)

    def _handle_repeat(self, entry: PendingWarning, warning: Warning, now: float) -> WarningOutcome:
        sender = warning.sender
        if sender in entry.corroborators:
            # Re-broadcast by a vehicle already counted for this event.
            return WarningOutcome(None)
        if self._consistent(entry.warning, warning):
            finalized: list[tuple[VehicleId, EventId, Disposition]] = []
            if entry.state is PendingState.AWAITING:
                # Second opinion arrived: the event is corroborated. Credit
                # everyone who vouched for it, including the new sender.
                for vid in entry.corroborators:
                    self._adjust(vid, +1, now)
                entry.state = PendingState.RESOLVED
                finalized.append((entry.warning.sender, warning.event_id, Disposition.ACCEPT))
            self._adjust(sender, +1, now)
            entry.corroborators.add(sender)
            return WarningOutcome(Disposition.ACCEPT, [], finalized)
        # Same event, different story: penalize the newcomer.
        self._adjust(sender, -1, now)
        return WarningOutcome(Disposition.REJECT)

    def _implausibly_far(self, warning: Warning, now: float, heard: Optional[Heard]) -> Optional[MisbehaviorReport]:
        if heard is None:
            return None
        ranging = _distance(heard.receiver, heard.sender)
        est = self._estimate_distance(_distance(heard.sender, warning.event_position), ranging)
        if est > self.config.plausibility_radius_m:
            self._adjust(warning.sender, -1, now)
            return MisbehaviorReport(self.id, warning.sender, warning.event_id, now)
        return None

    def _handle_lone(self, warning: Warning, now: float, heard: Optional[Heard]) -> WarningOutcome:
        sender = warning.sender
        rec = self.lrl.ensure(sender, self._default_points(), now)

        if heard is None:
            # Never heard a beacon from this sender: assume the worst.
            level = TrustLevel.LOW
            h_band = HeuristicBand.AWAY
        else:
            level = classify_trust(rec.points, self.lrl.trust_bands())
            h_band = self._sender_heuristic_band(heard, warning.event_position)

        if level is TrustLevel.TOP and self._heuristic_acceptable(h_band):
            self._remember(warning, now)
            return WarningOutcome(Disposition.ACCEPT)

        decision = decide_trust(level, standing_of(self.cached_rrl, sender))
        if decision is TrustDecision.ACCEPT:
            self._remember(warning, now)
            return WarningOutcome(Disposition.ACCEPT)
        if decision is TrustDecision.REJECT:
            self._adjust(sender, -1, now)
            self._remember(warning, now)
            report = MisbehaviorReport(self.id, sender, warning.event_id, now)
            return WarningOutcome(Disposition.REJECT, [report])
        # Unsure: hold the message and wait for somebody else to confirm it.
        self._hold(PendingWarning(warning, now, {sender}, PendingState.AWAITING))
        return WarningOutcome(Disposition.PENDING)

    def _sender_heuristic_band(self, heard: Heard, event_pos: Position) -> HeuristicBand:
        # The band width depends only on the nearest and farthest neighbor.
        extremes = (heard.nearest, heard.farthest)
        h_bands = compute_heuristic_bands([heuristic_from_distance(_distance(p, event_pos)) for p in extremes])
        est = self._estimate_distance(_distance(heard.sender, event_pos), _distance(heard.receiver, heard.sender))
        return classify_heuristic(heuristic_from_distance(est), h_bands)

    def _heuristic_acceptable(self, band: HeuristicBand) -> bool:
        if self.config.strict_top_heuristic:
            return band is HeuristicBand.NEAR
        return band in (HeuristicBand.NEAR, HeuristicBand.MIDDLE)

    def _consistent(self, reference: Warning, candidate: Warning) -> bool:
        if reference.event_kind is not candidate.event_kind:
            return False
        gap = _distance(reference.event_position, candidate.event_position)
        return gap <= self.config.corroboration_tolerance_m

    def _remember(self, warning: Warning, now: float) -> None:
        # Keep decided warnings around (until the buffer ages out) so later
        # copies can corroborate and conflicting ones can be caught.
        self._hold(PendingWarning(warning, now, {warning.sender}, PendingState.RESOLVED))

    def _hold(self, entry: PendingWarning) -> None:
        self.pending[entry.warning.event_id] = entry
        self.oldest_pending = min(self.oldest_pending, entry.first_seen)

    # -- pending buffer ----------------------------------------------------

    def pending_due(self, now: float) -> bool:
        """True when some buffered entry is past the TTL at ``now``, so ``expire_pending`` has work."""
        # Float subtraction is monotone, so no entry is past the TTL when the oldest is not.
        return now - self.oldest_pending > self.config.pending_ttl

    def expire_pending(self, now: float) -> WarningOutcome:
        """Age out the pending buffer.

        Lone warnings past the TTL resolve to a rejection: the sender loses a
        point, one misbehavior report is emitted, and the warning is listed in
        ``finalized``. Entries that were already resolved just drop out
        without penalty.
        """
        outcome = WarningOutcome(None)
        if not self.pending_due(now):
            return outcome
        ttl = self.config.pending_ttl
        for event_id in [e for e, p in self.pending.items() if now - p.first_seen > ttl]:
            entry = self.pending.pop(event_id)
            if entry.state is PendingState.AWAITING:
                sender = entry.warning.sender
                self._adjust(sender, -1, now)
                outcome.reports.append(MisbehaviorReport(self.id, sender, event_id, now))
                outcome.finalized.append((sender, event_id, Disposition.REJECT))
        self.oldest_pending = min((p.first_seen for p in self.pending.values()), default=math.inf)
        return outcome

    # -- network ledger ----------------------------------------------------

    def handle_rrl_broadcast(self, broadcast: RrlBroadcast) -> bool:
        """Keep a newer ledger snapshot (shared, not copied); seed an empty local ledger from it."""
        rrl = broadcast.rrl
        if not broadcast.signature_valid:
            return False
        if self.cached_rrl is not None and rrl.version <= self.cached_rrl.version:
            return False
        self.cached_rrl = rrl
        if len(self.lrl) == 0:
            self.lrl.load(rrl.local_seed(broadcast.timestamp), owner=self.id)
        return True

    # -- internals ---------------------------------------------------------

    def _adjust(self, vehicle: VehicleId, delta: int, now: float) -> None:
        self.lrl.adjust(vehicle, delta, now, self._default_points())

    def _default_points(self) -> int:
        """Neutral entry points for a sender we have no history with."""
        return _neutral_points(self.lrl.trust_bands(), self.config.initial_points)

    def _estimate_distance(self, true_distance: float, ranging: float) -> float:
        """Signal-strength estimate of a sender-derived distance.

        The ranging error scales with ``ranging``, how far away the measured sender is.
        """
        if self._distance_noise is None:
            return true_distance
        return max(0.0, true_distance + self._distance_noise(ranging))

    def _position_ok(self, pos: Position) -> bool:
        x, y = pos
        if not (math.isfinite(x) and math.isfinite(y)):
            return False
        w, h = self.config.grid
        return 0.0 <= x <= w and 0.0 <= y <= h


@dataclass
class SuspicionEntry:
    first_seen: float
    reporter: VehicleId
    event_id: EventId


class RsuNode:
    """Roadside unit: network ledger, suspicion pairing, periodic publication.

    A single report only marks both parties suspicious. Misbehavior points
    move only once a second, distinct, non-flagged reporter confirms the
    same event; the matter is then settled and later reports about it are
    dropped.
    """

    def __init__(
        self,
        rsu_id: RsuId,
        position: Position,
        coverage_radius: float,
        config: ProtocolConfig,
        adjacent: tuple[RsuId, ...] = (),
    ) -> None:
        self.id = rsu_id
        self.position = position
        self.coverage_radius = coverage_radius
        self.config = config
        self.adjacent = adjacent
        self.entries: dict[VehicleId, ReputationRecord] = {}
        self.version = 0
        self.suspicion: dict[VehicleId, SuspicionEntry] = {}
        self._settled: dict[tuple[VehicleId, EventId], float] = {}
        self._snapshot: Optional[RsuReputationList] = None

    def seed(
        self,
        vehicles: list[VehicleId],
        points: int,
        anchors: Iterable[tuple[VehicleId, int, int]] = (),
        now: float = 0.0,
    ) -> None:
        """Pre-populate the ledger with registered vehicles at neutral points.

        ``anchors`` are ledger-only entries (trusted infrastructure agents,
        previously confirmed misbehavers) that pin the band geometry to the
        full reputation scale; they never appear on the road.
        """
        for vid in vehicles:
            self.entries[vid] = ReputationRecord(vid, points, 0, now)
        for vid, pts, misbehavior in anchors:
            self.entries[vid] = ReputationRecord(vid, pts, misbehavior, now)
        self._snapshot = None

    def handle_report(self, report: MisbehaviorReport, now: float) -> bool:
        """Process one misbehavior report; returns True when state changed."""
        if not report.signature_valid:
            return False
        if standing_of(self.snapshot(), report.reporter) is RrlStanding.FLAGGED:
            return False
        if (report.accused, report.event_id) in self._settled:
            return False

        accused_entry = self.suspicion.get(report.accused)
        if report.accused not in self.suspicion and report.reporter not in self.suspicion:
            entry = SuspicionEntry(now, report.reporter, report.event_id)
            self.suspicion[report.accused] = entry
            self.suspicion[report.reporter] = entry
            return True
        if (
            accused_entry is not None
            and accused_entry.event_id == report.event_id
            and accused_entry.reporter != report.reporter
        ):
            self._escalate(report, accused_entry, now)
            return True
        return False

    def _escalate(self, report: MisbehaviorReport, entry: SuspicionEntry, now: float) -> None:
        accused = report.accused
        rec = self._ensure(accused, now)
        self._put(apply_point_delta(
            ReputationRecord(accused, rec.points, rec.misbehavior_points + 1, rec.last_update),
            -1,
            now=now,
        ))
        for reporter in (entry.reporter, report.reporter):
            self._bump(reporter, +1, now)
        # Both reporters are vindicated; the accusation is adjudicated.
        self.suspicion.pop(accused, None)
        first = self.suspicion.get(entry.reporter)
        if first is not None and first.event_id == report.event_id:
            del self.suspicion[entry.reporter]
        self._settled[(accused, report.event_id)] = now

    def tick(self, now: float) -> tuple[RrlBroadcast, list[RsuForward]]:
        """Publish the ledger and forward the misbehaving subset downstream.

        Also drops suspicion entries and settled markers past their TTL.
        """
        ttl = self.config.suspicion_ttl
        for vid in [v for v, e in self.suspicion.items() if now - e.first_seen > ttl]:
            del self.suspicion[vid]
        for key in [k for k, t in self._settled.items() if now - t > ttl]:
            del self._settled[key]

        self.version += 1
        snapshot = self.snapshot()
        broadcast = RrlBroadcast(snapshot, now)
        misbehaving = tuple(e for e in _ledger_rows(snapshot) if e[2] > 0)
        forwards = [
            RsuForward(self.id, neighbor, misbehaving, now)
            for neighbor in self.adjacent
            if misbehaving
        ]
        return broadcast, forwards

    def handle_forward(self, forward: RsuForward, now: float) -> None:
        """Merge a neighbor unit's misbehaving digest into the local ledger.

        Unknown vehicles are inserted as-is; known ones keep the worse view
        (lower points, higher misbehavior count).
        """
        for vid, points, misbehavior in forward.entries:
            rec = self.entries.get(vid)
            if rec is None:
                self._put(ReputationRecord(vid, points, misbehavior, now))
            else:
                self._put(ReputationRecord(
                    vid,
                    min(rec.points, points),
                    max(rec.misbehavior_points, misbehavior),
                    now,
                ))

    def snapshot(self) -> RsuReputationList:
        """The ledger as published, in vehicle order.

        One object per ledger state: it is rebuilt only after an entry or
        the version changes, so every receiver of a publication shares it.
        """
        if self._snapshot is None or self._snapshot.version != self.version:
            self._snapshot = RsuReputationList(dict(sorted(self.entries.items())), self.version, self.id)
        return self._snapshot

    def _put(self, record: ReputationRecord) -> None:
        self.entries[record.vehicle] = record
        self._snapshot = None

    def _ensure(self, vehicle: VehicleId, now: float) -> ReputationRecord:
        rec = self.entries.get(vehicle)
        if rec is None:
            default = _neutral_points(self.snapshot().trust_bands(), self.config.initial_points)
            rec = ReputationRecord(vehicle, default, 0, now)
            self._put(rec)
        return rec

    def _bump(self, vehicle: VehicleId, delta: int, now: float) -> None:
        self._put(apply_point_delta(self._ensure(vehicle, now), delta, now=now))


# -- wire format -----------------------------------------------------------
#
# Canonical flat serialization: fields in declaration order, little-endian
# integers, meters and seconds as 64-bit floats. Used for channel-occupancy
# accounting; the nominal air sizes follow the configured message classes.

SAFETY_MESSAGE_BYTES = 100
NON_SAFETY_MESSAGE_BYTES = 512

_KIND_CODES = {EventKind.CRASH: 0, EventKind.ICE: 1, EventKind.SUDDEN_BRAKE: 2}

BEACON_FORMAT = "<Qdddddd"
REPORT_FORMAT = "<QQQdB"


def encode_beacon(b: Beacon) -> bytes:
    return struct.pack(
        BEACON_FORMAT,
        b.sender,
        b.position[0],
        b.position[1],
        b.speed,
        b.heading[0],
        b.heading[1],
        b.timestamp,
    )


def encode_warning(w: Warning) -> bytes:
    return struct.pack(
        "<QQBddd",
        w.sender,
        w.event_id,
        _KIND_CODES[w.event_kind],
        w.event_position[0],
        w.event_position[1],
        w.timestamp,
    )


def encode_report(r: MisbehaviorReport) -> bytes:
    return struct.pack(
        REPORT_FORMAT, r.reporter, r.accused, r.event_id, r.timestamp, int(r.signature_valid)
    )


def _ledger_rows(rrl: RsuReputationList) -> tuple[tuple[VehicleId, int, int], ...]:
    """(vehicle, points, misbehavior points) per entry, in the ledger's order."""
    return tuple((vid, r.points, r.misbehavior_points) for vid, r in rrl.entries.items())


def encode_rrl_broadcast(b: RrlBroadcast) -> bytes:
    rows = _ledger_rows(b.rrl)
    head = struct.pack("<QQI", b.rrl.issuer, b.rrl.version, len(rows))
    body = b"".join(struct.pack("<Qqq", vid, pts, mis) for vid, pts, mis in rows)
    tail = struct.pack("<dB", b.timestamp, int(b.signature_valid))
    return head + body + tail

"""Vehicle-side and roadside-unit state machines for safety-message trust.

A vehicle runs every incoming warning through a fixed pipeline:
corroboration against warnings it is already holding, conflict detection,
sender-distance plausibility, then a banded trust decision combining its
own ledger with the roadside unit's published one. Lone suspicious
warnings are buffered and expire to a rejection if nobody corroborates
them. What the vehicle's beacons say about a warning's sender arrives with
the warning as a ``Heard``: where the sender was when last heard, the
vehicle's own position, and a lookup of the nearest and farthest fresh
neighbors to the event, which only a decision at TOP trust makes. The
roadside unit pairs misbehavior reports from distinct reporters before it
dings anyone, and periodically broadcasts its ledger.

Nodes are single-owner state machines: all mutation happens through the
handler methods, which the caller must invoke sequentially per node.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Callable, Iterable, NamedTuple, Optional

from .reputation import (
    HeuristicBand,
    LocalReputationList,
    ReputationRecord,
    RsuReputationList,
    RrlStanding,
    TrustDecision,
    TrustLevel,
    VehicleId,
    apply_point_delta,
    classify_trust,
    compute_heuristic_bands,  # noqa: F401  (perfbench/tracing.py patches these bindings)
    compute_trust_bands,  # noqa: F401
    decide_trust,
    heuristic_band,
    heuristic_from_distance,  # noqa: F401
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

    def __post_init__(self) -> None:
        if self.reporter == self.accused:
            raise ValueError("reporter and accused must differ")


@dataclass(frozen=True, slots=True)
class RrlBroadcast:
    """One publication of a roadside unit's ledger; receivers share ``rrl``."""

    rrl: RsuReputationList
    timestamp: float


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


@dataclass(slots=True)
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

    ``receiver`` is where it is now and ``sender`` where the sender was at its last beacon.
    ``extremes()`` returns (nearest, farthest): where the fresh neighbors nearest to and farthest
    from the event were at their last beacons. Only a decision that bands the sender calls it.
    """

    receiver: Position
    sender: Position
    extremes: Callable[[], tuple[Position, Position]]


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


class WarningOutcome(NamedTuple):
    """Result of one warning delivery or one pass over the pending buffer: an immutable tuple.

    ``disposition`` is None when the message was a duplicate and ignored,
    and for a pass over the buffer. ``finalized`` lists earlier pending
    messages this call resolved, as (sender, event_id, disposition) tuples.
    The outcomes that carry no report and finalize nothing are the shared
    constants below, so most calls allocate no result.
    """

    disposition: Optional[Disposition]
    reports: tuple[MisbehaviorReport, ...] = ()
    finalized: tuple[tuple[VehicleId, EventId, Disposition], ...] = ()


IGNORED = WarningOutcome(None)
REJECTED = WarningOutcome(Disposition.REJECT)
ACCEPTED = WarningOutcome(Disposition.ACCEPT)
PENDING = WarningOutcome(Disposition.PENDING)


def _distance(a: Position, b: Position) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


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
            return IGNORED
        if not self._position_ok(warning.event_position):
            return REJECTED

        entry = self.pending.get(warning.event_id)
        if entry is not None:
            return self._handle_repeat(entry, warning)
        if heard is None:
            return self._handle_lone(warning, now, None, 0.0)

        # Each distance is measured once; the plausibility check and the band draw their own noise.
        sender_at = heard.sender
        ranging = _distance(heard.receiver, sender_at)
        to_event = _distance(sender_at, warning.event_position)
        if self._estimate_distance(to_event, ranging) > self.config.plausibility_radius_m:
            self._adjust(warning.sender, -1)
            report = MisbehaviorReport(self.id, warning.sender, warning.event_id, now)
            return WarningOutcome(Disposition.REJECT, (report,))
        # The band's estimate is drawn whether or not the decision reads it, so the noise stream
        # does not depend on the sender's trust level.
        return self._handle_lone(warning, now, heard, self._estimate_distance(to_event, ranging))

    def _handle_repeat(self, entry: PendingWarning, warning: Warning) -> WarningOutcome:
        sender = warning.sender
        if sender in entry.corroborators:
            # Re-broadcast by a vehicle already counted for this event.
            return IGNORED
        if self._consistent(entry.warning, warning):
            outcome = ACCEPTED
            if entry.state is PendingState.AWAITING:
                # Second opinion arrived: the event is corroborated. Credit
                # everyone who vouched for it, including the new sender.
                for vid in entry.corroborators:
                    self._adjust(vid, +1)
                entry.state = PendingState.RESOLVED
                outcome = WarningOutcome(
                    Disposition.ACCEPT, (), ((entry.warning.sender, warning.event_id, Disposition.ACCEPT),)
                )
            self._adjust(sender, +1)
            entry.corroborators.add(sender)
            return outcome
        # Same event, different story: penalize the newcomer.
        self._adjust(sender, -1)
        return REJECTED

    def _handle_lone(self, warning: Warning, now: float, heard: Optional[Heard], distance: float) -> WarningOutcome:
        """Decide a first copy of an event; ``heard`` is None when no beacon of the sender was heard.

        ``distance`` is the estimated sender-to-event distance. Only a TOP-trust sender is banded by
        it, so only that decision looks up the nearest and farthest fresh neighbors.
        """
        sender = warning.sender
        points = self.lrl.get(sender)
        if points is None:  # neutral entry points matter only for a sender not held yet
            points = self.lrl.ensure(sender, self._default_points())

        # Never heard a beacon from this sender: assume the worst.
        level = TrustLevel.LOW if heard is None else classify_trust(points, self.lrl.trust_bands())
        if level is TrustLevel.TOP:
            nearest, farthest = heard.extremes()
            event = warning.event_position
            band = heuristic_band(distance, _distance(nearest, event), _distance(farthest, event))
            if self._heuristic_acceptable(band):
                self._remember(warning, now)
                return ACCEPTED

        decision = decide_trust(level, standing_of(self.cached_rrl, sender))
        if decision is TrustDecision.ACCEPT:
            self._remember(warning, now)
            return ACCEPTED
        if decision is TrustDecision.REJECT:
            self._adjust(sender, -1)
            self._remember(warning, now)
            report = MisbehaviorReport(self.id, sender, warning.event_id, now)
            return WarningOutcome(Disposition.REJECT, (report,))
        # Unsure: hold the message and wait for somebody else to confirm it.
        self._hold(PendingWarning(warning, now, {sender}, PendingState.AWAITING))
        return PENDING

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
        without penalty. A pass that finalizes nothing returns ``IGNORED``.
        """
        if not self.pending_due(now):
            return IGNORED
        ttl = self.config.pending_ttl
        # One pass finds the due entries and the oldest of those that stay; no order of times is assumed.
        due = []
        oldest = math.inf
        for event_id, entry in self.pending.items():
            seen = entry.first_seen
            if now - seen > ttl:
                due.append(event_id)
            elif seen < oldest:
                oldest = seen
        reports = []
        finalized = []
        for event_id in due:
            entry = self.pending.pop(event_id)
            if entry.state is PendingState.AWAITING:
                sender = entry.warning.sender
                self._adjust(sender, -1)
                reports.append(MisbehaviorReport(self.id, sender, event_id, now))
                finalized.append((sender, event_id, Disposition.REJECT))
        self.oldest_pending = oldest
        if not finalized:
            return IGNORED
        return WarningOutcome(None, tuple(reports), tuple(finalized))

    # -- network ledger ----------------------------------------------------

    def handle_rrl_broadcast(self, broadcast: RrlBroadcast) -> bool:
        """Keep a newer ledger snapshot (shared, not copied); seed an empty local ledger from it."""
        rrl = broadcast.rrl
        if self.cached_rrl is not None and rrl.version <= self.cached_rrl.version:
            return False
        self.cached_rrl = rrl
        if len(self.lrl) == 0:
            self.lrl.load(rrl.local_seed(), owner=self.id)
        return True

    # -- internals ---------------------------------------------------------

    def _adjust(self, vehicle: VehicleId, delta: int) -> None:
        self.lrl.adjust(vehicle, delta, self._default_points())

    def _default_points(self) -> int:
        """Neutral entry points for a sender we have no history with: the middle of the ledger's range."""
        bands = self.lrl.trust_bands()
        if bands is None:
            return self.config.initial_points
        return (bands.min_points + bands.max_points) // 2

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
    ) -> None:
        """Pre-populate the ledger with registered vehicles at neutral points.

        ``anchors`` are ledger-only entries (trusted infrastructure agents,
        previously confirmed misbehavers) that pin the band geometry to the
        full reputation scale; they never appear on the road.
        """
        for vid in vehicles:
            self.entries[vid] = ReputationRecord(vid, points)
        for vid, pts, misbehavior in anchors:
            self.entries[vid] = ReputationRecord(vid, pts, misbehavior)
        self._snapshot = None

    def handle_report(self, report: MisbehaviorReport, now: float) -> bool:
        """Process one misbehavior report; returns True when state changed.

        Both parties must be in the ledger: ``seed`` enters every vehicle, and nothing removes one.
        """
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
        rec = self.entries[accused]
        self._put(apply_point_delta(ReputationRecord(accused, rec.points, rec.misbehavior_points + 1), -1))
        for reporter in (entry.reporter, report.reporter):
            self._bump(reporter, +1)
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
        misbehaving = tuple(e for e in _ledger_rows(snapshot) if e[2] > 0) if self.adjacent else ()
        forwards = [
            RsuForward(self.id, neighbor, misbehaving, now)
            for neighbor in self.adjacent
            if misbehaving
        ]
        return broadcast, forwards

    def handle_forward(self, forward: RsuForward) -> None:
        """Merge a neighbor unit's misbehaving digest into the local ledger.

        Unknown vehicles are inserted as-is; known ones keep the worse view
        (lower points, higher misbehavior count).
        """
        for vid, points, misbehavior in forward.entries:
            rec = self.entries.get(vid)
            if rec is not None:
                points, misbehavior = min(rec.points, points), max(rec.misbehavior_points, misbehavior)
            self._put(ReputationRecord(vid, points, misbehavior))

    def snapshot(self) -> RsuReputationList:
        """The ledger as published, in vehicle order.

        One object per ledger state: it is rebuilt only after an entry or
        the version changes, so every receiver of a publication shares it,
        and its trust bands are built with it.
        """
        if self._snapshot is None or self._snapshot.version != self.version:
            self._snapshot = RsuReputationList(dict(sorted(self.entries.items())), self.version, self.id)
        return self._snapshot

    def _put(self, record: ReputationRecord) -> None:
        self.entries[record.vehicle] = record
        self._snapshot = None

    def _bump(self, vehicle: VehicleId, delta: int) -> None:
        self._put(apply_point_delta(self.entries[vehicle], delta))


# -- wire format -----------------------------------------------------------
#
# Canonical flat serialization: fields in declaration order, little-endian
# integers, meters and seconds as 64-bit floats. Used for channel-occupancy
# accounting; the nominal air sizes follow the configured message classes.

SAFETY_MESSAGE_BYTES = 100
NON_SAFETY_MESSAGE_BYTES = 512

_KIND_CODES = {EventKind.CRASH: 0, EventKind.ICE: 1, EventKind.SUDDEN_BRAKE: 2}

# A beacon: sender, x, y, speed, heading x, heading y, timestamp. Beacons are never encoded; this
# format only gives their wire size.
BEACON_FORMAT = "<Qdddddd"
# A report: reporter, accused, event id, timestamp, signature flag (always 1).
REPORT_FORMAT = "<QQQdB"
WARNING_FORMAT = "<QQBddd"
# A ledger broadcast: head (issuer, version, row count), one row per entry, tail (timestamp, signature flag,
# always 1).
RRL_HEAD_FORMAT = "<QQI"
RRL_ROW_FORMAT = "<Qqq"
RRL_TAIL_FORMAT = "<dB"


def encode_warning(w: Warning) -> bytes:
    return struct.pack(
        WARNING_FORMAT,
        w.sender,
        w.event_id,
        _KIND_CODES[w.event_kind],
        w.event_position[0],
        w.event_position[1],
        w.timestamp,
    )


def encode_report(r: MisbehaviorReport) -> bytes:
    return struct.pack(REPORT_FORMAT, r.reporter, r.accused, r.event_id, r.timestamp, 1)


def _ledger_rows(rrl: RsuReputationList) -> tuple[tuple[VehicleId, int, int], ...]:
    """(vehicle, points, misbehavior points) per entry, in the ledger's order."""
    return tuple((vid, r.points, r.misbehavior_points) for vid, r in rrl.entries.items())


def encode_rrl_broadcast(b: RrlBroadcast) -> bytes:
    rows = _ledger_rows(b.rrl)
    head = struct.pack(RRL_HEAD_FORMAT, b.rrl.issuer, b.rrl.version, len(rows))
    body = b"".join(struct.pack(RRL_ROW_FORMAT, vid, pts, mis) for vid, pts, mis in rows)
    tail = struct.pack(RRL_TAIL_FORMAT, b.timestamp, 1)
    return head + body + tail

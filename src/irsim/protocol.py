"""Vehicle-side and roadside-unit state machines for safety-message trust.

A vehicle runs every incoming warning through a fixed pipeline:
corroboration against warnings it is already holding, conflict detection,
sender-distance plausibility, then a banded trust decision combining its
own ledger with the roadside unit's published one. Lone suspicious
warnings are buffered and expire to a rejection if nobody corroborates
them. What the radio and beacons say about a warning's sender arrives with
the warning as a ``Heard``: where the sender was when last heard, the
ranging errors of the vehicle's estimates (so a decision draws nothing),
and a lookup of the nearest and farthest fresh neighbors to the event,
which only a decision at TOP trust makes. The roadside unit pairs
misbehavior reports from distinct reporters before it dings anyone, and
periodically broadcasts its ledger.

Nodes are single-owner state machines: all mutation happens through the
handler methods, which the caller must invoke sequentially per node.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .reputation import (
    HeuristicBand,
    LocalReputationList,
    RrlStanding,
    TrustDecision,
    TrustLevel,
    VehicleId,
    _shifted,
    apply_point_delta,  # noqa: F401  (perfbench/tracing.py patches these bindings)
    classify_heuristic,
    classify_trust,
    compute_heuristic_bands,
    compute_trust_bands,  # noqa: F401
    decide_trust,
    heuristic_from_distance,
    standing_of,
)
from .scenario import ScenarioConfig

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


class _ReportFields(NamedTuple):
    reporter: VehicleId
    accused: VehicleId
    event_id: EventId
    timestamp: float


class MisbehaviorReport(_ReportFields):
    """A vehicle's accusation of another vehicle: an immutable tuple, since every rejection and expiry builds one."""

    __slots__ = ()

    def __new__(cls, reporter: VehicleId, accused: VehicleId, event_id: EventId, timestamp: float):
        if reporter == accused:
            raise ValueError("reporter and accused must differ")
        return tuple.__new__(cls, (reporter, accused, event_id, timestamp))

    @classmethod
    def _make(cls, iterable: Iterable) -> MisbehaviorReport:
        return cls(*iterable)  # NamedTuple's _make (and so _replace) would skip the check in __new__


@dataclass(frozen=True, slots=True)
class RrlBroadcast:
    """One publication of a roadside unit's ledger, its fields in wire order.

    ``version`` strictly increases with each of the unit's ticks. ``rrl`` is a
    copy of the unit's points, in vehicle order, and ``misbehavior`` a copy of
    its nonzero misbehavior points. Nobody writes either: every receiver
    shares them, and so does every later publication until the ledger changes.
    """

    issuer: RsuId
    version: int
    rrl: LocalReputationList
    misbehavior: dict[VehicleId, int]
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
    the TTL. ``first_seen`` is when the entry was held; nothing changes it.
    """

    warning: Warning
    first_seen: float
    corroborators: set[VehicleId]
    state: PendingState


class Heard(NamedTuple):
    """What the radio and a receiver's beacon rounds say about one warning.

    ``sender`` is the (x, y) where the sender was at its last beacon. ``errors`` are two ranging
    errors in meters, added to the sender's distance to the event: the first for the plausibility
    check, the second for the band. ``extremes(receiver_id)`` returns (nearest, farthest): where the
    receiver's fresh neighbors nearest to and farthest from the event were at their last beacons.
    Only a decision that bands the sender calls it, with its own id, so the facts of one warning can
    share one lookup.
    """

    sender: Position
    errors: Sequence[float]
    extremes: Callable[[VehicleId], tuple[Position, Position]]


class WarningOutcome(NamedTuple):
    """Result of one warning delivery or one pass over the pending buffer: an immutable tuple.

    ``disposition`` is None when the message was a duplicate and ignored,
    and for a pass over the buffer. ``finalized`` lists earlier pending
    messages this call resolved, as (sender, event_id, disposition) tuples.
    The outcomes that carry no report and finalize nothing are the shared
    constants below, so most calls allocate no result. The others are built
    with ``tuple.__new__`` and all three fields: the type checks nothing, so
    that skips only the Python-level ``__new__``.
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

    ``config`` is the run's ``ScenarioConfig``; the node reads its ``grid``,
    ``pending_ttl``, ``corroboration_tolerance_m``, ``strict_top_heuristic``,
    ``initial_points`` and ``transmission_range``. The plausibility radius is
    the transmission range: a sender is not believed about an event farther
    from it than it could transmit.

    ``pending`` holds one ``PendingWarning`` per event. A ``handle_warning``
    call adds at most one entry and removes none; only ``expire_pending``,
    which the caller schedules, removes entries.
    """

    def __init__(self, vehicle_id: VehicleId, config: ScenarioConfig) -> None:
        self.id = vehicle_id
        self.config = config
        self.lrl = LocalReputationList()
        self.cached_rrl: Optional[RrlBroadcast] = None
        self.pending: dict[EventId, PendingWarning] = {}

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
        cfg = self.config
        # The grid is finite, so these comparisons also reject nan and infinities.
        ex, ey = warning.event_position
        width, height = cfg.grid
        if not (0.0 <= ex <= width and 0.0 <= ey <= height):
            return REJECTED

        entry = self.pending.get(warning.event_id)
        if entry is not None:
            return self._handle_repeat(entry, warning)
        if heard is None:
            return self._handle_lone(warning, now, None, 0.0)

        # The distance is measured once; the plausibility check and the band each add their own
        # ranging error. The band's estimate is clamped at 0.
        sx, sy = heard.sender
        to_event = math.hypot(sx - ex, sy - ey)
        errors = heard.errors
        if to_event + errors[0] > cfg.transmission_range:
            self._adjust(warning.sender, -1)
            report = MisbehaviorReport(self.id, warning.sender, warning.event_id, now)
            return tuple.__new__(WarningOutcome, (Disposition.REJECT, (report,), ()))
        estimate = to_event + errors[1]
        return self._handle_lone(warning, now, heard, estimate if estimate > 0.0 else 0.0)

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
                finalized = ((entry.warning.sender, warning.event_id, Disposition.ACCEPT),)
                outcome = tuple.__new__(WarningOutcome, (Disposition.ACCEPT, (), finalized))
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
        if points is None:
            points = self.lrl.ensure(sender, self.config.initial_points)

        # Never heard a beacon from this sender: assume the worst.
        level = TrustLevel.LOW if heard is None else classify_trust(points, self.lrl.trust_bands())
        if level is TrustLevel.TOP:
            # The paper's band: w from the two extreme neighbors' heuristics, then the sender's heuristic in it.
            event = warning.event_position
            extremes = [heuristic_from_distance(_distance(p, event)) for p in heard.extremes(self.id)]
            band = classify_heuristic(heuristic_from_distance(distance), compute_heuristic_bands(extremes))
            if self._heuristic_acceptable(band):
                self._remember(warning, now)
                return ACCEPTED

        held = self.cached_rrl
        decision = decide_trust(level, standing_of(None if held is None else held.rrl, sender))
        if decision is TrustDecision.ACCEPT:
            self._remember(warning, now)
            return ACCEPTED
        if decision is TrustDecision.REJECT:
            self._adjust(sender, -1)
            self._remember(warning, now)
            report = MisbehaviorReport(self.id, sender, warning.event_id, now)
            return tuple.__new__(WarningOutcome, (Disposition.REJECT, (report,), ()))
        # Unsure: hold the message and wait for somebody else to confirm it.
        self.pending[warning.event_id] = PendingWarning(warning, now, {sender}, PendingState.AWAITING)
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
        self.pending[warning.event_id] = PendingWarning(warning, now, {warning.sender}, PendingState.RESOLVED)

    # -- pending buffer ----------------------------------------------------

    def expire_pending(self, now: float) -> WarningOutcome:
        """Age out the pending buffer.

        Lone warnings past the TTL resolve to a rejection: the sender loses a
        point, one misbehavior report is emitted, and the warning is listed in
        ``finalized``. Entries that were already resolved just drop out
        without penalty. A pass that finalizes nothing returns ``IGNORED``.
        One pass over the buffer finds the due entries, so no order of
        ``first_seen`` times is assumed.
        """
        ttl = self.config.pending_ttl
        due = [event_id for event_id, entry in self.pending.items() if now - entry.first_seen > ttl]
        reports = []
        finalized = []
        for event_id in due:
            entry = self.pending.pop(event_id)
            if entry.state is PendingState.AWAITING:
                sender = entry.warning.sender
                self._adjust(sender, -1)
                reports.append(MisbehaviorReport(self.id, sender, event_id, now))
                finalized.append((sender, event_id, Disposition.REJECT))
        if not finalized:
            return IGNORED
        return tuple.__new__(WarningOutcome, (None, tuple(reports), tuple(finalized)))

    # -- network ledger ----------------------------------------------------

    def handle_rrl_broadcast(self, broadcast: RrlBroadcast) -> bool:
        """Keep a newer publication (shared, not copied); seed an empty local ledger from its ledger."""
        held = self.cached_rrl
        if held is not None and broadcast.version <= held.version:
            return False
        self.cached_rrl = broadcast
        if len(self.lrl) == 0:
            self.lrl.load(broadcast.rrl, owner=self.id)
        return True

    # -- internals ---------------------------------------------------------

    def _adjust(self, vehicle: VehicleId, delta: int) -> None:
        self.lrl.adjust(vehicle, delta, self.config.initial_points)


@dataclass
class SuspicionEntry:
    first_seen: float
    reporter: VehicleId
    event_id: EventId


class RsuNode:
    """Roadside unit: network ledger, suspicion pairing, periodic publication.

    The ledger holds points by vehicle in id order, and ``misbehavior`` the
    nonzero misbehavior points. A single report only marks both parties
    suspicious. Misbehavior points move only once a second, distinct,
    non-flagged reporter confirms the same event; the matter is then
    settled and later reports about it are dropped.

    ``config`` is the run's ``ScenarioConfig``; the unit reads its
    ``suspicion_ttl``. How far a publication reaches
    (``rsu_coverage_radius``) is the simulator's radio's concern.
    """

    def __init__(
        self,
        rsu_id: RsuId,
        position: Position,
        config: ScenarioConfig,
        adjacent: tuple[RsuId, ...] = (),
    ) -> None:
        self.id = rsu_id
        self.position = position
        self.config = config
        self.adjacent = adjacent
        self.ledger = LocalReputationList()
        self.misbehavior: dict[VehicleId, int] = {}
        self.version = 0
        self.suspicion: dict[VehicleId, SuspicionEntry] = {}
        self._settled: dict[tuple[VehicleId, EventId], float] = {}
        self._snapshot: Optional[tuple[LocalReputationList, dict[VehicleId, int]]] = None

    def seed(
        self,
        vehicles: Iterable[VehicleId],
        points: int,
        anchors: Iterable[tuple[VehicleId, int, int]] = (),
    ) -> None:
        """Fill the ledger with registered vehicles at neutral points, in id order.

        ``anchors`` are ledger-only (vehicle, points, misbehavior points)
        rows (trusted infrastructure agents, previously confirmed
        misbehavers) that pin the band geometry to the full reputation
        scale; they never appear on the road. A later row for an id
        replaces an earlier one. The rows are built in bulk and sorted once;
        every row is checked before the unit holds any of them. A world
        seeds one unit and copies its ledger to the others.
        """
        rows = dict.fromkeys(vehicles, points)
        misbehavior: dict[VehicleId, int] = {}
        for vid, pts, held in anchors:
            rows[vid] = pts
            misbehavior[vid] = held
        if any(held < 0 for held in misbehavior.values()):
            raise ValueError("misbehavior points must be >= 0")
        # Builds the whole ledger, and rejects negative points, before the unit holds any of it.
        self.ledger = LocalReputationList(sorted(rows.items()))
        self.misbehavior = {vid: held for vid, held in sorted(misbehavior.items()) if held}
        self._snapshot = None

    def handle_report(self, report: MisbehaviorReport, now: float) -> bool:
        """Process one misbehavior report; returns True when state changed.

        Both parties must be in the ledger: ``seed`` enters every vehicle, and nothing removes one.
        """
        if standing_of(self.ledger, report.reporter) is RrlStanding.FLAGGED:
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
        self.misbehavior[accused] = self.misbehavior.get(accused, 0) + 1
        self._bump(accused, -1)
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
        broadcast = self.publish(now)
        if not (self.adjacent and self.misbehavior):
            return broadcast, []
        points = self.ledger.entries
        misbehaving = tuple((vid, points[vid], misbehavior) for vid, misbehavior in sorted(self.misbehavior.items()))
        return broadcast, [RsuForward(self.id, neighbor, misbehaving, now) for neighbor in self.adjacent]

    def handle_forward(self, forward: RsuForward) -> None:
        """Merge a neighbor unit's misbehaving digest into the ledger.

        Each entry keeps the worse view (lower points, higher misbehavior
        count). Every unit is seeded with the same ids and none enters an
        id later, so every forwarded vehicle is held.
        """
        points = self.ledger.entries
        for vid, pts, misbehavior in forward.entries:
            if pts < points[vid]:
                self.ledger.upsert(vid, pts)
                self._snapshot = None
            if misbehavior > self.misbehavior.get(vid, 0):
                self.misbehavior[vid] = misbehavior
                self._snapshot = None

    def snapshot(self) -> tuple[LocalReputationList, dict[VehicleId, int]]:
        """The ledger as published: a copy of its points, counts and bands, and of its misbehavior points.

        The ledger is in vehicle order, so the copy is too. One pair per
        ledger state: it is copied again only after an entry changes, so every
        publication until then, and every receiver of one, shares it.
        """
        if self._snapshot is None:
            rrl = LocalReputationList()
            rrl.load(self.ledger)
            rrl.trust_bands()
            self._snapshot = rrl, dict(self.misbehavior)
        return self._snapshot

    def publish(self, now: float) -> RrlBroadcast:
        """A publication of the ledger as it stands, under the version of the unit's last tick."""
        rrl, misbehavior = self.snapshot()
        return RrlBroadcast(self.id, self.version, rrl, misbehavior, now)

    def _bump(self, vehicle: VehicleId, delta: int) -> None:
        self.ledger.upsert(vehicle, _shifted(self.ledger.entries[vehicle], delta))
        self._snapshot = None


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
# A ledger broadcast: head (issuer, version, row count), one row (vehicle, points, misbehavior points) per
# entry of ``rrl`` in vehicle order, tail (timestamp, signature flag, always 1).
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


def encode_rrl_broadcast(b: RrlBroadcast) -> bytes:
    entries, misbehavior = b.rrl.entries, b.misbehavior
    head = struct.pack(RRL_HEAD_FORMAT, b.issuer, b.version, len(entries))
    body = b"".join(struct.pack(RRL_ROW_FORMAT, vid, pts, misbehavior.get(vid, 0)) for vid, pts in entries.items())
    tail = struct.pack(RRL_TAIL_FORMAT, b.timestamp, 1)
    return head + body + tail

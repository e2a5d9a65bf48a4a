"""Pure reputation mathematics: ledgers, trust/heuristic banding, and the decision matrix.

Everything in this module is deterministic and side-effect free. Reputation
points are non-negative integers; band thresholds are compared in exact
integer arithmetic (scaled by 3) so classification has no gaps or overlaps
at boundaries.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from importlib import resources
from typing import Iterable, Mapping, Optional

VehicleId = int


class TrustLevel(IntEnum):
    """Local trust band of a sender, ordered LOW < MEDIUM < TOP."""

    LOW = 0
    MEDIUM = 1
    TOP = 2


class HeuristicBand(IntEnum):
    """Distance-to-event band of a sender, ordered NEAR < MIDDLE < AWAY."""

    NEAR = 0
    MIDDLE = 1
    AWAY = 2


class RrlStanding(IntEnum):
    """Network-wide standing of a vehicle in the roadside unit's ledger.

    FLAGGED marks the low-points (misbehaving) end, CLEAR the high-points
    (trusted) end. A vehicle absent from the ledger is CLEAR: it has never
    been reported, so the network holds no opinion against it.
    """

    FLAGGED = 0
    WATCH = 1
    CLEAR = 2


class TrustDecision(IntEnum):
    REJECT = 0
    UNSURE = 1
    ACCEPT = 2


@dataclass(frozen=True, slots=True)
class ReputationRecord:
    """One vehicle's row of a roadside unit's ledger, as a value: its points and misbehavior points.

    ``points`` is floored at zero; ``misbehavior_points`` only ever grows.
    """

    vehicle: VehicleId
    points: int
    misbehavior_points: int = 0

    def __post_init__(self) -> None:
        if self.points < 0:
            raise ValueError("reputation points must be >= 0")
        if self.misbehavior_points < 0:
            raise ValueError("misbehavior points must be >= 0")


class LocalReputationList:
    """Points by vehicle id, with trust bands over their range.

    A vehicle keeps one of the senders it has heard; a roadside unit keeps
    one as its network ledger, and publishes copies of it that nobody writes
    (``RrlBroadcast.rrl``). The derived ranking puts the highest points
    first (the most trusted senders at the top).

    Every write goes through the constructor, ``load``, ``upsert``,
    ``ensure`` or ``adjust``, which keep a count of entries per point value
    and the lowest and highest value held, so ``trust_bands`` never walks the
    ledger. A bound is looked up again among the distinct point values only
    when its last holder moves.
    """

    def __init__(self, points: Mapping[VehicleId, int] | Iterable[tuple[VehicleId, int]] = ()) -> None:
        """Fill the list in bulk from ``points``; a later pair for an id replaces an earlier one.

        Rejects a negative value among the pairs kept before it assigns anything.
        """
        entries = dict(points) if points else {}  # every VehicleNode starts empty: no copy, no count
        counts: dict[int, int] = {}
        lo = hi = 0
        if entries:
            counts = dict(Counter(entries.values()))
            lo, hi = min(counts), max(counts)
            if lo < 0:
                raise ValueError("reputation points must be >= 0")
        self.entries: dict[VehicleId, int] = entries
        self._counts = counts
        self._lo, self._hi = lo, hi
        self._bands: Optional[TrustBands] = None

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, vehicle: VehicleId) -> bool:
        return vehicle in self.entries

    def get(self, vehicle: VehicleId) -> Optional[int]:
        return self.entries.get(vehicle)

    def load(self, source: LocalReputationList, owner: Optional[VehicleId] = None) -> None:
        """Fill an empty list with a copy of ``source``, leaving out ``owner``'s own entry.

        Its points, counts, bounds and bands are copied, never written, so
        one ledger publication can fill the list of every vehicle that
        receives it.
        """
        if self.entries:
            raise ValueError("load needs an empty ledger")
        self.entries = source.entries.copy()
        self._counts = source._counts.copy()
        self._lo, self._hi, self._bands = source._lo, source._hi, source._bands
        own = self.entries.pop(owner, None)
        if own is not None:
            self._count_out(own)

    def upsert(self, vehicle: VehicleId, points: int) -> None:
        if points < 0:
            raise ValueError("reputation points must be >= 0")
        old = self.entries.get(vehicle)
        self.entries[vehicle] = points
        if old is None:
            self._count_in(points)
        elif old != points:
            self._count_in(points)
            self._count_out(old)

    def points(self) -> list[int]:
        return list(self.entries.values())

    def ranked(self) -> list[tuple[VehicleId, int]]:
        """(vehicle, points) pairs ordered by points descending (ties broken by vehicle id)."""
        return sorted(self.entries.items(), key=lambda e: (-e[1], e[0]))

    def trust_bands(self) -> Optional[TrustBands]:
        """Bands over the points held now; None while the ledger is empty."""
        if self._bands is None and self.entries:
            self._bands = TrustBands(self._lo, self._hi)
        return self._bands

    def ensure(self, vehicle: VehicleId, initial_points: int) -> int:
        """Return the points of ``vehicle``, entering it at the neutral points first if absent.

        The neutral points are the middle of the range held, ``(lo + hi) // 2``, or ``initial_points``
        while the list is empty; they are worked out only for an absent vehicle.
        """
        points = self.entries.get(vehicle)
        if points is None:
            points = self._neutral(initial_points)
            self.upsert(vehicle, points)
        return points

    def adjust(self, vehicle: VehicleId, delta: int, initial_points: int) -> int:
        """Shift the points of ``vehicle`` by ``delta``, floored at zero, entering it at the neutral points first.

        The neutral points are those of ``ensure``, worked out only for an absent vehicle. One read, one
        write: entering an absent vehicle at its shifted points ends in the same state.
        """
        held = self.entries.get(vehicle)
        points = _shifted(self._neutral(initial_points) if held is None else held, delta)
        self.upsert(vehicle, points)
        return points

    def _neutral(self, initial_points: int) -> int:
        """Entry points for a vehicle with no history: the middle of the range held, or ``initial_points``."""
        return (self._lo + self._hi) // 2 if self.entries else initial_points

    def _count_in(self, points: int) -> None:
        held = self._counts.get(points, 0)
        self._counts[points] = held + 1
        if held:
            return
        if len(self._counts) == 1:
            self._lo = self._hi = points
        elif points < self._lo:
            self._lo = points
        elif points > self._hi:
            self._hi = points
        else:
            return
        self._bands = None

    def _count_out(self, points: int) -> None:
        held = self._counts[points] - 1
        if held:
            self._counts[points] = held
            return
        del self._counts[points]
        if not self._counts:
            self._bands = None
        elif points == self._lo:
            self._lo = min(self._counts)
            self._bands = None
        elif points == self._hi:
            self._hi = max(self._counts)
            self._bands = None


@dataclass(frozen=True, slots=True)
class TrustBands:
    """Band geometry over a set of reputation points.

    The band length ``th`` is (max_points - min_points) / 3. Classification
    compares in integers scaled by 3 and never builds it.
    """

    min_points: int
    max_points: int

    def __post_init__(self) -> None:
        if self.max_points < self.min_points:
            raise ValueError("max_points must be >= min_points")

    @property
    def th(self) -> Fraction:
        """The exact band length."""
        return Fraction(self.max_points - self.min_points, 3)


@dataclass(frozen=True, slots=True)
class HeuristicBands:
    """Band geometry over a set of distance heuristics; h_eval = 2 * w."""

    w: float
    h_eval: float

    def __post_init__(self) -> None:
        if self.w < 0:
            raise ValueError("band width must be >= 0")
        if self.h_eval != 2 * self.w:
            raise ValueError("h_eval must equal 2 * w")


def compute_trust_bands(points: Iterable[int]) -> TrustBands:
    """Derive trust bands from a non-empty collection of reputation points.

    The band length is one third of the observed point spread.
    """
    pts = list(points)
    if not pts:
        raise ValueError("no reputation data")
    lo, hi = min(pts), max(pts)
    if lo < 0:
        raise ValueError("reputation points must be >= 0")
    return TrustBands(lo, hi)


def classify_trust(points: int, bands: TrustBands) -> TrustLevel:
    """Place a point value into LOW / MEDIUM / TOP.

    LOW covers points below min + th, MEDIUM the middle third inclusive of
    both edges, TOP everything above min + 2*th. A degenerate spread
    (th == 0) carries no information, so everything classifies MEDIUM.
    With spread = max - min = 3*th, both edges compare exactly in integers.
    """
    spread = bands.max_points - bands.min_points
    if spread == 0:
        return TrustLevel.MEDIUM
    offset = 3 * (points - bands.min_points)
    if offset < spread:
        return TrustLevel.LOW
    if offset <= 2 * spread:
        return TrustLevel.MEDIUM
    return TrustLevel.TOP


def heuristic_from_distance(distance_m: float) -> float:
    """Convert a straight-line distance to the event into a heuristic: ten meters per unit."""
    if not math.isfinite(distance_m) or distance_m < 0:
        raise ValueError("distance must be finite and >= 0")
    return distance_m / 10.0


def compute_heuristic_bands(heuristics: Iterable[float]) -> HeuristicBands:
    """Derive heuristic bands from the neighbors' heuristics (non-empty)."""
    hs = list(heuristics)
    if not hs:
        raise ValueError("no neighbor heuristics")
    for h in hs:
        if not math.isfinite(h) or h < 0:
            raise ValueError("heuristics must be finite and >= 0")
    w = (max(hs) - min(hs)) / 3.0
    return HeuristicBands(w, 2 * w)


def classify_heuristic(h: float, bands: HeuristicBands) -> HeuristicBand:
    """Place a heuristic into NEAR / MIDDLE / AWAY.

    Thresholds are absolute in h: NEAR below 2w, MIDDLE from 2w up to 3w,
    AWAY from 3w on. Zero width classifies everything MIDDLE.
    """
    w = bands.w
    if w == 0:
        return HeuristicBand.MIDDLE
    if h < 2 * w:
        return HeuristicBand.NEAR
    if h < 3 * w:
        return HeuristicBand.MIDDLE
    return HeuristicBand.AWAY


# Local experience outweighs the network opinion: a TOP sender survives a
# WATCH standing, and a FLAGGED sender with LOW local trust lands on UNSURE
# rather than an outright reject. Rows by TrustLevel, columns by RrlStanding,
# both indexed by their values.
_DECISION_MATRIX: tuple[tuple[TrustDecision, TrustDecision, TrustDecision], ...] = (
    # FLAGGED               WATCH                  CLEAR
    (TrustDecision.UNSURE, TrustDecision.REJECT, TrustDecision.REJECT),  # LOW
    (TrustDecision.REJECT, TrustDecision.UNSURE, TrustDecision.ACCEPT),  # MEDIUM
    (TrustDecision.REJECT, TrustDecision.ACCEPT, TrustDecision.ACCEPT),  # TOP
)


def decide_trust(local: TrustLevel, standing: RrlStanding) -> TrustDecision:
    """Combine the local trust level with the network standing (exact 9-entry lookup).

    Anything but a ``TrustLevel`` and an ``RrlStanding`` raises ``KeyError``:
    a plain int such as -1 would otherwise index the matrix silently.
    """
    if local.__class__ is not TrustLevel or standing.__class__ is not RrlStanding:
        raise KeyError((local, standing))
    return _DECISION_MATRIX[local][standing]


def rrl_is_stale(rrl: LocalReputationList, neighbors: Iterable[VehicleId]) -> bool:
    """True when fewer than half of the current neighbors appear in the ledger."""
    ids = set(neighbors)
    return 2 * len(rrl.entries.keys() & ids) < len(ids)


def _shifted(points: int, delta: int) -> int:
    """``points`` shifted by ``delta``, floored at zero: the one place the floor rule lives."""
    return max(0, points + delta)


def apply_point_delta(record: ReputationRecord, delta: int) -> ReputationRecord:
    """Return a copy of ``record`` with points shifted by ``delta``, floored at zero.

    Misbehavior points are untouched.
    """
    return ReputationRecord(record.vehicle, _shifted(record.points, delta), record.misbehavior_points)


# Indexed by the TrustLevel that classify_trust returns, never by caller input.
_STANDING_FROM_LEVEL = (RrlStanding.FLAGGED, RrlStanding.WATCH, RrlStanding.CLEAR)


def standing_of(rrl: Optional[LocalReputationList], vehicle: VehicleId) -> RrlStanding:
    """Normalize a vehicle's position in the network ledger.

    High points map to CLEAR, the middle band to WATCH, low points to
    FLAGGED. No ledger, an empty ledger, or an absent vehicle all mean
    "never reported" and read as CLEAR.
    """
    if rrl is None:
        return RrlStanding.CLEAR
    points = rrl.entries.get(vehicle)
    if points is None:
        return RrlStanding.CLEAR
    bands = rrl.trust_bands()
    assert bands is not None
    return _STANDING_FROM_LEVEL[classify_trust(points, bands)]


def load_conformance_cases() -> dict:
    """Load the bundled worked-example fixture used for cross-implementation testing.

    See README for the schema. The same file can be consumed by other
    implementations of this decision engine.
    """
    path = resources.files("irsim").joinpath("data/conformance.json")
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)

"""Scenario configuration: defaults, validation, file parsing, canonical hashing.

Scenario files are flat key/value text: one ``key = value`` per line,
``#`` comments, keys matching the ScenarioConfig field names. Pairs and
position lists are space-separated numbers, e.g.::

    grid = 1000 1000
    speed_range = 15 45
    rsu_positions = 500 500
    attacker_profile = false-warning

An empty position list (``rsu_positions =``) means no roadside unit.

A field's type annotation picks how its value is read; booleans accept
true/false, 1/0 and yes/no. Unknown keys are rejected.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    """Invalid scenario configuration or run specification."""


ATTACKER_PROFILES = ("false-warning", "conflicting-info", "far-event-claim")
PIPELINES = ("irs", "accept-all")

# The most events a run may schedule: beacon rounds, ledger ticks, hazards
# and attacks, each at its configured rate over the duration. The stock
# scenario schedules about 3400; a config past this ceiling is rejected,
# because a finite but huge setting would start a run that never ends in practice.
MAX_SCHEDULED_EVENTS = 1_000_000

# The most vehicles a run may hold. The beacon radio keeps no per-pair state
# (9 B per vehicle and ring round), and a vehicle's ledger reads through the
# publication it loaded, keeping only the rows it wrote. At constant density
# (10 m of road per vehicle, a unit per km) memory grows about linearly: a
# 30 s run of 6,000 vehicles peaked at 362 MB RSS and took 12.5 s on a 2-core
# VM. What can still grow with the square of the count is the units' ledgers
# (a row per vehicle in each) and, where every vehicle hears every other, the
# rows the vehicles write; the ceiling bounds those and the run time (see
# README, "Scenario files").
MAX_VEHICLES = 6_000

# The most lanes per direction. Vehicles fill the lanes in id order, so a
# lane past the vehicle ceiling would stay empty.
MAX_LANES_PER_DIRECTION = MAX_VEHICLES

# The latest time a run may log, in s. The final expiry runs at duration +
# pending_ttl + 0.001 s, and below 2**32 s a double still resolves the
# microseconds the event log prints, so that step still ages every entry out.
MAX_TIME_S = float(2**32)

# The longest transmission range, in m. The metrics keep one distance bucket
# per 20 m of range, so this keeps a report to 500 buckets; it is far past
# the reach of any vehicular radio.
MAX_TRANSMISSION_RANGE = 10_000.0

# The longest grid side, in m: 10,000 km, longer than any highway. The radio
# squares coordinate gaps, which past about 1e154 m overflow to inf.
MAX_GRID_M = 1e7

# The highest vehicle speed, in m/s: about three times the speed of sound,
# far past any vehicle. With it and ``MAX_TIME_S`` a vehicle's unwrapped x
# stays below 1e13 m, so it never overflows before it wraps onto the grid.
MAX_SPEED = 1_000.0

# The most ledger-only anchors (trusted plus flagged) a run may seed. Every
# roadside unit holds one ledger row per anchor and every publication copies
# them all; a handful pins the band geometry, and this ceiling keeps anchors
# to at most as many rows as vehicles.
MAX_ANCHORS = MAX_VEHICLES

# The most roadside units a run may place. Each unit holds its own copy of the
# seeded ledger, a row per vehicle and anchor, and publishes copies of it: about
# 300 KB per unit at 6,000 vehicles. A 1 s run of 6,000 vehicles and 1,000 units
# peaked at 0.6 GB (tracemalloc), 1.5 GB with MAX_ANCHORS anchors; the road of
# MAX_VEHICLES vehicles at 10 m each needs 60 units at one per km.
MAX_RSUS = 1_000

# The highest initial or anchor point total. Ledger rows carry points as
# signed 64-bit integers, and a run adds at most one point per confirmed
# report, so every reachable total stays far below 2**63 from here.
MAX_POINTS = 2**62


@dataclass
class ScenarioConfig:
    """One experiment's parameters. Defaults describe the stock highway scenario."""

    grid: tuple[float, float] = (1000.0, 1000.0)
    duration: float = 300.0
    vehicle_count: int = 100
    attacker_count: int = 0
    attacker_profile: str = "false-warning"
    attacker_rate: float = 0.08  # attacks per attacker per second
    lanes_per_direction: int = 3
    speed_range: tuple[float, float] = (15.0, 45.0)
    transmission_range: float = 300.0
    delivery_loss_probability: float = 0.05
    beacon_interval: tuple[float, float] = (0.1, 0.1)
    rsu_positions: tuple[tuple[float, float], ...] = ((500.0, 500.0),)
    rsu_coverage_radius: float = 440.0
    seed: int = 0
    pending_ttl: float = 2.0
    neighbor_ttl: float = 1.5
    suspicion_ttl: float = 30.0
    broadcast_period: float = 1.0
    rrl_request_period: float = 1.0
    event_rate_per_min: float = 18.0  # true hazards per minute
    sensing_radius: float = 300.0
    witness_count: int = 3
    warning_jitter: float = 0.5
    ranging_noise_sigma: float = 5.0
    ranging_noise_per_meter: float = 0.25  # ranging error growth with range
    corroboration_tolerance_m: float = 20.0
    initial_points: int = 5
    # Ledger-only anchor entries in the roadside unit's initial ledger:
    # long-standing trusted agents and already-confirmed misbehavers. They
    # pin the relative band geometry to the full points scale.
    trusted_anchors: int = 2
    flagged_anchors: int = 2
    anchor_top_points: int = 13
    anchor_low_points: int = 1
    strict_top_heuristic: bool = False

    def validate(self) -> None:
        # Written so that nan fails too: every comparison with nan is false.
        def positive(name: str, value: float) -> None:
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value!r}")

        def non_negative(name: str, value: float) -> None:
            if not 0 <= value < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")

        positive("grid width", self.grid[0])
        positive("grid height", self.grid[1])
        if max(self.grid) > MAX_GRID_M:
            raise ConfigError(f"grid sides must be <= {MAX_GRID_M:g} m, got {self.grid!r}")
        non_negative("duration", self.duration)
        non_negative("vehicle_count", self.vehicle_count)
        if self.vehicle_count > MAX_VEHICLES:
            raise ConfigError(f"vehicle_count must be <= {MAX_VEHICLES}, got {self.vehicle_count!r}")
        non_negative("attacker_count", self.attacker_count)
        if self.attacker_count > self.vehicle_count:
            raise ConfigError(
                f"attacker_count ({self.attacker_count}) must be <= vehicle_count ({self.vehicle_count})"
            )
        if self.attacker_profile not in ATTACKER_PROFILES:
            raise ConfigError(
                f"attacker_profile must be one of {ATTACKER_PROFILES}, got {self.attacker_profile!r}"
            )
        non_negative("attacker_rate", self.attacker_rate)
        positive("lanes_per_direction", self.lanes_per_direction)
        if self.lanes_per_direction > MAX_LANES_PER_DIRECTION:
            raise ConfigError(
                f"lanes_per_direction must be <= {MAX_LANES_PER_DIRECTION}, got {self.lanes_per_direction!r}"
            )
        if not 0 < self.speed_range[0] <= self.speed_range[1] < math.inf:
            raise ConfigError(f"speed_range must satisfy 0 < min <= max < inf, got {self.speed_range!r}")
        if self.speed_range[1] > MAX_SPEED:
            raise ConfigError(f"speed_range max must be <= {MAX_SPEED:g} m/s, got {self.speed_range[1]!r}")
        positive("transmission_range", self.transmission_range)
        if self.transmission_range > MAX_TRANSMISSION_RANGE:
            raise ConfigError(
                f"transmission_range must be <= {MAX_TRANSMISSION_RANGE:g} m, got {self.transmission_range!r}"
            )
        if not 0.0 <= self.delivery_loss_probability <= 1.0:
            raise ConfigError(
                f"delivery_loss_probability must be in [0, 1], got {self.delivery_loss_probability!r}"
            )
        if not 0 < self.beacon_interval[0] <= self.beacon_interval[1] < math.inf:
            raise ConfigError(f"beacon_interval must satisfy 0 < min <= max < inf, got {self.beacon_interval!r}")
        if len(self.rsu_positions) > MAX_RSUS:
            raise ConfigError(f"rsu_positions must list at most {MAX_RSUS} units, got {len(self.rsu_positions)}")
        for pos in self.rsu_positions:
            if not (0 <= pos[0] <= self.grid[0] and 0 <= pos[1] <= self.grid[1]):
                raise ConfigError(f"rsu_positions entry {pos!r} outside the grid")
        positive("rsu_coverage_radius", self.rsu_coverage_radius)
        # The radio compares squared distances with the squared radius, and ``r ** 2`` on a float raises on
        # overflow. The transmission range is capped far below that.
        if not self.rsu_coverage_radius * self.rsu_coverage_radius < math.inf:
            raise ConfigError(f"rsu_coverage_radius is too large to square, got {self.rsu_coverage_radius!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        positive("pending_ttl", self.pending_ttl)
        positive("neighbor_ttl", self.neighbor_ttl)
        positive("suspicion_ttl", self.suspicion_ttl)
        positive("broadcast_period", self.broadcast_period)
        positive("rrl_request_period", self.rrl_request_period)
        non_negative("event_rate_per_min", self.event_rate_per_min)
        positive("sensing_radius", self.sensing_radius)
        non_negative("witness_count", self.witness_count)
        non_negative("warning_jitter", self.warning_jitter)
        non_negative("ranging_noise_sigma", self.ranging_noise_sigma)
        non_negative("ranging_noise_per_meter", self.ranging_noise_per_meter)
        non_negative("corroboration_tolerance_m", self.corroboration_tolerance_m)
        non_negative("trusted_anchors", self.trusted_anchors)
        non_negative("flagged_anchors", self.flagged_anchors)
        if self.trusted_anchors + self.flagged_anchors > MAX_ANCHORS:
            raise ConfigError(
                f"trusted_anchors + flagged_anchors must be <= {MAX_ANCHORS},"
                f" got {self.trusted_anchors} + {self.flagged_anchors}"
            )
        for name in ("initial_points", "anchor_top_points", "anchor_low_points"):
            points = getattr(self, name)
            non_negative(name, points)
            if points > MAX_POINTS:
                raise ConfigError(f"{name} must be <= {MAX_POINTS} (2**62), got {points!r}")
        if not self.duration + self.pending_ttl <= MAX_TIME_S:
            raise ConfigError(
                f"duration + pending_ttl must be <= {MAX_TIME_S:.0f} s (2**32),"
                f" got {self.duration!r} + {self.pending_ttl!r}"
            )
        per_s = (
            1.0 / self.beacon_interval[0]
            + 1.0 / self.broadcast_period
            + self.event_rate_per_min / 60.0
            + self.attacker_count * self.attacker_rate
        )
        scheduled = self.duration * per_s
        if not scheduled <= MAX_SCHEDULED_EVENTS:
            raise ConfigError(
                f"the run would schedule {scheduled:.3g} events, over the ceiling of {MAX_SCHEDULED_EVENTS}:"
                " shorten duration or lower a rate"
            )
        # Both are counted in beacon rounds, and may span no more rounds than a run may schedule events.
        for name in ("neighbor_ttl", "rrl_request_period"):
            if not getattr(self, name) / self.beacon_interval[0] <= MAX_SCHEDULED_EVENTS:
                raise ConfigError(
                    f"{name} must span at most {MAX_SCHEDULED_EVENTS} beacon intervals, got {getattr(self, name)!r}"
                )

    def canonical_hash(self) -> str:
        """Seed-independent digest identifying the scenario."""
        payload = dataclasses.asdict(self)
        payload.pop("seed")
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def parse_scenario_text(text: str, source: str = "<scenario>") -> dict:
    """Parse scenario key/value text into a field-override mapping; each key may be set once."""
    overrides: dict = {}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown scenario field: {key}")
        if key in set_on:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key} (first set on line {set_on[key]})")
        set_on[key] = lineno
        try:
            overrides[key] = _PARSERS[_FIELD_TYPES[key]](value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from exc
    return overrides


def _parse_bool(value: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected boolean, got {value!r}")


def _parse_pair(value: str) -> tuple[float, float]:
    parts = [float(p) for p in value.split()]
    if len(parts) != 2:
        raise ValueError(f"expected two numbers, got {value!r}")
    return (parts[0], parts[1])


def _parse_positions(value: str) -> tuple[tuple[float, float], ...]:
    parts = [float(p) for p in value.split()]
    if len(parts) % 2:
        raise ValueError(f"expected an even number of coordinates, got {value!r}")
    return tuple((parts[i], parts[i + 1]) for i in range(0, len(parts), 2))


# One parser per field type; a field's annotation picks its parser.
_PARSERS = {
    int: int,
    float: float,
    str: str,
    bool: _parse_bool,
    tuple[float, float]: _parse_pair,
    tuple[tuple[float, float], ...]: _parse_positions,
}
_FIELD_TYPES = typing.get_type_hints(ScenarioConfig)


def load_scenario_file(path: Path | str) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")  # a leading byte-order mark is not part of the first key
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
    return parse_scenario_text(text, source=str(path))


def make_config(overrides: dict) -> ScenarioConfig:
    """Build and validate a config from field overrides on top of defaults."""
    unknown = overrides.keys() - _FIELD_TYPES.keys()
    if unknown:
        raise ConfigError(f"unknown scenario field: {sorted(unknown)[0]}")
    config = ScenarioConfig(**overrides)
    config.validate()
    return config

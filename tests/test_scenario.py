"""Scenario file parsing and config hashing."""

import dataclasses
import math

import numpy as np
import pytest

from irsim.protocol import encode_rrl_broadcast
from irsim.scenario import (
    MAX_ANCHORS,
    MAX_GRID_M,
    MAX_LANES_PER_DIRECTION,
    MAX_POINTS,
    MAX_RSUS,
    MAX_SCHEDULED_EVENTS,
    MAX_SPEED,
    MAX_TIME_S,
    MAX_TRANSMISSION_RANGE,
    MAX_VEHICLES,
    ConfigError,
    ScenarioConfig,
    make_config,
    parse_scenario_text,
)
from irsim.sim import build_scenario, run


class TestParser:
    def test_pairs_and_positions(self):
        text = """
        grid = 2000 800
        speed_range = 10 30
        rsu_positions = 250 400 750 400
        strict_top_heuristic = true
        attacker_profile = far-event-claim
        """
        overrides = parse_scenario_text(text)
        assert overrides["grid"] == (2000.0, 800.0)
        assert overrides["speed_range"] == (10.0, 30.0)
        assert overrides["rsu_positions"] == ((250.0, 400.0), (750.0, 400.0))
        assert overrides["strict_top_heuristic"] is True
        assert overrides["attacker_profile"] == "far-event-claim"

    def test_comments_and_blanks(self):
        overrides = parse_scenario_text("# header\n\nvehicle_count = 5  # inline\n")
        assert overrides == {"vehicle_count": 5}

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="line.cfg:2"):
            parse_scenario_text("vehicle_count = 5\nbogus line\n", source="line.cfg")

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match="duration"):
            parse_scenario_text("duration = soon\n")
        with pytest.raises(ConfigError, match="strict_top_heuristic"):
            parse_scenario_text("strict_top_heuristic = maybe\n")

    def test_odd_coordinate_count(self):
        with pytest.raises(ConfigError):
            parse_scenario_text("rsu_positions = 100 200 300\n")


# A valid value other than the default for every ScenarioConfig field.
NON_DEFAULTS = dict(
    grid=(1200.0, 900.0),
    duration=42.5,
    vehicle_count=17,
    attacker_count=3,
    attacker_profile="conflicting-info",
    attacker_rate=0.25,
    lanes_per_direction=2,
    speed_range=(12.5, 30.0),
    transmission_range=250.0,
    delivery_loss_probability=0.1,
    beacon_interval=(0.1, 0.3),
    rsu_positions=((100.0, 450.0), (900.0, 450.0)),
    rsu_coverage_radius=400.0,
    seed=7,
    pending_ttl=1.5,
    neighbor_ttl=2.0,
    suspicion_ttl=20.0,
    broadcast_period=0.5,
    rrl_request_period=2.0,
    event_rate_per_min=6.0,
    sensing_radius=150.0,
    witness_count=2,
    warning_jitter=0.25,
    ranging_noise_sigma=2.0,
    ranging_noise_per_meter=0.1,
    corroboration_tolerance_m=15.0,
    initial_points=4,
    trusted_anchors=1,
    flagged_anchors=3,
    anchor_top_points=12,
    anchor_low_points=2,
    strict_top_heuristic=True,
)


def as_text(value) -> str:
    """A field value in scenario-file syntax."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(as_text(v) for v in value)
    return str(value)


class TestFileRoundTrip:
    def test_every_field_survives_text(self):
        defaults = ScenarioConfig()
        names = [f.name for f in dataclasses.fields(ScenarioConfig)]
        assert sorted(NON_DEFAULTS) == sorted(names)
        for name in names:
            assert NON_DEFAULTS[name] != getattr(defaults, name), name
        expected = ScenarioConfig(**NON_DEFAULTS)
        text = "".join(f"{name} = {as_text(getattr(expected, name))}\n" for name in names)
        parsed = make_config(parse_scenario_text(text))
        assert parsed == expected
        for name in names:
            assert type(getattr(parsed, name)) is type(getattr(expected, name)), name

    def test_no_rsu_survives_text(self):
        assert parse_scenario_text("rsu_positions =\n") == {"rsu_positions": ()}
        expected = ScenarioConfig(rsu_positions=())
        parsed = make_config(parse_scenario_text(f"rsu_positions = {as_text(expected.rsu_positions)}\n"))
        assert parsed == expected


class TestMakeConfig:
    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="lane_count"):
            make_config({"lane_count": 4})

    def test_validation_runs(self):
        with pytest.raises(ConfigError, match="attacker_profile"):
            make_config({"attacker_profile": "ghost"})

    def test_round_trip_defaults(self):
        config = make_config({})
        assert config == ScenarioConfig()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"duration": math.inf},
            {"duration": math.nan},
            {"transmission_range": math.nan},
            {"attacker_rate": math.inf},
            {"beacon_interval": (0.1, math.inf)},
            {"pending_ttl": math.inf},
        ],
        ids=["duration-inf", "duration-nan", "tx-range-nan", "attacker-rate-inf", "beacon-inf", "pending-ttl-inf"],
    )
    def test_non_finite_rejected(self, overrides):
        (name,) = overrides
        with pytest.raises(ConfigError, match=name):
            make_config(overrides)

    # Channel.ranging_errors scales its unit normals by these terms and checks no sign: the noise scale
    # is never negative, nan or infinite only because validation holds these two fields to finite and >= 0.
    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    @pytest.mark.parametrize("name", ["ranging_noise_sigma", "ranging_noise_per_meter"])
    def test_ranging_noise_terms_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            make_config({name: value})

    @pytest.mark.parametrize("line", ["speed_range = 15 inf", "event_rate_per_min = inf"])
    def test_non_finite_from_text_rejected(self, line):
        with pytest.raises(ConfigError, match=line.split()[0]):
            make_config(parse_scenario_text(line + "\n"))



class TestScheduleCeiling:
    def test_ceiling_is_inclusive(self):
        # 10 beacon rounds and 1 ledger tick per second; no hazards or attacks.
        rates = {"event_rate_per_min": 0.0, "attacker_count": 0}
        at = MAX_SCHEDULED_EVENTS / 11
        make_config({**rates, "duration": at})
        with pytest.raises(ConfigError, match="ceiling of 1000000"):
            make_config({**rates, "duration": at * 1.001})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"duration": 1e9},
            {"beacon_interval": (1e-9, 1e-9)},
            {"broadcast_period": 1e-300},
            {"event_rate_per_min": 1e12},
            {"vehicle_count": 10, "attacker_count": 10, "attacker_rate": 1e5},
        ],
        ids=["duration", "beacon-interval", "broadcast-period", "event-rate", "attacker-rate"],
    )
    def test_each_term_counts(self, overrides):
        with pytest.raises(ConfigError, match="events, over the ceiling"):
            make_config(overrides)


class TestSizeCeilings:
    def test_vehicle_ceiling_is_inclusive(self):
        # Validation only: no world is built, so nothing n x n is allocated.
        assert MAX_VEHICLES >= 5000
        make_config({"vehicle_count": MAX_VEHICLES})
        with pytest.raises(ConfigError, match="vehicle_count must be <= "):
            make_config({"vehicle_count": MAX_VEHICLES + 1})

    def test_anchor_ceiling_is_inclusive(self):
        # The cap is on the sum; the stock scenario's 2 + 2 anchors are far below it.
        assert MAX_ANCHORS >= 1000
        make_config({"trusted_anchors": MAX_ANCHORS, "flagged_anchors": 0})
        make_config({"trusted_anchors": 0, "flagged_anchors": MAX_ANCHORS})
        for trusted, flagged in ((MAX_ANCHORS + 1, 0), (1, MAX_ANCHORS), (MAX_ANCHORS // 2 + 1, MAX_ANCHORS // 2)):
            with pytest.raises(ConfigError, match=f"trusted_anchors \\+ flagged_anchors must be <= {MAX_ANCHORS}"):
                make_config({"trusted_anchors": trusted, "flagged_anchors": flagged})

    def test_rsu_ceiling_is_inclusive(self):
        # Validation only: no world is built, so no unit copies a ledger.
        assert MAX_RSUS >= 60  # one unit per km on the road of MAX_VEHICLES vehicles at 10 m each
        grid = {"grid": (float(MAX_RSUS), 1000.0)}
        make_config({**grid, "rsu_positions": tuple((float(k), 500.0) for k in range(MAX_RSUS))})
        with pytest.raises(ConfigError, match=f"rsu_positions must list at most {MAX_RSUS} units, got {MAX_RSUS + 1}"):
            make_config({**grid, "rsu_positions": tuple((float(k), 500.0) for k in range(MAX_RSUS + 1))})

    @pytest.mark.parametrize("name", ["initial_points", "anchor_top_points", "anchor_low_points"])
    def test_point_ceiling_is_inclusive(self, name):
        make_config({name: MAX_POINTS})
        with pytest.raises(ConfigError, match=f"{name} must be <= {MAX_POINTS}"):
            make_config({name: MAX_POINTS + 1})

    def test_lane_and_range_ceilings_are_inclusive(self):
        make_config({"lanes_per_direction": MAX_LANES_PER_DIRECTION})
        with pytest.raises(ConfigError, match=f"lanes_per_direction must be <= {MAX_LANES_PER_DIRECTION}"):
            make_config({"lanes_per_direction": MAX_LANES_PER_DIRECTION + 1})
        make_config({"transmission_range": MAX_TRANSMISSION_RANGE})
        with pytest.raises(ConfigError, match="transmission_range must be <= 10000 m"):
            make_config({"transmission_range": math.nextafter(MAX_TRANSMISSION_RANGE, math.inf)})

    def test_grid_and_speed_ceilings_are_inclusive(self):
        over = math.nextafter(MAX_GRID_M, math.inf)
        for grid in ((over, 1000.0), (1000.0, over)):
            with pytest.raises(ConfigError, match="grid sides must be <= 1e\\+07 m"):
                make_config({"grid": grid})
        with pytest.raises(ConfigError, match="speed_range max must be <= 1000 m/s"):
            make_config({"speed_range": (1.0, math.nextafter(MAX_SPEED, math.inf))})
        # A run at both ceilings keeps every vehicle on the grid (numpy overflow warnings fail tier-1).
        at = {"grid": (MAX_GRID_M, MAX_GRID_M), "speed_range": (MAX_SPEED, MAX_SPEED), "rsu_positions": ((0.0, 0.0),)}
        world = build_scenario(make_config({**at, "vehicle_count": 4, "attacker_count": 1, "duration": 2.0}))
        run(world)
        x = world.x_at(2.0)
        assert np.all((0.0 <= x) & (x < MAX_GRID_M))

    @pytest.mark.parametrize("name", ["neighbor_ttl", "rrl_request_period"])
    def test_round_counted_spans_are_capped(self, name):
        # Both are counted in beacon rounds of 0.1 s: at most MAX_SCHEDULED_EVENTS of them.
        make_config({name: MAX_SCHEDULED_EVENTS * 0.1})
        with pytest.raises(ConfigError, match=f"{name} must span at most {MAX_SCHEDULED_EVENTS} beacon intervals"):
            make_config({name: MAX_SCHEDULED_EVENTS * 0.1001})

    def test_time_ceiling_is_inclusive_and_the_final_expiry_ages_out_at_it(self):
        # At the ceiling the final expiry's 0.001 s still tells, so every held warning is resolved.
        at = {"duration": 2.0, "pending_ttl": MAX_TIME_S - 2.0}
        with pytest.raises(ConfigError, match=r"duration \+ pending_ttl must be <= 4294967296 s"):
            make_config({**at, "pending_ttl": at["pending_ttl"] + 0.001})
        cfg = make_config({**at, "vehicle_count": 4, "attacker_count": 4, "attacker_rate": 5.0, "seed": 0})
        result = run(build_scenario(cfg))
        assert result.report.pending_resolved > 0

    def test_ledger_at_the_point_ceiling_encodes(self):
        # A row's points are a signed 64-bit field; a run adds at most one point per confirmed report.
        overrides = {"initial_points": MAX_POINTS, "anchor_top_points": MAX_POINTS, "anchor_low_points": MAX_POINTS}
        world = build_scenario(make_config({**overrides, "vehicle_count": 4, "attacker_count": 0, "duration": 1.0}))
        run(world)
        (rsu,) = world.rsus
        assert len(encode_rrl_broadcast(rsu.publish(1.0))) == 29 + 24 * len(rsu.ledger)


class TestHash:
    def test_seed_independent(self):
        a = dataclasses.replace(ScenarioConfig(), seed=1)
        b = dataclasses.replace(ScenarioConfig(), seed=2)
        assert a.canonical_hash() == b.canonical_hash()

    def test_sensitive_to_fields(self):
        a = ScenarioConfig()
        b = dataclasses.replace(ScenarioConfig(), vehicle_count=99)
        assert a.canonical_hash() != b.canonical_hash()

    def test_stable_value(self):
        # Hash must be stable across processes and versions (used in output paths).
        assert ScenarioConfig().canonical_hash() == "39cfcf851d5a"

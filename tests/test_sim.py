"""Simulator tests: determinism, radio model, mobility, attackers, replay."""

import math

import numpy as np
import pytest

from irsim import sim
from irsim.metrics import RunInfo, finalize, replay_event_log
from irsim.protocol import EventKind
from irsim.scenario import ConfigError, ScenarioConfig
from irsim.sim import attacker_emit, build_scenario, deliver, run


def small_config(**kw):
    base = dict(
        vehicle_count=20,
        duration=20.0,
        seed=1,
        attacker_count=2,
        attacker_rate=0.2,
        event_rate_per_min=12.0,
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestBuildScenario:
    def test_default_is_stock_highway(self):
        cfg = ScenarioConfig()
        assert cfg.grid == (1000.0, 1000.0)
        assert cfg.duration == 300.0
        assert cfg.vehicle_count == 100
        assert cfg.lanes_per_direction == 3
        assert cfg.transmission_range == 300.0
        world = build_scenario(cfg)
        lanes = {float(y) for y in world.lane_y}
        assert len(lanes) == 6
        assert set(np.unique(world.direction)) == {-1.0, 1.0}

    def test_zero_vehicles_completes_with_empty_metrics(self):
        cfg = ScenarioConfig(vehicle_count=0, duration=5.0)
        result = run(build_scenario(cfg))
        assert result.report.victims == 0
        assert result.report.histogram == {}
        assert len(result.decisions) == 0

    def test_all_attackers_no_victims(self):
        cfg = small_config(attacker_count=20)
        result = run(build_scenario(cfg))
        assert result.report.victims == 0

    def test_invalid_config_names_field(self):
        with pytest.raises(ConfigError, match="attacker_count"):
            build_scenario(ScenarioConfig(vehicle_count=3, attacker_count=5))
        with pytest.raises(ConfigError, match="delivery_loss_probability"):
            build_scenario(ScenarioConfig(delivery_loss_probability=1.5))
        with pytest.raises(ConfigError, match="speed_range"):
            build_scenario(ScenarioConfig(speed_range=(45.0, 15.0)))

    def test_attacker_count_respected(self):
        world = build_scenario(small_config(attacker_count=5))
        assert len(world.attacker_ids) == 5
        assert int(world.is_attacker.sum()) == 5


class TestDeterminism:
    def test_identical_runs_bit_identical(self):
        a = run(build_scenario(small_config()))
        b = run(build_scenario(small_config()))
        assert a.log_text() == b.log_text()
        assert a.report.deterministic_view() == b.report.deterministic_view()

    def test_different_seeds_differ(self):
        a = run(build_scenario(small_config(seed=1)))
        b = run(build_scenario(small_config(seed=2)))
        assert a.log_text() != b.log_text()

    def test_causality_and_time_order(self):
        result = run(build_scenario(small_config()))
        times = [float(line.split("\t")[0]) for line in result.log_lines]
        assert times == sorted(times)
        emitted = set()
        for line in result.log_lines:
            parts = line.split("\t")
            if parts[1] == "EMIT":
                emitted.add(parts[4])
            elif parts[1] == "DELIVER":
                assert parts[4] in emitted  # no delivery precedes its emission


class TestRadio:
    def test_beyond_range_never_delivers(self):
        rng = np.random.Generator(np.random.PCG64(0))
        assert deliver((0.0, 0.0), (301.0, 0.0), 300.0, 0.0, rng) is False

    def test_within_range_no_loss_always_delivers(self):
        rng = np.random.Generator(np.random.PCG64(0))
        assert deliver((0.0, 0.0), (299.0, 0.0), 300.0, 0.0, rng) is True

    def test_full_loss_never_delivers(self):
        rng = np.random.Generator(np.random.PCG64(0))
        assert all(
            deliver((0.0, 0.0), (1.0, 0.0), 300.0, 1.0, rng) is False for _ in range(100)
        )

    def test_invalid_range_rejected(self):
        rng = np.random.Generator(np.random.PCG64(0))
        with pytest.raises(ValueError):
            deliver((0.0, 0.0), (1.0, 0.0), 0.0, 0.0, rng)

    def test_monte_carlo_delivery_frequency(self):
        rng = np.random.Generator(np.random.PCG64(12345))
        trials = 100_000
        hits = sum(deliver((0.0, 0.0), (100.0, 0.0), 300.0, 0.3, rng) for _ in range(trials))
        assert abs(hits / trials - 0.7) <= 0.02

    def test_no_in_sim_delivery_beyond_range(self):
        result = run(build_scenario(small_config()))
        for line in result.log_lines:
            parts = line.split("\t")
            if parts[1] == "DELIVER":
                assert float(parts[7]) <= 300.0

    def test_total_loss_leaves_initial_state(self):
        cfg = small_config(delivery_loss_probability=1.0)
        world = build_scenario(cfg)
        result = run(world)
        assert len(result.decisions) == 0
        assert all(len(node.lrl) == 0 for node in world.nodes)
        assert all(node.cached_rrl is None for node in world.nodes)


class TestMobility:
    def test_positions_stay_in_grid(self):
        world = build_scenario(small_config())
        for t in np.linspace(0.0, 500.0, 60):
            pos = world.positions_at(float(t))
            assert np.all(pos[:, 0] >= 0.0) and np.all(pos[:, 0] <= 1000.0)
            assert np.all(pos[:, 1] >= 0.0) and np.all(pos[:, 1] <= 1000.0)

    def test_wraparound(self):
        cfg = small_config(vehicle_count=1, attacker_count=0)
        world = build_scenario(cfg)
        width = cfg.grid[0]
        x0, speed, dirn = world.x0[0], world.speed[0], world.direction[0]
        t = (width * 1.5) / speed  # one and a half laps
        expected = (x0 + dirn * speed * t) % width
        assert world.positions_at(t)[0, 0] == pytest.approx(expected)


class TestBeaconEquivalence:
    def test_fast_path_matches_per_beacon_handling(self):
        # The engine updates neighbor state with vectorized beacon rounds;
        # it must agree with recording every beacon one at a time.
        cfg = ScenarioConfig(
            vehicle_count=8,
            duration=2.0,
            seed=3,
            attacker_count=0,
            delivery_loss_probability=0.0,
            event_rate_per_min=0.0,
        )
        world = build_scenario(cfg)
        runner = sim._Runner(world)
        result = runner.run()
        assert result.report.histogram == {}

        # reference[receiver][sender] = (sender position, time heard)
        reference = [{} for _ in range(world.n)]
        round_times = [i * 0.1 for i in range(25) if i * 0.1 <= 2.0]
        for t in round_times:
            positions = world.positions_at(t)
            for s in range(world.n):
                for r in range(world.n):
                    if r == s:
                        continue
                    d = math.dist(positions[s], positions[r])
                    if d <= cfg.transmission_range:
                        reference[r][s] = ((float(positions[s][0]), float(positions[s][1])), t)

        now = 2.0
        for r in range(world.n):
            view = runner.neighbor_view(r, now)
            expected = {
                vid: (position, last_seen)
                for vid, (position, last_seen) in reference[r].items()
                if now - last_seen <= cfg.neighbor_ttl
            }
            assert set(view.ids) == set(expected)
            for vid in view.ids:
                assert runner.last_heard[r, vid] == expected[vid][1]
                assert view.position(vid) == pytest.approx(expected[vid][0], abs=1e-9)


class TestAttackers:
    def test_false_warning_fabricates_nearby_false_event(self):
        cfg = small_config(attacker_count=1, attacker_profile="false-warning")
        world = build_scenario(cfg)
        attacker = world.attacker_ids[0]
        warnings = attacker_emit(world, attacker, 5.0)
        assert len(warnings) == 1
        w = warnings[0]
        assert world.registry.events[w.event_id].truth is False
        pos = world.positions_at(5.0)[attacker]
        assert math.dist(pos, w.event_position) <= 100.0

    def test_far_event_claim_beyond_plausibility(self):
        cfg = small_config(attacker_count=1, attacker_profile="far-event-claim")
        world = build_scenario(cfg)
        attacker = world.attacker_ids[0]
        w = attacker_emit(world, attacker, 5.0)[0]
        pos = world.positions_at(5.0)[attacker]
        assert math.dist(pos, w.event_position) > cfg.transmission_range
        assert world.registry.events[w.event_id].truth is False

    def test_conflicting_info_contradicts_known_event(self):
        cfg = small_config(attacker_count=1, attacker_profile="conflicting-info")
        world = build_scenario(cfg)
        attacker = world.attacker_ids[0]
        event_id = world.registry.register(True, EventKind.CRASH, (400.0, 500.0), 1.0)
        world.known_true[attacker].append(event_id)
        w = attacker_emit(world, attacker, 2.0)[0]
        assert w.event_id == event_id
        assert w.event_kind is not EventKind.CRASH
        assert not world.registry.message_truth(w, cfg.corroboration_tolerance_m)
        # Each known event is altered at most once.
        assert attacker_emit(world, attacker, 3.0) == []

    def test_emission_rate_roughly_poisson(self):
        cfg = ScenarioConfig(
            vehicle_count=10,
            attacker_count=1,
            attacker_rate=0.5,
            duration=100.0,
            seed=5,
            event_rate_per_min=0.0,
        )
        world = build_scenario(cfg)
        result = run(world)
        attacker = world.attacker_ids[0]
        emitted = sum(
            1
            for line in result.log_lines
            if line.split("\t")[1] == "EMIT" and line.split("\t")[2] == str(attacker)
        )
        # Expect ~50; allow generous Poisson spread (4 sigma ~ 28).
        assert 22 <= emitted <= 78

    def test_every_warning_references_registered_event(self):
        result_world = build_scenario(small_config())
        result = run(result_world)
        for line in result.log_lines:
            parts = line.split("\t")
            if parts[1] == "EMIT":
                assert int(parts[4]) in result_world.registry.events

    @pytest.mark.parametrize("profile", ["false-warning", "conflicting-info", "far-event-claim"])
    def test_profiles_run_end_to_end(self, profile):
        cfg = small_config(
            vehicle_count=40, attacker_count=4, duration=40.0, attacker_profile=profile
        )
        world = build_scenario(cfg, "irs")
        result = run(world)
        attacker_ids = {str(v) for v in world.attacker_ids}
        attacker_warnings = [
            line for line in result.log_lines
            if line.split("\t")[1] == "EMIT" and line.split("\t")[2] in attacker_ids
        ]
        if profile != "conflicting-info":
            assert attacker_warnings  # alteration needs a heard true event first
        for line in attacker_warnings:
            warning_deliveries = [
                d for d in result.decisions.records
                if str(d.sender) in attacker_ids and d.event_id == int(line.split("\t")[4])
            ]
            assert all(not d.ground_truth for d in warning_deliveries)
        baseline = run(build_scenario(cfg, "accept-all"))
        assert result.report.victims <= baseline.report.victims


class TestVictimDirection:
    def test_irs_never_worse_than_accept_all(self):
        cfg = small_config(vehicle_count=40, attacker_count=4, duration=60.0)
        irs = run(build_scenario(cfg, "irs"))
        baseline = run(build_scenario(cfg, "accept-all"))
        assert irs.report.victims <= baseline.report.victims


class TestInterRsuForwarding:
    def test_misbehavers_propagate_between_units(self):
        cfg = small_config(
            vehicle_count=40,
            attacker_count=4,
            duration=60.0,
            rsu_positions=((300.0, 500.0), (700.0, 500.0)),
        )
        world = build_scenario(cfg, "irs")
        result = run(world)
        fwd_lines = [l for l in result.log_lines if l.split("\t")[1] == "FWD"]
        assert fwd_lines, "expected ledger digests to flow between roadside units"
        flagged_a = {v for v, r in world.rsus[0].entries.items() if r.misbehavior_points > 0}
        flagged_b = {v for v, r in world.rsus[1].entries.items() if r.misbehavior_points > 0}
        assert flagged_a and flagged_a == flagged_b  # both units converge
        # Every attacker ends up marked; honest vehicles may be swept in too
        # (expired lone warnings from far witnesses get reported).
        assert set(world.attacker_ids) <= flagged_a


class TestReplayEquivalence:
    def test_log_replay_reproduces_report(self):
        cfg = small_config()
        world = build_scenario(cfg)
        result = run(world)
        info = RunInfo(
            config_hash=cfg.canonical_hash(),
            seed=cfg.seed,
            pipeline="irs",
            benign=world.benign,
            range_m=cfg.transmission_range,
            extras=result.report.extras,
        )
        replayed = finalize(replay_event_log(result.log_lines, info), info)
        assert replayed.deterministic_view() == result.report.deterministic_view()

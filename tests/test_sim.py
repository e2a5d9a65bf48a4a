"""Simulator tests: determinism, radio model, mobility, attackers, replay."""

import dataclasses
import math
import struct
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from eager_beacons import EagerRunner
from hypothesis import given, settings, strategies as st
from neighbors import last_heard

from irsim import protocol, reputation, sim
from irsim.metrics import RunInfo, export, finalize, replay_event_log
from irsim.protocol import (
    BEACON_FORMAT,
    Disposition,
    EventKind,
    ProtocolConfig,
    RsuNode,
    _distance,
    encode_report,
    encode_rrl_broadcast,
    encode_warning,
)
from irsim.reputation import ReputationRecord, RsuReputationList
from irsim.scenario import ConfigError, ScenarioConfig
from irsim.sim import attacker_emit, build_scenario, run


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


def make_channel(range_m=300.0, loss=0.0, seed=0, rsus=()):
    return sim.Channel(range_m, loss, np.random.Generator(np.random.PCG64(seed)), rsus)


def delivered(channel, sender, receiver):
    """One directed transmission over ``channel``."""
    return bool(channel.hears(np.array([receiver]), sender)[0])


class TestRadio:
    def test_beyond_range_never_delivers(self):
        assert delivered(make_channel(), (0.0, 0.0), (301.0, 0.0)) is False

    def test_within_range_no_loss_always_delivers(self):
        assert delivered(make_channel(), (0.0, 0.0), (299.0, 0.0)) is True

    def test_full_loss_never_delivers(self):
        channel = make_channel(loss=1.0)
        assert all(delivered(channel, (0.0, 0.0), (1.0, 0.0)) is False for _ in range(100))

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            make_channel(range_m=0.0)

    def test_monte_carlo_delivery_frequency(self):
        channel = make_channel(loss=0.3, seed=12345)
        trials = 100_000
        hits = int(channel.hears(np.tile([100.0, 0.0], (trials, 1)), (0.0, 0.0)).sum())
        assert abs(hits / trials - 0.7) <= 0.02

    def test_radius_overrides_range(self):
        # Roadside units broadcast over their own coverage radius.
        channel = make_channel()
        assert delivered(channel, (0.0, 0.0), (400.0, 0.0)) is False
        assert channel.hears(np.array([[400.0, 0.0], [441.0, 0.0]]), (0.0, 0.0), 440.0).tolist() == [True, False]

    def test_one_draw_per_link(self):
        # One loss draw per link of the broadcast shape: receivers by row, senders by column.
        positions = np.array([[0.0, 0.0], [100.0, 0.0], [500.0, 0.0]])
        ok = make_channel().hears(positions[:, None, :], positions[None, :, :])
        assert ok.tolist() == [[True, True, False], [True, True, False], [False, False, True]]

    def test_no_in_sim_delivery_beyond_range(self):
        result = run(build_scenario(small_config()))
        for line in result.log_lines:
            parts = line.split("\t")
            if parts[1] == "DELIVER":
                assert float(parts[7]) <= 300.0

    @pytest.mark.parametrize("count", [0, 1])
    def test_shuffle_of_at_most_one_id_draws_nothing(self, count):
        # A beacon round with no vehicle past the pending TTL skips the shuffle; the bytes hold only
        # because a shuffle that short leaves the stream where it was.
        channel = make_channel(seed=5)
        twin = np.random.Generator(np.random.PCG64(5))
        assert channel.arrival_order(np.arange(count)).tolist() == list(range(count))
        assert channel.rng.random() == twin.random()

    def test_total_loss_leaves_initial_state(self):
        cfg = small_config(delivery_loss_probability=1.0)
        world = build_scenario(cfg)
        result = run(world)
        assert len(result.decisions) == 0
        assert all(len(node.lrl) == 0 for node in world.nodes)
        assert all(node.cached_rrl is None for node in world.nodes)


class TestRangingNoise:
    """``Channel.ranging_noise`` draws what ``rng.normal(0.0, sigma + per_m * ranging)`` draws."""

    @pytest.mark.parametrize("sigma,per_m", [(5.0, 0.0), (0.0, 0.25), (5.0, 0.25)], ids=["sigma", "per-m", "both"])
    def test_same_values_as_rng_normal(self, sigma, per_m):
        channel = make_channel(seed=7)
        twin = np.random.Generator(np.random.PCG64(7))
        noise = channel.ranging_noise(sigma, per_m)
        for ranging in np.random.default_rng(1).uniform(0.0, 450.0, 2000).tolist() + [0.0, 1e6]:
            assert noise(ranging) == float(twin.normal(0.0, sigma + per_m * ranging))
        # Both leave the stream at the same position.
        assert channel.rng.random() == twin.random()

    def test_both_terms_zero_means_no_noise(self):
        assert make_channel().ranging_noise(0.0, 0.0) is None

    def test_negative_scale_raises_like_rng_normal(self):
        channel = make_channel(seed=7)
        twin = np.random.Generator(np.random.PCG64(7))
        with pytest.raises(ValueError):
            twin.normal(0.0, 5.0 - 0.25 * 100.0)
        with pytest.raises(ValueError):
            channel.ranging_noise(5.0, 0.25)(-100.0)
        assert channel.rng.random() == twin.random()


@pytest.mark.parametrize(
    "overrides",
    [{}, {"rsu_positions": ((300.0, 500.0), (700.0, 500.0)), "beacon_interval": (0.1, 0.35)}],
    ids=["one-rsu", "two-rsus-jittered"],
)
class TestCounters:
    def test_each_counter_equals_its_log_line_count(self, overrides):
        result = run(build_scenario(small_config(**overrides), "irs"))
        kinds = Counter(line.split("\t")[1] for line in result.log_lines)
        extras = result.report.extras
        for counter, kind in (
            ("warning_deliveries", "DELIVER"),
            ("reports_delivered", "REPORT"),
            ("rrl_deliveries", "RRL"),
            ("warnings_emitted", "EMIT"),
        ):
            assert kinds[kind] > 0, kind
            assert extras[counter] == kinds[kind], counter

    def test_each_pending_delivery_settles_once(self, overrides):
        result = run(build_scenario(small_config(**overrides), "irs"))
        held, settled = Counter(), Counter()
        for line in result.log_lines:
            _t, kind, sender, receiver, event, decision, *_ = line.split("\t")
            if kind == "DELIVER" and decision == "pending":
                held[receiver, event, sender] += 1
            elif kind in ("RESOLVE", "EXPIRE"):
                settled[receiver, event, sender] += 1
        assert held and set(held.values()) == {1}
        assert settled == held

    def test_encoded_bytes_match_the_encoders(self, overrides, monkeypatch):
        # The simulator counts wire sizes from struct formats; each message it sends must encode to that size.
        sent = Counter()
        emit, tick, route = sim._Runner.emit_warning, RsuNode.tick, sim._Runner.route_report

        def counted(runner, kind, call, expected):
            before = runner.counters["encoded_bytes"]
            out = call()
            assert runner.counters["encoded_bytes"] - before == expected, kind
            sent[kind] += expected
            return out

        def emit_warning(self, warning, now):
            # Reports routed during the warning's deliveries add to the counter too, so only the total is checked.
            sent["warning"] += len(encode_warning(warning))
            return emit(self, warning, now)

        def route_report(self, reporter, report, now, positions):
            # Attackers do not take part in reporting, so their reports cost nothing on the wire.
            size = 0 if self.world.is_attacker[reporter] else len(encode_report(report))
            return counted(self, "report", lambda: route(self, reporter, report, now, positions), size)

        def rsu_tick(self, t):
            broadcast, forwards = tick(self, t)
            ledgers.append(len(encode_rrl_broadcast(broadcast)))
            return broadcast, forwards

        ledgers = []
        monkeypatch.setattr(sim._Runner, "emit_warning", emit_warning)
        monkeypatch.setattr(sim._Runner, "route_report", route_report)
        monkeypatch.setattr(RsuNode, "tick", rsu_tick)
        extras = run(build_scenario(small_config(**overrides), "irs")).report.extras
        assert sent["warning"] and sent["report"] and ledgers
        # Beacons are never encoded: each counts its struct format's size.
        beacon = struct.calcsize(BEACON_FORMAT)
        assert beacon == 56
        assert extras["channel_encoded_bytes"] == (
            sent["warning"] + sent["report"] + sum(ledgers) + beacon * extras["beacons_emitted"]
        )


class TestNearestRsu:
    @staticmethod
    def rsus(*xs):
        return [RsuNode(10_000 + k, (x, 0.0), 440.0, ProtocolConfig()) for k, x in enumerate(xs)]

    def test_closest_in_range_wins(self):
        rsus = self.rsus(0.0, 250.0, 900.0)
        assert make_channel(rsus=rsus).nearest_rsu((200.0, 0.0)) is rsus[1]

    def test_none_beyond_range(self):
        assert make_channel(rsus=self.rsus(0.0, 650.0)).nearest_rsu((325.0, 0.0)) is None
        assert make_channel().nearest_rsu((0.0, 0.0)) is None

    def test_tie_goes_to_first_in_list_order(self):
        rsus = self.rsus(100.0, 300.0)
        assert make_channel(rsus=rsus).nearest_rsu((200.0, 0.0)) is rsus[0]
        assert make_channel(rsus=rsus[::-1]).nearest_rsu((200.0, 0.0)) is rsus[1]

    @pytest.mark.parametrize("gap", [(300.0, 0.0), (180.0, 240.0)], ids=["on-axis", "diagonal"])
    def test_unit_exactly_at_range_counts(self, gap):
        # dx² + dy² == r² (90000 == 300² exactly) is in range, as in Channel.in_range_sq.
        rsu = RsuNode(10_000, (gap[0], gap[1]), 440.0, ProtocolConfig())
        assert make_channel(rsus=[rsu]).nearest_rsu((0.0, 0.0)) is rsu
        assert make_channel(range_m=299.999, rsus=[rsu]).nearest_rsu((0.0, 0.0)) is None

    @pytest.mark.parametrize("reach", [100.0, 300.0], ids=["inside", "at-range"])
    def test_three_way_tie_goes_to_first_listed(self, reach):
        places = [(200.0 - reach, 0.0), (200.0 + reach, 0.0), (200.0, reach)]
        rsus = [RsuNode(10_000 + k, p, 440.0, ProtocolConfig()) for k, p in enumerate(places)]
        for shift in range(3):
            order = rsus[shift:] + rsus[:shift]
            assert make_channel(rsus=order).nearest_rsu((200.0, 0.0)) is order[0]


class TestLedgerRequests:
    def test_rejected_response_is_neither_counted_nor_logged(self):
        cfg = small_config(
            vehicle_count=4, attacker_count=0, delivery_loss_probability=0.0, rsu_coverage_radius=1000.0
        )
        world = build_scenario(cfg)
        runner = sim._Runner(world)
        # Vehicle 0 holds a ledger newer than the roadside unit's broadcast, so it rejects that broadcast.
        newer = RsuReputationList({v: ReputationRecord(v, 5) for v in range(4)}, 10**6, 0)
        world.nodes[0].cached_rrl = newer
        runner.handle_rsu_tick(0.0, 0)
        rrl_lines = [line.split("\t") for line in runner.log if "\tRRL\t" in line]
        assert [p[3] for p in rrl_lines] == ["1", "2", "3"]
        assert runner.counters["rrl_deliveries"] == 3
        assert world.nodes[0].cached_rrl is newer


class TestHeldLedgersListEveryVehicle:
    """Only vehicles holding no ledger ask, because every held ledger lists every vehicle.

    Each roadside unit is seeded with every vehicle id, and no ledger ever
    drops an entry, so a held ledger can never cover under half of a
    vehicle's neighbors and ``handle_requests`` runs no staleness check. Any
    change that lets a held ledger miss a vehicle (vehicle churn,
    per-coverage registration) must bring a staleness check back.
    """

    @pytest.mark.parametrize(
        "kw",
        [
            {},
            {"rsu_positions": ((300.0, 500.0), (700.0, 500.0))},
            {"trusted_anchors": 0, "flagged_anchors": 0},
            {"beacon_interval": (0.1, 0.35)},
        ],
        ids=["one-rsu", "two-rsus", "no-anchors", "jittered-beacons"],
    )
    def test_only_vehicles_holding_no_ledger_ask(self, kw):
        n = 30
        cfg = small_config(vehicle_count=n, duration=12.0, attacker_count=4, attacker_rate=1.0, **kw)
        world = build_scenario(cfg)
        runner = sim._Runner(world)
        handle_requests = runner.handle_requests
        seen = Counter()

        def checked(t, positions):
            held = [node.cached_rrl for node in world.nodes]
            for rrl in held:
                assert rrl is None or rrl.entries.keys() >= set(range(n))
            start = len(runner.log)
            handle_requests(t, positions)
            asked = [int(line.split("\t")[2]) for line in runner.log[start:] if "\tREQ\t" in line]
            assert asked == [i for i, rrl in enumerate(held) if rrl is None]
            seen["rounds"] += 1
            seen["asked"] += len(asked)
            seen["held"] += n - len(asked)

        runner.handle_requests = checked
        result = runner.run()
        assert seen["rounds"] == 13
        assert seen["asked"] > 0 and seen["held"] > 0
        if "rsu_positions" in kw:
            assert any("\tFWD\t" in line for line in result.log_lines)


class TestLedgerBootstrap:
    def test_every_bootstrap_equals_a_per_record_copy(self):
        cfg = small_config(vehicle_count=30, duration=6.0, rsu_positions=((300.0, 500.0), (700.0, 500.0)))
        world = build_scenario(cfg)
        runner = sim._Runner(world)
        deliver_ledger = runner.deliver_ledger
        seeded = set()

        def checked(t, rsu, ids, broadcast):
            empty = [idx for idx in ids if len(world.nodes[idx].lrl) == 0]
            deliver_ledger(t, rsu, ids, broadcast)
            for idx in empty:
                lrl = world.nodes[idx].lrl
                if len(lrl) == 0:
                    continue
                # The points a per-entry bootstrap loop copies, in the same order.
                expected = [(vid, rec.points) for vid, rec in broadcast.rrl.entries.items() if vid != idx]
                assert list(lrl.entries.items()) == expected
                points = [pts for _, pts in expected]
                bands = lrl.trust_bands()
                assert (bands.min_points, bands.max_points) == (min(points), max(points))
                seeded.add(idx)

        runner.deliver_ledger = checked
        runner.run()
        assert seeded == set(range(cfg.vehicle_count))
        assert {line.split("\t")[2] for line in runner.log if "\tRRL\t" in line} == {"10000", "10001"}


class TestBandsBuiltAtPublication:
    def test_no_decision_computes_trust_bands(self, monkeypatch):
        # A published ledger carries its bands, so the trust decision only reads them.
        cfg = small_config(
            vehicle_count=30,
            duration=6.0,
            attacker_count=4,
            attacker_rate=2.0,
            rsu_positions=((300.0, 500.0), (700.0, 500.0)),
            beacon_interval=(0.1, 0.35),
        )
        deciding = [False]
        counts = Counter()
        compute = reputation.compute_trust_bands
        handle_warning = protocol.VehicleNode.handle_warning

        def counted_compute(points):
            counts["bands in a decision" if deciding[0] else "bands"] += 1
            return compute(points)

        def marked_decision(self, *args):
            counts["decisions"] += 1
            deciding[0] = True
            try:
                return handle_warning(self, *args)
            finally:
                deciding[0] = False

        monkeypatch.setattr(reputation, "compute_trust_bands", counted_compute)
        monkeypatch.setattr(protocol, "compute_trust_bands", counted_compute)
        monkeypatch.setattr(protocol.VehicleNode, "handle_warning", marked_decision)
        result = run(build_scenario(cfg))
        assert counts["bands in a decision"] == 0
        assert counts["decisions"] > 100 and counts["bands"] > 10
        assert any("\tFWD\t" in line for line in result.log_lines)


class TestPendingAgeOut:
    def test_accepted_warning_ages_out_in_the_first_round_past_the_ttl(self):
        # Vehicle 0 accepts at once, so it never holds a PENDING decision.
        cfg = small_config(vehicle_count=3, attacker_count=0, transmission_range=1000.0, rsu_positions=(),
                           delivery_loss_probability=0.0)
        world = build_scenario(cfg)
        runner = sim._Runner(world)
        runner.handle_round(0.0, 0)
        # Every vehicle heard every other in round 0.
        assert (last_heard(runner)[~np.eye(3, dtype=bool)] == 0.0).all()
        positions = world.positions_at(0.0)
        warning = sim.Warning(1, 1, EventKind.ICE, tuple(positions[1].tolist()), 0.0)
        heard = runner.heard(np.array([0]), warning, 0.0, positions)[0]
        runner.deliver_irs(0, warning, 0.0, "10.000", True, positions, heard)
        assert [r.decision for r in runner.decisions.records] == [Disposition.ACCEPT]
        runner.handle_round(2.0, 20)  # 2.0 s is not past the TTL
        assert 1 in world.nodes[0].pending
        runner.handle_round(2.1, 21)
        assert not world.nodes[0].pending

    def test_no_entry_outlives_the_ttl_by_more_than_a_round(self):
        cfg = small_config(vehicle_count=40, attacker_count=4, duration=40.0)
        world = build_scenario(cfg)
        runner = sim._Runner(world)
        handle_round = runner.handle_round

        def checked_round(t, index):
            handle_round(t, index)
            for node in world.nodes:
                assert all(t - p.first_seen <= cfg.pending_ttl for p in node.pending.values())
            assert runner.oldest_pending.tolist() == [node.oldest_pending for node in world.nodes]

        runner.handle_round = checked_round
        runner.run()


class TestSharedOutcomes:
    def test_shared_outcomes_stay_empty_and_every_result_holds_tuples(self, monkeypatch):
        results = []
        handle_warning, expire_pending = protocol.VehicleNode.handle_warning, protocol.VehicleNode.expire_pending

        def recorded(method):
            def wrapper(*args, **kwargs):
                outcome = method(*args, **kwargs)
                results.append(outcome)
                return outcome

            return wrapper

        monkeypatch.setattr(protocol.VehicleNode, "handle_warning", recorded(handle_warning))
        monkeypatch.setattr(protocol.VehicleNode, "expire_pending", recorded(expire_pending))
        cfg = small_config(rsu_positions=((300.0, 500.0), (700.0, 500.0)), beacon_interval=(0.1, 0.35))
        run(build_scenario(cfg, "irs"))
        shared = (protocol.IGNORED, protocol.REJECTED, protocol.ACCEPTED, protocol.PENDING)
        assert [(o.reports, o.finalized) for o in shared] == [((), ())] * 4
        assert [o.disposition for o in shared] == [None, Disposition.REJECT, Disposition.ACCEPT, Disposition.PENDING]
        assert {o.disposition for o in results} == {None, Disposition.REJECT, Disposition.ACCEPT, Disposition.PENDING}
        assert any(o.reports for o in results) and any(o.finalized for o in results)
        for outcome in results:
            assert type(outcome) is protocol.WarningOutcome
            assert type(outcome.reports) is tuple and type(outcome.finalized) is tuple
            assert all(type(r) is protocol.MisbehaviorReport for r in outcome.reports)


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


def warning_from(sender, event, now):
    """A warning from ``sender`` about a fresh event at ``event``, sent at ``now``."""
    return sim.Warning(sender, 1, EventKind.ICE, event, now)


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

        now, n = 2.0, world.n
        for r in range(n):
            expected = {
                vid: (position, last_seen)
                for vid, (position, last_seen) in reference[r].items()
                if now - last_seen <= cfg.neighbor_ttl
            }
            positions = world.positions_at(now)
            facts = {
                s: runner.heard(np.array([r]), warning_from(s, (500.0, 500.0), now), now, positions)[0]
                for s in range(n)
            }
            assert {s for s, heard in facts.items() if heard is not None} == set(expected)
            for vid in expected:
                assert last_heard(runner)[r, vid] == expected[vid][1]
                assert facts[vid].sender == pytest.approx(expected[vid][0], abs=1e-9)

    @pytest.mark.parametrize("lanes", [1, 3])
    @pytest.mark.parametrize("interval", [(0.1, 0.1), (0.1, 0.35)], ids=["fixed", "jittered"])
    @pytest.mark.parametrize("loss", [0.0, 0.3])
    def test_heard_matches_per_receiver_reference(self, lanes, interval, loss):
        # Every (receiver, sender) pair's beacon facts equal a reference built from last_heard alone,
        # at the stock neighbor TTL and at TTLs that are not a multiple of the round interval, shorter
        # than one round, and longer than the run (the round ring then holds every round).
        seen_at = {}
        for ttl in (1.5, 0.37, 0.05, 10.0):
            cfg = ScenarioConfig(
                grid=(500.0, 1000.0),  # short enough that vehicles wrap between a beacon and a warning
                vehicle_count=16,
                duration=4.0,
                seed=5,
                attacker_count=0,
                lanes_per_direction=lanes,
                beacon_interval=interval,
                delivery_loss_probability=loss,
                event_rate_per_min=0.0,
                rsu_positions=(),
                neighbor_ttl=ttl,
            )
            seen_at[ttl] = self.check_heard(cfg)
        assert all(seen[k] for seen in seen_at.values() for k in ("boundary", "stale", "unheard")), seen_at
        # Only a TTL of many rounds leaves time for a vehicle to wrap between its beacon and the warning.
        assert seen_at[1.5]["wrapped"] and seen_at[10.0]["wrapped"], seen_at

    @staticmethod
    def check_heard(cfg):
        """Compare ``_Runner.heard`` with the reference for every pair; count the kinds of pair seen."""
        ttl, width, n = cfg.neighbor_ttl, cfg.grid[0], cfg.vehicle_count

        def runner_at(now, config=cfg):
            # The first 31 rounds, up to ``now``: those a run has made when a warning comes at ``now``.
            runner = sim._Runner(build_scenario(config))
            assert runner.ring == min(int(config.neighbor_ttl / 0.1) + 3, int(config.duration / 0.1) + 2)
            for index in range(31):
                if index * 0.1 <= now:
                    runner.handle_round(index * 0.1, index)
            return runner

        # The reference's beacon times come from a runner that keeps every round: the neighbor TTL
        # changes no beacon, only how many rounds the ring holds.
        every_round = dataclasses.replace(cfg, neighbor_ttl=cfg.duration)

        # The last round, and times that put some beacon exactly on the TTL boundary.
        times = last_heard(runner_at(math.inf, every_round)).tolist()
        beacon_times = sorted({t for row in times for t in row if t > -math.inf and (t + ttl) - ttl == t})
        nows = [3.0] + [t + ttl for t in beacon_times[-2:]]
        seen = Counter()
        for now in nows:
            runner = runner_at(now)
            world, times = runner.world, last_heard(runner_at(now, every_round)).tolist()

            def where(v, t):
                x = (float(world.x0[v]) + float(world.direction[v]) * float(world.speed[v]) * t) % width
                return (x, float(world.lane_y[v]))

            def reference(r, event):
                # Receiver r's fresh neighbors, where each last beaconed, and the nearest and farthest.
                fresh = [v for v in range(n) if v != r and times[r][v] >= now - ttl]
                at = {v: where(v, times[r][v]) for v in fresh}
                nearest = min(fresh, key=lambda v: _distance(at[v], event), default=None)
                farthest = max(fresh, key=lambda v: _distance(at[v], event), default=None)
                return at, at.get(nearest), at.get(farthest)

            events = [(0.0, 500.0), (width, 497.0), (width / 2, 506.0)] + [where(v, now) for v in (0, 5, 10, 15)]
            for event in events:
                references = [reference(r, event) for r in range(n)]
                for s in range(n):
                    receivers = np.array([r for r in range(n) if r != s])
                    facts = runner.heard(receivers, warning_from(s, event, now), now, world.positions_at(now))
                    for r, heard in zip(receivers.tolist(), facts):
                        at, near, far = references[r]
                        if s not in at:
                            assert heard is None, (r, s, event, now)
                        else:
                            assert (heard.receiver, heard.sender) == (where(r, now), at[s]), (r, s, event, now)
                            assert heard.extremes() == (near, far), (r, s, event, now)
                        if heard is None:
                            seen["stale" if times[r][s] > -math.inf else "unheard"] += 1
                            continue
                        seen["boundary"] += times[r][s] == now - ttl
                        seen["wrapped"] += bool(world.direction[s] * (where(s, now)[0] - heard.sender[0]) < 0)
        return seen

    @pytest.mark.parametrize("interval", [0.1, 0.07])
    def test_first_fresh_round_matches_a_scan(self, interval):
        # The first round whose time, index * interval, is at least now - ttl: the quotient the search
        # starts from rounds both ways near a round time, so nows a few ulps off each one are checked.
        cfg = small_config(vehicle_count=2, attacker_count=0, beacon_interval=(interval, interval))
        runner = sim._Runner(build_scenario(cfg))
        for index in range(300):
            now = index * interval + cfg.neighbor_ttl
            for _ in range(4):
                for t in (now, math.nextafter(now, -math.inf), math.nextafter(now, math.inf)):
                    expected = next(k for k in range(index + 3) if k * interval >= t - cfg.neighbor_ttl)
                    assert runner.first_fresh_round(t) == expected, (t, expected)
                now = math.nextafter(now, math.inf)
        assert runner.first_fresh_round(0.0) == 0

    @pytest.mark.parametrize("kind", [EventKind.ICE, EventKind.CRASH], ids=["consistent", "conflicting"])
    def test_receiver_holding_the_event_gets_no_facts(self, kind):
        # A copy of an event the receiver already holds takes the repeat path, which reads no beacon
        # facts: heard gives None, and the decision and its DELIVER line are those the facts would give.
        cfg = small_config(vehicle_count=6, attacker_count=0, transmission_range=1000.0, rsu_positions=(),
                           delivery_loss_probability=0.0)
        outputs = []
        for pass_facts in (False, True):
            world = build_scenario(cfg)
            runner = sim._Runner(world)
            runner.handle_round(0.0, 0)
            # Every vehicle heard every other in round 0.
            assert (last_heard(runner)[~np.eye(6, dtype=bool)] == 0.0).all()
            positions = world.positions_at(0.0)
            first = sim.Warning(1, 1, EventKind.ICE, tuple(positions[1].tolist()), 0.0)
            second = sim.Warning(2, 1, kind, first.event_position, 0.1)
            later = world.positions_at(0.1)
            facts = runner.heard(np.array([0]), second, 0.1, later)[0]
            assert facts is not None
            first_facts = runner.heard(np.array([0]), first, 0.0, positions)[0]
            runner.deliver_irs(0, first, 0.0, "10.000", True, positions, first_facts)
            assert 1 in world.nodes[0].pending
            held, other = runner.heard(np.array([0, 3]), second, 0.1, later)
            assert held is None and other is not None  # vehicle 3 does not hold the event
            runner.deliver_irs(0, second, 0.1, "12.000", True, positions, facts if pass_facts else None)
            outputs.append((runner.log, runner.decisions.records))
        assert len(outputs[0][0]) == 2 and outputs[0][0] == outputs[1][0]
        assert [r.decision for r in outputs[0][1]] == [r.decision for r in outputs[1][1]]

    @pytest.mark.parametrize("lanes", [1, 3])
    @pytest.mark.parametrize("interval", [(0.1, 0.1), (0.1, 0.35)], ids=["fixed", "jittered"])
    def test_last_heard_matches_scalar_range_test(self, lanes, interval):
        # Every round's last_heard equals a per-pair Channel.in_range_sq over the senders due in it. The
        # neighbor TTL is the whole run, so the ring holds every round and last_heard reaches back to 0.
        cfg = ScenarioConfig(
            vehicle_count=24,
            duration=3.0,
            seed=4,
            attacker_count=0,
            lanes_per_direction=lanes,
            beacon_interval=interval,
            delivery_loss_probability=0.0,
            event_rate_per_min=0.0,
            rsu_positions=(),
            neighbor_ttl=3.0,
        )
        world = build_scenario(cfg)
        runner = sim._Runner(world)
        channel = world.channel
        reference = np.full((world.n, world.n), -np.inf)
        next_tx = [0.0] * world.n
        beacon_iv = runner.beacon_iv.tolist()
        handle_round = runner.handle_round
        rounds = 0

        def checked_round(t, index):
            nonlocal rounds
            handle_round(t, index)
            positions = world.positions_at(t).tolist()
            for s in range(world.n):
                if next_tx[s] > t + 1e-9:
                    continue
                next_tx[s] += beacon_iv[s]
                for r in range(world.n):
                    dx, dy = positions[r][0] - positions[s][0], positions[r][1] - positions[s][1]
                    if r != s and channel.in_range_sq(dx, dy * dy):
                        reference[r, s] = t
            assert np.array_equal(last_heard(runner), reference)
            rounds += 1

        runner.handle_round = checked_round
        runner.run()
        assert rounds == 31
        assert len(set(world.lane_y.tolist())) == 2 * lanes
        heard = np.isfinite(reference)
        assert heard.any() and not heard.all()


class TestNeighborLookup:
    def test_one_lookup_per_top_decision(self, monkeypatch):
        # A lone decision looks up the nearest and farthest fresh neighbors once when it classifies its
        # sender TOP, and never otherwise; no lookup runs outside a lone decision.
        classify, extremes, handle_lone = protocol.classify_trust, sim._Runner.extremes, protocol.VehicleNode._handle_lone
        levels, lookups, decisions = [], [0], []

        def classify_spy(points, bands):
            levels.append(classify(points, bands))
            return levels[-1]

        def extremes_spy(self, *args):
            lookups[0] += 1
            return extremes(self, *args)

        def handle_lone_spy(self, *args):
            levels.clear()
            before = lookups[0]
            outcome = handle_lone(self, *args)
            decisions.append((tuple(levels), lookups[0] - before))
            return outcome

        monkeypatch.setattr(protocol, "classify_trust", classify_spy)
        monkeypatch.setattr(sim._Runner, "extremes", extremes_spy)
        monkeypatch.setattr(protocol.VehicleNode, "_handle_lone", handle_lone_spy)
        run(build_scenario(small_config(event_rate_per_min=300.0)))
        top = (reputation.TrustLevel.TOP,)
        assert sum(lv == top for lv, _ in decisions) >= 50
        assert any(lv and lv != top for lv, _ in decisions) and any(not lv for lv, _ in decisions)
        assert all(calls == (lv == top) for lv, calls in decisions)
        assert lookups[0] == sum(lv == top for lv, _ in decisions)

    def test_lookup_after_a_later_round_fails(self):
        # The lookup reads the position and due rings as the facts' round left them.
        cfg = small_config(vehicle_count=8, attacker_count=0, delivery_loss_probability=0.0,
                           transmission_range=1000.0, rsu_positions=())
        runner = sim._Runner(build_scenario(cfg))
        runner.handle_round(0.0, 0)
        positions = runner.world.positions_at(0.05)
        warning = warning_from(0, tuple(positions[0].tolist()), 0.05)
        heard = runner.heard(np.arange(1, 8), warning, 0.05, positions)
        assert all(h is not None for h in heard)
        heard[0].extremes()
        runner.handle_round(0.1, 1)
        with pytest.raises(RuntimeError, match="read after round 1"):
            heard[1].extremes()

    def test_tie_goes_to_lowest_id(self):
        # Vehicles v and v + 6 share a lane. Put 1 and 7 the same distance from the event on either
        # side of it, and 0 and 6 likewise, farther out: the lower id wins both ties.
        cfg = small_config(vehicle_count=8, attacker_count=0, rsu_positions=(), transmission_range=1000.0,
                           delivery_loss_probability=0.0)
        runner = sim._Runner(build_scenario(cfg))
        runner.handle_round(0.0, 0)  # every vehicle is due in round 0
        runner.round_x[0] = [50.0, 400.0, 300.0, 700.0, 650.0, 350.0, 950.0, 600.0]
        assert (last_heard(runner)[2, [0, 1, 3, 4, 5, 6, 7]] == 0.0).all()
        lane_y = runner.world.lane_y.tolist()
        event = (500.0, lane_y[1])
        (heard,) = runner.heard(np.array([2]), warning_from(1, event, 0.0), 0.0, runner.world.positions_at(0.0))
        assert heard.extremes() == ((400.0, lane_y[1]), (50.0, lane_y[0]))


class TestNoSelfPairs:
    @pytest.mark.parametrize("interval", [(0.1, 0.1), (0.1, 0.35)], ids=["all-due", "jittered"])
    def test_no_vehicle_hears_itself(self, interval):
        # Self-pairs are kept out by the lookup's receiver != sender mask, whatever the rings hold.
        cfg = small_config(
            grid=(200.0, 1000.0),
            vehicle_count=12,
            duration=3.0,
            attacker_count=0,
            beacon_interval=interval,
            delivery_loss_probability=0.0,
            event_rate_per_min=0.0,
            rsu_positions=(),
        )
        runner = sim._Runner(build_scenario(cfg))
        handle_round = runner.handle_round
        seen = Counter()

        def checked_round(t, index):
            seen["partial"] += bool((runner.next_tx > t + 1e-9).any())
            handle_round(t, index)
            assert (np.diagonal(last_heard(runner)) == -np.inf).all()
            seen["rounds"] += 1

        runner.handle_round = checked_round
        runner.run()
        assert seen["rounds"] == 31
        assert (seen["partial"] > 0) == (interval[1] > interval[0])
        # Every other pair is in range and lossless, so each was heard.
        assert (last_heard(runner)[~np.eye(cfg.vehicle_count, dtype=bool)] >= 0).all()


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
        event_id = world.registry.register(True, EventKind.CRASH, (400.0, 500.0))
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

    def test_every_ledger_holds_exactly_the_seeded_ids(self):
        # RsuNode reads both parties of a report from its ledger without inserting: seeding enters every
        # vehicle and anchor, and neither reports, escalations nor forwards add or drop an id.
        cfg = small_config(
            vehicle_count=40,
            attacker_count=4,
            duration=30.0,
            rsu_positions=((200.0, 500.0), (500.0, 500.0), (800.0, 500.0)),
        )
        world = build_scenario(cfg, "irs")
        anchors = range(sim.ANCHOR_ID_BASE, sim.ANCHOR_ID_BASE + cfg.trusted_anchors + cfg.flagged_anchors)
        seeded = set(range(cfg.vehicle_count)) | set(anchors)
        assert all(rsu.entries.keys() == seeded for rsu in world.rsus)
        result = run(world)
        assert any(l.split("\t")[1] == "FWD" for l in result.log_lines)
        assert any(r.misbehavior_points > 0 for r in world.rsus[1].entries.values() if r.vehicle < cfg.vehicle_count)
        assert all(rsu.entries.keys() == seeded for rsu in world.rsus)


class TestReplayEquivalence:
    # At seed 10 a delivery 119.99987 m away is logged as 120.000.
    @pytest.mark.parametrize("seed", [1, 10])
    def test_log_replay_reproduces_report(self, seed):
        cfg = small_config(seed=seed)
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


def splitmix64(z):
    """SplitMix64's step and output function on one Python int."""
    mask = 2**64 - 1
    z = (z + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


class TestKeyedBeaconLoss:
    """Each beacon link's loss is a keyed uniform of (key, round, sender, receiver), not a stream draw."""

    def test_uniform_is_two_splitmix_mixes(self):
        channel = make_channel()
        channel.beacon_key = np.uint64(2**64 - 1)
        links = [(0, 0, 1), (1, 3, 0), (7, 5999, 0), (2**31, 1, 5999)]
        expected = [
            (splitmix64(splitmix64(k ^ (2**64 - 1)) ^ (s << 32 | r)) >> 11) * 2.0**-53 for k, s, r in links
        ]
        rounds, senders, receivers = (list(column) for column in zip(*links))
        assert channel.beacon_uniform(rounds, senders, receivers).tolist() == expected
        assert expected == [0.4077623770414702, 0.37646650918085867, 0.48048815606155004, 0.8339031223179748]

    def test_key_comes_from_a_third_seed_child(self):
        # spawn(3) gives the same first two children as spawn(2), so the schedule and radio streams keep
        # their seeds; the third seeds the beacon key.
        world = build_scenario(small_config(seed=0))
        sched, chan = np.random.SeedSequence(0).spawn(2)
        assert world.channel.rng.bit_generator.state == np.random.PCG64(chan).state
        fresh = np.random.Generator(np.random.PCG64(sched))
        assert world.x0.tolist() == fresh.uniform(0.0, 1000.0, world.n).tolist()
        assert int(world.channel.beacon_key) == 16452687389592421897
        assert world.channel.beacon_uniform(0, 1, 2).tolist() == [0.924515066606247]

    def test_moments_and_kept_fraction(self):
        channel = make_channel(loss=0.3)
        channel.beacon_key = np.uint64(12345)
        rounds, senders, receivers = np.meshgrid(np.arange(100), np.arange(100), np.arange(100), indexing="ij")
        u = channel.beacon_uniform(rounds, senders, receivers)
        assert u.shape == (100, 100, 100) and 0.0 <= u.min() and u.max() < 1.0
        assert abs(u.mean() - 1 / 2) < 0.002
        assert abs(u.var() - 1 / 12) < 0.0005
        kept = channel.beacon_kept(rounds, senders, receivers)
        assert abs(kept.mean() - 0.7) < 0.003
        assert (kept == (u >= 0.3)).all()
        # A directed link: (s, r) and (r, s) draw apart.
        assert (u != u.transpose(0, 2, 1)).sum() == 100 * (100 * 100 - 100)

    def test_any_order_or_subset_of_links_gives_the_same_rounds(self):
        cfg = small_config(vehicle_count=30, delivery_loss_probability=0.3, beacon_interval=(0.1, 0.35),
                           event_rate_per_min=0.0, rsu_positions=())
        runner = sim._Runner(build_scenario(cfg))
        for index in range(25):
            runner.handle_round(index * 0.1, index)
        receivers, senders = np.divmod(np.arange(30 * 30), 30)
        kmin = runner.last_round - runner.ring + 1
        every = runner.last_heard_round(receivers, senders, kmin)
        assert (every >= 0).any() and (every == -1).any()
        rng = np.random.default_rng(7)
        for _ in range(20):
            links = rng.permutation(len(receivers))[: rng.integers(1, len(receivers) + 1)]
            assert runner.last_heard_round(receivers[links], senders[links], kmin).tolist() == every[links].tolist()


def _export_bytes(report):
    with tempfile.TemporaryDirectory() as tmp:
        return export(report, "json", Path(tmp) / "metrics.json").read_bytes()


@st.composite
def _small_configs(draw):
    n = draw(st.integers(2, 40))
    width = draw(st.sampled_from([500.0, 1000.0]))  # on the shorter road, vehicles wrap within a TTL
    positions = [(0.3 * width, 500.0), (0.7 * width, 500.0), (0.5 * width, 480.0)]
    return ScenarioConfig(
        grid=(width, 1000.0),
        vehicle_count=n,
        duration=draw(st.sampled_from([1.0, 2.5, 4.0])),
        seed=draw(st.integers(0, 2**32)),
        attacker_count=draw(st.integers(0, n // 4)),
        attacker_profile=draw(st.sampled_from(["false-warning", "conflicting-info", "far-event-claim"])),
        attacker_rate=0.5,
        lanes_per_direction=draw(st.sampled_from([1, 3])),
        delivery_loss_probability=draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5)),
        beacon_interval=draw(st.sampled_from([(0.1, 0.1), (0.1, 0.35)])),
        rsu_positions=tuple(positions[: draw(st.integers(0, 3))]),
        neighbor_ttl=draw(st.sampled_from([0.05, 0.37, 1.5, 10.0])),
        event_rate_per_min=120.0,
        ranging_noise_sigma=draw(st.sampled_from([0.0, 5.0])),
    )


class TestEagerReference:
    """The lazy beacon lookups give what the n x n rounds of ``EagerRunner`` give, byte for byte."""

    @settings(max_examples=50, deadline=None)
    @given(_small_configs())
    def test_same_bytes_and_same_last_heard_rounds(self, cfg):
        live = run(build_scenario(cfg))
        reference = EagerRunner(build_scenario(cfg))
        n = cfg.vehicle_count
        receivers, senders = np.divmod(np.arange(n * n), n)
        handle_round = reference.handle_round

        def checked_round(t, index):
            handle_round(t, index)
            # Every pair's last heard round in the rounds the ring holds, lazy against eager.
            oldest = max(0, index - reference.ring + 1)
            eager = np.where(reference.heard_round >= oldest, reference.heard_round, -1)
            lazy = reference.last_heard_round(receivers, senders, oldest).reshape(n, n)
            assert np.array_equal(lazy, eager), (index, cfg)

        reference.handle_round = checked_round
        expected = reference.run()
        assert live.log_text() == expected.log_text()
        assert _export_bytes(live.report) == _export_bytes(expected.report)


class TestMemory:
    def test_no_runner_array_holds_a_vehicle_pair_each(self):
        n = 300
        world = build_scenario(small_config(vehicle_count=n, attacker_count=30, duration=2.0))
        runner = sim._Runner(world)
        runner.run()
        arrays = [v for holder in (runner, world) for v in vars(holder).values() if isinstance(v, np.ndarray)]
        assert any(a is runner.round_x for a in arrays) and len(arrays) >= 8
        assert max(a.size for a in arrays) < n * n

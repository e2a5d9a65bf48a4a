"""Simulator tests: determinism, radio model, mobility, attackers, replay."""

import math
from collections import Counter

import numpy as np
import pytest

from irsim import sim
from irsim.metrics import RunInfo, finalize, replay_event_log
from irsim.protocol import Disposition, EventKind, Heard, ProtocolConfig, RsuNode, _distance
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
        # A beacon round is one n x n draw: receivers by row, senders by column.
        positions = np.array([[0.0, 0.0], [100.0, 0.0], [500.0, 0.0]])
        ok = make_channel().hears(positions[:, None, :], positions[None, :, :])
        assert ok.tolist() == [[True, True, False], [True, True, False], [False, False, True]]

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

        def checked(t, rsu, idx, broadcast):
            lrl = world.nodes[idx].lrl
            was_empty = len(lrl) == 0
            deliver_ledger(t, rsu, idx, broadcast)
            if not was_empty or len(lrl) == 0:
                return
            # The list the per-record bootstrap loop built, in the same order.
            expected = [
                (vid, ReputationRecord(vid, rec.points, 0, broadcast.timestamp))
                for vid, rec in broadcast.rrl.entries.items()
                if vid != idx
            ]
            assert list(lrl.entries.items()) == expected
            points = [rec.points for _, rec in expected]
            bands = lrl.trust_bands()
            assert (bands.min_points, bands.max_points) == (min(points), max(points))
            seeded.add(idx)

        runner.deliver_ledger = checked
        runner.run()
        assert seeded == set(range(cfg.vehicle_count))
        assert {line.split("\t")[2] for line in runner.log if "\tRRL\t" in line} == {"10000", "10001"}


class TestPendingAgeOut:
    def test_accepted_warning_ages_out_in_the_first_round_past_the_ttl(self):
        # Vehicle 0 accepts at once, so it never holds a PENDING decision.
        cfg = small_config(vehicle_count=3, attacker_count=0, transmission_range=1000.0, rsu_positions=())
        world = build_scenario(cfg)
        runner = sim._Runner(world)
        runner.handle_round(0.0, 0)
        runner.heard_round[:] = 0  # every vehicle heard every other in round 0
        positions = world.positions_at(0.0)
        warning = sim.Warning(1, 1, EventKind.ICE, tuple(positions[1].tolist()), 0.0)
        heard = runner.heard(np.array([0]), warning, 0.0)[0]
        runner.deliver_irs(0, warning, 0.0, 10.0, True, positions, heard)
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
            facts = {s: runner.heard(np.array([r]), warning_from(s, (500.0, 500.0), now), now)[0] for s in range(n)}
            assert {s for s, heard in facts.items() if heard is not None} == set(expected)
            for vid in expected:
                assert runner.last_heard[r, vid] == expected[vid][1]
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

        def runner_at(now):
            # The first 31 rounds, up to ``now``: those a run has made when a warning comes at ``now``.
            runner = sim._Runner(build_scenario(cfg))
            assert runner.ring == min(int(ttl / 0.1) + 3, int(cfg.duration / 0.1) + 2)
            for index in range(31):
                if index * 0.1 <= now:
                    runner.handle_round(index * 0.1, index)
            return runner

        # The last round, and times that put some beacon exactly on the TTL boundary.
        last_heard = runner_at(math.inf).last_heard.tolist()
        beacon_times = sorted({t for row in last_heard for t in row if t > -math.inf and (t + ttl) - ttl == t})
        nows = [3.0] + [t + ttl for t in beacon_times[-2:]]
        seen = Counter()
        for now in nows:
            runner = runner_at(now)
            world, last_heard = runner.world, runner.last_heard.tolist()

            def where(v, t):
                x = (float(world.x0[v]) + float(world.direction[v]) * float(world.speed[v]) * t) % width
                return (x, float(world.lane_y[v]))

            def reference(r, event):
                # Receiver r's fresh neighbors, where each last beaconed, and the nearest and farthest.
                fresh = [v for v in range(n) if v != r and last_heard[r][v] >= now - ttl]
                at = {v: where(v, last_heard[r][v]) for v in fresh}
                nearest = min(fresh, key=lambda v: _distance(at[v], event), default=None)
                farthest = max(fresh, key=lambda v: _distance(at[v], event), default=None)
                return at, at.get(nearest), at.get(farthest)

            events = [(0.0, 500.0), (width, 497.0), (width / 2, 506.0)] + [where(v, now) for v in (0, 5, 10, 15)]
            for event in events:
                references = [reference(r, event) for r in range(n)]
                for s in range(n):
                    receivers = np.array([r for r in range(n) if r != s])
                    facts = runner.heard(receivers, warning_from(s, event, now), now)
                    for r, heard in zip(receivers.tolist(), facts):
                        at, near, far = references[r]
                        expected = Heard(where(r, now), at[s], near, far) if s in at else None
                        assert heard == expected, (r, s, event, now)
                        if heard is None:
                            seen["stale" if last_heard[r][s] > -math.inf else "unheard"] += 1
                            continue
                        seen["boundary"] += last_heard[r][s] == now - ttl
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
        cfg = small_config(vehicle_count=6, attacker_count=0, transmission_range=1000.0, rsu_positions=())
        outputs = []
        for pass_facts in (False, True):
            world = build_scenario(cfg)
            runner = sim._Runner(world)
            runner.handle_round(0.0, 0)
            runner.heard_round[:] = 0  # every vehicle heard every other in round 0
            positions = world.positions_at(0.0)
            first = sim.Warning(1, 1, EventKind.ICE, tuple(positions[1].tolist()), 0.0)
            second = sim.Warning(2, 1, kind, first.event_position, 0.1)
            facts = runner.heard(np.array([0]), second, 0.1)[0]
            assert facts is not None
            runner.deliver_irs(0, first, 0.0, 10.0, True, positions, runner.heard(np.array([0]), first, 0.0)[0])
            assert 1 in world.nodes[0].pending
            held, other = runner.heard(np.array([0, 3]), second, 0.1)
            assert held is None and other is not None  # vehicle 3 does not hold the event
            runner.deliver_irs(0, second, 0.1, 12.0, True, positions, facts if pass_facts else None)
            outputs.append((runner.log, runner.decisions.records))
        assert len(outputs[0][0]) == 2 and outputs[0][0] == outputs[1][0]
        assert [r.decision for r in outputs[0][1]] == [r.decision for r in outputs[1][1]]

    @pytest.mark.parametrize("lanes", [1, 3])
    @pytest.mark.parametrize("interval", [(0.1, 0.1), (0.1, 0.35)], ids=["fixed", "jittered"])
    def test_last_heard_matches_scalar_range_test(self, lanes, interval):
        # Every round's last_heard equals a per-pair Channel.in_range over the senders due in it.
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
                    if r != s and channel.in_range(dx, dy):
                        reference[r, s] = t
            assert np.array_equal(runner.last_heard, reference)
            rounds += 1

        runner.handle_round = checked_round
        runner.run()
        assert rounds == 31
        assert len(set(world.lane_y.tolist())) == 2 * lanes
        heard = np.isfinite(reference)
        assert heard.any() and not heard.all()


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

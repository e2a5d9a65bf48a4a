"""Vehicle and roadside-unit state machine tests."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from neighbors import heard_from, last_heard

from irsim import sim
from irsim.protocol import (
    REJECTED,
    Disposition,
    EventKind,
    Heard,
    MisbehaviorReport,
    PendingState,
    RrlBroadcast,
    RsuForward,
    RsuNode,
    VehicleNode,
    Warning,
    WarningOutcome,
    _distance,
    encode_report,
    encode_rrl_broadcast,
    encode_warning,
)
from irsim.reputation import (
    HeuristicBand,
    LocalReputationList,
    RrlStanding,
    TrustLevel,
    classify_trust,
    compute_trust_bands,
    standing_of,
)
from irsim.scenario import ScenarioConfig


CFG = ScenarioConfig()

# Point spreads reproducing the worked ledger: sender 1 sits at the top,
# senders 5..8 at the bottom.
WORKED_POINTS = {1: 13, 2: 11, 3: 7, 4: 6, 5: 4, 6: 3, 7: 1, 8: 1}


class HandPlacedNode(VehicleNode):
    """A vehicle whose fresh neighbors a test places by hand; each warning gets the facts they give it."""

    def __init__(self, vid, config):
        super().__init__(vid, config)
        self.placed: dict = {}

    def handle_warning(self, warning, now):
        return super().handle_warning(warning, now, heard_from(self.placed, warning, receiver_id=self.id))


def make_node(vid=0, config=CFG):
    return HandPlacedNode(vid, config)


def seed_lrl(node, points_by_vehicle):
    for vid, pts in points_by_vehicle.items():
        node.lrl.upsert(vid, pts)


def make_rrl_broadcast(points_by_vehicle, version=1, issuer=9000, t=0.0):
    return RrlBroadcast(issuer, version, LocalReputationList(sorted(points_by_vehicle.items())), {}, t)


def hear(node, x_by_vehicle):
    """Add senders on the y = 0 line, at the given x, to ``node``'s fresh neighbors."""
    node.placed.update({vid: (float(x), 0.0) for vid, x in x_by_vehicle.items()})


def beacon_runner():
    """A lossless 8-vehicle world whose vehicles are all within radio range of each other."""
    config = ScenarioConfig(
        grid=(200.0, 1000.0),
        vehicle_count=8,
        duration=5.0,
        delivery_loss_probability=0.0,
        event_rate_per_min=0.0,
        rsu_positions=(),
    )
    return sim._Runner(sim.build_scenario(config))


def heard_one(runner, receiver, sender, now, event=(100.0, 500.0)):
    """The beacon facts ``receiver`` holds at ``now`` for a warning from ``sender``."""
    warning = Warning(sender, 1, EventKind.CRASH, event, now)
    return runner.heard(np.array([receiver]), warning, now, runner.world.positions_at(now))[0]


def run_rounds(runner, count):
    """Beacon rounds 0 .. count - 1, each at its time, index * 0.1 s."""
    for index in range(count):
        runner.handle_round(index * 0.1, index)


class TestBeacons:
    """The simulator's beacon rounds are the only source of a vehicle's beacon facts."""

    def test_new_sender_adds_entry(self):
        runner = beacon_runner()
        run_rounds(runner, 1)
        runner.round_due[0] = False
        runner.round_due[0, 5] = True  # only 5 beaconed in round 0, at t = 0, so vehicle 0 heard only 5
        heard = heard_one(runner, 0, 5, 0.0)
        assert heard is not None
        assert heard.sender == tuple(runner.world.positions_at(0.0)[5])

    def test_repeat_sender_updates_in_place(self):
        runner = beacon_runner()
        runner.handle_round(0.0, 0)
        runner.handle_round(0.1, 1)
        heard = heard_one(runner, 0, 5, 0.1)
        assert last_heard(runner)[0, 5] == 0.1
        assert heard.sender == tuple(runner.world.positions_at(0.1)[5])
        assert heard.sender != tuple(runner.world.positions_at(0.0)[5])

    def test_stale_entry_evicted_after_gap(self):
        runner = beacon_runner()
        run_rounds(runner, 21)
        assert runner.last_round - runner.ring + 1 == 3  # the ring holds rounds 3 .. 20
        runner.round_due[:] = False
        runner.round_due[3 % runner.ring, 5] = True
        runner.round_due[20 % runner.ring, 6] = True  # round 20 is at 2 s > 1.5 s TTL after 5's beacon at 0.3 s
        assert heard_one(runner, 0, 5, 2.0) is None
        heard = heard_one(runner, 0, 6, 2.0)
        # 6 is the only fresh neighbor, so it is both the nearest and the farthest.
        assert heard.extremes(0) == (heard.sender, heard.sender)
        assert heard.sender == tuple(runner.world.positions_at(2.0)[6])

    def test_own_beacon_ignored(self):
        runner = beacon_runner()
        runner.handle_round(0.0, 0)
        own = tuple(runner.world.positions_at(0.0)[3])
        assert heard_one(runner, 3, 3, 0.0, event=own) is None
        positions = runner.world.positions_at(0.0)
        senders = [s for s in range(runner.world.n) if s != 3]
        facts = [heard_one(runner, 3, s, 0.0, event=own) for s in senders]
        assert all(h is not None and h.sender == tuple(positions[s]) for s, h in zip(senders, facts))
        # An event where 3 stands: its nearest fresh neighbor is another vehicle.
        assert facts[0].extremes(3)[0] != own


class TestWarningPipeline:
    def _node_with_neighbors(self):
        node = make_node()
        seed_lrl(node, WORKED_POINTS)
        # Sender 1 close to the event, others spread out to the edge.
        hear(node, {1: 100.0, 2: 150.0, 3: 250.0, 4: 400.0})
        return node

    def test_top_sender_near_event_accepted(self):
        node = self._node_with_neighbors()
        warning = Warning(1, 42, EventKind.CRASH, (110.0, 0.0), 1.0)
        out = node.handle_warning(warning, 1.0)
        assert out.disposition is Disposition.ACCEPT
        assert out.reports == ()

    def test_corroboration_credits_everyone(self):
        node = self._node_with_neighbors()
        node.cached_rrl = None
        seed_lrl(node, {**WORKED_POINTS, 5: 4})
        # Put sender 5 in Low so its lone warning parks as pending.
        node.handle_rrl_broadcast(make_rrl_broadcast(WORKED_POINTS))
        hear(node, {5: 120.0})
        w1 = Warning(5, 77, EventKind.ICE, (115.0, 0.0), 1.0)
        out1 = node.handle_warning(w1, 1.0)
        assert out1.disposition is Disposition.PENDING

        before_5 = node.lrl.get(5)
        before_3 = node.lrl.get(3)
        w2 = Warning(3, 77, EventKind.ICE, (116.0, 0.0), 1.5)
        out2 = node.handle_warning(w2, 1.5)
        assert out2.disposition is Disposition.ACCEPT
        assert out2.reports == ()  # corroborated warnings never generate reports
        assert node.lrl.get(5) == before_5 + 1
        assert node.lrl.get(3) == before_3 + 1
        assert out2.finalized == ((5, 77, Disposition.ACCEPT),)

    def test_third_copy_credits_newcomer_only(self):
        node = self._node_with_neighbors()
        node.handle_rrl_broadcast(make_rrl_broadcast(WORKED_POINTS))
        hear(node, {5: 120.0})
        node.handle_warning(Warning(5, 77, EventKind.ICE, (115.0, 0.0), 1.0), 1.0)
        node.handle_warning(Warning(3, 77, EventKind.ICE, (116.0, 0.0), 1.5), 1.5)
        before_5 = node.lrl.get(5)
        before_2 = node.lrl.get(2)
        out3 = node.handle_warning(Warning(2, 77, EventKind.ICE, (117.0, 0.0), 1.6), 1.6)
        assert out3.disposition is Disposition.ACCEPT
        assert out3.finalized == ()
        assert node.lrl.get(2) == before_2 + 1
        assert node.lrl.get(5) == before_5  # no double credit

    def test_duplicate_from_same_sender_ignored(self):
        node = self._node_with_neighbors()
        node.handle_rrl_broadcast(make_rrl_broadcast(WORKED_POINTS))
        hear(node, {5: 120.0})
        node.handle_warning(Warning(5, 77, EventKind.ICE, (115.0, 0.0), 1.0), 1.0)
        out = node.handle_warning(Warning(5, 77, EventKind.ICE, (115.0, 0.0), 1.1), 1.1)
        assert out.disposition is None

    def test_conflicting_kind_penalized(self):
        node = self._node_with_neighbors()
        node.handle_warning(Warning(1, 42, EventKind.CRASH, (110.0, 0.0), 1.0), 1.0)
        before = node.lrl.get(2)
        out = node.handle_warning(Warning(2, 42, EventKind.ICE, (110.0, 0.0), 1.1), 1.1)
        assert out.disposition is Disposition.REJECT
        assert node.lrl.get(2) == before - 1
        assert out.reports == ()

    def test_conflicting_position_penalized(self):
        node = self._node_with_neighbors()
        node.handle_warning(Warning(1, 42, EventKind.CRASH, (110.0, 0.0), 1.0), 1.0)
        out = node.handle_warning(Warning(2, 42, EventKind.CRASH, (140.0, 0.0), 1.1), 1.1)
        assert out.disposition is Disposition.REJECT

    def test_consistent_within_tolerance_not_conflict(self):
        node = self._node_with_neighbors()
        node.handle_warning(Warning(1, 42, EventKind.CRASH, (110.0, 0.0), 1.0), 1.0)
        out = node.handle_warning(Warning(2, 42, EventKind.CRASH, (125.0, 0.0), 1.1), 1.1)
        assert out.disposition is Disposition.ACCEPT  # 15 m apart corroborates

    def test_far_sender_rejected_and_reported(self):
        node = self._node_with_neighbors()
        before = node.lrl.get(4)
        # Sender 4 last seen at x=400; claims an event 500 m away from there.
        out = node.handle_warning(Warning(4, 50, EventKind.CRASH, (900.0, 0.0), 1.0), 1.0)
        assert out.disposition is Disposition.REJECT
        assert len(out.reports) == 1
        assert out.reports[0].accused == 4
        assert out.reports[0].reporter == node.id
        assert node.lrl.get(4) == before - 1

    def test_low_flagged_goes_pending(self):
        node = self._node_with_neighbors()
        node.handle_rrl_broadcast(make_rrl_broadcast(WORKED_POINTS))
        hear(node, {7: 130.0})
        # Sender 7: local Low (1 point), network standing Flagged.
        assert standing_of(node.cached_rrl.rrl, 7) is RrlStanding.FLAGGED
        out = node.handle_warning(Warning(7, 60, EventKind.ICE, (120.0, 0.0), 1.0), 1.0)
        assert out.disposition is Disposition.PENDING
        assert 60 in node.pending
        assert node.pending[60].state is PendingState.AWAITING

    def test_low_watch_rejected_with_report(self):
        node = self._node_with_neighbors()
        rrl_points = dict(WORKED_POINTS)
        rrl_points[7] = 7  # Watch standing in the network ledger
        node.handle_rrl_broadcast(make_rrl_broadcast(rrl_points))
        hear(node, {7: 130.0})
        before = node.lrl.get(7)
        out = node.handle_warning(Warning(7, 60, EventKind.ICE, (120.0, 0.0), 1.0), 1.0)
        assert out.disposition is Disposition.REJECT
        assert len(out.reports) == 1
        assert node.lrl.get(7) == before - 1

    def test_unknown_sender_treated_most_pessimistic(self):
        node = self._node_with_neighbors()
        rrl_points = dict(WORKED_POINTS)
        rrl_points[99] = 13  # would be Clear if the standing were consulted kindly
        node.handle_rrl_broadcast(make_rrl_broadcast(rrl_points))
        # Sender 99 never sent a beacon: trust Low, heuristic Away.
        out = node.handle_warning(Warning(99, 61, EventKind.ICE, (120.0, 0.0), 1.0), 1.0)
        assert out.disposition is Disposition.REJECT
        assert len(out.reports) == 1

    def test_malformed_position_rejected(self):
        node = self._node_with_neighbors()
        out = node.handle_warning(Warning(1, 62, EventKind.ICE, (5000.0, 0.0), 1.0), 1.0)
        assert out.disposition is Disposition.REJECT
        out2 = node.handle_warning(Warning(1, 63, EventKind.ICE, (float("nan"), 0.0), 1.0), 1.0)
        assert out2.disposition is Disposition.REJECT

    W, H = 1000.0, 40.0  # a grid whose sides differ, so a swapped bound shows

    @pytest.mark.parametrize(
        "pos,ok",
        [
            *(((bad, 0.0), False) for bad in (math.nan, math.inf, -math.inf)),
            *(((0.0, bad), False) for bad in (math.nan, math.inf, -math.inf)),
            ((math.nextafter(W, math.inf), 0.0), False),
            ((0.0, math.nextafter(H, math.inf)), False),
            ((math.nextafter(0.0, -math.inf), 0.0), False),
            ((0.0, math.nextafter(0.0, -math.inf)), False),
            ((0.0, 0.0), True),
            ((-0.0, -0.0), True),
            ((W, 0.0), True),
            ((0.0, H), True),
            ((W, H), True),
        ],
    )
    def test_position_check_edges(self, pos, ok):
        node = VehicleNode(0, ScenarioConfig(grid=(self.W, self.H)))
        out = node.handle_warning(Warning(1, 62, EventKind.ICE, pos, 1.0), 1.0)
        if not ok:
            # Outside the grid: the shared rejection, no report, nothing held.
            assert out is REJECTED
            assert node.pending == {}
            return
        # Inside the grid the check passes; the unheard lone path then rejects with a report and holds the event.
        assert out is not REJECTED
        assert out.disposition is Disposition.REJECT
        assert out.reports == (MisbehaviorReport(0, 1, 62, 1.0),)
        assert type(out.reports[0]) is MisbehaviorReport
        assert list(node.pending) == [62]

    def test_own_warning_ignored(self):
        node = self._node_with_neighbors()
        out = node.handle_warning(Warning(node.id, 64, EventKind.ICE, (120.0, 0.0), 1.0), 1.0)
        assert out.disposition is None

    @pytest.mark.parametrize("strict,expected", [(True, Disposition.REJECT), (False, Disposition.ACCEPT)])
    def test_strict_mode_requires_near(self, strict, expected):
        config = ScenarioConfig(strict_top_heuristic=strict)
        node = make_node(config=config)
        seed_lrl(node, WORKED_POINTS)
        # Neighbor heuristics to the event at x=0: 2 -> 28 -> 40; the sender
        # sits in the middle band (2w = 25.33 <= 28 < 3w = 38).
        hear(node, {1: 280.0, 2: 20.0, 3: 400.0})
        # Flagged network standing: only the heuristic shortcut can accept.
        node.handle_rrl_broadcast(make_rrl_broadcast({1: 1, 2: 13, 3: 7}))
        node.lrl.upsert(1, 13)
        out = node.handle_warning(Warning(1, 65, EventKind.ICE, (0.0, 0.0), 1.0), 1.0)
        assert out.disposition is expected


class TestPlausibilityRadius:
    """The sender-distance check reads the run's transmission range, here 250 m, not the 300 m default."""

    CONFIG = ScenarioConfig(transmission_range=250.0)

    def decide(self, gap):
        """Sender 3 (middle trust, no network ledger) at x=100 claims an event ``gap`` m along the road."""
        node = make_node(config=self.CONFIG)  # no ranging noise: the check sees the true distance
        seed_lrl(node, WORKED_POINTS)
        hear(node, {3: 100.0, 2: 120.0})
        before = node.lrl.get(3)
        out = node.handle_warning(Warning(3, 80, EventKind.ICE, (100.0 + gap, 0.0), 1.0), 1.0)
        return node, out, node.lrl.get(3) - before

    def test_event_at_the_range_is_plausible(self):
        _, out, delta = self.decide(250.0)
        assert out.disposition is Disposition.ACCEPT
        assert out.reports == ()
        assert delta == 0

    def test_event_just_past_the_range_is_rejected_and_reported(self):
        node, out, delta = self.decide(250.5)
        assert out.disposition is Disposition.REJECT
        assert [(r.reporter, r.accused, r.event_id) for r in out.reports] == [(node.id, 3, 80)]
        assert delta == -1
        assert 80 not in node.pending  # the implausible path holds nothing


class TestRangingInput:
    """A decision adds its first ranging error to the sender's distance to the event for the plausibility check.

    The second is added for the band; the heard() pass scales both by the receiver's range to the sender.
    """

    HEARD = Heard(sender=(100.0, 0.0), errors=(0.0, 0.0), extremes=lambda _id: ((100.0, 0.0), (400.0, 0.0)))

    @staticmethod
    def node(config=CFG):
        node = VehicleNode(0, config)
        seed_lrl(node, WORKED_POINTS)
        return node

    def test_implausibly_far_path(self):
        # The event is 250 m from the sender: the check adds only the first error to it.
        for errors, rejected in [((0.0, 0.0), False), ((50.5, 0.0), True), ((0.0, 50.5), False), ((-1e3, 1e3), False)]:
            node = self.node()
            before = node.lrl.get(3)
            out = node.handle_warning(
                Warning(3, 50, EventKind.CRASH, (350.0, 0.0), 1.0), 1.0, self.HEARD._replace(errors=errors)
            )
            assert (out.disposition is Disposition.REJECT and len(out.reports) == 1) is rejected, errors
            assert node.lrl.get(3) - before == (-1 if rejected else 0), errors
            assert (50 in node.pending) is not rejected, errors  # the implausible path holds nothing

    def test_heuristic_band_path(self, monkeypatch):
        # Sender 1 is Top, so it is banded by its distance to the event plus the second error, clamped at 0.
        # The heuristics pass through unscaled, so the band sees each estimate as it is.
        distances = []
        monkeypatch.setattr("irsim.protocol.heuristic_from_distance", lambda d: d)
        monkeypatch.setattr("irsim.protocol.classify_heuristic", lambda h, _: distances.append(h) or HeuristicBand.NEAR)
        for event_id, errors in enumerate([(0.0, 0.0), (-1e3, 7.5), (0.0, -4.0), (0.0, -25.0)]):
            out = self.node().handle_warning(
                Warning(1, event_id, EventKind.ICE, (110.0, 0.0), 1.0), 1.0, self.HEARD._replace(errors=errors)
            )
            assert out.disposition is Disposition.ACCEPT
        assert distances == [10.0, 17.5, 6.0, 0.0]

    @pytest.mark.parametrize("sender,level", [(3, TrustLevel.MEDIUM), (7, TrustLevel.LOW)], ids=["medium", "low"])
    def test_unbanded_decision_looks_up_nothing(self, sender, level):
        # Below TOP trust the sender is not banded: no neighbor is looked up and the band's error is not read.
        def no_lookup(receiver_id):
            raise AssertionError(f"extremes({receiver_id}) called below TOP trust")

        outcomes = []
        for band_error in (0.0, 1e6):
            node = self.node()
            assert classify_trust(node.lrl.get(sender), node.lrl.trust_bands()) is level
            heard = self.HEARD._replace(errors=(0.0, band_error), extremes=no_lookup)
            outcomes.append(node.handle_warning(Warning(sender, 52, EventKind.ICE, (110.0, 0.0), 1.0), 1.0, heard))
        assert outcomes[0].disposition is not None
        assert outcomes[0] == outcomes[1]

    # (disposition, reports): an error that takes the estimate past the range rejects and reports.
    @pytest.mark.parametrize(
        "past,expected", [(0.0, (Disposition.ACCEPT, 0)), (0.5, (Disposition.REJECT, 1))], ids=["at", "past"]
    )
    def test_scale_is_the_receiver_to_sender_range(self, past, expected):
        # With sigma 0, 1 per meter and unit draws of 1, each error is the receiver's range to where the
        # sender last beaconed. Receiver 1 is 60 m from sender 0 (36 m along the road, 48 m across), and
        # the event is 240 m from the sender: 240 + 60 m is exactly the 300 m transmission range.
        config = ScenarioConfig(vehicle_count=2, attacker_count=0, rsu_positions=(), delivery_loss_probability=0.0,
                                ranging_noise_sigma=0.0, ranging_noise_per_meter=1.0)
        runner = sim._Runner(sim.build_scenario(config))
        runner.handle_round(0.0, 0)
        runner.round_x[0, :2] = [100.0, 64.0]
        runner.world.lane_y[:] = [500.0, 548.0]
        positions = np.array([[100.0, 500.0], [64.0, 548.0]])
        runner.world.channel.rng = ScriptedNormals()
        warning = Warning(0, 1, EventKind.ICE, (340.0 + past, 500.0), 0.0)
        (heard,) = runner.heard(np.array([1]), warning, 0.0, positions)
        assert heard.errors == [60.0, 60.0]
        out = runner.world.nodes[1].handle_warning(warning, 0.0, heard)
        assert (out.disposition, len(out.reports)) == expected


class ScriptedNormals:
    """A stand-in channel stream whose unit normals are all 1."""

    def standard_normal(self, shape):
        return np.ones(shape)

class TestPendingExpiry:
    def _pending_node(self):
        node = make_node()
        seed_lrl(node, WORKED_POINTS)
        node.handle_rrl_broadcast(make_rrl_broadcast(WORKED_POINTS))
        hear(node, {7: 130.0, 2: 150.0})
        out = node.handle_warning(Warning(7, 60, EventKind.ICE, (120.0, 0.0), 1.0), 1.0)
        assert out.disposition is Disposition.PENDING
        return node

    def test_lone_pending_expires_to_reject(self):
        node = self._pending_node()
        before = node.lrl.get(7)
        out = node.expire_pending(3.5)  # 2.5 s > 2.0 s TTL
        assert out.finalized == ((7, 60, Disposition.REJECT),)
        assert len(out.reports) == 1
        assert out.reports[0].accused == 7
        assert type(out.reports[0]) is MisbehaviorReport
        assert node.lrl.get(7) == before - 1
        assert 60 not in node.pending

    def test_pending_within_ttl_untouched(self):
        node = self._pending_node()
        out = node.expire_pending(2.0)
        assert out.finalized == () and out.reports == ()
        assert 60 in node.pending

    def test_corroborated_pending_expires_without_penalty(self):
        node = self._pending_node()
        node.handle_warning(Warning(2, 60, EventKind.ICE, (121.0, 0.0), 1.5), 1.5)
        points_before = dict(node.lrl.entries)
        out = node.expire_pending(10.0)
        assert out.finalized == () and out.reports == ()
        assert 60 not in node.pending
        assert node.lrl.entries == points_before

    def test_single_resolution(self):
        # A pending warning resolves exactly once: corroboration then expiry
        # must not double-credit or penalize.
        node = self._pending_node()
        out = node.handle_warning(Warning(2, 60, EventKind.ICE, (121.0, 0.0), 1.5), 1.5)
        assert out.finalized == ((7, 60, Disposition.ACCEPT),)
        out = node.expire_pending(10.0)
        assert out.finalized == () and out.reports == ()


class TestPendingOrder:
    """Expiry holds however the caller's clock runs: nothing assumes increasing times."""

    @staticmethod
    def low_node():
        node = make_node()
        seed_lrl(node, WORKED_POINTS)
        node.handle_rrl_broadcast(make_rrl_broadcast(WORKED_POINTS))
        hear(node, {7: 130.0, 8: 140.0, 2: 150.0})
        return node

    def test_older_entry_held_later_still_expires(self):
        node = self.low_node()
        assert node.handle_warning(Warning(8, 61, EventKind.ICE, (120.0, 0.0), 5.0), 5.0).disposition is Disposition.PENDING
        assert node.handle_warning(Warning(7, 60, EventKind.ICE, (120.0, 0.0), 1.0), 1.0).disposition is Disposition.PENDING
        assert node.expire_pending(3.0) == WarningOutcome(None)  # 2.0 s is not past the TTL
        assert {e: p.first_seen for e, p in node.pending.items()} == {61: 5.0, 60: 1.0}
        out = node.expire_pending(3.5)
        assert out.finalized == ((7, 60, Disposition.REJECT),)
        assert [(r.accused, r.event_id) for r in out.reports] == [(7, 60)]
        assert {e: p.first_seen for e, p in node.pending.items()} == {61: 5.0}
        assert node.expire_pending(7.0) == WarningOutcome(None)
        assert node.expire_pending(7.5).finalized == ((8, 61, Disposition.REJECT),)
        assert not node.pending

    @given(st.lists(st.tuples(st.booleans(), st.floats(min_value=0.0, max_value=20.0)), max_size=30))
    def test_expiry_matches_full_scan(self, steps):
        node = self.low_node()
        held: dict[int, float] = {}
        for event_id, (warn, t) in enumerate(steps, start=100):
            if warn:
                out = node.handle_warning(Warning(7 + event_id % 2, event_id, EventKind.ICE, (120.0, 0.0), t), t)
                assert out.disposition is Disposition.PENDING
                held[event_id] = t
                continue
            expired = {e for e, seen in held.items() if t - seen > CFG.pending_ttl}
            out = node.expire_pending(t)
            assert {e for _, e, _ in out.finalized} == expired
            assert {r.event_id for r in out.reports} == expired
            assert (out == WarningOutcome(None)) is not bool(expired)
            # The one-pass expiry keeps every entry within the TTL, whatever order the times came in.
            held = {e: seen for e, seen in held.items() if e not in expired}
            assert {e: p.first_seen for e, p in node.pending.items()} == held

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 9),  # sender; 0 is the node itself
                st.integers(100, 105),  # event id: few, so copies of held events recur
                st.sampled_from(list(EventKind)),
                st.floats(-50.0, 1100.0),  # event x; the grid is 1000 m wide
                st.floats(0.0, 50.0),  # time, in any order
                st.one_of(st.none(), st.tuples(st.floats(0.0, 400.0), st.floats(-100.0, 100.0))),
            ),
            max_size=40,
        )
    )
    def test_a_warning_adds_at_most_its_own_entry(self, steps):
        # With facts or without: the buffer keeps every key it had, and grows by the warning's event
        # alone, held at the call's time.
        node = VehicleNode(0, CFG)
        seed_lrl(node, WORKED_POINTS)
        node.handle_rrl_broadcast(make_rrl_broadcast(WORKED_POINTS))
        for sender, event_id, kind, x, t, facts in steps:
            heard = None
            if facts is not None:
                sender_x, error = facts
                heard = Heard((sender_x, 0.0), (error, error), lambda _id: ((100.0, 0.0), (400.0, 0.0)))
            before = dict(node.pending)
            node.handle_warning(Warning(sender, event_id, kind, (x, 0.0), t), t, heard)
            added = node.pending.keys() - before.keys()
            assert before.keys() <= node.pending.keys()
            assert all(node.pending[e] is entry for e, entry in before.items())
            assert added <= {event_id}
            if added:
                assert node.pending[event_id].first_seen == t


class TestRrlBroadcastHandling:
    def test_newer_version_replaces(self):
        node = make_node()
        node.handle_rrl_broadcast(make_rrl_broadcast({1: 5}, version=1))
        assert node.handle_rrl_broadcast(make_rrl_broadcast({1: 6}, version=2))
        assert node.cached_rrl.version == 2
        assert node.cached_rrl.rrl.entries[1] == 6

    def test_stale_version_ignored(self):
        node = make_node()
        node.handle_rrl_broadcast(make_rrl_broadcast({1: 5}, version=5))
        assert not node.handle_rrl_broadcast(make_rrl_broadcast({1: 9}, version=3))
        assert node.cached_rrl.version == 5
        assert node.cached_rrl.rrl.entries[1] == 5

    def test_bootstrap_seeds_empty_lrl(self):
        node = make_node(vid=3)
        node.handle_rrl_broadcast(make_rrl_broadcast({1: 5, 2: 9, 3: 4}))
        assert node.lrl.get(1) == 5
        assert node.lrl.get(2) == 9
        assert node.lrl.get(3) is None  # own entry is not imported

    def test_bootstrap_idempotent(self):
        node = make_node()
        b = make_rrl_broadcast({1: 5, 2: 9})
        node.handle_rrl_broadcast(b)
        snapshot = dict(node.lrl.entries)
        node.handle_rrl_broadcast(b)
        assert node.lrl.entries == snapshot

    def test_nonempty_lrl_untouched(self):
        node = make_node()
        seed_lrl(node, {9: 2})
        node.handle_rrl_broadcast(make_rrl_broadcast({1: 5}))
        assert node.lrl.get(1) is None
        assert node.lrl.get(9) == 2

    def test_version_never_decreases(self):
        node = make_node()
        versions = [1, 4, 2, 4, 9, 3]
        high = 0
        for v in versions:
            node.handle_rrl_broadcast(make_rrl_broadcast({1: 5}, version=v))
            high = max(high, v)
            assert node.cached_rrl.version == high


class TestRrlRequest:
    """A vehicle asks for a ledger when it holds none."""

    @staticmethod
    def requesters(runner, t=0.0):
        runner.handle_requests(t, runner.world.positions_at(t))
        return [int(line.split("\t")[2]) for line in runner.log if "\tREQ\t" in line]

    def test_no_cache_requests(self):
        assert 0 in self.requesters(beacon_runner())

    def test_full_coverage_does_not_request(self):
        runner = beacon_runner()
        runner.world.nodes[0].handle_rrl_broadcast(make_rrl_broadcast({v: 5 for v in range(8)}))
        assert self.requesters(runner) == [1, 2, 3, 4, 5, 6, 7]


def make_rsu(**kwargs):
    return RsuNode(9000, (500.0, 500.0), CFG, **kwargs)


def report(reporter, accused, event_id=7, t=0.0):
    return MisbehaviorReport(reporter, accused, event_id, t)


def row(rsu, vid):
    """(points, misbehavior points) of ``vid`` in the unit's ledger."""
    return rsu.ledger.entries[vid], rsu.misbehavior.get(vid, 0)


def ledger_state(rsu):
    return dict(rsu.ledger.entries), dict(rsu.misbehavior)


class TestRsuReports:
    def test_first_report_marks_both_suspicious(self):
        rsu = make_rsu()
        rsu.seed(list(range(10)), 5)
        assert rsu.handle_report(report(2, 4), 1.0) is True
        assert 2 in rsu.suspicion and 4 in rsu.suspicion
        rsu = make_rsu()
        rsu.seed(list(range(20)), 5)
        rsu.handle_report(report(2, 14), 1.0)
        assert 14 in rsu.suspicion and 2 in rsu.suspicion

    def test_second_distinct_reporter_escalates(self):
        rsu = make_rsu()
        rsu.seed(list(range(20)), 5)
        rsu.handle_report(report(2, 14), 1.0)
        rsu.handle_report(report(5, 14), 2.0)
        assert row(rsu, 14) == (4, 1)
        assert row(rsu, 2) == (6, 0)
        assert row(rsu, 5) == (6, 0)
        assert 14 not in rsu.suspicion
        assert 2 not in rsu.suspicion

    def test_same_reporter_does_not_escalate(self):
        rsu = make_rsu()
        rsu.seed(list(range(20)), 5)
        rsu.handle_report(report(2, 14), 1.0)
        rsu.handle_report(report(2, 14, t=2.0), 2.0)
        assert row(rsu, 14) == (5, 0)

    def test_different_event_does_not_escalate(self):
        rsu = make_rsu()
        rsu.seed(list(range(20)), 5)
        rsu.handle_report(report(2, 14, event_id=7), 1.0)
        rsu.handle_report(report(5, 14, event_id=8), 2.0)
        assert row(rsu, 14) == (5, 0)

    def test_settled_event_not_reescalated(self):
        rsu = make_rsu()
        rsu.seed(list(range(20)), 5)
        rsu.handle_report(report(2, 14), 1.0)
        rsu.handle_report(report(5, 14), 2.0)
        rsu.handle_report(report(6, 14), 3.0)
        rsu.handle_report(report(7, 14), 4.0)
        assert row(rsu, 14) == (4, 1)

    def test_flagged_reporter_ignored(self):
        rsu = make_rsu()
        rsu.seed(list(range(20)), 5)
        rsu.ledger.upsert(3, 0)  # low points: Flagged
        rsu.ledger.upsert(4, 13)  # spread so bands discriminate
        changed = rsu.handle_report(report(3, 14), 1.0)
        assert changed is False
        assert 14 not in rsu.suspicion

    def test_flagged_reporter_immunity_property(self):
        # No sequence of reports from Flagged reporters changes any entry.
        rsu = make_rsu()
        rsu.seed(list(range(20)), 5)
        rsu.ledger.upsert(3, 0)
        rsu.ledger.upsert(8, 0)
        rsu.ledger.upsert(4, 13)
        before = ledger_state(rsu)
        for t, (rep, acc) in enumerate([(3, 14), (8, 14), (3, 15), (8, 15), (3, 16)]):
            rsu.handle_report(report(rep, acc, event_id=100 + t), float(t))
        assert ledger_state(rsu) == before

    def test_reporter_equals_accused_rejected(self):
        with pytest.raises(ValueError):
            report(2, 2)
        # A copy with a changed field runs the same check.
        with pytest.raises(ValueError):
            report(2, 14)._replace(accused=2)
        assert report(2, 14)._replace(accused=9) == report(2, 9)

    def test_report_make_runs_the_check(self):
        with pytest.raises(ValueError):
            MisbehaviorReport._make((2, 2, 1, 0.0))
        assert MisbehaviorReport._make((2, 14, 1, 0.0)) == report(2, 14, event_id=1)

    def test_report_fields_are_read_only(self):
        r = report(2, 14)
        with pytest.raises(AttributeError):
            r.accused = 9
        assert r == (2, 14, 7, 0.0)

    def test_misbehavior_never_decreases(self):
        rsu = make_rsu()
        rsu.seed(list(range(20)), 5)
        seen = 0
        for event in range(3):
            rsu.handle_report(report(2, 14, event_id=event), float(event))
            rsu.handle_report(report(5, 14, event_id=event), float(event) + 0.5)
            assert rsu.misbehavior.get(14, 0) >= seen
            seen = rsu.misbehavior.get(14, 0)


class TestRsuTick:
    def test_broadcast_version_increments(self):
        rsu = make_rsu()
        rsu.seed([1, 2], 5)
        b1, _ = rsu.tick(1.0)
        b2, _ = rsu.tick(2.0)
        assert b2.version == b1.version + 1
        assert len(b1.rrl) == 2

    def test_forwards_list_misbehavers_only(self):
        rsu = make_rsu(adjacent=(9001,))
        rsu.seed(list(range(6)), 5)
        rsu.handle_report(report(2, 4, event_id=1), 1.0)
        rsu.handle_report(report(3, 4, event_id=1), 1.1)
        rsu.handle_report(report(2, 5, event_id=2), 1.2)
        rsu.handle_report(report(3, 5, event_id=2), 1.3)
        _, forwards = rsu.tick(2.0)
        assert len(forwards) == 1
        assert {e[0] for e in forwards[0].entries} == {4, 5}

    def test_no_forward_without_misbehavers(self):
        rsu = make_rsu(adjacent=(9001,))
        rsu.seed([1, 2], 5)
        _, forwards = rsu.tick(1.0)
        assert forwards == []

    def test_suspicion_ttl_drops_without_escalation(self):
        rsu = make_rsu()
        rsu.seed(list(range(20)), 5)
        rsu.handle_report(report(2, 14), 0.0)
        rsu.tick(31.0)  # 31 s > 30 s TTL
        assert 14 not in rsu.suspicion
        assert row(rsu, 14) == (5, 0)
        # A fresh pair after the drop escalates normally.
        rsu.handle_report(report(5, 14, event_id=9), 32.0)
        rsu.handle_report(report(6, 14, event_id=9), 33.0)
        assert row(rsu, 14) == (4, 1)

    def test_handle_forward_merges_worse_view(self):
        # Every unit holds the same seeded ids, so a forward only updates held entries.
        rsu = make_rsu()
        rsu.seed([1, 2, 7], 5)
        fwd = RsuForward(9001, 9000, ((1, 2, 3), (7, 1, 4)), 5.0)
        rsu.handle_forward(fwd)
        assert row(rsu, 1) == (2, 3)
        assert row(rsu, 2) == (5, 0)
        assert row(rsu, 7) == (1, 4)


class TestLedgerSnapshot:
    def test_snapshot_rebuilt_only_when_ledger_changes(self):
        rsu = make_rsu()
        rsu.seed(list(range(20)), 5)
        first = rsu.snapshot()
        assert rsu.snapshot() is first
        rsu.handle_report(report(2, 14), 1.0)  # suspicion only: no entry moves
        assert rsu.snapshot() is first
        rsu.handle_report(report(5, 14), 2.0)  # escalation
        escalated = rsu.snapshot()
        assert escalated is not first
        assert escalated[0] is not first[0] and escalated[1] is not first[1]
        assert (escalated[0].entries[14], escalated[1].get(14, 0)) == (4, 1)
        assert (first[0].entries[14], first[1].get(14, 0)) == (5, 0)
        # A tick bumps the version of the publication, not the ledger: the pair is shared, not copied.
        broadcast, _ = rsu.tick(3.0)
        assert (broadcast.issuer, broadcast.version) == (rsu.id, 1)
        assert broadcast.rrl is escalated[0] and broadcast.misbehavior is escalated[1]
        again, _ = rsu.tick(4.0)
        assert again.version == broadcast.version + 1
        assert again.rrl is broadcast.rrl and again.misbehavior is broadcast.misbehavior
        assert rsu.snapshot() is escalated

    def test_publish_after_escalation_keeps_the_last_tick_version(self):
        rsu = make_rsu()
        rsu.seed(list(range(20)), 5)
        ticked, _ = rsu.tick(1.0)
        rsu.handle_report(report(2, 14), 2.0)
        rsu.handle_report(report(5, 14), 2.5)  # escalation
        answered = rsu.publish(2.5)
        # The answer to a request carries the new rows under the version of the tick before them.
        assert (answered.issuer, answered.version, answered.timestamp) == (rsu.id, ticked.version, 2.5)
        assert answered.rrl is not ticked.rrl
        assert (answered.rrl.entries[14], answered.misbehavior.get(14, 0)) == (4, 1)
        assert (ticked.rrl.entries[14], ticked.misbehavior.get(14, 0)) == (5, 0)
        # So a vehicle that holds the tick's publication keeps it.
        holder = make_node(vid=0)
        assert holder.handle_rrl_broadcast(ticked)
        assert not holder.handle_rrl_broadcast(answered)
        assert holder.cached_rrl is ticked
        # The next tick publishes the same rows under the next version, sharing the answer's copy.
        later, _ = rsu.tick(3.0)
        assert later.version == ticked.version + 1
        assert later.rrl is answered.rrl and later.misbehavior is answered.misbehavior
        assert holder.handle_rrl_broadcast(later)

    def test_standing_read_from_the_snapshot_held(self):
        rsu = make_rsu()
        rsu.seed(list(range(20)), 5, anchors=[(50, 13, 0), (51, 1, 1)])
        broadcast, _ = rsu.tick(1.0)
        holder = make_node(vid=0)
        assert holder.handle_rrl_broadcast(broadcast)
        assert standing_of(holder.cached_rrl.rrl, 14) is RrlStanding.WATCH
        rsu.handle_report(report(2, 14), 2.0)
        rsu.handle_report(report(5, 14), 2.5)  # escalation: 14 drops to 4 points, below min + th
        assert standing_of(rsu.snapshot()[0], 14) is RrlStanding.FLAGGED
        later, _ = rsu.tick(3.0)
        assert standing_of(later.rrl, 14) is RrlStanding.FLAGGED
        # The old publication keeps the standing it was published with.
        assert holder.cached_rrl is broadcast
        assert standing_of(holder.cached_rrl.rrl, 14) is RrlStanding.WATCH
        assert holder.handle_rrl_broadcast(later)
        assert standing_of(holder.cached_rrl.rrl, 14) is RrlStanding.FLAGGED

    def test_receivers_share_one_ledger(self):
        rsu = make_rsu()
        rsu.seed(list(range(4)), 5)
        broadcast, _ = rsu.tick(1.0)
        a, b = make_node(vid=0), make_node(vid=1)
        assert a.handle_rrl_broadcast(broadcast) and b.handle_rrl_broadcast(broadcast)
        assert a.cached_rrl is b.cached_rrl is broadcast

    def test_receivers_share_seed_records(self, monkeypatch):
        rsu = make_rsu()
        rsu.seed(list(range(6)), 5, anchors=[(50, 13, 0), (51, 1, 1)])
        broadcast, _ = rsu.tick(1.0)
        seeds = []
        load = LocalReputationList.load

        def spy(lrl, seed, owner=None):
            seeds.append(seed)
            load(lrl, seed, owner)

        monkeypatch.setattr(LocalReputationList, "load", spy)
        a, b = make_node(vid=0), make_node(vid=1)
        assert a.handle_rrl_broadcast(broadcast) and b.handle_rrl_broadcast(broadcast)
        # Both loads copy the publication itself.
        assert len(seeds) == 2 and seeds[0] is seeds[1] is broadcast.rrl
        assert sorted(a.lrl.entries) == [1, 2, 3, 4, 5, 50, 51]
        assert sorted(b.lrl.entries) == [0, 2, 3, 4, 5, 50, 51]
        assert a.lrl.get(51) == b.lrl.get(51) == 1  # misbehavior points are not imported

    def test_adjust_touches_one_receiver_only(self):
        rsu = make_rsu()
        rsu.seed(list(range(6)), 5, anchors=[(50, 13, 0), (51, 1, 1)])
        broadcast, _ = rsu.tick(1.0)
        a, b = make_node(vid=0), make_node(vid=1)
        a.handle_rrl_broadcast(broadcast)
        b.handle_rrl_broadcast(broadcast)
        published = dict(broadcast.rrl.entries)
        counts = dict(broadcast.rrl._counts)
        b_before = dict(b.lrl.entries)
        for _ in range(6):
            a.lrl.adjust(51, -1, 5)
            a.lrl.adjust(50, +1, 5)
        a.lrl.adjust(9, +2, 5)
        assert (a.lrl.get(51), a.lrl.get(50)) == (0, 19)
        assert a.lrl.trust_bands() == compute_trust_bands([0, 19])
        assert b.lrl.entries == b_before
        assert b.lrl.trust_bands() == compute_trust_bands([1, 13])
        assert broadcast.rrl.entries == published
        assert broadcast.rrl._counts == counts
        assert broadcast.rrl.trust_bands() == compute_trust_bands([1, 5, 13])

    def test_owner_only_ledger_gives_empty_lrl(self):
        node = make_node(vid=3)
        assert node.handle_rrl_broadcast(make_rrl_broadcast({3: 4}))
        assert len(node.lrl) == 0
        assert node.lrl.trust_bands() is None
        # Still empty, so the next newer ledger seeds it.
        assert node.handle_rrl_broadcast(make_rrl_broadcast({1: 6, 3: 4}, version=2))
        assert node.lrl.entries == {1: 6}

    def test_ledger_without_owner_is_taken_whole(self):
        node = make_node(vid=7)
        assert node.handle_rrl_broadcast(make_rrl_broadcast({1: 5, 2: 9, 4: 2}, t=3.0))
        assert node.lrl.entries == {1: 5, 2: 9, 4: 2}
        assert node.lrl.trust_bands() == compute_trust_bands([5, 9, 2])


_STANDINGS = (RrlStanding.FLAGGED, RrlStanding.WATCH, RrlStanding.CLEAR)

# (kind, unit, reporter, accused, event id, time step): few accused and events, so pairs escalate.
_rsu_report = st.tuples(
    st.just("report"), st.integers(0, 2), st.integers(0, 5), st.integers(0, 2), st.integers(0, 1), st.floats(0.0, 12.0)
)
_rsu_steps = st.lists(
    st.one_of(
        _rsu_report,
        _rsu_report,
        # (kind, unit, digest rows as (held id index, points, misbehavior points))
        st.tuples(st.just("forward"), st.integers(0, 2),
                  st.lists(st.tuples(st.integers(0, 20), st.integers(0, 15), st.integers(1, 4)), max_size=4)),
        # (kind, unit, time step)
        st.tuples(st.just("tick"), st.integers(0, 2), st.floats(0.0, 12.0)),
    ),
    min_size=10,
    max_size=50,
)


class TestLedgerAgainstRebuild:
    """Units whose ledgers change in place agree with a ledger rebuilt from scratch after every step.

    The reference keeps (points, misbehavior points) rows in a plain dict, with the seed, escalation
    and forward rules applied the long way, and derives standings, bands and digests from all rows.
    """

    @staticmethod
    def check(rsu, rows):
        points = {v: p for v, (p, _) in rows.items()}
        assert rsu.ledger.entries == points
        assert rsu.misbehavior == {v: m for v, (_, m) in rows.items() if m > 0}
        fresh = LocalReputationList(points)
        bands = compute_trust_bands(points.values())
        for v in points:
            assert standing_of(rsu.ledger, v) is standing_of(fresh, v) is _STANDINGS[classify_trust(points[v], bands)]
        assert standing_of(rsu.ledger, 99) is RrlStanding.CLEAR
        rrl, misbehavior = rsu.snapshot()
        assert rrl.trust_bands() == bands
        assert list(rrl.entries) == sorted(points)
        assert rrl.entries == points and misbehavior == rsu.misbehavior

    @pytest.mark.parametrize("anchor", [(50, -1, 0), (50, 1, -1)], ids=["points", "misbehavior"])
    def test_seed_rejects_negative_rows(self, anchor):
        with pytest.raises(ValueError, match="must be >= 0"):
            make_rsu().seed([1, 2], 5, [anchor])
        # A rejected seed writes nothing: the unit keeps its rows and publishes what it published.
        rsu = make_rsu()
        rsu.seed([0, 1, 2], 5, [(9, 2, 3)])
        ticked, _ = rsu.tick(1.0)
        before = ledger_state(rsu)
        with pytest.raises(ValueError, match="must be >= 0"):
            rsu.seed([0, 1, 2, 3], 7, [anchor])
        assert ledger_state(rsu) == before == ({0: 5, 1: 5, 2: 5, 9: 2}, {9: 3})
        following = rsu.publish(1.5)
        assert following.rrl is ticked.rrl and following.misbehavior is ticked.misbehavior
        assert (following.rrl.entries, following.misbehavior) == before

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(2, 12),
        st.integers(0, 8),
        st.lists(st.tuples(st.integers(0, 14), st.integers(0, 15), st.integers(0, 2)), max_size=4),
        _rsu_steps,
    )
    def test_steps_match_rebuilt_ledger(self, units, n, initial, anchors, steps):
        rsus = [
            RsuNode(9000 + i, (500.0, 500.0), CFG, tuple(9000 + j for j in (i - 1, i + 1) if 0 <= j < units))
            for i in range(units)
        ]
        models = []
        for rsu in rsus:
            rsu.seed(list(range(n)), initial, anchors)
            rows = {v: (initial, 0) for v in range(n)}
            rows.update((v, (p, m)) for v, p, m in anchors)
            models.append(rows)
            self.check(rsu, rows)

        def forward(k, digest, now):
            rows = models[k]
            rsus[k].handle_forward(RsuForward(9001, rsus[k].id, digest, now))
            for v, p, m in digest:
                rows[v] = (min(rows[v][0], p), max(rows[v][1], m))

        published = []  # (publication, its points, its misbehavior points) as published
        last = {}  # unit index -> (its latest publication, the rows it published)
        now = 0.0
        for kind, unit, *args in steps:
            k = unit % units
            rsu, rows = rsus[k], models[k]
            if kind == "report":
                reporter, accused, event, dt = args
                reporter, accused = reporter % n, accused % n
                if accused == reporter:
                    continue
                now += dt
                points = {v: p for v, (p, _) in rows.items()}
                flagged = classify_trust(points[reporter], compute_trust_bands(points.values())) is TrustLevel.LOW
                entry = rsu.suspicion.get(accused)
                settled = (accused, event) in rsu._settled
                changed = rsu.handle_report(report(reporter, accused, event, now), now)
                assert not (flagged and changed)
                if not settled and (accused, event) in rsu._settled:
                    p, m = rows[accused]
                    rows[accused] = (max(0, p - 1), m + 1)
                    for r in (entry.reporter, reporter):
                        rows[r] = (rows[r][0] + 1, rows[r][1])
            elif kind == "forward":
                held = sorted(rows)
                forward(k, tuple((held[i % len(held)], p, m) for i, p, m in args[0]), now)
            else:
                now += args[0]
                broadcast, forwards = rsu.tick(now)
                assert (broadcast.issuer, broadcast.version) == (rsu.id, rsu.version)
                if k in last:
                    previous, previous_rows = last[k]
                    assert broadcast.version == previous.version + 1
                    # No row changed since the unit's previous publication: the same copies, under a new version.
                    unchanged = rows == previous_rows
                    assert (broadcast.rrl is previous.rrl) is unchanged
                    assert (broadcast.misbehavior is previous.misbehavior) is unchanged
                last[k] = broadcast, dict(rows)
                published.append((broadcast, dict(broadcast.rrl.entries), dict(broadcast.misbehavior)))
                digest = tuple((v, p, m) for v, (p, m) in sorted(rows.items()) if m > 0)
                assert [f.entries for f in forwards] == ([digest] * len(rsu.adjacent) if digest else [])
                blob = encode_rrl_broadcast(broadcast)
                assert [struct.unpack_from("<Qqq", blob, 20 + 24 * i) for i in range(len(rows))] == [
                    (v, p, m) for v, (p, m) in sorted(rows.items())
                ]
                for f in forwards:
                    forward(f.destination - 9000, f.entries, now)
            for other, other_rows in zip(rsus, models):
                self.check(other, other_rows)
            # Later steps write the units' ledgers, never an earlier publication.
            assert all(b.rrl.entries == pts and b.misbehavior == mis for b, pts, mis in published)


class TestWireFormat:
    def test_warning_encoding(self):
        w = Warning(7, 99, EventKind.ICE, (10.0, 20.0), 1.5)
        blob = encode_warning(w)
        assert len(blob) == 41
        sender, event, kind, x, y, ts = struct.unpack("<QQBddd", blob)
        assert (sender, event, kind, x, y, ts) == (7, 99, 1, 10.0, 20.0, 1.5)

    def test_warning_wire_size_matches_encoder(self):
        # The simulator counts a warning's bytes from its struct format; the encoder is the reference.
        w = Warning(7, 99, EventKind.SUDDEN_BRAKE, (10.0, 20.0), 1.5)
        assert len(encode_warning(w)) == 41 == sim._WARNING_WIRE_BYTES

    @pytest.mark.parametrize("rows", [0, 1, 104])
    def test_ledger_wire_size_matches_encoder(self, rows):
        # The simulator counts a ledger's bytes from its row count: 29 fixed bytes plus 24 per row.
        points = LocalReputationList({v: v % 11 for v in range(rows)})
        b = RrlBroadcast(9000, 3, points, {v: v % 3 for v in range(rows) if v % 3}, 6.0)
        size = sim._RRL_FIXED_WIRE_BYTES + sim._RRL_ROW_WIRE_BYTES * len(b.rrl)
        assert len(encode_rrl_broadcast(b)) == size == 29 + 24 * rows

    def test_report_encoding(self):
        r = MisbehaviorReport(3, 9, 44, 2.0)
        blob = encode_report(r)
        assert len(blob) == 33 == sim._REPORT_WIRE_BYTES
        reporter, accused, event, ts, valid = struct.unpack("<QQQdB", blob)
        assert (reporter, accused, event, ts, valid) == (3, 9, 44, 2.0, 1)

    def test_rrl_broadcast_encoding(self):
        b = RrlBroadcast(9000, 3, LocalReputationList({1: 5, 2: 9}), {2: 1}, 6.0)
        blob = encode_rrl_broadcast(b)
        assert len(blob) == 20 + 2 * 24 + 9
        issuer, version, count = struct.unpack_from("<QQI", blob)
        assert (issuer, version, count) == (9000, 3, 2)
        assert struct.unpack_from("<Qqq", blob, 20) == (1, 5, 0)
        assert struct.unpack_from("<Qqq", blob, 44) == (2, 9, 1)

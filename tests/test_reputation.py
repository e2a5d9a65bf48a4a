"""Unit and property tests for the pure reputation core."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from irsim.reputation import (
    HeuristicBand,
    LedgerSeed,
    LocalReputationList,
    ReputationRecord,
    RrlStanding,
    RsuReputationList,
    TrustDecision,
    TrustLevel,
    apply_point_delta,
    classify_heuristic,
    classify_trust,
    compute_heuristic_bands,
    compute_trust_bands,
    decide_trust,
    heuristic_band,
    heuristic_from_distance,
    rrl_is_stale,
    standing_of,
)


def brute_force_bands(points):
    # Independent re-computation: sort and take extremes the slow way.
    ordered = sorted(points)
    return ordered[0], ordered[-1], Fraction(ordered[-1] - ordered[0], 3)


class TestTrustBands:
    def test_worked_ledger(self):
        bands = compute_trust_bands([13, 11, 7, 6, 4, 3, 1, 1])
        assert (bands.min_points, bands.max_points, bands.th) == (1, 13, Fraction(4))

    def test_degenerate_equal_points(self):
        bands = compute_trust_bands([7, 7, 7])
        assert (bands.min_points, bands.max_points, bands.th) == (7, 7, Fraction(0))

    def test_one_to_ten_matches_brute_force(self):
        pts = list(range(1, 11))
        bands = compute_trust_bands(pts)
        assert (bands.min_points, bands.max_points, bands.th) == brute_force_bands(pts)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no reputation data"):
            compute_trust_bands([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            compute_trust_bands([3, -1])

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50))
    def test_matches_brute_force(self, pts):
        bands = compute_trust_bands(pts)
        assert (bands.min_points, bands.max_points, bands.th) == brute_force_bands(pts)


class TestClassifyTrust:
    @pytest.mark.parametrize(
        "points,expected",
        [
            (13, TrustLevel.TOP),
            (11, TrustLevel.TOP),
            (10, TrustLevel.TOP),
            (9, TrustLevel.MEDIUM),
            (7, TrustLevel.MEDIUM),
            (5, TrustLevel.MEDIUM),
            (4, TrustLevel.LOW),
            (1, TrustLevel.LOW),
        ],
    )
    def test_worked_ledger_levels(self, points, expected):
        bands = compute_trust_bands([13, 11, 7, 6, 4, 3, 1, 1])
        assert classify_trust(points, bands) is expected

    def test_degenerate_maps_medium(self):
        bands = compute_trust_bands([5, 5])
        assert classify_trust(5, bands) is TrustLevel.MEDIUM
        assert classify_trust(0, bands) is TrustLevel.MEDIUM
        assert classify_trust(99, bands) is TrustLevel.MEDIUM

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=40),
        st.integers(min_value=0, max_value=1200),
    )
    def test_total_and_single_valued(self, pts, probe):
        bands = compute_trust_bands(pts)
        level = classify_trust(probe, bands)
        assert level in (TrustLevel.LOW, TrustLevel.MEDIUM, TrustLevel.TOP)

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=200))
    def test_partition_no_gaps_no_overlap(self, lo, spread):
        # Every point in [min, max] lands in exactly one band, and band
        # membership is monotone in the points.
        bands = compute_trust_bands([lo, lo + spread])
        levels = [classify_trust(p, bands) for p in range(lo, lo + spread + 1)]
        assert levels == sorted(levels)
        if bands.th > 0:
            assert levels[0] is TrustLevel.LOW
            assert levels[-1] is TrustLevel.TOP


class TestHeuristics:
    def test_distance_scaling(self):
        assert heuristic_from_distance(110.0) == 11.0
        assert heuristic_from_distance(0.0) == 0.0
        assert heuristic_from_distance(155.0) == 15.5

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            heuristic_from_distance(-1.0)
        with pytest.raises(ValueError):
            heuristic_from_distance(float("nan"))

    def test_worked_example(self):
        bands = compute_heuristic_bands([10.0, 33.0])
        assert bands.h_eval == pytest.approx(15.3333333, abs=1e-6)
        assert abs(bands.h_eval - 15.34) < 0.02

    def test_derived_example(self):
        bands = compute_heuristic_bands([0.0, 30.0])
        assert bands.w == 10.0
        assert bands.h_eval == 20.0

    def test_degenerate(self):
        bands = compute_heuristic_bands([4.0, 4.0])
        assert bands.w == 0.0
        assert classify_heuristic(0.0, bands) is HeuristicBand.MIDDLE
        assert classify_heuristic(100.0, bands) is HeuristicBand.MIDDLE

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no neighbor heuristics"):
            compute_heuristic_bands([])

    @pytest.mark.parametrize(
        "h,expected",
        [
            (11.0, HeuristicBand.NEAR),
            (15.0, HeuristicBand.NEAR),
            (16.0, HeuristicBand.MIDDLE),
            (22.9, HeuristicBand.MIDDLE),
            (23.1, HeuristicBand.AWAY),
            (33.0, HeuristicBand.AWAY),
        ],
    )
    def test_worked_bands(self, h, expected):
        bands = compute_heuristic_bands([10.0, 33.0])
        assert classify_heuristic(h, bands) is expected

    @given(
        st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), min_size=1, max_size=30),
        st.floats(min_value=0, max_value=2000, allow_nan=False),
    )
    def test_total_and_ordered(self, hs, probe):
        bands = compute_heuristic_bands(hs)
        band = classify_heuristic(probe, bands)
        assert band in (HeuristicBand.NEAR, HeuristicBand.MIDDLE, HeuristicBand.AWAY)
        if bands.w > 0:
            # Contiguous and ordered: band is monotone in h.
            probes = sorted([probe, probe + bands.w, probe + 2 * bands.w])
            bands_seq = [classify_heuristic(p, bands) for p in probes]
            assert bands_seq == sorted(bands_seq)


class TestTwoNeighborBand:
    """``heuristic_band`` classifies as the list-and-bands path does, distance for distance."""

    @staticmethod
    def reference(distance_m, nearest_m, farthest_m):
        bands = compute_heuristic_bands([heuristic_from_distance(nearest_m), heuristic_from_distance(farthest_m)])
        return classify_heuristic(heuristic_from_distance(distance_m), bands)

    @given(
        st.floats(min_value=0, max_value=5000, allow_nan=False),
        st.floats(min_value=0, max_value=5000, allow_nan=False),
        st.floats(min_value=0, max_value=5000, allow_nan=False),
    )
    def test_matches_reference(self, distance_m, nearest_m, farthest_m):
        assert heuristic_band(distance_m, nearest_m, farthest_m) is self.reference(distance_m, nearest_m, farthest_m)

    @given(st.integers(0, 500), st.integers(0, 100), st.integers(0, 4), st.integers(-1, 1), st.booleans())
    def test_matches_reference_on_band_edges(self, base, k, multiple, nudge, swap):
        # Extremes 3k heuristic units apart give w == k exactly, so h lands on 0, w, 2w, 3w or 4w, or
        # one unit off it; k == 0 is a tie.
        nearest_m, farthest_m = 10.0 * base, 10.0 * (base + 3 * k)
        if swap:
            nearest_m, farthest_m = farthest_m, nearest_m
        distance_m = 10.0 * max(0, multiple * k + nudge)
        assert heuristic_band(distance_m, nearest_m, farthest_m) is self.reference(distance_m, nearest_m, farthest_m)

    @given(
        st.floats(min_value=0, max_value=5000, allow_nan=False),
        st.floats(min_value=0, max_value=5000, allow_nan=False),
        st.sampled_from([2, 3]),
        st.integers(-2, 2),
    )
    def test_matches_reference_within_ulps_of_an_edge(self, nearest_m, farthest_m, multiple, ulps):
        w = compute_heuristic_bands([heuristic_from_distance(nearest_m), heuristic_from_distance(farthest_m)]).w
        distance_m = 10.0 * multiple * w
        for _ in range(abs(ulps)):
            distance_m = math.nextafter(distance_m, math.copysign(math.inf, ulps))
        distance_m = max(0.0, distance_m)
        assert heuristic_band(distance_m, nearest_m, farthest_m) is self.reference(distance_m, nearest_m, farthest_m)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_rejects_non_finite_or_negative_distance(self, bad, position):
        distances = [10.0, 20.0, 30.0]
        distances[position] = bad
        with pytest.raises(ValueError, match="finite"):
            heuristic_band(*distances)


class TestDecisionMatrix:
    FULL = {
        (TrustLevel.TOP, RrlStanding.CLEAR): TrustDecision.ACCEPT,
        (TrustLevel.TOP, RrlStanding.WATCH): TrustDecision.ACCEPT,
        (TrustLevel.TOP, RrlStanding.FLAGGED): TrustDecision.REJECT,
        (TrustLevel.MEDIUM, RrlStanding.CLEAR): TrustDecision.ACCEPT,
        (TrustLevel.MEDIUM, RrlStanding.WATCH): TrustDecision.UNSURE,
        (TrustLevel.MEDIUM, RrlStanding.FLAGGED): TrustDecision.REJECT,
        (TrustLevel.LOW, RrlStanding.CLEAR): TrustDecision.REJECT,
        (TrustLevel.LOW, RrlStanding.WATCH): TrustDecision.REJECT,
        (TrustLevel.LOW, RrlStanding.FLAGGED): TrustDecision.UNSURE,
    }

    def test_exhaustive(self):
        for level in TrustLevel:
            for standing in RrlStanding:
                assert decide_trust(level, standing) is self.FULL[(level, standing)]

    @pytest.mark.parametrize(
        "local, standing",
        [
            (-1, RrlStanding.CLEAR),  # a negative int would index the last row
            (TrustLevel.TOP, -1),
            (3, RrlStanding.CLEAR),
            (0, 0),
            (RrlStanding.CLEAR, TrustLevel.TOP),  # swapped arguments
        ],
    )
    def test_non_member_raises(self, local, standing):
        with pytest.raises(KeyError):
            decide_trust(local, standing)


class TestStaleness:
    def _rrl(self, members):
        entries = {v: ReputationRecord(v, 5) for v in members}
        return RsuReputationList(entries, 1, 0)

    def test_under_half(self):
        rrl = self._rrl(range(4))
        assert rrl_is_stale(rrl, set(range(10))) is True

    def test_no_neighbors(self):
        assert rrl_is_stale(self._rrl([1]), set()) is False

    def test_exact_half_boundary(self):
        rrl = self._rrl([0, 1, 2])
        assert rrl_is_stale(rrl, {0, 1, 2, 10, 11, 12}) is False

    def test_count_rule_on_arrays(self):
        # (known, heard) pairs: the ledger lists ``known`` of the ``heard`` neighbors.
        known = [0, 0, 1, 3, 3, 4]
        heard = [0, 1, 3, 6, 7, 4]
        assert [rrl_is_stale(self._rrl(range(k)), set(range(h))) for k, h in zip(known, heard)] == [
            False, True, True, False, True, False
        ]

    @given(
        st.sets(st.integers(min_value=0, max_value=50), max_size=30),
        st.sets(st.integers(min_value=0, max_value=50), max_size=30),
    )
    def test_removal_monotonicity(self, members, neighbors):
        # Removing a ledger entry never turns stale into fresh.
        rrl = self._rrl(members)
        before = rrl_is_stale(rrl, neighbors)
        for drop in list(members):
            smaller = self._rrl(members - {drop})
            after = rrl_is_stale(smaller, neighbors)
            assert not (before and not after)


class TestPointDelta:
    def test_floor(self):
        rec = ReputationRecord(1, 1)
        assert apply_point_delta(rec, -1).points == 0
        assert apply_point_delta(apply_point_delta(rec, -1), -1).points == 0

    def test_increment(self):
        assert apply_point_delta(ReputationRecord(1, 13), +1).points == 14

    def test_misbehavior_untouched(self):
        rec = ReputationRecord(1, 5, misbehavior_points=3)
        assert apply_point_delta(rec, -1).misbehavior_points == 3

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=-5, max_value=5))
    def test_never_negative(self, points, delta):
        rec = ReputationRecord(0, points)
        assert apply_point_delta(rec, delta).points >= 0

    @given(st.integers(min_value=1, max_value=10_000))
    def test_up_then_down_is_identity(self, points):
        rec = ReputationRecord(0, points)
        assert apply_point_delta(apply_point_delta(rec, +1), -1).points == points


class TestStandingNormalization:
    def test_absent_is_clear(self):
        rrl = RsuReputationList({1: ReputationRecord(1, 5)}, 1, 0)
        assert standing_of(rrl, 99) is RrlStanding.CLEAR
        assert standing_of(None, 1) is RrlStanding.CLEAR

    def test_band_mapping(self):
        entries = {v: ReputationRecord(v, p) for v, p in enumerate([13, 11, 7, 6, 4, 3, 1, 1])}
        rrl = RsuReputationList(entries, 1, 0)
        assert standing_of(rrl, 0) is RrlStanding.CLEAR  # 13 points
        assert standing_of(rrl, 2) is RrlStanding.WATCH  # 7 points
        assert standing_of(rrl, 4) is RrlStanding.FLAGGED  # 4 points


class TestPublishedBands:
    @given(st.dictionaries(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=2**62)))
    def test_bands_are_built_with_the_list(self, points):
        rrl = RsuReputationList({v: ReputationRecord(v, p) for v, p in points.items()}, 1, 0)
        bands = rrl.trust_bands()
        assert bands == (compute_trust_bands(points.values()) if points else None)
        assert rrl.trust_bands() is bands


class TestLedgers:
    def test_lrl_ranked_descending(self):
        lrl = LocalReputationList({1: 3, 2: 13, 3: 7, 4: 7})
        assert lrl.ranked() == [(2, 13), (3, 7), (4, 7), (1, 3)]

    def test_one_record_per_vehicle(self):
        lrl = LocalReputationList()
        lrl.upsert(1, 3)
        lrl.upsert(1, 9)
        assert len(lrl) == 1
        assert lrl.get(1) == 9

    def test_record_validation(self):
        with pytest.raises(ValueError):
            ReputationRecord(1, -1)
        with pytest.raises(ValueError):
            ReputationRecord(1, 0, misbehavior_points=-2)

    def test_negative_points_rejected(self):
        lrl = LocalReputationList({1: 3})
        with pytest.raises(ValueError):
            lrl.upsert(2, -1)
        assert lrl.entries == {1: 3}
        assert lrl.trust_bands() == compute_trust_bands([3])
        with pytest.raises(ValueError):
            LocalReputationList({1: 3, 2: -1})
        with pytest.raises(ValueError):
            LocalReputationList([(1, -2)])


def fraction_classify(points, lo, hi):
    # Reference rule with exact rational thresholds, as the paper states it.
    th = Fraction(hi - lo, 3)
    if th == 0:
        return TrustLevel.MEDIUM
    if points < lo + th:
        return TrustLevel.LOW
    if points <= lo + 2 * th:
        return TrustLevel.MEDIUM
    return TrustLevel.TOP


class TestIntegerClassify:
    @given(st.integers(min_value=0, max_value=5_000), st.integers(min_value=0, max_value=400))
    def test_matches_fraction_reference(self, lo, spread):
        hi = lo + spread
        bands = compute_trust_bands([lo, hi])
        for p in range(lo - 2, hi + 3):
            assert classify_trust(p, bands) is fraction_classify(p, lo, hi), (lo, hi, p)


_vehicles = st.integers(min_value=0, max_value=12)
_points = st.integers(min_value=0, max_value=30)
_ledger_ops = st.lists(
    st.one_of(
        st.tuples(st.just("upsert"), _vehicles, _points),
        st.tuples(st.just("ensure"), _vehicles, _points),
        # Deltas large enough to hit the floor at zero.
        st.tuples(st.just("adjust"), _vehicles, st.integers(min_value=-40, max_value=40), _points),
    ),
    max_size=60,
)


class TestLrlBounds:
    """The bounds kept as points change equal a full walk of the entries."""

    @staticmethod
    def check(lrl):
        pts = list(lrl.entries.values())
        if not pts:
            assert lrl.trust_bands() is None
        else:
            bands = lrl.trust_bands()
            assert (bands.min_points, bands.max_points) == (min(pts), max(pts))

    @given(st.lists(st.tuples(_vehicles, _points), max_size=20), _ledger_ops)
    def test_bounds_match_brute_force(self, initial, ops):
        lrl = LocalReputationList(initial)
        self.check(lrl)
        for op, vid, *args in ops:
            before = lrl.get(vid)
            if op == "upsert":
                lrl.upsert(vid, args[0])
            elif op == "ensure":
                assert lrl.ensure(vid, args[0]) == (args[0] if before is None else before)
            else:
                points = lrl.adjust(vid, args[0], args[1])
                start = args[1] if before is None else before
                assert points == lrl.get(vid) == max(0, start + args[0])
            self.check(lrl)

    def test_load_keeps_last_record_per_vehicle(self):
        lrl = LocalReputationList([(1, 2), (2, 9), (1, 5)])
        assert lrl.get(1) == 5
        assert lrl.trust_bands() == compute_trust_bands([5, 9])

    def test_load_needs_empty_ledger(self):
        lrl = LocalReputationList({1: 2})
        with pytest.raises(ValueError):
            lrl.load(LedgerSeed.of({2: 3}))

    @given(st.lists(st.tuples(_vehicles, _points), max_size=20), _vehicles, _ledger_ops)
    def test_load_leaves_out_owner(self, initial, owner, ops):
        seed = LedgerSeed.of(initial)
        lrl = LocalReputationList()
        lrl.load(seed, owner=owner)
        assert lrl.entries == {v: p for v, p in seed.points.items() if v != owner}
        self.check(lrl)
        # Writes after the load reach neither the seed's points nor its counts.
        counts = dict(seed.counts)
        for op, vid, *args in ops:
            if op == "adjust":
                lrl.adjust(vid, args[0], args[1])
            else:
                lrl.upsert(vid, args[0])
            self.check(lrl)
        assert seed.points == dict(initial)
        assert seed.counts == counts

    def test_owner_only_ledger_loads_empty(self):
        lrl = LocalReputationList()
        lrl.load(LedgerSeed.of({4: 7}), owner=4)
        assert len(lrl) == 0
        assert lrl.trust_bands() is None
        lrl.upsert(2, 3)
        assert lrl.trust_bands() == compute_trust_bands([3])


class TestLocalSeed:
    def test_one_seed_per_snapshot(self):
        rrl = RsuReputationList({1: ReputationRecord(1, 4, 2), 2: ReputationRecord(2, 9)}, 3, 100)
        seed = rrl.local_seed()
        assert rrl.local_seed() is seed
        assert seed.points == {1: 4, 2: 9}  # misbehavior points are not imported
        assert seed.counts == {4: 1, 9: 1}


class TestDeterminism:
    def test_pure_functions_repeat(self):
        pts = [13, 11, 7, 6, 4, 3, 1, 1]
        assert compute_trust_bands(pts) == compute_trust_bands(pts)
        hs = [10.0, 14.0, 33.0]
        assert compute_heuristic_bands(hs) == compute_heuristic_bands(hs)
        assert decide_trust(TrustLevel.LOW, RrlStanding.FLAGGED) is decide_trust(
            TrustLevel.LOW, RrlStanding.FLAGGED
        )

"""Acceptance criteria for the full artifact.

Each criterion prints one PASS/FAIL line (run ``pytest -s`` to see them
all). Criteria 4-6 share one 10-seed sweep of the stock scenario with ten
false-warning attackers, run through both pipelines.
"""

import math
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest
from neighbors import heard_from

from irsim import sim
from irsim.cli import run_one
from irsim.metrics import BUCKET_WIDTH_M
from irsim.protocol import (
    Disposition,
    EventKind,
    MisbehaviorReport,
    ProtocolConfig,
    RrlBroadcast,
    RsuNode,
    VehicleNode,
    Warning,
)
from irsim.reputation import (
    HeuristicBand,
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
    rrl_is_stale,
)
from irsim.scenario import ScenarioConfig

SEEDS = list(range(10))
RUN_BUDGET_S = 60.0


def check(num: int, description: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sweep():
    """10 seeds x {irs, accept-all} at the stock scenario, 10 attackers."""
    results = {}
    for pipeline in ("irs", "accept-all"):
        for seed in SEEDS:
            config = ScenarioConfig(attacker_count=10, seed=seed)
            started = time.perf_counter()
            result = sim.run(sim.build_scenario(config, pipeline))
            wall = time.perf_counter() - started
            results[(pipeline, seed)] = (result, wall)
    return results


class TestCriterion1:
    def test_worked_example_fidelity(self):
        points = [13, 11, 7, 6, 4, 3, 1, 1]
        expected_levels = {
            13: TrustLevel.TOP,
            11: TrustLevel.TOP,
            7: TrustLevel.MEDIUM,
            6: TrustLevel.MEDIUM,
            4: TrustLevel.LOW,
            3: TrustLevel.LOW,
            1: TrustLevel.LOW,
        }
        started = time.perf_counter()
        bands = compute_trust_bands(points)
        levels = {p: classify_trust(p, bands) for p in points}
        elapsed = time.perf_counter() - started

        ranges_ok = (
            all(classify_trust(p, bands) is TrustLevel.LOW for p in range(1, 5))
            and all(classify_trust(p, bands) is TrustLevel.MEDIUM for p in range(5, 10))
            and all(classify_trust(p, bands) is TrustLevel.TOP for p in range(10, 14))
        )
        ok = (
            bands.min_points == 1
            and bands.max_points == 13
            and bands.th == Fraction(4)
            and levels == expected_levels
            and ranges_ok
            and elapsed < 1e-3
        )
        check(1, "worked-example band fidelity, exact, under 1 ms", ok, f"{elapsed * 1e6:.0f} us")


class TestCriterion2:
    def test_heuristic_fidelity(self):
        started = time.perf_counter()
        bands = compute_heuristic_bands([10.0, 33.0])
        band_11 = classify_heuristic(11.0, bands)
        elapsed = time.perf_counter() - started
        ok = abs(bands.h_eval - 15.34) <= 0.02 and band_11 is HeuristicBand.NEAR and elapsed < 1e-3
        check(
            2,
            "heuristic evaluation within 0.02 of 15.34 and H=11 near",
            ok,
            f"h_eval={bands.h_eval:.4f}, {elapsed * 1e6:.0f} us",
        )


class TestCriterion3:
    def test_decision_matrix_exact(self):
        expected = {
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
        ok = all(
            decide_trust(level, standing) is expected[(level, standing)]
            for level in TrustLevel
            for standing in RrlStanding
        )
        check(3, "decision matrix equals the reference on all 9 pairs", ok)


class TestCriterion4:
    def test_victim_reproduction(self, sweep):
        irs_victims = [sweep[("irs", s)][0].report.victims for s in SEEDS]
        baseline_victims = [sweep[("accept-all", s)][0].report.victims for s in SEEDS]
        strictly_less = all(a < b for a, b in zip(irs_victims, baseline_victims))
        median = statistics.median(irs_victims)
        walls = [sweep[(p, s)][1] for p in ("irs", "accept-all") for s in SEEDS]
        ok = strictly_less and 2 <= median <= 8 and max(walls) < RUN_BUDGET_S
        check(
            4,
            "victims strictly below baseline on every seed, median in [2, 8]",
            ok,
            f"irs={irs_victims}, baseline_median={statistics.median(baseline_victims)}, "
            f"median={median}, max_wall={max(walls):.1f}s",
        )


class TestCriterion5:
    def test_trusted_fraction_by_distance(self, sweep):
        pooled: dict[float, list[int]] = {}
        for seed in SEEDS:
            report = sweep[("irs", seed)][0].report
            for b in report.buckets:
                agg = pooled.setdefault(b.low_m, [0, 0])
                agg[0] += b.samples
                agg[1] += round(b.trusted_fraction * b.samples)
        fractions = [
            (low, correct / samples if samples else 0.0)
            for low, (samples, correct) in sorted(pooled.items())
        ]
        by_low = dict(fractions)
        nearest = fractions[0][1]
        at_160 = by_low[160.0]
        upto = [f for low, f in fractions if low <= 160.0 - BUCKET_WIDTH_M]
        inversions = [upto[i + 1] - upto[i] for i in range(len(upto) - 1) if upto[i + 1] > upto[i]]
        ok = (
            nearest >= 0.85
            and at_160 >= 0.45
            and len(inversions) <= 1
            and all(v <= 0.05 for v in inversions)
        )
        check(
            5,
            "trusted fraction: nearest >= 0.85, 160 m >= 0.45, near-monotone",
            ok,
            f"nearest={nearest:.4f}, at160={at_160:.4f}, inversions={[round(v, 5) for v in inversions]}",
        )


class TestCriterion6:
    def test_latency_reported_and_ordered(self, sweep):
        irs_means = [sweep[("irs", s)][0].report.latency_mean_ns for s in SEEDS]
        baseline_means = [sweep[("accept-all", s)][0].report.latency_mean_ns for s in SEEDS]
        finite = all(
            m is not None and math.isfinite(m) and m > 0 for m in irs_means + baseline_means
        )
        ordered = all(a >= b for a, b in zip(irs_means, baseline_means))
        ok = finite and ordered
        check(
            6,
            "pipeline latency finite and accept-all never slower than the decision engine",
            ok,
            f"irs_mean={statistics.fmean(irs_means) / 1000:.1f}us, "
            f"baseline_mean={statistics.fmean(baseline_means) / 1000:.1f}us",
        )


class TestCriterion7:
    def test_byte_identical_reruns(self, tmp_path):
        config = ScenarioConfig(attacker_count=10, vehicle_count=40, duration=30.0)
        dirs = (tmp_path / "a", tmp_path / "b")
        for d in dirs:
            d.mkdir()
            for pipeline in ("irs", "accept-all"):
                run_one(config, seed=0, pipeline=pipeline, run_dir=d, write_csv=True)
        mismatched = []
        for name in ("irs-seed0.log", "irs-seed0.json", "irs-seed0.csv",
                     "accept-all-seed0.log", "accept-all-seed0.json", "accept-all-seed0.csv"):
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                mismatched.append(name)
        ok = not mismatched
        check(7, "two executions produce byte-identical logs and metrics", ok, f"mismatched={mismatched}")


class TestCriterion8:
    def test_property_suites(self, sweep):
        failures = []

        # Band totality over a deterministic sample of point sets.
        rng = np.random.Generator(np.random.PCG64(99))
        for _ in range(200):
            pts = [int(p) for p in rng.integers(0, 40, size=int(rng.integers(1, 12)))]
            bands = compute_trust_bands(pts)
            for probe in range(0, 45):
                if classify_trust(probe, bands) not in TrustLevel:
                    failures.append("band totality")
        # Decision totality.
        for level in TrustLevel:
            for standing in RrlStanding:
                if decide_trust(level, standing) not in TrustDecision:
                    failures.append("decision totality")

        # Reputation floor.
        rec = ReputationRecord(1, 0)
        for _ in range(5):
            rec = apply_point_delta(rec, -1)
        if rec.points != 0:
            failures.append("floor")

        # Pending single-resolution.
        node = VehicleNode(0, ProtocolConfig())
        ledger = {1: 13, 2: 11, 3: 7, 4: 4, 5: 1}
        for vid, pts in ledger.items():
            node.lrl.upsert(vid, pts)
        records = {v: ReputationRecord(v, p) for v, p in sorted(ledger.items())}
        node.handle_rrl_broadcast(RrlBroadcast(RsuReputationList(records, 1, 9000), 0.0))
        neighbors = {5: (100.0, 0.0), 2: (140.0, 0.0)}
        w1 = Warning(5, 70, EventKind.ICE, (110.0, 0.0), 1.0)
        out = node.handle_warning(w1, 1.0, heard_from(neighbors, w1))
        if out.disposition is not Disposition.PENDING:
            failures.append("pending setup")
        w2 = Warning(2, 70, EventKind.ICE, (111.0, 0.0), 1.5)
        out2 = node.handle_warning(w2, 1.5, heard_from(neighbors, w2))
        if out2.finalized != ((5, 70, Disposition.ACCEPT),):
            failures.append("pending resolution")
        expired = node.expire_pending(10.0)
        if expired.finalized or expired.reports:
            failures.append("pending double resolution")

        # Two-distinct-reporter escalation and flagged immunity.
        rsu = RsuNode(9000, (500.0, 500.0), 440.0, ProtocolConfig())
        rsu.seed(list(range(20)), 5)
        rsu.handle_report(MisbehaviorReport(2, 14, 7, 1.0), 1.0)
        if rsu.entries[14].misbehavior_points != 0:
            failures.append("single report escalated")
        rsu.handle_report(MisbehaviorReport(2, 14, 7, 2.0), 2.0)
        if rsu.entries[14].misbehavior_points != 0:
            failures.append("same reporter escalated")
        rsu.handle_report(MisbehaviorReport(5, 14, 7, 3.0), 3.0)
        if rsu.entries[14].misbehavior_points != 1:
            failures.append("two distinct reporters did not escalate")

        rsu2 = RsuNode(9000, (500.0, 500.0), 440.0, ProtocolConfig())
        rsu2.seed(list(range(20)), 5)
        rsu2.entries[3] = ReputationRecord(3, 0)
        rsu2.entries[4] = ReputationRecord(4, 13)
        before = dict(rsu2.entries)
        for t, accused in enumerate((14, 15, 14, 16)):
            rsu2.handle_report(MisbehaviorReport(3, accused, 50 + t, float(t)), float(t))
        if rsu2.entries != before:
            failures.append("flagged reporter changed the ledger")

        # Radio soundness over the sweep's delivered messages.
        for seed in SEEDS[:3]:
            for line in sweep[("irs", seed)][0].log_lines:
                parts = line.split("\t")
                if parts[1] == "DELIVER" and float(parts[7]) > 300.0:
                    failures.append("delivery beyond range")

        # Monte Carlo delivery frequency at 30% loss.
        channel = sim.Channel(300.0, 0.3, np.random.Generator(np.random.PCG64(2024)))
        trials = 100_000
        hits = sum(bool(channel.in_range_sq(120.0, 0.0) and channel.kept()) for _ in range(trials))
        frequency = hits / trials
        if abs(frequency - 0.7) > 0.02:
            failures.append(f"monte carlo frequency {frequency}")

        # Staleness monotonicity on nested ledgers.
        neighbors = set(range(10))
        for present in range(10):
            full = RsuReputationList({v: ReputationRecord(v, 5) for v in range(present)}, 1, 0)
            smaller = RsuReputationList({v: ReputationRecord(v, 5) for v in range(max(0, present - 1))}, 1, 0)
            if rrl_is_stale(full, neighbors) and not rrl_is_stale(smaller, neighbors):
                failures.append("staleness monotonicity")

        ok = not failures
        check(8, "property suites (totality, floor, pending, escalation, radio)", ok, f"failures={failures}")

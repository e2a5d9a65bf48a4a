"""Decision log, report finalization, export round-trips, replay."""

import pytest

from irsim.metrics import (
    DecisionLog,
    DecisionRecord,
    MetricsError,
    RunInfo,
    export,
    finalize,
    load_report,
    replay_event_log,
)
from irsim.protocol import Disposition


def rec(receiver=1, sender=2, event=10, truth=True, decision=Disposition.ACCEPT,
        t=1.0, dist=50.0, latency=None):
    return DecisionRecord(t, receiver, sender, event, truth, decision, dist, latency)


def info(benign=range(100), extras=None):
    return RunInfo(
        config_hash="cafe01020304",
        seed=7,
        pipeline="irs",
        benign=frozenset(benign),
        range_m=300.0,
        extras=extras or {},
    )


class TestDecisionLog:
    def test_append_increases_count(self):
        log = DecisionLog()
        log.record(rec())
        assert len(log) == 1

    def test_pending_then_final_yields_one_final(self):
        log = DecisionLog()
        log.record(rec(decision=Disposition.PENDING))
        log.record(rec(decision=Disposition.ACCEPT, t=2.0))
        finals = log.final_records()
        assert len(finals) == 1
        assert finals[0].decision is Disposition.ACCEPT
        assert log.pending_resolved_count() == 1

    def test_provisional_record_outlives_its_final(self):
        log = DecisionLog()
        held = rec(decision=Disposition.PENDING, dist=123.5)
        log.record(held)
        log.record(rec(decision=Disposition.REJECT, t=3.0))
        assert log.provisional(1, 10, 2) is held
        with pytest.raises(MetricsError, match="duplicate provisional"):
            log.record(rec(decision=Disposition.PENDING, t=4.0))

    def test_duplicate_final_rejected(self):
        log = DecisionLog()
        log.record(rec())
        with pytest.raises(MetricsError, match="duplicate final"):
            log.record(rec(t=3.0))

    def test_unresolved_pending_blocks_finalize(self):
        log = DecisionLog()
        log.record(rec(decision=Disposition.PENDING))
        with pytest.raises(MetricsError, match="never finalized"):
            finalize(log, info())


class TestFinalize:
    def test_zero_attackers_zero_victims(self):
        log = DecisionLog()
        for i in range(5):
            log.record(rec(receiver=i, sender=50 + i, event=i, truth=True))
        report = finalize(log, info())
        assert report.victims == 0

    def test_victims_counted_once_per_vehicle(self):
        log = DecisionLog()
        log.record(rec(receiver=1, sender=9, event=1, truth=False))
        log.record(rec(receiver=1, sender=9, event=2, truth=False))
        log.record(rec(receiver=2, sender=9, event=3, truth=False))
        report = finalize(log, info())
        assert report.victims == 2

    def test_attacker_receivers_not_victims(self):
        log = DecisionLog()
        log.record(rec(receiver=99, sender=9, event=1, truth=False))
        report = finalize(log, info(benign=range(50)))
        assert report.victims == 0

    def test_rejected_false_is_not_a_victim(self):
        log = DecisionLog()
        log.record(rec(receiver=1, sender=9, event=1, truth=False, decision=Disposition.REJECT))
        assert finalize(log, info()).victims == 0

    def test_all_accept_on_true_gives_unit_fractions(self):
        log = DecisionLog()
        for i, dist in enumerate([5.0, 30.0, 150.0, 290.0]):
            log.record(rec(receiver=i, event=i, truth=True, dist=dist))
        report = finalize(log, info())
        touched = [b for b in report.buckets if b.samples]
        assert all(b.trusted_fraction == 1.0 for b in touched)
        assert all(b.acceptance_rate == 1.0 for b in touched)

    def test_bucket_conservation_and_bounds(self):
        log = DecisionLog()
        dists = [1.0, 19.9, 20.0, 55.0, 299.0, 300.0]
        for i, d in enumerate(dists):
            truth = i % 2 == 0
            decision = Disposition.ACCEPT if i % 3 else Disposition.REJECT
            log.record(rec(receiver=i, event=i, truth=truth, decision=decision, dist=d))
        report = finalize(log, info())
        assert sum(b.samples for b in report.buckets) == len(dists)
        for b in report.buckets:
            assert 0.0 <= b.trusted_fraction <= 1.0
            assert 0.0 <= b.acceptance_rate <= 1.0
        assert len(report.buckets) == 15  # 300 m range in 20 m buckets

    def test_victims_invariant_under_reordering(self):
        records = [
            rec(receiver=1, sender=9, event=1, truth=False),
            rec(receiver=2, sender=9, event=2, truth=False, decision=Disposition.REJECT),
            rec(receiver=3, sender=8, event=3, truth=True),
            rec(receiver=4, sender=9, event=4, truth=False),
        ]
        log_a, log_b = DecisionLog(), DecisionLog()
        for r in records:
            log_a.record(r)
        for r in reversed(records):
            log_b.record(r)
        assert finalize(log_a, info()).victims == finalize(log_b, info()).victims

    def test_histogram_and_latency(self):
        log = DecisionLog()
        log.record(rec(receiver=1, event=1, latency=1000))
        log.record(rec(receiver=2, event=2, decision=Disposition.REJECT, truth=False, latency=3000))
        report = finalize(log, info())
        assert report.histogram == {"accept": 1, "reject": 1}
        assert report.latency_mean_ns == 2000.0
        assert report.latency_median_ns == 2000.0


class TestExport:
    def _report(self):
        log = DecisionLog()
        log.record(rec(receiver=1, sender=9, event=1, truth=False, dist=15.0, latency=500))
        log.record(rec(receiver=2, sender=8, event=2, truth=True, dist=170.0, latency=700))
        log.record(rec(receiver=3, sender=7, event=3, truth=False, decision=Disposition.REJECT, dist=40.0))
        return finalize(log, info(extras={"warnings_emitted": 3}))

    def test_json_round_trip(self, tmp_path):
        report = self._report()
        path = export(report, "json", tmp_path / "r.json", include_latency=True)
        loaded = load_report(path)
        assert loaded == report

    def test_json_deterministic_by_default(self, tmp_path):
        report = self._report()
        path = export(report, "json", tmp_path / "r.json")
        loaded = load_report(path)
        assert loaded.latency_mean_ns is None
        assert loaded.victims == report.victims
        assert loaded.buckets == report.buckets

    def test_csv_round_trip(self, tmp_path):
        report = self._report()
        path = export(report, "csv", tmp_path / "r.csv")
        loaded = load_report(path)
        assert loaded.buckets == report.buckets
        assert loaded.victims == report.victims
        assert loaded.histogram == report.histogram
        assert loaded.config_hash == report.config_hash
        assert loaded.extras == report.extras
        assert loaded.pending_resolved == report.pending_resolved

    def test_empty_report_header_only(self, tmp_path):
        log = DecisionLog()
        report = finalize(log, info())
        path = export(report, "csv", tmp_path / "empty.csv")
        text = path.read_text()
        assert text.startswith("bucket_low_m,bucket_high_m,samples")
        loaded = load_report(path)
        assert loaded.victims == 0

    def test_unwritable_destination_errors_with_path(self, tmp_path):
        report = self._report()
        bad = tmp_path / "missing-dir" / "r.json"
        with pytest.raises(OSError, match="missing-dir"):
            export(report, "json", bad)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown export format"):
            export(self._report(), "xml", tmp_path / "r.xml")


class TestReplay:
    def test_replay_matches_live(self):
        lines = [
            "1.000000\tDELIVER\t9\t1\t4\tpending\t0\t55.000",
            "1.500000\tEMIT\t3\t-\t5\t-\t-\t-",
            "2.000000\tRESOLVE\t9\t1\t4\taccept\t0\t55.000",
            "2.500000\tDELIVER\t8\t2\t5\taccept\t1\t120.000",
            "3.000000\tDELIVER\t7\t3\t6\treject\t0\t80.000",
        ]
        live = DecisionLog()
        live.record(rec(receiver=1, sender=9, event=4, truth=False, decision=Disposition.PENDING, dist=55.0))
        live.record(rec(receiver=1, sender=9, event=4, truth=False, decision=Disposition.ACCEPT, t=2.0, dist=55.0))
        live.record(rec(receiver=2, sender=8, event=5, truth=True, t=2.5, dist=120.0))
        live.record(rec(receiver=3, sender=7, event=6, truth=False, decision=Disposition.REJECT, t=3.0, dist=80.0))

        replayed = replay_event_log(lines, info())
        live_report = finalize(live, info())
        replay_report = finalize(replayed, info())
        assert replay_report.deterministic_view() == live_report.deterministic_view()

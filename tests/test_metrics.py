"""Decision log, report finalization, export round-trips, replay."""

import io
import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from irsim.metrics import (
    BUCKET_WIDTH_M,
    DISPOSITION_NAMES,
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


class TestDecisionRecord:
    def test_fields_in_order(self):
        assert DecisionRecord._fields == (
            "time", "receiver", "sender", "event_id", "ground_truth", "decision", "distance_m", "latency_ns",
        )

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="distance must be >= 0"):
            rec(dist=-1.0)

    def test_negative_distance_rejected_on_replay(self):
        with pytest.raises(ValueError, match="distance must be >= 0"):
            replay_event_log(["1.000000\tDELIVER\t9\t1\t4\taccept\t0\t-1.000\n"], info())

    def test_replace_keeps_the_distance_check(self):
        with pytest.raises(ValueError, match="distance must be >= 0"):
            rec()._replace(distance_m=-0.5)
        assert rec()._replace(distance_m=7.0) == rec(dist=7.0)

    def test_fields_are_read_only(self):
        r = rec()
        for name in DecisionRecord._fields:
            with pytest.raises(AttributeError):
                setattr(r, name, 0)
        with pytest.raises(AttributeError):
            r.note = "new attribute"

    def test_latency_defaults_to_none(self):
        assert DecisionRecord(1.0, 1, 2, 10, True, Disposition.ACCEPT, 50.0).latency_ns is None

    def test_keyword_construction(self):
        r = DecisionRecord(
            time=1.0, receiver=1, sender=2, event_id=10, ground_truth=True,
            decision=Disposition.ACCEPT, distance_m=50.0, latency_ns=7,
        )
        assert r == rec(latency=7)


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


def reference_report(records, benign, range_m):
    """Victims, bucket rows and histogram, each computed on its own from the final records."""
    finals = [r for r in records if r.decision is not Disposition.PENDING]
    victims = {
        r.receiver for r in finals
        if r.decision is Disposition.ACCEPT and not r.ground_truth and r.receiver in benign
    }
    n_buckets = max(1, math.ceil(range_m / BUCKET_WIDTH_M))
    rows = []
    for i in range(n_buckets):
        low, high = i * BUCKET_WIDTH_M, (i + 1) * BUCKET_WIDTH_M
        last = i == n_buckets - 1
        inside = [r for r in finals if low <= r.distance_m and (r.distance_m < high or last)]
        right = [r for r in inside if (r.decision is Disposition.ACCEPT) == r.ground_truth]
        accepted = [r for r in inside if r.decision is Disposition.ACCEPT]
        n = len(inside)
        rows.append((low, high, n, len(right) / n if n else 0.0, len(accepted) / n if n else 0.0))
    histogram = dict(Counter(DISPOSITION_NAMES[r.decision] for r in finals))
    return len(victims), rows, histogram


_BUCKET_EDGES = [k * BUCKET_WIDTH_M for k in range(18)]
_decisions = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 7), st.integers(0, 4), st.integers(0, 7)),  # receiver, event, sender
        st.booleans(),  # ground truth
        st.sampled_from([Disposition.ACCEPT, Disposition.REJECT]),  # final decision
        st.booleans(),  # held as PENDING first
        st.one_of(st.sampled_from(_BUCKET_EDGES + [249.999, 250.0, 299.999, 300.0, 1000.0]),
                  st.floats(0.0, 400.0)),
        st.one_of(st.none(), st.integers(0, 10**6)),  # latency
    ),
    unique_by=lambda d: d[0],
    max_size=40,
)


class TestFinalizeProperty:
    @given(_decisions, st.frozensets(st.integers(0, 7)), st.sampled_from([300.0, 250.0, 10.0]))
    def test_matches_brute_force_reference(self, decisions, benign, range_m):
        log = DecisionLog()
        # Every provisional record first, then the finals in reverse order.
        for t, ((receiver, event, sender), truth, _final, held, dist, latency) in enumerate(decisions):
            if held:
                log.record(DecisionRecord(t, receiver, sender, event, truth, Disposition.PENDING, dist, latency))
        for t, ((receiver, event, sender), truth, final, _held, dist, latency) in reversed(list(enumerate(decisions))):
            log.record(DecisionRecord(t + 0.5, receiver, sender, event, truth, final, dist, latency))

        report = finalize(log, RunInfo("cafe", 0, "irs", benign, range_m))
        victims, rows, histogram = reference_report(log.records, benign, range_m)
        assert report.victims == victims
        assert [(b.low_m, b.high_m, b.samples, b.trusted_fraction, b.acceptance_rate) for b in report.buckets] == rows
        assert report.histogram == histogram
        assert report.pending_resolved == sum(held for _, _, _, held, _, _ in decisions)


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


# One line of every kind the simulator writes, in its column layout.
_CLEAN_LOG = [
    "0.500000\tSPAWN\t-\t-\t4\t-\t-\t-",
    "0.700000\tEMIT\t9\t-\t4\t-\t-\t-",
    "1.000000\tDELIVER\t9\t1\t4\tpending\t0\t55.000",
    "1.100000\tREQ\t1\t-\t-\t-\t-\t-",
    "1.200000\tRRL\t10000\t1\t-\t-\t-\t-",
    "1.300000\tFWD\t10000\t10001\t-\t-\t-\t-",
    "2.000000\tRESOLVE\t9\t1\t4\treject\t0\t55.000",
    "2.000000\tREPORT\t1\t10000\t4\t-\t-\t-",
    "2.500000\tDELIVER\t8\t2\t5\taccept\t1\t120.000",
    "3.000000\tDELIVER\t7\t3\t6\tpending\t0\t80.000",
    "35.001000\tEXPIRE\t7\t3\t6\treject\t0\t80.000",
]


class TestReplayEdgeInput:
    def _replay(self, text):
        return replay_event_log(io.StringIO(text, newline=""), info())

    def test_clean_input(self):
        log = self._replay("\n".join(_CLEAN_LOG) + "\n")
        assert [(r.receiver, r.sender, r.event_id, r.decision) for r in log.records] == [
            (1, 9, 4, Disposition.PENDING),
            (1, 9, 4, Disposition.REJECT),
            (2, 8, 5, Disposition.ACCEPT),
            (3, 7, 6, Disposition.PENDING),
            (3, 7, 6, Disposition.REJECT),
        ]

    @pytest.mark.parametrize(
        "text",
        [
            "\r\n".join(_CLEAN_LOG) + "\r\n",
            "\n".join(_CLEAN_LOG),
            "\r\n".join(_CLEAN_LOG),
            "\n" + "\n\n".join(_CLEAN_LOG) + "\n\n",
            "\r\n" + "\r\n\r\n".join(_CLEAN_LOG) + "\r\n \r\n",
        ],
        ids=["crlf", "no-final-newline", "crlf-no-final-newline", "blank-lines", "crlf-blank-lines"],
    )
    def test_same_log_as_clean_input(self, text):
        clean = self._replay("\n".join(_CLEAN_LOG) + "\n")
        edged = self._replay(text)
        assert edged.records == clean.records
        assert edged.final_records() == clean.final_records()

    def test_line_without_columns_rejected(self):
        with pytest.raises(MetricsError, match="malformed event-log line"):
            replay_event_log(["1.000000 DELIVER 9 1 4 accept 0 5.000\n"], info())

    @pytest.mark.parametrize(
        "line",
        [
            "1.000000\tDELIVER\t9\t1\n",
            "1.000000\tDELIVER\t9\t1\t4\taccept\t0\t5.000\textra\n",
            "1.100000\tREQ\t1\t-\n",
            "1.000000\tDELIVER\t9\t1\t4\tmaybe\t0\t5.000\n",
            "2.000000\tRESOLVE\t9\t1\t4\t-\t0\t5.000\n",
            "1.000000\tDELIVER\tnine\t1\t44\taccept\t0\t5.000\n",
            "1.000000\tDELIVER\t9\tone\t44\taccept\t0\t5.000\n",
            "1.000000\tDELIVER\t9\t1\t4.5\taccept\t0\t5.000\n",
            "soon\tDELIVER\t9\t1\t44\taccept\t0\t5.000\n",
            "1.000000\tDELIVER\t9\t1\t44\taccept\t0\tfar\n",
            "1.000000\tDELIVER\t9\t1\t44\taccept\tyes\t5.000\n",
            "1.000000\tDELIVER\t9\t1\t44\taccept\t\t5.000\n",
        ],
        ids=[
            "four-fields", "nine-fields", "short-non-decision", "unknown-decision", "no-decision",
            "non-numeric-sender", "non-numeric-receiver", "non-integer-event", "non-numeric-time",
            "non-numeric-distance", "truth-yes", "truth-empty",
        ],
    )
    def test_malformed_line_rejected(self, line):
        with pytest.raises(MetricsError, match="malformed event-log line"):
            self._replay("\n".join(_CLEAN_LOG) + "\n" + line)

    def test_negative_distance_still_value_error(self):
        with pytest.raises(ValueError, match="distance"):
            self._replay("1.000000\tDELIVER\t9\t1\t4\taccept\t0\t-5.000\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["time", "distance"])
    def test_non_finite_time_or_distance_rejected(self, field, value):
        # float() parses these, and finalize could not bucket them; they never reach a record.
        time_s, distance = (value, "5.000") if field == "time" else ("1.000000", value)
        line = f"{time_s}\tDELIVER\t9\t1\t44\taccept\t0\t{distance}\n"
        with pytest.raises(MetricsError, match="non-finite time or distance"):
            self._replay("\n".join(_CLEAN_LOG) + "\n" + line)

    def test_finite_extremes_still_replay(self):
        # The finiteness test multiplies by zero first, so large finite values do not overflow it.
        line = "1e308\tDELIVER\t9\t1\t44\taccept\t0\t1e308\n"
        (record,) = self._replay(line).records
        assert (record.time, record.distance_m) == (1e308, 1e308)

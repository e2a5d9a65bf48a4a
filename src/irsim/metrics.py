"""Decision logging, victim accounting, distance-bucketed correctness, timing stats.

A :class:`DecisionLog` collects one record per delivered warning. A PENDING
record is provisional and must be superseded by exactly one final record
for the same (receiver, event, sender) triple; a second final record for a
triple is a protocol-invariant breach and raises.

"Trusted fraction" per distance bucket is decision correctness: accepting
a true warning or rejecting a false one counts as correct. The raw
acceptance rate is exported alongside for comparison.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import statistics
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .protocol import Disposition

BUCKET_WIDTH_M = 20.0

DISPOSITION_NAMES = {
    Disposition.ACCEPT: "accept",
    Disposition.REJECT: "reject",
    Disposition.PENDING: "pending",
}
_DISPOSITION_FROM_NAME = {v: k for k, v in DISPOSITION_NAMES.items()}
_ACCEPT = Disposition.ACCEPT
_PENDING = Disposition.PENDING


class MetricsError(Exception):
    """Raised when the decision log is fed inconsistent records."""


class _DecisionFields(NamedTuple):
    time: float
    receiver: int
    sender: int
    event_id: int
    ground_truth: bool
    decision: Disposition
    distance_m: float
    latency_ns: Optional[int] = None


class DecisionRecord(_DecisionFields):
    """One decision on one delivered warning: an immutable tuple.

    A tuple rather than a frozen dataclass because replay builds one per
    decision line, and a frozen dataclass pays one ``object.__setattr__`` per
    field: built from positional arguments, a record took 1.5-2.4 us as a
    frozen dataclass and 0.5-0.7 us as this tuple (Python 3.11, 2-core VM),
    with the same check on the distance.
    """

    __slots__ = ()

    def __new__(
        cls,
        time: float,
        receiver: int,
        sender: int,
        event_id: int,
        ground_truth: bool,
        decision: Disposition,
        distance_m: float,
        latency_ns: Optional[int] = None,
    ) -> DecisionRecord:
        if distance_m < 0:
            raise ValueError("distance must be >= 0")
        return tuple.__new__(cls, (time, receiver, sender, event_id, ground_truth, decision, distance_m, latency_ns))

    @classmethod
    def _make(cls, iterable: Iterable) -> DecisionRecord:
        # NamedTuple's _make (and so _replace) would skip the check in __new__.
        return cls(*iterable)


class DecisionLog:
    """Append-only log of warning decisions for one run."""

    def __init__(self) -> None:
        self.records: list[DecisionRecord] = []
        # (receiver, event, sender) -> its PENDING record, and its final record.
        self._pending: dict[tuple[int, int, int], DecisionRecord] = {}
        self._final: dict[tuple[int, int, int], DecisionRecord] = {}

    def __len__(self) -> int:
        return len(self.records)

    def record(self, rec: DecisionRecord) -> None:
        # (receiver, event_id, sender) and decision, by tuple index.
        key = (rec[1], rec[3], rec[2])
        if rec[5] is _PENDING:
            if key in self._final or key in self._pending:
                raise MetricsError(f"duplicate provisional decision for {key}")
            self._pending[key] = rec
        elif key in self._final:
            raise MetricsError(f"duplicate final decision for {key}")
        else:
            self._final[key] = rec
        self.records.append(rec)

    def provisional(self, receiver: int, event_id: int, sender: int) -> DecisionRecord:
        """The PENDING record of a triple; KeyError if it never had one."""
        return self._pending[(receiver, event_id, sender)]

    def final_records(self) -> list[DecisionRecord]:
        return list(self._final.values())

    def unresolved(self) -> list[tuple[int, int, int]]:
        """Triples still waiting for a final record."""
        return [k for k in self._pending if k not in self._final]

    def pending_resolved_count(self) -> int:
        return sum(1 for k in self._pending if k in self._final)


@dataclass(frozen=True)
class RunInfo:
    """Context a log needs to be turned into a report."""

    config_hash: str
    seed: int
    pipeline: str
    benign: frozenset[int]
    range_m: float
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class BucketStat:
    low_m: float
    high_m: float
    samples: int
    trusted_fraction: float
    acceptance_rate: float


@dataclass
class MetricsReport:
    """Per-run results. Latency fields are wall-clock and non-deterministic."""

    config_hash: str
    seed: int
    pipeline: str
    victims: int
    buckets: list[BucketStat]
    histogram: dict[str, int]
    pending_resolved: int
    latency_mean_ns: Optional[float] = None
    latency_median_ns: Optional[float] = None
    extras: dict = field(default_factory=dict)

    def deterministic_view(self) -> dict:
        """Everything except the timing instrumentation, as plain data.

        Buckets become dicts; the histogram and extras are the report's own
        dicts, not copies. (``dataclasses.asdict`` would copy every value, at
        about 10 us per bucket.)
        """
        view = {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.name not in _LATENCY_FIELDS}
        view["buckets"] = [{name: getattr(b, name) for name in _BUCKET_FIELDS} for b in self.buckets]
        view["schema"] = "irsim-metrics/1"
        return view


_LATENCY_FIELDS = ("latency_mean_ns", "latency_median_ns")
_BUCKET_FIELDS = tuple(f.name for f in dataclasses.fields(BucketStat))
# The report's one-value fields, in declaration order: the CSV summary block.
_SCALAR_FIELDS = {
    name: hint for name, hint in typing.get_type_hints(MetricsReport).items() if hint in (int, str)
}


def finalize(log: DecisionLog, info: RunInfo) -> MetricsReport:
    """Reduce a completed decision log to a report.

    Requires every provisional record to have been superseded; victims are
    counted once per benign vehicle that finally accepted a false warning.
    """
    dangling = log.unresolved()
    if dangling:
        raise MetricsError(f"{len(dangling)} pending decisions never finalized")

    n_buckets = max(1, int(-(-info.range_m // BUCKET_WIDTH_M)))
    last = n_buckets - 1
    samples = [0] * n_buckets
    correct = [0] * n_buckets
    accepts = [0] * n_buckets
    benign = info.benign
    victims: set[int] = set()
    finals = log.final_records()
    for _time, receiver, _sender, _event, truth, decision, distance, _latency in finals:
        idx = int(distance // BUCKET_WIDTH_M)
        if idx > last:
            idx = last
        samples[idx] += 1
        if decision is _ACCEPT:
            accepts[idx] += 1
            if truth:
                correct[idx] += 1
            elif receiver in benign:
                victims.add(receiver)
        elif not truth:
            correct[idx] += 1
    buckets = [
        BucketStat(
            i * BUCKET_WIDTH_M,
            (i + 1) * BUCKET_WIDTH_M,
            samples[i],
            correct[i] / samples[i] if samples[i] else 0.0,
            accepts[i] / samples[i] if samples[i] else 0.0,
        )
        for i in range(n_buckets)
    ]
    # A final record is never PENDING, so whatever was not accepted was rejected.
    accepted = sum(accepts)
    counts = ((_ACCEPT, accepted), (Disposition.REJECT, len(finals) - accepted))
    histogram = {DISPOSITION_NAMES[d]: n for d, n in counts if n}

    latencies = [r[7] for r in log.records if r[7] is not None]  # latency_ns
    mean_ns = float(statistics.fmean(latencies)) if latencies else None
    median_ns = float(statistics.median(latencies)) if latencies else None

    return MetricsReport(
        config_hash=info.config_hash,
        seed=info.seed,
        pipeline=info.pipeline,
        victims=len(victims),
        buckets=buckets,
        histogram=histogram,
        pending_resolved=log.pending_resolved_count(),
        latency_mean_ns=mean_ns,
        latency_median_ns=median_ns,
        extras=dict(info.extras),
    )


# -- export / import ---------------------------------------------------------


def export(report: MetricsReport, fmt: str, destination: Path | str) -> Path:
    """Write a report to ``destination`` as JSON or CSV.

    Neither carries the timing, which varies run to run. JSON holds the
    rest of the report; CSV holds one row per distance bucket followed by a
    key/value summary block. Both parse back via :func:`load_report`, with
    the timing None.
    """
    path = Path(destination)
    fmt = fmt.lower()
    if fmt == "json":
        text = json.dumps(report.deterministic_view(), sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        text = _to_csv(report)
    else:
        raise ValueError(f"unknown export format: {fmt}")
    try:
        path.write_text(text, encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot write metrics to {path}: {exc}") from exc
    return path


def _to_csv(report: MetricsReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["bucket_low_m", "bucket_high_m", "samples", "trusted_fraction", "acceptance_rate"])
    for b in report.buckets:
        writer.writerow([repr(b.low_m), repr(b.high_m), b.samples, repr(b.trusted_fraction), repr(b.acceptance_rate)])
    writer.writerow([])
    writer.writerow(["key", "value"])
    for name in _SCALAR_FIELDS:
        writer.writerow([name, getattr(report, name)])
    for name in sorted(report.histogram):
        writer.writerow([f"decision_{name}", report.histogram[name]])
    for name in sorted(report.extras):
        writer.writerow([f"extra_{name}", json.dumps(report.extras[name])])
    return buf.getvalue()


def load_report(path: Path | str) -> MetricsReport:
    """Parse a report previously written by :func:`export` (JSON or CSV)."""
    path = Path(path)
    if path.suffix == ".json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        del payload["schema"]
        payload["buckets"] = [BucketStat(**b) for b in payload["buckets"]]
        return MetricsReport(**payload)
    buckets: list[BucketStat] = []
    summary: dict[str, str] = {}
    in_summary = False
    for row in csv.reader(path.read_text(encoding="utf-8").splitlines()):
        if not row:
            in_summary = True
            continue
        if row[0] in ("bucket_low_m", "key"):
            continue
        if in_summary:
            summary[row[0]] = row[1]
        else:
            buckets.append(BucketStat(float(row[0]), float(row[1]), int(row[2]), float(row[3]), float(row[4])))
    histogram = {
        k.removeprefix("decision_"): int(v) for k, v in summary.items() if k.startswith("decision_")
    }
    extras = {
        k.removeprefix("extra_"): json.loads(v) for k, v in summary.items() if k.startswith("extra_")
    }
    scalars = {name: cast(summary[name]) for name, cast in _SCALAR_FIELDS.items()}
    return MetricsReport(**scalars, buckets=buckets, histogram=histogram, extras=extras)


# -- event-log replay ---------------------------------------------------------

_DECISION_LINE_KINDS = frozenset(("DELIVER", "RESOLVE", "EXPIRE"))


def replay_event_log(lines: Iterable[str], info: RunInfo) -> DecisionLog:
    """Rebuild a decision log from a persisted event log.

    Only decision-bearing lines are consumed, each through
    :meth:`DecisionLog.record`; blank lines are skipped, and a line may end
    in ``\\n``, ``\\r\\n`` or nothing. A line without eight fields, or a
    decision line with an unknown decision name, a truth other than ``0`` or
    ``1``, a time, vehicle, event or distance that does not parse, or a time
    or distance that is not finite (``nan``, ``inf``), raises
    ``MetricsError``; a negative finite distance raises ``ValueError``.
    Latency is instrumentation and is not recoverable from a log.
    """
    log = DecisionLog()
    record = log.record
    for line in lines:
        parts = line.split("\t")
        if len(parts) != 8:
            if line.strip():
                raise MetricsError(f"malformed event-log line: {line!r}")
            continue
        if parts[1] not in _DECISION_LINE_KINDS:
            continue
        # The last field keeps the line ending; float() ignores it.
        time_s, _kind, sender, receiver, event_id, decision, truth, distance = parts
        disposition = _DISPOSITION_FROM_NAME.get(decision)
        ground_truth = truth == "1"
        if disposition is None or not (ground_truth or truth == "0"):
            raise MetricsError(f"malformed event-log line: {line!r}")
        try:
            at = float(time_s)
            rx = int(receiver)
            tx = int(sender)
            event = int(event_id)
            distance_m = float(distance)
        except ValueError:
            raise MetricsError(f"malformed event-log line: {line!r}") from None
        # 0 for finite values; nan when either is nan or infinite (0 * inf is nan), so one comparison.
        if 0.0 * at * distance_m != 0.0:
            raise MetricsError(f"non-finite time or distance in event-log line: {line!r}")
        record(DecisionRecord(at, rx, tx, event, ground_truth, disposition, distance_m))
    return log

"""Span tracing for the per-layer benchmark run.

``installed`` patches the public entry points of each irsim module at their
module or class attributes and restores the originals on exit, so nothing
in ``src/`` changes and untraced runs never execute a wrapper. A span
(name, start, end, parent) is appended to flat arrays in memory per call.
Functions whose own cost is close to a wrapper's (``heuristic_from_distance``
is called once per neighbor per decision) get a call counter instead of a
span; their time stays in the caller's self time.

Functions that one module imports from another by name are patched in the
importing module, because that is the binding the caller looks up.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional

import numpy as np

# Modules whose self time inside ``sim.run`` is reported; every span name
# starts with one of them.
MODULES = ("sim", "protocol", "reputation", "metrics")


class Tracer:
    """In-memory span store plus named counters for one traced repetition."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def reset(self) -> None:
        for arr in (self.name, self.start, self.end, self.parent):
            del arr[:]
        self._stack[1:] = []
        self.counts.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn: Callable, tally: Optional[tuple[str, Callable]] = None) -> Callable:
        """Wrap ``fn`` so each call records a span; ``tally`` adds ``f(result)`` to a counter."""
        nid = self._name_id(name)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._stack
        counts, clock = self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if tally is not None:
                counts[tally[0]] += tally[1](result)
            return result

        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call only increments ``<name>.calls``."""
        counts, key = self.counts, f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def save(self, path: Path) -> None:
        """Write the spans (names, start and end in ns, parent index) as compressed arrays."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every traced entry point for the duration of the block."""
    from irsim import cli, metrics, protocol, reputation, scenario, sim

    span, count = tracer.span, tracer.count
    nbytes = ("protocol.encode.bytes", len)
    plan: list[tuple[object, str, Callable[[Callable], Callable]]] = [
        (scenario, "make_config", lambda f: span("scenario.make_config", f)),
        (cli, "run_one", lambda f: span("cli.run_one", f)),
        (cli, "export", lambda f: span("metrics.export", f, ("metrics.export.bytes", lambda p: p.stat().st_size))),
        (sim, "build_scenario", lambda f: span("sim.build_scenario", f)),
        (sim, "run", lambda f: span("sim.run", f)),
        (sim.SimWorld, "positions_at", lambda f: span("sim.positions_at", f)),
        (sim, "attacker_emit", lambda f: span("sim.attacker_emit", f)),
        (sim, "encode_warning", lambda f: span("protocol.encode", f, nbytes)),
        (sim, "encode_rrl_broadcast", lambda f: span("protocol.encode", f, nbytes)),
        (sim, "finalize", lambda f: span("metrics.finalize", f)),
        (protocol.VehicleNode, "handle_warning", lambda f: span(
            "protocol.handle_warning", f, ("protocol.handle_warning.decided", lambda o: o.disposition is not None))),
        (protocol.VehicleNode, "handle_rrl_broadcast", lambda f: span(
            "protocol.handle_rrl_broadcast", f, ("protocol.handle_rrl_broadcast.accepted", bool))),
        (protocol.VehicleNode, "expire_pending", lambda f: span("protocol.expire_pending", f)),
        (protocol.RsuNode, "handle_report", lambda f: span(
            "protocol.rsu.handle_report", f, ("protocol.rsu.handle_report.changed", bool))),
        (protocol.RsuNode, "tick", lambda f: span("protocol.rsu.tick", f)),
        (protocol.RsuNode, "snapshot", lambda f: span("protocol.rsu.snapshot", f)),
        # Vehicle decisions reach compute_trust_bands through protocol; ledger
        # snapshots reach it through reputation itself.
        (protocol, "compute_trust_bands", lambda f: span("reputation.compute_trust_bands", f)),
        (reputation, "compute_trust_bands", lambda f: span("reputation.compute_trust_bands", f)),
        (protocol, "compute_heuristic_bands", lambda f: span("reputation.compute_heuristic_bands", f)),
        (protocol, "heuristic_from_distance", lambda f: count("reputation.heuristic_from_distance", f)),
        (protocol, "decide_trust", lambda f: count("reputation.decide_trust", f)),
        (protocol, "standing_of", lambda f: count("reputation.standing_of", f)),
        (protocol, "apply_point_delta", lambda f: count("reputation.apply_point_delta", f)),
        (reputation, "apply_point_delta", lambda f: count("reputation.apply_point_delta", f)),
        *[
            (reputation.LocalReputationList, method, lambda f: span("reputation.ledger", f))
            for method in ("__len__", "__contains__", "get", "upsert", "points", "ranked", "ensure", "adjust")
        ],
        (metrics.DecisionLog, "record", lambda f: span("metrics.DecisionLog.record", f)),
        (metrics, "finalize", lambda f: span("metrics.finalize", f)),
        (metrics, "replay_event_log", lambda f: span("metrics.replay_event_log", f)),
    ]
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, wrap in plan:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Reduce one repetition's spans to per-layer times, counts and ratios.

    A span's self time is its duration minus the durations of its direct
    children (calls are sequential, so children never overlap). ``.s`` is
    the inclusive time of the outermost spans of a name, so nested calls
    of the same name are not counted twice. Names marked True in ``timed``
    only count spans inside ``sim.run``. Every value is additive across
    repetitions; ``with_ratios`` forms the ratios afterwards.
    """
    name = np.frombuffer(tracer.name, dtype=np.int32)
    start = np.frombuffer(tracer.start, dtype=np.int64)
    end = np.frombuffer(tracer.end, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = (end - start).astype(np.float64) / 1e9
    has_parent = parent >= 0
    covered = np.zeros(len(dur))
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_s = dur - covered
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    outermost = parent_name != name

    ids = {n: i for i, n in enumerate(tracer.names)}
    runs = np.nonzero(name == ids.get("sim.run", -1))[0]
    if len(runs) != 1:
        raise RuntimeError(f"expected one sim.run span per repetition, got {len(runs)}")
    run = int(runs[0])
    in_run = (start >= start[run]) & (end <= end[run])

    def pick(span_name: str, run_only: bool) -> np.ndarray:
        mask = name == ids.get(span_name, -1)
        return mask & in_run if run_only else mask

    out: dict[str, float] = {}
    timed = {
        "sim.build_scenario": False,
        "sim.positions_at": True,
        "sim.attacker_emit": True,
        "protocol.handle_warning": True,
        "protocol.handle_rrl_broadcast": True,
        "protocol.expire_pending": True,
        "protocol.rsu.handle_report": True,
        "protocol.rsu.tick": True,
        "protocol.rsu.snapshot": True,
        "protocol.encode": True,
        "reputation.compute_trust_bands": True,
        "reputation.compute_heuristic_bands": True,
        "reputation.ledger": True,
        "metrics.DecisionLog.record": True,
        "metrics.finalize": True,
        "metrics.export": False,
        "metrics.replay_event_log": False,
        "scenario.make_config": False,
    }
    for span_name, run_only in timed.items():
        mask = pick(span_name, run_only)
        out[f"{span_name}.calls"] = int(mask.sum())
        out[f"{span_name}.s"] = float(dur[mask & outermost].sum())
    out["protocol.handle_warning.self_s"] = float(self_s[pick("protocol.handle_warning", True)].sum())
    out["sim.run.self_s"] = float(self_s[run])
    out["cli.run_one.self_s"] = float(self_s[pick("cli.run_one", False)].sum())

    counts = tracer.counts
    for counted in ("heuristic_from_distance", "decide_trust", "standing_of", "apply_point_delta"):
        key = f"reputation.{counted}.calls"
        out[key] = counts[key]
    for key in ("protocol.encode.bytes", "metrics.export.bytes", "protocol.handle_warning.decided",
                "protocol.handle_rrl_broadcast.accepted", "protocol.rsu.handle_report.changed"):
        out[key] = counts[key]

    module = np.array([n.split(".", 1)[0] for n in tracer.names] + [""])[name]
    for mod in MODULES:
        out[f"layer.{mod}.self_s"] = float(self_s[in_run & (module == mod)].sum())
    out["trace.run_s"] = float(dur[run])
    out["trace.self_sum_s"] = sum(out[f"layer.{mod}.self_s"] for mod in MODULES)
    out["trace.spans"] = len(dur)
    return out


# Ratio metrics as (numerator, denominator) of additive layer metrics, so
# they can be formed after summing repetitions.
RATIOS = {
    "protocol.handle_warning.decided_ratio": ("protocol.handle_warning.decided", "protocol.handle_warning.calls"),
    "protocol.handle_rrl_broadcast.accepted_ratio": (
        "protocol.handle_rrl_broadcast.accepted", "protocol.handle_rrl_broadcast.calls"),
    "protocol.rsu.handle_report.changed_ratio": ("protocol.rsu.handle_report.changed", "protocol.rsu.handle_report.calls"),
}


def with_ratios(totals: dict[str, float]) -> dict[str, float]:
    """Add every ratio in RATIOS to summed layer metrics (0 when nothing was attempted)."""
    out = dict(totals)
    for ratio, (num, den) in RATIOS.items():
        out[ratio] = totals[num] / totals[den] if totals[den] else 0.0
    return out

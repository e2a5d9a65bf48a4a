"""irsim benchmark: timed end to end, split per module in a separate traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload stock-irs --seed 0 --seconds 55 --trace 0

Each run is a closed loop in one process: one simulation at a time, no
threads. A run covers a sweep of scenario seeds derived from ``--seed``. A
repetition runs one of them through the public API: ``scenario.make_config``,
then ``cli.run_one`` (``sim.build_scenario``, ``sim.run``, then the event log
and metrics JSON are written), then ``metrics.replay_event_log`` and
``metrics.finalize`` on the written log. Every output is checked. Passes over
the sweep repeat until ``--seconds`` is used up.

The host's speed drifts by up to 2x over seconds and minutes, so a fixed
probe loop is timed next to each phase and every end-to-end time is scaled
to a nominal probe time (see ``PROBE_NOMINAL_S``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics. With
``--trace 1`` one untraced pass is followed by traced passes, and the last
line carries the per-layer metrics (see ``tracing.py``). Earlier stdout
lines and ``perfbench/out/<workload>-seed<seed>-trace<0|1>.json`` carry the
environment stamp, sample counts, raw seconds, output digests and the
paper's numbers.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

# One process, one thread: keep numeric libraries from starting pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def load_irsim():
    """Import irsim from this checkout's ``src/``; exit 2 when it is not there."""
    if not (SRC / "irsim" / "__init__.py").is_file():
        print(f"error: {SRC / 'irsim'} not found; run from the root of an irsim checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import irsim
    from irsim import cli, metrics, scenario, sim

    if Path(irsim.__file__).resolve().parent != SRC / "irsim":
        print(f"error: imported irsim from {irsim.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return cli, metrics, scenario, sim


cli, metrics, scenario, sim = load_irsim()
import numpy as np  # noqa: E402  (after the thread settings above)

import tracing  # noqa: E402


@dataclass(frozen=True)
class Workload:
    vehicles: int
    attackers: int
    pipeline: str
    duration: float  # simulated seconds
    sweep: int  # scenario seeds per run: seed * sweep .. seed * sweep + sweep - 1

    def config(self, scenario_seed: int):
        return scenario.make_config({
            "vehicle_count": self.vehicles,
            "attacker_count": self.attackers,
            "attacker_profile": "false-warning",
            "duration": self.duration,
            "seed": scenario_seed,
        })


# README.md says why each workload exists, and why flood-accept-all is not in
# BENCHMARK.json (its decision latency is only the timer's own cost). The
# amount of work and the cost of a decision vary a lot between scenario
# seeds (decisions per second by 20-30%), so a run sweeps 24 or 32 short
# scenarios and the end-to-end metrics are rates per unit of work over the
# whole sweep.
WORKLOADS = {
    "stock-irs": Workload(100, 10, "irs", 20.0, 24),
    "dense-irs": Workload(200, 20, "irs", 5.0, 32),
    "flood-accept-all": Workload(400, 40, "accept-all", 300.0, 2),
}

END_TO_END = {
    "setup_s": "s",
    "decisions_per_s": "1/s",
    "decision_p50_us": "us",
    "decision_p99_us": "us",
    "output_mb_per_s": "MB/s",
    "replay_lines_per_s": "1/s",
    "peak_rss_mb": "MB",
}
EXTRA_SETUPS = 4  # make_config + build_scenario samples before each untraced repetition
REPLAYS = 3  # replays of each written log; the fastest is kept
# Host speed probe (see README.md, "Host speed"), taken next to each timed
# phase (see ``repetition``). A time t measured next to a probe p is reported as
# t * PROBE_NOMINAL_S / p, its length on a host where the probe takes
# PROBE_NOMINAL_S.
PROBE_STEPS = 20_000
PROBE_POINTS = np.random.default_rng(0).random((200, 2)) * 1000.0
PROBE_MATRICES = 4
PROBE_TRIES = 2
PROBE_NOMINAL_S = 0.020
EXPECTED_LINE_COUNTS = {
    "DELIVER": "warning_deliveries",
    "REPORT": "reports_delivered",
    "RRL": "rrl_deliveries",
    "EMIT": "warnings_emitted",
}


class Stopwatch:
    """Stands in for ``sim`` inside ``cli`` to time run_one's build and run calls.

    Unless ``traced``, it also probes the host's speed just before and just
    after ``sim.run``.
    """

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.build_s = self.run_s = 0.0
        self.probes: list[float] = []
        self.world = self.result = None

    def build_scenario(self, config, pipeline):
        t0 = time.perf_counter()
        self.world = sim.build_scenario(config, pipeline)
        self.build_s = time.perf_counter() - t0
        return self.world

    def run(self, world):
        if not self.traced:
            self.probes.append(probe())
        t0 = time.perf_counter()
        self.result = sim.run(world)
        self.run_s = time.perf_counter() - t0
        if not self.traced:
            self.probes.append(probe())
        return self.result


def probe_loop() -> float:
    """A fixed mix of the work irsim does: an interpreter loop, then n x n distance matrices.

    The host slows the two parts by different amounts; irsim's ``sim.run``
    slows about as much as their sum.
    """
    table: dict[int, int] = {}
    total = 0.0
    xs = np.arange(64, dtype=np.float64)
    for i in range(PROBE_STEPS):
        key = i % 257
        table[key] = table.get(key, 0) + 1
        total += math.sqrt(i) * 0.5
        if i % 50 == 0:
            total += float(np.hypot(xs, xs).sum())
    px, py = PROBE_POINTS[:, :1], PROBE_POINTS[:, 1:]
    for _ in range(PROBE_MATRICES):
        total += int((np.hypot(px - px.T, py - py.T) < 300.0).sum())
    return total + len(table)


def probe() -> float:
    """Host seconds of ``PROBE_TRIES`` back-to-back runs of ``probe_loop`` now."""
    t0 = time.perf_counter()
    for _ in range(PROBE_TRIES):
        probe_loop()
    return time.perf_counter() - t0


def setup_once(workload: Workload, scenario_seed: int) -> float:
    t0 = time.perf_counter()
    sim.build_scenario(workload.config(scenario_seed), workload.pipeline)
    return time.perf_counter() - t0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_log(log_lines: list[str], extras: dict, range_m: float) -> list[str]:
    """No delivery beyond range, and every counter equal to its log-line count."""
    problems = []
    kinds: Counter = Counter()
    too_far = 0
    for line in log_lines:
        parts = line.split("\t")
        kinds[parts[1]] += 1
        if parts[1] == "DELIVER" and float(parts[7]) > range_m:
            too_far += 1
    if too_far:
        problems.append(f"{too_far} DELIVER lines beyond transmission_range")
    for kind, counter in EXPECTED_LINE_COUNTS.items():
        if kinds[kind] != extras[counter]:
            problems.append(f"{counter}={extras[counter]} but {kinds[kind]} {kind} lines")
    return problems


def repetition(workload: Workload, scenario_seed: int, run_dir: Path, traced: bool) -> dict:
    """Set up, run and write one scenario, replay its log, and check every output.

    An untraced repetition makes EXTRA_SETUPS more set-ups first, and probes
    the host's speed just before and after ``sim.run`` and after the
    replays. A traced one does neither, so the probes do not count in the
    self time of ``cli.run_one``.
    """
    setups = [setup_once(workload, scenario_seed) for _ in range(0 if traced else EXTRA_SETUPS)]
    gc.collect()
    t0 = time.perf_counter()
    config = workload.config(scenario_seed)
    config_s = time.perf_counter() - t0

    log_path = run_dir / f"{workload.pipeline}-seed{scenario_seed}.log"
    json_path = log_path.with_suffix(".json")
    # Write new files, as a fresh run directory would: rewriting an existing
    # file makes ext4 flush it on close, which times the disk.
    log_path.unlink(missing_ok=True)
    json_path.unlink(missing_ok=True)
    watch = Stopwatch(traced)
    cli.sim = watch
    try:
        t0 = time.perf_counter()
        row = cli.run_one(config, scenario_seed, workload.pipeline, run_dir)
        run_one_s = time.perf_counter() - t0
    finally:
        cli.sim = sim
    result, world, probes = watch.result, watch.world, watch.probes
    report = result.report

    finals = result.decisions.final_records()
    rep = {
        "scenario_seed": scenario_seed,
        "setup_s": setups + [config_s + watch.build_s],
        "run_s": watch.run_s,
        "output_s": run_one_s - watch.build_s - watch.run_s - sum(probes),
        "final_decisions": len(finals),
        "log_lines": len(result.log_lines),
        "output_bytes": log_path.stat().st_size + json_path.stat().st_size,
        "latency_ns": np.fromiter(
            (r.latency_ns for r in result.decisions.records if r.latency_ns is not None), dtype=np.float64
        ),
        "log_sha256": sha256(log_path),
        "json_sha256": sha256(json_path),
        "victims": report.victims,
        "false_accepts": sum(
            1 for r in finals
            if r.decision is sim.Disposition.ACCEPT and not r.ground_truth and r.receiver in world.benign
        ),
        "extras": dict(report.extras),
        "problems": check_log(result.log_lines, report.extras, config.transmission_range),
    }
    if row["victims"] != report.victims:
        rep["problems"].append("run_one summary victims differ from the report")
    if metrics.load_report(json_path).deterministic_view() != report.deterministic_view():
        rep["problems"].append("metrics JSON does not load back to the run's report")

    info = metrics.RunInfo(
        config_hash=config.canonical_hash(),
        seed=scenario_seed,
        pipeline=workload.pipeline,
        benign=world.benign,
        range_m=config.transmission_range,
        extras=report.extras,
    )
    # Replay starts from the heap a separate replay process would have, so
    # garbage-collector passes do not walk the finished simulation.
    del watch, result, world, finals
    gc.collect()
    replay_s = []
    for _ in range(REPLAYS):
        t0 = time.perf_counter()
        with open(log_path, encoding="utf-8", newline="") as fh:
            replayed = metrics.finalize(metrics.replay_event_log(fh, info), info)
        replay_s.append(time.perf_counter() - t0)
    rep["replay_s"] = min(replay_s)
    if not traced:
        pre_run, post_run = probes
        rep["probe_s"] = {"setup": pre_run, "run": (pre_run + post_run) / 2, "output": post_run,
                          "replay": probe()}

    # Distances are logged to 3 decimals, so a record just under a bucket
    # edge can replay one bucket higher: reported, not a failed check.
    rep["bucket_mismatches"] = sum(a != b for a, b in zip(replayed.buckets, report.buckets))
    if replayed.victims != report.victims or replayed.histogram != report.histogram:
        rep["problems"].append("replayed victims or decision histogram differ from the run")
    return rep


def run_passes(workload: Workload, seed: int, run_dir: Path, until: float,
               tracer: tracing.Tracer | None = None) -> list[list[dict]]:
    """Passes over the seed sweep until ``until`` (perf_counter).

    The first pass is whole. After it, a repetition starts only if the
    longest one so far would end before ``until``, so the last pass may be
    cut short. A repetition that raises is kept as ``{"error": traceback}``.
    """
    seeds = range(seed * workload.sweep, (seed + 1) * workload.sweep)
    passes: list[list[dict]] = []
    longest = 0.0
    while True:
        reps: list[dict] = []
        for scenario_seed in seeds:
            if passes and time.perf_counter() + longest > until:
                return passes + [reps] if reps else passes
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rep = repetition(workload, scenario_seed, run_dir, traced=False)
                else:
                    tracer.reset()
                    with tracing.installed(tracer):
                        rep = repetition(workload, scenario_seed, run_dir, traced=True)
                    rep["layers"] = tracing.layer_metrics(tracer)
            except Exception:  # noqa: BLE001 - a failed repetition is counted, not fatal
                rep = {"scenario_seed": scenario_seed, "error": traceback.format_exc()}
                print(rep["error"], file=sys.stderr)
            reps.append(rep)
            longest = max(longest, time.perf_counter() - t0)
        passes.append(reps)


def failed_checks(reps: list[dict]) -> list[str]:
    """One message per failed repetition; output bytes must match the seed's first repetition."""
    first: dict[int, tuple] = {}
    failures = []
    for i, rep in enumerate(reps):
        where = f"repetition {i} (scenario seed {rep['scenario_seed']})"
        if "error" in rep:
            failures.append(f"{where}: raised\n{rep['error']}")
            continue
        problems = list(rep["problems"])
        digests = first.setdefault(rep["scenario_seed"], (rep["log_sha256"], rep["json_sha256"]))
        if (rep["log_sha256"], rep["json_sha256"]) != digests:
            problems.append("event log or metrics JSON differs from the first repetition of this seed")
        if "layers" in rep and abs(rep["layers"]["trace.self_sum_s"] / rep["layers"]["trace.run_s"] - 1) > 0.01:
            problems.append("module self times do not sum to the traced run_s within 1%")
        if problems:
            failures.append(f"{where}: " + "; ".join(problems))
    return failures


def scaled(rep: dict, phase: str, seconds):
    """Host seconds of a phase at the nominal host speed (see PROBE_NOMINAL_S)."""
    return seconds * (PROBE_NOMINAL_S / rep["probe_s"][phase])


def end_to_end(passes: list[list[dict]]) -> dict[str, float]:
    """Medians of speed-scaled times over the run; rates are summed over the sweep.

    Each phase time is scaled by the probes next to it. For every scenario
    seed the median over passes is taken, and a rate divides the sweep's
    work by the sum of those medians. Latency percentiles pool every scaled
    decision latency of the run.
    """
    reps = [rep for reps in passes for rep in reps]
    by_seed: dict[int, list[dict]] = {}
    for rep in reps:
        by_seed.setdefault(rep["scenario_seed"], []).append(rep)

    def rate(work: str, phase: str) -> float:
        done = sum(seed_reps[0][work] for seed_reps in by_seed.values())
        took = sum(statistics.median(scaled(rep, phase, rep[f"{phase}_s"]) for rep in seed_reps)
                   for seed_reps in by_seed.values())
        return done / took

    latency_us = np.concatenate([scaled(rep, "run", rep["latency_ns"]) for rep in reps]) / 1e3
    return {
        "setup_s": statistics.median(scaled(rep, "setup", s) for rep in reps for s in rep["setup_s"]),
        "decisions_per_s": rate("final_decisions", "run"),
        "decision_p50_us": float(np.percentile(latency_us, 50)),
        "decision_p99_us": float(np.percentile(latency_us, 99)),
        "output_mb_per_s": rate("output_bytes", "output") / 1e6,
        "replay_lines_per_s": rate("log_lines", "replay"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def pass_total(reps: list[dict], key: str) -> float:
    return sum(rep[key] for rep in reps)


def per_layer(untraced: list[dict], traced_passes: list[list[dict]]) -> dict[str, float]:
    """Layer metrics summed over the sweep (median over whole traced passes), plus outputs and overhead."""
    traced_passes = [reps for reps in traced_passes if len(reps) == len(untraced)]
    per_pass = []
    for reps in traced_passes:
        totals = {key: sum(rep["layers"][key] for rep in reps) for key in reps[0]["layers"]}
        per_pass.append(tracing.with_ratios(totals))
    values = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    del values["trace.self_sum_s"]  # checked per repetition in failed_checks
    for key in ("run_s", "output_s", "replay_s"):
        values[f"host.{key}"] = pass_total(untraced, key)
    values["host.probe_s"] = statistics.median(p for rep in untraced for p in rep["probe_s"].values())
    values["trace.overhead_s"] = values["trace.run_s"] - values["host.run_s"]
    last = traced_passes[-1]
    for key in ("beacons_emitted", "warning_deliveries", "rrl_deliveries", "reports_delivered"):
        values[f"sim.{key}"] = sum(rep["extras"][key] for rep in last)
    values["sim.log_lines"] = pass_total(last, "log_lines")
    values["metrics.replay.bucket_mismatches"] = pass_total(last, "bucket_mismatches")
    values["paper.victims"] = pass_total(last, "victims")
    values["paper.false_accepts"] = pass_total(last, "false_accepts")
    return values


def unit_of(name: str) -> str:
    """Per-layer units follow the metric name's suffix."""
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def git_commit() -> str | None:
    """HEAD of the repository rooted exactly at this checkout, if it is one."""
    # The ceiling stops git from searching the directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True, env=env,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "irsim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    started = time.perf_counter()
    workload = WORKLOADS[args.workload]
    run_dir = OUT / "runs" / f"{args.workload}-seed{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer()
    if args.trace:
        untraced = run_passes(workload, args.seed, run_dir, started)
        traced = run_passes(workload, args.seed, run_dir, started + args.seconds, tracer)
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        untraced = run_passes(workload, args.seed, run_dir, started + args.seconds)
        traced = []
    reps = [rep for reps in untraced + traced for rep in reps]
    failures = failed_checks(reps)
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    ok = not failures
    values: dict[str, float] = {}
    units: dict[str, str] = {}
    if ok and not args.trace:
        values = end_to_end(untraced)
        units = END_TO_END
    elif ok:
        values = per_layer(untraced[0], traced)
        units = {key: unit_of(key) for key in values}

    env = stamp()
    good = [rep for rep in reps if "error" not in rep]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "elapsed_s": time.perf_counter() - started,
        "env": env,
        "scenario_seeds": sorted({rep["scenario_seed"] for rep in reps}),
        "passes": len(untraced),
        "traced_passes": len(traced),
        "failed_ops": len(failures) / len(reps),
        "failures": failures,
        # The single-threaded run has no queue but the event heap, so no
        # layer has a wait-time metric.
        "outputs": {
            rep["scenario_seed"]: {key: rep[key] for key in (
                "log_sha256", "json_sha256", "victims", "false_accepts", "bucket_mismatches",
                "final_decisions", "log_lines", "output_bytes")}
            for rep in good
        },
        "repetitions": [
            {key: value for key, value in rep.items() if key not in ("latency_ns", "layers", "extras", "error")}
            | {"latency_samples": len(rep["latency_ns"])}
            for rep in good
        ],
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload} seed {args.seed}: scenario seeds {record['scenario_seeds']}, "
          f"{len(untraced)} untraced and {len(traced)} traced passes, "
          f"{sum(len(rep['latency_ns']) for rep in good)} decision latencies pooled, "
          f"failed_ops {len(failures)}/{len(reps)}, {record['elapsed_s']:.1f} s")
    for scenario_seed, out in record["outputs"].items():
        print(f"  scenario seed {scenario_seed}: " + " ".join(f"{k}={v}" for k, v in out.items()))
    for key, value in values.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    print(json.dumps({"correct": ok and bool(values), "attempted": len(reps), "failed": len(failures),
                      "metrics": record["metrics"]}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

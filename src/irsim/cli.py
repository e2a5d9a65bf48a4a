"""Scenario runner: single runs and seed sweeps over both pipelines.

Precedence for configuration is flags > scenario file > built-in defaults.
Each (seed, pipeline) run writes an event log and a metrics JSON file under
``<out>/<config-hash>/``; a sweep adds one summary file. Exit codes:
0 success, 1 configuration error, 2 run failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from . import sim
from .metrics import export
from .scenario import PIPELINES, ConfigError, ScenarioConfig, load_scenario_file, make_config

OUT_DIR_ENV = "IRSIM_OUT"

# The most seeds one --seeds range may name. A sweep lists every seed and one job per seed and pipeline
# before its first run, and keeps a summary row per run, so a range must be checked before it is built.
MAX_SWEEP_SEEDS = 10_000

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUN_FAILURE = 2


class RunFailure(Exception):
    """A simulation run raised; partial outputs carry a failure marker."""


@dataclass
class RunSpec:
    config: ScenarioConfig
    seeds: list[int]
    pipelines: list[str]
    out_dir: Path
    write_csv: bool = False
    workers: int = 1


# The scenario fields that flags set directly; each flag's dest is the field name.
_OVERRIDE_FLAGS = ("vehicle_count", "attacker_count", "transmission_range", "duration")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="irsim", description="Run highway trust-decision experiments.")
    parser.add_argument("--scenario", help="scenario file (key = value lines)")
    parser.add_argument("--seed", type=int, help="single seed")
    parser.add_argument("--seeds", help="inclusive seed range a..b")
    parser.add_argument("--pipeline", choices=[*PIPELINES, "both"], default="irs")
    parser.add_argument("--out", help=f"output directory (default ${OUT_DIR_ENV} or ./runs)")
    parser.add_argument("--vehicles", dest="vehicle_count", type=int, help="override vehicle_count")
    parser.add_argument("--attackers", dest="attacker_count", type=int, help="override attacker_count")
    parser.add_argument("--tx-range", dest="transmission_range", type=float, help="override transmission_range (m)")
    parser.add_argument("--duration", dest="duration", type=float, help="override duration (s)")
    parser.add_argument("--workers", type=int, default=1, help="parallel sweep workers")
    parser.add_argument("--csv", action="store_true", help="also write per-run CSV metrics")
    return parser


def parse_run_spec(argv: Sequence[str], env: Optional[dict] = None) -> RunSpec:
    """Resolve flags, scenario file, and environment into a run specification."""
    env = dict(os.environ if env is None else env)
    args = _build_parser().parse_args(list(argv))

    if args.seed is not None and args.seeds is not None:
        raise ConfigError("conflicting flags: --seed and --seeds")

    overrides: dict = {}
    if args.scenario:
        overrides.update(load_scenario_file(args.scenario))
    for name in _OVERRIDE_FLAGS:
        if getattr(args, name) is not None:
            overrides[name] = getattr(args, name)

    config = make_config(overrides)

    if args.seeds is not None:
        try:
            lo_s, hi_s = args.seeds.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
        except ValueError as exc:
            raise ConfigError(f"--seeds expects a..b, got {args.seeds!r}") from exc
        if hi < lo:
            raise ConfigError(f"--seeds range is empty: {args.seeds!r}")
        if hi - lo + 1 > MAX_SWEEP_SEEDS:
            raise ConfigError(f"--seeds names {hi - lo + 1} seeds, at most {MAX_SWEEP_SEEDS} allowed: {args.seeds!r}")
        seeds = list(range(lo, hi + 1))
    elif args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = [config.seed]
    if seeds[0] < 0:
        raise ConfigError(f"seed must be >= 0, got {seeds[0]}")

    pipelines = list(PIPELINES) if args.pipeline == "both" else [args.pipeline]
    out_dir = Path(args.out or env.get(OUT_DIR_ENV) or "runs")
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    return RunSpec(config=config, seeds=seeds, pipelines=pipelines, out_dir=out_dir,
                   write_csv=args.csv, workers=args.workers)


def run_one(config: ScenarioConfig, seed: int, pipeline: str, run_dir: Path, write_csv: bool = False) -> dict:
    """Execute one (seed, pipeline) run and write its log and metrics files.

    Returns the summary row used for sweep aggregation.
    """
    config = dataclasses.replace(config, seed=seed)
    stem = run_dir / f"{pipeline}-seed{seed}"
    try:
        world = sim.build_scenario(config, pipeline)
        result = sim.run(world)
    except Exception as exc:
        marker = stem.with_suffix(".FAILED")
        marker.write_text(f"{exc}\n{traceback.format_exc()}", encoding="utf-8")
        raise RunFailure(f"{pipeline} seed {seed}: {exc}") from exc

    stem.with_suffix(".log").write_text(result.log_text(), encoding="utf-8", newline="")
    export(result.report, "json", stem.with_suffix(".json"))
    if write_csv:
        export(result.report, "csv", stem.with_suffix(".csv"))

    report = result.report
    return {
        "seed": seed,
        "pipeline": pipeline,
        "victims": report.victims,
        "histogram": report.histogram,
        "buckets": [
            {"low_m": b.low_m, "samples": b.samples, "correct": round(b.trusted_fraction * b.samples)}
            for b in report.buckets
        ],
        "latency_mean_ns": report.latency_mean_ns,
        "latency_median_ns": report.latency_median_ns,
        "wall_s": result.timings["wall_s"],
    }


def _pool_entry(payload: tuple) -> dict:
    return run_one(*payload)


def execute(spec: RunSpec) -> int:
    """Run every (seed, pipeline) pair and write the sweep summary.

    A failed run, or an output directory or file that cannot be written,
    prints one ``run failed:`` line and returns EXIT_RUN_FAILURE.
    """
    run_dir = spec.out_dir / spec.config.canonical_hash()
    jobs = [(seed, pipeline) for pipeline in spec.pipelines for seed in spec.seeds]
    rows: list[dict] = []
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        if spec.workers > 1 and len(jobs) > 1:
            payloads = [(spec.config, s, p, run_dir, spec.write_csv) for s, p in jobs]
            # With fork, the pool starts all its workers up front: ask for no more than can run.
            with ProcessPoolExecutor(max_workers=min(spec.workers, len(jobs), os.cpu_count() or 1)) as pool:
                rows = list(pool.map(_pool_entry, payloads))
        else:
            for seed, pipeline in jobs:
                rows.append(run_one(spec.config, seed, pipeline, run_dir, spec.write_csv))

        summary, timings = _summarize(spec, rows)
        (run_dir / "summary.json").write_text(
            json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline=""
        )
        # Wall-clock instrumentation varies run to run; keep it out of the
        # byte-reproducible outputs.
        (run_dir / "timings.json").write_text(
            json.dumps(timings, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline=""
        )
    except (RunFailure, OSError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE
    _print_summary(summary, timings)
    return EXIT_OK


def _summarize(spec: RunSpec, rows: list[dict]) -> tuple[dict, dict]:
    per_pipeline: dict = {}
    per_pipeline_timing: dict = {}
    for pipeline in spec.pipelines:
        mine = [r for r in rows if r["pipeline"] == pipeline]
        victims = [r["victims"] for r in mine]
        pooled: dict[float, list[int]] = {}
        for r in mine:
            for b in r["buckets"]:
                low = b["low_m"]
                agg = pooled.setdefault(low, [0, 0])
                agg[0] += b["samples"]
                agg[1] += b["correct"]
        buckets = [
            {
                "low_m": low,
                "samples": samples,
                "trusted_fraction": (correct / samples) if samples else 0.0,
            }
            for low, (samples, correct) in sorted(pooled.items())
        ]
        per_pipeline[pipeline] = {
            "seeds": [r["seed"] for r in mine],
            "victims": victims,
            "victims_median": statistics.median(victims) if victims else None,
            "pooled_buckets": buckets,
        }
        per_pipeline_timing[pipeline] = {
            "seeds": [r["seed"] for r in mine],
            "latency_mean_ns": [r["latency_mean_ns"] for r in mine],
            "latency_median_ns": [r["latency_median_ns"] for r in mine],
            "wall_s": [r["wall_s"] for r in mine],
        }
    summary = {
        "schema": "irsim-summary/1",
        "config_hash": spec.config.canonical_hash(),
        "pipelines": per_pipeline,
    }
    timings = {
        "schema": "irsim-timings/1",
        "config_hash": spec.config.canonical_hash(),
        "pipelines": per_pipeline_timing,
    }
    return summary, timings


def _print_summary(summary: dict, timings: dict) -> None:
    for pipeline, data in summary["pipelines"].items():
        victims = data["victims"]
        median = data["victims_median"]
        lat = [x for x in timings["pipelines"][pipeline]["latency_mean_ns"] if x is not None]
        lat_str = f"{statistics.fmean(lat) / 1000:.1f} us" if lat else "n/a"
        print(f"{pipeline}: victims={victims} median={median} mean-latency={lat_str}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        spec = parse_run_spec(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return execute(spec)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

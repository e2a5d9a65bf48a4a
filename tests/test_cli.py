"""Run-spec parsing and end-to-end CLI execution."""

import contextlib
import io
import json
import tempfile
import typing
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from irsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUN_FAILURE, main, parse_run_spec
from irsim.scenario import ATTACKER_PROFILES, MAX_ANCHORS, ConfigError, ScenarioConfig

FAST_SCENARIO = """
# small desk-scale scenario
vehicle_count = 16
attacker_count = 2
duration = 8
event_rate_per_min = 12
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_SCENARIO, encoding="utf-8")
    return path


class TestParseRunSpec:
    def test_defaults(self):
        spec = parse_run_spec([], env={})
        assert spec.seeds == [0]
        assert spec.pipelines == ["irs"]
        assert spec.config.vehicle_count == 100
        assert spec.config.duration == 300.0
        assert spec.config.transmission_range == 300.0
        assert spec.out_dir.name == "runs"

    def test_flags_override_file_overrides_defaults(self, scenario_file):
        spec = parse_run_spec(
            ["--scenario", str(scenario_file), "--vehicles", "24", "--tx-range", "250"],
            env={},
        )
        assert spec.config.vehicle_count == 24  # flag wins
        assert spec.config.attacker_count == 2  # file wins over default
        assert spec.config.transmission_range == 250.0
        assert spec.config.duration == 8.0

    def test_seed_range(self):
        spec = parse_run_spec(["--seeds", "3..6"], env={})
        assert spec.seeds == [3, 4, 5, 6]

    def test_conflicting_seed_flags(self):
        with pytest.raises(ConfigError, match="--seed and --seeds"):
            parse_run_spec(["--seed", "1", "--seeds", "0..2"], env={})

    def test_empty_seed_range(self):
        with pytest.raises(ConfigError, match="empty"):
            parse_run_spec(["--seeds", "5..3"], env={})

    def test_unknown_flag_rejected(self):
        with pytest.raises(ConfigError):
            parse_run_spec(["--frobnicate"], env={})

    def test_missing_scenario_file(self):
        with pytest.raises(ConfigError, match="no/such/file"):
            parse_run_spec(["--scenario", "no/such/file.cfg"], env={})

    def test_unknown_scenario_key(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("warp_speed = 9\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="warp_speed"):
            parse_run_spec(["--scenario", str(bad)], env={})

    def test_env_out_dir(self):
        spec = parse_run_spec([], env={"IRSIM_OUT": "/tmp/elsewhere"})
        assert str(spec.out_dir) == "/tmp/elsewhere"

    def test_both_pipelines(self):
        spec = parse_run_spec(["--pipeline", "both"], env={})
        assert spec.pipelines == ["irs", "accept-all"]


class TestExecute:
    def test_single_run_writes_two_files(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        code = main(["--scenario", str(scenario_file), "--out", str(out)])
        assert code == EXIT_OK
        run_dir = next(out.iterdir())
        files = sorted(p.name for p in run_dir.iterdir())
        assert files == ["irs-seed0.json", "irs-seed0.log", "summary.json", "timings.json"]

    def test_sweep_file_count(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["--scenario", str(scenario_file), "--seeds", "0..2", "--pipeline", "both", "--out", str(out)]
        )
        assert code == EXIT_OK
        run_dir = next(out.iterdir())
        files = [p.name for p in run_dir.iterdir()]
        # 3 seeds x 2 pipelines x 2 files + 1 summary (+ timing diagnostics)
        assert len([f for f in files if f != "timings.json"]) == 13
        assert "summary.json" in files

    def test_summary_aggregates_victims(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["--scenario", str(scenario_file), "--seeds", "0..1", "--pipeline", "both", "--out", str(out)])
        summary = json.loads((next(out.iterdir()) / "summary.json").read_text())
        assert set(summary["pipelines"]) == {"irs", "accept-all"}
        for data in summary["pipelines"].values():
            assert len(data["victims"]) == 2
            assert data["victims_median"] is not None
            assert data["pooled_buckets"]

    def test_invalid_config_exits_one_without_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = main(["--vehicles", "3", "--attackers", "9", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--duration", "inf"],
            ["--duration", "nan"],
            ["--tx-range", "nan"],
            ["--seed", "-1"],
            ["--seeds=-2..0"],
            ["--scenario", "event_rate_per_min = inf"],
            ["--vehicles", "4", "--duration", "1e9"],
            ["--scenario", "beacon_interval = 1e-9 1e-9"],
            ["--scenario", "event_rate_per_min = 1e12"],
            ["--vehicles", "4", "--attackers", "0", "--duration", "1", "--tx-range", "1e200", "--seed", "0"],
            ["--scenario", "rsu_coverage_radius = 1e200"],
            ["--scenario", "initial_points = 100000000000000000000"],
            ["--scenario", "anchor_top_points = 100000000000000000000"],
            ["--scenario", "anchor_low_points = 100000000000000000000"],
            ["--vehicles", "100000", "--duration", "1"],
            ["--scenario", "trusted_anchors = 200000"],
            ["--scenario", f"trusted_anchors = {MAX_ANCHORS // 2}\nflagged_anchors = {MAX_ANCHORS // 2 + 1}"],
            ["--scenario", "neighbor_ttl = 1.7e308"],
            ["--scenario", "rrl_request_period = 1.7e308"],
            ["--scenario", f"lanes_per_direction = {2**62}"],
            ["--scenario", "transmission_range = 1e9"],
            ["--scenario", "transmission_range = 1e150"],
            ["--scenario", "pending_ttl = 1.7e308"],
            ["--scenario", "grid = 1.7e308 1000"],
            ["--scenario", "speed_range = 1 1.7e308"],
        ],
        ids=[
            "duration-inf", "duration-nan", "tx-range-nan", "seed", "seeds", "event-rate-inf-file",
            "duration-huge", "beacon-tiny-file", "event-rate-huge-file", "tx-range-square-overflows",
            "rsu-radius-square-overflows-file", "initial-points-huge-file", "anchor-top-points-huge-file",
            "anchor-low-points-huge-file", "vehicles-huge", "trusted-anchors-huge-file", "anchor-sum-over-file",
            "neighbor-ttl-huge-file", "request-period-huge-file", "lanes-huge-file", "tx-range-1e9-file",
            "tx-range-1e150-file", "pending-ttl-huge-file", "grid-huge-file", "speed-huge-file",
        ],
    )
    def test_bad_value_exits_one_without_outputs(self, argv, tmp_path, capsys, monkeypatch):
        from irsim import cli

        # A value that slipped past validation would start a run that may never end.
        def no_run(spec):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "execute", no_run)
        if argv[0] == "--scenario":
            path = tmp_path / "bad.cfg"
            path.write_text(argv[1] + "\n", encoding="utf-8")
            argv = ["--scenario", str(path)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_anchor_ceiling_is_inclusive(self, tmp_path, capsys):
        # Flags size a tiny run around a scenario file that seeds exactly the most anchors allowed.
        path = tmp_path / "anchors.cfg"
        path.write_text(f"trusted_anchors = {MAX_ANCHORS - 1}\nflagged_anchors = 1\n", encoding="utf-8")
        flags = ["--vehicles", "4", "--attackers", "0", "--duration", "1", "--seed", "0"]
        assert main(["--scenario", str(path), *flags, "--out", str(tmp_path / "out")]) == EXIT_OK
        path.write_text(f"trusted_anchors = {MAX_ANCHORS}\nflagged_anchors = 1\n", encoding="utf-8")
        assert main(["--scenario", str(path), *flags, "--out", str(tmp_path / "over")]) == EXIT_CONFIG
        expected = f"trusted_anchors + flagged_anchors must be <= {MAX_ANCHORS}, got {MAX_ANCHORS} + 1"
        assert capsys.readouterr().err == f"configuration error: {expected}\n"
        assert not (tmp_path / "over").exists()

    def test_rerun_byte_identical(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        argv = ["--scenario", str(scenario_file), "--seed", "4", "--pipeline", "both", "--out", str(out)]
        assert main(argv) == EXIT_OK
        run_dir = next(out.iterdir())
        first = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.name != "timings.json"}
        assert main(argv) == EXIT_OK
        second = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.name != "timings.json"}
        assert first == second

    def test_parallel_workers_match_serial(self, scenario_file, tmp_path):
        serial_out = tmp_path / "serial"
        parallel_out = tmp_path / "parallel"
        base = ["--scenario", str(scenario_file), "--seeds", "0..1"]
        assert main(base + ["--out", str(serial_out)]) == EXIT_OK
        assert main(base + ["--out", str(parallel_out), "--workers", "2"]) == EXIT_OK
        s_dir = next(serial_out.iterdir())
        p_dir = next(parallel_out.iterdir())
        for p in s_dir.iterdir():
            if p.name != "timings.json":
                assert (p_dir / p.name).read_bytes() == p.read_bytes()

    @pytest.mark.parametrize("cpus,expected", [(8, 2), (1, 1), (None, 1)])
    def test_workers_capped_by_jobs_and_cpus(self, scenario_file, tmp_path, monkeypatch, cpus, expected):
        # With fork, a pool starts every worker it is given up front. A fake pool records
        # the size asked for and runs the jobs serially, so no process starts here.
        from irsim import cli

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                return map(fn, payloads)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        argv = ["--scenario", str(scenario_file), "--seeds", "0..1", "--workers", "5000", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert sizes == [expected]

    def test_csv_flag_adds_metrics_csv(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        main(["--scenario", str(scenario_file), "--csv", "--out", str(out)])
        run_dir = next(out.iterdir())
        assert (run_dir / "irs-seed0.csv").exists()

    def test_run_failure_exits_two_with_marker(self, scenario_file, tmp_path, monkeypatch):
        from irsim import cli, sim

        def boom(world):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(sim, "run", boom)
        out = tmp_path / "out"
        code = main(["--scenario", str(scenario_file), "--out", str(out)])
        assert code == cli.EXIT_RUN_FAILURE
        markers = list(out.rglob("*.FAILED"))
        assert len(markers) == 1
        assert "synthetic failure" in markers[0].read_text()

    @pytest.mark.parametrize("blocked", ["out-dir", "log-file"])
    def test_unwritable_output_exits_two(self, scenario_file, tmp_path, capsys, blocked):
        out = tmp_path / "out"
        argv = ["--scenario", str(scenario_file), "--out", str(out)]
        if blocked == "out-dir":
            out.write_text("a regular file, not a directory\n", encoding="utf-8")
        else:
            config_hash = parse_run_spec(argv, env={}).config.canonical_hash()
            (out / config_hash / "irs-seed0.log").mkdir(parents=True)
        code = main(argv)
        assert code == EXIT_RUN_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("run failed: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


# Extreme finite values for a scenario field, by the field's type: signs, the smallest and largest
# doubles, and integers past the int64 range. A run-size flag bounds every run to 4 vehicles and 2 s.
_FLOATS = st.sampled_from([0.0, -1.0, 5e-324, 1e-300, 1e-9, 0.25, 1.0, 3.0, 1e9, 1e150, 1.7e308])
_INTS = st.sampled_from([0, -1, 1, 3, 2**31, 2**62, 2**63, 10**20])
_FIELD_VALUES = {
    float: _FLOATS.map(repr),
    int: _INTS.map(str),
    bool: st.sampled_from(["true", "false"]),
    str: st.sampled_from([*ATTACKER_PROFILES, "none"]),
    tuple[float, float]: st.tuples(_FLOATS, _FLOATS).map(lambda pair: f"{pair[0]!r} {pair[1]!r}"),
    tuple[tuple[float, float], ...]: st.lists(st.tuples(_FLOATS, _FLOATS), max_size=3).map(
        lambda pairs: " ".join(f"{x!r} {y!r}" for x, y in pairs)
    ),
}
# The flags below set these.
_SIZED_BY_FLAGS = ("vehicle_count", "attacker_count", "duration")
_FIELDS = {
    name: _FIELD_VALUES[kind]
    for name, kind in typing.get_type_hints(ScenarioConfig).items()
    if name not in _SIZED_BY_FLAGS
}


@st.composite
def _extreme_runs(draw):
    """A scenario file that sets one or two fields to extreme values, and flags that keep the run tiny."""
    names = draw(st.lists(st.sampled_from(sorted(_FIELDS)), min_size=1, max_size=2, unique=True))
    text = "".join(f"{name} = {draw(_FIELDS[name])}\n" for name in names)
    vehicles = draw(st.integers(0, 4))
    flags = [
        "--vehicles", str(vehicles),
        "--attackers", str(draw(st.integers(0, vehicles))),
        "--duration", draw(st.sampled_from(["0", "0.5", "2"])),
        "--pipeline", draw(st.sampled_from(["irs", "accept-all", "both"])),
    ]
    return text, flags


class TestEveryFiniteConfig:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_extreme_runs())
    def test_runs_or_exits_one(self, case):
        # Every config runs (exit 0) or is a configuration error (exit 1 with one line); none fails
        # inside the run (exit 2) or prints a traceback.
        text, flags = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "extreme.cfg"
            path.write_text(text, encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["--scenario", str(path), *flags, "--out", str(Path(tmp) / "out")])
        assert code in (EXIT_OK, EXIT_CONFIG), (text, flags, err.getvalue())
        if code == EXIT_CONFIG:
            assert err.getvalue().startswith("configuration error: ") and err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == "", (text, flags)

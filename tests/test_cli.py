"""Run-spec parsing and end-to-end CLI execution."""

import json

import pytest

from irsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUN_FAILURE, main, parse_run_spec
from irsim.scenario import ConfigError

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

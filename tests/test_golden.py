"""Golden digests: byte-exact outputs for a small scenario matrix.

Each case runs one seed of a 60-vehicle, 30 s scenario and pins the SHA-256
of its event log and of its metrics JSON (written with ``metrics.export``).
The matrix covers every attacker profile on the IRS pipeline, the
accept-all pipeline, two roadside units (which exchange FWD digests), and
ranging noise switched off.

A change that keeps behaviour leaves every digest unchanged. A change that
alters output bytes on purpose re-pins them and says why. The digests were
pinned on Python 3.11.7 with numpy 2.4.6; other numpy versions may draw
different random streams.
"""

import hashlib
from pathlib import Path

import pytest

from irsim import sim
from irsim.metrics import export
from irsim.scenario import ScenarioConfig

BASE = dict(vehicle_count=60, attacker_count=6, duration=30.0)
SEED = 0

# name -> (config overrides, pipeline, event-log sha256, metrics-JSON sha256)
MATRIX = {
    "irs-false-warning": (
        {"attacker_profile": "false-warning"},
        "irs",
        "53f7d489853aa3352aefac75d792d4820ea36e76789133c61b10aac80f4de86e",
        "61b45b8803c0c989096770a5bb8b45da7f40dc70aca2b135dcee11f7d56d4cd0",
    ),
    "irs-conflicting-info": (
        {"attacker_profile": "conflicting-info"},
        "irs",
        "30c651e6bae9982aaa002399f54b096819e9f13b314d61c9db6f647b8c463a83",
        "062f81a7e2a31e9b9e307e0e9a7323819b3f1d572af5452dc45c82a60ba2dcca",
    ),
    "irs-far-event-claim": (
        {"attacker_profile": "far-event-claim"},
        "irs",
        "47b3a77ba8aa9dae477ccfee9b5a74ed3511a42f25c9d45fe6f567a6981ae31a",
        "bd0b423ba6b68fb33926254f91ab17944acbda805176c2d395dd4a733c4f6c70",
    ),
    "accept-all-false-warning": (
        {"attacker_profile": "false-warning"},
        "accept-all",
        "4e72bcfd9d7e6e5bbbafc6d6e4f098059102e467ecb24ed469ea66078c46d8d6",
        "465ab4ce81211a9921f5fb591a774d38e969c10aad74c6655c1f2fa4e5a959b8",
    ),
    "irs-two-rsus": (
        {"rsu_positions": ((300.0, 500.0), (700.0, 500.0))},
        "irs",
        "e2a88cb00b2c6083bbd41f6bd2803a3b513138be950e1273842d9e6de48cfb13",
        "0f8bdf658941afeb9c829ab123a7cd970afc1c5056a7cf16ba021578d0fb9056",
    ),
    "irs-no-ranging-noise": (
        {"ranging_noise_sigma": 0.0, "ranging_noise_per_meter": 0.0},
        "irs",
        "26840fc2756704d50c1cc736fe9698decfb3d48e949fa80324fac26d664442fe",
        "f7aff613c64c5bc6a78e4c975eea904936755406236547dc6fd263127b2595cf",
    ),
}


def digests(overrides: dict, pipeline: str, out_dir: Path, seed: int = SEED) -> tuple[str, str]:
    """Run one case and return the SHA-256 of its event log and metrics JSON."""
    config = ScenarioConfig(**{**BASE, **overrides, "seed": seed})
    result = sim.run(sim.build_scenario(config, pipeline))
    metrics_path = export(result.report, "json", out_dir / "metrics.json")
    return (
        hashlib.sha256(result.log_text().encode("utf-8")).hexdigest(),
        hashlib.sha256(metrics_path.read_bytes()).hexdigest(),
    )


@pytest.mark.parametrize("name", list(MATRIX))
def test_outputs_match_pinned_digests(name, tmp_path):
    overrides, pipeline, log_sha, json_sha = MATRIX[name]
    assert digests(overrides, pipeline, tmp_path) == (log_sha, json_sha)

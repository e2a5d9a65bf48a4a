"""Golden digests: byte-exact outputs for a small scenario matrix.

Each case runs one seed of a 60-vehicle, 30 s scenario and pins the SHA-256
of its event log and of its metrics JSON and CSV (both written with
``metrics.export``). The matrix covers every attacker profile on the IRS
pipeline, the accept-all pipeline, two roadside units (which exchange FWD
digests), ranging noise switched off, jittered beacon intervals (so only
some vehicles beacon in a round), and no roadside unit at all.

Each case's event log must also replay, record by record, to the decision
log of the live run.

A change that keeps behaviour leaves every digest unchanged. A change that
alters output bytes on purpose re-pins them and says why. The digests were
pinned on Python 3.11.7 with numpy 2.4.6; other numpy versions may draw
different random streams. The ``irs`` cases were last re-pinned when beacon
loss became a keyed draw per link instead of a draw from the radio stream;
``accept-all`` runs no beacon rounds and kept its digests.
"""

import hashlib
from pathlib import Path

import pytest

from irsim import sim
from irsim.metrics import RunInfo, export, replay_event_log
from irsim.scenario import ScenarioConfig

BASE = dict(vehicle_count=60, attacker_count=6, duration=30.0)
SEED = 0

# name -> (config overrides, pipeline, event-log, metrics-JSON and metrics-CSV sha256)
MATRIX = {
    "irs-false-warning": (
        {"attacker_profile": "false-warning"},
        "irs",
        "33700a9e090e3efa859d8a9f5798371d72d9041dec028d877f72c28b2f729bb4",
        "3b79d1f7afee1a38e731d02b00d0dca33ce60263990c0a3f18ed82006fd1a87b",
        "78a7346c3829de11f37ca8df6d3cfd574679164632783567a2e3bcf6dc21b4dc",
    ),
    "irs-conflicting-info": (
        {"attacker_profile": "conflicting-info"},
        "irs",
        "42fafd5908ebf124a32e144559a2555ce1d1f32e2f50235aba4a8a78588eddb6",
        "7411ddbbe74ef3f34a63173e7e2a2b70bfbd2d4d397ce1236a6f649cf14eff4f",
        "73aea8f61569d441363598c2d15f1fff837c42a1ca5892411a876d31b27c98f5",
    ),
    "irs-far-event-claim": (
        {"attacker_profile": "far-event-claim"},
        "irs",
        "d2ead8664f8adb3774939a8f4ec574862c1764bce09b12d3a4a5b576d2e1a0e2",
        "57a231a23309c9b0423bcb6970a80aae78b0794a724ce1679ed21364b3147050",
        "6c78c7515fe97a126a287e4dfae9bb0206c4f75b578f808ffb4b78b51271c56d",
    ),
    "accept-all-false-warning": (
        {"attacker_profile": "false-warning"},
        "accept-all",
        "4e72bcfd9d7e6e5bbbafc6d6e4f098059102e467ecb24ed469ea66078c46d8d6",
        "465ab4ce81211a9921f5fb591a774d38e969c10aad74c6655c1f2fa4e5a959b8",
        "89a814259212e4e3fc304972fac6d9f9580ffe91d115d0e1a278c04ab7b9a805",
    ),
    "irs-two-rsus": (
        {"rsu_positions": ((300.0, 500.0), (700.0, 500.0))},
        "irs",
        "47250dfb0f4ce2c8fe38d85b0ddd1e2b3e234f1fbb84d8b93cedaa3bbcf4691c",
        "026bcc6b6c0afb50b951f543be84adfb5343f242e2b29893620b45d0f50d9219",
        "233ae21ba56065971ec8f15438668f3d655f78a6a5c943e015f2f8afabede236",
    ),
    "irs-no-ranging-noise": (
        {"ranging_noise_sigma": 0.0, "ranging_noise_per_meter": 0.0},
        "irs",
        "9ad9acedd551e307fd14a95e0dbbbccb27b3aa60230bf70c2c13dfcdc487197c",
        "0ad662ba4f48649258f73e1e65869ac2610c2f82b4466701fc4b64e7f2fce832",
        "998cb4048026be0ba938fcf9e94ca39d2211b7ee812a91da33c1d4cd1eba9f36",
    ),
    "irs-jittered-beacons": (
        {"beacon_interval": (0.1, 0.35)},
        "irs",
        "2c005120871b1826ce8268d759b256085cec50dcdee09f628292e91f3bfa8bfd",
        "c8a65d61fc35a0ef90792f9a09d846c5c9161833dd0d37542c76b2d8d5234242",
        "ff62e8bc3c5b6bdab1afa7b23029928619ec258eaac1d8864b470420184f5975",
    ),
    "irs-no-rsu": (
        {"rsu_positions": ()},
        "irs",
        "bc77ebd338702fb131bbeb93b7d6f60fa4f49e0d2e6e72591fdf6f5bc828844b",
        "8b3d288e2e1cb0dfe512eabc5ee9e84856764165413f1b7f291bc7b00ce079ef",
        "9e9ab4f90091b7542910d3dcb747d12e0008efabe1da722aa4b687eeac52e6a0",
    ),
}


def digests(overrides: dict, pipeline: str, out_dir: Path, seed: int = SEED) -> tuple[str, str, str]:
    """Run one case and return the SHA-256 of its event log, metrics JSON and metrics CSV."""
    config = ScenarioConfig(**{**BASE, **overrides, "seed": seed})
    result = sim.run(sim.build_scenario(config, pipeline))
    paths = [export(result.report, fmt, out_dir / f"metrics.{fmt}") for fmt in ("json", "csv")]
    return (
        hashlib.sha256(result.log_text().encode("utf-8")).hexdigest(),
        *(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths),
    )


@pytest.mark.parametrize("name", list(MATRIX))
def test_outputs_match_pinned_digests(name, tmp_path):
    overrides, pipeline, *pinned = MATRIX[name]
    assert digests(overrides, pipeline, tmp_path) == tuple(pinned)


def as_logged(records):
    """Records as the event log keeps them: time to 6 decimals, no latency."""
    return [r._replace(time=float(f"{r.time:.6f}"), latency_ns=None) for r in records]


@pytest.mark.parametrize("name", list(MATRIX))
def test_replay_rebuilds_every_record(name):
    overrides, pipeline, *_ = MATRIX[name]
    config = ScenarioConfig(**{**BASE, **overrides, "seed": SEED})
    world = sim.build_scenario(config, pipeline)
    result = sim.run(world)
    info = RunInfo(config.canonical_hash(), SEED, pipeline, world.benign, config.transmission_range)
    replayed = replay_event_log(result.log_lines, info)
    live = result.decisions
    assert len(replayed.records) == len(live.records) > 0
    for got, want in zip(as_logged(replayed.records), as_logged(live.records)):
        assert got == want
    assert as_logged(replayed.final_records()) == as_logged(live.final_records())

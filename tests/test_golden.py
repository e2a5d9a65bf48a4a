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
different random streams.
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
        "a1f6768445b7994f58b96317b4e186e7b620bfad8bf0eb6b9137af5b2bb10207",
        "e62b66e9f898b2968fcaececab71f5918d47ebee59358bbb19ff9882e76c2a0d",
        "05b849db011f934c52ed6554b58d64753686794406396c9e9884d9055df141c6",
    ),
    "irs-conflicting-info": (
        {"attacker_profile": "conflicting-info"},
        "irs",
        "f9f6a66eca851169e16dc64284eb9606b158b0641b309b53ad76d6088ecca0b3",
        "4640d4ad7835493d70ee01e07adc2b65823d959ee3caa6aacbfe621b42cd2c63",
        "0130f494870818c69d75ed8ddc5a6423620842ccbbfbfcce0d1b5f560a8c3b83",
    ),
    "irs-far-event-claim": (
        {"attacker_profile": "far-event-claim"},
        "irs",
        "ea5823869b636afd8f6264c4528988dd795d1125bf6c5b0cf61e1298c7444597",
        "1c34ec23f6df7b1feca16b9e382247b0e11fc0dc3d7a03eaee83d81230c153ea",
        "e95df7c3ec090ac936c471e4a8a63748d9266796870dd5136360bba27e601f77",
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
        "5671a96e065554fad274b943a626720bc6660a60f0c6240b805e6d8a9d9c074f",
        "b833dce80c63883821652270db66d9264e8e31a091a71f00aa7c7f20982067ed",
        "76d6c72414d08db7da637b698c0a8f5f0c6acba9b741e07525d86bee1361878b",
    ),
    "irs-no-ranging-noise": (
        {"ranging_noise_sigma": 0.0, "ranging_noise_per_meter": 0.0},
        "irs",
        "8d783f71a98b83b24d28b6b6fc9d6a97faf9ded71bb863449e94d5223db2784d",
        "324946030bca56c99a0d521bf17b9eab8e3b31b2b7e4e09f795a1167afa95993",
        "3d4867637791705c4672b89a593a20f37abacb77d5ae0f9fac8e34f25d3dc9cb",
    ),
    "irs-jittered-beacons": (
        {"beacon_interval": (0.1, 0.35)},
        "irs",
        "a7b468928c1d98ab1428f528d8446132d53a936f683ae9494eb79a5b68d46f76",
        "8db07d23e4047725cf1593b17e290b63ee6ad26c5318b54252aff04f78de2f20",
        "8099e4c38322fc2b12079cf986d01140486238e76782f9f9e9faad4bc453d8f4",
    ),
    "irs-no-rsu": (
        {"rsu_positions": ()},
        "irs",
        "50602f7bf8ec5f3169d6401ca7d98e5ee94cd8d6b2f44b3e07ca7766b0d697db",
        "9d995fd07a8d6ff3d67edf7331d134d78331517d3161727468e779300d97151b",
        "69a74dd5b5cec82c3af97e5f586ea1efb1715023e2c6c59f04e1b49a3bad62e1",
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

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
different random streams. The noisy ``irs`` cases were last re-pinned when
the ranging errors moved out of the decisions: the radio stream now gives
two normals per beacon fact, drawn for each warning before its deliveries,
where each decision drew one or two. ``accept-all`` and
``irs-no-ranging-noise`` draw no ranging errors and kept their digests.
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
        "009e4a27a5b237903c8d81699c55184336b31870eadb2b30752456aa7e72260c",
        "85f5ec1f3894f4b9e6b34029407e1afb8c6ba4e2adbc5dee12dfbdacf4df123d",
        "b5e96a2829dd14b05a1272781bcfa855fa626926bb7440e796baf61a2d93b52a",
    ),
    "irs-conflicting-info": (
        {"attacker_profile": "conflicting-info"},
        "irs",
        "dc902b8514218b60d4801f15a0261a8d86aedc7606e2a5bb1f765751744aa1a4",
        "1f061ea0b92ec111b7a7ba2c57c4562f351ae23e65cb39e4fd366ccd086a46bd",
        "b02b09cf3637eacf067d5f7b1296518afc7fc6d0491a34e2e3570ea1e209f66c",
    ),
    "irs-far-event-claim": (
        {"attacker_profile": "far-event-claim"},
        "irs",
        "d027dbe0def56972aa515431ea3e25bbf91408ded8b51ba9590f3a5b09d8527f",
        "525dd45ba6460a2274b31caa6a29ef9c0b69281fc53af8f981825f33870e8a4a",
        "e646d4c4121a189c9714ec771dd5b96fe698f6eaa8c39cb83d1dcaa9b083f52f",
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
        "6f2a476faedec1fea33b53c373b6c2d3f4598330e8c0624fed97b9efc6c24d9e",
        "6d75686d86ebaf4f794aee42769a1c323b5185fcaa6e31e7e5a4f667299e22e3",
        "0607bc834699c9a877eafc02cb0e5c2053791fdeb232522a1e224da043a130b0",
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
        "55b03a45b8c1184e040d59c571fb08d84b8d41b0e71122e2d7bb3770153c3a89",
        "3df2c5450f4e6d03d93983cce59cb4c9f1bc22792f2ff5d03cc274bd93c1a96d",
        "32bd1c786ce7fae8b708d64887d201ae1c2675d76af52716f24457ff58b9343b",
    ),
    "irs-no-rsu": (
        {"rsu_positions": ()},
        "irs",
        "38643d585adf9aa820572a14380c6748711c8d8e14ae02b5c69eb2e5ae9f94a6",
        "9237e0a0818e606ed0a557f4dac17f37518301a27efb2d3b9d5cfe9cad4d5a15",
        "33eee0f57e1a0cfde4f363eb6d18394d6088afc11d4f35b26abc86675b96689c",
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

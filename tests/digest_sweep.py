"""Print one SHA-256 over the event logs and metrics JSON of a fixed scenario sweep.

A change meant to keep behaviour must leave the printed digest unchanged:
run this script on the parent commit and on the change and compare the two
lines. The sweep is

- the benchmark's scenarios: 24 ``stock-irs`` (100 vehicles, 10 attackers,
  20 s, seeds 0-23) and 32 ``dense-irs`` (200 vehicles, 20 attackers, 5 s,
  seeds 0-31), both ``false-warning`` on the ``irs`` pipeline, with the
  parameters of ``perfbench/run.py``'s ``WORKLOADS`` written out here;
- the 8 golden configs of ``test_golden.py`` at seeds 0-2;
- one constant-density world with more than two roadside units: 800
  vehicles (80 attackers) on an 8,000 x 1,000 m grid, a unit every 1 km
  (8 units), 144 hazards per minute, 3 s, seed 0;
- two worlds at the edges of held-warning expiry: 60 vehicles (6
  attackers at 2 attacks per second), 10 s, two roadside units, jittered
  beacons (0.1-0.3 s) and no warning jitter, so many entries share a
  ``first_seen``. One holds entries for 0.35 s, which is not a whole
  number of beacon rounds; the other for 20 s, so every held entry leaves
  in the final expiry. Seed 0.

Each scenario goes through ``cli.run_one``, which writes the files a user
gets; the digest covers each file's own SHA-256, in sweep order. Run it as

    python tests/digest_sweep.py

It imports irsim from the ``src`` next to this file, so a second checkout
gives its own digest. pytest does not collect it (its name has no ``test_``).
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from irsim import cli  # noqa: E402
from irsim.scenario import make_config  # noqa: E402
from test_golden import BASE, MATRIX  # noqa: E402

# (vehicles, attackers, duration in s, scenario seeds), as perfbench's stock-irs and dense-irs.
BENCHMARK_SWEEPS = ((100, 10, 20.0, range(24)), (200, 20, 5.0, range(32)))
GOLDEN_SEEDS = range(3)
# The road is 10 m per vehicle long, with one roadside unit per km and 18 hazards per minute per 100 vehicles.
CONSTANT_DENSITY = {
    "vehicle_count": 800,
    "attacker_count": 80,
    "attacker_profile": "false-warning",
    "duration": 3.0,
    "grid": (8000.0, 1000.0),
    "rsu_positions": tuple((1000.0 * k + 500.0, 500.0) for k in range(8)),
    "event_rate_per_min": 144.0,
}
EXPIRY_EDGES = {
    "vehicle_count": 60,
    "attacker_count": 6,
    "attacker_rate": 2.0,
    "duration": 10.0,
    "rsu_positions": ((300.0, 500.0), (700.0, 500.0)),
    "beacon_interval": (0.1, 0.3),
    "warning_jitter": 0.0,
}
EXPIRY_TTLS = (0.35, 20.0)


def scenarios():
    """(overrides, seed, pipeline) for every scenario in the sweep, in sweep order."""
    for vehicles, attackers, duration, seeds in BENCHMARK_SWEEPS:
        overrides = {
            "vehicle_count": vehicles,
            "attacker_count": attackers,
            "attacker_profile": "false-warning",
            "duration": duration,
        }
        for seed in seeds:
            yield overrides, seed, "irs"
    for overrides, pipeline, *_ in MATRIX.values():
        for seed in GOLDEN_SEEDS:
            yield {**BASE, **overrides}, seed, pipeline
    yield CONSTANT_DENSITY, 0, "irs"
    for ttl in EXPIRY_TTLS:
        yield {**EXPIRY_EDGES, "pending_ttl": ttl}, 0, "irs"


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp)
        for overrides, seed, pipeline in scenarios():
            cli.run_one(make_config({**overrides, "seed": seed}), seed, pipeline, run_dir)
            for suffix in (".log", ".json"):
                path = run_dir / f"{pipeline}-seed{seed}{suffix}"
                digest.update(hashlib.sha256(path.read_bytes()).digest())
                path.unlink()
            count += 1
    print(f"{digest.hexdigest()}  {count} scenarios")


if __name__ == "__main__":
    main()

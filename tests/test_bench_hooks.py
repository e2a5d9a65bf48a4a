"""The benchmark's tracer can still patch every entry point it names.

``perfbench/tracing.py`` wraps irsim functions and methods by attribute name
for ``perfbench/run.py --trace 1``. A rename in ``src/`` that drops one of
those names makes ``installed`` raise, so this test fails first.
"""

import importlib.util
from pathlib import Path

from irsim import protocol, reputation, sim
from irsim.scenario import make_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracing = load_tracing()
    originals = (
        protocol.compute_trust_bands,
        protocol.standing_of,
        reputation.LocalReputationList.points,
        protocol.VehicleNode.handle_warning,
    )
    with tracing.installed(tracing.Tracer()) as tracer:
        assert protocol.VehicleNode.handle_warning is not originals[3]
        world = sim.build_scenario(make_config({"vehicle_count": 20, "attacker_count": 2, "duration": 6.0}))
        sim.run(world)
    assert (
        protocol.compute_trust_bands,
        protocol.standing_of,
        reputation.LocalReputationList.points,
        protocol.VehicleNode.handle_warning,
    ) == originals
    layers = tracing.layer_metrics(tracer)
    assert layers["trace.spans"] > 0
    assert layers["protocol.handle_warning.calls"] > 0
    assert layers["protocol.expire_pending.calls"] > 0

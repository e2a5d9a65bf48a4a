"""irsim: reputation-based trust decisions for vehicle safety messages.

The package splits into a pure decision core (:mod:`irsim.reputation`),
protocol state machines for vehicles and roadside units
(:mod:`irsim.protocol`), a deterministic highway simulator
(:mod:`irsim.sim`), metrics (:mod:`irsim.metrics`), and a scenario-runner
CLI (:mod:`irsim.cli`).
"""

from .reputation import (
    HeuristicBand,
    HeuristicBands,
    LocalReputationList,
    ReputationRecord,
    RrlStanding,
    TrustBands,
    TrustDecision,
    TrustLevel,
    apply_point_delta,
    classify_heuristic,
    classify_trust,
    compute_heuristic_bands,
    compute_trust_bands,
    decide_trust,
    heuristic_from_distance,
    rrl_is_stale,
    standing_of,
)
from .protocol import (
    Disposition,
    EventKind,
    MisbehaviorReport,
    RrlBroadcast,
    RsuNode,
    VehicleNode,
    Warning,
)
from .scenario import ConfigError, ScenarioConfig
from .sim import SimWorld, attacker_emit, build_scenario, run

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Disposition",
    "EventKind",
    "HeuristicBand",
    "HeuristicBands",
    "LocalReputationList",
    "MisbehaviorReport",
    "ReputationRecord",
    "RrlBroadcast",
    "RrlStanding",
    "RsuNode",
    "ScenarioConfig",
    "SimWorld",
    "TrustBands",
    "TrustDecision",
    "TrustLevel",
    "VehicleNode",
    "Warning",
    "apply_point_delta",
    "attacker_emit",
    "build_scenario",
    "classify_heuristic",
    "classify_trust",
    "compute_heuristic_bands",
    "compute_trust_bands",
    "decide_trust",
    "heuristic_from_distance",
    "rrl_is_stale",
    "run",
    "standing_of",
]

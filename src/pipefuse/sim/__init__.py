"""Three-level pipeline-monitoring simulator: nodes -> cluster heads -> gateway."""

from .config import (
    ClusterSpec,
    ConfigError,
    DetectionConfig,
    EnergyConfig,
    EventSpec,
    FusionConfig,
    NodeSpec,
    ScenarioConfig,
    SignalSpec,
    Topology,
    UavVisit,
    apply_overrides,
    load_scenario,
    scenario_from_dict,
)
from .detect import Detection, detect_events
from .metrics import RunMetrics, metrics_row, write_metrics_csv
from .runner import SimulationResult, run_simulation
from .stages import (
    MessageKind,
    cluster_stage,
    consensus_stage,
    node_stage,
)
from .world import WorldData, generate_world

__all__ = [
    "ClusterSpec",
    "ConfigError",
    "Detection",
    "DetectionConfig",
    "EnergyConfig",
    "EventSpec",
    "FusionConfig",
    "MessageKind",
    "NodeSpec",
    "RunMetrics",
    "ScenarioConfig",
    "SignalSpec",
    "SimulationResult",
    "Topology",
    "UavVisit",
    "WorldData",
    "apply_overrides",
    "cluster_stage",
    "consensus_stage",
    "detect_events",
    "generate_world",
    "load_scenario",
    "metrics_row",
    "node_stage",
    "run_simulation",
    "scenario_from_dict",
    "write_metrics_csv",
]

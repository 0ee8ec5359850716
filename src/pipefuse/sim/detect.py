"""Event detection over per-window fused streams and aggregates.

One persistence rule, `persistent_onsets`: a per-window condition has an
onset where it has held for `persistence` consecutive windows, one per
run. Leak alarms fire at every onset of "fused pressure < baseline -
leak_threshold" (leak_persistence), intrusion alarms at every onset of
"pir/magnetic window MAX is 1" (persistence 1, windows with reports), and
a cluster head flags a member at its first onset of "zero confidence all
window" (fault_persistence). A UAV over its cluster at its tick validates it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..core import SensorKind
from .config import ScenarioConfig


class Detection(NamedTuple):
    kind: str  # "leak" | "intrusion"
    tick: int
    cluster_id: str
    sensor_kind: SensorKind
    window_index: int
    validated: bool
    consensus_value: Optional[float] = None


def persistent_onsets(flags, persistence: int) -> list[int]:
    """The indices at which a run of true flags reaches persistence
    consecutive flags, one per run."""
    onsets = []
    run = 0
    for i, flag in enumerate(flags):
        run = run + 1 if flag else 0
        if run == persistence:
            onsets.append(i)
    return onsets


def _uav_covers(config: ScenarioConfig, cluster_id: str, tick: int) -> bool:
    return any(v.covers(tick, cluster_id) for v in config.topology.uav_patrol)


def detect_events(window_series: dict, config: ScenarioConfig) -> list[Detection]:
    """Scan every (cluster, kind) window series; returns detections sorted
    by tick, then kind, then cluster."""
    detections = []
    for (cluster_id, kind), windows in sorted(window_series.items()):
        if kind == SensorKind.PRESSURE and kind in config.signals:
            floor = config.signals[kind].baseline - config.detection.leak_threshold
            below = [s.fused is not None and s.fused < floor for s in windows]
            event, onsets = "leak", persistent_onsets(below, config.detection.leak_persistence)
        elif kind.is_binary:
            windows = [s for s in windows if s.count]  # no reports: the level holds
            event, onsets = "intrusion", persistent_onsets([s.max == 1.0 for s in windows], 1)
        else:
            continue
        for w in onsets:
            s = windows[w]
            detections.append(Detection(event, s.end_tick, cluster_id, kind, s.index,
                                        _uav_covers(config, cluster_id, s.end_tick)))
    detections.sort(key=lambda d: (d.tick, d.kind, d.cluster_id, d.sensor_kind))
    return detections

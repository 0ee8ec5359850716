"""Event detection over per-window fused streams and aggregates.

A leak is declared when a cluster's window-fused pressure stays below
baseline - leak_threshold for leak_persistence consecutive windows (one
alarm per excursion). An intrusion is declared when a pir/magnetic window
MAX rises to 1 (one alarm per rising edge). A detection is marked validated
when the UAV patrol schedule covers its cluster at the detection tick.
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


def _uav_covers(config: ScenarioConfig, cluster_id: str, tick: int) -> bool:
    return any(v.covers(tick, cluster_id) for v in config.topology.uav_patrol)


def detect_events(window_series: dict, config: ScenarioConfig) -> list[Detection]:
    """Scan every (cluster, kind) window series; returns detections sorted
    by tick, then kind, then cluster."""
    detections = []
    baseline = None
    if SensorKind.PRESSURE in config.signals:
        baseline = config.signals[SensorKind.PRESSURE].baseline
    threshold = config.detection.leak_threshold
    persistence = config.detection.leak_persistence

    for (cluster_id, kind), windows in sorted(window_series.items()):
        if kind == SensorKind.PRESSURE and baseline is not None:
            streak = 0
            for s in windows:
                below = s.fused is not None and s.fused < baseline - threshold
                if below:
                    streak += 1
                    if streak == persistence:
                        detections.append(
                            Detection(
                                kind="leak",
                                tick=s.end_tick,
                                cluster_id=cluster_id,
                                sensor_kind=kind,
                                window_index=s.index,
                                validated=_uav_covers(config, cluster_id, s.end_tick),
                            )
                        )
                else:
                    streak = 0
        elif kind.is_binary:
            level = 0.0
            for s in windows:
                if s.count == 0:
                    continue  # no reports: last known level still holds
                if s.max == 1.0 and level != 1.0:
                    detections.append(
                        Detection(
                            kind="intrusion",
                            tick=s.end_tick,
                            cluster_id=cluster_id,
                            sensor_kind=kind,
                            window_index=s.index,
                            validated=_uav_covers(config, cluster_id, s.end_tick),
                        )
                    )
                level = s.max
    detections.sort(key=lambda d: (d.tick, d.kind, d.cluster_id, d.sensor_kind))
    return detections

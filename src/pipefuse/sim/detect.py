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
    """Scan every (cluster, kind) WINDOW array (nan is "no value"); returns
    detections sorted by tick, then kind, then cluster."""
    detections = []
    for (cluster_id, kind), windows in sorted(window_series.items()):
        if kind == SensorKind.PRESSURE and kind in config.signals:
            floor = config.signals[kind].baseline - config.detection.leak_threshold
            below = windows["fused"] < floor  # nan, no fused value, is never below
            event, onsets = "leak", persistent_onsets(below, config.detection.leak_persistence)
        elif kind.is_binary:
            reported = windows["count"].nonzero()[0]  # no reports: the level holds
            onsets = reported[persistent_onsets(windows["max"][reported] == 1.0, 1)].tolist()
            event = "intrusion"
        else:
            continue
        for w in onsets:
            tick = (w + 1) * config.detection.window - 1
            detections.append(Detection(event, tick, cluster_id, kind, w,
                                        _uav_covers(config, cluster_id, tick)))
    detections.sort(key=lambda d: (d.tick, d.kind, d.cluster_id, d.sensor_kind))
    return detections

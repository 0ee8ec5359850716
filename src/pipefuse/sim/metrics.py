"""Run metrics: message/bit accounting, energy, estimation error, detections.

Radio-equivalent energy charges every transmitted bit at ops_per_bit
microcontroller operations; compute energy charges the ops the node and
cluster stages actually spent. All CSV output is deterministic: no
wall-clock data is ever written, and every file goes through
`core.write_columns`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from ..core import write_columns, write_csv
from .config import ScenarioConfig


class EventOutcome(NamedTuple):
    """How one injected event fared: matched detection and its latency."""

    index: int
    kind: str
    start: int
    detected_tick: Optional[int]
    latency: Optional[int]
    validated: bool


class RunMetrics(NamedTuple):
    """One run's `metrics.csv` row: the fields, in order, are its columns.
    A figure with no value (no stream to score, no event detected) is
    `math.nan`, so that two runs' records compare equal."""

    scenario: str
    seed: int
    horizon: int
    node_messages: int
    node_bits: int
    cluster_messages: int
    cluster_bits: int
    consensus_messages: int
    consensus_bits: int
    alert_messages: int
    alert_bits: int
    total_messages: int
    total_bits: int
    compute_ops: int
    radio_energy: float
    compute_energy: float
    total_energy: float
    rmse_mean: float
    rmse_max: float
    events: int
    detections: int
    detected_events: int
    false_positives: int
    mean_detection_latency: float
    validated_detections: int


def match_events(config: ScenarioConfig, detections) -> tuple[list, int]:
    """Pair injected events with detections.

    A leak event is consistent with any later leak detection (the
    depression persists); an intrusion with a detection up to one reporting
    window past its end. Each event's latency comes from its earliest
    consistent detection; only detections consistent with no event at all
    count as false positives (several clusters may flag one leak).
    """
    window = config.detection.window

    def consistent(event, det):
        if det.kind != event.kind or det.tick < event.start:
            return False
        if event.kind == "intrusion" and det.tick > event.end + window:
            return False
        return True

    outcomes = []
    explained = set()
    for i, event in enumerate(config.events):
        first = None
        for j, det in enumerate(detections):
            if consistent(event, det):
                explained.add(j)
                if first is None:
                    first = det
        found = first is not None
        outcomes.append(EventOutcome(
            i, event.kind, event.start, first.tick if found else None,
            first.tick - event.start if found else None, found and first.validated,
        ))
    false_positives = len(detections) - len(explained)
    return outcomes, false_positives


def write_metrics_csv(rows, path) -> None:
    """`metrics.csv` and `sweep_metrics.csv`: one row dict per run (at least
    one); the first row's keys, in order, are the columns."""
    write_csv(path, list(rows[0]), [row.values() for row in rows])


def write_detections_csv(detections, path) -> None:
    write_csv(
        path,
        ["kind", "tick", "cluster_id", "sensor_kind", "window", "validated",
         "consensus_value"],
        ([d.kind, d.tick, d.cluster_id, d.sensor_kind.value, d.window_index,
          int(d.validated), d.consensus_value] for d in detections),
    )


def write_stream_csv(truth, measured, held, path) -> None:
    """Per-stream estimate trail `tick,truth,measurement,reported,abs_error`
    from the world's arrays and the float array of the value held at every tick."""
    errors = np.abs(held - truth)  # IEEE, the bits of abs(float - float)
    if np.array_equal(held.view(np.int64), measured.view(np.int64)):
        held = measured  # a raw stream reports every measurement: format it once
    write_columns(path, ["tick", "truth", "measurement", "reported", "abs_error"],
                  [range(len(truth)), truth, measured, held, errors])


def write_consensus_runs_csv(runs, path) -> None:
    """All consensus invocations of a run: `run,iteration,mse`."""
    write_csv(
        path,
        ["run", "iteration", "mse"],
        ((run_index, i, mse)
         for run_index, result in enumerate(runs)
         for i, mse in enumerate(result.mse_history)),
    )

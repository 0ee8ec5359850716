"""Ground-truth signal synthesis and noisy trace generation.

Signal model:
  - analog kinds follow baseline + drift*t; leak events subtract a
    depression from the pressure of every node within the event radius,
    ramping linearly from 0 at `start` to `magnitude` at `end` and holding
    at full magnitude afterwards (a leak does not heal itself);
  - pir/magnetic are 1.0 at the node nearest an intrusion for the ticks
    start..end inclusive, 0.0 otherwise, with no noise;
  - Gaussian noise (per-stream substream of the scenario seed) is added to
    analog channels only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..core import SensorKind, TraceError
from ..ekf import NumericFailureError
from .config import EventSpec, ScenarioConfig


class WorldData(NamedTuple):
    """Per-stream ground truth and noisy traces, float arrays indexed by tick."""

    truth: dict
    traces: dict

    def stream_keys(self) -> list[tuple[str, SensorKind]]:
        return sorted(self.truth)


def check_stream(node_id: str, kind: SensorKind, values: np.ndarray) -> None:
    """The per-array form of `Measurement`'s checks: every value finite,
    and a binary stream exactly 0.0 or 1.0."""
    stream = f"stream {node_id}:{kind.value}"
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise NumericFailureError(
            f"{stream}: non-finite value {values[bad[0]]} at tick {bad[0]}"
        )
    if kind.is_binary:
        bad = np.flatnonzero((values != 0.0) & (values != 1.0))
        if bad.size:
            raise TraceError(f"{stream}: value {values[bad[0]]} at tick {bad[0]} is not 0.0 or 1.0")


def _leak_depression(event: EventSpec, t: np.ndarray) -> np.ndarray:
    ramp_len = max(1, event.end - event.start)
    ramp = np.clip((t - event.start) / ramp_len, 0.0, 1.0)
    return event.magnitude * ramp


def _intrusion_target(config: ScenarioConfig, event: EventSpec) -> str:
    """Node nearest the event among those carrying a binary sensor."""
    candidates = [
        n for n in config.topology.nodes if any(k.is_binary for k in n.sensors)
    ]
    return min(candidates, key=lambda n: (abs(n.position - event.location), n.node_id)).node_id


# overflow shows up as a non-finite value, which check_stream names
@np.errstate(over="ignore", invalid="ignore")
def generate_world(config: ScenarioConfig) -> WorldData:
    t = np.arange(config.horizon, dtype=float)
    intrusion_targets = {
        i: _intrusion_target(config, e)
        for i, e in enumerate(config.events)
        if e.kind == "intrusion"
    }

    streams = sorted((n.node_id, kind) for n in config.topology.nodes for kind in n.sensors)
    truth: dict = {}
    traces: dict = {}
    for index, (node_id, kind) in enumerate(streams):
        node = config.topology.node(node_id)
        if kind.is_binary:
            signal = np.zeros(config.horizon)
            for i, event in enumerate(config.events):
                if event.kind == "intrusion" and intrusion_targets[i] == node_id:
                    signal[event.start : event.end + 1] = 1.0
            values = signal
        else:
            spec = config.signals[kind]
            signal = spec.baseline + spec.drift * t
            if kind == SensorKind.PRESSURE:
                for event in config.events:
                    if event.kind == "leak" and abs(node.position - event.location) <= event.radius:
                        signal = signal - _leak_depression(event, t)
            values = signal
            if spec.noise_std > 0:
                rng = np.random.default_rng((config.seed, index))
                values = signal + rng.normal(0.0, spec.noise_std, size=config.horizon)
        check_stream(node_id, kind, values)
        truth[(node_id, kind)] = signal
        traces[(node_id, kind)] = values
    return WorldData(truth=truth, traces=traces)

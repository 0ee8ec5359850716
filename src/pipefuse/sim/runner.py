"""End-to-end simulation: world -> node stage -> cluster stage -> detection,
with on-demand consensus across cluster heads and full message/energy
accounting. Deterministic for a fixed (config, seed)."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..consensus import DisconnectedGraphError
from ..core import SensorKind, left_sum, left_sums
from ..ekf import NumericFailureError
from .config import ScenarioConfig
from .detect import detect_events
from .metrics import RunMetrics, match_events
from .stages import cluster_stage, consensus_stage, hold_series, node_stage
from .world import WorldData, generate_world


class SimulationResult(NamedTuple):
    config: ScenarioConfig
    world: WorldData
    cluster_results: dict
    reported_series: dict  # (node_id, kind) -> float array of the value held at every tick
    detections: list
    event_outcomes: list  # one EventOutcome per injected event
    suspected_faulty: list  # [(cluster_id, kind, node_id, window_index)]
    consensus_runs: list
    messages: dict  # "node", "cluster", "consensus", "alert" -> (messages, bits)
    metrics: RunMetrics


def _rmse(stream: str, reported: np.ndarray, truth: np.ndarray) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        error = reported - truth
        total = float(left_sums(error * error))
    if not math.isfinite(total):
        raise NumericFailureError(f"stream {stream}: estimation error overflows")
    return math.sqrt(total / len(reported))


def _energy(figure: str, amount, scale: float = 1.0) -> float:
    """amount * scale as a float; NumericFailureError names the figure if
    that overflows (an int beyond the float range included)."""
    try:
        energy = float(amount) * scale
    except OverflowError:
        energy = math.inf
    if not math.isfinite(energy):
        raise NumericFailureError(f"{figure} overflows the float range")
    return energy


def _level(results) -> tuple:
    """The (messages, bits) of stage results, summed."""
    pairs = [result.messages for result in results]
    return sum(n for n, _ in pairs), sum(bits for _, bits in pairs)


def run_simulation(config: ScenarioConfig) -> SimulationResult:
    world = generate_world(config)
    topology = config.topology

    # level 1: per-node pre-processing and report-on-change
    node_results: dict = {}
    ops = 0
    for key in world.stream_keys():
        result = node_results[key] = node_stage(world.traces[key], *key, config)
        ops += result.ops

    # level 2: cluster-head fusion and aggregation
    cluster_results: dict = {}
    suspected = []
    cluster_kinds = sorted({(n.cluster_id, kind) for n in topology.nodes for kind in n.sensors})
    for cluster_id, kind in cluster_kinds:
        member_reports = {
            n.node_id: node_results[(n.node_id, kind)].reports
            for n in topology.members_of(cluster_id)
            if kind in n.sensors
        }
        result = cluster_stage(cluster_id, kind, member_reports, config)
        cluster_results[(cluster_id, kind)] = result
        ops += result.ops
        suspected.extend(
            (cluster_id, kind, node_id, w) for node_id, w in result.suspected_faulty
        )

    # level 3: detection at the gateway, consensus on demand
    window_series = {key: result.windows for key, result in cluster_results.items()}
    detections = detect_events(window_series, config)
    consensus_runs = []
    if config.fusion.consensus_policy == "on_detection":
        for i, det in enumerate(detections):
            if det.kind != "leak":
                continue
            estimates = _latest_pressure_estimates(window_series, det.window_index)
            if len(estimates) < 2:
                continue
            try:
                stage = consensus_stage(estimates, config)
            except DisconnectedGraphError:
                # clusters without a pressure estimate can sever the peer
                # graph; the alert still goes out, just without agreement
                continue
            ops += stage.ops
            consensus_runs.append(stage)
            detections[i] = det._replace(consensus_value=stage.agreed)
    messages = {
        "node": _level(node_results.values()),
        "cluster": _level(cluster_results.values()),
        "consensus": _level(consensus_runs),
        "alert": (len(detections), len(detections) * config.energy.sample_bits),
    }

    # estimation quality: zero-order-hold reconstruction vs ground truth
    reported_series: dict = {}
    rmse_per_stream: dict = {}  # "node_id:kind" -> rmse of each continuous stream
    for key in world.stream_keys():
        node_id, kind = key
        held = reported_series[key] = hold_series(node_results[key].reports, config.horizon)
        if not kind.is_binary:
            stream = f"{node_id}:{kind.value}"
            rmse_per_stream[stream] = _rmse(stream, held, world.truth[key])

    # summed in "node_id:kind" order, which is not stream-key order from n10 on
    rmse_values = [rmse_per_stream[k] for k in sorted(rmse_per_stream)]
    total_messages, total_bits = map(sum, zip(*messages.values()))
    energy = config.energy
    radio_energy = _energy("radio_energy", total_bits * energy.ops_per_bit, energy.per_op_cost)
    compute_energy = _energy("compute_energy", ops, energy.per_op_cost)
    total_energy = _energy("total_energy", radio_energy + compute_energy)

    event_outcomes, false_positives = match_events(config, detections)
    latencies = [o.latency for o in event_outcomes if o.latency is not None]
    metrics = RunMetrics(
        scenario=config.name,
        seed=config.seed,
        horizon=config.horizon,
        **{f"{level}_{unit}": n for level, pair in messages.items()
           for unit, n in zip(("messages", "bits"), pair)},
        total_messages=total_messages,
        total_bits=total_bits,
        compute_ops=ops,
        radio_energy=radio_energy,
        compute_energy=compute_energy,
        total_energy=total_energy,
        rmse_mean=left_sum(rmse_values) / len(rmse_values) if rmse_values else math.nan,
        rmse_max=max(rmse_values) if rmse_values else math.nan,
        events=len(event_outcomes),
        detections=len(detections),
        detected_events=len(latencies),
        false_positives=false_positives,
        mean_detection_latency=sum(latencies) / len(latencies) if latencies else math.nan,
        validated_detections=sum(1 for d in detections if d.validated),
    )
    return SimulationResult(
        config=config,
        world=world,
        cluster_results=cluster_results,
        reported_series=reported_series,
        detections=detections,
        event_outcomes=event_outcomes,
        suspected_faulty=suspected,
        consensus_runs=consensus_runs,
        messages=messages,
        metrics=metrics,
    )


def _latest_pressure_estimates(window_series: dict, window_index: int) -> dict:
    """Each cluster's most recent window-fused pressure at or before the
    given window; clusters without one are left out."""
    estimates = {}
    for (cluster_id, kind), windows in window_series.items():
        fused = windows["fused"][:window_index + 1]
        known = np.flatnonzero(~np.isnan(fused))
        if kind == SensorKind.PRESSURE and known.size:
            estimates[cluster_id] = float(fused[known[-1]])
    return estimates

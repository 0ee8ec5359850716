"""Per-level processing stages: node filtering, cluster fusion, peer consensus.

Message accounting is explicit: every stage returns the messages it sent so
the runner can charge radio energy and verify conservation. Between
report-on-change reports, a node's value is reconstructed downstream by
zero-order hold: a report means "valid until superseded".
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from ..core import SensorKind, Trace, trace_from_pairs
from .. import consensus as consensus_mod
from .. import ekf, fusvaf
from .config import ScenarioConfig

# deadband for 0/1 channels under report-on-change; any transition crosses it
BINARY_DELTA = 0.5


class MessageKind(str, Enum):
    RAW = "raw"
    AGGREGATED = "aggregated"
    FUSED = "fused"
    ALERT = "alert"
    CONSENSUS = "consensus"


@dataclass(frozen=True)
class Message:
    src: str
    dst: str
    tick: int
    payload_bits: int
    kind: MessageKind

    def __post_init__(self):
        if self.payload_bits < 1:
            raise ValueError(f"payload_bits must be >= 1, got {self.payload_bits}")


@dataclass
class NodeStageResult:
    node_id: str
    kind: SensorKind
    reports: list  # [(tick, value)] actually transmitted
    messages: list
    ops: int


def node_stage(trace: Trace, config: ScenarioConfig, dst: str) -> NodeStageResult:
    """On-node pre-processing of one raw stream.

    With node_ekf on, analog streams are smoothed by a scalar random-walk
    filter and reported only when the estimate moves more than report_delta
    since the last transmission (binary streams skip the filter and report
    transitions). With node_ekf off every raw sample is forwarded.
    """
    fusion = config.fusion
    ops = 0
    if fusion.node_ekf and not trace.sensor_kind.is_binary:
        estimates = ekf.random_walk_estimates(
            trace, fusion.ekf_q, fusion.ekf_r, trace.readings[0].value, 1.0
        )
        series = [(m.timestamp, x) for m, x in zip(trace.readings, estimates)]
        ops += config.energy.ekf_ops_per_update * len(estimates)
    else:
        series = [(m.timestamp, m.value) for m in trace.readings]

    if fusion.node_ekf:
        delta = BINARY_DELTA if trace.sensor_kind.is_binary else fusion.report_delta
        reports = []
        last_sent = None
        for tick, value in series:
            if last_sent is None or abs(value - last_sent) > delta:
                reports.append((tick, value))
                last_sent = value
    else:
        reports = series

    messages = [
        Message(trace.node_id, dst, tick, config.energy.sample_bits, MessageKind.RAW)
        for tick, _ in reports
    ]
    return NodeStageResult(trace.node_id, trace.sensor_kind, reports, messages, ops)


def hold_series(reports, horizon: int) -> list:
    """Zero-order-hold reconstruction: [(tick, value)] dense from the first
    report to horizon-1."""
    if not reports:
        return []
    out = []
    it = iter(reports)
    next_report = next(it)
    value = None
    for tick in range(reports[0][0], horizon):
        while next_report is not None and next_report[0] == tick:
            value = next_report[1]
            next_report = next(it, None)
        out.append((tick, value))
    return out


@dataclass(frozen=True)
class WindowSummary:
    """One reporting window of one (cluster, kind) stream."""

    cluster_id: str
    kind: SensorKind
    index: int
    start_tick: int
    end_tick: int
    fused: Optional[float]  # window mean of per-tick fused values
    count: int  # reports received in the window
    avg: Optional[float]
    max: Optional[float]
    min: Optional[float]


@dataclass
class ClusterStageResult:
    cluster_id: str
    kind: SensorKind
    windows: list
    fusion_points: list  # per-tick FusionPoint (empty when FUSVAF is off)
    member_order: list
    suspected_faulty: list  # [(node_id, window_index)] first flagged
    messages: list
    ops: int


def _window_aggregates(values):
    if not values:
        return 0, None, None, None
    return len(values), sum(values) / len(values), max(values), min(values)


def cluster_stage(
    cluster_id: str,
    kind: SensorKind,
    member_reports: dict,
    config: ScenarioConfig,
    gateway_id: str,
) -> ClusterStageResult:
    """Fuse and aggregate the co-located same-kind streams of one cluster.

    Emits one fused message per reporting window (analog kinds under
    FUSVAF) plus one aggregate message per window that received reports;
    with FUSVAF off, received reports are relayed upstream unchanged.
    Members whose confidence stays at zero for fault_persistence
    consecutive windows are flagged suspected-faulty.
    """
    horizon = config.horizon
    window = config.detection.window
    n_windows = horizon // window
    member_order = sorted(member_reports)
    fusion_cfg = config.fusion
    messages = []
    ops = 0

    fusion_points: list = []
    fused_by_tick: dict = {}
    sigma_by_tick: dict = {}  # tick -> {node_id: sigma}
    use_fusvaf = fusion_cfg.cluster_fusvaf and not kind.is_binary
    if use_fusvaf:
        held_traces = []
        for node_id in member_order:
            held = hold_series(member_reports[node_id], horizon)
            if held:
                held_traces.append(trace_from_pairs(held, node_id, kind))
        if held_traces:
            adaptation = fusvaf.GateAdaptation(
                k_sigma=fusion_cfg.gate_k_sigma,
                w_min=config.gate_floor(kind),
                w_max=fusion_cfg.gate_w_max,
                window=fusion_cfg.gate_window,
            )
            params = fusvaf.FusionParams(fusion_cfg.fusvaf_alpha, fusion_cfg.fusvaf_omega)
            try:
                fusion_points = fusvaf.fusvaf_stream(
                    held_traces,
                    params,
                    predictor=fusvaf.EkfPredictor(fusion_cfg.ekf_q, fusion_cfg.ekf_r),
                    adaptation=adaptation,
                    adaptive_alpha=fusion_cfg.fusvaf_adaptive_alpha,
                )
            except fusvaf.DegenerateDenominatorError as exc:
                raise fusvaf.DegenerateDenominatorError(
                    f"cluster {cluster_id} [{kind.value}]: {exc}"
                ) from None
            ops += config.energy.fusvaf_ops_per_value * sum(
                len(p.readings) for p in fusion_points
            )
            for p in fusion_points:
                fused_by_tick[p.tick] = p.fused
                sigma_by_tick[p.tick] = {r.node_id: r.sigma for r in p.readings}

    member_ticks = []
    for node_id in member_order:
        ticks = [t for t, _ in member_reports[node_id]]
        if any(a > b for a, b in zip(ticks, ticks[1:])):
            raise ValueError(f"cluster {cluster_id}: reports of {node_id} are not in tick order")
        member_ticks.append((ticks, [v for _, v in member_reports[node_id]]))
    windows = []
    zero_streak = {node_id: 0 for node_id in member_order}
    suspected = []
    flagged = set()
    for w in range(n_windows):
        start, end = w * window, (w + 1) * window - 1
        # member order, then tick order: the window average is order-sensitive
        in_window = [
            v
            for ticks, values in member_ticks
            for v in values[bisect_left(ticks, start):bisect_right(ticks, end)]
        ]
        count, avg, mx, mn = _window_aggregates(in_window)
        if fusion_cfg.cluster_fusvaf:
            # in relay mode the mains-powered gateway summarizes; no charge
            ops += config.energy.aggregation_ops_per_value * count
        fused_mean = None
        if use_fusvaf:
            window_fused = [
                fused_by_tick[t] for t in range(start, end + 1) if t in fused_by_tick
            ]
            if window_fused:
                fused_mean = sum(window_fused) / len(window_fused)
        elif not fusion_cfg.cluster_fusvaf and not kind.is_binary:
            fused_mean = avg  # gateway-side window mean of the relayed raw values
        windows.append(
            WindowSummary(cluster_id, kind, w, start, end, fused_mean, count, avg, mx, mn)
        )

        if use_fusvaf:
            for node_id in member_order:
                sigmas = [
                    sigma_by_tick[t][node_id]
                    for t in range(start, end + 1)
                    if t in sigma_by_tick and node_id in sigma_by_tick[t]
                ]
                if not sigmas:
                    continue  # member silent this window; streak unchanged
                if all(s == 0.0 for s in sigmas):
                    zero_streak[node_id] += 1
                    if (
                        zero_streak[node_id] >= config.detection.fault_persistence
                        and node_id not in flagged
                    ):
                        suspected.append((node_id, w))
                        flagged.add(node_id)
                else:
                    zero_streak[node_id] = 0

        if fusion_cfg.cluster_fusvaf:
            if fused_mean is not None:
                messages.append(
                    Message(cluster_id, gateway_id, end, config.energy.sample_bits,
                            MessageKind.FUSED)
                )
            if count > 0:
                messages.append(
                    Message(cluster_id, gateway_id, end, 4 * config.energy.sample_bits,
                            MessageKind.AGGREGATED)
                )

    if not fusion_cfg.cluster_fusvaf:
        for node_id in member_order:
            for tick, _ in member_reports[node_id]:
                messages.append(
                    Message(cluster_id, gateway_id, tick, config.energy.sample_bits,
                            MessageKind.RAW)
                )

    return ClusterStageResult(
        cluster_id, kind, windows, fusion_points, member_order, suspected, messages, ops
    )


@dataclass
class ConsensusStageResult:
    agreed: float
    rounds: int
    converged: bool
    mse_history: tuple
    messages: list
    ops: int
    participants: list


def consensus_stage(
    estimates: dict, config: ScenarioConfig, trigger_tick: int
) -> ConsensusStageResult:
    """Agree on a shared quantity across cluster heads.

    Each synchronous round costs one message per peer edge per direction.
    Non-convergence within max_iter is reported as a degraded-confidence
    flag, not an error.
    """
    participants = sorted(estimates)
    if len(participants) < 2:
        raise ValueError("consensus needs at least two cluster heads")
    index = {c: i for i, c in enumerate(participants)}
    edges = [
        (index[a], index[b])
        for a, b in config.topology.peer_edges()
        if a in index and b in index
    ]
    graph = consensus_mod.CommGraph.from_edges(len(participants), edges)
    initial = consensus_mod.ConsensusState([estimates[c] for c in participants])
    run = consensus_mod.run_consensus(
        initial,
        graph,
        tol=config.fusion.consensus_tol,
        max_iter=config.fusion.consensus_max_iter,
    )
    messages = []
    for _ in range(run.iterations):
        for i, j in sorted(graph.edges):
            a, b = participants[i], participants[j]
            messages.append(
                Message(a, b, trigger_tick, config.energy.sample_bits, MessageKind.CONSENSUS)
            )
            messages.append(
                Message(b, a, trigger_tick, config.energy.sample_bits, MessageKind.CONSENSUS)
            )
    ops = config.energy.consensus_ops_per_value * run.iterations * len(participants)
    return ConsensusStageResult(
        agreed=float(np.mean(run.estimates)),
        rounds=run.iterations,
        converged=run.converged,
        mse_history=run.mse_history,
        messages=messages,
        ops=ops,
        participants=participants,
    )

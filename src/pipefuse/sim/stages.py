"""Per-level processing stages: node filtering, cluster fusion, peer consensus.

Message accounting is explicit: every stage returns a message ledger
{(src, dst, MessageKind): (messages, bits)} of what it sent, so the runner
can charge radio energy and verify conservation. Between report-on-change
reports, a node's value is reconstructed downstream by zero-order hold: a
report means "valid until superseded".
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from ..core import SensorKind, left_sum
from .. import consensus as consensus_mod
from .. import ekf, fusvaf
from .config import ScenarioConfig
from .detect import persistent_onsets

# deadband for 0/1 channels under report-on-change; any transition crosses it
BINARY_DELTA = 0.5


class MessageKind(str, Enum):
    RAW = "raw"
    AGGREGATED = "aggregated"
    FUSED = "fused"
    ALERT = "alert"
    CONSENSUS = "consensus"


def add_messages(ledger: dict, entries: dict) -> dict:
    """Add entries {(src, dst, kind): (messages, bits)} to a message ledger
    and return it; an entry without messages adds no key."""
    for key, (messages, bits) in entries.items():
        if messages:
            m, b = ledger.get(key, (0, 0))
            ledger[key] = (m + messages, b + bits)
    return ledger


class NodeStageResult(NamedTuple):
    node_id: str
    kind: SensorKind
    reports: list  # [(tick, value)] actually transmitted
    messages: dict  # ledger
    ops: int


def node_stage(
    values: np.ndarray, node_id: str, kind: SensorKind, config: ScenarioConfig, dst: str
) -> NodeStageResult:
    """On-node pre-processing of one raw stream, a float array indexed by tick.

    With node_ekf on, analog streams are smoothed by a scalar random-walk
    filter and reported only when the estimate moves more than report_delta
    since the last transmission (binary streams skip the filter and report
    transitions). With node_ekf off every raw sample is forwarded.
    """
    fusion = config.fusion
    ops = 0
    series = values.tolist()
    if fusion.node_ekf and not kind.is_binary:
        series = ekf.random_walk_estimates(series, fusion.ekf_q, fusion.ekf_r, series[0], 1.0)
        ops += config.energy.ekf_ops_per_update * len(series)

    if fusion.node_ekf:
        delta = BINARY_DELTA if kind.is_binary else fusion.report_delta
        reports = []
        last_sent = None
        for tick, value in enumerate(series):
            if last_sent is None or abs(value - last_sent) > delta:
                reports.append((tick, value))
                last_sent = value
    else:
        reports = list(enumerate(series))

    n = len(reports)
    sent = {(node_id, dst, MessageKind.RAW): (n, n * config.energy.sample_bits)}
    return NodeStageResult(node_id, kind, reports, add_messages({}, sent), ops)


def hold_series(reports, horizon: int) -> list:
    """Zero-order-hold reconstruction of reports that start at tick 0: the
    value held at every tick from 0 to horizon-1."""
    ticks = np.array([tick for tick, _ in reports] + [horizon])
    # each report holds until the next one or the horizon; a repeated tick holds for none
    held = np.clip(np.minimum(ticks[1:], horizon) - ticks[:-1], 0, None)
    return np.repeat([value for _, value in reports], held).tolist()


class WindowSummary(NamedTuple):
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


class ClusterStageResult(NamedTuple):
    cluster_id: str
    kind: SensorKind
    windows: list
    fusion: Optional[fusvaf.FusionColumns]  # slot i is member_order[i]; None without FUSVAF
    member_order: list
    suspected_faulty: list  # [(node_id, window_index)] first flagged
    messages: dict  # ledger
    ops: int


def _window_aggregates(values):
    if not values:
        return 0, None, None, None
    return len(values), left_sum(values) / len(values), max(values), min(values)


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
    A member is flagged suspected-faulty at the first window where its
    confidence has been zero for fault_persistence consecutive windows.
    Reports must lie in ticks 0..horizon-1, in tick order, and under FUSVAF
    start at tick 0.
    """
    horizon = config.horizon
    window = config.detection.window
    member_order = sorted(member_reports)
    fusion_cfg = config.fusion
    fuse = bool(member_order) and fusion_cfg.cluster_fusvaf and not kind.is_binary
    # member order, then tick order: the window average is order-sensitive
    received = [[] for _ in range(horizon // window)]
    for node_id, reports in sorted(member_reports.items()):
        previous = 0
        for tick, value in reports:
            if not previous <= tick < horizon:
                raise ValueError(f"cluster {cluster_id}: " + (
                    f"reports of {node_id} are not in tick order" if 0 <= tick < horizon
                    else f"report of {node_id} at tick {tick} is outside ticks 0..{horizon - 1}"))
            received[tick // window].append(value)
            previous = tick
        if fuse and not (reports and reports[0][0] == 0):  # node_stage always reports tick 0
            raise ValueError(f"cluster {cluster_id}: reports of {node_id} do not start at tick 0")

    fusion = None
    if fuse:
        # every held series covers ticks 0..horizon-1, so every tick has every slot
        held = [hold_series(member_reports[node_id], horizon) for node_id in member_order]
        groups = list(zip(range(horizon), repeat(list(range(len(held)))), zip(*held)))
        adaptation = fusvaf.GateAdaptation(
            k_sigma=fusion_cfg.gate_k_sigma,
            w_min=config.gate_floor(kind),
            w_max=fusion_cfg.gate_w_max,
            window=fusion_cfg.gate_window,
        )
        params = fusvaf.FusionParams(fusion_cfg.fusvaf_alpha, fusion_cfg.fusvaf_omega)
        try:
            fusion = fusvaf._fusvaf_kernel(
                groups, len(held), params, fusvaf.EkfPredictor(fusion_cfg.ekf_q, fusion_cfg.ekf_r),
                adaptation, fusion_cfg.fusvaf_adaptive_alpha,
            )
        except (fusvaf.DegenerateDenominatorError, ekf.NumericFailureError) as exc:
            raise type(exc)(f"cluster {cluster_id} [{kind.value}]: {exc}") from None

    windows = []
    for w, values in enumerate(received):
        start, end = w * window, (w + 1) * window - 1
        count, avg, mx, mn = _window_aggregates(values)
        fused_mean = None
        if fusion is not None:
            fused_mean = left_sum(fusion.fused[start:end + 1]) / window
        elif not fusion_cfg.cluster_fusvaf and not kind.is_binary:
            fused_mean = avg  # gateway-side window mean of the relayed raw values
        if fused_mean is not None and not math.isfinite(fused_mean):
            raise ekf.NumericFailureError(
                f"cluster {cluster_id} [{kind.value}]: window {w}: mean {fused_mean} is not finite"
            )
        windows.append(
            WindowSummary(cluster_id, kind, w, start, end, fused_mean, count, avg, mx, mn))

    suspected = []
    if fusion is not None:
        for node_id, column in zip(member_order, fusion.sigma):
            zero = [not any(column[s.start_tick:s.end_tick + 1]) for s in windows]
            onsets = persistent_onsets(zero, config.detection.fault_persistence)
            suspected.extend((node_id, w) for w in onsets[:1])
        suspected.sort(key=lambda flag: (flag[1], flag[0]))  # by window, then member

    bits = config.energy.sample_bits
    received_count = sum(s.count for s in windows)
    if fusion_cfg.cluster_fusvaf:
        # per window: one fused value if any, one 4-value aggregate if any reports
        fused = sum(1 for s in windows if s.fused is not None)
        summaries = sum(1 for s in windows if s.count)
        sent = {MessageKind.FUSED: (fused, fused * bits),
                MessageKind.AGGREGATED: (summaries, summaries * 4 * bits)}
        ops = config.energy.aggregation_ops_per_value * received_count
        if fusion is not None:
            ops += config.energy.fusvaf_ops_per_value * horizon * len(member_order)
    else:
        sent = {MessageKind.RAW: (received_count, received_count * bits)}
        ops = 0  # the mains-powered gateway summarizes the relayed reports
    messages = add_messages({}, {(cluster_id, gateway_id, k): v for k, v in sent.items()})

    return ClusterStageResult(
        cluster_id, kind, windows, fusion, member_order, suspected, messages, ops
    )


class ConsensusStageResult(NamedTuple):
    agreed: float
    rounds: int
    converged: bool
    mse_history: tuple
    messages: dict  # ledger
    ops: int
    participants: list


def consensus_stage(estimates: dict, config: ScenarioConfig) -> ConsensusStageResult:
    """Agree on a shared quantity across cluster heads.

    Each synchronous round costs one message per peer edge per direction.
    Non-convergence within max_iter is reported as a degraded-confidence
    flag, not an error.
    """
    participants = sorted(estimates)
    if len(participants) < 2:
        raise ValueError("consensus needs at least two cluster heads")
    graph = config.topology.peer_graph(participants)
    initial = consensus_mod.ConsensusState([estimates[c] for c in participants])
    run = consensus_mod.run_consensus(
        initial,
        graph,
        tol=config.fusion.consensus_tol,
        max_iter=config.fusion.consensus_max_iter,
    )
    sent = (run.iterations, run.iterations * config.energy.sample_bits)
    messages = add_messages({}, {
        (participants[a], participants[b], MessageKind.CONSENSUS): sent
        for i, j in graph.edges for a, b in ((i, j), (j, i))
    })
    ops = config.energy.consensus_ops_per_value * run.iterations * len(participants)
    return ConsensusStageResult(
        agreed=float(consensus_mod.estimate_mean(run.estimates)),
        rounds=run.iterations,
        converged=run.converged,
        mse_history=run.mse_history,
        messages=messages,
        ops=ops,
        participants=participants,
    )

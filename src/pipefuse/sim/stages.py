"""Per-level processing stages: node filtering, cluster fusion, peer consensus.

Every stage sends at one level of the network and returns the
(messages, bits) it sent there, so the runner can charge radio energy per
level. Between report-on-change reports, a node's value is reconstructed
downstream by zero-order hold: a report means "valid until superseded".
"""

from __future__ import annotations

from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from ..core import SensorKind, left_sums
from .. import consensus as consensus_mod
from .. import ekf, fusvaf
from .config import ScenarioConfig
from .detect import persistent_onsets

# deadband for 0/1 channels under report-on-change; any transition crosses it
BINARY_DELTA = 0.5


REPORT = np.dtype([("tick", np.int64), ("value", np.float64)])  # one transmitted report
# one reporting window of one (cluster, kind) stream: entry w covers ticks
# w*window..(w+1)*window-1; avg, max and min are nan without reports, and
# fused, the window mean the gateway reads, is nan where it has none
WINDOW = np.dtype([("count", np.int64), ("avg", np.float64), ("max", np.float64),
                   ("min", np.float64), ("fused", np.float64)])


class NodeStageResult(NamedTuple):
    reports: np.ndarray  # of REPORT, the (tick, value) actually transmitted
    messages: tuple  # (messages, bits) sent to the cluster head
    ops: int


def node_stage(
    values: np.ndarray, node_id: str, kind: SensorKind, config: ScenarioConfig
) -> NodeStageResult:
    """On-node pre-processing of one raw stream, a float array indexed by tick.

    With node_ekf on, analog streams are smoothed by a scalar random-walk
    filter, one `ekf.random_walk_step` per tick from x = values[0], p = 1,
    and reported only when the estimate moves more than report_delta since
    the last transmission (binary streams skip the filter and report
    transitions). With node_ekf off every raw sample is forwarded. A filter
    failure raises NumericFailureError naming the stream and the tick.
    """
    fusion = config.fusion
    analog = not kind.is_binary
    ops = config.energy.ekf_ops_per_update * len(values) if fusion.node_ekf and analog else 0
    if fusion.node_ekf:
        series = values.tolist()
        delta, q, r = (fusion.report_delta if analog else BINARY_DELTA), fusion.ekf_q, fusion.ekf_r
        x, p = (series[0] if analog else None), 1.0
        kept, last_sent = [], None
        try:
            for tick, y in enumerate(series):
                x, p = ekf.random_walk_step(x, p, y, q, r) if analog else (y, p)
                if last_sent is None or abs(x - last_sent) > delta:
                    kept.append((tick, x))
                    last_sent = x
        except ekf.NumericFailureError as exc:
            raise type(exc)(f"stream {node_id}:{kind.value}: tick {tick}: {exc}") from None
        reports = np.array(kept, REPORT)
    else:
        reports = np.empty(len(values), REPORT)
        reports["tick"], reports["value"] = np.arange(len(values)), values

    sent = (len(reports), len(reports) * config.energy.sample_bits)
    return NodeStageResult(reports, sent, ops)


def hold_series(reports, horizon: int) -> np.ndarray:
    """Zero-order-hold reconstruction of reports (a REPORT array or a list
    of (tick, value) pairs) that start at tick 0: the float array of the
    value held at every tick from 0 to horizon-1."""
    reports = np.asarray(reports, REPORT)
    ticks = np.append(reports["tick"], horizon)
    # each report holds until the next one or the horizon; a repeated tick holds for none
    held = np.clip(np.minimum(ticks[1:], horizon) - ticks[:-1], 0, None)
    return np.repeat(reports["value"], held)


class ClusterStageResult(NamedTuple):
    """One (cluster, kind) stream at its cluster head, one WINDOW entry per window."""

    windows: np.ndarray  # of WINDOW
    fusion: Optional[fusvaf.FusionColumns]  # slot i is member_order[i]; None without FUSVAF
    member_order: list
    suspected_faulty: list  # [(node_id, window_index)] first flagged
    messages: tuple  # (messages, bits) sent to the gateway
    ops: int


def cluster_stage(
    cluster_id: str, kind: SensorKind, member_reports: dict, config: ScenarioConfig
) -> ClusterStageResult:
    """Fuse and aggregate the co-located same-kind streams of one cluster
    into WINDOW entries.

    Emits one fused message per reporting window (analog kinds under
    FUSVAF) plus one aggregate message per window that received reports;
    with FUSVAF off, received reports are relayed upstream unchanged.
    A member is flagged suspected-faulty at the first window where its
    confidence has been zero for fault_persistence consecutive windows.
    Reports must lie in ticks 0..horizon-1, in tick order, and under FUSVAF
    start at tick 0. A window mean that is not finite raises NumericFailureError.
    """
    horizon = config.horizon
    window = config.detection.window
    member_order = sorted(member_reports)
    fusion_cfg = config.fusion
    fuse = bool(member_order) and fusion_cfg.cluster_fusvaf and not kind.is_binary
    n_windows = horizon // window
    arrays = [np.asarray(member_reports[node_id], REPORT) for node_id in member_order]
    for node_id, reports in zip(member_order, arrays):
        ticks = reports["tick"]
        for tick in ticks[(ticks < np.append(0, ticks[:-1])) | (ticks >= horizon)][:1]:
            raise ValueError(f"cluster {cluster_id}: " + (  # the first offending report
                f"reports of {node_id} are not in tick order" if 0 <= tick < horizon
                else f"report of {node_id} at tick {tick} is outside ticks 0..{horizon - 1}"))
        if fuse and not (ticks.size and ticks[0] == 0):  # node_stage always reports tick 0
            raise ValueError(f"cluster {cluster_id}: reports of {node_id} do not start at tick 0")

    # row w holds window w's values in member order, then tick order (the
    # sums are order-sensitive), padded with +0.0
    received = np.concatenate([np.empty(0, REPORT), *arrays])
    window_of = received["tick"] // window
    order = np.argsort(window_of, kind="stable")
    counts = np.bincount(window_of, minlength=n_windows)
    rows = np.zeros((n_windows, counts.max(initial=1)))
    place = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
    rows[window_of[order], place] = received["value"][order]
    filled = np.arange(rows.shape[1]) < counts[:, None]
    at = np.arange(n_windows)  # argmax and argmin take the first of tied values, as max() does
    windows = np.empty(n_windows, WINDOW)
    windows["count"] = counts
    windows["avg"] = left_sums(rows) / np.maximum(counts, 1)
    windows["max"] = rows[at, np.where(filled, rows, -np.inf).argmax(axis=1)]
    windows["min"] = rows[at, np.where(filled, rows, np.inf).argmin(axis=1)]

    fusion = None
    if fuse:
        # every held series covers ticks 0..horizon-1, so every tick has every slot
        held = np.array([hold_series(reports, horizon) for reports in arrays])
        groups = list(zip(range(horizon), repeat(list(range(len(held)))), held.T.tolist()))
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

    # the mean the gateway reads: FUSVAF's window mean or, without FUSVAF,
    # each analog window's mean of the relayed raw values
    relay_mean = not fusion_cfg.cluster_fusvaf and not kind.is_binary
    has_mean = np.full(n_windows, fuse) | relay_mean & (counts > 0)
    windows["fused"] = (left_sums(np.reshape(fusion.fused, (n_windows, window))) / window
                        if fuse else windows["avg"])
    # checked before nan marks "no value": an overflowed inf - inf sum is nan too
    for w in np.flatnonzero(has_mean & ~np.isfinite(windows["fused"]))[:1]:
        raise ekf.NumericFailureError(f"cluster {cluster_id} [{kind.value}]: window {w}: "
                                      f"mean {windows['fused'][w]} is not finite")
    windows["fused"][~has_mean] = np.nan
    windows[["avg", "max", "min"]][counts == 0] = np.nan  # every field of the view

    suspected = []
    if fusion is not None:
        for node_id, column in zip(member_order, fusion.sigma):
            zero = ~np.reshape(column, (n_windows, window)).any(axis=1)
            onsets = persistent_onsets(zero, config.detection.fault_persistence)
            suspected.extend((node_id, w) for w in onsets[:1])
        suspected.sort(key=lambda flag: (flag[1], flag[0]))  # by window, then member

    bits = config.energy.sample_bits
    if fusion_cfg.cluster_fusvaf:
        # per window: one fused value if any, one 4-value aggregate if any reports
        fused = n_windows if fuse else 0
        summaries = int(np.count_nonzero(counts))
        sent = (fused + summaries, (fused + 4 * summaries) * bits)
        ops = config.energy.aggregation_ops_per_value * len(received)
        if fusion is not None:
            ops += config.energy.fusvaf_ops_per_value * horizon * len(member_order)
    else:
        sent = (len(received), len(received) * bits)
        ops = 0  # the mains-powered gateway summarizes the relayed reports

    return ClusterStageResult(windows, fusion, member_order, suspected, sent, ops)


class ConsensusStageResult(NamedTuple):
    agreed: float
    rounds: int
    converged: bool
    mse_history: tuple
    messages: tuple  # (messages, bits) sent between cluster heads
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
    sent = 2 * len(graph.edges) * run.iterations  # both directions of each edge, per round
    ops = config.energy.consensus_ops_per_value * run.iterations * len(participants)
    return ConsensusStageResult(
        agreed=float(consensus_mod.estimate_mean(run.estimates)),
        rounds=run.iterations,
        converged=run.converged,
        mse_history=run.mse_history,
        messages=(sent, sent * config.energy.sample_bits),
        ops=ops,
        participants=participants,
    )

"""Byte-for-byte regression against outputs captured from the reference
implementation: the figure CSVs of scripts/reproduce_figures.py, the
library paths the simulator does not run (a 4-state EKF with numeric
Jacobians, a 48-agent consensus, and FUSVAF over gapped and late-joining
traces with either predictor), and the whole `pipefuse run` output tree of
the bundled scenario (fused, fused with adaptive alpha, relay clusters,
and all-raw, the last also over a 4,800-tick horizon), pinned by one
sha256 manifest per case.

`PYTHONPATH=src python tests/test_golden.py` rewrites tests/golden/library;
do that only when a change to those outputs is intended.
"""

import builtins
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pipefuse import cli, consensus, ekf, fusvaf
from pipefuse.cli import main
from pipefuse.core import SensorKind, trace_from_pairs, write_csv

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCENARIO = ROOT / "scenarios" / "baseline_10node.yaml"
RAW = [
    "--override", "fusion.node_ekf=false",
    "--override", "fusion.cluster_fusvaf=false",
    "--override", "fusion.consensus_policy=off",
]
PIPELINE_OVERRIDES = {
    "fused": [],
    "fused_adaptive": ["--override", "fusion.fusvaf_adaptive_alpha=true"],
    "raw": RAW,
    # 4,801-row stream files span many of write_csv's row blocks
    "raw_long": RAW + ["--override", "horizon=4800"],
    # most single-member FUSVAF ticks are converged holds over this horizon
    "fused_long": ["--override", "horizon=4800"],
    # clusters relay node reports while the node filter and consensus stay on
    "relay": ["--override", "fusion.cluster_fusvaf=false"],
}


def relative_files(root: Path) -> list:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*.csv"))


def assert_same_csv_bytes(produced: Path, golden: Path) -> None:
    assert relative_files(produced) == relative_files(golden)
    for rel in relative_files(golden):
        assert (produced / rel).read_bytes() == (golden / rel).read_bytes(), rel


def test_reproduce_figures_matches_golden(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_figures.py"), "--out", str(tmp_path)],
        check=True, env=env, capture_output=True,
    )
    assert_same_csv_bytes(tmp_path, GOLDEN / "figures")
    # nothing else either: no scratch directory or stray file is left behind
    assert sorted(p.name for p in tmp_path.rglob("*")) == relative_files(GOLDEN / "figures")


def turning_target(x):
    """Constant-speed target whose turn rate falls with its speed."""
    vx, vy = x[2], x[3]
    turn = 0.05 / (1.0 + vx * vx + vy * vy)
    c, s = np.cos(turn), np.sin(turn)
    return np.array([x[0] + vx, x[1] + vy, c * vx - s * vy, s * vx + c * vy])


def beacon_range(x):
    return np.array([np.hypot(x[0] - 25.0, x[1] + 30.0)])


def ring_with_chords(n):
    return [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(0, n // 2, 6)]


def fusion_traces(rng) -> list:
    """Four temperature traces of one slow ramp: s0 dense, s1 with gaps,
    s2 starting late, s3 dense with an offset."""
    ticks = np.arange(160)
    level = 20.0 + 0.05 * ticks
    readings = {
        "s0": ticks,
        "s1": ticks[(ticks % 7 != 3) & ((ticks < 50) | (ticks >= 65))],
        "s2": ticks[37:],
        "s3": ticks,
    }
    offsets = {"s0": 0.0, "s1": 0.0, "s2": 0.0, "s3": 0.15}
    return [
        trace_from_pairs(
            ((int(t), float(level[t] + offsets[node] + rng.normal(0.0, 0.1))) for t in ts),
            node, SensorKind.TEMPERATURE,
        )
        for node, ts in readings.items()
    ]


def stuck_trace(rng):
    """A sensor that follows the ramp to tick 60, then reads 23.0 for good."""
    return trace_from_pairs(
        ((t, 20.0 + 0.05 * t + float(rng.normal(0.0, 0.1)) if t < 60 else 23.0)
         for t in range(160)),
        "stuck", SensorKind.TEMPERATURE,
    )


def write_library_goldens(out: Path) -> None:
    """A 4-state EKF with numeric Jacobians over 240 range readings (every
    posterior x_hat, all of P and the innovation), a 48-agent
    ring-with-chords consensus (MSE history, final estimates, rounds), and
    FUSVAF over gapped and late-joining traces: under SmoothingPredictor
    with adaptive alpha, and under EkfPredictor with constant alpha and a
    stuck sensor whose confidence drops to exactly 0."""
    rng = np.random.default_rng(2015)
    q, r = np.array([1e-3, 1e-3, 1e-4, 1e-4]), 0.04
    x = np.array([-10.0, 5.0, 0.6, 0.8])
    readings = []
    for tick in range(1, 241):
        x = turning_target(x) + rng.normal(0.0, np.sqrt(q))
        readings.append((tick, float(beacon_range(x)[0] + rng.normal(0.0, np.sqrt(r)))))
    model = ekf.ProcessModel(4, turning_target, beacon_range, np.diag(q), np.array([[r]]))
    init = ekf.FilterState([-9.5, 5.5, 0.5, 0.9], np.diag([0.5, 0.5, 0.01, 0.01]))
    points = ekf.run_filter(model, init, trace_from_pairs(readings, "ranger", SensorKind.PRESSURE))
    write_csv(
        out / "ekf_4state.csv",
        ["tick", "measurement"] + [f"x{i}" for i in range(4)]
        + [f"P{i}{j}" for i in range(4) for j in range(4)] + ["innovation"],
        ([p.tick, p.measurement, *p.state.x_hat, *p.state.P.ravel(), *p.innovation]
         for p in points),
    )

    agents = 48
    run = consensus.run_consensus(
        consensus.ConsensusState(rng.normal(100.0, 10.0, agents)),
        consensus.CommGraph.from_edges(agents, ring_with_chords(agents)),
    )
    consensus.write_mse_csv(run.mse_history, out / "consensus_48_mse.csv")
    write_csv(out / "consensus_48_estimates.csv", ["agent", "estimate"], enumerate(run.estimates))
    write_csv(out / "consensus_48_run.csv", ["iterations", "converged"],
              [[run.iterations, run.converged]])

    traces = fusion_traces(rng)
    adaptation = fusvaf.GateAdaptation(w_min=0.2, w_max=5.0, window=8, initial_half_width=2.0)
    columns = fusvaf.fusvaf_columns(
        traces, fusvaf.FusionParams(alpha=1.0, omega=2.0),
        predictor=fusvaf.SmoothingPredictor(beta=0.3), adaptation=adaptation,
        adaptive_alpha=True,
    )
    fusvaf.write_fusion_columns(columns, out / "fusvaf_smoothing_adaptive.csv")
    traces.append(stuck_trace(rng))
    columns = fusvaf.fusvaf_columns(
        traces, fusvaf.FusionParams(alpha=0.5, omega=1.0),
        predictor=fusvaf.EkfPredictor(q=0.01, r=0.1), adaptation=adaptation,
        adaptive_alpha=False,
    )
    assert 0.0 in columns.sigma[-1], "the stuck sensor is never gated out"
    fusvaf.write_fusion_columns(columns, out / "fusvaf_ekf_stuck.csv")


def test_library_paths_match_golden(tmp_path):
    write_library_goldens(tmp_path)
    assert_same_csv_bytes(tmp_path, GOLDEN / "library")


def read_manifest(path: Path) -> dict:
    """`<sha256>  <relative path>` lines, as written by `sha256sum`."""
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        digest, _, rel = line.partition("  ")
        entries[rel] = digest
    return entries


@pytest.mark.parametrize("seed,pipeline", [
    (0, "fused"), (0, "raw"), (42, "fused"), (42, "raw"), (42, "fused_adaptive"),
    (42, "raw_long"), (42, "fused_long"), (42, "relay"),
])
def test_run_outputs_match_golden(tmp_path, pipeline, seed):
    args = ["--quiet", "run", "--config", str(SCENARIO), "--seed", str(seed),
            "--out", str(tmp_path)] + PIPELINE_OVERRIDES[pipeline]
    assert main(args) == 0
    expected = read_manifest(GOLDEN / "sim" / f"{pipeline}_seed{seed}" / "tree.sha256")
    produced = sorted(p.relative_to(tmp_path).as_posix()
                      for p in tmp_path.rglob("*") if p.is_file())
    assert produced == sorted(expected), "output tree has missing or extra files"
    for rel in produced:
        digest = hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest()
        assert digest == expected[rel], f"{rel} differs from the golden tree"


@pytest.mark.parametrize("seed,pipeline", [(42, "fused"), (42, "raw")])
def test_run_outputs_match_golden_from_one_process(tmp_path, monkeypatch, pipeline, seed):
    # without fork every stream and fused file is written in order by this process
    monkeypatch.delattr(os, "fork")
    test_run_outputs_match_golden(tmp_path, pipeline, seed)


def test_run_outputs_match_golden_when_fork_fails(tmp_path, monkeypatch):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    test_run_outputs_match_golden(tmp_path, "fused", 42)


REAL_SUM = builtins.sum


def fsum_for_floats(iterable, /, start=0):
    """sum() with math.fsum for an all-float iterable: a stand-in for Python
    3.12's compensated sum() of floats. Anything else goes to the real sum."""
    items = list(iterable)
    if start == 0 and items and all(isinstance(x, float) for x in items):
        return math.fsum(items)
    return REAL_SUM(items, start)


@pytest.mark.parametrize("seed,pipeline", [
    (0, "fused"), (0, "raw"), (42, "fused"), (42, "raw"), (42, "fused_adaptive"),
])
def test_run_outputs_do_not_depend_on_the_sum_rule(tmp_path, monkeypatch, pipeline, seed):
    # every float sum that reaches an output adds left to right, whatever sum() does
    monkeypatch.setattr(builtins, "sum", fsum_for_floats)
    test_run_outputs_match_golden(tmp_path, pipeline, seed)


def test_library_paths_do_not_depend_on_the_sum_rule(tmp_path, monkeypatch):
    monkeypatch.setattr(builtins, "sum", fsum_for_floats)
    test_library_paths_match_golden(tmp_path)


if __name__ == "__main__":
    (GOLDEN / "library").mkdir(exist_ok=True)
    write_library_goldens(GOLDEN / "library")

"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figures once its assertions hold. Run with `pytest -s` to see
the lines inline."""

import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from pipefuse.cli import main as cli_main
from pipefuse.consensus import CommGraph, ConsensusState, run_consensus
from pipefuse.core import SensorKind, trace_from_pairs
from pipefuse.ekf import FilterState, ProcessModel, predict, random_walk_model, run_filter, update
from pipefuse.fusvaf import (
    DegenerateDenominatorError,
    FusionParams,
    GateAdaptation,
    ValidationGate,
    confidence,
    fuse,
    fusvaf_stream,
)
from pipefuse.sim import apply_overrides, run_simulation, scenario_from_dict

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "scenarios" / "baseline_10node.yaml"

RAW_OVERRIDES = [
    "fusion.node_ekf=false",
    "fusion.cluster_fusvaf=false",
    "fusion.consensus_policy=off",
]


def temp_trace(values, node_id="n0"):
    return trace_from_pairs(list(enumerate(values)), node_id, SensorKind.TEMPERATURE)


def test_criterion_1_ekf_linear_equivalence():
    """100 randomized linear models, dim <= 4, 50 steps, 1e-10 elementwise."""
    started = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, n + 1))
        A = rng.normal(size=(n, n))
        A *= 0.95 / max(np.abs(np.linalg.eigvals(A)))
        H = rng.normal(size=(m, n))
        q_root = rng.normal(size=(n, n)) * 0.3
        Q = q_root @ q_root.T + 1e-3 * np.eye(n)
        r_root = rng.normal(size=(m, m)) * 0.3
        R = r_root @ r_root.T + 1e-2 * np.eye(m)
        model = ProcessModel(n, lambda x: A @ x, lambda x: H @ x, Q, R,
                             F_jac=lambda x: A, H_jac=lambda x: H)
        x = x_oracle = rng.normal(size=n)
        P = P_oracle = np.eye(n)
        state = FilterState(x, P)
        for _ in range(50):
            y = rng.normal(size=m)
            state = update(predict(state, model), y, model)
            # independent, plainly coded standard Kalman filter
            x_oracle = A @ x_oracle
            P_oracle = A @ P_oracle @ A.T + Q
            S = H @ P_oracle @ H.T + R
            K = P_oracle @ H.T @ np.linalg.inv(S)
            x_oracle = x_oracle + K @ (y - H @ x_oracle)
            P_oracle = (np.eye(n) - K @ H) @ P_oracle
            worst = max(
                worst,
                float(np.max(np.abs(state.x_hat - x_oracle))),
                float(np.max(np.abs(state.P - P_oracle))),
            )
            assert np.max(np.abs(state.x_hat - x_oracle)) < 1e-10
            assert np.max(np.abs(state.P - P_oracle)) < 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 ekf-linear-equivalence: PASS "
          f"(max |Delta| {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_scalar_filter_qualitative():
    """20-sample noisy stream, q = r = 0.1: smoothing + innovation decay in
    >= 90% of 100 seeds."""
    model = random_walk_model(0.1, 0.1)
    var_ok = innov_ok = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        values = 20.0 + rng.normal(0.0, np.sqrt(0.1), size=20)
        trace = temp_trace(values)
        points = run_filter(model, FilterState([0.0], [[10.0]]), trace)
        estimates = np.array([p.estimate for p in points])
        innovations = np.array([abs(p.innovation[0]) for p in points])
        if np.var(estimates) <= np.var(values):
            var_ok += 1
        if innovations[10:].mean() < innovations[:10].mean():
            innov_ok += 1
    assert var_ok >= 90
    assert innov_ok >= 90
    print(f"\nACCEPTANCE 2 scalar-filter-qualitative: PASS "
          f"(variance {var_ok}/100, innovation decay {innov_ok}/100)")


def test_criterion_3_gate_property_suite():
    """>= 10^4 randomized gates/measurement sets across all gate properties."""
    rng = np.random.default_rng(123)
    trials = 10_000
    for _ in range(trials):
        x_hat = float(rng.uniform(-50, 50))
        w_l = float(rng.uniform(0.1, 20))
        w_r = float(rng.uniform(0.1, 20))
        gate = ValidationGate(
            x_hat, x_hat - w_l, x_hat + w_r,
            float(rng.uniform(0.05, 10)), float(rng.uniform(0.05, 10)),
        )
        # range and unit confidence at the prediction
        assert confidence(gate, x_hat) == 1.0
        zs = x_hat + rng.uniform(-2.5, 2.5, size=rng.integers(1, 7)) * max(w_l, w_r)
        sigmas = [confidence(gate, z) for z in zs]
        assert all(0.0 <= s <= 1.0 for s in sigmas)
        # boundary zeros
        assert confidence(gate, gate.v_l) == 0.0
        assert confidence(gate, gate.v_r) == 0.0
        # side monotonicity
        r1, r2 = sorted(rng.uniform(0, w_r, size=2))
        assert confidence(gate, x_hat + r1) >= confidence(gate, x_hat + r2) - 1e-12
        l1, l2 = sorted(rng.uniform(0, w_l, size=2))
        assert confidence(gate, x_hat - l1) >= confidence(gate, x_hat - l2) - 1e-12
        # continuity at the prediction and the boundaries
        eps = 1e-10 * (w_l + w_r)
        assert confidence(gate, x_hat - eps) == pytest.approx(1.0, abs=1e-6)
        assert confidence(gate, x_hat + eps) == pytest.approx(1.0, abs=1e-6)
        assert confidence(gate, gate.v_l + eps) == pytest.approx(0.0, abs=1e-6)
        assert confidence(gate, gate.v_r - eps) == pytest.approx(0.0, abs=1e-6)
        # weighted fusion: convex-combination bound and exact permutation invariance
        alpha = float(rng.uniform(0, 5))
        params = FusionParams(alpha, float(rng.uniform(0.5, 2)))
        valid = [z for z, s in zip(zs, sigmas) if s > 0]
        try:
            fused = fuse(gate, params, zs)
        except DegenerateDenominatorError:
            assert alpha == 0.0 and not valid
            continue
        bounds = valid + [x_hat]
        assert min(bounds) - 1e-9 <= fused <= max(bounds) + 1e-9
        shuffled = list(zs)
        rng.shuffle(shuffled)
        assert fuse(gate, params, shuffled) == fused
    # degenerate denominator raises the documented error
    gate = ValidationGate(0.0, -1.0, 1.0, 0.5, 0.5)
    with pytest.raises(DegenerateDenominatorError):
        fuse(gate, FusionParams(alpha=0.0), [10.0, -10.0])
    print(f"\nACCEPTANCE 3 gate-property-suite: PASS ({trials} randomized trials)")


def test_criterion_4_fault_rejection():
    """Single-node spike >= 5 gate-widths: sigma = 0 and < 1% fused shift,
    100 seeded trials."""
    worst_rel = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        base = 20.0 + 0.3 * np.sin(np.arange(60) / 8.0)
        a = base + rng.normal(0, 0.05, size=60)
        b = base + rng.normal(0, 0.05, size=60)
        adaptation = GateAdaptation(w_min=0.3, initial_half_width=2.0)
        clean = fusvaf_stream(
            [temp_trace(a, "a"), temp_trace(b, "b")],
            FusionParams(1.0, 1.0), adaptation=adaptation,
        )
        spike_tick = 40
        b_spiked = b.copy()
        b_spiked[spike_tick] += 6.0 * clean[spike_tick].gate.width
        spiked = fusvaf_stream(
            [temp_trace(a, "a"), temp_trace(b_spiked, "b")],
            FusionParams(1.0, 1.0), adaptation=adaptation,
        )
        assert [r.sigma for r in spiked[spike_tick].readings if r.node_id == "b"] == [0.0]
        rel = max(
            abs(s.fused - c.fused) / abs(c.fused) for s, c in zip(spiked, clean)
        )
        worst_rel = max(worst_rel, rel)
        assert rel < 0.01
    print(f"\nACCEPTANCE 4 fault-rejection: PASS "
          f"(worst fused shift {100 * worst_rel:.3f}% over 100 trials)")


def random_connected_graph(rng, max_n=20):
    n = int(rng.integers(2, max_n + 1))
    edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
    for _ in range(int(rng.integers(0, 2 * n))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            edges.add((min(int(i), int(j)), max(int(i), int(j))))
    return CommGraph.from_edges(n, edges)


def test_criterion_5_consensus_correctness():
    """50 random connected graphs: converge to the initial mean with a
    non-increasing dispersion; triangle case is exact."""
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(50):
        graph = random_connected_graph(rng)
        values = rng.normal(0.0, 10.0, size=graph.n)
        run = run_consensus(ConsensusState(values), graph, tol=1e-14, max_iter=200_000)
        assert run.converged
        assert np.all(np.abs(run.estimates - values.mean()) < 1e-6)
        history = run.mse_history
        assert all(b <= a + 1e-18 for a, b in zip(history, history[1:]))
    k3 = run_consensus(ConsensusState([1.0, 2.0, 3.0]), CommGraph.complete(3),
                       tol=1e-12, max_iter=100)
    assert k3.iterations == 1
    assert np.allclose(k3.estimates, 2.0, atol=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 5 consensus-correctness: PASS "
          f"(50 graphs, K3 in 1 iteration, {elapsed:.2f}s)")


def load_bundled(name, overrides=()):
    data = yaml.safe_load(SCENARIO.read_text(encoding="utf-8"))
    if overrides:
        data = apply_overrides(data, overrides)
    return scenario_from_dict(data, name)


def test_criterion_6_data_reduction():
    """Paired run on the bundled 10-node/2-cluster scenario: >= 50% fewer
    bits at <= 1.5x the baseline estimation error; radio energy scales
    exactly 3x across the ops-per-bit band."""
    fused = run_simulation(load_bundled("fused")).metrics
    raw = run_simulation(load_bundled("raw", RAW_OVERRIDES)).metrics
    assert fused.seed == raw.seed
    reduction = 1.0 - fused.total_bits / raw.total_bits
    assert reduction >= 0.5
    assert fused.rmse_mean <= 1.5 * raw.rmse_mean

    hi = run_simulation(load_bundled("hi", ["energy.ops_per_bit=3000"])).metrics
    assert hi.total_bits == fused.total_bits
    assert hi.radio_energy == 3.0 * fused.radio_energy
    print(f"\nACCEPTANCE 6 data-reduction: PASS "
          f"(bits -{100 * reduction:.1f}%, rmse ratio "
          f"{fused.rmse_mean / raw.rmse_mean:.3f}, radio energy x3 exact)")


def test_criterion_7_detection_soundness_and_latency():
    """Clean world stays silent; a 2x-threshold leak is caught within
    (H+1) windows; a patrolled intrusion is validated."""
    clean = load_bundled("clean", [
        "events=[]",
        "signals.pressure.noise_std=0", "signals.pressure.drift=0",
        "signals.temperature.noise_std=0", "signals.temperature.drift=0",
        "signals.humidity.noise_std=0", "signals.humidity.drift=0",
    ])
    clean_result = run_simulation(clean)
    assert clean_result.detections == []
    assert clean_result.metrics.rmse_mean == 0.0

    result = run_simulation(load_bundled("events"))
    config = result.config
    h = config.detection.leak_persistence
    window = config.detection.window
    outcomes = {o.kind: o for o in result.event_outcomes}
    leak = outcomes["leak"]
    assert config.events[0].magnitude == 2 * config.detection.leak_threshold
    assert leak.latency is not None
    assert leak.latency <= (h + 1) * window
    intrusion = outcomes["intrusion"]
    assert intrusion.latency is not None
    assert intrusion.validated
    assert result.metrics.false_positives == 0
    print(f"\nACCEPTANCE 7 detection: PASS (clean world silent; leak latency "
          f"{leak.latency} <= {(h + 1) * window} ticks; intrusion validated)")


def test_criterion_8_run_determinism(tmp_path):
    """Two `run` executions with identical config+seed: byte-identical
    metrics.csv."""
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = cli_main(["--quiet", "run", "--config", str(SCENARIO), "--out", str(out)])
        assert code == 0
    bytes_a = (out_a / "metrics.csv").read_bytes()
    bytes_b = (out_b / "metrics.csv").read_bytes()
    assert bytes_a == bytes_b
    print(f"\nACCEPTANCE 8 determinism: PASS "
          f"(metrics.csv identical, {len(bytes_a)} bytes)")

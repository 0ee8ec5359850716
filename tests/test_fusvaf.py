import math
import re
from collections import deque
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pipefuse import ekf, fusvaf
from pipefuse.core import SensorKind, left_sum, merge_traces, trace_from_pairs
from pipefuse.fusvaf import (
    DegenerateDenominatorError,
    EkfPredictor,
    FusionParams,
    FusionPoint,
    GateAdaptation,
    SensorReading,
    SmoothingPredictor,
    ValidationGate,
    adapt_gate,
    confidence,
    fuse,
    fusvaf_columns,
    fusvaf_stream,
    write_fusion_columns,
)


@st.composite
def gates(draw):
    x_hat = draw(st.floats(-50, 50))
    w_l = draw(st.floats(0.1, 20))
    w_r = draw(st.floats(0.1, 20))
    a_l = draw(st.floats(0.05, 10))
    a_r = draw(st.floats(0.05, 10))
    return ValidationGate(x_hat, x_hat - w_l, x_hat + w_r, a_l, a_r)


class TestGateValidation:
    def test_prediction_outside_boundaries_rejected(self):
        with pytest.raises(ValueError):
            ValidationGate(x_hat=5.0, v_l=1.0, v_r=4.0, a_l=1.0, a_r=1.0)

    def test_nonpositive_shape_rejected(self):
        with pytest.raises(ValueError):
            ValidationGate(0.0, -1.0, 1.0, 0.0, 1.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            FusionParams(alpha=-0.1)
        with pytest.raises(ValueError):
            FusionParams(omega=0.0)


class TestConfidence:
    def test_unity_at_prediction(self):
        gate = ValidationGate(0.0, -2.0, 2.0, 1.0, 1.0)
        assert confidence(gate, 0.0) == 1.0

    def test_zero_below_left_boundary(self):
        gate = ValidationGate(0.0, -2.0, 2.0, 1.0, 1.0)
        assert confidence(gate, -3.0) == 0.0

    def test_zero_exactly_at_boundaries(self):
        gate = ValidationGate(0.0, -2.0, 2.0, 1.0, 1.0)
        assert confidence(gate, -2.0) == 0.0
        assert confidence(gate, 2.0) == 0.0

    @given(gate=gates(), z=st.floats(-200, 200))
    def test_range(self, gate, z):
        sigma = confidence(gate, z)
        assert 0.0 <= sigma <= 1.0

    @given(gate=gates(), data=st.data())
    def test_monotone_on_each_side(self, gate, data):
        # right side: x_hat <= z1 <= z2 <= v_r implies sigma(z1) >= sigma(z2)
        z1 = data.draw(st.floats(gate.x_hat, gate.v_r))
        z2 = data.draw(st.floats(z1, gate.v_r))
        assert confidence(gate, z1) >= confidence(gate, z2) - 1e-12
        # left side mirror
        z3 = data.draw(st.floats(gate.v_l, gate.x_hat))
        z4 = data.draw(st.floats(z3, gate.x_hat))
        assert confidence(gate, z4) >= confidence(gate, z3) - 1e-12

    @given(gate=gates())
    def test_continuity_at_prediction_and_boundaries(self, gate):
        span = gate.width
        eps = 1e-9 * span
        assert confidence(gate, gate.x_hat - eps) == pytest.approx(1.0, abs=1e-6)
        assert confidence(gate, gate.x_hat + eps) == pytest.approx(1.0, abs=1e-6)
        assert confidence(gate, gate.v_l + eps) == pytest.approx(0.0, abs=1e-6)
        assert confidence(gate, gate.v_r - eps) == pytest.approx(0.0, abs=1e-6)
        assert confidence(gate, gate.v_r + eps) == 0.0


def sorted_pairs_fusion(pairs, x_hat, alpha, omega):
    """fuse()'s weighted mean, summed over the sorted (value, confidence)
    pairs: the oracle of every fused value, whatever order fusvaf sums in."""
    num = 0.0
    den = 0.0
    for z, sigma in sorted(pairs):
        num += z * sigma
        den += sigma
    if den == 0.0:
        if alpha == 0.0:
            raise DegenerateDenominatorError(
                "all measurements invalidated and alpha = 0: no information to fuse"
            )
        return x_hat
    return (num + alpha * x_hat / omega) / (den + alpha / omega)


class TestFuse:
    def test_prediction_is_fixed_point(self):
        gate = ValidationGate(0.0, -10.0, 10.0, 4.0, 4.0)
        assert fuse(gate, FusionParams(1.0, 1.0), [0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_all_rejected_returns_prediction(self):
        gate = ValidationGate(0.0, -10.0, 10.0, 4.0, 4.0)
        assert fuse(gate, FusionParams(1.0, 1.0), [50.0, -70.0]) == 0.0

    def test_empty_measurements_return_prediction(self):
        gate = ValidationGate(3.0, -10.0, 10.0, 4.0, 4.0)
        assert fuse(gate, FusionParams(1.0, 1.0), []) == 3.0

    def test_symmetric_pair_with_zero_alpha(self):
        gate = ValidationGate(0.0, -10.0, 10.0, 4.0, 4.0)
        assert fuse(gate, FusionParams(alpha=0.0), [-1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_denominator(self):
        gate = ValidationGate(0.0, -1.0, 1.0, 0.5, 0.5)
        with pytest.raises(DegenerateDenominatorError):
            fuse(gate, FusionParams(alpha=0.0), [5.0, -5.0])

    @given(gate=gates(), zs=st.lists(st.floats(-60, 60), min_size=1, max_size=8),
           alpha=st.floats(0, 10), omega=st.floats(0.1, 10))
    def test_convex_combination_bound(self, gate, zs, alpha, omega):
        valid = [z for z in zs if confidence(gate, z) > 0]
        try:
            fused = fuse(gate, FusionParams(alpha, omega), zs)
        except DegenerateDenominatorError:
            assert alpha == 0 and not valid
            return
        bounds = valid + [gate.x_hat]
        assert min(bounds) - 1e-9 <= fused <= max(bounds) + 1e-9

    @given(gate=gates(), zs=st.lists(st.floats(-60, 60), min_size=2, max_size=8),
           alpha=st.floats(0.1, 10))
    def test_permutation_invariance_exact(self, gate, zs, alpha):
        params = FusionParams(alpha, 1.0)
        forward = fuse(gate, params, zs)
        assert fuse(gate, params, list(reversed(zs))) == forward
        rng = np.random.default_rng(0)
        shuffled = list(zs)
        rng.shuffle(shuffled)
        assert fuse(gate, params, shuffled) == forward

    @given(gate=gates(), data=st.data(), alpha=st.floats(0, 10), omega=st.floats(0.1, 10))
    def test_tied_readings_sum_as_sorted_pairs(self, gate, data, alpha, omega):
        """Any order of tied readings (0.0 and -0.0, nan included) fuses to
        the sum over sorted (value, confidence) pairs, to the bit."""
        pool = data.draw(st.lists(st.floats(-60, 60), min_size=2, max_size=4)) + [0.0, -0.0]
        zs = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=8))
        zs = data.draw(st.permutations(zs + [math.nan] * data.draw(st.integers(0, 1))))
        pairs = [(z, confidence(gate, z)) for z in zs]
        params = FusionParams(alpha, omega)
        fused = lambda: fuse(gate, params, zs)
        try:
            expected = sorted_pairs_fusion(pairs, gate.x_hat, alpha, omega)
        except DegenerateDenominatorError:
            raise_alike(fused, lambda: sorted_pairs_fusion(pairs, gate.x_hat, alpha, omega))
            return
        assert repr(fused()) == repr(expected)

    @given(gate=gates(), zs=st.lists(st.floats(-60, 60), min_size=1, max_size=6))
    def test_alpha_pulls_toward_prediction(self, gate, zs):
        dist = None
        for alpha in (0.0, 1.0, 10.0, 100.0, 1e4):
            fused = fuse(gate, FusionParams(alpha, 1.0), zs) if alpha else None
            if fused is None:
                try:
                    fused = fuse(gate, FusionParams(0.0, 1.0), zs)
                except DegenerateDenominatorError:
                    continue
            d = abs(fused - gate.x_hat)
            if dist is not None:
                assert d <= dist + 1e-9
            dist = d


class TestAdaptGate:
    def test_zero_residuals_clamp_to_floor(self):
        gate = ValidationGate.symmetric(0.0, 5.0)
        adapted = adapt_gate(gate, [0.0] * 10, 1.0, GateAdaptation(w_min=0.1))
        assert adapted.x_hat == 1.0
        assert adapted.v_r - adapted.x_hat == pytest.approx(0.1)

    def test_constant_residuals_give_k_sigma_width(self):
        adaptation = GateAdaptation(k_sigma=3.0, w_min=0.1, w_max=100.0)
        gate = ValidationGate.symmetric(0.0, 5.0)
        adapted = adapt_gate(gate, [2.0] * 7, 0.0, adaptation)
        assert adapted.v_r == pytest.approx(6.0)
        assert adapted.v_l == pytest.approx(-6.0)
        assert adapted.a_l == pytest.approx(3.0)

    def test_median_homogeneity(self):
        adaptation = GateAdaptation(k_sigma=3.0, w_min=0.01, w_max=1000.0)
        gate = ValidationGate.symmetric(0.0, 5.0)
        residuals = [0.5, 1.0, 2.0, 3.0, 4.0]
        w1 = adapt_gate(gate, residuals, 0.0, adaptation).v_r
        w2 = adapt_gate(gate, [2 * r for r in residuals], 0.0, adaptation).v_r
        assert w2 == pytest.approx(2 * w1)

    @given(data=st.data())
    def test_wider_dispersion_never_narrows(self, data):
        adaptation = GateAdaptation()
        gate = ValidationGate.symmetric(0.0, 5.0)
        base = data.draw(st.lists(st.floats(0, 50), min_size=1, max_size=20))
        bumps = data.draw(
            st.lists(st.floats(0, 10), min_size=len(base), max_size=len(base))
        )
        inflated = [r + b for r, b in zip(base, bumps)]
        w_base = adapt_gate(gate, base, 0.0, adaptation).width
        w_more = adapt_gate(gate, inflated, 0.0, adaptation).width
        assert w_more >= w_base - 1e-12

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            adapt_gate(ValidationGate.symmetric(0.0, 1.0), [], 0.0)


def temp_trace(node_id, values, start=0):
    return trace_from_pairs(
        [(start + i, v) for i, v in enumerate(values)], node_id, SensorKind.TEMPERATURE
    )


class TestPredictors:
    def test_smoothing_predictor(self):
        p = SmoothingPredictor(beta=0.5)
        assert p.predict() is None
        p.observe(10.0)
        assert p.predict() == 10.0
        p.observe(20.0)
        assert p.predict() == 15.0

    def test_ekf_predictor_tracks_constant(self):
        p = EkfPredictor(q=0.1, r=0.1)
        for _ in range(20):
            p.observe(7.0)
        assert p.predict() == pytest.approx(7.0, abs=1e-6)

    @given(
        q=st.floats(1e-6, 10),
        r=st.floats(1e-6, 10),
        p0=st.floats(1e-6, 10),
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_ekf_predictor_equals_matrix_filter(self, q, r, p0, values):
        model = ekf.random_walk_model(q, r)
        predictor = EkfPredictor(q, r, p0)
        state = None
        for value in values:
            predictor.observe(value)
            if state is None:
                state = ekf.FilterState([value], [[p0]])
            else:
                state = ekf.update(ekf.predict(state, model), [value], model)
            assert predictor.predict() == float(state.x_hat[0])

    def test_ekf_predictor_singular_bracket(self):
        p = EkfPredictor(q=0.0, r=0.0, p0=0.0)
        p.observe(1.0)
        with pytest.raises(ekf.SingularBracketError):
            p.observe(2.0)

    @pytest.mark.parametrize("observed", [[float("inf")], [1.0, float("inf")],
                                          [1.0, float("nan")]])
    def test_ekf_predictor_non_finite_observation(self, observed):
        p = EkfPredictor()
        with pytest.raises(ekf.NumericFailureError):
            for value in observed:
                p.observe(value)

    @pytest.mark.parametrize("kwargs", [{"q": -0.1}, {"r": -1.0}, {"p0": -1.0},
                                        {"q": float("nan")}, {"r": float("inf")}])
    def test_ekf_predictor_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            EkfPredictor(**kwargs)


class TestFusvafStream:
    def test_identical_traces_fuse_to_common_value(self):
        values = [20.0 + 0.01 * t for t in range(40)]
        traces = [temp_trace("a", values), temp_trace("b", values)]
        points = fusvaf_stream(traces, FusionParams(1.0, 1.0))
        assert len(points) == 40
        for point, v in zip(points, values):
            if not point.warmup:
                assert point.fused == pytest.approx(v, abs=0.05)

    def test_spike_is_invalidated_and_fused_stays_tight(self):
        rng = np.random.default_rng(5)
        clean = 20.0 + rng.normal(0, 0.05, size=60)
        spiked = clean.copy()
        spike_tick = 40
        spiked[spike_tick] += 500.0
        traces = [temp_trace("good", clean), temp_trace("bad", spiked)]
        points = fusvaf_stream(traces, FusionParams(1.0, 1.0),
                               adaptation=GateAdaptation(initial_half_width=5.0))
        point = points[spike_tick]
        assert [r.sigma for r in point.readings if r.node_id == "bad"] == [0.0]
        gate_width = 100.0  # w_max ceiling; spike is far beyond any gate
        assert abs(point.fused - clean[spike_tick]) < gate_width

    def test_warmup_flags(self):
        points = fusvaf_stream(
            [temp_trace("a", [20.0] * 30)],
            adaptation=GateAdaptation(window=10),
        )
        assert all(p.warmup for p in points[:10])
        assert not any(p.warmup for p in points[10:])

    def test_envelope_property(self):
        rng = np.random.default_rng(11)
        a = 22.0 + np.cumsum(rng.normal(0, 0.05, size=80))
        b = a + rng.normal(0, 0.1, size=80)
        traces = [temp_trace("a", a), temp_trace("b", b)]
        # gate floor sized to the sensor noise, as a deployment would
        points = fusvaf_stream(traces, FusionParams(1.0, 1.0),
                               adaptation=GateAdaptation(w_min=0.5))
        for p in points:
            zs = [r.value for r in p.readings]
            lo = min(zs + [p.predicted])
            hi = max(zs + [p.predicted])
            assert lo - 1e-9 <= p.fused <= hi + 1e-9

    def test_degenerate_denominator_reports_tick(self):
        # a constant alpha of 0 leaves a fully-rejected tick no information at all
        values = [0.0] * 12 + [500.0, 500.0]
        stream = [temp_trace("a", values)]
        adaptation = GateAdaptation(window=2, initial_half_width=1.0, w_max=1.0)
        with pytest.raises(DegenerateDenominatorError, match="^tick 12: "):
            fusvaf_stream(stream, FusionParams(0.0, 1.0), adaptation=adaptation,
                          adaptive_alpha=False)

    def test_constant_alpha_survives_total_rejection(self):
        values = [0.0] * 12 + [500.0, 500.0]
        stream = [temp_trace("a", values)]
        adaptation = GateAdaptation(window=2, initial_half_width=1.0, w_max=1.0)
        points = fusvaf_stream(
            stream, FusionParams(1.0, 1.0), adaptation=adaptation, adaptive_alpha=False
        )
        assert len(points) == 14

    def test_overflowing_first_tick_mean_is_numeric_failure(self):
        stream = [temp_trace("a", [1.7e308] * 3), temp_trace("b", [1.7e308] * 3)]
        with pytest.raises(ekf.NumericFailureError, match="tick 0: prediction inf"):
            fusvaf_stream(stream, FusionParams())

    def test_overflowing_fused_value_names_tick(self):
        # 1e308 weighted twice overflows the fused value, which the
        # predictor then refuses
        stream = [temp_trace("a", [1e308] * 2), temp_trace("b", [1e308], start=1)]
        with pytest.raises(ekf.NumericFailureError,
                           match="^tick 0: filter state contains non-finite values$"):
            fusvaf_stream(stream, FusionParams(), adaptation=GateAdaptation(w_max=1e300))

    def test_fused_csv_from_columns_leaves_absent_slots_empty(self, tmp_path):
        # a slot is empty at the ticks its trace has no reading: before a late
        # start, in a gap, after the last reading
        pairs = {"a": [(t, 500.0 + 0.1 * (t % 3)) for t in range(40)],
                 "b": [(7, 501.0), (20, 499.5)], "c": [(31, 650.0)]}
        traces = [trace_from_pairs(p, node_id, SensorKind.PRESSURE) for node_id, p in pairs.items()]
        write_fusion_columns(fusvaf_columns(traces), tmp_path / "columns.csv")
        header, *rows = (tmp_path / "columns.csv").read_bytes().splitlines()
        assert header == b"tick,fused,pred,z_1,sigma_1,z_2,sigma_2,z_3,sigma_3"
        assert rows[0].endswith(b",,,,")  # tick 0: only a reads
        cells = [row.split(b",") for row in rows]
        present = {slot: [int(c[0]) for c in cells if c[1 + 2 * slot] != b""] for slot in (1, 2, 3)}
        assert present == {1: list(range(40)), 2: [7, 20], 3: [31]}
        assert all((c[1 + 2 * slot] == b"") == (c[2 + 2 * slot] == b"")
                   for c in cells for slot in (1, 2, 3))

    def test_gate_below_float_resolution_is_numeric_failure(self):
        # 1.7e308 +- 100 rounds back to 1.7e308: the gate has no width
        with pytest.raises(ekf.NumericFailureError, match="tick 0: gate"):
            fusvaf_stream([temp_trace("a", [1.7e308] * 3)], FusionParams())

    @pytest.mark.parametrize("kwargs", [
        {"k_sigma": float("nan")}, {"w_min": float("nan")}, {"w_max": float("inf")},
        {"initial_half_width": float("inf")}, {"initial_half_width": float("nan")},
    ])
    def test_adaptation_rejects_non_finite_widths(self, kwargs):
        (name, value), = kwargs.items()
        with pytest.raises(ValueError) as got:
            GateAdaptation(**kwargs)
        assert str(got.value) == f"{name} must be finite and positive, got {value}"

    def test_adaptation_rejects_w_min_above_w_max(self):
        with pytest.raises(ValueError) as got:
            GateAdaptation(w_min=5.0, w_max=1.0)
        assert str(got.value) == "w_min must not exceed w_max, got 5.0 > 1.0"

    @pytest.mark.parametrize("window", [2.5, 3.0, "3", None, True])
    def test_adaptation_rejects_non_integer_window(self, window):
        with pytest.raises(ValueError, match=rf"^window must be an integer >= 1, got {window}$"):
            GateAdaptation(window=window)

    def test_adaptation_accepts_numpy_integer_window(self):
        stream = [temp_trace("a", [1.0, 2.0, 3.0, 4.0]), temp_trace("b", [1.5] * 4)]
        adaptation = GateAdaptation(window=np.int64(2))
        points = fusvaf_stream(stream, FusionParams(), adaptation=adaptation)
        assert [p.warmup for p in points] == [True, True, False, False]

    def test_requires_traces(self):
        with pytest.raises(ValueError):
            fusvaf_stream([], FusionParams())

    def test_duplicate_node_ids_rejected(self):
        # the CSV writer keys readings by node_id, so a repeated id would
        # write one trace's values under both columns
        traces = [temp_trace("a", [1.0] * 3), temp_trace("b", [2.0] * 3),
                  temp_trace("a", [5.0] * 3)]
        with pytest.raises(ValueError, match=r"distinct node_ids, got repeated \['a'\]"):
            fusvaf_stream(traces, FusionParams())


def reference_fusvaf(traces, params, predictor, adaptation, adaptive_alpha):
    """The per-tick gate-validate-fuse loop, built only from the public
    ValidationGate.symmetric, adapt_gate and confidence and from
    sorted_pairs_fusion: the oracle of fusvaf_stream's float kernel. Returns one
    (tick, fused, predicted, readings, warmup, gate) per tick."""
    residual_window = deque(maxlen=adaptation.window)
    alpha = params.alpha
    gate = None
    out = []
    for ticks_seen, (tick, slots, values) in enumerate(merge_traces(traces)):
        for z in values:
            if not math.isfinite(z):
                raise ekf.NumericFailureError(f"tick {tick}: reading {z} is not finite")
        predicted = predictor.predict()
        if predicted is None:
            predicted = left_sum(values) / len(values)
        if not math.isfinite(predicted):
            raise ekf.NumericFailureError(f"tick {tick}: prediction {predicted} is not finite")
        warmup = ticks_seen < adaptation.window
        try:
            if warmup:
                gate = ValidationGate.symmetric(predicted, adaptation.warmup_half_width)
            else:
                residuals = [r for per_tick in residual_window for r in per_tick]
                gate = adapt_gate(gate, residuals, predicted, adaptation)
        except ValueError as exc:
            raise ekf.NumericFailureError(f"tick {tick}: {exc}") from None
        pairs = [(z, confidence(gate, z)) for z in values]
        try:
            fused = sorted_pairs_fusion(pairs, predicted, alpha, params.omega)
        except DegenerateDenominatorError as exc:
            # adaptive alpha is 0 after a fully-rejected tick: the prediction
            # is all there is to fuse
            if not (adaptive_alpha and ticks_seen > 0):
                raise DegenerateDenominatorError(f"tick {tick}: {exc}") from None
            fused = predicted
        try:
            predictor.observe(fused)
        except ekf.NumericFailureError as exc:
            raise ekf.NumericFailureError(f"tick {tick}: {exc}") from None
        if not math.isfinite(fused):
            raise ekf.NumericFailureError(f"tick {tick}: fused value {fused} is not finite")
        residual_window.append([abs(z - fused) for z in values])
        if adaptive_alpha:
            alpha = left_sum(sigma for _, sigma in pairs)
        readings = tuple((traces[slot].node_id, z, sigma) for slot, (z, sigma) in zip(slots, pairs))
        out.append((tick, fused, predicted, readings, warmup, gate))
    return out


def as_tuples(points):
    return [
        (p.tick, p.fused, p.predicted, tuple((r.node_id, r.value, r.sigma) for r in p.readings),
         p.warmup, p.gate)
        for p in points
    ]


def raise_alike(fast, reference):
    """`fast()` raises the exception type and message that `reference()` does."""
    with pytest.raises(Exception) as expected:
        reference()
    with pytest.raises(type(expected.value), match=re.escape(str(expected.value))) as got:
        fast()
    assert type(got.value) is type(expected.value)


class ScriptedPredictor:
    """Predicts the given values in turn, whatever it observes."""

    def __init__(self, predictions):
        self._predictions = list(predictions)

    def predict(self):
        return self._predictions.pop(0)

    def observe(self, value):
        pass


@st.composite
def fusion_cases(draw):
    """Gapped traces of 1-5 members around one level, with outliers, plus
    FUSVAF settings and a factory for a fresh predictor of either kind."""
    horizon = draw(st.integers(1, 40))
    level = draw(st.floats(-100, 100))
    traces = []
    for i in range(draw(st.integers(1, 5))):
        ticks = sorted(draw(st.sets(st.integers(0, horizon - 1), min_size=1)))
        offsets = draw(st.lists(st.one_of(st.floats(-2, 2), st.floats(-300, 300),
                                          st.integers(-3, 3).map(float)),
                                min_size=len(ticks), max_size=len(ticks)))
        traces.append(trace_from_pairs(
            [(t, level + o) for t, o in zip(ticks, offsets)], f"s{i}", SensorKind.TEMPERATURE
        ))
    w_min = draw(st.floats(0.01, 2))
    adaptation = GateAdaptation(
        k_sigma=draw(st.floats(0.5, 5)),
        w_min=w_min,
        w_max=w_min + draw(st.floats(0, 50)),
        window=draw(st.integers(1, 12)),
        initial_half_width=draw(st.none() | st.floats(0.1, 50)),
    )
    params = FusionParams(draw(st.floats(0, 3)), draw(st.floats(0.1, 5)))
    if draw(st.booleans()):
        q, r = draw(st.floats(1e-4, 2)), draw(st.floats(1e-4, 2))
        predictor = lambda: EkfPredictor(q, r)
    else:
        beta = draw(st.floats(0.05, 1))
        predictor = lambda: SmoothingPredictor(beta)
    return traces, params, predictor, adaptation, draw(st.booleans())


def tied_residuals_case():
    """Integer offsets over a horizon 40 times the window: equal residuals go
    into and out of the kernel's sorted residual window again and again."""
    offsets = np.random.default_rng(11).integers(-2, 3, size=(4, 120))
    traces = [
        trace_from_pairs([(t, 20.0 + float(o)) for t, o in enumerate(row)], f"s{i}",
                         SensorKind.TEMPERATURE)
        for i, row in enumerate(offsets)
    ]
    adaptation = GateAdaptation(k_sigma=3.0, w_min=0.5, w_max=10.0, window=3)
    return traces, FusionParams(1.0, 1.0), EkfPredictor, adaptation, False


def first_tick_rejected_case():
    """Adaptive alpha seeded with 0 and both readings outside the first
    tick's gate: there is no earlier tick to fall back on, so this raises."""
    traces = [temp_trace("s0", [-500.0, 0.0]), temp_trace("s1", [500.0, 0.0])]
    adaptation = GateAdaptation(window=2, initial_half_width=1.0, w_max=1.0)
    return traces, FusionParams(0.0, 1.0), EkfPredictor, adaptation, True


def nan_fused_case():
    """A prediction weight alpha/omega of inf makes the fused value nan
    whenever the prediction is not 0. A scripted predictor would carry on
    with it, so both sides must refuse it themselves, at tick 3."""
    traces = [temp_trace(f"s{i}", [float(i + t % 3) for t in range(30)]) for i in range(4)]
    predictions = [0.0, 0.0, 0.0, 2.0] * 8
    adaptation = GateAdaptation(k_sigma=2.0, w_min=0.5, w_max=20.0, window=5)
    return (traces, FusionParams(1e10, 1e-300), lambda: ScriptedPredictor(predictions),
            adaptation, False)


class UncheckedTrace(NamedTuple):
    """A Trace without its reading checks, for kernel inputs that a Trace
    refuses, such as nan."""

    node_id: str
    sensor_kind: SensorKind
    timestamps: tuple
    values: tuple


def held_trace(node_id, runs, run_length):
    """Each value of runs held for run_length ticks, from tick 0."""
    values = tuple(v for v in runs for _ in range(run_length))
    return UncheckedTrace(node_id, SensorKind.TEMPERATURE, tuple(range(len(values))), values)


def held_series_case():
    """Zero-order-held members, as the simulator fuses them: most ticks
    repeat the last tick's values and reuse their sort order. The members
    change value on different ticks, tie with each other, and read 0.0
    and -0.0 at once; an order kept after any one member changes fails."""
    traces = [
        held_trace("s0", [0.01, 0.0, -1.35, 1.28, 0.0, 1.28, -0.0, -0.0], 6),
        held_trace("s1", [0.0, 0.0, -0.0, -1.35, 0.0, -0.0, -1.35, 1.28, -1.35, 1.28, -0.0,
                          -1.03], 4),
        held_trace("s2", [-1.03, -1.03, 0.0, -1.35, -1.03, 1.28, -0.0, 0.01, -1.35, 0.0], 5),
        held_trace("s3", [-1.35, -1.35, 1.28, -0.0, 0.01, -1.03, 1.28], 7),
    ]
    adaptation = GateAdaptation(k_sigma=3.0, w_min=0.5, w_max=5.0, window=3)
    return traces, FusionParams(1.0, 1.0), EkfPredictor, adaptation, False


def held_nan_case(window=3):
    """A held nan reading, from tick 8, while the other member is outside
    the gate, so a kernel that went on would fuse the tick to its
    prediction and put a nan residual in its sorted residual window. Both
    sides refuse it at tick 8, after warm-up or (window > 8) in it."""
    nan = float("nan")
    traces = [held_trace("s0", [0.3, 0.7, 500.0, 500.0, 0.3], 4),
              held_trace("s1", [0.7, 0.7, nan, nan, -0.0], 4)]
    adaptation = GateAdaptation(w_max=5.0, window=window)
    return traces, FusionParams(1.0, 1.0), EkfPredictor, adaptation, False


def non_finite_reading_case(value, tick):
    """A reading of value (nan or inf) at tick, the only one of its member
    there; at tick 0 it would reach the first-tick mean, later the filter."""
    traces = [held_trace("s0", [0.5, 0.5, 0.5], 1),
              UncheckedTrace("s1", SensorKind.TEMPERATURE, (tick,), (value,))]
    return traces, FusionParams(1.0, 1.0), EkfPredictor, GateAdaptation(w_max=5.0), False


@st.composite
def long_held_cases(draw):
    """Zero-order-held members of up to ~300 ticks, as the simulator fuses
    them: each holds 1-4 values (near one level, far off, or +-0.0) for its
    own run length, so holds end on different ticks. Long holds reach the
    fixed point that the kernel repeats; fusion_cases (horizon <= 40)
    never gets there."""
    level = draw(st.floats(-100, 100))
    values = st.one_of(st.floats(-2, 2).map(lambda o: level + o), st.floats(-300, 300),
                       st.sampled_from([0.0, -0.0]))
    traces = []
    for i in range(draw(st.integers(1, 3))):
        runs = draw(st.lists(values, min_size=1, max_size=4))
        traces.append(held_trace(f"s{i}", runs, draw(st.integers(1, 300 // len(runs)))))
    _, params, predictor, adaptation, adaptive = draw(fusion_cases())
    return traces, params, predictor, adaptation, adaptive


def long_hold_case(predictor=EkfPredictor):
    """One member held at one value for 300 ticks."""
    return ([held_trace("s0", [20.5], 300)], FusionParams(1.0, 1.0), predictor,
            GateAdaptation(w_max=5.0), False)


def staggered_holds_case():
    """Three members whose holds end on different ticks, with adaptive alpha."""
    traces = [held_trace("s0", [20.1, 20.6, 20.3], 100), held_trace("s1", [20.2, 20.5], 150),
              held_trace("s2", [20.0, 20.4, 19.9, 20.2], 75)]
    adaptation = GateAdaptation(k_sigma=3.0, w_min=0.2, w_max=5.0, window=4)
    return traces, FusionParams(1.0, 1.0), EkfPredictor, adaptation, True


def held_zero_case(zero):
    """A reading of zero (0.0 or -0.0) held next to one of 1.0, so the
    prediction settles away from 0 but the hold may not be repeated."""
    traces = [held_trace("s0", [zero], 200), held_trace("s1", [1.0], 200)]
    return traces, FusionParams(1.0, 1.0), EkfPredictor, GateAdaptation(w_max=5.0, window=3), False


def scripted_hold_case():
    """A hold whose prediction is repeated for 50 ticks, then changes while
    the reading is still held."""
    predictions = [3.2] * 50 + [2.9] * 70
    return ([held_trace("s0", [3.0], 120)], FusionParams(1.0, 1.0),
            lambda: ScriptedPredictor(predictions), GateAdaptation(w_max=5.0, window=5), False)


def jump_outside_gate_case():
    """Adaptive alpha and a constant prediction: the reading jumps from 5.0
    to 9.0 while both lie outside the gate, so the tick of the jump gives
    the outputs of the tick before, but not its residuals. The next tick's
    gate is twice as wide."""
    return ([held_trace("s0", [1.0, 5.0, 9.0, 9.0], 6)], FusionParams(1.0, 1.0),
            lambda: ScriptedPredictor([1.0] * 24),
            GateAdaptation(k_sigma=0.5, w_min=0.01, w_max=50.0, window=1), True)


def alpha_settles_case():
    """Adaptive alpha seeded with 100 and a constant prediction: tick 0
    fuses near the prediction, later ticks nearer the reading. Tick 1
    repeats tick 0's prediction and half-width but not its fused value, so
    it must not count: tick 2's window still holds tick 0's larger residual
    and is clamped to w_max too, but tick 3's gate is narrower."""
    return ([held_trace("s0", [1.5], 30)], FusionParams(100.0, 1.0),
            lambda: ScriptedPredictor([1.0] * 30),
            GateAdaptation(w_min=0.01, w_max=1.0, window=2, initial_half_width=1.0), True)


def hold_ends_at_shortcut_case():
    """One member whose holds last 7 ticks with window 3: a constant member
    repeats its outputs from tick 2 * window + 1 = 7 on, the very tick at
    which its first hold ends."""
    return ([held_trace("s0", [20.5, 21.0, 20.5, 19.75], 7)], FusionParams(1.0, 1.0),
            EkfPredictor, GateAdaptation(w_max=5.0, window=3), False)


def gapped_slot_case():
    """Three members, one of which misses ticks 4-6 and every tick from 10
    on: its readings are absent from those ticks' records."""
    kept = [t for t in range(14) if t < 4 or 6 < t < 10]
    traces = [temp_trace("s0", [20.0 + 0.1 * t for t in range(14)]),
              trace_from_pairs([(t, 20.3 - 0.05 * t) for t in kept], "s1", SensorKind.TEMPERATURE),
              temp_trace("s2", [19.8] * 14)]
    return traces, FusionParams(1.0, 1.0), EkfPredictor, GateAdaptation(w_max=5.0, window=3), False


def assert_same_outcome(traces, params, predictor, adaptation, adaptive_alpha):
    """fusvaf_stream returns what the reference loop returns, or raises the
    exception it raises; `predictor()` makes a fresh predictor."""
    args = lambda: (traces, params, predictor(), adaptation, adaptive_alpha)
    try:
        expected = reference_fusvaf(*args())
    except (DegenerateDenominatorError, ekf.NumericFailureError):
        raise_alike(lambda: fusvaf_stream(*args()), lambda: reference_fusvaf(*args()))
        return
    points = fusvaf_stream(*args())
    # repr tells 0.0 from -0.0 and matches nan to nan
    assert repr(as_tuples(points)) == repr(expected)
    for point, (*_, warmup, gate) in zip(points, expected):
        assert type(point) is FusionPoint and type(point.readings) is tuple
        assert all(type(r) is SensorReading for r in point.readings)
        assert point.warmup is warmup
        # the gate's flank is half_width / 2, which doubles back exactly
        assert point.half_width.hex() == (2.0 * gate.a_l).hex()


class TestKernelOracle:
    """fusvaf_stream runs a float kernel; the reference loop above is the
    implementation it replaced."""

    @given(case=fusion_cases())
    @example(case=tied_residuals_case())
    @example(case=nan_fused_case())
    @example(case=first_tick_rejected_case())
    @example(case=held_series_case())
    @example(case=held_nan_case())
    @example(case=non_finite_reading_case(float("nan"), 0))
    @example(case=non_finite_reading_case(float("inf"), 1))
    @example(case=long_hold_case())
    @example(case=staggered_holds_case())
    @example(case=held_zero_case(0.0))
    @example(case=held_zero_case(-0.0))
    @example(case=scripted_hold_case())
    @example(case=long_hold_case(lambda: SmoothingPredictor(0.3)))
    @example(case=hold_ends_at_shortcut_case())
    @example(case=jump_outside_gate_case())
    @example(case=alpha_settles_case())
    @example(case=gapped_slot_case())
    @settings(max_examples=300, deadline=None)
    def test_equals_reference_loop(self, case):
        assert_same_outcome(*case)

    @given(case=long_held_cases())
    @settings(max_examples=100, deadline=None)
    def test_long_holds_equal_reference_loop(self, case):
        assert_same_outcome(*case)

    @pytest.mark.parametrize("case, fused_ticks", [
        # warm-up, the first adapted tick, then `window` ticks that repeat it
        (([held_trace("s0", [1013.25], 600)], FusionParams(), EkfPredictor, GateAdaptation(),
          True), 2 * GateAdaptation().window + 1),
        # each hold ends on the tick at which it would start to repeat
        (hold_ends_at_shortcut_case(), 28),
        # a held reading of +-0.0, or a prediction of 0.0: every tick is fused
        (held_zero_case(0.0), 200),
        (held_zero_case(-0.0), 200),
        (([held_trace("s0", [1.0], 300), held_trace("s1", [-1.0], 300)], FusionParams(),
          EkfPredictor, GateAdaptation(), False), 300),
    ])
    def test_converged_hold_repeats_last_outputs(self, monkeypatch, case, fused_ticks):
        calls = []
        weighted = fusvaf._fuse_weighted
        monkeypatch.setattr(fusvaf, "_fuse_weighted", lambda *a: calls.append(1) or weighted(*a))
        traces, params, predictor, adaptation, adaptive = case
        fusvaf_columns(traces, params, predictor(), adaptation, adaptive)
        assert len(calls) == fused_ticks

    @pytest.mark.parametrize("value, tick", [
        (float("nan"), 0), (float("inf"), 1), (float("-inf"), 2), (float("nan"), 2)])
    def test_non_finite_reading_worded_one_way(self, value, tick):
        # not "prediction nan" from the first-tick mean, nor "filter state"
        # from the predictor that later observes the fused value
        traces, params, predictor, adaptation, adaptive = non_finite_reading_case(value, tick)
        for run in (fusvaf_stream, reference_fusvaf):
            with pytest.raises(ekf.NumericFailureError) as got:
                run(traces, params, predictor(), adaptation, adaptive)
            assert str(got.value) == f"tick {tick}: reading {value} is not finite"

    @pytest.mark.parametrize("window", [3, 20])
    def test_nan_reading_refused(self, window):
        traces, params, predictor, adaptation, adaptive = held_nan_case(window)
        for run in (fusvaf_stream, reference_fusvaf):
            with pytest.raises(ekf.NumericFailureError) as got:
                run(traces, params, predictor(), adaptation, adaptive)
            assert str(got.value) == "tick 8: reading nan is not finite"

    @given(case=fusion_cases(), alpha=st.floats(0, 3, exclude_min=True))
    @example(case=([temp_trace("a", [0.0] * 12 + [500.0, 500.0])], FusionParams(), EkfPredictor,
                   GateAdaptation(window=2, initial_half_width=1.0, w_max=1.0), True),
             alpha=1.0)
    @settings(max_examples=200, deadline=None)
    def test_adaptive_alpha_never_degenerates(self, case, alpha):
        """On finite readings and a positive seed alpha, the adaptive kernel
        never raises DegenerateDenominatorError."""
        traces, params, predictor, adaptation, _ = case
        try:
            fusvaf_columns(traces, FusionParams(alpha, params.omega), predictor(), adaptation, True)
        except ekf.NumericFailureError:
            pass  # a prediction or gate beyond float range, not a degenerate denominator

    @pytest.mark.parametrize("values, predictions", [
        ([[1.7e308] * 3, [1.7e308] * 3], []),         # the first-tick mean overflows
        ([[1.0] * 5], [1.0, 1.0, float("inf")]),      # the predictor diverges
        ([[1.0] * 5], [1.0, float("nan")]),
    ])
    def test_non_finite_prediction(self, values, predictions):
        traces = [temp_trace(f"s{i}", v) for i, v in enumerate(values)]
        args = (FusionParams(), GateAdaptation(window=2), True)
        make = (lambda: ScriptedPredictor(predictions)) if predictions else EkfPredictor
        raise_alike(lambda: fusvaf_stream(traces, args[0], make(), *args[1:]),
                    lambda: reference_fusvaf(traces, args[0], make(), *args[1:]))

    @pytest.mark.parametrize("predictions, adaptation", [
        # +-100 rounds back to the prediction during warm-up
        ([1.7e308] * 3, GateAdaptation(window=5)),
        # after warm-up the adapted width vanishes next to the prediction
        ([0.0, 0.0, 1e300], GateAdaptation(w_min=1.0, w_max=1.0, window=2)),
        # the gate's right edge overflows
        ([1.7e308], GateAdaptation(w_max=1e308)),
        # the width is representable but half of it is not: zero flank shape
        ([0.0], GateAdaptation(w_min=5e-324, w_max=5e-324, initial_half_width=5e-324)),
    ])
    def test_gate_that_cannot_be_built(self, predictions, adaptation):
        traces = [temp_trace("a", [0.0] * 4)]
        run = lambda fn: fn(traces, FusionParams(), ScriptedPredictor(predictions),
                            adaptation, True)
        raise_alike(lambda: run(fusvaf_stream), lambda: run(reference_fusvaf))
        with pytest.raises(ekf.NumericFailureError, match=r"^tick \d+: "):
            run(fusvaf_stream)

    @pytest.mark.parametrize("values, alpha, adaptive", [
        # adaptive alpha drops to 0, then the prediction is fused alone
        ([[0.0] * 12 + [500.0, 500.0]], 1.0, True),
        # a constant alpha of 0 raises at the first fully-rejected tick
        ([[0.0] * 3 + [500.0], [0.0] * 3 + [-500.0]], 0.0, False),
    ])
    def test_degenerate_denominator(self, values, alpha, adaptive):
        traces = [temp_trace(f"s{i}", v) for i, v in enumerate(values)]
        adaptation = GateAdaptation(window=2, initial_half_width=1.0, w_max=1.0)
        params = FusionParams(alpha, 1.0)
        assert_same_outcome(traces, params, EkfPredictor, adaptation, adaptive)
        run = lambda: fusvaf_stream(traces, params, EkfPredictor(), adaptation, adaptive)
        if adaptive:
            last = run()[-1]
            assert (last.tick, last.fused) == (13, last.predicted)
        else:
            with pytest.raises(DegenerateDenominatorError, match="^tick 3: "):
                run()

"""Fuzzy validation gating and confidence-weighted fusion of redundant readings.

Each incoming value gets a confidence in [0, 1] from a piecewise bell curve
centered on the current prediction; readings outside the gate get zero and
are excluded from the weighted fusion, which blends the surviving readings
with the prediction itself. The gate re-centers on every new prediction and
its width tracks the median absolute residual of a sliding window, so a
single faulty sensor cannot inflate it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, NamedTuple, Optional, Sequence

from .core import Trace, is_integer, left_sum, merge_traces, write_columns
from . import ekf


class DegenerateDenominatorError(ArithmeticError):
    """All measurements invalidated and no prediction weight: nothing to fuse."""


@dataclass(frozen=True)
class ValidationGate:
    """Acceptance interval (v_l, v_r) around prediction x_hat.

    a_l and a_r shape the left/right bell flanks; smaller values make
    confidence fall off faster away from x_hat.
    """

    x_hat: float
    v_l: float
    v_r: float
    a_l: float
    a_r: float

    def __post_init__(self):
        vals = (self.x_hat, self.v_l, self.v_r, self.a_l, self.a_r)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"gate parameters must be finite, got {vals}")
        if not (self.v_l < self.x_hat < self.v_r):
            raise ValueError(
                f"gate must satisfy v_l < x_hat < v_r, got "
                f"({self.v_l}, {self.x_hat}, {self.v_r})"
            )
        if self.a_l <= 0 or self.a_r <= 0:
            raise ValueError(f"shape parameters must be positive, got {self.a_l}, {self.a_r}")

    @classmethod
    def symmetric(cls, center: float, half_width: float) -> "ValidationGate":
        """Gate of +-half_width around center with flank shape half_width/2."""
        if half_width <= 0:
            raise ValueError(f"half_width must be positive, got {half_width}")
        return cls(
            x_hat=center,
            v_l=center - half_width,
            v_r=center + half_width,
            a_l=half_width / 2.0,
            a_r=half_width / 2.0,
        )

    @property
    def width(self) -> float:
        return self.v_r - self.v_l


@dataclass(frozen=True)
class FusionParams:
    """Weight of the prediction in the fused value: alpha / omega."""

    alpha: float = 1.0
    omega: float = 1.0

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and non-negative, got {self.alpha}")
        if not 0 < self.omega < math.inf:
            raise ValueError(f"omega must be finite and positive, got {self.omega}")


def _edge(reach: float, a: float) -> float:
    """The edge term expm1(-(reach/a)^2) of a flank that reaches `reach`
    from x_hat to its gate boundary."""
    return math.expm1(-((reach / a) ** 2))


def _bell(dev: float, a: float, edge: float) -> float:
    # (exp(-(dev/a)^2) - exp(-(reach/a)^2)) / (1 - exp(-(reach/a)^2)) clamped
    # to [0, 1], written with expm1 so near-flat gates (a >> reach) stay accurate.
    return min(1.0, max(0.0, (math.expm1(-((dev / a) ** 2)) - edge) / -edge))


def confidence(gate: ValidationGate, z: float) -> float:
    """Confidence in [0, 1] of reading z under the gate.

    1 at z = x_hat, falling bell-shaped to exactly 0 at both gate
    boundaries, 0 outside.
    """
    x_hat = gate.x_hat
    if z <= gate.v_l or z > gate.v_r:
        return 0.0
    if z <= x_hat:
        return _bell(x_hat - z, gate.a_l, _edge(x_hat - gate.v_l, gate.a_l))
    return _bell(x_hat - z, gate.a_r, _edge(x_hat - gate.v_r, gate.a_r))


def _fuse_weighted(values, sigmas, order, x_hat: float, alpha: float, omega: float) -> float:
    # summed in `order`, which sorts the values: the sums are exactly permutation
    # invariant, and as over sorted (value, sigma) pairs, since equal values
    # have equal confidences under one gate
    num = 0.0
    den = 0.0
    for k in order:
        sigma = sigmas[k]
        num += values[k] * sigma
        den += sigma
    if den == 0.0:
        if alpha == 0.0:
            raise DegenerateDenominatorError(
                "all measurements invalidated and alpha = 0: no information to fuse"
            )
        return x_hat
    return (num + alpha * x_hat / omega) / (den + alpha / omega)


def fuse(gate: ValidationGate, params: FusionParams, measurements: Iterable[float]) -> float:
    """Confidence-weighted mean of the measurements and the prediction.

    Returns (sum z_i*sigma_i + alpha*x_hat/omega) / (sum sigma_i + alpha/omega).
    With no surviving measurement and alpha > 0 the prediction is returned
    unchanged; with alpha = 0 as well, DegenerateDenominatorError is raised.
    """
    values = list(measurements)
    sigmas = [confidence(gate, z) for z in values]
    order = sorted(range(len(values)), key=values.__getitem__)
    return _fuse_weighted(values, sigmas, order, gate.x_hat, params.alpha, params.omega)


@dataclass(frozen=True)
class GateAdaptation:
    """Width rule for the sliding gate.

    half-width = clamp(k_sigma * median(|residual|), w_min, w_max) over the
    last `window` ticks; for the first `window` ticks the configured
    initial half-width is used instead (warm-up).
    """

    k_sigma: float = 3.0
    w_min: float = 0.1
    w_max: float = 100.0
    window: int = 10
    initial_half_width: Optional[float] = None

    def __post_init__(self):
        for name in "k_sigma", "w_min", "w_max":
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if self.w_min > self.w_max:
            raise ValueError(f"w_min must not exceed w_max, got {self.w_min} > {self.w_max}")
        if not is_integer(self.window) or self.window < 1:
            raise ValueError(f"window must be an integer >= 1, got {self.window}")
        if self.initial_half_width is not None and not 0 < self.initial_half_width < math.inf:
            raise ValueError(
                f"initial_half_width must be finite and positive, got {self.initial_half_width}")

    @property
    def warmup_half_width(self) -> float:
        return self.initial_half_width if self.initial_half_width is not None else self.w_max

    def half_width(self, spread: float) -> float:
        """The half-width after warm-up for a median absolute residual `spread`."""
        return min(max(self.k_sigma * spread, self.w_min), self.w_max)


def _median(data: list) -> float:
    """The median of a sorted list, as `statistics.median` computes it, bit
    for bit."""
    mid = len(data) // 2
    return data[mid] if len(data) % 2 else (data[mid - 1] + data[mid]) / 2


def adapt_gate(
    gate: ValidationGate,
    recent_residuals: Sequence[float],
    new_prediction: float,
    adaptation: GateAdaptation = GateAdaptation(),
) -> ValidationGate:
    """Re-center the gate at new_prediction and re-derive its width.

    The half-width follows the median absolute residual (clamped), so a
    larger residual dispersion never yields a narrower gate and a single
    outlier residual barely moves it.
    """
    if not recent_residuals:
        raise ValueError("residual window must be non-empty")
    if not math.isfinite(new_prediction):
        raise ValueError(f"new_prediction must be finite, got {new_prediction}")
    spread = _median(sorted(abs(r) for r in recent_residuals))
    return ValidationGate.symmetric(new_prediction, adaptation.half_width(spread))


class SmoothingPredictor:
    """Exponential smoothing fallback predictor: level <- beta*obs + (1-beta)*level."""

    def __init__(self, beta: float = 0.5):
        if not 0 < beta <= 1:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        self.beta = beta
        self._level: Optional[float] = None

    def predict(self) -> Optional[float]:
        return self._level

    def observe(self, value: float) -> None:
        if self._level is None:
            self._level = value
        else:
            self._level = self.beta * value + (1.0 - self.beta) * self._level


class EkfPredictor:
    """Default predictor: scalar random-walk Kalman filter over fused values.

    The first observation initializes the estimate with variance p0; each
    later one is one closed-form `ekf.random_walk_step`.
    """

    def __init__(self, q: float = 0.1, r: float = 0.1, p0: float = 1.0):
        ekf.check_random_walk(q, r, p0)
        self._q, self._r, self._p0 = float(q), float(r), float(p0)
        self._x: Optional[float] = None
        self._p = self._p0

    def predict(self) -> Optional[float]:
        return self._x

    def observe(self, value: float) -> None:
        if self._x is None:
            if not math.isfinite(value):
                raise ekf.NumericFailureError("filter state contains non-finite values")
            self._x = float(value)
        else:
            self._x, self._p = ekf.random_walk_step(
                self._x, self._p, float(value), self._q, self._r
            )


class SensorReading(NamedTuple):
    node_id: str
    value: float
    sigma: float


class FusionPoint(NamedTuple):
    """Fused output for one tick, with per-node confidences and the gate
    half-width that produced them, for fault-detection inspection."""

    tick: int
    fused: float
    predicted: float
    readings: tuple[SensorReading, ...]
    warmup: bool
    half_width: float

    @property
    def gate(self) -> ValidationGate:
        return ValidationGate.symmetric(self.predicted, self.half_width)


class FusionColumns(NamedTuple):
    """FUSVAF output as columns: entry i of each is the i-th fused tick.

    The gate of tick i is ValidationGate.symmetric(predicted[i],
    half_width[i]). value and sigma hold one column per slot (input
    series), None where that slot has no reading at the tick.
    """

    tick: list
    fused: list
    predicted: list
    half_width: list
    value: list
    sigma: list


def _fusvaf_kernel(
    groups: Sequence[tuple],
    n_slots: int,
    params: FusionParams,
    predictor,
    adaptation: GateAdaptation,
    adaptive_alpha: bool,
) -> FusionColumns:
    """The gate-validate-fuse loop of fusvaf_columns on plain floats.

    groups holds one (tick, slots, values) per tick, in tick order: the
    slots (in 0..n_slots-1, increasing) that have a reading at the tick and
    their values. Every group is non-empty; a reading that is not finite
    raises. Errors carry a `tick N:` prefix.
    """
    n = len(groups)
    ticks, fused_col, predicted_col, half_widths = [], [], [], []
    value_cols = [[None] * n for _ in range(n_slots)]
    sigma_cols = [[None] * n for _ in range(n_slots)]
    # the last `window` ticks' absolute residuals, per tick and as one sorted list
    residual_window: deque = deque()
    window_sorted: list = []
    alpha, omega = params.alpha, params.omega
    window, warmup_half_width = adaptation.window, adaptation.warmup_half_width
    isfinite, expm1 = math.isfinite, math.expm1
    predict, observe = predictor.predict, predictor.observe
    previous = order = None  # held series repeat their values; order depends on them alone
    # steady counts the held ticks in a row whose outputs equalled the tick before's. New
    # readings set it to -1, so that their own tick counts for nothing; sigmas stays the
    # last tick's.
    steady, sigmas = 0, []
    for i, (tick, slots, values) in enumerate(groups):
        if values != previous:  # a held tick's readings were checked when they changed
            if not all(map(isfinite, values)):  # nan would corrupt window_sorted
                bad = next(z for z in values if not isfinite(z))
                raise ekf.NumericFailureError(f"tick {tick}: reading {bad} is not finite")
            previous, order, steady = values, sorted(range(len(values)), key=values.__getitem__), -1
        predicted = predict()
        if predicted is None:
            predicted = left_sum(values) / len(values)
        if not isfinite(predicted):  # e.g. the first-tick mean overflowed
            raise ekf.NumericFailureError(f"tick {tick}: prediction {predicted} is not finite")
        # A converged hold (so i > window): the last `window` ticks held these readings and
        # each repeated the outputs of the tick before. The residual window then holds only
        # their residuals and alpha their total confidence, so the same prediction gives the
        # last tick's outputs again. == does not tell 0.0 from -0.0, whose bytes differ.
        if steady >= window and predicted == predicted_col[-1] != 0.0 and 0.0 not in values:
            for slot, z, sigma in zip(slots, values, sigmas):
                value_cols[slot][i] = z
                sigma_cols[slot][i] = sigma
        else:
            if i < window:
                half_width = warmup_half_width
            else:  # as adapt_gate, over residuals that are already absolute
                half_width = adaptation.half_width(_median(window_sorted))
            v_l, v_r, a = predicted - half_width, predicted + half_width, half_width / 2.0
            if not (a > 0.0 and -math.inf < v_l < predicted < v_r < math.inf):
                # the half-width vanishes next to a huge prediction; the gate's own
                # checks word the error
                try:
                    ValidationGate.symmetric(predicted, half_width)
                except ValueError as exc:
                    raise ekf.NumericFailureError(f"tick {tick}: {exc}") from None
            # as confidence() for the gate, with each flank's edge term computed once
            edge_l, edge_r = _edge(predicted - v_l, a), _edge(predicted - v_r, a)
            sigmas = []
            for slot, z in zip(slots, values):
                if z <= v_l or z > v_r:
                    sigma = 0.0
                else:  # _bell, with min(1.0, max(0.0, sigma)) spelled out
                    edge = edge_l if z <= predicted else edge_r
                    sigma = (expm1(-(((predicted - z) / a) ** 2)) - edge) / -edge
                    sigma = (sigma if sigma < 1.0 else 1.0) if sigma > 0.0 else 0.0
                sigmas.append(sigma)
                value_cols[slot][i] = z
                sigma_cols[slot][i] = sigma
            if adaptive_alpha and i > 0 and not any(sigmas):
                fused = predicted  # alpha, the last tick's total confidence, may be 0 too
            else:
                try:
                    fused = _fuse_weighted(values, sigmas, order, predicted, alpha, omega)
                except DegenerateDenominatorError as exc:
                    raise DegenerateDenominatorError(f"tick {tick}: {exc}") from None
            # before observe, which may refuse a fused value that is not finite: the oldest
            # residuals leave first, so that a nan one cannot misplace them
            if len(residual_window) == window:
                for r in residual_window.popleft():
                    del window_sorted[bisect_left(window_sorted, r)]
            residuals = [abs(z - fused) for z in values]
            residual_window.append(residuals)
            for r in residuals:
                insort(window_sorted, r)
            if adaptive_alpha:
                alpha = left_sum(sigmas)
            # on held readings the confidences follow from the prediction and the half-width
            steady = (steady + 1 if steady >= 0 and predicted == predicted_col[-1]
                      and half_width == half_widths[-1] and fused == fused_col[-1] else 0)
        try:
            observe(fused)
        except ekf.NumericFailureError as exc:
            raise ekf.NumericFailureError(f"tick {tick}: {exc}") from None
        if not isfinite(fused):  # after observe: a predictor that refuses it words the error
            raise ekf.NumericFailureError(f"tick {tick}: fused value {fused} is not finite")
        ticks.append(tick)
        fused_col.append(fused)
        predicted_col.append(predicted)
        half_widths.append(half_width)
    return FusionColumns(ticks, fused_col, predicted_col, half_widths, value_cols, sigma_cols)


def fusvaf_columns(
    traces: Sequence[Trace],
    params: FusionParams = FusionParams(),
    predictor=None,
    adaptation: GateAdaptation = GateAdaptation(),
    adaptive_alpha: bool = True,
) -> FusionColumns:
    """Run gate-validate-fuse over time-aligned traces; slot i of the
    returned columns is traces[i].

    Per tick: predict, assign confidences, fuse, then feed the fused value
    back to the predictor and the residual window that sizes the next gate.
    With adaptive_alpha the prediction weight for a tick is the previous
    tick's total confidence (params.alpha seeds the first tick), and a later
    tick that rejects every reading fuses to its prediction; otherwise
    params.alpha is used throughout.

    On the very first tick, before the predictor has seen anything, the
    prediction falls back to the mean of that tick's measurements. A
    prediction that is not finite or too large for the gate's half-width to
    register, a fused value that is not finite, and a reading that is not
    finite raise ekf.NumericFailureError. Traces must have distinct node_ids.
    """
    if not traces:
        raise ValueError("at least one trace is required")
    node_ids = [t.node_id for t in traces]
    if len(set(node_ids)) < len(node_ids):
        repeated = sorted({n for n in node_ids if node_ids.count(n) > 1})
        raise ValueError(f"traces must have distinct node_ids, got repeated {repeated}")
    if predictor is None:
        predictor = EkfPredictor()
    groups = merge_traces(traces)
    return _fusvaf_kernel(groups, len(traces), params, predictor, adaptation, adaptive_alpha)


def fusvaf_stream(
    traces: Sequence[Trace],
    params: FusionParams = FusionParams(),
    predictor=None,
    adaptation: GateAdaptation = GateAdaptation(),
    adaptive_alpha: bool = True,
) -> list[FusionPoint]:
    """fusvaf_columns as one FusionPoint per fused tick, its readings in
    trace order; outputs during gate warm-up are flagged. The records are
    built column by column, and the readings of a trace that misses some
    fused tick are filtered tick by tick."""
    columns = fusvaf_columns(traces, params, predictor, adaptation, adaptive_alpha)
    slots = [map(SensorReading._make, zip(repeat(trace.node_id), values, sigmas))
             for trace, values, sigmas in zip(traces, columns.value, columns.sigma)]
    readings = zip(*slots)
    if any(len(trace.timestamps) < len(columns.tick) for trace in traces):
        readings = [tuple(r for r in row if r.value is not None) for row in readings]
    warmup = chain(repeat(True, adaptation.window), repeat(False))
    return list(map(FusionPoint._make, zip(columns.tick, columns.fused, columns.predicted,
                                          readings, warmup, columns.half_width)))


def write_fusion_columns(columns: FusionColumns, path) -> None:
    """Emit `tick,fused,pred,z_1,sigma_1,...,z_n,sigma_n` rows; z_i and
    sigma_i are slot i-1, empty at ticks where that slot has no reading."""
    slots = range(1, len(columns.value) + 1)
    header = ["tick", "fused", "pred", *(f"{name}_{i}" for i in slots for name in ("z", "sigma"))]
    per_slot = [column for pair in zip(columns.value, columns.sigma) for column in pair]
    write_columns(path, header, [columns.tick, columns.fused, columns.predicted, *per_slot])

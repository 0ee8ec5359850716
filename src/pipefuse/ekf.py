"""Extended Kalman filtering for nonlinear discrete-time state estimation.

Predict/update are pure functions over immutable state, so any number of
filters can run side by side. Covariances are re-symmetrized after every
propagation step; the update uses the plain (I - KH)P covariance form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import math

import numpy as np

from .core import Trace, write_csv

# Tolerated eigenvalue negativity of a covariance before it is rejected.
EPS_SYM = 1e-9


class NumericFailureError(ArithmeticError):
    """A model function or matrix operation produced non-finite values."""


class SingularBracketError(NumericFailureError):
    """The innovation covariance H P H^T + R is not invertible.

    Usually signals a misconfigured (rank-deficient or zero) measurement
    noise covariance R.
    """


def _as_covariance(a, name: str) -> np.ndarray:
    """A model noise covariance: square, finite, symmetric, non-negative
    diagonal and PSD within FilterState's tolerance."""
    m = np.atleast_2d(np.asarray(a, dtype=float))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} must be finite")
    if not np.allclose(m, m.T, atol=1e-12, rtol=0):
        raise ValueError(f"{name} must be symmetric")
    _check_covariance(m, name)
    return m


@dataclass(frozen=True)
class ProcessModel:
    """Nonlinear state-space model x' = f(x) + w, y = h(x) + v.

    Q and R are the covariances of the process noise w and measurement
    noise v. Analytic Jacobians are optional; central differences are used
    when they are absent.
    """

    state_dim: int
    f: Callable[[np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    Q: np.ndarray
    R: np.ndarray
    F_jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    H_jac: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.state_dim < 1:
            raise ValueError(f"state_dim must be positive, got {self.state_dim}")
        q = _as_covariance(self.Q, "Q")
        r = _as_covariance(self.R, "R")
        if q.shape != (self.state_dim, self.state_dim):
            raise ValueError(f"Q must be {self.state_dim}x{self.state_dim}, got {q.shape}")
        object.__setattr__(self, "Q", _freeze(q))
        object.__setattr__(self, "R", _freeze(r))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FilterState:
    """Estimate x_hat with covariance P at a given tick."""

    x_hat: np.ndarray
    P: np.ndarray
    tick: int = 0

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x_hat, dtype=float))
        p = np.atleast_2d(np.asarray(self.P, dtype=float))
        _check_shape(x, p)
        if self.tick < 0:
            raise ValueError(f"tick must be non-negative, got {self.tick}")
        _check_finite(x, p)
        if not np.allclose(p, p.T, atol=1e-9, rtol=1e-9):
            raise ValueError("P must be symmetric")
        _check_covariance(p)
        object.__setattr__(self, "x_hat", _freeze(x))
        object.__setattr__(self, "P", _freeze(p))

    @property
    def dim(self) -> int:
        return self.x_hat.shape[0]


def _check_shape(x: np.ndarray, p: np.ndarray) -> None:
    n = x.shape[0]
    if x.ndim != 1 or p.shape != (n, n):
        raise ValueError(f"shape mismatch: x_hat {x.shape}, P {p.shape}")


def _check_finite(x: np.ndarray, p: np.ndarray) -> None:
    if not (np.isfinite(x).all() and np.isfinite(p).all()):
        raise NumericFailureError("filter state contains non-finite values")


def _check_covariance(p: np.ndarray, name: str = "P") -> None:
    """Non-negative diagonal, then PSD within tolerance."""
    if (p.diagonal() < 0).any():
        raise ValueError(f"{name} diagonal must be non-negative")
    # eigvalsh returns the eigenvalues in ascending order
    if np.linalg.eigvalsh(p)[0] < -EPS_SYM * max(1.0, float(np.abs(p).max())):
        raise ValueError(f"{name} must be positive semi-definite (within tolerance)")


def _filter_state(x: np.ndarray, p: np.ndarray, tick: int) -> FilterState:
    """FilterState over arrays that predict/update just created; it takes
    them over and makes them read-only instead of copying them.

    Runs, in FilterState's order, every check that the filter arithmetic
    can fail: shape, finiteness, non-negative diagonal and PSD. It leaves
    out the two that hold by construction: P comes out of _symmetrize, so
    it is exactly symmetric, and the tick is a non-negative tick plus 0 or 1.
    """
    _check_shape(x, p)
    _check_finite(x, p)
    _check_covariance(p)
    x.flags.writeable = False
    p.flags.writeable = False
    state = object.__new__(FilterState)
    vars(state).update(x_hat=x, P=p, tick=tick)
    return state


def numeric_jacobian(fn, x, eps=None) -> np.ndarray:
    """Central-difference Jacobian of fn at x.

    Column j is (fn(x + e_j*eps_j) - fn(x - e_j*eps_j)) / (2*eps_j). `eps`
    may be a scalar, a per-component vector, or None for the default step
    1e-6 * max(1, |x_j|).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.shape[0]
    if eps is None:
        steps = 1e-6 * np.maximum(1.0, np.abs(x))
    else:
        steps = np.broadcast_to(np.asarray(eps, dtype=float), (n,)).copy()
        if np.any(steps <= 0):
            raise ValueError("eps must be positive")
    # Probe j is x +- row j of diag(steps), not x with component j stepped in
    # place: the other components are x_k +- 0.0, which turns -0.0 into 0.0.
    probes = np.diag(steps)
    with np.errstate(all="ignore"):  # divergent probes are caught below
        hi = np.array([fn(p) for p in x + probes], dtype=float).reshape(n, -1)
        lo = np.array([fn(p) for p in x - probes], dtype=float).reshape(n, -1)
        # Row j of hi - lo is column j. The Jacobian stays in C order: BLAS
        # rounds F @ P @ F.T differently for a Fortran-ordered F.
        jac = np.ascontiguousarray((hi - lo).T) / (2.0 * steps)
    if not np.isfinite(jac).all():
        raise NumericFailureError("numeric Jacobian produced non-finite values")
    return jac


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + p.T)


def _jacobian_of(fn, analytic, x) -> np.ndarray:
    if analytic is not None:
        jac = np.atleast_2d(np.asarray(analytic(x), dtype=float))
        if not np.isfinite(jac).all():
            raise NumericFailureError("analytic Jacobian produced non-finite values")
        return jac
    return numeric_jacobian(fn, x)


def predict(state: FilterState, model: ProcessModel) -> FilterState:
    """Propagate the estimate one step: x' = f(x), P' = F P F^T + Q."""
    # a copy, so the state never freezes or aliases an array that f handed back
    x1 = np.atleast_1d(np.array(model.f(state.x_hat), dtype=float))
    if not np.isfinite(x1).all():
        raise NumericFailureError("state transition produced non-finite values")
    F = _jacobian_of(model.f, model.F_jac, state.x_hat)
    P1 = _symmetrize(F @ state.P @ F.T + model.Q)
    return _filter_state(x1, P1, state.tick + 1)


def update(prior: FilterState, y, model: ProcessModel) -> FilterState:
    """Fold measurement y into the prior.

    Innovation uses the nonlinear h; the gain solves
    K = P H^T (H P H^T + R)^(-1) with H evaluated at the prior.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    z_pred = np.atleast_1d(np.asarray(model.h(prior.x_hat), dtype=float))
    if y.shape != z_pred.shape:
        raise ValueError(f"measurement dim {y.shape[0]} != h output dim {z_pred.shape[0]}")
    if model.R.shape != (y.shape[0], y.shape[0]):
        m = y.shape[0]
        raise ValueError(f"R must be {m}x{m} for a {m}-vector measurement, got {model.R.shape}")
    H = _jacobian_of(model.h, model.H_jac, prior.x_hat)
    S = H @ prior.P @ H.T + model.R
    PHt = prior.P @ H.T
    try:
        # K = PHt @ inv(S); solve on the transposed system avoids forming inv(S).
        K = np.linalg.solve(S.T, PHt.T).T
    except np.linalg.LinAlgError:
        raise SingularBracketError(
            "innovation covariance H P H^T + R is singular; check R"
        ) from None
    if not np.isfinite(K).all():
        raise SingularBracketError(
            "innovation covariance H P H^T + R is ill-conditioned; check R"
        )
    innovation = y - z_pred
    x1 = prior.x_hat + K @ innovation
    P1 = _symmetrize((np.eye(prior.dim) - K @ H) @ prior.P)
    return _filter_state(x1, P1, prior.tick)


class FilterPoint(NamedTuple):
    """One filtered measurement: posterior state plus the raw innovation."""

    tick: int
    measurement: float
    state: FilterState
    innovation: np.ndarray

    @property
    def estimate(self) -> float:
        return float(self.state.x_hat[0])

    @property
    def variance(self) -> float:
        return float(self.state.P[0, 0])


@np.errstate(all="ignore")  # predict and update check each state
def run_filter(model: ProcessModel, init: FilterState, measurements: Trace) -> list[FilterPoint]:
    """Filter a scalar-measurement trace, one predict+update per reading.

    Output has one posterior and its innovation per measurement, so callers
    can watch for divergence; an overflow raises NumericFailureError.
    """
    points = []
    state = init
    for tick, value in zip(measurements.timestamps, measurements.values):
        try:
            prior = predict(state, model)
            innovation = value - np.atleast_1d(np.asarray(model.h(prior.x_hat), dtype=float))
            state = update(prior, [value], model)
        except (NumericFailureError, ValueError) as exc:
            raise type(exc)(f"tick {tick}: {exc}") from exc
        points.append(FilterPoint(tick, value, state, innovation))
    return points


def random_walk_model(q: float, r: float) -> ProcessModel:
    """Scalar random-walk model: identity dynamics and direct observation."""
    identity = lambda x: x
    one = lambda x: np.array([[1.0]])
    return ProcessModel(
        state_dim=1,
        f=identity,
        h=identity,
        Q=np.array([[q]]),
        R=np.array([[r]]),
        F_jac=one,
        H_jac=one,
    )


def check_random_walk(q: float, r: float, p0: float) -> None:
    """Reject noise variances or an initial variance that are negative or
    non-finite, as random_walk_model and FilterState would."""
    for name, value in (("q", q), ("r", r), ("p0", p0)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and non-negative, got {value}")


def random_walk_step(x: float, p: float, y: float, q: float, r: float) -> tuple[float, float]:
    """One predict+update of the scalar random walk on plain floats.

    Bit-identical to `update(predict(state, random_walk_model(q, r)), [y], ...)`
    for a 1x1 state: the matrix forms reduce exactly to these operations, and
    the gain is a plain division (a reciprocal product would differ in the
    last bit). Returns the posterior (x, p).
    """
    pp = p + q
    s = pp + r
    if s == 0.0:
        raise SingularBracketError("innovation covariance H P H^T + R is singular; check R")
    k = pp / s
    x = x + k * (y - x)
    p = (1.0 - k) * pp
    if not (math.isfinite(x) and math.isfinite(p)):
        raise NumericFailureError("filter state contains non-finite values")
    return x, p


def random_walk_estimates(
    measurements: Sequence[float], q: float, r: float, x0: float, p0: float
) -> list[float]:
    """Posterior estimates of the scalar random-walk filter over the
    measurements of ticks 0, 1, ...

    Equals `[p.estimate for p in run_filter(random_walk_model(q, r),
    FilterState([x0], [[p0]]), trace)]` for a trace of these measurements,
    without building a state object per reading.
    """
    check_random_walk(q, r, p0)
    if not math.isfinite(x0):
        raise NumericFailureError("filter state contains non-finite values")
    x, p = float(x0), float(p0)
    estimates = []
    for tick, y in enumerate(measurements):
        try:
            x, p = random_walk_step(x, p, y, q, r)
        except NumericFailureError as exc:
            raise type(exc)(f"tick {tick}: {exc}") from exc
        estimates.append(x)
    return estimates


def write_filter_csv(points: Sequence[FilterPoint], path) -> None:
    """Emit `tick,measurement,estimate,variance` rows for plotting."""
    write_csv(
        path,
        ["tick", "measurement", "estimate", "variance"],
        ([p.tick, p.measurement, p.estimate, p.variance] for p in points),
    )

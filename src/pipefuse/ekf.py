"""Extended Kalman filtering for nonlinear discrete-time state estimation.

Predict/update are pure functions over immutable state, so any number of
filters can run side by side. Covariances are re-symmetrized after every
propagation step; the update uses the plain (I - KH)P covariance form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import math
import numbers

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
    if not m.size:
        raise ValueError(f"{name} must not be empty, got shape {m.shape}")
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
        if not isinstance(self.tick, numbers.Integral) or self.tick < 0:
            raise ValueError(f"tick must be a non-negative integer, got {self.tick!r}")
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
    if not x.size:
        raise ValueError(f"x_hat must not be empty, got shape {x.shape}")
    if x.ndim != 1 or p.shape != x.shape * 2:  # (n,) * 2 == (n, n)
        raise ValueError(f"shape mismatch: x_hat {x.shape}, P {p.shape}")


def _check_finite(x: np.ndarray, p: np.ndarray) -> None:
    if not (np.isfinite(x).all() and np.isfinite(p).all()):
        raise NumericFailureError("filter state contains non-finite values")


def _check_covariance(p: np.ndarray, name: str = "P") -> None:
    """Non-negative diagonal, then PSD within tolerance. `p` is one matrix
    or a stack of them along leading axes, each with its own tolerance."""
    if p.diagonal(axis1=-2, axis2=-1).min() < 0:
        raise ValueError(f"{name} diagonal must be non-negative")
    # eigvalsh returns the eigenvalues in ascending order. The tolerance is
    # negative, so a smallest eigenvalue >= 0 passes it without computing it.
    low = np.linalg.eigvalsh(p)[..., 0]
    if (low < 0).any() and (
            low < -EPS_SYM * np.maximum(1.0, np.abs(p).max(axis=(-2, -1)))).any():
        raise ValueError(f"{name} must be positive semi-definite (within tolerance)")


def _adopt(x: np.ndarray, p: np.ndarray, tick: int) -> FilterState:
    """FilterState over arrays that the filter just created, unchecked: it
    takes them over and makes them read-only instead of copying them."""
    x.flags.writeable = False
    p.flags.writeable = False
    state = object.__new__(FilterState)
    vars(state).update(x_hat=x, P=p, tick=tick)
    return state


def _filter_state(x: np.ndarray, p: np.ndarray, tick: int) -> FilterState:
    """_adopt after every check that the filter arithmetic can fail, in
    FilterState's order: shape, finiteness, non-negative diagonal and PSD.
    It leaves out the two that hold by construction: P comes out of
    _symmetrize, so it is exactly symmetric, and the tick is a checked tick
    plus 0 or 1."""
    _check_shape(x, p)
    _check_finite(x, p)
    _check_covariance(p)
    return _adopt(x, p, tick)


class _Unchecked(NamedTuple):
    """A state of run_filter's first pass. predict and update given one
    return one, with no check; run_filter checks them all after the pass."""

    x_hat: np.ndarray
    P: np.ndarray
    tick: int

    @property
    def dim(self) -> int:
        return self.x_hat.shape[0]


def _successor(state, x: np.ndarray, p: np.ndarray, tick: int):
    """The state that predict or update makes from `state`: checked, unless
    `state` is _Unchecked. Read-only either way, as the model sees it."""
    if type(state) is _Unchecked:
        x.flags.writeable = False
        p.flags.writeable = False
        return _Unchecked(x, p, tick)
    return _filter_state(x, p, tick)


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
        if not (np.isfinite(steps).all() and (steps > 0).all()):
            raise ValueError(f"eps must be positive and finite, got {eps}")
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
    return _successor(state, x1, P1, state.tick + 1)


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
    return _successor(prior, x1, P1, prior.tick)


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


def _filter_steps(model: ProcessModel, state, measurements: Trace):
    """run_filter's work per reading, from `state`: predict, the innovation
    and update. Yields (tick, measurement, prior, posterior, innovation); a
    failing step's error is prefixed with `tick N:`."""
    for tick, value in zip(measurements.timestamps, measurements.values):
        try:
            prior = predict(state, model)
            innovation = value - np.atleast_1d(np.asarray(model.h(prior.x_hat), dtype=float))
            state = update(prior, [value], model)
        except (NumericFailureError, ValueError) as exc:
            raise type(exc)(f"tick {tick}: {exc}") from exc
        yield tick, value, prior, state, innovation


def _run_unchecked(model: ProcessModel, init: FilterState, measurements: Trace):
    """run_filter's first pass: the steps on _Unchecked states, each prior
    and posterior copied into a stack as it comes, then one check of all."""
    count = len(measurements.values)
    xs = np.empty((2 * count,) + init.x_hat.shape)
    ps = np.empty((2 * count,) + init.P.shape)
    points = []
    steps = _filter_steps(model, _Unchecked(init.x_hat, init.P, init.tick), measurements)
    for i, (tick, value, prior, state, innovation) in enumerate(steps):
        for k, s in enumerate((prior, state), 2 * i):
            # exact shapes only: numpy would broadcast an x_hat of shape (1,) into a row
            if s.x_hat.shape != init.x_hat.shape or s.P.shape != init.P.shape:
                raise ValueError("shape mismatch")
            xs[k], ps[k] = s.x_hat, s.P
        points.append(FilterPoint(tick, value, _adopt(*state), innovation))
    _check_finite(xs, ps)
    _check_covariance(ps)
    return points


@np.errstate(all="ignore")  # every state is checked
def run_filter(model: ProcessModel, init: FilterState, measurements: Trace) -> list[FilterPoint]:
    """Filter a scalar-measurement trace, one predict+update per reading.

    Output has one posterior and its innovation per measurement, so callers
    can watch for divergence; an overflow raises NumericFailureError.

    The states are checked once per run: predict and update skip their
    checks, and every prior and posterior is checked in one batch at the
    end. A run that fails that check, or raises, is filtered again from
    `init` with each state checked as it is made, and raises what that
    pass raises, so the error names the first failing tick as the
    step-by-step path would. On such a run the model's functions are
    called again from the start.
    """
    try:
        return _run_unchecked(model, init, measurements)
    except Exception:
        pass  # the checked pass below raises the step-by-step path's error
    return [FilterPoint(tick, value, state, innovation)
            for tick, value, _, state, innovation in _filter_steps(model, init, measurements)]


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


def write_filter_csv(points: Sequence[FilterPoint], path) -> None:
    """Emit `tick,measurement,estimate,variance` rows for plotting."""
    write_csv(
        path,
        ["tick", "measurement", "estimate", "variance"],
        ([p.tick, p.measurement, p.estimate, p.variance] for p in points),
    )

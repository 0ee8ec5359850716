import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pipefuse.core import SensorKind, trace_from_pairs
from pipefuse.ekf import (
    FilterState,
    NumericFailureError,
    ProcessModel,
    SingularBracketError,
    numeric_jacobian,
    predict,
    random_walk_estimates,
    random_walk_model,
    random_walk_step,
    run_filter,
    update,
    _filter_state,
)


def scalar_model(q, r, f=None, h=None, **kw):
    ident = lambda x: x
    return ProcessModel(1, f or ident, h or ident, np.array([[q]]), np.array([[r]]), **kw)


class TestNumericJacobian:
    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        assert np.allclose(numeric_jacobian(lambda v: v, x), np.eye(3), atol=1e-9)

    def test_square_matches_analytic_derivative(self):
        J = numeric_jacobian(lambda v: v**2, np.array([3.0]), eps=1e-5)
        assert abs(J[0, 0] - 6.0) < 1e-6

    def test_constant(self):
        J = numeric_jacobian(lambda v: np.array([7.0, -1.0]), np.array([0.5, 2.0]))
        assert np.array_equal(J, np.zeros((2, 2)))

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            numeric_jacobian(lambda v: v, np.array([1.0]), eps=0.0)

    def test_divergent_function_raises(self):
        def bad(v):
            return np.array([float("inf")])

        with pytest.raises(NumericFailureError):
            numeric_jacobian(bad, np.array([1.0]))


def reference_numeric_jacobian(fn, x, eps=None):
    """numeric_jacobian as it was written before its probes were collected
    into one array per side: one column per probe pair, column-stacked. The
    oracle of the equal-bits test below."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.shape[0]
    if eps is None:
        steps = 1e-6 * np.maximum(1.0, np.abs(x))
    else:
        steps = np.broadcast_to(np.asarray(eps, dtype=float), (n,)).copy()
        if np.any(steps <= 0):
            raise ValueError("eps must be positive")
    hi, lo = [], []
    with np.errstate(invalid="ignore"):
        for dx in np.diag(steps):
            hi.append(np.atleast_1d(np.asarray(fn(x + dx), dtype=float)))
            lo.append(np.atleast_1d(np.asarray(fn(x - dx), dtype=float)))
        jac = (np.column_stack(hi) - np.column_stack(lo)) / (2.0 * steps)
    if not np.isfinite(jac).all():
        raise NumericFailureError("numeric Jacobian produced non-finite values")
    return jac


# Scalar and vector outputs; copysign sees the sign of a zero component, and
# log and the squares turn some probes into nan or inf.
JACOBIAN_FNS = [
    lambda v: float(np.sin(v).sum()),
    lambda v: np.sin(v[0]) * v[-1],
    lambda v: v**2,
    lambda v: np.array([v.sum(), np.copysign(1.0, v).prod(), np.exp(-(v @ v))]),
    lambda v: np.copysign(v + 1.0, v),
    lambda v: np.log(v),
    lambda v: np.array([np.hypot(v[0], v[-1])]),
]

jacobian_components = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -5e-324]),
    st.floats(-1e3, 1e3),
    st.floats(1e150, 1e300).flatmap(lambda a: st.sampled_from([a, -a])),
)


class TestNumericJacobianOracle:
    @given(
        fn=st.sampled_from(JACOBIAN_FNS),
        x=st.lists(jacobian_components, min_size=1, max_size=5),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_equal_bits_to_per_column_reference(self, fn, x, data):
        steps = st.floats(1e-9, 1e-2)
        eps = data.draw(st.one_of(
            st.none(), steps, st.lists(steps, min_size=len(x), max_size=len(x))
        ))
        try:
            want = reference_numeric_jacobian(fn, np.array(x), eps)
        except NumericFailureError as exc:
            with pytest.raises(NumericFailureError, match=f"^{re.escape(str(exc))}$"):
                numeric_jacobian(fn, np.array(x), eps)
            return
        got = numeric_jacobian(fn, np.array(x), eps)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous

    def test_scalar_x_and_scalar_output(self):
        fn = lambda v: float(v[0] ** 3)
        got, want = numeric_jacobian(fn, 2.0), reference_numeric_jacobian(fn, 2.0)
        assert got.shape == want.shape == (1, 1)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error")  # a numpy warning must not escape first
    def test_non_finite_probe_message(self):
        for fn, x in [
            (np.log, [1.0, -0.0, 3.0]),  # log(0.0) divides by zero, log(-step) is invalid
            (np.exp, [800.0]),  # overflows
        ]:
            with pytest.raises(NumericFailureError,
                               match="^numeric Jacobian produced non-finite values$"):
                numeric_jacobian(fn, np.array(x))


class TestPredict:
    def test_identity_dynamics_no_noise(self):
        prior = predict(FilterState([5.0], [[1.0]]), random_walk_model(0.0, 1.0))
        assert prior.x_hat[0] == 5.0
        assert prior.P[0, 0] == 1.0
        assert prior.tick == 1

    def test_process_noise_inflates_covariance(self):
        prior = predict(FilterState([0.0], [[1.0]]), random_walk_model(0.1, 1.0))
        assert prior.P[0, 0] == pytest.approx(1.1, abs=1e-12)

    def test_doubling_dynamics(self):
        prior = predict(FilterState([1.0], [[1.0]]), scalar_model(0.0, 1.0, f=lambda x: 2 * x))
        assert prior.x_hat[0] == pytest.approx(2.0, abs=1e-9)
        assert prior.P[0, 0] == pytest.approx(4.0, abs=1e-6)

    def test_nonfinite_transition_raises(self):
        model = scalar_model(0.0, 1.0, f=lambda x: np.full_like(x, np.inf))
        with pytest.raises(NumericFailureError):
            predict(FilterState([1.0], [[1.0]]), model)


class TestUpdate:
    def test_scalar_hand_computed_gain(self):
        post = update(FilterState([0.0], [[1.0]], tick=1), [2.0], scalar_model(0.0, 1.0))
        assert post.x_hat[0] == pytest.approx(1.0, abs=1e-12)
        assert post.P[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_uninformative_measurement_keeps_prior(self):
        prior = FilterState([3.0], [[1.0]], tick=1)
        post = update(prior, [2.0], scalar_model(0.0, 1e12))
        assert abs(post.x_hat[0] - prior.x_hat[0]) < 1e-9 * 2.0

    def test_perfect_prior_ignores_measurement(self):
        prior = FilterState([3.0], [[0.0]], tick=1)
        post = update(prior, [100.0], scalar_model(0.0, 1.0))
        assert post.x_hat[0] == 3.0

    def test_singular_bracket(self):
        model = scalar_model(0.0, 0.0, h=lambda x: 0.0 * x, H_jac=lambda x: np.array([[0.0]]))
        with pytest.raises(SingularBracketError):
            update(FilterState([0.0], [[1.0]], tick=1), [1.0], model)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            update(FilterState([0.0], [[1.0]]), [1.0, 2.0], scalar_model(0.0, 1.0))


class TestRunFilter:
    def test_single_measurement_is_predict_then_update(self):
        model = random_walk_model(0.1, 0.1)
        init = FilterState([0.0], [[1.0]])
        trace = trace_from_pairs([(0, 2.0)], "n0", SensorKind.TEMPERATURE)
        points = run_filter(model, init, trace)
        assert len(points) == 1
        direct = update(predict(init, model), [2.0], model)
        assert points[0].state == direct

    def test_constant_trace_converges_monotonically(self):
        # q = 0 scalar recursion: error |x_hat - c| shrinks every step.
        model = random_walk_model(0.0, 1.0)
        init = FilterState([0.0], [[1.0]])
        c = 10.0
        trace = trace_from_pairs([(t, c) for t in range(30)], "n0", SensorKind.TEMPERATURE)
        points = run_filter(model, init, trace)
        errors = [abs(p.estimate - c) for p in points]
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errors, errors[1:]))
        # q = 0 recursion averages all samples: error after k steps is c/(k+1)
        assert errors[-1] == pytest.approx(c / 31, abs=1e-9)

        # independent oracle: direct scalar recursion
        x, P = 0.0, 1.0
        for p in points:
            K = P / (P + 1.0)
            x = x + K * (c - x)
            P = (1 - K) * P
            assert p.estimate == pytest.approx(x, abs=1e-12)
            assert p.variance == pytest.approx(P, abs=1e-12)

    def test_smoothing_reduces_variance(self):
        rng = np.random.default_rng(7)
        values = 20.0 + rng.normal(0, np.sqrt(0.1), size=20)
        trace = trace_from_pairs(list(enumerate(values)), "n0", SensorKind.TEMPERATURE)
        init = FilterState([values[0]], [[1.0]])
        points = run_filter(random_walk_model(0.1, 0.1), init, trace)
        estimates = [p.estimate for p in points]
        assert np.var(estimates) <= np.var(values)

    @pytest.mark.filterwarnings("error")  # a numpy warning must not escape first
    def test_divergent_transition_raises_without_warning(self):
        model = scalar_model(0.0, 1.0, f=lambda x: np.log(x - 1.0))  # log(0) at x = 1
        trace = trace_from_pairs([(1, 1.0)], "n0", SensorKind.TEMPERATURE)
        with pytest.raises(NumericFailureError,
                           match="^tick 1: state transition produced non-finite values$"):
            run_filter(model, FilterState([1.0], [[1.0]]), trace)

    def test_error_carries_failing_tick(self):
        model = scalar_model(0.0, 1.0, f=lambda x: np.full_like(x, np.nan))
        trace = trace_from_pairs([(7, 1.0)], "n0", SensorKind.TEMPERATURE)
        with pytest.raises(NumericFailureError, match="tick 7"):
            run_filter(model, FilterState([0.0], [[1.0]]), trace)


def random_linear_system(rng, n, m):
    A = rng.normal(size=(n, n))
    A *= 0.95 / max(np.abs(np.linalg.eigvals(A)))
    H = rng.normal(size=(m, n))
    q_root = rng.normal(size=(n, n)) * 0.3
    Q = q_root @ q_root.T + 1e-3 * np.eye(n)
    r_root = rng.normal(size=(m, m)) * 0.3
    R = r_root @ r_root.T + 1e-2 * np.eye(m)
    return A, H, Q, R


def kalman_oracle(A, H, Q, R, x0, P0, ys):
    """Plainly coded standard Kalman filter, independent of the ekf module."""
    x, P = np.array(x0, dtype=float), np.array(P0, dtype=float)
    out = []
    for y in ys:
        x = A @ x
        P = A @ P @ A.T + Q
        S = H @ P @ H.T + R
        K = P @ H.T @ np.linalg.inv(S)
        x = x + K @ (y - H @ x)
        P = (np.eye(len(x)) - K @ H) @ P
        out.append((x.copy(), P.copy()))
    return out


class TestLinearEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_standard_kalman_filter(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, n + 1))
        A, H, Q, R = random_linear_system(rng, n, m)
        model = ProcessModel(
            n,
            f=lambda x: A @ x,
            h=lambda x: H @ x,
            Q=Q,
            R=R,
            F_jac=lambda x: A,
            H_jac=lambda x: H,
        )
        x0 = rng.normal(size=n)
        P0 = np.eye(n)
        ys = [rng.normal(size=m) for _ in range(50)]

        state = FilterState(x0, P0)
        oracle = kalman_oracle(A, H, Q, R, x0, P0, ys)
        for y, (ox, oP) in zip(ys, oracle):
            state = update(predict(state, model), y, model)
            assert np.max(np.abs(state.x_hat - ox)) < 1e-10
            assert np.max(np.abs(state.P - oP)) < 1e-10


class TestProperties:
    @pytest.mark.parametrize("seed", range(5))
    def test_posterior_covariance_never_grows(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 4))
        A, H, Q, R = random_linear_system(rng, n, n)  # full row rank H almost surely
        model = ProcessModel(n, lambda x: A @ x, lambda x: H @ x, Q, R,
                             F_jac=lambda x: A, H_jac=lambda x: H)
        state = FilterState(rng.normal(size=n), np.eye(n))
        for _ in range(20):
            prior = predict(state, model)
            state = update(prior, rng.normal(size=n), model)
            assert np.trace(state.P) <= np.trace(prior.P) + 1e-12

    def test_numeric_jacobian_agrees_with_analytic(self):
        A = np.array([[0.9, 0.1], [-0.2, 0.8]])
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.normal(scale=5.0, size=2)
            fn = lambda v: np.array([A[0] @ v + 0.01 * v[0] ** 2, A[1] @ v + np.sin(v[1])])
            analytic = np.array(
                [[A[0, 0] + 0.02 * x[0], A[0, 1]], [A[1, 0], A[1, 1] + np.cos(x[1])]]
            )
            J = numeric_jacobian(fn, x)
            assert np.max(np.abs(J - analytic)) / max(1.0, np.max(np.abs(analytic))) < 1e-4

    @given(
        x0=st.floats(-100, 100),
        p0=st.floats(0.01, 50),
        q=st.floats(0.001, 5),
        r=st.floats(0.001, 5),
        ys=st.lists(st.floats(-100, 100), min_size=1, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_outputs_finite_for_finite_inputs(self, x0, p0, q, r, ys):
        model = random_walk_model(q, r)
        state = FilterState([x0], [[p0]])
        for y in ys:
            state = update(predict(state, model), [y], model)
            assert np.isfinite(state.x_hat).all()
            assert np.isfinite(state.P).all()
            assert state.P[0, 0] >= 0


class TestValidation:
    def test_filter_state_rejects_asymmetric_p(self):
        with pytest.raises(ValueError):
            FilterState([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])

    def test_filter_state_rejects_negative_diagonal(self):
        with pytest.raises(ValueError):
            FilterState([0.0], [[-0.5]])

    def test_process_model_rejects_asymmetric_q(self):
        with pytest.raises(ValueError):
            ProcessModel(
                2,
                lambda x: x,
                lambda x: x,
                np.array([[1.0, 0.2], [0.0, 1.0]]),
                np.eye(2),
            )

    def test_process_model_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            ProcessModel(0, lambda x: x, lambda x: x, np.eye(1), np.eye(1))

    @pytest.mark.parametrize("q, r, message", [
        (np.ones((2, 3)), np.eye(1), "Q must be a square matrix, got shape (2, 3)"),
        (np.eye(2), np.ones((1, 2)), "R must be a square matrix, got shape (1, 2)"),
        (np.eye(2), np.ones((1, 1, 1)), "R must be a square matrix, got shape (1, 1, 1)"),
        (np.eye(3), np.eye(1), "Q must be 2x2, got (3, 3)"),
        ([[0.0, 1.0], [1.0, 0.0]], np.eye(1), "Q must be positive semi-definite"),
        (np.eye(2), [[1.0, 2.0], [2.0, 1.0]], "R must be positive semi-definite"),
        (np.diag([1.0, -1.0]), np.eye(1), "Q diagonal must be non-negative"),
        (np.eye(2), [[-0.1]], "R diagonal must be non-negative"),
        (np.eye(2), [[np.nan]], "R must be finite"),
        (np.eye(2), [[1.0, 0.5], [0.0, 1.0]], "R must be symmetric"),
    ])
    def test_process_model_rejects_bad_noise_covariance(self, q, r, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ProcessModel(2, lambda x: x, lambda x: x[:1], q, r)

    def test_process_model_noise_covariance_tolerance_as_filter_state(self):
        # eigenvalue -1e-12: within FilterState's tolerance, so accepted by both
        near_psd = [[1.0, 1.0 + 1e-12], [1.0 + 1e-12, 1.0]]
        FilterState([0.0, 0.0], near_psd)
        model = ProcessModel(2, lambda x: x, lambda x: x, near_psd, near_psd)
        assert model.Q.shape == model.R.shape == (2, 2)

    def test_update_rejects_r_of_the_wrong_size(self):
        # R is a valid covariance but 2x2 for a 1-vector measurement
        model = ProcessModel(2, lambda x: x, lambda x: x[:1], np.eye(2), np.eye(2),
                             F_jac=lambda x: np.eye(2), H_jac=lambda x: np.array([[1.0, 0.0]]))
        init = FilterState([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError, match=re.escape(
                "R must be 1x1 for a 1-vector measurement, got (2, 2)")):
            update(predict(init, model), [1.0], model)
        trace = trace_from_pairs([(1, 1.0)], "n0", SensorKind.TEMPERATURE)
        with pytest.raises(ValueError, match=r"^tick 1: R must be 1x1"):
            run_filter(model, init, trace)


def raise_alike(fast, public):
    """`fast()` raises the exception type and message that `public()` does."""
    with pytest.raises(Exception) as expected:
        public()
    with pytest.raises(type(expected.value), match=re.escape(str(expected.value))) as got:
        fast()
    assert type(got.value) is type(expected.value)


def unchecked_model(*args, **kwargs) -> ProcessModel:
    """A ProcessModel that skips its own checks, to drive a filter step into
    a state that the step's checks must still catch."""
    model = object.__new__(ProcessModel)
    vars(model).update(F_jac=None, H_jac=None)
    names = ("state_dim", "f", "h", "Q", "R", "F_jac", "H_jac")
    vars(model).update(zip(names, args), **kwargs)
    return model


# ProcessModel rejects this Q, which is not PSD; neither is P' = F 0 F^T + Q
NON_PSD_Q_MODEL = unchecked_model(
    2, lambda x: x, lambda x: x[:1], np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[1.0]]),
    F_jac=lambda x: np.eye(2), H_jac=lambda x: np.array([[1.0, 0.0]]),
)


class TestStepConstructor:
    """predict and update build their result through _filter_state, which
    must fail exactly where the public FilterState(...) would."""

    @pytest.mark.parametrize("x, p", [
        ([[0.0]], [[1.0]]),                      # x_hat not a vector
        ([0.0, 1.0], [[1.0]]),                   # P of the wrong size
        ([np.nan], [[1.0]]),
        ([0.0], [[np.inf]]),
        ([0.0], [[-1.0]]),
        ([0.0, 0.0], [[1.0, 0.0], [0.0, -1e-3]]),
        ([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]]),  # symmetric, not PSD
    ])
    def test_same_error_as_public_constructor(self, x, p):
        raise_alike(lambda: _filter_state(np.array(x), np.array(p), 1),
                    lambda: FilterState(x, p, 1))

    @pytest.mark.parametrize("f, x1", [
        (lambda x: np.array([x[0], x[0]]), [0.5, 0.5]),
        (lambda x: np.reshape(x, (1, 1)), [[0.5]]),
    ])
    def test_wrong_shape_from_model_f(self, f, x1):
        model = scalar_model(0.1, 0.1, f=f, F_jac=lambda x: np.array([[1.0]]))
        state = FilterState([0.5], [[1.0]])
        raise_alike(lambda: predict(state, model), lambda: FilterState(x1, [[1.1]], 1))

    def test_overflowing_covariance_is_numeric_failure(self):
        model = scalar_model(0.0, 1.0, F_jac=lambda x: np.array([[1e10]]))
        state = FilterState([1.0], [[1e300]])
        with np.errstate(over="ignore"):
            raise_alike(lambda: predict(state, model), lambda: FilterState([1.0], [[np.inf]], 1))

    def test_non_psd_covariance_from_predict(self):
        state = FilterState([0.0, 0.0], np.zeros((2, 2)))
        raise_alike(lambda: predict(state, NON_PSD_Q_MODEL),
                    lambda: FilterState([0.0, 0.0], [[0.0, 1.0], [1.0, 0.0]], 1))

    @pytest.mark.parametrize("model, p0, error, message", [
        (NON_PSD_Q_MODEL, np.zeros((2, 2)), ValueError, "P must be positive semi-definite"),
        (scalar_model(0.0, 0.0), [[0.0]], SingularBracketError, "is singular; check R"),
        (scalar_model(0.0, 1.0, F_jac=lambda x: np.array([[1e10]])), [[1e300]],
         NumericFailureError, "filter state contains non-finite values"),
    ])
    def test_run_filter_prefixes_tick(self, model, p0, error, message):
        init = FilterState(np.zeros(model.state_dim), p0)
        trace = trace_from_pairs([(5, 1.0)], "n0", SensorKind.TEMPERATURE)
        with np.errstate(over="ignore"), pytest.raises(error) as exc:
            run_filter(model, init, trace)
        assert type(exc.value) is error
        assert str(exc.value).startswith("tick 5: ") and message in str(exc.value)

    def test_state_neither_freezes_nor_aliases_what_f_returns(self):
        buffer = np.zeros(1)

        def f(x):
            buffer[:] = 2.0 * x
            return buffer

        state = predict(FilterState([1.0], [[1.0]]), scalar_model(0.1, 0.1, f=f))
        assert buffer.flags.writeable
        assert not np.shares_memory(state.x_hat, buffer)
        buffer[0] = -7.0
        assert state.x_hat[0] == 2.0
        assert not state.x_hat.flags.writeable and not state.P.flags.writeable

    def test_run_filter_equals_public_step_by_step_path(self):
        rng = np.random.default_rng(3)

        def f(x):
            return np.array([x[0] + 0.1 * np.sin(x[1]), 0.95 * x[1] + 0.05 * x[0] ** 2])

        def h(x):
            return np.array([np.hypot(x[0], x[1] + 2.0)])

        model = ProcessModel(2, f, h, np.diag([1e-3, 2e-3]), np.array([[0.05]]))
        init = FilterState([0.3, -0.2], np.diag([0.5, 0.5]))
        trace = trace_from_pairs(
            [(t, 2.0 + rng.normal(0.0, 0.2)) for t in range(1, 60)], "n0", SensorKind.PRESSURE
        )
        state = init
        for point in run_filter(model, init, trace):
            prior = predict(state, model)
            state = update(prior, [point.measurement], model)
            # the public constructor accepts every state the fast path built
            state = FilterState(state.x_hat, state.P, state.tick)
            assert point.state.x_hat.tobytes() == state.x_hat.tobytes()
            assert point.state.P.tobytes() == state.P.tobytes()
            assert point.state.tick == state.tick
            innovation = np.array([point.measurement]) - h(prior.x_hat)
            assert point.innovation.tobytes() == innovation.tobytes()


class TestClosedFormRandomWalk:
    """The closed-form scalar filter against the general n-D filter."""

    @given(
        q=st.floats(1e-6, 10),
        r=st.floats(1e-6, 10),
        p0=st.floats(1e-6, 10),
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_estimates_equal_run_filter_exactly(self, q, r, p0, values):
        trace = trace_from_pairs(list(enumerate(values)), "n0", SensorKind.TEMPERATURE)
        init = FilterState([values[0]], [[p0]])
        expected = [p.estimate for p in run_filter(random_walk_model(q, r), init, trace)]
        assert random_walk_estimates(values, q, r, values[0], p0) == expected

    def test_zero_noise_and_variance_is_singular(self):
        trace = trace_from_pairs([(0, 1.0), (1, 2.0)], "n0", SensorKind.TEMPERATURE)
        with pytest.raises(SingularBracketError):
            run_filter(random_walk_model(0.0, 0.0), FilterState([1.0], [[0.0]]), trace)
        with pytest.raises(SingularBracketError, match="tick 0"):
            random_walk_estimates([1.0, 2.0], 0.0, 0.0, 1.0, 0.0)

    def test_non_finite_measurement_raises(self):
        with pytest.raises(NumericFailureError):
            random_walk_step(0.0, 1.0, float("inf"), 0.1, 0.1)
        with pytest.raises(NumericFailureError):
            random_walk_step(0.0, 1.0, float("nan"), 0.1, 0.1)

    @pytest.mark.parametrize("q, r, p0", [(-0.1, 0.1, 1.0), (0.1, float("nan"), 1.0),
                                          (0.1, 0.1, -1.0), (float("inf"), 0.1, 1.0)])
    def test_bad_parameters_rejected(self, q, r, p0):
        with pytest.raises(ValueError):
            random_walk_estimates([1.0], q, r, 1.0, p0)

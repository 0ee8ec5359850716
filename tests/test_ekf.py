import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pipefuse import ekf
from pipefuse.core import SensorKind, trace_from_pairs
from pipefuse.ekf import (
    EPS_SYM,
    FilterState,
    NumericFailureError,
    ProcessModel,
    SingularBracketError,
    check_random_walk,
    numeric_jacobian,
    predict,
    random_walk_model,
    random_walk_step,
    run_filter,
    update,
    _check_covariance,
    _check_finite,
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
        # nan and inf are refused as arguments: inf used to give an all-zero
        # Jacobian, nan a NumericFailureError
        for eps, shown in ((np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"), (-1e-6, "-1e-06"),
                           ([1e-6, np.nan], "[1e-06, nan]")):
            with pytest.raises(ValueError) as got:
                numeric_jacobian(np.tanh, np.array([0.5, 1.0]), eps=eps)
            assert type(got.value) is ValueError
            assert str(got.value) == f"eps must be positive and finite, got {shown}"

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
    with np.errstate(all="ignore"):  # the functions below overflow and divide by zero
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
    lambda v: [v[0] * v[-1], float(v.sum())],
]

jacobian_components = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -5e-324]),
    st.floats(-1e3, 1e3),
    st.floats(1e150, 1e300).flatmap(lambda a: st.sampled_from([a, -a])),
)


# Outputs whose shape depends on the probe, at x = SHAPE_X: probe j steps
# component j, and the hi probes step it up.
SHAPE_X = np.array([1.0, 2.0, 3.0])


def stepped(v):
    return int(np.argmax(v != SHAPE_X))


def is_hi(v):
    return bool((v > SHAPE_X).any())


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

    @pytest.mark.parametrize("fn", [
        lambda v: np.zeros(stepped(v) + 1),
        lambda v: [v[0]] * (stepped(v) + 1),
    ], ids=["array", "list"])
    def test_output_ragged_across_probes(self, fn):
        # Converting all 2n outputs at once would report shape (6,); numpy's
        # error is the one converting the hi side alone gives, shape (3,).
        with pytest.raises(ValueError) as want:
            np.array([fn(SHAPE_X + d) for d in np.diag([1e-6, 2e-6, 3e-6])], dtype=float)
        assert "(3,)" in str(want.value)
        with pytest.raises(ValueError):
            reference_numeric_jacobian(fn, SHAPE_X)
        with pytest.raises(ValueError) as got:
            numeric_jacobian(fn, SHAPE_X)
        assert type(got.value) is ValueError
        assert str(got.value) == str(want.value)

    def test_sides_of_different_widths_do_not_broadcast(self):
        fn = lambda v: np.zeros(2 if is_hi(v) else 3)
        with pytest.raises(ValueError):
            reference_numeric_jacobian(fn, SHAPE_X)
        with pytest.raises(ValueError) as got:
            numeric_jacobian(fn, SHAPE_X)
        assert type(got.value) is ValueError
        assert str(got.value).startswith(
            "operands could not be broadcast together with shapes (3,2) (3,3)")

    @pytest.mark.parametrize("fn", [
        lambda v: np.full(2 if is_hi(v) else 1, v[0]),
        lambda v: v[1] if is_hi(v) else np.array([v[1]]),
        lambda v: [v[0] ** 2, v[-1]],
        lambda v: np.zeros(0),
    ], ids=["widths-2-and-1", "scalar-and-1-vector", "list", "empty"])
    def test_sides_that_broadcast_equal_the_reference(self, fn):
        got, want = numeric_jacobian(fn, SHAPE_X), reference_numeric_jacobian(fn, SHAPE_X)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("error")  # no numpy warning may escape the probes
    @pytest.mark.parametrize("fn", [
        lambda v: v,
        lambda v: np.copysign(1.0, v),
        lambda v: np.isnan(v) * 1.0,
        lambda v: float(np.isinf(v).sum()),
    ], ids=["identity", "copysign", "isnan", "count-inf"])
    @pytest.mark.parametrize("x", [[1.0, np.inf], [np.nan, 2.0], [-np.inf, -0.0]],
                             ids=["inf", "nan", "-inf-and--0"])
    def test_non_finite_and_signed_zero_probes(self, fn, x):
        # a non-finite x_j has a non-finite default step: its probes must be
        # x +- diag(steps) all the same, with 0.0, not 0 * inf = nan, off the
        # diagonal
        x = np.array(x)
        with np.errstate(all="ignore"):
            steps = 1e-6 * np.maximum(1.0, np.abs(x))
            want_probes = [*(x + np.diag(steps)), *(x - np.diag(steps))]
        probes = []
        recording = lambda v: probes.append(v.copy()) or fn(v)
        try:
            with np.errstate(all="ignore"):
                want = reference_numeric_jacobian(fn, x)
        except NumericFailureError as exc:
            with pytest.raises(NumericFailureError, match=f"^{re.escape(str(exc))}$"):
                numeric_jacobian(recording, x)
        else:
            got = numeric_jacobian(recording, x)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert [p.tobytes() for p in probes] == [p.tobytes() for p in want_probes]

    @pytest.mark.parametrize("x, shape", [
        ([[1.0], [2.0]], "(2, 1)"),  # a column: its probes would be rows of 2-vectors
        ([[1.0, 2.0]], "(1, 2)"),  # a row
        ([], "(0,)"),
        ([[]], "(1, 0)"),
    ], ids=["column", "row", "empty", "empty-row"])
    def test_refuses_a_point_that_is_not_a_non_empty_vector(self, x, shape):
        calls = []
        fn = lambda v: calls.append(v) or 2 * np.atleast_1d(v)
        with pytest.raises(ValueError) as got:
            numeric_jacobian(fn, x)
        assert str(got.value) == f"x must be a non-empty vector, got shape {shape}"
        assert calls == []


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
        (np.zeros((0, 0)), np.eye(1), "Q must not be empty, got shape (0, 0)"),
        (np.eye(2), np.zeros((0, 0)), "R must not be empty, got shape (0, 0)"),
    ])
    def test_process_model_rejects_bad_noise_covariance(self, q, r, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ProcessModel(2, lambda x: x, lambda x: x[:1], q, r)

    @pytest.mark.parametrize("x_hat", [[], np.zeros((0, 2))])
    def test_filter_state_rejects_an_empty_state(self, x_hat):
        with pytest.raises(ValueError) as got:
            FilterState(x_hat, np.zeros((0, 0)))
        assert str(got.value) == f"x_hat must not be empty, got shape {np.shape(x_hat)}"

    @pytest.mark.parametrize("tick", [np.nan, 1.5, "3", None, -1, np.int64(-2), 2.0, True, False])
    def test_filter_state_rejects_a_tick_that_is_not_a_non_negative_integer(self, tick):
        with pytest.raises(ValueError) as got:
            FilterState([0.0], [[1.0]], tick)
        assert str(got.value) == f"tick must be a non-negative integer, got {tick!r}"

    def test_filter_state_takes_any_non_negative_integer_tick(self):
        for tick in (0, 7, np.int64(3), 10**30):
            state = predict(FilterState([0.0], [[1.0]], tick), scalar_model(0.1, 0.1))
            assert state.tick == tick + 1

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
        ([], np.zeros((0, 0))),                  # no state at all
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
        (lambda x: np.zeros(0), []),
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


def reference_filter(model, init, trace):
    """run_filter as a loop of public steps, update(predict(FilterState(...))),
    each state rebuilt by the public constructor and each failing step's
    error prefixed with its tick: the oracle of TestRunFilterOracle."""
    points, state = [], init
    with np.errstate(all="ignore"):
        for tick, value in zip(trace.timestamps, trace.values):
            try:
                prior = predict(FilterState(state.x_hat, state.P, state.tick), model)
                innovation = value - np.atleast_1d(np.asarray(model.h(prior.x_hat), dtype=float))
                state = update(FilterState(prior.x_hat, prior.P, prior.tick), [value], model)
            except (NumericFailureError, ValueError) as exc:
                raise type(exc)(f"tick {tick}: {exc}") from None
            points.append((tick, value, state, innovation))
    return points


# Failures that a counter model makes at reading k. Component 0 of its state
# counts the readings (x[0] is k after k of them, exactly): f adds 1 to it,
# nothing else depends on it and h does not observe it. The failures of h and
# H_jac come one reading early: they see the prior, whose x[0] is k + 1.
COUNTER_FAILURES = ("f_non_finite", "non_psd_posterior", "wrong_shape", "writes_argument",
                    "h_writes_argument")


def smooth_model(rng, n, analytic):
    """f(x) = A x + 0.1 sin(x) with A contracting, h(x) = c.x + 0.05 |x|^2."""
    A = rng.normal(size=(n, n))
    A *= 0.9 / max(1.0, max(abs(np.linalg.eigvals(A))))
    c = rng.normal(size=n)
    jacobians = {}
    if analytic:
        jacobians = dict(F_jac=lambda x: A + 0.1 * np.diag(np.cos(x)),
                         H_jac=lambda x: (c + 0.1 * x)[None, :])
    return dict(f=lambda x: A @ x + 0.1 * np.sin(x), h=lambda x: np.array([c @ x + 0.05 * x @ x]),
                Q=np.diag(rng.uniform(1e-3, 0.5, n)), R=np.array([[rng.uniform(1e-2, 1.0)]]),
                **jacobians)


def counter_model(rng, n, analytic, failure, k):
    """A model of n >= 2 components whose `failure` starts at x[0] = k."""
    rest = smooth_model(rng, n - 1, analytic=True)
    A, observed = rest["F_jac"], np.concatenate([[0.0], np.ones(n - 1)])[None, :]
    on = lambda x: x[0] > k - 0.5

    def f(x):
        if on(x):
            if failure == "f_non_finite":
                return np.full(n, np.nan)
            if failure == "wrong_shape":  # (1,) for an n-state model
                return x[:1] + 1.0
            if failure == "writes_argument":
                x += 0.0
        return np.concatenate([x[:1] + 1.0, rest["f"](x[1:])])

    def F_jac(x):
        jac = np.eye(n)
        jac[1:, 1:] = A(x[1:])
        return jac

    def h(x):
        if failure == "h_writes_argument" and on(x):
            x += 0.0
        return np.array([x[1:].sum()])

    model = dict(f=f, h=h,
                 Q=np.diag(np.concatenate([[1e-3], np.diag(rest["Q"])])), R=rest["R"])
    if analytic:
        model.update(F_jac=F_jac, H_jac=lambda x: observed)
    if failure == "non_psd_posterior":
        # R < 0 below S: once H observes, the posterior variance goes
        # negative (n = 2) or P loses its PSD (n >= 3); before, H = 0
        model.update(R=np.array([[-1e-6]]),
                     H_jac=lambda x: observed if on(x) else np.zeros((1, n)))
    return model


@st.composite
def filter_cases(draw):
    failure = draw(st.sampled_from((None, "singular", "overflow") + COUNTER_FAILURES))
    n = draw(st.integers(2 if failure in COUNTER_FAILURES else 1, 5))
    analytic = draw(st.booleans())
    steps = draw(st.integers(1, 25))
    k = draw(st.integers(0, steps + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if failure in COUNTER_FAILURES:
        parts = counter_model(rng, n, analytic, failure, k)
        x0 = np.concatenate([[0.0], rng.normal(size=n - 1)])
    else:
        parts = smooth_model(rng, n, analytic)
        x0 = rng.normal(size=n)
    p0 = np.diag(rng.uniform(0.1, 2.0, n))
    if failure == "singular":  # S = H 0 H^T + 0
        parts.update(Q=np.zeros((n, n)), R=np.zeros((1, 1)))
        p0 = np.zeros((n, n))
    values = rng.normal(0.0, 2.0, steps)
    if failure == "overflow":  # readings of +-1.5e308 from reading k on
        values[k:] = 1.5e308 * (-1.0) ** np.arange(values[k:].size)
    start = draw(st.integers(0, 5))
    trace = trace_from_pairs(list(enumerate(values, start=start)), "n0", SensorKind.PRESSURE)
    build = unchecked_model if failure == "non_psd_posterior" else ProcessModel  # R < 0
    model = build(n, parts.pop("f"), parts.pop("h"), parts.pop("Q"), parts.pop("R"), **parts)
    return failure, k, model, FilterState(x0, p0), trace


class TestRunFilterOracle:
    """run_filter checks its states once per run and reruns the checked loop
    on a failure; either way it gives the step-by-step path's points, bytes
    and errors."""

    @given(case=filter_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_public_step_by_step_loop(self, case):
        failure, k, model, init, trace = case
        try:
            expected = reference_filter(model, init, trace)
        except Exception as exc:
            with pytest.raises(type(exc)) as got:
                run_filter(model, init, trace)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            return
        # each failure the cases draw happens once its reading is reached; an
        # overflow may stay finite for a reading or two
        early = failure in ("non_psd_posterior", "h_writes_argument")
        assert failure in (None, "overflow") or (
            failure != "singular" and k >= len(trace) + early)
        points = run_filter(model, init, trace)
        assert len(points) == len(expected)
        for point, (tick, value, state, innovation) in zip(points, expected):
            assert (point.tick, point.measurement, point.state.tick) == (tick, value, state.tick)
            assert point.state.x_hat.tobytes() == state.x_hat.tobytes()
            assert point.state.P.tobytes() == state.P.tobytes()
            assert point.innovation.tobytes() == innovation.tobytes()
            assert not point.state.x_hat.flags.writeable and not point.state.P.flags.writeable
            assert type(point.state) is FilterState

    @pytest.mark.parametrize("analytic", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_checked_rerun_gives_the_fast_pass_bytes(self, monkeypatch, n, analytic):
        # the fast pass takes update's innovation y - h(x); the checked rerun
        # works out value - h(x) itself, so the two must agree byte for byte
        shift = 0.9 * np.eye(n) + 0.1 * np.eye(n, k=1)

        def h(x):
            return np.array([np.sin(x[0]) + 0.3 * x @ x])

        jacobians = {}
        if analytic:
            jacobians = dict(F_jac=lambda x: shift,
                             H_jac=lambda x: (0.6 * x + np.cos(x[0]) * np.eye(n)[0])[None, :])
        model = ProcessModel(n, lambda x: shift @ x, h, 1e-3 * np.eye(n), np.array([[0.05]]),
                             **jacobians)
        values = np.random.default_rng(n).normal(1.0, 3.0, 40)
        trace = trace_from_pairs(list(enumerate(values)), "n0", SensorKind.PRESSURE)
        init = FilterState(np.linspace(-0.7, 0.4, n), np.eye(n))
        fast = run_filter(model, init, trace)

        def fail(*args):
            raise NumericFailureError("forced")

        monkeypatch.setattr(ekf, "_run_unchecked", fail)
        checked = run_filter(model, init, trace)
        assert len(fast) == len(checked) == len(values)
        for a, b in zip(fast, checked):
            assert (a.tick, a.measurement, a.state.tick) == (b.tick, b.measurement, b.state.tick)
            assert a.innovation.tobytes() == b.innovation.tobytes()
            assert a.state.x_hat.tobytes() == b.state.x_hat.tobytes()
            assert a.state.P.tobytes() == b.state.P.tobytes()
            assert type(a.state) is FilterState
            assert not a.state.x_hat.flags.writeable and not a.state.P.flags.writeable

    def test_overflow_on_the_last_reading_names_its_tick(self):
        # the last posterior is the first non-finite state: no later step
        # fails on it, so only the check after the loop can see it
        trace = trace_from_pairs([(0, -1.5e308), (1, 1.5e308)], "n0", SensorKind.PRESSURE)
        model, init = scalar_model(0.1, 0.1), FilterState([0.0], [[1.0]])
        with pytest.raises(NumericFailureError) as got:
            run_filter(model, init, trace)
        assert str(got.value) == "tick 1: filter state contains non-finite values"
        with pytest.raises(NumericFailureError) as expected:
            reference_filter(model, init, trace)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("k", [0, 2])
    def test_wrong_shape_that_broadcasts_into_a_valid_state(self, n, k):
        # f returns (1,) from reading k on. H = 0, so K = 0 and the posterior
        # is (n,) + x_hat: the bad x_hat of each prior broadcasts into a
        # finite, PSD posterior. Only its shape shows the fault.
        identity, zero = np.eye(n), np.zeros((1, n))

        def f(x):
            return x[:1] + 1.0 if x[0] > k - 0.5 else x + np.eye(n)[0]

        model = ProcessModel(n, f, lambda x: np.array([0.0]), np.eye(n), np.eye(1),
                             F_jac=lambda x: identity, H_jac=lambda x: zero)
        trace = trace_from_pairs(list(enumerate(np.arange(k + 3.0))), "n0", SensorKind.PRESSURE)
        with pytest.raises(ValueError) as got:
            run_filter(model, FilterState(np.zeros(n), np.eye(n)), trace)
        assert str(got.value) == f"tick {k}: shape mismatch: x_hat (1,), P ({n}, {n})"


class TestClosedFormRandomWalk:
    """The closed-form scalar filter against the general n-D filter."""

    def test_zero_noise_and_variance_is_singular(self):
        trace = trace_from_pairs([(0, 1.0), (1, 2.0)], "n0", SensorKind.TEMPERATURE)
        with pytest.raises(SingularBracketError):
            run_filter(random_walk_model(0.0, 0.0), FilterState([1.0], [[0.0]]), trace)
        with pytest.raises(SingularBracketError):
            random_walk_step(1.0, 0.0, 2.0, 0.0, 0.0)

    def test_non_finite_measurement_raises(self):
        with pytest.raises(NumericFailureError):
            random_walk_step(0.0, 1.0, float("inf"), 0.1, 0.1)
        with pytest.raises(NumericFailureError):
            random_walk_step(0.0, 1.0, float("nan"), 0.1, 0.1)

    @pytest.mark.parametrize("q, r, p0", [(-0.1, 0.1, 1.0), (0.1, float("nan"), 1.0),
                                          (0.1, 0.1, -1.0), (float("inf"), 0.1, 1.0)])
    def test_bad_parameters_rejected(self, q, r, p0):
        with pytest.raises(ValueError, match="must be finite and non-negative"):
            check_random_walk(q, r, p0)


def reference_check_covariance(p, name="P"):
    """_check_covariance as first written: the diagonal as a test per entry,
    and both sides of the PSD comparison computed for every matrix."""
    if (p.diagonal() < 0).any():
        raise ValueError(f"{name} diagonal must be non-negative")
    if np.linalg.eigvalsh(p)[0] < -EPS_SYM * max(1.0, float(np.abs(p).max())):
        raise ValueError(f"{name} must be positive semi-definite (within tolerance)")


def covariance_verdict(check, p, name="P"):
    """The message that check(p, name) raises, or None if p passes."""
    try:
        check(p, name)
    except ValueError as exc:
        return str(exc)
    return None


def boundary_matrix(scale, factor):
    """[[s, s + d], [s + d, s]], whose eigenvalues are -d and 2s + d, with d
    `factor` times the tolerance EPS_SYM * max(1, s)."""
    off = scale + factor * EPS_SYM * max(1.0, scale)
    return np.array([[scale, off], [off, scale]])


BOUNDARY_SCALES = [1e-6, 0.5, 1.0, 2.0, 1e6]  # |P|max below, at and above 1

COVARIANCE_CASES = [
    *(boundary_matrix(s, f) for s in BOUNDARY_SCALES for f in (1 - 1e-3, 1 + 1e-3)),
    np.zeros((1, 1)),
    np.zeros((3, 3)),
    np.array([[-0.0]]),
    np.array([[-0.0, 0.0], [0.0, 1.0]]),
    np.array([[-0.0, 1.0], [1.0, -0.0]]),   # -0.0 on the diagonal, eigenvalue -1
    np.array([[1.0, 1.0], [1.0, 1.0]]),     # singular: eigenvalue 0 up to rounding
    np.array([[-1e-300]]),
    np.array([[1.0, 2.0], [2.0, -0.5]]),    # negative diagonal and a negative eigenvalue
    np.diag([1e-12, 0.0, 3.0]),
]


class TestCovarianceCheckOracle:
    """_check_covariance against the formula it replaced: the same verdict and
    message on every matrix, alone and in FilterState, _filter_state and
    ProcessModel."""

    @pytest.mark.parametrize("scale", BOUNDARY_SCALES)
    def test_cases_straddle_the_tolerance(self, scale):
        for factor, passes in ((1 - 1e-3, True), (1 + 1e-3, False)):
            p = boundary_matrix(scale, factor)
            low = np.linalg.eigvalsh(p)[0]
            tolerance = EPS_SYM * max(1.0, float(np.abs(p).max()))
            assert low < 0 and bool(low >= -tolerance) is passes

    @pytest.mark.parametrize("p", COVARIANCE_CASES)
    def test_same_verdict_as_reference(self, p):
        for name in ("P", "Q", "R"):
            assert (covariance_verdict(_check_covariance, p, name)
                    == covariance_verdict(reference_check_covariance, p, name))

    @pytest.mark.parametrize("p", COVARIANCE_CASES)
    def test_constructors_agree_with_reference(self, p):
        n = p.shape[0]
        ident = lambda x: x
        public = lambda: FilterState(np.zeros(n), p)
        fast = lambda: _filter_state(np.zeros(n), p.copy(), 0)
        q_model = lambda: ProcessModel(n, ident, ident, p, np.eye(n))
        r_model = lambda: ProcessModel(n, ident, ident, np.eye(n), p)
        if covariance_verdict(reference_check_covariance, p) is None:
            assert public().P.tobytes() == fast().P.tobytes() == p.tobytes()
            assert q_model().Q.tobytes() == r_model().R.tobytes() == p.tobytes()
            return
        raise_alike(fast, public)
        for name, build in (("P", public), ("Q", q_model), ("R", r_model)):
            message = covariance_verdict(reference_check_covariance, p, name)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        magnitude=st.integers(-8, 8),
        shift=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_matrices_near_the_tolerance(self, seed, n, magnitude, shift):
        # a random symmetric matrix moved so that its smallest eigenvalue
        # lies within two tolerances of zero, on either side
        a = np.random.default_rng(seed).normal(0.0, 10.0**magnitude, (n, n))
        a = 0.5 * (a + a.T)
        tolerance = EPS_SYM * max(1.0, float(np.abs(a).max()))
        p = a + (shift * tolerance - np.linalg.eigvalsh(a)[0]) * np.eye(n)
        assert (covariance_verdict(_check_covariance, p)
                == covariance_verdict(reference_check_covariance, p))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), count=st.integers(1, 12),
           data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_stack_gets_the_single_matrix_verdict(self, seed, n, count, data):
        # PSD fillers with |P|max from 1e-12 to 1e12, so that one tolerance
        # over the whole stack would be wrong for the bad matrix
        rng = np.random.default_rng(seed)
        stack = np.empty((count, n, n))
        for m in stack:
            a = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-6, 7)
            m[:] = a @ a.T
        bad = data.draw(st.sampled_from(("negative_diagonal", "below", "above")[:1 if n == 1 else 3]))
        index = data.draw(st.integers(0, count - 1))
        p = stack[index]
        if bad == "negative_diagonal":
            j = rng.integers(n)
            p[j, j] = -(10.0 ** rng.integers(-300, 3))
        else:
            # boundary_matrix's 2x2 block among smaller positive variances:
            # the same smallest eigenvalue and |P|max as the block alone
            scale = data.draw(st.sampled_from(BOUNDARY_SCALES))
            p[:] = np.diag(rng.uniform(0.1, 1.0, n) * scale)
            j = rng.integers(n - 1)
            p[j:j + 2, j:j + 2] = boundary_matrix(scale, 1 + 1e-3 if bad == "below" else 1 - 1e-3)
        verdicts = [covariance_verdict(reference_check_covariance, m) for m in stack]
        assert [i for i, v in enumerate(verdicts) if v] == ([] if bad == "above" else [index])
        assert covariance_verdict(_check_covariance, stack) == verdicts[index]

    def test_stack_with_nan_is_non_finite_as_one_state(self):
        stack = np.stack([np.eye(3), np.diag([1.0, 2.0, 3.0]), 4.0 * np.eye(3)])
        stack[1, 0, 2] = stack[1, 2, 0] = np.nan
        xs = np.zeros((3, 3))

        def batched():
            _check_finite(xs, stack)
            _check_covariance(stack)

        raise_alike(batched, lambda: _filter_state(np.zeros(3), stack[1].copy(), 0))
        stack[1] = np.eye(3)
        xs[2, 1] = np.inf
        _check_covariance(stack)  # the covariances pass; an x_hat row does not
        raise_alike(batched, lambda: _filter_state(xs[2].copy(), np.eye(3), 0))


class TestTracedEntryPoints:
    """bench/tracing.py times the filter by rebinding predict, update and
    numeric_jacobian in this module; a step that stopped calling them
    through the module would read 0 there without any error."""

    @pytest.mark.parametrize("analytic, jacobians_per_reading", [(False, 2), (True, 0)])
    def test_run_filter_calls_each_step_through_the_module(
            self, monkeypatch, analytic, jacobians_per_reading):
        names = ("predict", "update", "numeric_jacobian")
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _name=name, _original=getattr(ekf, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(ekf, name, counted)

        def f(x):
            return np.array([x[0] + 0.1 * x[1], 0.9 * x[1]])

        def h(x):
            return np.array([np.hypot(x[0], x[1] + 2.0)])

        jacobians = {}
        if analytic:
            jacobians = dict(F_jac=lambda x: np.array([[1.0, 0.1], [0.0, 0.9]]),
                             H_jac=lambda x: np.array([[x[0], x[1] + 2.0]]) / h(x))
        model = ProcessModel(2, f, h, np.diag([1e-3, 2e-3]), np.array([[0.05]]), **jacobians)
        trace = trace_from_pairs([(t, 2.0 + 0.1 * t) for t in range(1, 8)], "n0",
                                 SensorKind.PRESSURE)
        run_filter(model, FilterState([0.3, -0.2], np.eye(2)), trace)
        assert calls == {"predict": 7, "update": 7, "numeric_jacobian": 7 * jacobians_per_reading}


class TestModelCalls:
    """A run that succeeds evaluates h once per reading besides the
    Jacobian's probes: the innovation is update's own."""

    @pytest.mark.parametrize("analytic", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_calls_per_reading_of_a_successful_run(self, n, analytic):
        calls = dict.fromkeys(("f", "h", "F_jac", "H_jac"), 0)

        def counted(name, fn):
            def call(x):
                calls[name] += 1
                return fn(x)
            return call

        shift = 0.9 * np.eye(n) + 0.1 * np.eye(n, k=1)
        f = counted("f", lambda x: shift @ x)
        h = counted("h", lambda x: np.array([0.5 * x @ x + x[0]]))
        jacobians = {}
        if analytic:
            jacobians = dict(F_jac=counted("F_jac", lambda x: shift),
                             H_jac=counted("H_jac", lambda x: (x + np.eye(n)[0])[None, :]))
        model = ProcessModel(n, f, h, 1e-3 * np.eye(n), np.array([[0.05]]), **jacobians)
        readings = 6
        trace = trace_from_pairs([(t, 1.0 + 0.1 * t) for t in range(readings)], "n0",
                                 SensorKind.PRESSURE)
        points = run_filter(model, FilterState(np.full(n, 0.5), np.eye(n)), trace)
        assert len(points) == readings
        if analytic:
            want = dict(f=readings, h=readings, F_jac=readings, H_jac=readings)
        else:
            want = dict(f=(1 + 2 * n) * readings, h=(1 + 2 * n) * readings, F_jac=0, H_jac=0)
        assert calls == want

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pipefuse import consensus
from pipefuse.consensus import (
    CommGraph,
    ConsensusState,
    DisconnectedGraphError,
    ConsensusRun,
    consensus_step,
    metropolis_weights,
    mse_dispersion,
    run_consensus,
)


@st.composite
def connected_graphs(draw, max_n=20, min_n=1):
    """Random connected graph: a random spanning tree plus extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        edges.add((j, i))
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    for i, j in extra:
        if i != j:
            edges.add((min(i, j), max(i, j)))
    return CommGraph.from_edges(n, edges)


def ring(n):
    return CommGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def ring_with_chords(n):
    """A ring plus a diametral chord from every sixth agent."""
    return CommGraph.from_edges(
        n, [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(0, n // 2, 6)]
    )


def block_edges(n, count=10):
    """The round counts at which run_consensus ends its first `count`
    blocks of rounds for n agents."""
    cap = max(1, min(consensus._BLOCK_ROUNDS, consensus._BLOCK_CELLS // n))
    edges, rows, total = [], 1, 0
    for _ in range(count):
        total += min(rows, cap)
        edges.append(total)
        rows *= 2
    return edges


def assert_run_equals_step_by_step(values, graph, tol, max_iter):
    """run_consensus gives, bit for bit, what the public consensus_step
    loop with np.mean dispersions gives, and returns its run."""

    def np_mean_dispersion(state):
        mean = float(np.mean(state.estimates))
        return float(np.mean((state.estimates - mean) ** 2))

    W = metropolis_weights(graph)
    state = ConsensusState(values)
    history = [np_mean_dispersion(state)]
    while history[-1] >= tol and state.iteration < max_iter:
        state = consensus_step(state, W)
        assert np.array_equal(mse_dispersion(state), np_mean_dispersion(state), equal_nan=True)
        history.append(np_mean_dispersion(state))
    run = run_consensus(ConsensusState(values), graph, tol=tol, max_iter=max_iter)
    assert np.array(run.mse_history).tobytes() == np.array(history).tobytes()
    assert run.iterations == state.iteration
    assert run.converged == (history[-1] < tol)
    assert run.estimates.tobytes() == state.estimates.tobytes()
    assert not run.estimates.flags.writeable
    return run


class TestCommGraph:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            CommGraph.from_edges(3, [(0, 0)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            CommGraph.from_edges(2, [(0, 5)])

    def test_edges_normalized_undirected(self):
        g = CommGraph.from_edges(3, [(2, 0), (0, 2), (1, 0)])
        assert g.edges == frozenset({(0, 2), (0, 1)})

    def test_connectivity(self):
        assert CommGraph.path(5).is_connected()
        assert CommGraph(1, frozenset()).is_connected()
        assert not CommGraph.from_edges(4, [(0, 1), (2, 3)]).is_connected()


class TestMetropolisWeights:
    def test_two_node_path(self):
        W = metropolis_weights(CommGraph.path(2))
        assert np.allclose(W, [[0.5, 0.5], [0.5, 0.5]])

    def test_single_node(self):
        W = metropolis_weights(CommGraph(1, frozenset()))
        assert np.array_equal(W, [[1.0]])

    def test_complete_triangle(self):
        W = metropolis_weights(CommGraph.complete(3))
        assert np.allclose(W, np.full((3, 3), 1.0 / 3.0))

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError):
            metropolis_weights(CommGraph.from_edges(4, [(0, 1), (2, 3)]))

    @given(graph=connected_graphs())
    @settings(max_examples=50, deadline=None)
    def test_symmetric_doubly_stochastic_nonnegative(self, graph):
        W = metropolis_weights(graph)
        assert np.allclose(W, W.T)
        assert np.allclose(W.sum(axis=0), 1.0)
        assert np.allclose(W.sum(axis=1), 1.0)
        assert np.all(W >= -1e-15)


class TestConsensusState:
    @pytest.mark.parametrize("values, error", [
        ([float("nan")], "estimates must be finite, got nan at index 0"),
        ([1.0, float("inf")], "estimates must be finite, got inf at index 1"),
        ([2.0, 3.0, -float("inf")], "estimates must be finite, got -inf at index 2"),
    ])
    def test_non_finite_estimate_rejected(self, values, error):
        with pytest.raises(ValueError) as exc:
            ConsensusState(values)
        assert str(exc.value) == error


class TestConsensusStep:
    def test_consensus_is_fixed_point(self):
        W = metropolis_weights(CommGraph.complete(4))
        state = ConsensusState([3.5] * 4)
        out = consensus_step(state, W)
        assert np.allclose(out.estimates, 3.5)
        assert out.iteration == 1

    def test_two_node_averaging(self):
        W = metropolis_weights(CommGraph.path(2))
        out = consensus_step(ConsensusState([0.0, 2.0]), W)
        assert np.allclose(out.estimates, [1.0, 1.0])

    def test_triangle_averages_in_one_step(self):
        W = metropolis_weights(CommGraph.complete(3))
        out = consensus_step(ConsensusState([1.0, 2.0, 3.0]), W)
        assert np.allclose(out.estimates, [2.0, 2.0, 2.0])


class TestMseDispersion:
    def test_uniform_is_zero(self):
        assert mse_dispersion(ConsensusState([4.0, 4.0, 4.0])) == 0.0

    def test_two_points(self):
        assert mse_dispersion(ConsensusState([0.0, 2.0])) == pytest.approx(1.0)

    def test_three_points(self):
        assert mse_dispersion(ConsensusState([1.0, 2.0, 3.0])) == pytest.approx(2.0 / 3.0)


class TestRunConsensus:
    def test_triangle_converges_in_one_iteration(self):
        run = run_consensus(ConsensusState([1.0, 2.0, 3.0]), CommGraph.complete(3),
                            tol=1e-12, max_iter=100)
        assert run.iterations == 1
        assert run.converged
        assert np.allclose(run.estimates, 2.0)
        assert len(run.mse_history) == 2

    def test_already_consensual_needs_zero_iterations(self):
        run = run_consensus(ConsensusState([5.0, 5.0, 5.0]), CommGraph.path(3))
        assert run.iterations == 0
        assert run.converged
        assert run.mse_history == (0.0,)

    def test_path_graph_reaches_initial_mean(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=5)
        run = run_consensus(ConsensusState(values), CommGraph.path(5),
                            tol=1e-9, max_iter=10_000)
        assert run.converged
        assert np.all(np.abs(run.estimates - values.mean()) < 1e-4)

    def test_non_convergence_flag(self):
        run = run_consensus(ConsensusState([0.0, 100.0]), CommGraph.path(2),
                            tol=1e-30, max_iter=1)
        # one averaging step hits exact agreement here, so force a harder case
        assert run.converged  # path(2) averages exactly in one step
        hard = run_consensus(ConsensusState([0.0, 1.0, 100.0]), CommGraph.path(3),
                             tol=1e-30, max_iter=2)
        assert not hard.converged
        assert hard.iterations == 2

    def test_bad_arguments(self):
        state = ConsensusState([1.0, 2.0])
        with pytest.raises(ValueError):
            run_consensus(state, CommGraph.path(2), tol=0.0)
        with pytest.raises(ValueError):
            run_consensus(state, CommGraph.path(2), max_iter=0)
        with pytest.raises(ValueError):
            run_consensus(state, CommGraph.path(3))

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, "3", None])
    def test_non_integer_max_iter_rejected(self, max_iter):
        state = ConsensusState([0.0, 1.0, 100.0])
        message = rf"^max_iter must be an integer >= 1, got {max_iter}$"
        with pytest.raises(ValueError, match=message):
            run_consensus(state, CommGraph.path(3), tol=1e-30, max_iter=max_iter)

    def test_numpy_integer_max_iter_accepted(self):
        run = run_consensus(ConsensusState([0.0, 1.0, 100.0]), CommGraph.path(3),
                            tol=1e-30, max_iter=np.int64(3))
        assert run.iterations == 3


class TestProperties:
    @given(graph=connected_graphs(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mean_preserved_every_iteration(self, graph, data):
        values = data.draw(
            st.lists(st.floats(-1e3, 1e3), min_size=graph.n, max_size=graph.n)
        )
        W = metropolis_weights(graph)
        state = ConsensusState(values)
        mean0 = float(np.mean(state.estimates))
        for _ in range(10):
            state = consensus_step(state, W)
            assert abs(float(np.mean(state.estimates)) - mean0) < 1e-12 * max(1.0, abs(mean0))

    @given(graph=connected_graphs(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_dispersion_never_increases(self, graph, data):
        values = data.draw(
            st.lists(st.floats(-100, 100), min_size=graph.n, max_size=graph.n)
        )
        W = metropolis_weights(graph)
        state = ConsensusState(values)
        prev = mse_dispersion(state)
        for _ in range(15):
            state = consensus_step(state, W)
            cur = mse_dispersion(state)
            assert cur <= prev + 1e-12 * max(1.0, prev)
            prev = cur

    @given(graph=connected_graphs(max_n=12), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_converges_to_initial_mean(self, graph, data):
        values = data.draw(
            st.lists(st.floats(-100, 100), min_size=graph.n, max_size=graph.n)
        )
        run = run_consensus(ConsensusState(values), graph, tol=1e-14, max_iter=100_000)
        assert run.converged
        assert np.all(np.abs(run.estimates - np.mean(values)) < 1e-5)

    @given(graph=connected_graphs(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_run_equals_public_step_by_step_path(self, graph, data):
        values = data.draw(
            st.lists(st.floats(-1e3, 1e3), min_size=graph.n, max_size=graph.n)
        )
        tol = data.draw(st.one_of(
            st.just(1e-12), st.floats(1e-300, 1e3), st.integers(-40, 3).map(lambda k: 10.0**k)
        ))
        near_edge = st.sampled_from(block_edges(graph.n)).flatmap(
            lambda e: st.sampled_from([max(1, e - 1), e, e + 1])
        )
        max_iter = data.draw(st.integers(1, 400) | near_edge)
        assert_run_equals_step_by_step(values, graph, tol, max_iter)

    @pytest.mark.parametrize("values, graph, max_iter", [
        # every dispersion overflows to inf: the run stops at max_iter inside a block
        ([1e308, -1e308, 1e308], CommGraph.path(3), 100),
        # the initial sum is inf + -inf, so the initial dispersion is nan
        ([1.7e308] * 2 + [-1.7e308] * 2 + [0.0] * 4, ring(8), 100),
        # the first round's sum is inf + -inf: its dispersion is nan and ends the run
        ([1e308] + [-1.7e308] * 3 + [0.0] + [1.7e308] * 2 + [-1.7e308], ring(8), 100),
        # few enough rounds per block that rows x agents stays under the cap
        (list(np.random.default_rng(5).normal(0.0, 100.0, 300)), CommGraph.path(300), 200),
    ])
    def test_extreme_inputs_equal_step_by_step_path(self, values, graph, max_iter):
        run = assert_run_equals_step_by_step(values, graph, 1e-12, max_iter)
        assert not run.converged

    def test_dispersions_of_fixed_inputs(self):
        inf_run = run_consensus(ConsensusState([1e308, -1e308, 1e308]), CommGraph.path(3),
                                max_iter=100)
        assert inf_run.iterations == 100
        assert inf_run.mse_history == (float("inf"),) * 101
        nan_run = run_consensus(ConsensusState([1.7e308] * 2 + [-1.7e308] * 2 + [0.0] * 4),
                                ring(8))
        assert nan_run.iterations == 0
        assert np.isnan(nan_run.mse_history).all() and len(nan_run.mse_history) == 1

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        graph = CommGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        values = rng.normal(size=5)
        perm = np.array([2, 0, 4, 1, 3])  # node i -> perm[i]
        mapped_edges = [(perm[i], perm[j]) for i, j in graph.edges]
        graph_p = CommGraph.from_edges(5, mapped_edges)
        values_p = np.empty(5)
        values_p[perm] = values

        W, Wp = metropolis_weights(graph), metropolis_weights(graph_p)
        s, sp = ConsensusState(values), ConsensusState(values_p)
        for _ in range(10):
            s = consensus_step(s, W)
            sp = consensus_step(sp, Wp)
            assert np.allclose(sp.estimates[perm], s.estimates, atol=1e-12)


class TestRunConsensusOracle:
    """run_consensus (cached weights, W.dot into a block row) against the
    step-by-step loop, whose consensus_step is one np.matmul with a freshly
    built metropolis_weights matrix, bit for bit."""

    @given(graph=connected_graphs(max_n=64, min_n=2), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_reference_loop(self, graph, data):
        values = data.draw(st.lists(st.floats(-1e4, 1e4), min_size=graph.n, max_size=graph.n))
        tol = data.draw(st.sampled_from([1e-12, 1e-9, 1e-3, 1.0]) | st.floats(1e-14, 1e2))
        max_iter = data.draw(st.integers(1, 3000))
        assert_run_equals_step_by_step(values, graph, tol, max_iter)

    @pytest.mark.parametrize("tol, max_iter, converged", [
        (1e-12, 10_000, True),   # the library benchmark's runs
        (1e-9, 10_000, True),
        (1e-12, 100, False),     # stops at max_iter: a seventh block cut to 37 rounds
        (1e-12, 127, False),     # stops at max_iter: a full seventh block of 64
    ])
    def test_ring_with_chords_equals_reference_loop(self, tol, max_iter, converged):
        graph = ring_with_chords(48)
        rng = np.random.default_rng(48)
        for values in rng.normal(100.0, 10.0, (3, 48)):
            run = assert_run_equals_step_by_step(values, graph, tol, max_iter)
            assert run.converged is converged
            if not converged:
                assert run.iterations == max_iter


class TestWeightCache:
    def test_built_once_per_graph(self, monkeypatch):
        calls = []
        build = consensus.metropolis_weights
        monkeypatch.setattr(consensus, "metropolis_weights", lambda g: calls.append(g) or build(g))
        graph, other = CommGraph.path(4), CommGraph.path(4)
        for _ in range(3):
            run_consensus(ConsensusState([1.0, 2.0, 4.0, 8.0]), graph)
        assert calls == [graph]
        run_consensus(ConsensusState([1.0, 2.0, 4.0, 8.0]), other)
        assert len(calls) == 2 and calls[1] is other

    def test_disconnected_graph_raises_on_every_call(self):
        graph = CommGraph.from_edges(4, [(0, 1), (2, 3)])
        message = "^graph with 4 agents and 2 edges is not connected$"
        for _ in range(3):
            with pytest.raises(DisconnectedGraphError, match=message):
                run_consensus(ConsensusState([1.0, 2.0, 3.0, 4.0]), graph)
            with pytest.raises(DisconnectedGraphError, match=message):
                metropolis_weights(graph)
        assert "_weights" not in vars(graph)

    def test_cached_matrix_is_read_only(self):
        graph = ring_with_chords(48)
        run_consensus(ConsensusState(np.arange(48.0)), graph)
        cached = graph._weights
        assert cached is graph._weights
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 2.0

    def test_metropolis_weights_returns_a_fresh_writeable_array(self):
        graph = ring_with_chords(48)
        cached = graph._weights
        fresh = metropolis_weights(graph)
        assert fresh.flags.writeable and not np.shares_memory(fresh, cached)
        assert fresh.tobytes() == cached.tobytes()
        fresh[0, 0] = 2.0
        assert metropolis_weights(graph).tobytes() == cached.tobytes()

    @pytest.mark.parametrize("duplicate", [
        lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy, copy.copy,
    ], ids=["pickle", "deepcopy", "copy"])
    def test_copies_carry_no_writeable_weights(self, duplicate):
        graph = CommGraph.path(5)
        cached = graph._weights
        twin = duplicate(graph)
        assert twin == graph and hash(twin) == hash(graph)
        assert "_weights" not in vars(twin)
        assert not twin._weights.flags.writeable
        assert twin._weights.tobytes() == cached.tobytes()

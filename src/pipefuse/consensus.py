"""Synchronous averaging consensus over an undirected peer graph.

Agents repeatedly replace their estimate with a Metropolis-weighted average
of their neighbors' estimates; on a connected graph this drives every agent
to the mean of the initial values while preserving that mean at every
iteration. Dispersion (mean squared deviation from the current mean) is the
progress metric and stop condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import is_integer, write_csv


class DisconnectedGraphError(ValueError):
    """Consensus cannot reach a common value on a disconnected graph."""


@dataclass(frozen=True)
class CommGraph:
    """Undirected peer graph on agents 0..n-1 (no self-loops)."""

    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"graph needs at least one agent, got n={self.n}")
        normalized = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop on agent {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            normalized.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(normalized))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "CommGraph":
        return cls(n=n, edges=frozenset((int(i), int(j)) for i, j in edges))

    @classmethod
    def complete(cls, n: int) -> "CommGraph":
        return cls.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def path(cls, n: int) -> "CommGraph":
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    def degrees(self) -> np.ndarray:
        d = np.zeros(self.n, dtype=int)
        for i, j in self.edges:
            d[i] += 1
            d[j] += 1
        return d

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        adj = {i: [] for i in range(self.n)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        stack = [0]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == self.n

    @cached_property
    def _weights(self) -> np.ndarray:
        """metropolis_weights(self), built on first use and held read-only.
        A disconnected graph caches nothing and raises on every use."""
        W = metropolis_weights(self)
        W.flags.writeable = False
        return W

    def __getstate__(self):
        # a copy or an unpickled graph rebuilds the weights rather than
        # receive them writeable
        state = vars(self).copy()
        state.pop("_weights", None)
        return state


@dataclass(frozen=True)
class ConsensusState:
    """Per-agent local estimates at one iteration."""

    estimates: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        est = np.atleast_1d(np.array(self.estimates, dtype=float))
        if est.ndim != 1:
            raise ValueError(f"estimates must be a vector, got shape {est.shape}")
        bad = np.flatnonzero(~np.isfinite(est))
        if bad.size:
            raise ValueError(f"estimates must be finite, got {est[bad[0]]} at index {bad[0]}")
        if self.iteration < 0:
            raise ValueError(f"iteration must be non-negative, got {self.iteration}")
        est.flags.writeable = False
        object.__setattr__(self, "estimates", est)

    @property
    def n(self) -> int:
        return self.estimates.shape[0]


def metropolis_weights(graph: CommGraph) -> np.ndarray:
    """Doubly stochastic weight matrix W_ij = 1/(1 + max(d_i, d_j)) on edges.

    Diagonal entries absorb the remaining mass. Requires a connected graph.
    """
    if not graph.is_connected():
        raise DisconnectedGraphError(
            f"graph with {graph.n} agents and {len(graph.edges)} edges is not connected"
        )
    d = graph.degrees()
    W = np.zeros((graph.n, graph.n))
    for i, j in graph.edges:
        w = 1.0 / (1.0 + max(d[i], d[j]))
        W[i, j] = w
        W[j, i] = w
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return W


def consensus_step(state: ConsensusState, W: np.ndarray) -> ConsensusState:
    """One synchronous averaging round: estimates' = W @ estimates."""
    W = np.asarray(W, dtype=float)
    if W.shape != (state.n, state.n):
        raise ValueError(f"weight matrix shape {W.shape} does not match n={state.n}")
    return ConsensusState(estimates=W @ state.estimates, iteration=state.iteration + 1)


def mse_dispersion(state: ConsensusState) -> float:
    """Mean squared deviation of the estimates from their average."""
    return float(_dispersion(state.estimates))


@np.errstate(over="ignore", invalid="ignore")  # an overflowing sum is redone below
def estimate_mean(x: np.ndarray):
    """The mean of a vector of estimates, or of each row of a block.

    sum()/n is the pairwise sum and division that np.mean does, minus its
    overhead; a row-wise sum adds each row as the sum of that row alone does.
    Only where that sum overflows to +-inf is the mean the sum of x/n, whose
    terms and total stay in range; a nan mean is left as it is.
    """
    n = x.shape[-1]
    mean = x.sum(axis=-1) / n
    overflow = np.isinf(mean)
    if overflow.any():
        mean = np.where(overflow, (x / n).sum(axis=-1), mean)
    return mean


@np.errstate(over="ignore", invalid="ignore")  # an overflow is recorded as an inf or nan
def _dispersion(x: np.ndarray):
    """The dispersion of a vector of estimates, or of each row of a block."""
    n = x.shape[-1]
    d = x - estimate_mean(x)[..., np.newaxis]
    return (d * d).sum(axis=-1) / n


# run_consensus computes its rounds in blocks, one row per round, and tests a
# whole block for the stop in one pass. A block holds 1 round, then twice as
# many as the one before, up to _BLOCK_ROUNDS rounds or _BLOCK_CELLS
# estimates: a run computes few rounds past its stop, and a block stays a
# small multiple of the state.
_BLOCK_ROUNDS = 64
_BLOCK_CELLS = 1 << 14


class ConsensusRun(NamedTuple):
    """Outcome of an iterated consensus: final estimates plus the MSE decay."""

    estimates: np.ndarray
    iterations: int
    mse_history: tuple[float, ...]
    converged: bool


def run_consensus(
    initial: ConsensusState,
    graph: CommGraph,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> ConsensusRun:
    """Iterate consensus steps until dispersion < tol or max_iter is hit.

    mse_history holds one entry per iteration including iteration 0. A run
    that exhausts max_iter is returned with converged=False rather than
    raising: the caller decides whether a loose agreement is usable.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not is_integer(max_iter) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter}")
    if initial.n != graph.n:
        raise ValueError(f"state has {initial.n} estimates but graph has {graph.n} agents")
    W = graph._weights
    # consensus_step on plain arrays: W matches the state by construction.
    # W.dot(x, out=row) is the dgemv that np.matmul calls, with less overhead.
    x = initial.estimates
    history = [float(_dispersion(x))]
    iterations = 0
    cap = max(1, min(_BLOCK_ROUNDS, _BLOCK_CELLS // initial.n))
    rows = 1
    while history[-1] >= tol and iterations < max_iter:
        block = np.empty((min(rows, cap, max_iter - iterations), initial.n))
        for row in block:
            x = W.dot(x, out=row)
        dispersions = _dispersion(block)
        # keep the rounds up to the first whose dispersion is not >= tol (nan too)
        stop = np.flatnonzero(~(dispersions >= tol))
        kept = int(stop[0]) + 1 if stop.size else len(block)
        history.extend(dispersions[:kept].tolist())
        iterations += kept
        x = block[kept - 1].copy()  # the estimates do not keep the block alive
        rows *= 2
    x.flags.writeable = False
    return ConsensusRun(x, iterations, tuple(history), history[-1] < tol)


def write_mse_csv(mse_history: Sequence[float], path) -> None:
    """Emit `iteration,mse` rows (the agreement decay curve)."""
    write_csv(path, ["iteration", "mse"], enumerate(mse_history))

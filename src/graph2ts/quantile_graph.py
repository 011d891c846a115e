"""Quantile-state discretization and first-order transition graphs.

Windows are mapped to state sequences through globally shared quantile
boundaries fitted on the training pool; each sequence yields a row-stochastic
transition matrix used as the structural conditioning vector.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _accel

__all__ = [
    "QuantileBoundaries",
    "fit_boundaries",
    "discretize",
    "transition_matrix",
    "windows_to_graphs",
    "reshape_graph",
    "identity_graph",
    "graph_distance",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class QuantileBoundaries:
    """Strictly increasing bin edges b_0..b_Q over z-score values."""

    edges: np.ndarray
    n_states: int

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.float64)
        object.__setattr__(self, "edges", edges)
        if edges.ndim != 1 or edges.size != self.n_states + 1:
            raise ValueError("boundaries need exactly n_states + 1 edges")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("boundary edges must be strictly increasing")


def _reject_non_finite(x: np.ndarray, what: str) -> None:
    """Raise a ValueError naming the first NaN or infinite value of ``x``."""
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        where = ("row %d, column %d" % divmod(int(bad[0]), x.shape[1]) if x.ndim == 2
                 else f"index {bad[0]}")
        raise ValueError(f"{what} hold a non-finite value ({x.flat[bad[0]]}) at {where}")


def fit_boundaries(train_values: np.ndarray, n_states: int) -> QuantileBoundaries:
    """Equiprobable bin edges: the k/Q empirical quantiles of the pooled training values.

    Uses linear interpolation between order statistics, so b_0 is the minimum
    and b_Q the maximum. Ties that collapse adjacent edges are nudged apart by
    the smallest representable step and reported.
    """
    values = np.asarray(train_values, dtype=np.float64)
    if n_states < 2:
        raise ValueError("need at least 2 states")
    _reject_non_finite(values, "training values")
    values = values.ravel()
    if np.unique(values).size < n_states:
        raise ValueError(
            f"need at least {n_states} distinct values, got {np.unique(values).size}"
        )
    edges = np.quantile(values, np.linspace(0.0, 1.0, n_states + 1))
    bumped = 0
    for k in range(1, edges.size):
        if edges[k] <= edges[k - 1]:
            edges[k] = np.nextafter(edges[k - 1], np.inf)
            bumped += 1
    if bumped:
        logger.warning("fit_boundaries: perturbed %d collapsed edge(s) apart", bumped)
    return QuantileBoundaries(edges=edges, n_states=n_states)


def discretize(window: np.ndarray, bounds: QuantileBoundaries) -> np.ndarray:
    """Map values to 1-based states: bin k is [b_{k-1}, b_k), last bin closed right.

    Values outside [b_0, b_Q] clip into the end bins (boundaries are fitted on
    the training pool, so eval values may fall outside); a NaN or infinite
    value is an error.
    """
    x = np.asarray(window, dtype=np.float64)
    _reject_non_finite(x, "windows")
    states = np.searchsorted(bounds.edges, x, side="right")
    return np.clip(states, 1, bounds.n_states).astype(np.int64)


def _transition_probs(states: np.ndarray, n_states: int) -> np.ndarray:
    """Row-normalized transition counts per state row; unseen sources stay zero."""
    counts = _accel.transition_counts(states, n_states).astype(np.float64)
    totals = counts.sum(axis=2, keepdims=True)
    np.divide(counts, totals, out=counts, where=totals > 0)
    return counts


def transition_matrix(states: np.ndarray, n_states: int) -> np.ndarray:
    """Empirical first-order transition probabilities from one state sequence.

    P[i, j] = count(i -> j) / count(i as source); rows of states never seen as
    a source stay all-zero rather than being filled uniformly, so "no
    evidence" remains distinguishable in the conditioning vector.
    """
    s = np.asarray(states, dtype=np.int64)
    if s.ndim != 1 or s.size < 2:
        raise ValueError("state sequence must be 1-D with length >= 2")
    if s.min() < 1 or s.max() > n_states:
        raise ValueError("state out of range")
    return _transition_probs(s[None], n_states)[0]


def windows_to_graphs(windows: np.ndarray, bounds: QuantileBoundaries) -> np.ndarray:
    """Flattened transition graphs for a batch of windows, shape (N, Q*Q)."""
    w = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    q = bounds.n_states
    return _transition_probs(discretize(w, bounds), q).reshape(w.shape[0], q * q)


def reshape_graph(flat: np.ndarray, n_states: int) -> np.ndarray:
    v = np.asarray(flat, dtype=np.float64)
    if v.size != n_states * n_states:
        raise ValueError("flattened graph has wrong length")
    return v.reshape(n_states, n_states).copy()


def identity_graph(n_states: int) -> np.ndarray:
    if n_states < 1:
        raise ValueError("need at least one state")
    return np.eye(n_states)


def graph_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of the difference of two transition matrices."""
    pa = np.asarray(a, dtype=np.float64)
    pb = np.asarray(b, dtype=np.float64)
    if pa.shape != pb.shape:
        raise ValueError(f"graph shape mismatch: {pa.shape} vs {pb.shape}")
    return float(np.sqrt(((pa - pb) ** 2).sum()))

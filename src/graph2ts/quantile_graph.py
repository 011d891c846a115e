"""Quantile-state discretization and first-order transition graphs.

Windows are mapped to state sequences through globally shared quantile
boundaries fitted on the training pool; each sequence yields a row-stochastic
transition matrix, kept flat as one Q*Q row: the structural conditioning vector.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _accel
from .dataset import as_rows, check_finite

__all__ = [
    "MIN_STATES",
    "QuantileBoundaries",
    "fit_boundaries",
    "discretize",
    "windows_to_graphs",
    "identity_graph",
    "graph_distance",
]

logger = logging.getLogger(__name__)

MIN_STATES = 2  # one state would make every graph the same single 1.0


@dataclass(frozen=True)
class QuantileBoundaries:
    """Finite, strictly increasing bin edges b_0..b_Q over z-score values."""

    edges: np.ndarray

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.float64)
        object.__setattr__(self, "edges", edges)
        if edges.ndim != 1 or edges.size < MIN_STATES + 1:
            raise ValueError(f"boundaries need a 1-D row of at least {MIN_STATES + 1} "
                             f"edges, got shape {edges.shape}")
        check_finite(edges, "boundary edges")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("boundary edges must be strictly increasing")

    @property
    def n_states(self) -> int:
        return self.edges.size - 1


def fit_boundaries(train_values: np.ndarray, n_states: int) -> QuantileBoundaries:
    """Equiprobable bin edges: the k/Q empirical quantiles of the pooled training values.

    Uses linear interpolation between order statistics, so b_0 is the minimum
    and b_Q the maximum. Ties that collapse adjacent edges are nudged apart by
    the smallest representable step and reported.
    """
    values = np.asarray(train_values, dtype=np.float64)
    if n_states < MIN_STATES:
        raise ValueError(f"need at least {MIN_STATES} states")
    check_finite(values, "training set")
    values = values.ravel()
    distinct = np.unique(values).size
    if distinct < n_states:
        raise ValueError(f"need at least {n_states} distinct values, got {distinct}")
    edges = np.quantile(values, np.linspace(0.0, 1.0, n_states + 1))
    bumped = 0
    for k in range(1, edges.size):
        if edges[k] <= edges[k - 1]:
            edges[k] = np.nextafter(edges[k - 1], np.inf)
            bumped += 1
    if bumped:
        logger.warning("fit_boundaries: perturbed %d collapsed edge(s) apart", bumped)
    return QuantileBoundaries(edges)


def discretize(window: np.ndarray, bounds: QuantileBoundaries) -> np.ndarray:
    """Map values to 1-based states: bin k is [b_{k-1}, b_k), last bin closed right.

    Values outside [b_0, b_Q] clip into the end bins (boundaries are fitted on
    the training pool, so eval values may fall outside); a NaN or infinite
    value is an error.
    """
    x = np.asarray(window, dtype=np.float64)
    check_finite(x, "window set")
    states = np.searchsorted(bounds.edges, x, side="right")
    return np.clip(states, 1, bounds.n_states).astype(np.int64)


def windows_to_graphs(windows: np.ndarray, bounds: QuantileBoundaries) -> np.ndarray:
    """Flat transition graphs of windows of T >= 2 values, shape (N, Q*Q).

    Entry i*Q + j of a graph is count(i+1 -> j+1) / count(i+1 as source); a
    state never seen as a source keeps all-zero entries, not uniform ones, so
    "no evidence" stays distinguishable in the conditioning vector.
    """
    w = as_rows(windows, "window set")
    if w.shape[1] < 2:
        raise ValueError(f"windows of length T={w.shape[1]} hold no transition; need T >= 2")
    q = bounds.n_states
    counts = _accel.transition_counts(discretize(w, bounds), q).astype(np.float64)
    totals = counts.sum(axis=2, keepdims=True)
    np.divide(counts, totals, out=counts, where=totals > 0)
    return counts.reshape(w.shape[0], q * q)


def identity_graph(n_states: int) -> np.ndarray:
    """The flat Q*Q row of the Q x Q identity: every state returns to itself."""
    if n_states < MIN_STATES:
        raise ValueError(f"need at least {MIN_STATES} states")
    return np.eye(n_states).ravel()


def graph_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius distance of each pair of rows of two (N, Q*Q) graph sets."""
    pa = np.asarray(a, dtype=np.float64)
    pb = np.asarray(b, dtype=np.float64)
    if pa.ndim != 2 or pa.shape != pb.shape:
        raise ValueError(f"graph sets need one (N, Q*Q) shape: {pa.shape} vs {pb.shape}")
    return np.sqrt(((pa - pb) ** 2).sum(axis=1))

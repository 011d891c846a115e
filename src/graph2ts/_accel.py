"""Hot numeric kernels: exact nearest-neighbor distances and transition counts.

Squared distances are computed as ``((a - b) ** 2).sum()`` rather than the
BLAS ``|a|^2 + |b|^2 - 2ab`` expansion, so identical rows yield a distance of
exactly 0.0 and every result equals a row-by-row brute-force reference bit for
bit. One chunked loop produces the squared distances; each kernel only reduces
its chunks.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = [
    "min_dist_to_set",
    "nn_dist_excl_self",
    "medoid_index",
    "transition_counts",
]

# rows per chunk, capped so the temporary (chunk, m, t) array stays around 64 MB
_CHUNK_BUDGET = 8_000_000


def _sq_dist_chunks(a: np.ndarray, b: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield ``(lo, hi, d2)``; ``d2[i - lo, j]`` is the squared distance of a[i] to b[j]."""
    n, t = a.shape
    m = b.shape[0]
    chunk = max(1, _CHUNK_BUDGET // max(1, m * t))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        yield lo, hi, ((a[lo:hi, None, :] - b[None]) ** 2).sum(axis=2)


def min_dist_to_set(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of ``a`` to its nearest row of ``b``."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    out = np.empty(a.shape[0])
    for lo, hi, d2 in _sq_dist_chunks(a, b):
        out[lo:hi] = np.sqrt(d2.min(axis=1))
    return out


def nn_dist_excl_self(a: np.ndarray) -> np.ndarray:
    """Per-row nearest-neighbor distance within ``a``, excluding the row itself."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    out = np.empty(a.shape[0])
    for lo, hi, d2 in _sq_dist_chunks(a, a):
        rows = np.arange(hi - lo)
        d2[rows, rows + lo] = np.inf
        out[lo:hi] = np.sqrt(d2.min(axis=1))
    return out


def medoid_index(a: np.ndarray) -> int:
    """Index of the row minimizing the summed distance to all rows (ties: lowest)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    sums = np.empty(a.shape[0])
    for lo, hi, d2 in _sq_dist_chunks(a, a):
        sums[lo:hi] = np.sqrt(d2).sum(axis=1)
    return int(np.argmin(sums))  # argmin takes the lowest index on ties


def transition_counts(states: np.ndarray, n_states: int) -> np.ndarray:
    """Per-window first-order transition counts for 1-based state rows.

    ``states`` is (n_windows, T) with entries in 1..n_states; the result is
    (n_windows, n_states, n_states) int64 with ``[w, i, j]`` = count(i+1 -> j+1).
    """
    states = np.ascontiguousarray(states, dtype=np.int64)
    n = states.shape[0]
    src = np.arange(n)[:, None] * n_states + states[:, :-1] - 1
    flat = src * n_states + states[:, 1:] - 1
    counts = np.bincount(flat.ravel(), minlength=n * n_states * n_states)
    return counts.reshape(n, n_states, n_states)

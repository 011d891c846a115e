"""Hot numeric kernels: exact nearest-neighbor distances and transition counts.

Every distance result equals the brute-force reference, the squared distance
``fl(d_ij) = ((a[i] - b[j]) ** 2).sum()``, bit for bit: identical rows give
exactly 0.0 and medoid ties go to the lowest index. The O(n m) work runs
through BLAS and only proposes candidates; the reference value is recomputed
for the candidates alone.

Candidates. One chunked pass computes ``g_ij = |b_j|^2 - 2 a_i.b_j`` as a
matrix product (``b`` is scaled by -2 first, which is exact) plus the squared
norms of ``b``. Each row ``i`` carries a bound ``err_i`` with
``|g_ij + |a_i|^2 - fl(d_ij)| <= err_i`` for every ``j``.

* Min kernels. If ``j*`` minimizes ``fl(d_ij)`` and ``k`` minimizes ``g_ij``,
  then ``g_ij* + |a_i|^2 <= fl(d_ij*) + err_i <= fl(d_ik) + err_i <=
  g_ik + |a_i|^2 + 2 err_i``: the row constant ``|a_i|^2`` cancels, and the
  pairs with ``g_ij <= min_k g_ik + 2 err_i`` hold every minimizer. The
  result is the minimum of the recomputed ``fl(d_ij)`` over those pairs.
* Medoid. ``D_ij = g_ij + |a_i|^2`` is within ``err_i`` of ``fl(d_ij)`` too
  (see below), and ``|sqrt x - sqrt y| <= sqrt|x - y|`` puts each term
  ``sqrt(max(D_ij, 0))`` within ``sqrt(err_i)`` of the reference term. With
  the rounding of both square roots and of both n-term sums, the approximate
  row sum ``S_i`` is within ``slack_i = n sqrt(err_i) + 2 (n + 1) u S_i`` of
  the reference sum. Rows with ``S_i - slack_i <= min_k (S_k + slack_k)``
  hold every minimizer; they are re-summed exactly and the lowest index
  among the exact minima wins.

The bound. With ``u = 2**-53``, ``gamma_k = k u / (1 - k u)``, ``T`` the row
length and ``B = max_j |b_j|``, the standard bounds (Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 3) hold for any summation order, and
so for any blocking or FMA use in a conventional BLAS product:

* the dot product is within ``gamma_T 2 |a_i||b_j|`` (Cauchy-Schwarz), each
  squared norm within ``gamma_T`` of its value, and each add rounds once, so
  the computed ``g_ij + |a_i|^2`` and the computed ``D_ij`` are both within
  ``gamma_{T+2} (|a_i| + |b_j|)^2`` of the exact ``d_ij``;
* the reference rounds the difference, the square and a sum of ``T``
  non-negative terms: ``|fl(d_ij) - d_ij| <= gamma_{T+2} d_ij <=
  gamma_{T+2} (|a_i| + |b_j|)^2``.

Hence the gap to ``fl(d_ij)`` is at most ``2 gamma_{T+2} (|a_i| + B)^2``.
The code doubles that, ``err_i = 4 (T + 2) u (|a_i| + B)^2``, which covers
the O(u^2) terms and the rounding of the norms and of the bound itself, and
adds ``T * tiny`` for products that underflow; the medoid slack is doubled the
same way. The bound only decides how many pairs are recomputed: a row far
from the rest (large ``B``) or a large common offset widens it, which costs
time, never exactness. A NaN row keeps every pair, so NaN propagates as in
the reference.
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

# values per temporary: a (rows, m) chunk of g, or a (pairs, T) re-check slice;
# 2M float64 values are 16 MB
_CHUNK_BUDGET = 2_000_000

_U = 2.0 ** -53
_TINY = np.finfo(np.float64).tiny


def _gram_chunks(
    a: np.ndarray, b: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Yield ``(lo, hi, g, err)`` with ``g[i - lo, j] = |b_j|^2 - 2 a[i].b[j]``
    through BLAS and ``err[i - lo]`` the row's bound (module docstring)."""
    n, t = a.shape
    nb2 = (b * b).sum(axis=1)
    norm_a = np.sqrt((a * a).sum(axis=1))
    err = 4 * (t + 2) * _U * (norm_a + np.sqrt(nb2.max())) ** 2 + t * _TINY
    b_t = (-2.0 * b).T
    chunk = max(1, _CHUNK_BUDGET // b.shape[0])
    # one buffer per call, so its pages fault in once; g is overwritten on resume
    buf = np.empty((min(chunk, n), b.shape[0]))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        g = np.matmul(a[lo:hi], b_t, out=buf[:hi - lo])
        g += nb2
        yield lo, hi, g, err[lo:hi]


def _exact_sq_dist(a: np.ndarray, b: np.ndarray, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """The reference ``((a[i] - b[j]) ** 2).sum()`` for each pair ``(ii[k], jj[k])``."""
    out = np.empty(ii.size)
    step = max(1, _CHUNK_BUDGET // a.shape[1])
    for lo in range(0, ii.size, step):
        part = slice(lo, lo + step)
        out[part] = ((a[ii[part]] - b[jj[part]]) ** 2).sum(axis=1)
    return out


def _nn_dist(a: np.ndarray, b: np.ndarray, exclude_self: bool) -> np.ndarray:
    out = np.empty(a.shape[0])
    for lo, hi, g, err in _gram_chunks(a, b):
        if exclude_self:
            rows = np.arange(hi - lo)
            g[rows, rows + lo] = np.inf
        bound = g.min(axis=1) + 2 * err
        # ~(x > bound) rather than x <= bound keeps every pair of a NaN row
        ii, jj = np.divmod(np.flatnonzero(~(g > bound[:, None])), g.shape[1])
        if exclude_self:  # a one-row set has only itself as candidate
            keep = ii + lo != jj
            ii, jj = ii[keep], jj[keep]
        best = np.full(hi - lo, np.inf)
        np.minimum.at(best, ii, _exact_sq_dist(a, b, ii + lo, jj))
        out[lo:hi] = np.sqrt(best)
    return out


def min_dist_to_set(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row of ``a`` to its nearest row of ``b``."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return _nn_dist(a, b, exclude_self=False)


def nn_dist_excl_self(a: np.ndarray) -> np.ndarray:
    """Per-row nearest-neighbor distance within ``a``, excluding the row itself."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    return _nn_dist(a, a, exclude_self=True)


def medoid_index(a: np.ndarray) -> int:
    """Index of the row minimizing the summed distance to all rows (ties: lowest)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    n, t = a.shape
    na2 = (a * a).sum(axis=1)
    sums = np.empty(n)
    err = np.empty(n)
    for lo, hi, d2, e in _gram_chunks(a, a):
        d2 += na2[lo:hi, None]
        np.maximum(d2, 0.0, out=d2)
        sums[lo:hi] = np.sqrt(d2, out=d2).sum(axis=1)
        err[lo:hi] = e
    slack = 2 * n * np.sqrt(err) + 4 * (n + 1) * _U * sums
    cand = np.flatnonzero(~(sums - slack > (sums + slack).min()))
    exact = np.empty(cand.size)
    cols = np.arange(n)
    step = max(1, _CHUNK_BUDGET // (n * t))
    for lo in range(0, cand.size, step):
        rows = cand[lo:lo + step]
        d2 = _exact_sq_dist(a, a, np.repeat(rows, n), np.tile(cols, rows.size))
        exact[lo:lo + step] = np.sqrt(d2).reshape(rows.size, n).sum(axis=1)
    return int(cand[np.argmin(exact)])  # argmin takes the lowest index on ties


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

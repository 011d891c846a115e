"""Hot numeric kernels: exact nearest-neighbor distances and transition counts.

Every distance result equals the brute-force reference, the squared distance
``fl(d_ij) = ((a[i] - b[j]) ** 2).sum()``, bit for bit: identical rows give
exactly 0.0 and medoid ties go to the lowest index. The O(n m) work runs
through BLAS and only proposes candidates; the reference value is recomputed
for the candidates alone.

Candidates. One chunked pass computes ``g_ij = |b_j|^2 - 2 a_i.b_j`` as a
single matrix product of augmented operands, ``[a_i | 1] . [-2 b_j | nb2_j]``,
with ``nb2_j`` the computed squared norm of ``b_j`` (scaling by -2 is exact).
The medoid's pass appends ``na2_i`` on the left and a 1 on the right, so its
product is ``D_ij = na2_i + nb2_j - 2 a_i.b_j`` directly. No sweep adds the
norms afterwards. Each row ``i`` carries a bound ``err_i`` with
``|g_ij + |a_i|^2 - fl(d_ij)| <= err_i`` and ``|D_ij - fl(d_ij)| <= err_i``
for every ``j``.

* Min kernels. If ``j*`` minimizes ``fl(d_ij)`` and ``k`` minimizes ``g_ij``,
  then ``g_ij* + |a_i|^2 <= fl(d_ij*) + err_i <= fl(d_ik) + err_i <=
  g_ik + |a_i|^2 + 2 err_i``: the row constant ``|a_i|^2`` cancels, and the
  pairs with ``g_ij <= g_ik + 2 err_i`` hold every minimizer. The pass takes
  ``k`` by ``argmin`` and the smallest ``g_ij`` over ``j != k``. If that
  runner-up exceeds the bound, ``k`` is the row's only candidate. Otherwise
  (an exact tie, a near-tie, or a NaN, since ``NaN > x`` is false) the row
  takes every pair with ``not g_ij > g_ik + 2 err_i``, so a NaN row keeps
  every pair. The result is the minimum of the recomputed ``fl(d_ij)`` over
  the candidates. With the row itself excluded, its own pair is set to
  ``inf`` first and never counts as a candidate.
* Medoid. ``|sqrt x - sqrt y| <= sqrt|x - y|`` puts each term
  ``sqrt(max(D_ij, 0))`` within ``sqrt(err_i)`` of the reference term. With
  the rounding of both square roots and of both n-term sums, the approximate
  row sum ``S_i`` is within ``slack_i = n sqrt(err_i) + 2 (n + 1) u S_i`` of
  the reference sum. Rows with ``S_i - slack_i <= min_k (S_k + slack_k)``
  hold every minimizer; they are re-summed exactly and the lowest index
  among the exact minima wins. The pass covers only the upper trapezoid:
  chunk ``[lo, hi)`` meets the rows ``j >= lo``, and an entry with ``j >= hi``
  is added to row ``j``'s sum as well as to row ``i``'s. It serves row ``j``
  within ``err_j``: the reference is symmetric (``a_j - a_i`` is the exact
  negation of ``a_i - a_j``, so ``fl(d_ji) = fl(d_ij)``), and ``|a_i| <= B``
  keeps the pair's error within ``err_j`` (see below). A row sum accumulated
  from partial sums, in any order, is still an n-term sum, so the slack
  covers it.

The bound. With ``u = 2**-53``, ``gamma_k = k u / (1 - k u)``, ``T`` the row
length and ``B = max_j |b_j|``, the standard bounds (Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 3) hold for any summation order, and
so for any blocking or FMA use in a conventional BLAS product:

* each computed squared norm is ``nb2_j = |b_j|^2 (1 + t_j)`` with
  ``|t_j| <= gamma_T``, and likewise ``na2_i``;
* a K-term product ``x.y`` is within ``gamma_K sum_k |x_k y_k|``. For ``D``
  (``K = T + 2``) that sum is at most ``2 |a_i||b_j| + na2_i + nb2_j``
  (Cauchy-Schwarz), and the exact ``na2_i + nb2_j - 2 a_i.b_j`` is within
  ``gamma_T (|a_i|^2 + |b_j|^2)`` of ``d_ij``. With ``nb2_j <= (1 + gamma_T)
  |b_j|^2`` and ``gamma_j + gamma_k + gamma_j gamma_k <= gamma_{j+k}``, the
  computed ``D_ij`` is within ``gamma_{2T+2} (|a_i| + |b_j|)^2`` of ``d_ij``.
  ``g_ij`` (``K = T + 1``, no ``na2_i``) gives ``g_ij + |a_i|^2`` within
  ``gamma_{2T+1} (|a_i| + |b_j|)^2`` of ``d_ij`` the same way;
* the reference rounds the difference, the square and a sum of ``T``
  non-negative terms: ``|fl(d_ij) - d_ij| <= gamma_{T+2} d_ij <=
  gamma_{T+2} (|a_i| + |b_j|)^2``.

Hence the gap to ``fl(d_ij)`` is at most ``gamma_{3T+4} (|a_i| + B)^2`` for
both forms; for ``b = a`` the bounds are symmetric in ``i`` and ``j``, and
``|a_i| <= B`` makes the gap at most ``gamma_{3T+4} (|a_j| + B)^2`` as well.
The code takes twice the first-order term, ``err_i = 2 (3T + 4) u (|a_i| +
B)^2``, which covers the O(u^2) part of ``gamma_{3T+4}`` and the rounding of
the bound itself (the computed ``(|a_i| + B)^2`` is low by a relative
O(T u) at most) for any ``(4T + 14) u <= 1/2``. It adds ``T * tiny`` for
products and squares that underflow; the medoid slack is doubled the same
way. The bound only decides how many pairs are recomputed: a row far from
the rest (large ``B``) or a large common offset widens it, which costs time,
never exactness.
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
    a: np.ndarray, b: np.ndarray, upper: bool = False
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Yield ``(lo, hi, g, err)`` with ``g[i - lo, j] = |b_j|^2 - 2 a[i].b[j]``
    from one BLAS product of augmented operands and ``err[i - lo]`` the row's
    bound (module docstring).

    ``upper`` (with ``b`` being ``a``) is the medoid's pass: ``g`` also holds
    ``|a_i|^2``, so it is ``D``, and only the columns ``j >= lo`` are yielded,
    so ``g[i - lo, j - lo]`` holds the pair and the chunks tile the upper
    trapezoid.
    """
    if not (a.ndim == b.ndim == 2 and a.size and b.size and a.shape[1] == b.shape[1]):
        raise ValueError("distance kernels need two non-empty 2-D sets of one width, "
                         f"got shapes {a.shape} and {b.shape}")
    n, t = a.shape
    m = b.shape[0]
    nb2 = (b * b).sum(axis=1)
    na2 = nb2 if b is a else (a * a).sum(axis=1)
    err = 2 * (3 * t + 4) * _U * (np.sqrt(na2) + np.sqrt(nb2.max())) ** 2 + t * _TINY
    # [a | 1 (| na2)] and [-2b | nb2 (| 1)]^T: the product carries the norms
    width = t + 2 if upper else t + 1
    left = np.ones((n, width))
    left[:, :t] = a
    right = np.ones((width, m))
    np.multiply(b.T, -2.0, out=right[:t])
    right[t] = nb2
    if upper:
        left[:, t + 1] = na2
    chunk = max(1, _CHUNK_BUDGET // m)
    # one buffer per call, so its pages fault in once; g is overwritten on resume
    buf = np.empty(min(chunk, n) * m)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        col = lo if upper else 0
        g = buf[:(hi - lo) * (m - col)].reshape(hi - lo, m - col)
        np.matmul(left[lo:hi], right[:, col:], out=g)
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
        rows = np.arange(hi - lo)
        if exclude_self:
            g[rows, rows + lo] = np.inf
        k = g.argmin(axis=1)
        bound = g[rows, k] + 2 * err
        g[rows, k] = np.inf
        # ~(x > bound) rather than x <= bound sends NaN rows to the full mask
        tied = np.flatnonzero(~(g.min(axis=1) > bound))
        # every row's k, then the rest of each tied row's mask (k's g is inf now)
        ii, jj = np.divmod(np.flatnonzero(~(g[tied] > bound[tied, None])), g.shape[1])
        ii = np.concatenate([rows, tied[ii]])
        jj = np.concatenate([k, jj])
        if exclude_self:  # a row with an inf or NaN bound can propose itself
            keep = ii + lo != jj
            ii, jj = ii[keep], jj[keep]
        best = np.full(hi - lo, np.inf)
        with np.errstate(invalid="ignore"):  # a NaN row's distance is NaN, not a warning
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
    n = a.shape[0]
    sums = np.zeros(n)
    err = np.empty(n)
    # D is symmetric: each block's rows are summed into their own rows, and its
    # columns past the block into theirs, whose rows are not yet reached
    for lo, hi, d2, e in _gram_chunks(a, a, upper=True):
        np.maximum(d2, 0.0, out=d2)
        d = np.sqrt(d2, out=d2)
        sums[lo:hi] += d.sum(axis=1)
        sums[hi:] += d[:, hi - lo:].sum(axis=0)
        err[lo:hi] = e
    slack = 2 * n * np.sqrt(err) + 4 * (n + 1) * _U * sums
    cand = np.flatnonzero(~(sums - slack > (sums + slack).min()))
    exact = np.empty(cand.size)
    cols = np.arange(n)
    step = max(1, _CHUNK_BUDGET // a.size)
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

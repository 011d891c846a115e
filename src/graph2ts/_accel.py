"""Hot numeric kernels: exact nearest-neighbor distances and transition counts.

The distance kernels take finite sets only: a NaN or an infinity is a
ValueError naming the set (``a`` or ``b``) and its row and column. Every
distance result equals the brute-force reference, the squared distance
``fl(d_ij) = ((a[i] - b[j]) ** 2).sum()``, bit for bit: identical rows give
exactly 0.0 and medoid ties go to the lowest index. The O(n m) work runs
through BLAS in float32 and only proposes candidates; the reference value is
recomputed in float64 for the candidates alone.

Candidates. One chunked pass computes ``D_ij = na2_i + nb2_j - 2 A_i.B_j`` as
a single matrix product of augmented operands, ``[A_i | 1 | na2_i] .
[-2 B_j | nb2_j | 1]``, with ``na2_i``, ``nb2_j`` the computed squared norms
of ``A_i``, ``B_j`` (scaling by -2 is exact). The operands are the rows
centered and scaled before the cast to the pass's working precision:
``A_i = fl_w(s fl(a_i - c))`` and ``B_j = fl_w(s fl(b_j - c))``, with ``c``
the float64 mean of the rows of ``b`` and ``s`` a power of two. No sweep adds
the norms afterwards. Each row ``i`` carries a bound ``err_i`` with ``|D_ij -
s^2 fl(d_ij)| <= err_i`` for every ``j``.

* Min kernels. If ``j*`` minimizes ``fl(d_ij)`` and ``k`` minimizes ``D_ij``,
  then ``D_ij* <= s^2 fl(d_ij*) + err_i <= s^2 fl(d_ik) + err_i <= D_ik +
  2 err_i``, so the pairs with ``D_ij <= D_ik + 2 err_i`` hold every
  minimizer. The pass takes ``k`` by ``argmin`` and the smallest ``D_ij``
  over ``j != k``. If that runner-up exceeds the bound, ``k`` is the row's
  only candidate. Otherwise (an exact tie or a near-tie) the row takes every
  pair with ``D_ij <= D_ik + 2 err_i``. The result is the minimum of the
  recomputed ``fl(d_ij)`` over the candidates. With the row itself excluded,
  its own pair is set to ``inf`` first, and dropped again if an infinite
  ``err_i`` (below) proposes it.
* Medoid. ``|sqrt x - sqrt y| <= sqrt|x - y|`` puts each term ``sqrt(max(D_ij,
  0))`` within ``sqrt(err_i)`` of the reference term (scaled by ``s``). The
  square roots and the n-term row sums round by at most ``u_w`` per operation,
  in any order, and the reference's by ``u <= u_w``, so the approximate row sum
  ``S_i`` is within ``slack_i = n sqrt(err_i) + 2 (n + 1) u_w S_i`` of ``s``
  times the reference sum; the code doubles it like the bound (once ``4 (n + 1)
  u_w`` reaches 1, the slack exceeds every sum and every row is kept). Rows
  with ``S_i - slack_i <= min_k (S_k + slack_k)`` hold every minimizer. Stage 1
  is a float32 pass over the upper trapezoid: chunk ``[lo, hi)`` meets the rows
  ``j >= lo``, and an entry with ``j >= hi`` is added to row ``j``'s sum as
  well as to row ``i``'s. It serves row ``j`` within ``err_j``: the reference
  is symmetric (``a_j - a_i`` is the exact negation of ``a_i - a_j``, so
  ``fl(d_ji) = fl(d_ij)``), and ``|X_i| <= R`` keeps the pair's error within
  ``err_j`` (see below). A row sum accumulated from partial sums, in any order,
  is still an n-term sum, so the slack covers it. Stage 2 is the same form in
  float64 (``u_w = u``) over the stage-1 rows against all rows, and keeps the
  rows within its slack of the least of their sums. Those rows are re-summed
  exactly and the lowest index among the exact minima wins.

The bound. Let ``u = 2**-53``, ``u_w`` the working unit roundoff (``2**-24``
in float32), ``tiny`` and ``tiny_w`` the smallest normal numbers of float64
and of the working precision, ``gamma_k = k u_w / (1 - k u_w)``, ``T`` the
row length, ``x_i = a_i - c`` and ``y_j = b_j - c`` exactly (so ``d_ij =
|x_i - y_j|^2``), ``X_i = s x_i``, ``Y_j = s y_j``, ``Q_ij = |X_i| + |Y_j|``
and ``R = max_j |Y_j|``. The standard bounds (Higham, *Accuracy and Stability
of Numerical Algorithms*, ch. 3) hold for any summation order, and so for any
blocking or FMA use in a conventional BLAS product:

* centering and conversion: ``fl(a_ik - c_k)`` is within ``u |x_ik|`` of
  ``x_ik``, scaling by ``s`` is exact or underflows by less than ``tiny_w``,
  and the cast rounds by ``u_w`` relative plus ``tiny_w`` absolute where it
  underflows. So ``|A_i - X_i| <= rho |X_i|
  + sqrt(T) tiny_w`` with ``rho = u_w + u + u_w u``;
* the product: each computed squared norm is ``nb2_j = |B_j|^2 (1 + t_j)``
  with ``|t_j| <= gamma_T``, and a K-term product ``x.y`` is within
  ``gamma_K sum_k |x_k y_k|``. For ``D`` (``K = T + 2``) that sum is at most
  ``2 |A_i||B_j| + na2_i + nb2_j`` (Cauchy-Schwarz), and with
  ``gamma_j + gamma_k + gamma_j gamma_k <= gamma_{j+k}`` the computed ``D_ij``
  is within ``gamma_{2T+2} (|A_i| + |B_j|)^2`` of ``|A_i - B_j|^2``, plus
  ``3 T tiny_w`` for the products and squares that underflow;
* with ``e = rho Q_ij + 2 sqrt(T) tiny_w``, the triangle inequality puts
  ``|A_i - B_j|^2`` within ``e (2 Q_ij + e)`` of ``s^2 d_ij``;
* the reference rounds the difference, the square and a sum of ``T``
  non-negative terms: ``|fl(d_ij) - d_ij| <= gamma_{T+2} d_ij + T tiny``
  (with ``u`` in ``gamma``), and ``s^2 d_ij <= Q_ij^2``.

The first-order coefficient of ``Q_ij^2`` is ``(2T + 2) u_w + 2 rho + (T + 2)
u <= kappa = (2T + 4) u_w + (T + 5) u``. The code takes ``err_i = 2 kappa
(|X_i| + R)^2 + 4 T (tiny_w + s^2 tiny)``. Doubling covers, for ``kappa <=
1/8``, the O(kappa^2) terms, the cross terms ``4 sqrt(T) tiny_w Q_ij <=
kappa Q_ij^2 / 2 + 8 T tiny_w^2 / kappa`` (the last is far below ``tiny_w``),
and the rounding of the computed norms and of the bound itself. For ``b = a``
the bound is symmetric in ``i`` and ``j``, and ``|X_i| <= R`` makes it at
most ``err_j`` as well.

The premises. While ``|a|`` and ``|b|`` are below ``2**e`` and ``2 e +
bitlen(T) <= 1021``, the reference's squares and sums stay in float64's range.
Past that (beyond about ``1e154``, checked before centering, which can itself
overflow) or past ``kappa = 1/8`` (``T`` near ``2**20`` in float32), ``D = 0``
and an infinite ``err`` make every pair a candidate.

Centering and scaling. ``s`` puts every centered value below ``2**30 /
sqrt(T)``, so a row's norm stays below ``2**30`` and no operand, norm or
``D_ij`` (below ``2**62``) overflows float32, while inputs from ``1e-30`` to
``1e30`` keep their relative precision. The norms in ``err`` are taken in
float64 from the scaled values. Centering makes ``Q_ij`` the spread of the rows
about their mean rather than their distance from the origin: a large common
offset would otherwise widen ``err`` past the gaps between distances and make
every pair a candidate. The bound only decides how many pairs are recomputed: a
row far from the rest (large ``R``) widens it, costing time, not exactness.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .dataset import check_finite

__all__ = [
    "min_dist_to_set",
    "nn_dist_excl_self",
    "medoid_index",
    "transition_counts",
]

# values per temporary: a (rows, m) chunk of D, or a (pairs, T) re-check slice;
# 2M values are 8 MB in float32 and 16 MB in float64
_CHUNK_BUDGET = 2_000_000

_U = 2.0 ** -53
_TINY = np.finfo(np.float64).tiny


def _gram_chunks(
    a: np.ndarray, b: np.ndarray, dtype: type, upper: bool = False
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Yield ``(lo, hi, d, err)`` with ``d[i - lo, j]`` approximating ``s**2``
    times the squared distance of ``a[i]`` and ``b[j]``, from one ``dtype``
    BLAS product of centered, scaled and augmented operands, and
    ``err[i - lo]`` the row's bound (module docstring).

    ``upper`` (with ``b`` being ``a``) is the medoid's pass: only the columns
    ``j >= lo`` are yielded, so ``d[i - lo, j - lo]`` holds the pair and the
    chunks tile the upper trapezoid.
    """
    if not (a.ndim == b.ndim == 2 and a.size and b.size and a.shape[1] == b.shape[1]):
        raise ValueError("distance kernels need two non-empty 2-D sets of one width, "
                         f"got shapes {a.shape} and {b.shape}")
    check_finite(a, "set a")
    if b is not a:
        check_finite(b, "set b")
    n, t = a.shape
    m = b.shape[0]
    info = np.finfo(dtype)
    kappa = (2 * t + 4) * info.eps / 2 + (t + 5) * _U
    e = int(np.frexp(max(np.abs(a).max(), np.abs(b).max()))[1])
    if kappa > 0.125 or 2 * e + t.bit_length() > 1021:
        # past the bound's premises: every pair is a candidate
        left, right = np.zeros((n, 1), dtype), np.zeros((1, m), dtype)
        err = np.full(n, np.inf)
    else:
        center = b.mean(axis=0)
        xb = b - center
        xa = xb if b is a else a - center
        # s = 2**k puts every centered value below 2**30 / sqrt(T)
        e = int(np.frexp(max(np.abs(xa).max(), np.abs(xb).max()))[1])
        s = 2.0 ** min(500, 30 - e - (t.bit_length() + 1) // 2)
        xb *= s
        if b is not a:
            xa *= s
        na2 = (xa * xa).sum(axis=1)
        nb2 = na2 if b is a else (xb * xb).sum(axis=1)
        err = (2 * kappa * (np.sqrt(na2) + np.sqrt(nb2.max())) ** 2
               + 4 * t * (info.tiny + s * s * _TINY))
        # [A | 1 | na2] and [-2B | nb2 | 1]^T: the product carries the norms
        left = np.ones((n, t + 2), dtype)
        wa = left[:, :t]
        wa[...] = xa
        left[:, t + 1] = (wa * wa).sum(axis=1)
        wb = wa if b is a else xb.astype(dtype, copy=False)
        right = np.ones((t + 2, m), dtype)
        np.multiply(wb.T, -2, out=right[:t])
        right[t] = left[:, t + 1] if b is a else (wb * wb).sum(axis=1)
    chunk = max(1, _CHUNK_BUDGET // m)
    # one buffer per call, so its pages fault in once; d is overwritten on resume
    buf = np.empty(min(chunk, n) * m, dtype)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        col = lo if upper else 0
        d = buf[:(hi - lo) * (m - col)].reshape(hi - lo, m - col)
        np.matmul(left[lo:hi], right[:, col:], out=d)
        yield lo, hi, d, err[lo:hi]


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
    for lo, hi, d, err in _gram_chunks(a, b, np.float32):
        rows = np.arange(hi - lo)
        if exclude_self:
            d[rows, rows + lo] = np.inf
        k = d.argmin(axis=1)
        bound = d[rows, k] + 2 * err  # float64: the float32 values compare exactly
        d[rows, k] = np.inf
        tied = np.flatnonzero(d.min(axis=1) <= bound)
        # every row's k, then the rest of each tied row's mask (k's d is inf now)
        ii, jj = np.divmod(np.flatnonzero(d[tied] <= bound[tied, None]), d.shape[1])
        ii = np.concatenate([rows, tied[ii]])
        jj = np.concatenate([k, jj])
        if exclude_self:  # a row with an infinite bound can propose itself
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


def _near_min(sums: np.ndarray, err: np.ndarray, n: int, dtype: type) -> np.ndarray:
    """Indices of the ``dtype`` row sums of ``n`` terms that may hold the least
    reference sum (module docstring)."""
    slack = 2 * n * np.sqrt(err) + 2 * (n + 1) * np.finfo(dtype).eps * sums
    return np.flatnonzero(sums - slack <= (sums + slack).min())


def medoid_index(a: np.ndarray) -> int:
    """Index of the row minimizing the summed distance to all rows (ties: lowest)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    n = a.shape[0]
    sums = np.zeros(n)
    err = np.empty(n)
    # stage 1, float32. D is symmetric: each block's rows are summed into
    # their own rows, and its columns past the block into theirs, not yet reached
    for lo, hi, d2, e in _gram_chunks(a, a, np.float32, upper=True):
        np.maximum(d2, 0, out=d2)
        d = np.sqrt(d2, out=d2)
        sums[lo:hi] += d.sum(axis=1)
        sums[hi:] += d[:, hi - lo:].sum(axis=0)
        err[lo:hi] = e
    cand = _near_min(sums, err, n, np.float32)
    # stage 2, float64: the stage-1 rows against all rows
    sums = np.empty(cand.size)
    err = np.empty(cand.size)
    for lo, hi, d2, e in _gram_chunks(a[cand], a, np.float64):
        np.maximum(d2, 0, out=d2)
        sums[lo:hi] = np.sqrt(d2, out=d2).sum(axis=1)
        err[lo:hi] = e
    cand = cand[_near_min(sums, err, n, np.float64)]
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

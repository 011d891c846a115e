"""Minimal reverse-mode autodiff on 2-D float64 arrays.

The tape serves training and ``grad_check`` only; a forward with no gradient
(inference, the gradient oracle) is plain numpy in ``model``. Every op hands
its forward value, with a ``backward(g)`` closure, to one helper that guards
the value with ``dataset.all_finite``, which warns of nothing, and records the
closure. ``Tape.backward`` replays the closures in reverse; a closure runs only
if its output received a gradient. Gradients accumulate by out-of-place
addition (a value used twice receives both contributions), so an op may hand
one array to several inputs.

The model's two-layer blocks are a single op, ``mlp2``
(``relu(x @ w1 + b1) @ w2 + b2``), which keeps only the post-activation
for its backward: the ReLU mask is re-derived from it there. The objective
is five more ops: ``info_nce``, ``reparam``, ``gauss_kl``, ``mse_mean`` and
``weighted_sum``, so a training step records 18 ops (11 if deterministic).

Conventions: every op takes ``Var``s and returns one ``Var`` whose value is
a fresh array, sharing no memory with any input. The only plain-array
arguments are the untracked constants ``eps`` of ``reparam`` and ``target``
of ``mse_mean``; any other input that needs no gradient enters through
``Tape.leaf``, whose ``.grad`` is then never read. All tracked values are
2-D: scalars are (1, 1), vectors (1, n) or (n, 1) as noted per op.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .dataset import all_finite

__all__ = [
    "Tape",
    "Var",
    "mlp2",
    "l2_normalize_rows",
    "sort_rows",
    "concat_cols",
    "slice_cols",
    "clamp",
    "info_nce",
    "reparam",
    "gauss_kl",
    "mse_mean",
    "weighted_sum",
    "grad_check",
]

NORM_EPS = 1e-12  # l2_normalize_rows divides a row by this when its norm is at or below it


class Var:
    """A tape-tracked 2-D array; ``grad`` stays None until a gradient reaches it."""

    __slots__ = ("value", "grad", "tape")

    def __init__(self, value: np.ndarray, tape: "Tape"):
        self.value = value
        self.grad = None
        self.tape = tape


class Tape:
    """Records backward closures; single-threaded, one backward per forward."""

    def __init__(self):
        self._ops: list[tuple[Var, Callable[[np.ndarray], None]]] = []

    def leaf(self, value) -> Var:
        # leaves are not finite-checked here: every leaf feeds some op, and op
        # outputs are guarded, so a bad leaf cannot propagate silently
        v = np.asarray(value, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"leaf must be 2-D, got shape {v.shape}")
        return Var(np.ascontiguousarray(v), self)

    def backward(self, out: Var) -> None:
        if out.tape is not self:
            raise ValueError("backward called on a Var from another tape")
        if out.value.shape != (1, 1):
            raise ValueError("backward requires a scalar (1, 1) output")
        out.grad = np.ones((1, 1))
        # consume the records: the tape -> record -> Var -> tape reference
        # cycle would otherwise keep every intermediate alive until a gc pass
        ops, self._ops = self._ops, []
        for var, fn in reversed(ops):
            if var.grad is not None:
                fn(var.grad)


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not all_finite(arr):
        raise FloatingPointError(f"non-finite value produced by op '{op}'")


def _out(
    tape: Tape, value: np.ndarray, op: str, backward: Callable[[np.ndarray], None]
) -> Var:
    """Guard ``value``, wrap it, and record ``backward(g)``."""
    _check_finite(value, op)
    out = Var(value, tape)
    tape._ops.append((out, backward))
    return out


def _acc(v: Var, g: np.ndarray) -> None:
    # the first contribution is kept by reference, so later ones must be added
    # out of place: an op may hand one array to several inputs, or to one twice
    v.grad = g if v.grad is None else v.grad + g


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def mlp2(x: Var, w1: Var, b1: Var, w2: Var, b2: Var) -> Var:
    """Two-layer block relu(x @ w1 + b1) @ w2 + b2; b1, b2 are (1, m) rows.

    The ReLU subgradient at 0 is 0. The pre-activation is overwritten in
    place by the post-activation, the only array kept for the backward; its
    mask ``h > 0`` is exactly the set where the pre-activation was > 0, so no
    boolean array is built in the forward.
    """
    hidden = w1.value.shape[1]
    if (x.value.shape[1] != w1.value.shape[0] or b1.value.shape != (1, hidden)
            or w2.value.shape[0] != hidden or b2.value.shape != (1, w2.value.shape[1])):
        raise ValueError(
            f"mlp2 shape mismatch: x{x.value.shape} w1{w1.value.shape} "
            f"b1{b1.value.shape} w2{w2.value.shape} b2{b2.value.shape}"
        )
    h = x.value @ w1.value
    h += b1.value
    _check_finite(h, "mlp2")  # before the ReLU, which maps -inf to 0
    np.maximum(h, 0.0, out=h)
    y = h @ w2.value
    y += b2.value

    def backward(g):
        _acc(w2, h.T @ g)
        _acc(b2, g.sum(axis=0, keepdims=True))
        gh = g @ w2.value.T
        gh *= h > 0.0
        _acc(x, gh @ w1.value.T)
        _acc(w1, x.value.T @ gh)
        _acc(b1, gh.sum(axis=0, keepdims=True))

    return _out(x.tape, y, "mlp2", backward)


def l2_normalize_rows(x: Var) -> Var:
    """Rows scaled to unit Euclidean norm; dX = (g - y (y·g)) / ‖x‖ per row.

    A row whose norm is at most ``NORM_EPS`` is divided by ``NORM_EPS`` instead,
    so a zero row stays zero; that row is the linear map x / NORM_EPS, with
    dX = g / NORM_EPS.
    """
    norms = np.maximum(np.sqrt((x.value * x.value).sum(axis=1, keepdims=True)), NORM_EPS)
    clamped = (norms == NORM_EPS)[:, 0]
    y = x.value / norms

    def backward(g):
        proj = y * (y * g).sum(axis=1, keepdims=True)
        proj[clamped] = 0.0
        _acc(x, (g - proj) / norms)

    return _out(x.tape, y, "l2_normalize_rows", backward)


def sort_rows(x: Var) -> Var:
    """Sort each row ascending (stable); backward scatters through the permutation."""
    perm = np.argsort(x.value, axis=1, kind="stable")
    rows = np.arange(x.value.shape[0])[:, None]

    def backward(g):
        back = np.zeros_like(x.value)
        back[rows, perm] = g  # perm rows are permutations: no collisions
        _acc(x, back)

    return _out(x.tape, x.value[rows, perm], "sort_rows", backward)


def concat_cols(a: Var, b: Var) -> Var:
    if a.value.shape[0] != b.value.shape[0]:
        raise ValueError("concat_cols: row mismatch")
    na = a.value.shape[1]

    def backward(g):
        _acc(a, g[:, :na])
        _acc(b, g[:, na:])

    return _out(a.tape, np.hstack([a.value, b.value]), "concat_cols", backward)


def slice_cols(x: Var, j0: int, j1: int) -> Var:
    def backward(g):
        back = np.zeros_like(x.value)
        back[:, j0:j1] = g
        _acc(x, back)

    return _out(x.tape, x.value[:, j0:j1].copy(), "slice_cols", backward)


def clamp(x: Var, lo: float, hi: float) -> Var:
    """Clip to [lo, hi]; gradient passes where lo <= x <= hi, else 0."""
    mask = (x.value >= lo) & (x.value <= hi)
    return _out(x.tape, np.clip(x.value, lo, hi), "clamp", lambda g: _acc(x, g * mask))


# loss ops. Artifacts are compared byte for byte, so float order is part of each
# op: a forward evaluates its formula left to right, one rounding per elementwise
# step; a backward differentiates right to left and adds an input's repeated
# contributions (mu * mu) one by one.

def _check_shapes(op: str, *shapes: tuple) -> None:
    if len(set(shapes)) > 1:
        raise ValueError(f"{op} shape mismatch: {' vs '.join(map(str, shapes))}")


def _lse_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row log-sum-exp as (n, 1), with exp(a - max) and its row sums (softmax)."""
    m = a.max(axis=1, keepdims=True)
    e = np.exp(a - m)
    z = e.sum(axis=1, keepdims=True)
    return m + np.log(z), e, z


def info_nce(th: Var, gh: Var, log_temp: Var) -> Var:
    """Symmetric InfoNCE over unit rows, matched pairs on the diagonal:
    0.5 (mean(lse_rows(s) - diag s) + mean(lse_rows(sᵀ) - diag s)) with
    s = (th @ ghᵀ) exp(-log_temp), sᵀ reduced as a contiguous copy. Backward:
    ds = (D + c softmax(sᵀ))ᵀ + D + c softmax(s), c = g / 2n, D = diag(-c)."""
    _check_shapes("info_nce", th.value.shape, gh.value.shape)
    _check_shapes("info_nce", log_temp.value.shape, (1, 1))
    n = th.value.shape[0]
    with np.errstate(over="ignore"):  # overflow becomes inf, caught by the guard
        temp = np.exp(log_temp.value * -1.0)
    sim = th.value @ gh.value.T
    s = sim * temp
    diag = np.diagonal(s).reshape(n, 1)
    lse_r, e_r, z_r = _lse_rows(s)
    lse_c, e_c, z_c = _lse_rows(np.ascontiguousarray(s.T))
    loss = ((lse_r - diag).mean() + (lse_c - diag).mean()) * 0.5

    def backward(g):
        c = g[0, 0] * 0.5 / n
        d = np.zeros((n, n))
        np.fill_diagonal(d, -c)
        ds = (d + c * (e_c / z_c)).T + d + c * (e_r / z_r)
        gs = ds * temp
        _acc(log_temp, (ds * sim).sum().reshape(1, 1) * temp * -1.0)
        _acc(th, gs @ gh.value)
        _acc(gh, gs.T @ th.value)

    return _out(th.tape, loss.reshape(1, 1), "info_nce", backward)


def reparam(mu: Var, logvar: Var, eps: np.ndarray) -> Var:
    """z = mu + exp(logvar * 0.5) * eps, with ``eps`` an untracked draw."""
    _check_shapes("reparam", mu.value.shape, logvar.value.shape, np.shape(eps))
    with np.errstate(over="ignore"):
        sd = np.exp(logvar.value * 0.5)

    def backward(g):
        _acc(mu, g)
        _acc(logvar, g * eps * sd * 0.5)

    return _out(mu.tape, mu.value + sd * eps, "reparam", backward)


def gauss_kl(mu: Var, logvar: Var) -> Var:
    """KL of N(mu, exp(logvar)) from N(0, 1), summed over units and meaned
    over rows: 0.5 / n * sum(mu² + exp(logvar) - logvar - 1)."""
    _check_shapes("gauss_kl", mu.value.shape, logvar.value.shape)
    c = 0.5 / mu.value.shape[0]
    with np.errstate(over="ignore"):
        var = np.exp(logvar.value)
    kl = (mu.value * mu.value + var - logvar.value - 1.0).sum() * c

    def backward(g):
        gk = g[0, 0] * c
        _acc(logvar, np.full_like(var, -gk))
        _acc(logvar, gk * var)
        gm = gk * mu.value
        _acc(mu, gm)
        _acc(mu, gm)

    return _out(mu.tape, kl.reshape(1, 1), "gauss_kl", backward)


def mse_mean(a: Var, target: np.ndarray) -> Var:
    """mean((a - target)²) against an untracked target of the same shape."""
    _check_shapes("mse_mean", a.value.shape, np.shape(target))
    d = a.value - target

    def backward(g):
        gd = d * (g[0, 0] / d.size)
        _acc(a, gd + gd)

    return _out(a.tape, (d * d).mean().reshape(1, 1), "mse_mean", backward)


def weighted_sum(terms: list[Var], weights: list[float]) -> Var:
    """sum of weights[i] * terms[i] over (1, 1) terms, added left to right."""
    if not terms or len(weights) != len(terms) or any(t.value.shape != (1, 1) for t in terms):
        raise ValueError("weighted_sum needs one weight per (1, 1) term")
    total = terms[0].value * weights[0]
    for t, w in zip(terms[1:], weights[1:]):
        total = total + t.value * w

    def backward(g):
        for t, w in zip(reversed(terms), reversed(weights)):
            _acc(t, g * w)

    return _out(terms[0].tape, total, "weighted_sum", backward)


# ---------------------------------------------------------------------------
# finite-difference checking
# ---------------------------------------------------------------------------

GRADCHECK_STEP = 1e-5
GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_DENOM_FLOOR = 1e-3
GRADCHECK_REFINE_STEPS = 3


def grad_check(
    f: Callable[[dict[str, Var]], Var],
    params: dict[str, np.ndarray],
    value_fn: Callable[[dict[str, np.ndarray]], float] | None = None,
) -> float:
    """Max per-coordinate relative error of tape gradients vs central differences.

    ``f`` builds a scalar computation from a dict of leaves. Every probe
    starts at step ``GRADCHECK_STEP``, and callers pass the result when it is
    at most ``GRADCHECK_TOLERANCE``. The relative error is
    |analytic - fd| / max(|analytic|, |fd|, GRADCHECK_DENOM_FLOOR); the floor
    keeps coordinates whose true gradient sits below the finite-difference
    noise level from dominating the report.

    ``value_fn``, when given, evaluates the same scalar directly from plain
    arrays and is used for the finite-difference probes. Supplying an
    independently written forward keeps the oracle side decoupled from the
    tape and makes full-parameter sweeps far cheaper. Without it, each probe
    runs ``f`` on a fresh tape whose records are never replayed.

    A probe that straddles a nondifferentiable point (ReLU kink, sort tie
    within one step of the evaluation point) reports the average of two
    one-sided slopes, not the subgradient the tape computes. Offending
    coordinates are retried at shrinking step sizes up to
    ``GRADCHECK_REFINE_STEPS`` times and the best agreement kept: a kink
    straddle resolves as the step stops crossing it, a genuine gradient bug
    stays wrong at every step size.

    A coordinate whose relative error at the first step is NaN ends the check
    with NaN as the result, which no tolerance passes.
    """
    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in params.items()}
    out = f(leaves)
    tape.backward(out)
    analytic = {
        k: (leaves[k].grad if leaves[k].grad is not None else np.zeros_like(leaves[k].value))
        for k in params
    }

    work = {k: np.asarray(v, dtype=np.float64).copy() for k, v in params.items()}

    if value_fn is None:
        def value_fn(arrs: dict[str, np.ndarray]) -> float:
            t = Tape()
            return f({k: t.leaf(v) for k, v in arrs.items()}).value[0, 0]

    def rel_at(flat: np.ndarray, i: int, a: float, step: float) -> float:
        orig = flat[i]
        flat[i] = orig + step
        fp = float(value_fn(work))
        flat[i] = orig - step
        fm = float(value_fn(work))
        flat[i] = orig
        fd = (fp - fm) / (2.0 * step)
        return float(abs(a - fd) / max(abs(a), abs(fd), GRADCHECK_DENOM_FLOOR))

    worst = 0.0
    for name, arr in work.items():
        flat = arr.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            rel = rel_at(flat, i, a_flat[i], GRADCHECK_STEP)
            if np.isnan(rel):
                return rel  # a NaN probe fails the check; `rel > worst` would drop it
            step = GRADCHECK_STEP
            for _ in range(GRADCHECK_REFINE_STEPS):
                if rel <= worst:
                    break
                step /= 4.0
                rel = min(rel, rel_at(flat, i, a_flat[i], step))
            if rel > worst:
                worst = rel
    return worst

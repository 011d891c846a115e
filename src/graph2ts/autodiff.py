"""Minimal reverse-mode autodiff on 2-D float64 arrays.

Every op computes its forward value and hands it, with a ``backward(g)``
closure, to one helper that guards the value against NaN/Inf and, on a
recording tape, records the closure. ``Tape.backward`` replays the closures
in reverse; a closure runs only if its output received a gradient.
Gradients accumulate by out-of-place addition (a value used twice receives
both contributions), so an op may hand one array to several inputs.

The model's two-layer blocks are a single op, ``mlp2``
(``relu(x @ w1 + b1) @ w2 + b2``), which keeps only the post-activation
and the ReLU mask for its backward.

Conventions: all tracked values are 2-D (scalars are (1, 1), vectors are
(1, n) or (n, 1) as noted per op). Inputs that need no gradient are still
wrapped as leaves; their ``.grad`` is simply never read.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "Tape",
    "Var",
    "mlp2",
    "l2_normalize_rows",
    "sort_rows",
    "matmul_nt",
    "transpose",
    "concat_cols",
    "slice_cols",
    "add",
    "sub",
    "mul",
    "add_const",
    "scale",
    "exp",
    "clamp",
    "logsumexp_rows",
    "take_diag",
    "sum_all",
    "mean_all",
    "grad_check",
]


class Var:
    """A tape-tracked 2-D array; ``grad`` stays None until a gradient reaches it."""

    __slots__ = ("value", "grad", "tape")

    def __init__(self, value: np.ndarray, tape: "Tape"):
        self.value = value
        self.grad = None
        self.tape = tape

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Records backward closures; single-threaded, one backward per forward."""

    def __init__(self, record: bool = True):
        self._ops: list[tuple[Var, Callable[[np.ndarray], None]]] = []
        self.recording = record

    def leaf(self, value) -> Var:
        # leaves are not finite-checked here: every leaf feeds some op, and op
        # outputs are guarded, so a bad leaf cannot propagate silently
        v = np.asarray(value, dtype=np.float64)
        if v.ndim == 0:
            v = v.reshape(1, 1)
        elif v.ndim == 1:
            v = v.reshape(1, -1)
        elif v.ndim != 2:
            raise ValueError(f"leaf must be at most 2-D, got shape {v.shape}")
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
    # fast path: NaN/Inf poison the sum; a large finite array can overflow it,
    # so an inf sum is confirmed elementwise before raising
    if not np.isfinite(arr.sum()) and not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite value produced by op '{op}'")


def _out(
    tape: Tape, value: np.ndarray, op: str, backward: Callable[[np.ndarray], None]
) -> Var:
    """Guard ``value``, wrap it, and record ``backward(g)`` if the tape records."""
    _check_finite(value, op)
    out = Var(value, tape)
    if tape.recording:
        tape._ops.append((out, backward))
    return out


def _acc(v: Var, g: np.ndarray) -> None:
    # the first contribution is kept by reference, so later ones must be added
    # out of place: add/sub hand the same g to both of their inputs
    v.grad = g if v.grad is None else v.grad + g


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def mlp2(x: Var, w1: Var, b1: Var, w2: Var, b2: Var) -> Var:
    """Two-layer block relu(x @ w1 + b1) @ w2 + b2; b1, b2 are (1, m) rows.

    The ReLU subgradient at 0 is 0. Only the post-activation and its mask
    are kept for the backward; the pre-activation is overwritten in place.
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
    _check_finite(h, "mlp2")  # before the ReLU, which would map NaN to 0
    mask = h > 0.0
    h[~mask] = 0.0
    y = h @ w2.value
    y += b2.value

    def backward(g):
        _acc(w2, h.T @ g)
        _acc(b2, g.sum(axis=0, keepdims=True))
        gh = g @ w2.value.T
        gh *= mask
        _acc(x, gh @ w1.value.T)
        _acc(w1, x.value.T @ gh)
        _acc(b1, gh.sum(axis=0, keepdims=True))

    return _out(x.tape, y, "mlp2", backward)


def matmul_nt(a: Var, b: Var) -> Var:
    """out = a @ bᵀ; da = g b, db = gᵀ a."""
    def backward(g):
        _acc(a, g @ b.value)
        _acc(b, g.T @ a.value)

    return _out(a.tape, a.value @ b.value.T, "matmul_nt", backward)


def l2_normalize_rows(x: Var, eps: float = 1e-12) -> Var:
    """Rows scaled to unit Euclidean norm; dX = (g - y (y·g)) / ‖x‖ per row."""
    norms = np.sqrt((x.value * x.value).sum(axis=1, keepdims=True))
    if (norms <= eps).any():
        raise ValueError("l2_normalize_rows: near-zero row norm")
    y = x.value / norms
    return _out(
        x.tape, y, "l2_normalize_rows",
        lambda g: _acc(x, (g - y * (y * g).sum(axis=1, keepdims=True)) / norms),
    )


def sort_rows(x: Var) -> tuple[Var, np.ndarray]:
    """Sort each row ascending (stable); backward scatters through the permutation."""
    perm = np.argsort(x.value, axis=1, kind="stable")
    rows = np.arange(x.value.shape[0])[:, None]

    def backward(g):
        back = np.zeros_like(x.value)
        back[rows, perm] = g  # perm rows are permutations: no collisions
        _acc(x, back)

    return _out(x.tape, x.value[rows, perm], "sort_rows", backward), perm


def transpose(x: Var) -> Var:
    return _out(x.tape, np.ascontiguousarray(x.value.T), "transpose",
                lambda g: _acc(x, g.T))


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


def add(a: Var, b: Var) -> Var:
    if a.value.shape != b.value.shape:
        raise ValueError("add: shape mismatch")

    def backward(g):
        _acc(a, g)
        _acc(b, g)

    return _out(a.tape, a.value + b.value, "add", backward)


def sub(a: Var, b: Var) -> Var:
    if a.value.shape != b.value.shape:
        raise ValueError("sub: shape mismatch")

    def backward(g):
        _acc(a, g)
        _acc(b, -g)

    return _out(a.tape, a.value - b.value, "sub", backward)


def mul(a: Var, b: Var) -> Var:
    """Elementwise product; shapes must match, or one operand is (1, 1)."""
    sa, sb = a.value.shape, b.value.shape
    if sa != sb and sa != (1, 1) and sb != (1, 1):
        raise ValueError(f"mul: incompatible shapes {sa} x {sb}")

    def backward(g):
        ga = g * b.value
        gb = g * a.value
        if ga.shape != sa:
            ga = ga.sum().reshape(1, 1)
        if gb.shape != sb:
            gb = gb.sum().reshape(1, 1)
        _acc(a, ga)
        _acc(b, gb)

    return _out(a.tape, a.value * b.value, "mul", backward)


def add_const(x: Var, c) -> Var:
    return _out(x.tape, x.value + c, "add_const", lambda g: _acc(x, g))


def scale(x: Var, c) -> Var:
    """Multiply by an untracked scalar or same-shape constant array."""
    return _out(x.tape, x.value * c, "scale", lambda g: _acc(x, g * c))


def exp(x: Var) -> Var:
    with np.errstate(over="ignore"):  # overflow becomes inf, caught by the guard
        y = np.exp(x.value)
    return _out(x.tape, y, "exp", lambda g: _acc(x, g * y))


def clamp(x: Var, lo: float, hi: float) -> Var:
    """Clip to [lo, hi]; gradient passes where lo <= x <= hi, else 0."""
    mask = (x.value >= lo) & (x.value <= hi)
    return _out(x.tape, np.clip(x.value, lo, hi), "clamp", lambda g: _acc(x, g * mask))


def logsumexp_rows(x: Var) -> Var:
    """Row-wise log-sum-exp as a (B, 1) column; backward is the row softmax."""
    m = x.value.max(axis=1, keepdims=True)
    e = np.exp(x.value - m)
    s = e.sum(axis=1, keepdims=True)
    return _out(x.tape, m + np.log(s), "logsumexp_rows", lambda g: _acc(x, g * (e / s)))


def take_diag(x: Var) -> Var:
    """Main diagonal of a square matrix as a (B, 1) column."""
    n = x.value.shape[0]
    if x.value.shape[1] != n:
        raise ValueError("take_diag expects a square matrix")
    idx = np.arange(n)

    def backward(g):
        back = np.zeros_like(x.value)
        back[idx, idx] = g[:, 0]
        _acc(x, back)

    return _out(x.tape, x.value[idx, idx].reshape(n, 1).copy(), "take_diag", backward)


def sum_all(x: Var) -> Var:
    return _out(x.tape, x.value.sum().reshape(1, 1), "sum_all",
                lambda g: _acc(x, np.full_like(x.value, g[0, 0])))


def mean_all(x: Var) -> Var:
    n = x.value.size
    return _out(x.tape, x.value.mean().reshape(1, 1), "mean_all",
                lambda g: _acc(x, np.full_like(x.value, g[0, 0] / n)))


# ---------------------------------------------------------------------------
# finite-difference checking
# ---------------------------------------------------------------------------

def grad_check(
    f: Callable[[dict[str, Var]], Var],
    params: dict[str, np.ndarray],
    h: float = 1e-5,
    denom_floor: float = 1e-3,
    value_fn: Callable[[dict[str, np.ndarray]], float] | None = None,
    refine_steps: int = 3,
) -> float:
    """Max per-coordinate relative error of tape gradients vs central differences.

    ``f`` builds a scalar computation from a dict of leaves. The relative
    error is |analytic - fd| / max(|analytic|, |fd|, denom_floor); the floor
    keeps coordinates whose true gradient sits below the finite-difference
    noise level from dominating the report.

    ``value_fn``, when given, evaluates the same scalar directly from plain
    arrays and is used for the finite-difference probes. Supplying an
    independently written forward keeps the oracle side decoupled from the
    tape and makes full-parameter sweeps far cheaper.

    A probe that straddles a nondifferentiable point (ReLU kink, sort tie
    within h of the evaluation point) reports the average of two one-sided
    slopes, not the subgradient the tape computes. Offending coordinates are
    retried at shrinking step sizes up to ``refine_steps`` times and the best
    agreement kept: a kink straddle resolves as the step stops crossing it,
    a genuine gradient bug stays wrong at every step size.
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
        def value_at() -> float:
            t = Tape(record=False)
            return float(f({k: t.leaf(v) for k, v in work.items()}).value[0, 0])
    else:
        def value_at() -> float:
            return float(value_fn(work))

    def rel_at(flat: np.ndarray, i: int, a: float, step: float) -> float:
        orig = flat[i]
        flat[i] = orig + step
        fp = value_at()
        flat[i] = orig - step
        fm = value_at()
        flat[i] = orig
        fd = (fp - fm) / (2.0 * step)
        return float(abs(a - fd) / max(abs(a), abs(fd), denom_floor))

    worst = 0.0
    for name, arr in work.items():
        flat = arr.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            rel = rel_at(flat, i, a_flat[i], h)
            step = h
            for _ in range(refine_steps):
                if rel <= worst:
                    break
                step /= 4.0
                rel = min(rel, rel_at(flat, i, a_flat[i], step))
            if rel > worst:
                worst = rel
    return worst

"""Minimal reverse-mode autodiff on 2-D float64 arrays.

A ``Tape`` records one closure per differentiable op; ``Tape.backward``
replays them in reverse, accumulating gradients by addition (a value used
twice receives both contributions). Everything is double precision and
every op output is guarded against NaN/Inf.

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
    "affine",
    "relu",
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
    """A tape-tracked 2-D array with a lazily allocated gradient buffer."""

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
        self._ops: list[Callable[[], None]] = []
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
        # consume the closures: the tape -> closure -> Var -> tape reference
        # cycle would otherwise keep every intermediate alive until a gc pass
        ops, self._ops = self._ops, []
        for fn in reversed(ops):
            fn()


def _check_finite(arr: np.ndarray, op: str) -> None:
    # fast path: NaN/Inf poison the sum; a large finite array can overflow it,
    # so an inf sum is confirmed elementwise before raising
    if not np.isfinite(arr.sum()) and not np.isfinite(arr).all():
        raise FloatingPointError(f"non-finite value produced by op '{op}'")


def _out(tape: Tape, value: np.ndarray, op: str) -> Var:
    _check_finite(value, op)
    return Var(value, tape)


def _acc(v: Var, g: np.ndarray) -> None:
    if v.grad is None:
        v.grad = np.zeros_like(v.value)
    v.grad += g


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def affine(x: Var, w: Var, b: Var) -> Var:
    """y = x @ w + b with b a (1, m) row; dX = g Wᵀ, dW = Xᵀ g, db = colsum g."""
    t = x.tape
    if x.value.shape[1] != w.value.shape[0] or b.value.shape != (1, w.value.shape[1]):
        raise ValueError(
            f"affine shape mismatch: x{x.value.shape} w{w.value.shape} b{b.value.shape}"
        )
    out = _out(t, x.value @ w.value + b.value, "affine")
    if t.recording:
        def bwd():
            g = out.grad
            if g is None:
                return
            _acc(x, g @ w.value.T)
            _acc(w, x.value.T @ g)
            _acc(b, g.sum(axis=0, keepdims=True))
        t._ops.append(bwd)
    return out


def matmul_nt(a: Var, b: Var) -> Var:
    """out = a @ bᵀ; da = g b, db = gᵀ a."""
    t = a.tape
    out = _out(t, a.value @ b.value.T, "matmul_nt")
    if t.recording:
        def bwd():
            g = out.grad
            if g is None:
                return
            _acc(a, g @ b.value)
            _acc(b, g.T @ a.value)
        t._ops.append(bwd)
    return out


def relu(x: Var) -> Var:
    """max(0, x); subgradient at 0 is 0."""
    t = x.tape
    mask = x.value > 0.0
    out = _out(t, np.where(mask, x.value, 0.0), "relu")
    if t.recording:
        def bwd():
            g = out.grad
            if g is None:
                return
            _acc(x, g * mask)
        t._ops.append(bwd)
    return out


def l2_normalize_rows(x: Var, eps: float = 1e-12) -> Var:
    """Rows scaled to unit Euclidean norm; dX = (g - y (y·g)) / ‖x‖ per row."""
    t = x.tape
    norms = np.sqrt((x.value * x.value).sum(axis=1, keepdims=True))
    if (norms <= eps).any():
        raise ValueError("l2_normalize_rows: near-zero row norm")
    y = x.value / norms
    out = _out(t, y, "l2_normalize_rows")
    if t.recording:
        def bwd():
            g = out.grad
            if g is None:
                return
            _acc(x, (g - y * (y * g).sum(axis=1, keepdims=True)) / norms)
        t._ops.append(bwd)
    return out


def sort_rows(x: Var) -> tuple[Var, np.ndarray]:
    """Sort each row ascending (stable); backward scatters through the permutation."""
    t = x.tape
    perm = np.argsort(x.value, axis=1, kind="stable")
    rows = np.arange(x.value.shape[0])[:, None]
    out = _out(t, x.value[rows, perm], "sort_rows")
    if t.recording:
        def bwd():
            g = out.grad
            if g is None:
                return
            back = np.zeros_like(x.value)
            back[rows, perm] = g  # perm rows are permutations: no collisions
            _acc(x, back)
        t._ops.append(bwd)
    return out, perm


def transpose(x: Var) -> Var:
    t = x.tape
    out = _out(t, np.ascontiguousarray(x.value.T), "transpose")
    if t.recording:
        def bwd():
            g = out.grad
            if g is None:
                return
            _acc(x, g.T)
        t._ops.append(bwd)
    return out


def concat_cols(a: Var, b: Var) -> Var:
    t = a.tape
    if a.value.shape[0] != b.value.shape[0]:
        raise ValueError("concat_cols: row mismatch")
    na = a.value.shape[1]
    out = _out(t, np.hstack([a.value, b.value]), "concat_cols")
    if t.recording:
        def bwd():
            g = out.grad
            if g is None:
                return
            _acc(a, g[:, :na])
            _acc(b, g[:, na:])
        t._ops.append(bwd)
    return out


def slice_cols(x: Var, j0: int, j1: int) -> Var:
    t = x.tape
    out = _out(t, x.value[:, j0:j1].copy(), "slice_cols")
    if t.recording:
        def bwd():
            g = out.grad
            if g is None:
                return
            back = np.zeros_like(x.value)
            back[:, j0:j1] = g
            _acc(x, back)
        t._ops.append(bwd)
    return out


def add(a: Var, b: Var) -> Var:
    t = a.tape
    if a.value.shape != b.value.shape:
        raise ValueError("add: shape mismatch")
    out = _out(t, a.value + b.value, "add")
    if t.recording:
        def bwd():
            g = out.grad
            if g is None:
                return
            _acc(a, g)
            _acc(b, g)
        t._ops.append(bwd)
    return out


def sub(a: Var, b: Var) -> Var:
    t = a.tape
    if a.value.shape != b.value.shape:
        raise ValueError("sub: shape mismatch")
    out = _out(t, a.value - b.value, "sub")
    if t.recording:
        def bwd():
            g = out.grad
            if g is None:
                return
            _acc(a, g)
            _acc(b, -g)
        t._ops.append(bwd)
    return out


def mul(a: Var, b: Var) -> Var:
    """Elementwise product; shapes must match, or one operand is (1, 1)."""
    t = a.tape
    sa, sb = a.value.shape, b.value.shape
    if sa != sb and sa != (1, 1) and sb != (1, 1):
        raise ValueError(f"mul: incompatible shapes {sa} x {sb}")
    out = _out(t, a.value * b.value, "mul")
    if t.recording:
        def bwd():
            g = out.grad
            if g is None:
                return
            ga = g * b.value
            gb = g * a.value
            if ga.shape != sa:
                ga = ga.sum().reshape(1, 1)
            if gb.shape != sb:
                gb = gb.sum().reshape(1, 1)
            _acc(a, ga)
            _acc(b, gb)
        t._ops.append(bwd)
    return out


def add_const(x: Var, c) -> Var:
    t = x.tape
    out = _out(t, x.value + c, "add_const")
    if t.recording:
        def bwd():
            g = out.grad
            if g is None:
                return
            _acc(x, g)
        t._ops.append(bwd)
    return out


def scale(x: Var, c) -> Var:
    """Multiply by an untracked scalar or same-shape constant array."""
    t = x.tape
    out = _out(t, x.value * c, "scale")
    if t.recording:
        def bwd():
            g = out.grad
            if g is None:
                return
            _acc(x, g * c)
        t._ops.append(bwd)
    return out


def exp(x: Var) -> Var:
    t = x.tape
    with np.errstate(over="ignore"):  # overflow becomes inf, caught by the guard
        y = np.exp(x.value)
    out = _out(t, y, "exp")
    if t.recording:
        def bwd():
            g = out.grad
            if g is None:
                return
            _acc(x, g * y)
        t._ops.append(bwd)
    return out


def clamp(x: Var, lo: float, hi: float) -> Var:
    """Clip to [lo, hi]; gradient passes where lo <= x <= hi, else 0."""
    t = x.tape
    mask = (x.value >= lo) & (x.value <= hi)
    out = _out(t, np.clip(x.value, lo, hi), "clamp")
    if t.recording:
        def bwd():
            g = out.grad
            if g is None:
                return
            _acc(x, g * mask)
        t._ops.append(bwd)
    return out


def logsumexp_rows(x: Var) -> Var:
    """Row-wise log-sum-exp as a (B, 1) column; backward is the row softmax."""
    t = x.tape
    m = x.value.max(axis=1, keepdims=True)
    e = np.exp(x.value - m)
    s = e.sum(axis=1, keepdims=True)
    out = _out(t, m + np.log(s), "logsumexp_rows")
    if t.recording:
        soft = e / s
        def bwd():
            g = out.grad
            if g is None:
                return
            _acc(x, g * soft)
        t._ops.append(bwd)
    return out


def take_diag(x: Var) -> Var:
    """Main diagonal of a square matrix as a (B, 1) column."""
    t = x.tape
    n = x.value.shape[0]
    if x.value.shape[1] != n:
        raise ValueError("take_diag expects a square matrix")
    idx = np.arange(n)
    out = _out(t, x.value[idx, idx].reshape(n, 1).copy(), "take_diag")
    if t.recording:
        def bwd():
            g = out.grad
            if g is None:
                return
            back = np.zeros_like(x.value)
            back[idx, idx] = g[:, 0]
            _acc(x, back)
        t._ops.append(bwd)
    return out


def sum_all(x: Var) -> Var:
    t = x.tape
    out = _out(t, x.value.sum().reshape(1, 1), "sum_all")
    if t.recording:
        def bwd():
            g = out.grad
            if g is None:
                return
            _acc(x, np.full_like(x.value, g[0, 0]))
        t._ops.append(bwd)
    return out


def mean_all(x: Var) -> Var:
    t = x.tape
    n = x.value.size
    out = _out(t, x.value.mean().reshape(1, 1), "mean_all")
    if t.recording:
        def bwd():
            g = out.grad
            if g is None:
                return
            _acc(x, np.full_like(x.value, g[0, 0] / n))
        t._ops.append(bwd)
    return out


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

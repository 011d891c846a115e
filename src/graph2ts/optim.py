"""Named parameter store with Adam updates.

Parameters are 2-D float64 arrays (biases are (1, m) rows, scalars (1, 1))
so they serialize directly into the checkpoint container.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ParamStore", "adam_step"]


class ParamStore:
    """Named parameter tensors plus per-parameter Adam moments and a step counter."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.params: dict[str, np.ndarray] = {}
        for name, arr in params.items():
            a = np.asarray(arr, dtype=np.float64)
            if a.ndim != 2:
                raise ValueError(f"parameter '{name}' must be 2-D, got shape {a.shape}")
            self.params[name] = np.ascontiguousarray(a)
        self.m = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.v = {k: np.zeros_like(v) for k, v in self.params.items()}
        self.step = 0

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}


def adam_step(
    store: ParamStore,
    grads: dict[str, np.ndarray],
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update in place; increments the step counter once."""
    for name in store.params:
        g = grads.get(name)
        if g is None:
            raise ValueError(f"missing gradient for parameter '{name}'")
        if g.shape != store.params[name].shape:
            raise ValueError(f"gradient shape mismatch for parameter '{name}'")
        if not np.isfinite(g.sum()) and not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
    store.step += 1
    t = store.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in store.params.items():
        g = grads[name]
        m = store.m[name]
        v = store.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)

"""Raw series ingestion, windowing, normalization, splits, and synthetic corpora.

A raw series is a plain 1-D float64 array, and window sets are plain (N, T)
float64 arrays throughout the package; one row is one fixed-length window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "NormStats",
    "DatasetSplit",
    "load_series",
    "make_windows",
    "all_finite",
    "check_finite",
    "check_windowing",
    "check_eval_fraction",
    "zscore_fit_apply",
    "split",
    "synth_generate",
    "SYNTH_KINDS",
]

SYNTH_KINDS = ("sine_mix", "ar1", "heavy_tail")

# sine_mix design: cycles-per-window set and the amplitude band. The band
# stays away from zero so averaging over phases (what a model collapsing to a
# conditional mean does) lands off the data manifold.
_SINE_FREQS = np.array([1.0, 2.0, 3.0, 5.0])
_SINE_AMP_LO = 0.7
_SINE_AMP_HI = 1.3


@dataclass(frozen=True)
class NormStats:
    mean: float
    std: float

    def __post_init__(self):
        if not (self.std > 0):
            raise ValueError("std must be positive")


@dataclass(frozen=True)
class DatasetSplit:
    train: np.ndarray
    eval: np.ndarray
    norm: NormStats


def load_series(path, column: int = 0) -> np.ndarray:
    """Read one numeric column (0-based, so ``column`` >= 0) from a delimited
    text file as a 1-D float64 array.

    The delimiter is auto-detected per line (comma, else whitespace). Rows
    whose designated column does not parse as a number are skipped (headers);
    rows that parse to a non-finite value are an error, reported with their
    1-based row number.
    """
    if column < 0:
        raise ValueError(f"column must be >= 0, got {column}")
    p = Path(path)
    values: list[float] = []
    try:
        with open(p, "r", encoding="utf-8") as fh:
            for rownum, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                tokens = line.split(",") if "," in line else line.split()
                if column >= len(tokens):
                    continue
                try:
                    v = float(tokens[column])
                except ValueError:
                    continue
                if not math.isfinite(v):
                    raise ValueError(f"non-finite value at row {rownum} of {p}")
                values.append(v)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{p} is not UTF-8 text ({exc.reason})") from None
    if not values:
        raise ValueError(f"no parseable rows in {p} (column {column})")
    return np.array(values)


def all_finite(x: np.ndarray) -> bool:
    """Whether every value of ``x`` is finite, with no warning. A finite sum
    proves it with no ``x``-sized mask; an overflowed one is checked by value."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(x.sum()) or np.isfinite(x).all())


def check_finite(x: np.ndarray, what: str) -> np.ndarray:
    """``x`` unchanged; a ValueError naming ``what`` and the first NaN or
    infinite value of ``x``, with its row and column, or its flat index."""
    if all_finite(x):
        return x
    k = int(np.argmin(np.isfinite(x)))  # the first False
    where = "row %d, column %d" % divmod(k, x.shape[1]) if x.ndim == 2 else f"index {k}"
    raise ValueError(f"{what} holds a non-finite value ({x.flat[k]}) at {where}")


def check_windowing(window_length: int, stride: int) -> None:
    if window_length < 1 or stride < 1:
        raise ValueError("window_length and stride must be positive")


def make_windows(series: np.ndarray, window_length: int, stride: int) -> np.ndarray:
    """Fixed-length windows at offsets 0, stride, 2*stride, ...; trailing partial dropped."""
    check_windowing(window_length, stride)
    v = np.asarray(series, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("series must be a non-empty 1-D array")
    check_finite(v, "series")
    if v.size < window_length:
        raise ValueError(f"series length {v.size} shorter than window length {window_length}")
    offsets = range(0, v.size - window_length + 1, stride)
    return np.stack([v[o : o + window_length] for o in offsets])


def zscore_fit_apply(windows: np.ndarray) -> tuple[np.ndarray, NormStats]:
    """Normalize by the pooled mean and population std of all window values."""
    w = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    mean = float(w.mean())
    std = float(w.std())  # population convention, ddof=0
    if std == 0.0:
        raise ValueError("zero pooled variance; cannot z-score")
    return (w - mean) / std, NormStats(mean=mean, std=std)


def check_eval_fraction(eval_fraction: float) -> None:
    if not 0.0 < eval_fraction < 1.0:
        raise ValueError("eval_fraction must be in (0, 1)")


def split(windows: np.ndarray, eval_fraction: float, seed: int) -> DatasetSplit:
    """Seeded shuffle into train/eval; z-score stats are fitted on train only.

    Train gets ceil((1 - eval_fraction) * N) windows, eval the remainder.
    Fitting normalization on the train split and applying it to eval avoids
    leaking eval statistics into training.
    """
    w = np.atleast_2d(np.asarray(windows, dtype=np.float64))
    n = w.shape[0]
    check_eval_fraction(eval_fraction)
    n_train = int(math.ceil((1.0 - eval_fraction) * n - 1e-9))
    n_eval = n - n_train
    if n_train < 1 or n_eval < 1:
        raise ValueError(f"degenerate split: {n_train} train / {n_eval} eval")
    perm = np.random.default_rng(seed).permutation(n)
    train_raw = w[perm[:n_train]]
    eval_raw = w[perm[n_train:]]
    train, norm = zscore_fit_apply(train_raw)
    eval_norm = (eval_raw - norm.mean) / norm.std
    return DatasetSplit(train=train, eval=eval_norm, norm=norm)


def synth_generate(kind: str, n: int, window_length: int, seed: int) -> np.ndarray:
    """Controlled synthetic corpora standing in for the real datasets.

    sine_mix:   sum of two sinusoids, each with per-window random phase,
                amplitude in [0.7, 1.3], and frequency from a fixed small
                set, plus Gaussian noise (sigma 0.1).
    ar1:        autoregressive process with coefficient 0.9 and Gaussian
                innovations, started from the stationary distribution.
    heavy_tail: the same AR(1) recursion driven by Student-t(3) innovations,
                giving heavy-tailed first differences.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"unknown synthetic kind '{kind}'; choose from {SYNTH_KINDS}")
    if n < 1:
        raise ValueError("need n >= 1")
    t_len = window_length
    if t_len < 4:
        raise ValueError("need window_length >= 4")
    rng = np.random.default_rng(seed)
    steps = np.arange(t_len)

    if kind == "sine_mix":
        f1 = rng.choice(_SINE_FREQS, size=n)
        f2 = rng.choice(_SINE_FREQS, size=n)
        ph1 = rng.uniform(0.0, 2.0 * np.pi, size=n)
        ph2 = rng.uniform(0.0, 2.0 * np.pi, size=n)
        a1 = rng.uniform(_SINE_AMP_LO, _SINE_AMP_HI, size=n)
        a2 = rng.uniform(_SINE_AMP_LO, _SINE_AMP_HI, size=n)
        base = a1[:, None] * np.sin(
            2.0 * np.pi * f1[:, None] * steps / t_len + ph1[:, None]
        )
        base += a2[:, None] * np.sin(
            2.0 * np.pi * f2[:, None] * steps / t_len + ph2[:, None]
        )
        return base + 0.1 * rng.standard_normal((n, t_len))

    phi = 0.9
    burn = 32
    if kind == "ar1":
        innov = rng.standard_normal((n, t_len + burn))
        x0 = rng.standard_normal(n) / np.sqrt(1.0 - phi * phi)
    else:  # heavy_tail
        innov = rng.standard_t(3, size=(n, t_len + burn))
        x0 = innov[:, 0] / np.sqrt(1.0 - phi * phi)
    out = np.empty((n, t_len + burn))
    out[:, 0] = x0
    for t in range(1, t_len + burn):
        out[:, t] = phi * out[:, t - 1] + innov[:, t]
    return np.ascontiguousarray(out[:, burn:])

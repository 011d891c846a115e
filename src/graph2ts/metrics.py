"""Evaluation metrics for (real, synthetic) window sets, plus tail diagnostics.

All metrics operate in the normalized (z-score) space the model trains in.
Distribution metrics pool the scalar values of each set and read them
sorted; representativeness metrics work in window space with exact
nearest-neighbor search.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .dataset import as_rows

__all__ = [
    "TailStats",
    "MetricsReport",
    "wasserstein1_pooled",
    "ks_pooled",
    "acf_mean_curve",
    "acf_mae",
    "psd_mean_curve",
    "psd_l2",
    "proto_err",
    "mdr",
    "coverage",
    "tail_stats",
    "variance_decomposition_check",
    "evaluate",
]

logger = logging.getLogger(__name__)

TAIL_QUANTILES = (0.001, 0.999)
COVERAGE_QUANTILES = (0.5, 0.9)  # evaluate's coverage levels


@dataclass(frozen=True)
class TailStats:
    mean: float
    std: float
    excess_kurtosis: float
    quantile_range: tuple[float, float]

    def as_items(self, prefix: str) -> list[tuple[str, float]]:
        """(key, value) pairs in serialization order, keys starting ``<prefix>_``."""
        return [
            (f"{prefix}_mean", self.mean),
            (f"{prefix}_std", self.std),
            (f"{prefix}_excess_kurtosis", self.excess_kurtosis),
            (f"{prefix}_q_lo", self.quantile_range[0]),
            (f"{prefix}_q_hi", self.quantile_range[1]),
        ]


@dataclass(frozen=True)
class MetricsReport:
    wasserstein: float
    ks: float
    acf_mae: float
    psd_l2: float
    proto_err_avg: float
    proto_err_med: float
    mdr: float
    coverage: dict[float, float]
    tails_real_x: TailStats
    tails_real_dx: TailStats
    tails_synth_x: TailStats
    tails_synth_dx: TailStats

    def score_items(self) -> list[tuple[str, float]]:
        """The (key, value) pairs of the scores, without the tail statistics."""
        items = [
            ("wasserstein", self.wasserstein),
            ("ks", self.ks),
            ("acf_mae", self.acf_mae),
            ("psd_l2", self.psd_l2),
            ("proto_err_avg", self.proto_err_avg),
            ("proto_err_med", self.proto_err_med),
            ("mdr", self.mdr),
        ]
        for q in sorted(self.coverage):
            items.append((f"coverage_{q:g}", self.coverage[q]))
        return items

    def as_items(self) -> list[tuple[str, float]]:
        """Flat (key, value) pairs in a stable order for serialization: the
        scores, then the tail statistics of each set."""
        items = self.score_items()
        for prefix, ts in (
            ("real_x", self.tails_real_x),
            ("real_dx", self.tails_real_dx),
            ("synth_x", self.tails_synth_x),
            ("synth_dx", self.tails_synth_dx),
        ):
            items += ts.as_items(prefix)
        return items


def _as_windows(x, name: str) -> np.ndarray:
    w = as_rows(x, f"{name} set")
    if w.size == 0:
        raise ValueError(f"{name} set is empty")
    return w


def _check_items(items, what: str) -> None:
    """A ValueError naming ``what`` and the first (key, value) of ``items``
    whose value is not finite."""
    for key, value in items:
        if not math.isfinite(value):
            raise ValueError(f"the {key} of the {what} is not finite ({value})")


def _as_pair(real, synth) -> tuple[np.ndarray, np.ndarray]:
    """The real and the synthetic set as windows of one length."""
    r = _as_windows(real, "real")
    s = _as_windows(synth, "synth")
    if r.shape[1] != s.shape[1]:
        raise ValueError("window lengths differ between sets")
    return r, s


# ---------------------------------------------------------------------------
# distribution fidelity
# ---------------------------------------------------------------------------

def _merged_counts(a: np.ndarray, b: np.ndarray):
    """Merge two sorted arrays. Returns the merged values and, at each merged
    position, how many members of ``a`` and of ``b`` lie at or before it.

    A stable argsort of the concatenation is timsort, which merges the two
    sorted runs in linear time. At the last position of a run of equal values
    the counts are those of ``searchsorted(side="right")`` for that value.
    """
    both = np.concatenate([a, b])
    order = np.argsort(both, kind="stable")
    in_a = np.cumsum(order < a.size)
    in_b = np.arange(1, both.size + 1) - in_a
    return both[order], in_a, in_b


def _w1_sorted(a: np.ndarray, b: np.ndarray) -> float:
    """W1 of two sorted value arrays."""
    if a.size == b.size:
        return float(np.abs(a - b).mean())
    merged, in_a, in_b = _merged_counts(a, b)
    # inside a run of ties the counts fall short of the run's, but the step
    # there is zero, so every product is that of the per-value counts
    ca = in_a[:-1] / a.size
    cb = in_b[:-1] / b.size
    return float((np.abs(ca - cb) * np.diff(merged)).sum())


def _ks_sorted(a: np.ndarray, b: np.ndarray) -> float:
    """KS statistic of two sorted value arrays: |F_a - F_b| at the last
    position of each run of equal merged values, which visits every value."""
    merged, in_a, in_b = _merged_counts(a, b)
    run_end = np.append(merged[1:] != merged[:-1], True)
    return float(np.abs(in_a[run_end] / a.size - in_b[run_end] / b.size).max())


def _sorted_values(x, name: str) -> np.ndarray:
    return np.sort(_as_windows(x, name).ravel())


def wasserstein1_pooled(real, synth) -> float:
    """1-D W1 between the pooled value distributions of the two sets.

    Equal sample counts reduce to the mean absolute difference of sorted
    values; the general case integrates |F_real - F_synth| over the merged
    support. Both are exact for empirical distributions.
    """
    return _w1_sorted(_sorted_values(real, "real"), _sorted_values(synth, "synth"))


def ks_pooled(real, synth) -> float:
    """Two-sample Kolmogorov-Smirnov statistic on pooled values."""
    return _ks_sorted(_sorted_values(real, "real"), _sorted_values(synth, "synth"))


# ---------------------------------------------------------------------------
# temporal structure
# ---------------------------------------------------------------------------

def acf_mean_curve(windows, max_lag: int) -> np.ndarray:
    """Mean autocorrelation curve over windows, lags 1..max_lag.

    Per window the biased normalized estimator is used:
    ACF(l) = sum_t (x_t - xbar)(x_{t+l} - xbar) / sum_t (x_t - xbar)^2.
    Zero-variance windows carry no autocorrelation signal and are skipped
    with a warning.
    """
    w = _as_windows(windows, "windows")
    t_len = w.shape[1]
    if not 1 <= max_lag < t_len:
        raise ValueError(f"max_lag must be in [1, {t_len - 1}]")
    xc = w - w.mean(axis=1, keepdims=True)
    den = (xc * xc).sum(axis=1)
    keep = den > 0
    if not keep.any():
        raise ValueError("all windows have zero variance")
    if not keep.all():
        logger.warning("acf: skipping %d zero-variance window(s)", int((~keep).sum()))
    xc = xc[keep]
    den = den[keep]
    curve = np.empty(max_lag)
    for lag in range(1, max_lag + 1):
        num = (xc[:, :-lag] * xc[:, lag:]).sum(axis=1)
        curve[lag - 1] = (num / den).mean()
    return curve


def acf_mae(real, synth) -> float:
    """MAE between the mean ACF curves of the two sets, up to lag T // 2.
    Both sets must have the same window length T."""
    r, s = _as_pair(real, synth)
    lag = r.shape[1] // 2
    return float(np.abs(acf_mean_curve(r, lag) - acf_mean_curve(s, lag)).mean())


def _hann_periodic(n: int) -> np.ndarray:
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def psd_mean_curve(windows) -> np.ndarray:
    """Mean one-sided power spectrum over windows (floor(T/2)+1 bins).

    Single-segment Hann-windowed periodogram normalized by the window power
    (sum of squared taper values); interior bins doubled for the one-sided
    convention. T=32 leaves no room for useful segment overlap, so one
    segment per window is used.
    """
    w = _as_windows(windows, "windows")
    t_len = w.shape[1]
    taper = _hann_periodic(t_len)
    spec = np.abs(np.fft.rfft(w * taper, axis=1)) ** 2 / (taper * taper).sum()
    if t_len % 2 == 0:
        spec[:, 1:-1] *= 2.0
    else:
        spec[:, 1:] *= 2.0
    return spec.mean(axis=0)


def psd_l2(real, synth) -> float:
    """Euclidean distance between the mean power spectra of the two sets."""
    r, s = _as_pair(real, synth)
    a = psd_mean_curve(r)
    b = psd_mean_curve(s)
    return float(np.sqrt(((a - b) ** 2).sum()))


# ---------------------------------------------------------------------------
# representativeness and coverage
# ---------------------------------------------------------------------------

def _proto_err(d_rs: np.ndarray) -> tuple[float, float]:
    return float(d_rs.mean()), float(np.median(d_rs))


def _coverage(d_rs: np.ndarray, nn_r: np.ndarray, q: float) -> float:
    tau = float(np.quantile(nn_r, q))
    return float((d_rs <= tau).mean())


def proto_err(real, synth) -> tuple[float, float]:
    """Mean and median distance from each real window to its nearest synthetic one."""
    r, s = _as_pair(real, synth)
    return _proto_err(_accel.min_dist_to_set(r, s))


def mdr(real, synth) -> float:
    """Medoid distance ratio: medoid gap over mean real distance to the real medoid."""
    r, s = _as_pair(real, synth)
    if r.shape[0] < 2:
        raise ValueError(f"mdr needs at least 2 real windows, got {r.shape[0]}")
    m_r = r[_accel.medoid_index(r)]
    m_s = s[_accel.medoid_index(s)]
    denom = float(np.sqrt(((r - m_r) ** 2).sum(axis=1)).mean())
    if denom == 0.0:
        raise ValueError(f"all {r.shape[0]} real windows identical; mdr undefined")
    return float(np.sqrt(((m_r - m_s) ** 2).sum())) / denom


def coverage(real, synth, q: float) -> float:
    """Fraction of real windows with a synthetic neighbor within the q-quantile
    of the real-to-real nearest-neighbor distances (self excluded)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    r, s = _as_pair(real, synth)
    if r.shape[0] < 2:
        raise ValueError(f"coverage needs at least 2 real windows, got {r.shape[0]}")
    return _coverage(_accel.min_dist_to_set(r, s), _accel.nn_dist_excl_self(r), q)


# ---------------------------------------------------------------------------
# tail diagnostics and the variance decomposition checker
# ---------------------------------------------------------------------------

def _tail_stats_1d(values: np.ndarray, what: str) -> TailStats:
    v = values.ravel()
    mean = float(v.mean())
    d2 = (v - mean) ** 2
    m2 = d2.mean()
    if m2 == 0.0:
        raise ValueError(f"zero variance in the {what}; kurtosis undefined")
    # squared squares: plain IEEE products, not numpy's target-dependent pow
    m4 = (d2 * d2).mean()
    lo, hi = np.quantile(v, TAIL_QUANTILES)
    # numpy scalars: an m2 * m2 that underflows to 0 gives inf or NaN, not ZeroDivisionError
    return TailStats(
        mean=mean,
        std=float(np.sqrt(m2)),
        excess_kurtosis=float(m4 / (m2 * m2) - 3.0),
        quantile_range=(float(lo), float(hi)),
    )


def tail_stats(windows, name: str = "windows") -> tuple[TailStats, TailStats]:
    """Pooled tail statistics for raw values and within-window first differences.

    ``name`` labels the set in errors. Values whose powers overflow give a
    ValueError naming the first non-finite statistic, not an inf or a NaN.
    """
    w = _as_windows(windows, name)
    if w.shape[1] < 2:
        raise ValueError("windows too short for first differences")
    with np.errstate(all="ignore"):  # a non-finite statistic is raised below
        stats = (_tail_stats_1d(w, f"values of the {name} set"),
                 _tail_stats_1d(np.diff(w, axis=1), f"first differences of the {name} set"))
    _check_items(stats[0].as_items("x") + stats[1].as_items("dx"), f"{name} set")
    return stats


def variance_decomposition_check(
    x: np.ndarray, labels: np.ndarray
) -> tuple[float, float, float]:
    """Total variance vs between-group + within-group variance (population form).

    Returns (lhs, rhs, relative gap). On finite samples the two sides agree
    exactly; on Monte-Carlo draws from a conditional model the gap shrinks
    with sample size, which is what makes this usable as a checker for the
    structure/residual split.
    """
    v = np.asarray(x, dtype=np.float64).ravel()
    lab = np.asarray(labels).ravel()
    if v.size == 0 or v.size != lab.size:
        raise ValueError("x and labels must be non-empty and equally long")
    lhs = float(v.var())
    group = np.unique(lab, return_inverse=True)[1]
    size = np.bincount(group)
    group_mean = np.bincount(group, weights=v) / size
    between = (size * (group_mean - v.mean()) ** 2).sum() / v.size
    within = np.bincount(group, weights=(v - group_mean[group]) ** 2).sum() / v.size
    rhs = float(between + within)
    if lhs == 0.0:
        return lhs, rhs, 0.0 if rhs == 0.0 else float("inf")
    return lhs, rhs, abs(lhs - rhs) / lhs


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

def evaluate(real, synth, seed: int = 0) -> MetricsReport:
    """Score a (real, synthetic) pair, subsampling the larger set to equal counts.

    Each item equals the public metric on the subsampled sets; the distance
    passes and each set's sorted values are computed once and shared. Values
    whose powers overflow give a ValueError naming the set and the first
    non-finite statistic or score, not an inf or a NaN.
    """
    r, s = _as_pair(real, synth)
    # checked before subsampling, which cuts the larger set to the smaller count
    if min(r.shape[0], s.shape[0]) < 2:
        raise ValueError(f"need at least 2 windows in each set, got {r.shape[0]} real "
                         f"and {s.shape[0]} synth")
    rng = np.random.default_rng(seed)
    if r.shape[0] > s.shape[0]:
        r = r[np.sort(rng.choice(r.shape[0], s.shape[0], replace=False))]
    elif s.shape[0] > r.shape[0]:
        s = s[np.sort(rng.choice(s.shape[0], r.shape[0], replace=False))]
    # first, so that a set whose powers overflow is named before any distance pass
    tails_r = tail_stats(r, "real")
    tails_s = tail_stats(s, "synth")
    with np.errstate(all="ignore"):  # a non-finite score is raised below
        # one pass per distance quantity, shared by proto_err and every coverage quantile
        d_rs = _accel.min_dist_to_set(r, s)
        nn_r = _accel.nn_dist_excl_self(r)
        avg, med = _proto_err(d_rs)
        # one sort per set, shared by W1 and KS
        r_sorted = np.sort(r.ravel())
        s_sorted = np.sort(s.ravel())
        report = MetricsReport(
            wasserstein=_w1_sorted(r_sorted, s_sorted),
            ks=_ks_sorted(r_sorted, s_sorted),
            acf_mae=acf_mae(r, s),
            psd_l2=psd_l2(r, s),
            proto_err_avg=avg,
            proto_err_med=med,
            mdr=mdr(r, s),
            coverage={q: _coverage(d_rs, nn_r, q) for q in COVERAGE_QUANTILES},
            tails_real_x=tails_r[0],
            tails_real_dx=tails_r[1],
            tails_synth_x=tails_s[0],
            tails_synth_dx=tails_s[1],
        )
    _check_items(report.score_items(), "real and synth sets")
    return report

"""Evaluation metrics for (real, synthetic) window sets, plus tail diagnostics.

All metrics operate in the normalized (z-score) space the model trains in.
Distribution metrics pool the scalar values of each set and read them
sorted; representativeness metrics work in window space with exact
nearest-neighbor search.

Every pair metric, ``mean_curves`` and ``evaluate`` is one call of one
scoring core, ``_pair_scores``. It checks the two sets once, rejects a set
whose squared distances could overflow before any distance pass, runs only
the shared work its keys need, and raises a ValueError naming the first value
that is not finite: no score comes back as inf or NaN, and none warns.
"""

from __future__ import annotations

import logging
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
    "mean_curves",
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
# the score keys of _pair_scores; "proto_err" gives two items and "coverage" one per level
SCORES = frozenset({"wasserstein", "ks", "acf_mae", "psd_l2", "proto_err", "mdr", "coverage"})


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
    """A ValueError naming ``what`` and the first (key, value) of ``items``,
    a value being a float or an array, that is not finite."""
    for key, value in items:
        v = np.ravel(value)
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValueError(f"the {key} of the {what} is not finite ({v[bad[0]]})")


def _as_pair(real, synth, pooled: bool) -> tuple[np.ndarray, np.ndarray]:
    """The real and the synthetic set as windows, of one length unless only
    their ``pooled`` values are read."""
    r = _as_windows(real, "real")
    s = _as_windows(synth, "synth")
    if not pooled and r.shape[1] != s.shape[1]:
        raise ValueError("window lengths differ between sets")
    return r, s


# ---------------------------------------------------------------------------
# building blocks: sorted values and mean curves
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


def acf_mean_curve(windows, max_lag: int, name: str = "windows") -> np.ndarray:
    """Mean autocorrelation curve over windows, lags 1..max_lag.

    Per window the biased normalized estimator is used:
    ACF(l) = sum_t (x_t - xbar)(x_{t+l} - xbar) / sum_t (x_t - xbar)^2.
    Zero-variance windows carry no autocorrelation signal and are skipped
    with a warning. ``name`` labels the set in errors.
    """
    w = _as_windows(windows, name)
    t_len = w.shape[1]
    if not 1 <= max_lag < t_len:
        raise ValueError(f"max_lag must be in [1, {t_len - 1}]")
    xc = w - w.mean(axis=1, keepdims=True)
    den = (xc * xc).sum(axis=1)
    keep = den > 0
    if not keep.any():
        raise ValueError(f"the {name} set holds only zero-variance windows")
    if not keep.all():
        logger.warning("acf: skipping %d zero-variance window(s) of the %s set",
                       int((~keep).sum()), name)
    xc, den = xc[keep], den[keep]
    curve = np.empty(max_lag)
    for lag in range(1, max_lag + 1):
        num = (xc[:, :-lag] * xc[:, lag:]).sum(axis=1)
        curve[lag - 1] = (num / den).mean()
    return curve


def psd_mean_curve(windows, name: str = "windows") -> np.ndarray:
    """Mean one-sided power spectrum over windows (floor(T/2)+1 bins).

    Single-segment Hann-windowed periodogram normalized by the window power
    (sum of squared taper values); interior bins doubled for the one-sided
    convention. T=32 leaves no room for useful segment overlap, so one
    segment per window is used. The periodic taper of one value is 0, so
    T must be at least 2. ``name`` labels the set in errors.
    """
    w = _as_windows(windows, name)
    t_len = w.shape[1]
    if t_len < 2:
        raise ValueError(f"the {name} set holds windows of length T={t_len}; "
                         "a tapered spectrum needs T >= 2")
    taper = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(t_len) / t_len)  # periodic Hann
    spec = np.abs(np.fft.rfft(w * taper, axis=1)) ** 2 / (taper * taper).sum()
    spec[:, 1:(t_len + 1) // 2] *= 2.0  # every bin but 0 and, for even T, Nyquist
    return spec.mean(axis=0)


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
# the scoring core and the public pair metrics
# ---------------------------------------------------------------------------

def _pair_scores(real, synth, keys, qs=(), seed=None) -> dict:
    """The ``keys`` (of ``SCORES``, or "curves" for ``mean_curves``) of a
    (real, synth) pair, named as ``MetricsReport``'s fields; "coverage" maps
    each level of ``qs`` to its value. With a ``seed``, evaluate's rules:
    the larger set is subsampled to the smaller count, and the tail
    statistics come first. No floating-point warning escapes."""
    if "coverage" in keys and not all(0.0 <= q <= 1.0 for q in qs):
        raise ValueError("q must be in [0, 1]")
    r, s = _as_pair(real, synth, keys <= {"wasserstein", "ks"})
    tails = {}
    if seed is not None:
        n = min(len(r), len(s))  # checked before the larger set is cut to n windows
        if n < 2:
            raise ValueError(f"need at least 2 windows in each set, got {len(r)} real "
                             f"and {len(s)} synth")
        rng = np.random.default_rng(seed)
        r, s = (w if len(w) == n else w[np.sort(rng.choice(len(w), n, replace=False))]
                for w in (r, s))
        # first, so that a set whose powers overflow is named by its statistics
        tails["tails_real_x"], tails["tails_real_dx"] = tail_stats(r, "real")
        tails["tails_synth_x"], tails["tails_synth_dx"] = tail_stats(s, "synth")
    sets = ((r, "real"), (s, "synth"))
    for key in ("mdr", "coverage"):
        if key in keys and r.shape[0] < 2:
            raise ValueError(f"{key} needs at least 2 real windows, got {r.shape[0]}")
    if keys & {"proto_err", "mdr", "coverage"}:
        for w, name in sets:  # before any distance pass
            if not _accel.squares_fit(w):
                raise ValueError(f"the squared distances of the {name} set may overflow "
                                 f"(|value| up to {np.abs(w).max():.6g})")
    out = {}
    with np.errstate(all="ignore"):  # a value that is not finite is raised below
        if keys & {"wasserstein", "ks"}:  # one sort per set
            a, b = np.sort(r.ravel()), np.sort(s.ravel())
            for key, score in (("wasserstein", _w1_sorted), ("ks", _ks_sorted)):
                if key in keys:
                    out[key] = score(a, b)
        if keys & {"acf_mae", "curves"}:
            acf = [acf_mean_curve(w, w.shape[1] // 2, name) for w, name in sets]
        if keys & {"psd_l2", "curves"}:
            psd = [psd_mean_curve(w, name) for w, name in sets]
        if "acf_mae" in keys:
            out["acf_mae"] = float(np.abs(acf[0] - acf[1]).mean())
        if "psd_l2" in keys:
            out["psd_l2"] = float(np.sqrt(((psd[0] - psd[1]) ** 2).sum()))
        if keys & {"proto_err", "coverage"}:  # one pass, shared by every coverage level
            d_rs = _accel.min_dist_to_set(r, s)
        if "proto_err" in keys:
            out["proto_err_avg"], out["proto_err_med"] = float(d_rs.mean()), float(np.median(d_rs))
        if "mdr" in keys:
            m_r, m_s = r[_accel.medoid_index(r)], s[_accel.medoid_index(s)]
            denom = float(np.sqrt(((r - m_r) ** 2).sum(axis=1)).mean())
            if denom == 0.0:
                raise ValueError(f"all {r.shape[0]} real windows identical; mdr undefined")
            out["mdr"] = float(np.sqrt(((m_r - m_s) ** 2).sum())) / denom
        if "coverage" in keys:
            nn_r = _accel.nn_dist_excl_self(r)
        if "curves" in keys:
            out.update(acf_real=acf[0], acf_synth=acf[1], psd_real=psd[0], psd_synth=psd[1])
    _check_items(out.items(), "real and synth sets")
    if "coverage" in keys:  # a share of the real set, from distances that cannot overflow
        out["coverage"] = {q: float((d_rs <= float(np.quantile(nn_r, q))).mean()) for q in qs}
    return {**out, **tails}


def wasserstein1_pooled(real, synth) -> float:
    """1-D W1 between the pooled value distributions of the two sets.

    Equal sample counts reduce to the mean absolute difference of sorted
    values; the general case integrates |F_real - F_synth| over the merged
    support. Both are exact for empirical distributions.
    """
    return _pair_scores(real, synth, {"wasserstein"})["wasserstein"]


def ks_pooled(real, synth) -> float:
    """Two-sample Kolmogorov-Smirnov statistic on pooled values."""
    return _pair_scores(real, synth, {"ks"})["ks"]


def acf_mae(real, synth) -> float:
    """MAE between the mean ACF curves of the two sets, up to lag T // 2.
    Both sets must have the same window length T."""
    return _pair_scores(real, synth, {"acf_mae"})["acf_mae"]


def psd_l2(real, synth) -> float:
    """Euclidean distance between the mean power spectra of the two sets."""
    return _pair_scores(real, synth, {"psd_l2"})["psd_l2"]


def mean_curves(real, synth) -> dict[str, np.ndarray]:
    """The mean ACF (lags 1..T // 2) and PSD curve of each set, keyed
    ``acf_real``, ``acf_synth``, ``psd_real`` and ``psd_synth``."""
    return _pair_scores(real, synth, {"curves"})


def proto_err(real, synth) -> tuple[float, float]:
    """Mean and median distance from each real window to its nearest synthetic one."""
    scores = _pair_scores(real, synth, {"proto_err"})
    return scores["proto_err_avg"], scores["proto_err_med"]


def mdr(real, synth) -> float:
    """Medoid distance ratio: medoid gap over mean real distance to the real medoid."""
    return _pair_scores(real, synth, {"mdr"})["mdr"]


def coverage(real, synth, q: float) -> float:
    """Fraction of real windows with a synthetic neighbor within the q-quantile
    of the real-to-real nearest-neighbor distances (self excluded)."""
    return _pair_scores(real, synth, {"coverage"}, (q,))["coverage"][q]


def evaluate(real, synth, seed: int = 0) -> MetricsReport:
    """Score a (real, synthetic) pair, subsampling the larger set to equal
    counts. Each item equals the public metric on the subsampled sets."""
    return MetricsReport(**_pair_scores(real, synth, SCORES, COVERAGE_QUANTILES, seed))

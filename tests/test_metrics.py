import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.signal import periodogram

from graph2ts import metrics
from graph2ts.dataset import synth_generate
from graph2ts.metrics import (
    MetricsReport,
    acf_mae,
    acf_mean_curve,
    coverage,
    evaluate,
    ks_pooled,
    mdr,
    mean_curves,
    proto_err,
    psd_l2,
    psd_mean_curve,
    tail_stats,
    variance_decomposition_check,
    wasserstein1_pooled,
)

# ---------------------------------------------------------------------------
# brute-force reference implementations (kept independent of the package)
# ---------------------------------------------------------------------------

def brute_w1(a, b):
    """Optimal-transport cost on the line via exact assignment on a common
    refinement: repeat each sample so both multisets have equal size."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    ra = np.repeat(a, b.size)
    rb = np.repeat(b, a.size)
    cost = np.abs(ra[:, None] - rb[None, :])
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].sum() / ra.size


def brute_ks(a, b):
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    best = 0.0
    for v in np.concatenate([a, b]):
        fa = (a <= v).mean()
        fb = (b <= v).mean()
        best = max(best, abs(fa - fb))
    return best


def searchsorted_w1(a, b):
    """W1 by searching both sorted sets at every merged value (the formula the
    merged-order version must reproduce bit for bit)."""
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if a.size == b.size:
        return float(np.abs(a - b).mean())
    merged = np.sort(np.concatenate([a, b]))
    ca = np.searchsorted(a, merged[:-1], side="right") / a.size
    cb = np.searchsorted(b, merged[:-1], side="right") / b.size
    return float((np.abs(ca - cb) * np.diff(merged)).sum())


def searchsorted_ks(a, b):
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    merged = np.concatenate([a, b])
    ca = np.searchsorted(a, merged, side="right") / a.size
    cb = np.searchsorted(b, merged, side="right") / b.size
    return float(np.abs(ca - cb).max())


def brute_proto(real, synth):
    d = []
    for x in real:
        d.append(min(np.sqrt(((x - y) ** 2).sum()) for y in synth))
    d = np.array(d)
    return float(d.mean()), float(np.median(d))


def brute_medoid(xs):
    best_i, best_s = 0, np.inf
    for i, x in enumerate(xs):
        s = sum(np.sqrt(((x - y) ** 2).sum()) for y in xs)
        if s < best_s:
            best_i, best_s = i, s
    return best_i


def brute_mdr(real, synth):
    m_r = real[brute_medoid(real)]
    m_s = synth[brute_medoid(synth)]
    denom = np.mean([np.sqrt(((x - m_r) ** 2).sum()) for x in real])
    return float(np.sqrt(((m_r - m_s) ** 2).sum()) / denom)


def brute_coverage(real, synth, q):
    nn = []
    for i, x in enumerate(real):
        nn.append(min(np.sqrt(((x - real[j]) ** 2).sum())
                      for j in range(len(real)) if j != i))
    tau = np.quantile(nn, q)
    hits = 0
    for x in real:
        d = min(np.sqrt(((x - y) ** 2).sum()) for y in synth)
        hits += d <= tau
    return hits / len(real)


# ---------------------------------------------------------------------------
# distribution metrics
# ---------------------------------------------------------------------------

class TestWasserstein:
    def test_point_masses(self):
        assert wasserstein1_pooled([[0.0]], [[1.0]]) == 1.0

    def test_shifted_pairs(self):
        assert wasserstein1_pooled([[0.0, 2.0]], [[1.0, 3.0]]) == 1.0

    def test_identical(self, rng):
        s = rng.standard_normal((5, 6))
        assert wasserstein1_pooled(s, s) == 0.0

    def test_symmetry(self, rng):
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((6, 5))
        assert wasserstein1_pooled(a, b) == pytest.approx(wasserstein1_pooled(b, a), abs=1e-15)

    def test_matches_assignment_oracle(self, rng):
        for _ in range(25):
            a = rng.standard_normal((1, rng.integers(2, 9)))
            b = rng.standard_normal((1, a.shape[1]))
            assert abs(wasserstein1_pooled(a, b) - brute_w1(a, b)) <= 1e-12

    def test_unequal_sizes_against_oracle(self, rng):
        for _ in range(10):
            a = rng.standard_normal((1, rng.integers(2, 6)))
            b = rng.standard_normal((1, rng.integers(2, 6)))
            assert abs(wasserstein1_pooled(a, b) - brute_w1(a, b)) <= 1e-12


class TestKS:
    def test_identical(self, rng):
        s = rng.standard_normal((5, 6))
        assert ks_pooled(s, s) == 0.0

    def test_disjoint(self):
        assert ks_pooled([[0.0]], [[1.0]]) == 1.0

    def test_interleaved_thirds(self):
        assert ks_pooled([[0.0, 1.0, 2.0]], [[0.5, 1.5, 2.5]]) == pytest.approx(1 / 3, abs=1e-15)

    def test_matches_oracle(self, rng):
        for _ in range(25):
            a = rng.standard_normal((1, rng.integers(2, 12)))
            b = rng.standard_normal((1, rng.integers(2, 12)))
            assert abs(ks_pooled(a, b) - brute_ks(a, b)) <= 1e-12


def _tie_heavy_pairs(rng, n_cases):
    """Seeded (a, b) value sets: equal and unequal sizes, size 1, values
    rounded to 0-2 decimals (ties within and across sets), -0.0 beside +0.0,
    and identical sets."""
    for i in range(n_cases):
        na = 1 if i % 10 == 0 else int(rng.integers(1, 80))
        nb = na if i % 3 == 0 else (1 if i % 10 == 1 else int(rng.integers(1, 80)))
        decimals = i % 3
        a = np.round(rng.standard_normal(na), decimals)
        b = np.round(rng.standard_normal(nb), decimals)
        if i % 4 == 0:  # signed zeros: some zeros negative, some positive
            a[(a == 0) & (rng.random(na) < 0.5)] = -0.0
            b = np.append(b, [-0.0, 0.0])
        if i % 7 == 0:
            b = a.copy()
        yield a, b


def test_merged_order_matches_searchsorted_bit_for_bit():
    rng = np.random.default_rng(20261019)
    for a, b in _tie_heavy_pairs(rng, 240):
        for x, y in ((a, b), (b, a)):
            assert ks_pooled(x[None], y[None]) == searchsorted_ks(x, y), (x, y)
            assert wasserstein1_pooled(x[None], y[None]) == searchsorted_w1(x, y), (x, y)


# ---------------------------------------------------------------------------
# temporal metrics
# ---------------------------------------------------------------------------

class TestACF:
    def test_identical_zero(self, rng):
        s = rng.standard_normal((10, 32))
        assert acf_mae(s, s) == 0.0

    def test_alternating_lag1(self):
        w = np.tile([1.0, -1.0], 16)[None, :]
        curve = acf_mean_curve(w, 1)
        assert curve[0] == pytest.approx(-31 / 32, abs=1e-12)
        assert curve[0] <= -0.9

    def test_white_noise_mean_curve_small(self):
        w = np.random.default_rng(0).standard_normal((10_000, 32))
        curve = acf_mean_curve(w, 16)
        assert np.abs(curve).max() <= 0.05

    def test_zero_variance_skipped_with_warning(self, caplog):
        w = np.vstack([np.zeros((1, 8)), np.random.default_rng(0).standard_normal((3, 8))])
        with caplog.at_level("WARNING", logger="graph2ts.metrics"):
            acf_mean_curve(w, 2)
        assert any("zero-variance" in r.message for r in caplog.records)

    def test_all_zero_variance_errors(self, rng):
        with pytest.raises(ValueError, match="^the windows set holds only zero-variance windows$"):
            acf_mean_curve(np.ones((3, 8)), 2)
        with pytest.raises(ValueError, match="^the synth set holds only zero-variance windows$"):
            acf_mae(rng.standard_normal((3, 8)), np.ones((3, 8)))

    @pytest.mark.parametrize("widths", [(8, 32), (32, 8)])
    def test_window_lengths_differ(self, rng, widths):
        real = rng.standard_normal((20, widths[0]))
        synth = rng.standard_normal((20, widths[1]))
        with pytest.raises(ValueError, match="^window lengths differ between sets$"):
            acf_mae(real, synth)


class TestPSD:
    def test_identical_zero(self, rng):
        s = rng.standard_normal((10, 32))
        assert psd_l2(s, s) == 0.0

    def test_cosine_peak_bin(self):
        t = np.arange(32)
        w = np.cos(2 * np.pi * 4 * t / 32)[None, :]
        curve = psd_mean_curve(w)
        assert curve.size == 17
        assert int(np.argmax(curve)) == 4

    def test_amplitude_change_detected(self, rng):
        s = rng.standard_normal((20, 32))
        assert psd_l2(s, 2.0 * s) > 0.0

    @pytest.mark.parametrize("t_len", [7, 8, 31, 32])
    def test_matches_scipy_periodogram(self, rng, t_len):
        # odd T has no Nyquist bin, so every bin past 0 is doubled
        w = rng.standard_normal((50, t_len))
        want = periodogram(w, window="hann", detrend=False, scaling="density",
                           axis=1)[1].mean(axis=0)
        np.testing.assert_allclose(psd_mean_curve(w), want, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# representativeness metrics
# ---------------------------------------------------------------------------

class TestProtoErr:
    def test_identical(self, rng):
        s = rng.standard_normal((8, 5))
        assert proto_err(s, s) == (0.0, 0.0)

    def test_three_four_five(self):
        assert proto_err([[0.0, 0.0]], [[3.0, 4.0]]) == (5.0, 5.0)

    def test_matches_oracle(self, rng):
        r = rng.standard_normal((50, 6))
        s = rng.standard_normal((50, 6))
        avg, med = proto_err(r, s)
        b_avg, b_med = brute_proto(r, s)
        assert abs(avg - b_avg) <= 1e-12 and abs(med - b_med) <= 1e-12

    def test_superset_never_hurts(self, rng):
        r = rng.standard_normal((20, 4))
        s = rng.standard_normal((15, 4))
        extra = np.vstack([s, rng.standard_normal((10, 4))])
        assert proto_err(r, extra)[0] <= proto_err(r, s)[0] + 1e-15

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_synth_rejected(self, rng, bad):
        s = rng.standard_normal((10, 4))
        s[3, 1] = bad
        with pytest.raises(ValueError, match="synth set holds a non-finite value"):
            proto_err(rng.standard_normal((10, 4)), s)


class TestMDR:
    def test_identical(self, rng):
        s = rng.standard_normal((8, 5))
        assert mdr(s, s) == 0.0

    def test_1d_medoid_enumeration(self):
        real = np.array([[0.0], [1.0], [10.0]])
        m = brute_medoid(real)
        assert m == 1  # summed distances 11, 10, 19
        assert mdr(real, real) == 0.0

    def test_scale_invariance(self, rng):
        r = rng.standard_normal((12, 4))
        s = rng.standard_normal((9, 4))
        assert mdr(3.0 * r, 3.0 * s) == pytest.approx(mdr(r, s), rel=1e-12)

    def test_matches_oracle(self, rng):
        for _ in range(15):
            r = rng.standard_normal((rng.integers(3, 14), 4))
            s = rng.standard_normal((rng.integers(3, 14), 4))
            assert abs(mdr(r, s) - brute_mdr(r, s)) <= 1e-12

    def test_identical_reals_error(self):
        with pytest.raises(ValueError):
            mdr(np.ones((4, 3)), np.zeros((4, 3)))


class TestCoverage:
    def test_identical_full(self, rng):
        s = rng.standard_normal((8, 5))
        for q in (0.0, 0.5, 0.9, 1.0):
            assert coverage(s, s, q) == 1.0

    def test_far_translation_zero(self, rng):
        r = rng.standard_normal((8, 5))
        assert coverage(r, r + 1e6, 0.9) == 0.0

    def test_hand_case(self):
        real = np.array([[0.0], [1.0], [10.0]])
        synth = np.array([[0.0]])
        assert coverage(real, synth, 0.5) == pytest.approx(2 / 3, abs=1e-15)

    def test_monotone_in_q(self, rng):
        r = rng.standard_normal((20, 4))
        s = rng.standard_normal((20, 4))
        vals = [coverage(r, s, q) for q in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_matches_oracle(self, rng):
        for _ in range(15):
            r = rng.standard_normal((rng.integers(4, 14), 3))
            s = rng.standard_normal((rng.integers(3, 14), 3))
            q = float(rng.uniform(0.1, 0.9))
            assert abs(coverage(r, s, q) - brute_coverage(r, s, q)) <= 1e-12

    def test_arguments_checked_before_distance_passes(self, rng, monkeypatch):
        def no_pass(*args):
            raise AssertionError("distance pass ran before the argument checks")

        for kernel in ("min_dist_to_set", "nn_dist_excl_self"):
            monkeypatch.setattr(metrics._accel, kernel, no_pass)
        r = rng.standard_normal((30, 4))
        for q in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError, match=r"q must be in \[0, 1\]"):
                coverage(r, r, q)
        with pytest.raises(ValueError, match="at least 2 real windows, got 1"):
            coverage(r[:1], r, 0.5)


# ---------------------------------------------------------------------------
# tails and the variance decomposition
# ---------------------------------------------------------------------------

class TestTailStats:
    def test_normal_kurtosis_near_zero(self):
        w = np.random.default_rng(1).standard_normal((31_250, 32))
        x_stats, _ = tail_stats(w)
        assert abs(x_stats.excess_kurtosis) <= 0.05

    def test_uniform_kurtosis(self):
        w = np.random.default_rng(1).uniform(-1, 1, size=(31_250, 32))
        x_stats, _ = tail_stats(w)
        assert abs(x_stats.excess_kurtosis - (-1.2)) <= 0.05

    def test_constant_errors(self):
        with pytest.raises(ValueError):
            tail_stats(np.ones((5, 8)))

    def test_quantile_range_ordered(self, rng):
        x_stats, dx_stats = tail_stats(rng.standard_normal((100, 16)))
        assert x_stats.quantile_range[0] <= x_stats.quantile_range[1]
        assert dx_stats.quantile_range[0] <= dx_stats.quantile_range[1]

    def test_dx_is_within_window(self):
        # two windows whose junction would create a huge cross-window jump
        w = np.vstack([np.zeros(8), np.full(8, 100.0)])
        w[0, -1] = 1.0
        w[1, 0] = 100.0
        _, dx_stats = tail_stats(w)
        # max |dx| inside windows is 1, so the 99.9% quantile stays small
        assert dx_stats.quantile_range[1] <= 1.0


class TestVarianceDecomposition:
    def test_single_group_exact(self, rng):
        x = rng.standard_normal(50)
        lhs, rhs, gap = variance_decomposition_check(x, np.zeros(50, dtype=int))
        assert gap <= 1e-15

    def test_two_group_hand_case(self):
        x = np.array([0.0, 0.0, 2.0, 2.0])
        labels = np.array([0, 0, 1, 1])
        lhs, rhs, gap = variance_decomposition_check(x, labels)
        assert lhs == 1.0 and rhs == 1.0 and gap == 0.0

    def test_exact_identity_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 60))
            x = rng.standard_normal(n) * rng.uniform(0.5, 4)
            labels = rng.integers(0, 4, size=n)
            lhs, rhs, gap = variance_decomposition_check(x, labels)
            assert gap <= 1e-12

    def test_constant_input(self):
        assert variance_decomposition_check(np.full(6, 2.5), np.arange(6) % 2) == (0.0, 0.0, 0.0)

    def test_equals_per_group_loop_on_unequal_groups(self, rng):
        # the reference: one pass over each label's members
        for sizes in ([1, 2, 97], [5, 300, 40, 1], [7]):
            labels = rng.permutation(np.repeat(np.arange(len(sizes)) * 3 - 2, sizes))
            x = rng.standard_normal(labels.size) * 2.5 + labels
            between = within = 0.0
            for g in np.unique(labels):
                grp = x[labels == g]
                between += grp.size / x.size * (grp.mean() - x.mean()) ** 2
                within += grp.size / x.size * grp.var()
            lhs, rhs, _ = variance_decomposition_check(x, labels)
            assert lhs == x.var()
            assert rhs == pytest.approx(between + within, rel=1e-12, abs=0.0)

    def test_monte_carlo_three_group_gaussian(self):
        rng = np.random.default_rng(7)
        n = 100_000
        labels = rng.integers(0, 3, size=n)
        means = np.array([-2.0, 0.5, 3.0])
        stds = np.array([0.5, 1.0, 2.0])
        x = means[labels] + stds[labels] * rng.standard_normal(n)
        lhs, rhs, gap = variance_decomposition_check(x, labels)
        assert gap <= 1e-12  # empirical decomposition is an identity
        # the Monte-Carlo estimate must match the analytic decomposition
        analytic = (stds**2).mean() + ((means - means.mean()) ** 2).mean()
        assert lhs == pytest.approx(analytic, rel=0.02)
        assert rhs == pytest.approx(analytic, rel=0.02)


class TestEvaluate:
    def test_report_keys_and_subsampling(self, rng):
        real = rng.standard_normal((30, 16))
        synth = rng.standard_normal((44, 16))
        rep = evaluate(real, synth, seed=3)
        keys = [k for k, _ in rep.as_items()]
        assert keys[:7] == [
            "wasserstein", "ks", "acf_mae", "psd_l2",
            "proto_err_avg", "proto_err_med", "mdr",
        ]
        assert "coverage_0.5" in keys and "coverage_0.9" in keys
        assert "real_dx_excess_kurtosis" in keys and "synth_x_q_hi" in keys

    def test_self_evaluation_ideal(self, rng):
        s = rng.standard_normal((25, 16))
        rep = evaluate(s, s, seed=0)
        assert rep.wasserstein == 0.0 and rep.ks == 0.0
        assert rep.acf_mae == 0.0 and rep.psd_l2 == 0.0
        assert rep.proto_err_avg == 0.0 and rep.mdr == 0.0
        assert rep.coverage[0.5] == 1.0 and rep.coverage[0.9] == 1.0

    def test_deterministic_subsampling(self, rng):
        real = rng.standard_normal((30, 16))
        synth = rng.standard_normal((50, 16))
        a = evaluate(real, synth, seed=3)
        b = evaluate(real, synth, seed=3)
        assert a == b

    def test_shared_distances_match_standalone_metrics(self, rng, monkeypatch):
        # evaluate computes each distance quantity once; the values must be
        # those of the standalone metric calls, bit for bit
        real = np.round(rng.standard_normal((60, 16)), 1)
        synth = np.vstack([real[::4], rng.standard_normal((45, 16))])
        qs = (0.0, 0.25, 0.5, 0.9, 1.0)
        monkeypatch.setattr(metrics, "COVERAGE_QUANTILES", qs)
        rep = evaluate(real, synth)
        assert (rep.proto_err_avg, rep.proto_err_med) == proto_err(real, synth)
        assert rep.mdr == mdr(real, synth)
        for q in qs:
            assert rep.coverage[q] == coverage(real, synth, q)

    @pytest.mark.parametrize("n_real, n_synth", [(40, 40), (40, 70), (70, 40)])
    def test_report_equals_public_functions(self, rng, n_real, n_synth):
        # evaluate shares sorts and distance passes; each item must still be the
        # public function's value on the same subsampled sets
        real = np.round(rng.standard_normal((n_real, 12)), 1)
        synth = np.round(rng.standard_normal((n_synth, 12)), 1)
        pick = np.random.default_rng(5)
        n = min(n_real, n_synth)
        r = real if n_real == n else real[np.sort(pick.choice(n_real, n, replace=False))]
        s = synth if n_synth == n else synth[np.sort(pick.choice(n_synth, n, replace=False))]
        tails_r, tails_s = tail_stats(r), tail_stats(s)
        want = MetricsReport(
            wasserstein=wasserstein1_pooled(r, s),
            ks=ks_pooled(r, s),
            acf_mae=acf_mae(r, s),
            psd_l2=psd_l2(r, s),
            proto_err_avg=proto_err(r, s)[0],
            proto_err_med=proto_err(r, s)[1],
            mdr=mdr(r, s),
            coverage={q: coverage(r, s, q) for q in metrics.COVERAGE_QUANTILES},
            tails_real_x=tails_r[0],
            tails_real_dx=tails_r[1],
            tails_synth_x=tails_s[0],
            tails_synth_dx=tails_s[1],
        )
        assert evaluate(real, synth, seed=5).as_items() == want.as_items()

    def test_nonfinite_window_rejected(self, rng):
        # one NaN window used to give proto_err_avg=nan and medoid 0 silently
        real = rng.standard_normal((30, 4))
        real[7, 2] = np.nan
        with pytest.raises(ValueError, match="real set holds a non-finite value"):
            evaluate(real, rng.standard_normal((30, 4)))


# ---------------------------------------------------------------------------
# input validation shared by every metric
# ---------------------------------------------------------------------------

PAIR_METRICS = {
    "acf_mae": acf_mae,
    "psd_l2": psd_l2,
    "proto_err": proto_err,
    "mdr": mdr,
    "coverage": lambda r, s: coverage(r, s, 0.5),
    "evaluate": evaluate,
}


class TestOverflow:
    """Values whose powers overflow give a ValueError that names the set and
    the first non-finite statistic, with no warning, never an inf or a NaN."""

    def test_evaluate_huge_windows(self):
        real = synth_generate("sine_mix", 40, 8, seed=1) * 1e200
        synth = synth_generate("sine_mix", 40, 8, seed=2) * 1e200
        with pytest.raises(ValueError, match=r"^the x_std of the real set is not finite \(inf\)$"):
            evaluate(real, synth)
        with pytest.raises(ValueError, match=r"^the x_std of the synth set is not finite "):
            evaluate(synth_generate("sine_mix", 40, 8, seed=1), synth)

    def test_tail_stats_huge_windows(self):
        with pytest.raises(ValueError, match=r"^the x_std of the windows set is not finite "
                                             r"\(inf\)$"):
            tail_stats(synth_generate("sine_mix", 40, 8, seed=1) * 1e200)

    def test_tail_stats_underflowing_variance(self):
        # m2 is ~1e-200, so m2 * m2 underflows to zero
        with pytest.raises(ValueError, match=r"^the x_excess_kurtosis of the tiny set is not "
                                             r"finite \(nan\)$"):
            tail_stats(synth_generate("sine_mix", 40, 8, seed=1) * 1e-100, "tiny")

    def test_non_finite_score_named(self, monkeypatch):
        w = synth_generate("sine_mix", 40, 8, seed=1)
        monkeypatch.setattr(metrics._accel, "min_dist_to_set", lambda a, b: np.full(len(a), np.inf))
        with pytest.raises(ValueError, match=r"^the proto_err_avg of the real and synth sets "
                                             r"is not finite \(inf\)$"):
            evaluate(w, w[::-1])

    def test_large_finite_windows_score(self):
        # powers up to the fourth stay finite at 1e70
        w = synth_generate("sine_mix", 40, 8, seed=1)
        items = evaluate(w * 1e70, w[::-1] * 1e70).as_items()
        assert all(np.isfinite(v) for _, v in items)


class TestInputValidation:
    @pytest.mark.parametrize("widths", [(8, 1), (8, 9), (9, 8)])
    @pytest.mark.parametrize("name", sorted(PAIR_METRICS))
    def test_pair_widths_differ(self, rng, name, widths):
        # mdr broadcast an (10, 8) real set against an (10, 1) synth set silently;
        # psd_l2's spectra for T=8 and T=9 have one length
        real = rng.standard_normal((10, widths[0]))
        synth = rng.standard_normal((10, widths[1]))
        with pytest.raises(ValueError, match="^window lengths differ between sets$"):
            PAIR_METRICS[name](real, synth)

    def test_3d_set_named(self, rng):
        # tail_stats used to take differences along the middle axis of the 3-D array
        with pytest.raises(ValueError, match=r"^windows set must be 1-D or 2-D, got shape "
                                             r"\(2, 3, 4\)$"):
            tail_stats(rng.standard_normal((2, 3, 4)))
        flat = rng.standard_normal((6, 4))
        cube = flat.reshape(2, 3, 4)
        with pytest.raises(ValueError, match=r"^real set must be 1-D or 2-D"):
            evaluate(cube, flat)
        with pytest.raises(ValueError, match=r"^synth set must be 1-D or 2-D"):
            evaluate(flat, cube)

    def test_non_finite_value_located(self, rng):
        real = rng.standard_normal((10, 4))
        real[7, 2] = -np.inf
        with pytest.raises(ValueError, match=r"^real set holds a non-finite value \(-inf\) "
                                             r"at row 7, column 2$"):
            mdr(real, rng.standard_normal((10, 4)))


@pytest.mark.parametrize("call, message", [
    (lambda: tail_stats(np.empty((0, 8))), r"^windows set is empty$"),
    (lambda: evaluate(np.empty((0, 8)), np.ones((4, 8))), r"^real set is empty$"),
    (lambda: mdr(np.ones((1, 8)), np.ones((4, 8))), r"^mdr needs at least 2 real windows, got 1$"),
    (lambda: tail_stats(np.ones((5, 1))), r"^windows too short for first differences$"),
    (lambda: acf_mean_curve(np.eye(8), 0), r"^max_lag must be in \[1, 7\]$"),
    (lambda: acf_mean_curve(np.eye(8), 8), r"^max_lag must be in \[1, 7\]$"),
    (lambda: psd_mean_curve(np.ones((3, 1))),
     r"^the windows set holds windows of length T=1; a tapered spectrum needs T >= 2$"),
    (lambda: psd_l2(np.ones((3, 1)), np.ones((3, 1))),
     r"^the real set holds windows of length T=1; a tapered spectrum needs T >= 2$"),
    (lambda: variance_decomposition_check(np.ones(4), np.zeros(3)),
     r"^x and labels must be non-empty and equally long$"),
    (lambda: variance_decomposition_check(np.ones(0), np.zeros(0)),
     r"^x and labels must be non-empty and equally long$"),
], ids=["tail_stats_empty", "evaluate_empty_real", "mdr_one_real", "tail_stats_t1",
        "acf_lag_0", "acf_lag_t", "psd_t1", "psd_l2_t1", "decomposition_mismatched",
        "decomposition_empty"])
def test_raise_paths(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ---------------------------------------------------------------------------
# one scoring core: every pair metric on sets whose powers overflow
# ---------------------------------------------------------------------------

PAIR_CALLS = {
    "wasserstein1_pooled": wasserstein1_pooled,
    "ks_pooled": ks_pooled,
    "acf_mae": acf_mae,
    "psd_l2": psd_l2,
    "proto_err": proto_err,
    "mdr": mdr,
    "coverage": lambda r, s: coverage(r, s, 0.5),
}
_NOT_FINITE = "^the {} of the real and synth sets is not finite \\({}\\)$"
_TOO_LARGE = (r"^the squared distances of the real set may overflow "
              r"\(\|value\| up to 2\.27834e\+200\)$")
_NAN = r"^synth set holds a non-finite value \(nan\) at row 3, column 1$"
# (metric, scale): the value the metric returned before it shared evaluate's
# guard, or the exact message of its ValueError; "nan" puts a NaN in the synth set
PAIR_TABLE = {
    ("wasserstein1_pooled", 1e200): 8.948495122793351e+198,
    ("ks_pooled", 1e200): 0.0625,
    ("acf_mae", 1e200): _NOT_FINITE.format("acf_mae", "nan"),  # was nan
    ("psd_l2", 1e200): _NOT_FINITE.format("psd_l2", "nan"),  # was nan
    ("proto_err", 1e200): _TOO_LARGE,  # was (inf, inf)
    ("mdr", 1e200): _TOO_LARGE,  # was nan
    ("coverage", 1e200): _TOO_LARGE,  # was 0.0
    ("wasserstein1_pooled", 1e100): 8.948495122793352e+98,
    ("ks_pooled", 1e100): 0.0625,
    ("acf_mae", 1e100): 0.046125789756839244,
    ("psd_l2", 1e100): _NOT_FINITE.format("psd_l2", "inf"),  # was inf
    ("proto_err", 1e100): (1.6976079634288024e+100, 1.7550706497607404e+100),
    ("mdr", 1e100): 0.6422991120487618,
    ("coverage", 1e100): 0.425,
    ("wasserstein1_pooled", 1e70): 8.948495122793352e+68,
    ("ks_pooled", 1e70): 0.0625,
    ("acf_mae", 1e70): 0.04612578975683924,
    ("psd_l2", 1e70): 1.1830357395917296e+140,
    ("proto_err", 1e70): (1.6976079634288024e+70, 1.755070649760741e+70),
    ("mdr", 1e70): 0.6422991120487619,
    ("coverage", 1e70): 0.425,
    **{(name, "nan"): _NAN for name in PAIR_CALLS},
}


@pytest.mark.parametrize("name, scale", PAIR_TABLE, ids=[f"{n}-{s}" for n, s in PAIR_TABLE])
def test_pair_metric_table(name, scale, monkeypatch):
    # every warning is an error in this suite, so each case also shows that none escapes
    real = synth_generate("sine_mix", 40, 8, seed=1)
    synth = synth_generate("sine_mix", 40, 8, seed=2)
    if scale == "nan":
        synth[3, 1] = np.nan
    else:
        real, synth = real * scale, synth * scale
    want = PAIR_TABLE[name, scale]
    if not isinstance(want, str):
        assert PAIR_CALLS[name](real, synth) == want
        return

    def no_pass(*args):
        raise AssertionError("distance pass ran on a refused pair")

    for kernel in ("min_dist_to_set", "nn_dist_excl_self", "medoid_index"):
        monkeypatch.setattr(metrics._accel, kernel, no_pass)
    with pytest.raises(ValueError, match=want):
        PAIR_CALLS[name](real, synth)


def test_mean_curves_name_a_curve_that_is_not_finite():
    real = synth_generate("sine_mix", 20, 8, seed=1)
    synth = synth_generate("sine_mix", 30, 8, seed=2)
    curves = mean_curves(real, synth)
    assert list(curves) == ["acf_real", "acf_synth", "psd_real", "psd_synth"]
    assert np.array_equal(curves["acf_synth"], acf_mean_curve(synth, 4))
    assert np.array_equal(curves["psd_real"], psd_mean_curve(real))
    synth[29] *= 1e160
    with pytest.raises(ValueError, match=_NOT_FINITE.format("acf_synth", "nan")):
        mean_curves(real, synth)


def test_pair_check_and_errstate_only_in_the_core():
    # the scoring core is the one place that checks a pair of sets, and it and
    # tail_stats are the only places that silence floating-point warnings
    path = Path(metrics.__file__)
    lines = path.read_text(encoding="utf-8").splitlines()
    spans = {n.name: (n.lineno, n.end_lineno) for n in ast.parse("\n".join(lines)).body
             if isinstance(n, ast.FunctionDef)}
    allowed = {spans["_as_pair"][0]}  # the def line
    for fn in ("_pair_scores", "tail_stats"):
        allowed |= set(range(spans[fn][0], spans[fn][1] + 1))
    for needle in ("_as_pair(", "np.errstate("):
        hits = {n for n, line in enumerate(lines, start=1) if needle in line}
        assert hits and hits <= allowed, (needle, sorted(hits - allowed))

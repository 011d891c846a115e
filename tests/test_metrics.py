import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from graph2ts import metrics
from graph2ts.metrics import (
    MetricsReport,
    acf_mae,
    acf_mean_curve,
    coverage,
    evaluate,
    ks_pooled,
    mdr,
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

    def test_all_zero_variance_errors(self):
        with pytest.raises(ValueError):
            acf_mean_curve(np.ones((3, 8)), 2)


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

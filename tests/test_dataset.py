import numpy as np
import pytest

from graph2ts.dataset import (
    NormStats,
    load_series,
    make_windows,
    split,
    synth_generate,
    zscore_fit_apply,
)


def _write(tmp_path, text, name="series.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadSeries:
    def test_plain_column(self, tmp_path):
        p = _write(tmp_path, "1.0\n2.0\n3.0\n")
        s = load_series(p, 0)
        assert s.dtype == np.float64 and np.array_equal(s, [1.0, 2.0, 3.0])

    def test_header_skipped(self, tmp_path):
        p = _write(tmp_path, "val\n5\n5\n")
        assert np.array_equal(load_series(p, 0), [5.0, 5.0])

    def test_nan_row_is_error(self, tmp_path):
        p = _write(tmp_path, "1.0\nnan\n2.0\n")
        with pytest.raises(ValueError, match="row 2"):
            load_series(p, 0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_series(tmp_path / "nope.txt", 0)

    def test_no_parseable_rows(self, tmp_path):
        p = _write(tmp_path, "a\nb\n")
        with pytest.raises(ValueError, match="no parseable rows"):
            load_series(p, 0)

    @pytest.mark.parametrize("sep", [",", "\t", " "])
    def test_delimiters(self, tmp_path, sep):
        p = _write(tmp_path, f"1{sep}10\n2{sep}20\n")
        assert np.array_equal(load_series(p, 1), [10.0, 20.0])


class TestMakeWindows:
    def test_stride_one(self):
        w = make_windows(np.arange(1.0, 6.0), 3, 1)
        assert w.shape == (3, 3)
        assert np.array_equal(w, [[1, 2, 3], [2, 3, 4], [3, 4, 5]])

    def test_stride_two_drops_partial(self):
        w = make_windows(np.arange(1.0, 6.0), 3, 2)
        assert np.array_equal(w, [[1, 2, 3], [3, 4, 5]])

    def test_too_short(self):
        with pytest.raises(ValueError):
            make_windows(np.array([1.0, 2.0]), 3, 1)

    def test_not_1d(self):
        with pytest.raises(ValueError, match="non-empty 1-D array"):
            make_windows(np.ones((2, 3)), 2, 1)

    def test_nan_value(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_windows(np.array([1.0, np.nan, 3.0]), 2, 1)

    def test_concat_roundtrip(self, rng):
        # stride=T windowing then concatenation rebuilds the series prefix
        values = rng.standard_normal(103)
        w = make_windows(values, 10, 10)
        assert np.array_equal(w.ravel(), values[: w.size])


class TestZScore:
    def test_two_point(self):
        out, norm = zscore_fit_apply(np.array([[0.0, 2.0]]))
        assert np.array_equal(out, [[-1.0, 1.0]])
        assert norm == NormStats(mean=1.0, std=1.0)

    def test_constant_errors(self):
        with pytest.raises(ValueError, match="zero pooled variance"):
            zscore_fit_apply(np.array([[5.0, 5.0, 5.0]]))

    def test_population_std(self):
        out, norm = zscore_fit_apply(np.array([[1.0, 3.0], [1.0, 3.0]]))
        assert norm.mean == 2.0 and norm.std == 1.0
        assert np.array_equal(out, [[-1.0, 1.0], [-1.0, 1.0]])

    def test_pooled_stats_property(self, rng):
        for _ in range(5):
            w = rng.standard_normal((20, 8)) * 3 + 1
            out, _ = zscore_fit_apply(w)
            assert abs(out.mean()) <= 1e-9
            assert abs(out.std() - 1.0) <= 1e-9


class TestSplit:
    def test_sizes(self, rng):
        d = split(rng.standard_normal((10, 4)), 0.2, seed=1)
        assert d.train.shape[0] == 8 and d.eval.shape[0] == 2

    def test_deterministic(self, rng):
        w = rng.standard_normal((10, 4))
        a = split(w, 0.2, seed=1)
        b = split(w, 0.2, seed=1)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.eval, b.eval)

    def test_tiny_train(self, rng):
        d = split(rng.standard_normal((10, 4)), 0.99, seed=1)
        assert d.train.shape[0] == 1 and d.eval.shape[0] == 9

    def test_norm_fitted_on_train_only(self, rng):
        w = rng.standard_normal((50, 4))
        d = split(w, 0.2, seed=3)
        assert abs(d.train.mean()) <= 1e-9
        assert abs(d.train.std() - 1.0) <= 1e-9
        # eval is mapped with train stats, so its stats are close but not exact
        assert abs(d.eval.mean()) > 0

    def test_degenerate(self, rng):
        with pytest.raises(ValueError):
            split(rng.standard_normal((1, 4)), 0.5, seed=1)


class TestSynthGenerate:
    def test_reproducible(self):
        a = synth_generate("sine_mix", 5, 32, seed=9)
        b = synth_generate("sine_mix", 5, 32, seed=9)
        assert np.array_equal(a, b)

    def test_all_kinds_shape(self):
        for kind in ("sine_mix", "ar1", "heavy_tail"):
            w = synth_generate(kind, 7, 16, seed=1)
            assert w.shape == (7, 16)
            assert np.isfinite(w).all()

    def test_ar1_lag1_autocorr(self):
        w = synth_generate("ar1", 10_000, 32, seed=4)
        r = np.corrcoef(w[:, :-1].ravel(), w[:, 1:].ravel())[0, 1]
        assert 0.85 <= r <= 0.95

    def test_heavy_tail_kurtosis(self):
        w = synth_generate("heavy_tail", 10_000, 32, seed=4)
        dx = np.diff(w, axis=1).ravel()
        m2 = ((dx - dx.mean()) ** 2).mean()
        m4 = ((dx - dx.mean()) ** 4).mean()
        assert m4 / m2**2 - 3.0 > 2.0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            synth_generate("square", 5, 32, seed=1)
        with pytest.raises(ValueError):
            synth_generate("ar1", 0, 32, seed=1)
        with pytest.raises(ValueError):
            synth_generate("ar1", 5, 3, seed=1)

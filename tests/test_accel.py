"""The distance and counting kernels against brute-force references, bit for bit."""

import re
import warnings

import numpy as np
import pytest

from graph2ts import _accel as acc


def brute_d2(a, b):
    """Squared distances row by row: the exact reference ((a[i] - b) ** 2).sum()."""
    return np.stack([((a[i] - b) ** 2).sum(axis=1) for i in range(a.shape[0])])


@pytest.fixture(scope="module")
def sets():
    r = np.random.default_rng(77)
    return r.standard_normal((120, 16)), r.standard_normal((90, 16))


def test_min_dist_paths_agree(sets):
    a, b = sets
    assert np.array_equal(acc.min_dist_to_set(a, b), np.sqrt(brute_d2(a, b).min(axis=1)))


def test_nn_excl_self_paths_agree(sets):
    a, _ = sets
    d2 = brute_d2(a, a)
    np.fill_diagonal(d2, np.inf)
    assert np.array_equal(acc.nn_dist_excl_self(a), np.sqrt(d2.min(axis=1)))


def test_medoid_paths_agree(sets):
    a, b = sets
    for x in (a, b):
        assert acc.medoid_index(x) == int(np.argmin(np.sqrt(brute_d2(x, x)).sum(axis=1)))


def test_chunked_paths_agree(sets, monkeypatch):
    # a tiny budget forces one row per chunk, so chunk seams are exercised
    a, b = sets
    whole = (acc.min_dist_to_set(a, b), acc.nn_dist_excl_self(a), acc.medoid_index(a))
    monkeypatch.setattr(acc, "_CHUNK_BUDGET", 1)
    assert np.array_equal(acc.min_dist_to_set(a, b), whole[0])
    assert np.array_equal(acc.nn_dist_excl_self(a), whole[1])
    assert acc.medoid_index(a) == whole[2]


def test_uneven_chunks_agree_with_brute_force(sets, monkeypatch):
    # chunks of 7 rows leave a 1-row last chunk of 120 (and 6 of 90)
    a, b = sets
    monkeypatch.setattr(acc, "_CHUNK_BUDGET", 7 * b.shape[0])
    assert np.array_equal(acc.min_dist_to_set(a, b), np.sqrt(brute_d2(a, b).min(axis=1)))
    monkeypatch.setattr(acc, "_CHUNK_BUDGET", 7 * a.shape[0])
    d2 = brute_d2(a, a)
    medoid = int(np.argmin(np.sqrt(d2).sum(axis=1)))
    np.fill_diagonal(d2, np.inf)
    assert np.array_equal(acc.nn_dist_excl_self(a), np.sqrt(d2.min(axis=1)))
    assert acc.medoid_index(a) == medoid


def test_gram_chunks_fill_one_buffer(sets, monkeypatch):
    # one product of augmented operands: [a | 1] . [-2b | |b|^2] against b, and
    # [a | 1 | |a|^2] . [-2a | |a|^2 | 1] (b is a) against rows lo: only
    a, b = sets
    for other, upper in ((b, False), (a, True)):
        monkeypatch.setattr(acc, "_CHUNK_BUDGET", 7 * other.shape[0])
        nb2 = (other * other).sum(axis=1)
        ones = np.ones((a.shape[0], 1))
        left = np.hstack([a, ones, nb2[:, None]] if upper else [a, ones])
        tail = [nb2[:, None], ones[:other.shape[0]]] if upper else [nb2[:, None]]
        right = np.hstack([-2.0 * other] + tail).T.copy()  # C order, as the kernel's
        bases = []
        for lo, hi, g, _ in acc._gram_chunks(a, other, upper=upper):
            col = lo if upper else 0
            assert np.array_equal(g, left[lo:hi] @ right[:, col:])
            bases.append(g.base)
        assert hi == a.shape[0] and len(bases) == 18
        assert bases[0] is not None and all(base is bases[0] for base in bases)


def brute_medoid(x):
    return int(np.argmin(np.sqrt(brute_d2(x, x)).sum(axis=1)))


def medoid_case(sets, case):
    """Sets whose medoid must survive the half pass's row and column sums."""
    a, b = sets
    if case == "scales":
        return [a * 1e-6, b * 1e-3, a * 1e5]
    if case == "large_offset":
        return [a + 1e3, b * 1e5 + 1e8]
    if case == "rounded_copies":
        r = np.round(a, 1)
        return [np.vstack([r, r[::9]]), np.round(a[:, :3])]
    if case == "twice":
        return [np.vstack([a, a])]
    if case == "collinear":
        rng = np.random.default_rng(0)
        return [offset + rng.permutation(8)[:, None] * 0.1 * rng.standard_normal((1, 6))
                for offset in (0.0, 1e2 / 3, 1e4 / 3) for _ in range(4)]
    if case == "last_row":  # the centre, appended last
        return [np.vstack([a, a.mean(axis=0)]), np.vstack([b, np.zeros((1, 16))])]
    raise ValueError(case)


@pytest.mark.parametrize("rows", [1, 2, 7, 50])
@pytest.mark.parametrize("case", ["scales", "large_offset", "rounded_copies", "twice",
                                  "collinear", "last_row"])
def test_medoid_half_pass_chunks(sets, monkeypatch, case, rows):
    # chunks of `rows` rows: every block's column sums feed later rows
    for x in medoid_case(sets, case):
        want = brute_medoid(x)
        if case == "twice":
            assert want < x.shape[0] // 2
        if case == "last_row":
            assert want == x.shape[0] - 1
        monkeypatch.setattr(acc, "_CHUNK_BUDGET", rows * x.shape[0])
        assert acc.medoid_index(x) == want


def test_medoid_tie_takes_lowest_index(sets):
    a = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    assert acc.medoid_index(a) == 0
    # every row tied with its copy: the first copy must win
    x, _ = sets
    twice = np.vstack([x, x])
    ref = int(np.argmin(np.sqrt(brute_d2(twice, twice)).sum(axis=1)))
    assert acc.medoid_index(twice) == ref < x.shape[0]


def assert_kernels_match_brute(a, b):
    """All three distance kernels equal the brute-force reference bit for bit."""
    assert np.array_equal(acc.min_dist_to_set(a, b), np.sqrt(brute_d2(a, b).min(axis=1)))
    d2 = brute_d2(a, a)
    np.fill_diagonal(d2, np.inf)
    assert np.array_equal(acc.nn_dist_excl_self(a), np.sqrt(d2.min(axis=1)))
    for x in (a, b):
        assert acc.medoid_index(x) == int(np.argmin(np.sqrt(brute_d2(x, x)).sum(axis=1)))


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e5])
def test_gram_scales(sets, scale):
    a, b = sets
    assert_kernels_match_brute(a * scale, b * scale)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e5])
def test_gram_large_common_offset(sets, scale):
    # |a|^2 + |b|^2 - 2ab cancels to a few digits: the re-check must restore them
    a, b = sets
    assert_kernels_match_brute(a * scale + 1e3 * scale, b * scale + 1e3 * scale)


def test_gram_rounded_values_ties_and_copies(sets):
    a, b = (np.round(x, 1) for x in sets)
    a = np.vstack([a, a[::9]])  # duplicate rows besides the chance ties
    assert_kernels_match_brute(a, np.vstack([b, a[::5]]))
    coarse = np.round(sets[0][:, :3])  # few distinct rows: many exact ties
    assert_kernels_match_brute(coarse, coarse[::-1].copy())


def test_gram_single_column(sets):
    a, b = (x[:, :1] for x in sets)
    assert_kernels_match_brute(a, b)
    assert_kernels_match_brute(np.round(a, 1), np.round(b, 1))


def test_gram_single_row_b(sets):
    a, b = sets
    assert_kernels_match_brute(a, b[:1])
    assert np.array_equal(acc.nn_dist_excl_self(b[:1]), [np.inf])


def test_medoid_near_ties_need_recheck():
    # collinear points, an even count: the two middle rows tie up to rounding,
    # which the Gram sums alone resolve wrongly about half the time
    rng = np.random.default_rng(0)
    for offset in (0.0, 1e2 / 3, 1e4 / 3):
        for _ in range(10):
            steps = rng.permutation(8)[:, None] * 0.1
            x = offset + steps * rng.standard_normal((1, 6))
            assert acc.medoid_index(x) == int(np.argmin(np.sqrt(brute_d2(x, x)).sum(axis=1)))


def test_chunked_self_exclusion_with_copies(monkeypatch):
    # one row per chunk: a copy of row 0 further down must still find it
    a = np.random.default_rng(5).standard_normal((30, 4))
    dup = np.vstack([a, a[:3]])
    d2 = brute_d2(dup, dup)
    np.fill_diagonal(d2, np.inf)
    monkeypatch.setattr(acc, "_CHUNK_BUDGET", 1)
    assert np.array_equal(acc.nn_dist_excl_self(dup), np.sqrt(d2.min(axis=1)))


def test_transition_counts_paths_agree():
    rng = np.random.default_rng(3)
    s = rng.integers(1, 7, size=(40, 20))
    ref = np.zeros((40, 6, 6), dtype=np.int64)
    for w in range(s.shape[0]):
        for j in range(s.shape[1] - 1):
            ref[w, s[w, j] - 1, s[w, j + 1] - 1] += 1
    got = acc.transition_counts(s, 6)
    assert got.dtype == np.int64
    assert np.array_equal(got, ref)


def test_transition_counts_values():
    s = np.array([[1, 2, 2, 1]])
    c = acc.transition_counts(s, 2)[0]
    assert np.array_equal(c, [[0, 1], [1, 1]])


def test_identical_rows_give_exact_zero(sets):
    a, b = sets
    assert acc.min_dist_to_set(a, a).max() == 0.0
    copies = np.vstack([b, a[::7]])
    assert (acc.min_dist_to_set(a[::7], copies) == 0.0).all()
    dup = np.vstack([a, a[:16]])
    nn = acc.nn_dist_excl_self(dup)
    assert (nn[:16] == 0.0).all() and (nn[-16:] == 0.0).all()


def assert_nn_kernels_match_brute(a, b):
    """min_dist_to_set(a, b) and nn_dist_excl_self(a) against the reference, NaN included."""
    assert np.array_equal(acc.min_dist_to_set(a, b), np.sqrt(brute_d2(a, b).min(axis=1)),
                          equal_nan=True)
    d2 = brute_d2(a, a)
    np.fill_diagonal(d2, np.inf)
    assert np.array_equal(acc.nn_dist_excl_self(a), np.sqrt(d2.min(axis=1)), equal_nan=True)


def candidate_case(sets, case):
    a, b = sets
    if case == "duplicates":  # every third row of a has two copies in b: an exact tie
        return a, np.vstack([b, a[::3], a[::3], b[:10]])
    if case == "nan_a":
        x = a.copy()
        x[4, 2] = np.nan
        return x, b
    if case == "nan_b":
        y = b.copy()
        y[11, 0] = np.nan
        return a, y
    if case == "copies_in_a":
        return np.vstack([a, a[::4], a[:2]]), b
    if case == "large_offset":
        return a + 1e6, b + 1e6
    if case == "near_ties":  # pairs 1e-9 apart, far inside the bound at offset 1e4
        nudged = b.copy()
        nudged[:, 0] += 1e-9
        return a + 1e4, np.vstack([b, nudged]) + 1e4
    raise ValueError(case)


@pytest.mark.parametrize("rows", [None, 1, 7, 50])
@pytest.mark.parametrize("case", ["duplicates", "nan_a", "nan_b", "copies_in_a",
                                  "large_offset", "near_ties"])
def test_argmin_candidates_match_brute(sets, monkeypatch, case, rows):
    # ties and near-ties leave the argmin-only path for the full mask
    a, b = candidate_case(sets, case)
    if rows is not None:
        monkeypatch.setattr(acc, "_CHUNK_BUDGET", rows * max(a.shape[0], b.shape[0]))
    assert_nn_kernels_match_brute(a, b)


def test_nan_row_gives_nan(sets):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # NaN is the result, not a warning
        a, b = candidate_case(sets, "nan_a")
        assert np.isnan(acc.min_dist_to_set(a, b)[4])
        assert np.isnan(acc.nn_dist_excl_self(a)).all()  # every row is NaN away from row 4
        a, b = candidate_case(sets, "nan_b")
        assert np.isnan(acc.min_dist_to_set(a, b)).all()


@pytest.mark.parametrize("rows", [1, 7, 50])
def test_nn_excl_self_one_row_and_duplicates(sets, monkeypatch, rows):
    a, _ = sets
    monkeypatch.setattr(acc, "_CHUNK_BUDGET", rows * (a.shape[0] + 1))
    assert np.array_equal(acc.nn_dist_excl_self(a[:1]), [np.inf])
    twice = np.vstack([a, a[::-1]])
    assert (acc.nn_dist_excl_self(twice) == 0.0).all()
    monkeypatch.setattr(acc, "_CHUNK_BUDGET", rows * 2)
    assert np.array_equal(acc.nn_dist_excl_self(a[:2].repeat(2, axis=0)), [0.0] * 4)


@pytest.mark.parametrize("a_shape, b_shape", [
    ((5, 3), (0, 3)), ((0, 3), (5, 3)), ((5, 0), (5, 0)), ((5, 3), (4, 2)),
])
def test_min_dist_rejects_empty_or_mismatched(a_shape, b_shape):
    with pytest.raises(ValueError, match=re.escape(f"got shapes {a_shape} and {b_shape}")):
        acc.min_dist_to_set(np.ones(a_shape), np.ones(b_shape))


@pytest.mark.parametrize("kernel", [acc.nn_dist_excl_self, acc.medoid_index])
def test_self_kernels_reject_empty(kernel):
    with pytest.raises(ValueError, match=re.escape("got shapes (0, 4) and (0, 4)")):
        kernel(np.empty((0, 4)))

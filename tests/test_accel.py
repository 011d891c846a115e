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
    # one float32 product of augmented operands, rows centered on b's mean and
    # scaled by a power of two: [A | 1 | |A|^2] . [-2B | |B|^2 | 1] against b,
    # and against rows lo: only when b is a
    a, b = sets
    for other, upper in ((b, False), (a, True)):
        monkeypatch.setattr(acc, "_CHUNK_BUDGET", 7 * other.shape[0])
        c = other.mean(axis=0)
        s = 2.0 ** (30 - np.frexp(max(np.abs(a - c).max(), np.abs(other - c).max()))[1] - 3)
        wa, wb = ((s * (x - c)).astype(np.float32) for x in (a, other))
        left = np.hstack([wa, np.ones((a.shape[0], 1), np.float32),
                          (wa * wa).sum(axis=1)[:, None]])
        right = np.hstack([-2 * wb, (wb * wb).sum(axis=1)[:, None],
                           np.ones((other.shape[0], 1), np.float32)]).T.copy()
        bases = []
        for lo, hi, g, _ in acc._gram_chunks(a, other, np.float32, upper=upper):
            col = lo if upper else 0
            assert g.dtype == np.float32
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
    """min_dist_to_set(a, b) and nn_dist_excl_self(a) against the reference."""
    assert np.array_equal(acc.min_dist_to_set(a, b), np.sqrt(brute_d2(a, b).min(axis=1)))
    d2 = brute_d2(a, a)
    np.fill_diagonal(d2, np.inf)
    assert np.array_equal(acc.nn_dist_excl_self(a), np.sqrt(d2.min(axis=1)))


def non_finite_message(x, name):
    """The kernels' error for the set ``x`` called ``name``: its first NaN or inf."""
    i, j = np.argwhere(~np.isfinite(x))[0]
    return re.escape(f"set {name} holds a non-finite value ({x[i, j]}) at row {i}, column {j}")


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
    if case == "nan_a":  # finite input only: the error names the set, row and column
        for kernel in (lambda: acc.min_dist_to_set(a, b), lambda: acc.nn_dist_excl_self(a),
                       lambda: acc.medoid_index(a)):
            with pytest.raises(ValueError, match=non_finite_message(a, "a")):
                kernel()
    elif case == "nan_b":
        with pytest.raises(ValueError, match=non_finite_message(b, "b")):
            acc.min_dist_to_set(a, b)
    else:
        assert_nn_kernels_match_brute(a, b)


def test_non_finite_input_is_rejected_before_any_pair(monkeypatch):
    # one inf in b used to make every pair a candidate (1,001,000 pairs, not ~1,000)
    rng = np.random.default_rng(8)
    a, b = rng.standard_normal((1000, 32)), rng.standard_normal((1000, 32))
    b[417, 9] = np.inf

    def never(*args):
        raise AssertionError("a pair was recomputed")

    monkeypatch.setattr(acc, "_exact_sq_dist", never)
    with pytest.raises(ValueError, match=re.escape("set b holds a non-finite value (inf) "
                                                   "at row 417, column 9")):
        acc.min_dist_to_set(a, b)
    a[123, 31] = np.nan
    with pytest.raises(ValueError, match=re.escape("set a holds a non-finite value (nan) "
                                                   "at row 123, column 31")):
        acc.medoid_index(a)


@pytest.mark.parametrize("big", [1e155, 1e200, 1e307, 1.7e308])
def test_finite_input_near_float64_top(sets, monkeypatch, big):
    # past the bound's premises every pair is recomputed; the reference's own
    # squares and sums overflow to inf there, and near 1.7e308 its differences too
    rng = np.random.default_rng(17)
    a, b = sets[0][:40].copy(), sets[1][:30].copy()
    a[::4] = big * rng.uniform(-1, 1, (10, 16))
    b[::5] = big * rng.uniform(-1, 1, (6, 16))
    b[7], a[39] = a[8], a[4]  # copies: exactly 0.0
    # distinct rows whose distances are still finite at 1e155
    cluster = big / 2 * (1 + 1e-3 * rng.standard_normal((20, 16)))
    pairs = []

    def counting(x, y, ii, jj):
        pairs.append(ii.size)
        return exact(x, y, ii, jj)

    exact = acc._exact_sq_dist
    monkeypatch.setattr(acc, "_exact_sq_dist", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", r"overflow encountered in (square|subtract|reduce)",
                                RuntimeWarning)
        assert_kernels_match_brute(a, b)
        assert_kernels_match_brute(cluster, cluster[::-1].copy())
        pairs.clear()
        assert acc.min_dist_to_set(a, b)[8] == acc.nn_dist_excl_self(a)[4] == 0.0
    assert sum(pairs) >= a.shape[0] * b.shape[0]


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


def sweep_case(rng):
    """One seeded input pair: random shapes, scale, offset, ties, copies, non-finite values."""
    n, m = (int(x) for x in rng.integers(1, 40, size=2))
    t = 1 if rng.random() < 0.2 else int(rng.integers(2, 24))
    a, b = rng.standard_normal((n, t)), rng.standard_normal((m, t))
    if rng.random() < 0.3:  # few distinct values: exact ties
        digits = int(rng.integers(0, 2))
        a, b = np.round(a, digits), np.round(b, digits)
    if rng.random() < 0.3:  # copies within a and from a into b
        a = np.vstack([a, a[::3]])
        b = np.vstack([b, a[::2]])
    offset = rng.choice([0.0, 1.0, 1e4, 1e8]) * rng.standard_normal(t)
    scale = 10.0 ** rng.uniform(-30, 30)  # squares past float32's range at both ends
    a, b = (offset + a) * scale, (offset + b) * scale
    for x in (a, b):
        if rng.random() < 0.1:
            x[rng.integers(x.shape[0]), rng.integers(t)] = rng.choice([np.nan, np.inf, -np.inf])
    return a, b


def test_kernels_match_brute_force_sweep(monkeypatch):
    rng = np.random.default_rng(2026)
    rejected = 0
    for case in range(200):
        a, b = sweep_case(rng)
        budget = rng.choice([acc._CHUNK_BUDGET, 7 * max(a.shape[0], b.shape[0]), 1])
        with warnings.catch_warnings(), monkeypatch.context() as patch:
            warnings.simplefilter("error")
            patch.setattr(acc, "_CHUNK_BUDGET", int(budget))
            finite = [np.isfinite(x).all() for x in (a, b)]
            if not all(finite):  # the first bad set is named, a self kernel's set is a
                rejected += 1
                bad = [x for x, ok in zip((a, b), finite) if not ok]
                name = "b" if finite[0] else "a"
                with pytest.raises(ValueError, match=non_finite_message(bad[0], name)):
                    acc.min_dist_to_set(a, b)
                for x in bad:
                    for kernel in (acc.nn_dist_excl_self, acc.medoid_index):
                        with pytest.raises(ValueError, match=non_finite_message(x, "a")):
                            kernel(x)
                continue
            d_aa = brute_d2(a, a)
            want_min = np.sqrt(brute_d2(a, b).min(axis=1))
            want_med = [int(np.argmin(np.sqrt(brute_d2(x, x)).sum(axis=1))) for x in (a, b)]
            np.fill_diagonal(d_aa, np.inf)
            want_nn = np.sqrt(d_aa.min(axis=1))
            assert np.array_equal(acc.min_dist_to_set(a, b), want_min), case
            assert np.array_equal(acc.nn_dist_excl_self(a), want_nn), case
            assert [acc.medoid_index(x) for x in (a, b)] == want_med, case
    assert 0 < rejected < 200


def test_common_offset_recomputes_few_pairs(monkeypatch):
    # centering: a 1e4 offset would otherwise put every pair inside the float32 bound
    rng = np.random.default_rng(8)
    z = rng.standard_normal((2000, 32))
    z = (z - z.mean(axis=1, keepdims=True)) / z.std(axis=1, keepdims=True)
    pairs = []

    def counting(a, b, ii, jj):
        pairs[-1] += ii.size
        return exact(a, b, ii, jj)

    exact = acc._exact_sq_dist
    monkeypatch.setattr(acc, "_exact_sq_dist", counting)
    for shift in (0.0, 1e4):
        a, b = z[:1000] + shift, z[1000:] + shift
        pairs.append(0)
        assert np.array_equal(acc.min_dist_to_set(a, b), np.sqrt(brute_d2(a, b).min(axis=1)))
        d2 = brute_d2(a, a)
        medoid = int(np.argmin(np.sqrt(d2).sum(axis=1)))
        np.fill_diagonal(d2, np.inf)
        assert np.array_equal(acc.nn_dist_excl_self(a), np.sqrt(d2.min(axis=1)))
        assert acc.medoid_index(a) == medoid
    assert pairs[1] <= 2 * pairs[0], pairs

"""The distance and counting kernels against brute-force references, bit for bit."""

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


def test_medoid_tie_takes_lowest_index(sets):
    a = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    assert acc.medoid_index(a) == 0
    # every row tied with its copy: the first copy must win
    x, _ = sets
    twice = np.vstack([x, x])
    ref = int(np.argmin(np.sqrt(brute_d2(twice, twice)).sum(axis=1)))
    assert acc.medoid_index(twice) == ref < x.shape[0]


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

import numpy as np
import pytest

from graph2ts.quantile_graph import (
    QuantileBoundaries,
    discretize,
    fit_boundaries,
    graph_distance,
    identity_graph,
    reshape_graph,
    transition_matrix,
    windows_to_graphs,
)

# the worked 3-state example: drawn values, their band edges, the resulting
# state sequence and the six nonzero transition probabilities
EXAMPLE_VALUES = np.array([0.6, 1.6, 2.9, 2.7, 1.4, 0.5, 0.8, 2.0, 2.8])
EXAMPLE_EDGES = np.array([0.3, 1.1, 2.5, 3.1])
EXAMPLE_STATES = np.array([1, 2, 3, 3, 2, 1, 1, 2, 3])
EXAMPLE_MATRIX = np.array([
    [1 / 3, 2 / 3, 0.0],
    [1 / 3, 0.0, 2 / 3],
    [0.0, 1 / 2, 1 / 2],
])


class TestFitBoundaries:
    def test_median_interpolation(self):
        b = fit_boundaries(np.arange(1.0, 11.0), 2)
        assert np.array_equal(b.edges, [1.0, 5.5, 10.0])

    def test_equiprobable_bins(self):
        values = np.arange(1.0, 11.0)
        b = fit_boundaries(values, 10)
        assert b.edges.size == 11
        states = discretize(values, b)
        counts = np.bincount(states, minlength=11)[1:]
        assert (counts == 1).all()

    def test_all_equal_errors(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_boundaries(np.full(20, 3.0), 2)

    def test_tie_perturbation_reported(self, caplog):
        values = np.array([0.0] * 50 + [1.0] * 50 + list(np.linspace(2, 3, 20)))
        with caplog.at_level("WARNING", logger="graph2ts.quantile_graph"):
            b = fit_boundaries(values, 10)
        assert (np.diff(b.edges) > 0).all()
        assert any("perturbed" in r.message for r in caplog.records)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_named(self, bad):
        values = np.linspace(0.0, 1.0, 30)
        values[17] = bad
        with pytest.raises(ValueError, match=rf"non-finite value \({bad}\) at index 17"):
            fit_boundaries(values, 3)

    def test_equiprobability_on_distinct(self, rng):
        q = 5
        values = rng.permutation(np.linspace(0, 1, 40 * q))
        b = fit_boundaries(values, q)
        counts = np.bincount(discretize(values, b), minlength=q + 1)[1:]
        assert (np.abs(counts - 40) <= 1).all()


class TestDiscretize:
    def test_worked_example(self):
        b = QuantileBoundaries(edges=EXAMPLE_EDGES, n_states=3)
        assert np.array_equal(discretize(EXAMPLE_VALUES, b), EXAMPLE_STATES)

    def test_top_edge_closed(self):
        b = QuantileBoundaries(edges=np.array([0.0, 1.0, 2.0]), n_states=2)
        assert discretize(np.array([2.0]), b)[0] == 2

    def test_clipping(self):
        b = QuantileBoundaries(edges=np.array([0.0, 1.0, 2.0]), n_states=2)
        assert discretize(np.array([-5.0]), b)[0] == 1
        assert discretize(np.array([9.0]), b)[0] == 2

    def test_non_finite_named(self):
        with pytest.raises(ValueError, match=r"non-finite value \(nan\) at index 1"):
            discretize(np.array([0.5, np.nan, 1.0]), QuantileBoundaries(EXAMPLE_EDGES, 3))

    def test_monotone(self, rng):
        b = fit_boundaries(rng.standard_normal(500), 10)
        x = np.sort(rng.standard_normal(200) * 2)
        s = discretize(x, b)
        assert (np.diff(s) >= 0).all()


class TestTransitionMatrix:
    def test_worked_example_exact(self):
        p = transition_matrix(EXAMPLE_STATES, 3)
        assert np.array_equal(p, EXAMPLE_MATRIX)

    def test_self_loop_and_zero_row(self):
        p = transition_matrix(np.array([1, 1, 1]), 2)
        assert p[0, 0] == 1.0
        assert (p[1] == 0.0).all()

    def test_single_transition(self):
        p = transition_matrix(np.array([1, 2]), 2)
        assert p[0, 1] == 1.0
        assert (p[1] == 0.0).all()

    def test_too_short(self):
        with pytest.raises(ValueError):
            transition_matrix(np.array([1]), 2)

    def test_rows_stochastic_or_zero(self, rng):
        for _ in range(20):
            s = rng.integers(1, 6, size=rng.integers(2, 40))
            p = transition_matrix(s, 5)
            sums = p.sum(axis=1)
            assert ((np.abs(sums - 1.0) <= 1e-12) | (sums == 0.0)).all()
            assert (p >= 0).all() and (p <= 1).all()


class TestFlattenAndIdentity:
    def test_roundtrip(self, rng):
        p = rng.random((6, 6))
        assert np.array_equal(reshape_graph(p.ravel(), 6), p)

    def test_identity_graph(self):
        g = identity_graph(3)
        assert np.array_equal(g, np.eye(3))
        assert identity_graph(10).sum() == 10
        assert (identity_graph(10).sum(axis=1) == 1).all()


class TestGraphDistance:
    def test_zero_on_equal(self, rng):
        p = rng.random((4, 4))
        assert graph_distance(p, p) == 0.0

    def test_antidiagonal(self):
        assert graph_distance(np.eye(2), np.fliplr(np.eye(2))) == 2.0

    def test_symmetry_and_triangle(self, rng):
        for _ in range(20):
            a, b, c = rng.random((3, 4, 4))
            assert graph_distance(a, b) == graph_distance(b, a)
            assert graph_distance(a, c) <= graph_distance(a, b) + graph_distance(b, c) + 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            graph_distance(np.eye(2), np.eye(3))


class TestBatchGraphs:
    def test_matches_single_window_path(self, rng):
        w = rng.standard_normal((40, 16))
        b = fit_boundaries(w.ravel(), 4)
        batch = windows_to_graphs(w, b)
        for i in range(40):
            single = transition_matrix(discretize(w[i], b), 4)
            assert np.allclose(batch[i], single.reshape(-1), atol=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_window_named(self, rng, bad):
        w = rng.standard_normal((6, 8))
        b = fit_boundaries(w.ravel(), 3)
        w[4, 5] = bad
        w[5, 0] = bad
        with pytest.raises(ValueError, match=rf"non-finite value \({bad}\) at row 4, column 5"):
            windows_to_graphs(w, b)

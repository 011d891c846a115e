import dataclasses
import re

import numpy as np
import pytest

from graph2ts.quantile_graph import (
    QuantileBoundaries,
    discretize,
    fit_boundaries,
    graph_distance,
    identity_graph,
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


def graph_of_states(states, q: int) -> np.ndarray:
    """The Q x Q graph of one state sequence, through ``discretize`` and
    ``windows_to_graphs``: state k is drawn as the value k - 0.5 under the
    edges 0, 1, ..., Q."""
    bounds = QuantileBoundaries(np.arange(q + 1.0))
    values = np.asarray(states, dtype=np.float64) - 0.5
    assert np.array_equal(discretize(values, bounds), states)
    return windows_to_graphs(values, bounds).reshape(q, q)


def brute_force_graph(states, q: int) -> np.ndarray:
    """Flat row-normalized transition counts of one state sequence, one
    transition at a time."""
    counts = np.zeros((q, q))
    for src, dst in zip(states[:-1], states[1:]):
        counts[src - 1, dst - 1] += 1.0
    for row in counts:
        if row.sum() > 0:
            row /= row.sum()
    return counts.ravel()


class TestQuantileBoundaries:
    def test_edges_are_the_only_field(self):
        b = QuantileBoundaries(EXAMPLE_EDGES)
        assert [f.name for f in dataclasses.fields(b)] == ["edges"]
        assert b.n_states == 3

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_edge_named(self, bad):
        edges = EXAMPLE_EDGES.copy()
        edges[2] = bad
        with pytest.raises(ValueError, match=rf"^boundary edges holds a non-finite value "
                                             rf"\({bad}\) at index 2$"):
            QuantileBoundaries(edges)

    @pytest.mark.parametrize("edges, shape", [
        (np.eye(2), "(2, 2)"), (np.array([1.0]), "(1,)"), (2.0, "()"),
        (np.array([-5.0, 5.0]), "(2,)"),
    ], ids=["2d", "one_edge", "scalar", "two_edges"])
    def test_not_a_row_of_edges(self, edges, shape):
        # two edges bound one state, whose graphs would all be the single value 1.0
        with pytest.raises(ValueError, match=rf"^boundaries need a 1-D row of at least 3 "
                                             rf"edges, got shape {re.escape(shape)}$"):
            QuantileBoundaries(edges)


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
        b = QuantileBoundaries(EXAMPLE_EDGES)
        assert np.array_equal(discretize(EXAMPLE_VALUES, b), EXAMPLE_STATES)

    def test_top_edge_closed(self):
        b = QuantileBoundaries(np.array([0.0, 1.0, 2.0]))
        assert discretize(np.array([2.0]), b)[0] == 2

    def test_clipping(self):
        b = QuantileBoundaries(np.array([0.0, 1.0, 2.0]))
        assert discretize(np.array([-5.0]), b)[0] == 1
        assert discretize(np.array([9.0]), b)[0] == 2

    def test_non_finite_named(self):
        with pytest.raises(ValueError, match=r"non-finite value \(nan\) at index 1"):
            discretize(np.array([0.5, np.nan, 1.0]), QuantileBoundaries(EXAMPLE_EDGES))

    def test_monotone(self, rng):
        b = fit_boundaries(rng.standard_normal(500), 10)
        x = np.sort(rng.standard_normal(200) * 2)
        s = discretize(x, b)
        assert (np.diff(s) >= 0).all()


class TestTransitionMatrix:
    def test_worked_example_exact(self):
        g = windows_to_graphs(EXAMPLE_VALUES, QuantileBoundaries(EXAMPLE_EDGES))
        assert g.shape == (1, 9)
        assert np.array_equal(g[0], EXAMPLE_MATRIX.ravel())

    def test_self_loop_and_zero_row(self):
        p = graph_of_states(np.array([1, 1, 1]), 2)
        assert p[0, 0] == 1.0
        assert (p[1] == 0.0).all()

    def test_single_transition(self):
        p = graph_of_states(np.array([1, 2]), 2)
        assert p[0, 1] == 1.0
        assert (p[1] == 0.0).all()

    def test_too_short(self):
        with pytest.raises(ValueError, match=r"^windows of length T=1 hold no transition; "
                                             r"need T >= 2$"):
            windows_to_graphs(np.zeros((4, 1)), QuantileBoundaries(EXAMPLE_EDGES))

    def test_rows_stochastic_or_zero(self, rng):
        for _ in range(20):
            s = rng.integers(1, 6, size=rng.integers(2, 40))
            p = graph_of_states(s, 5)
            sums = p.sum(axis=1)
            assert ((np.abs(sums - 1.0) <= 1e-12) | (sums == 0.0)).all()
            assert (p >= 0).all() and (p <= 1).all()


class TestFlattenAndIdentity:
    def test_identity_graph(self):
        g = identity_graph(3)
        assert np.array_equal(g, np.eye(3).ravel())
        assert identity_graph(10).sum() == 10
        assert (identity_graph(10).reshape(10, 10).sum(axis=1) == 1).all()


class TestGraphDistance:
    def test_zero_on_equal(self, rng):
        p = rng.random((5, 16))
        assert np.array_equal(graph_distance(p, p), np.zeros(5))

    def test_antidiagonal(self):
        a = np.stack([identity_graph(2), identity_graph(2)])
        b = np.stack([np.fliplr(np.eye(2)).ravel(), identity_graph(2)])
        assert np.array_equal(graph_distance(a, b), [2.0, 0.0])

    def test_symmetry_and_triangle(self, rng):
        a, b, c = rng.random((3, 20, 16))
        assert np.array_equal(graph_distance(a, b), graph_distance(b, a))
        assert (graph_distance(a, c) <= graph_distance(a, b) + graph_distance(b, c) + 1e-12).all()

    def test_rows_are_frobenius_distances(self, rng):
        a, b = rng.random((2, 6, 9))
        want = [np.linalg.norm(a[i].reshape(3, 3) - b[i].reshape(3, 3)) for i in range(6)]
        assert np.allclose(graph_distance(a, b), want, rtol=1e-15, atol=0.0)

    def test_dim_mismatch(self):
        for a, b in [(np.zeros((1, 4)), np.zeros((1, 9))),  # widths
                     (np.zeros((2, 4)), np.zeros((3, 4))),  # row counts
                     (np.zeros(4), np.zeros(4))]:  # not sets of rows
            with pytest.raises(ValueError, match=r"^graph sets need one \(N, Q\*Q\) shape: "):
                graph_distance(a, b)


class TestBatchGraphs:
    def test_matches_brute_force_counts(self, rng):
        w = rng.standard_normal((40, 16))
        w[:5] = np.sort(w[:5], axis=1)  # windows that leave some states without a source
        b = fit_boundaries(w.ravel(), 4)
        batch = windows_to_graphs(w, b)
        for i in range(40):
            assert np.array_equal(batch[i], brute_force_graph(discretize(w[i], b), 4))
        assert (batch[:5].reshape(5, 4, 4).sum(axis=2) == 0.0).any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_window_named(self, rng, bad):
        w = rng.standard_normal((6, 8))
        b = fit_boundaries(w.ravel(), 3)
        w[4, 5] = bad
        w[5, 0] = bad
        with pytest.raises(ValueError, match=rf"non-finite value \({bad}\) at row 4, column 5"):
            windows_to_graphs(w, b)


@pytest.mark.parametrize("call, message", [
    (lambda: fit_boundaries(np.arange(10.0), 1), r"^need at least 2 states$"),
    (lambda: identity_graph(0), r"^need at least 2 states$"),
    (lambda: identity_graph(1), r"^need at least 2 states$"),
], ids=["fit_one_state", "identity_zero", "identity_one"])
def test_raise_paths(call, message):
    with pytest.raises(ValueError, match=message):
        call()

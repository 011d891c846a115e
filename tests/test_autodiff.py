import numpy as np
import pytest

import graph2ts.autodiff as ad
from graph2ts.autodiff import Tape, grad_check


def _fd_single(f, params, h=1e-5):
    """Central differences of a scalar-from-leaves builder, for op-level checks."""
    grads = {}
    work = {k: v.copy() for k, v in params.items()}

    def val():
        t = Tape(record=False)
        return float(f({k: t.leaf(v) for k, v in work.items()}).value[0, 0])

    for name, arr in work.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = val()
            flat[i] = orig - h
            fm = val()
            flat[i] = orig
            gf[i] = (fp - fm) / (2 * h)
        grads[name] = g
    return grads


def _analytic(f, params):
    t = Tape()
    leaves = {k: t.leaf(v) for k, v in params.items()}
    out = f(leaves)
    t.backward(out)
    return {k: leaves[k].grad for k in params}


def _assert_match(f, params, rtol=1e-6):
    an = _analytic(f, params)
    fd = _fd_single(f, params)
    for k in params:
        denom = np.maximum(np.abs(fd[k]), 1.0)
        assert np.abs(an[k] - fd[k]).max() <= rtol * denom.max(), k


def _identity_mlp2(x, n):
    """mlp2 with identity weights and zero biases: the output is relu(x)."""
    t = x.tape
    eye, zero = t.leaf(np.eye(n)), t.leaf(np.zeros((1, n)))
    return ad.mlp2(x, eye, zero, eye, zero)


def _mlp2_params(rng, n_in, hidden, n_out):
    return {
        "w1": rng.standard_normal((n_in, hidden)),
        "b1": rng.standard_normal((1, hidden)),
        "w2": rng.standard_normal((hidden, n_out)),
        "b2": rng.standard_normal((1, n_out)),
    }


def _mlp2_of(p, x):
    return ad.mlp2(x, p["w1"], p["b1"], p["w2"], p["b2"])


def _ones_sink(y):
    """A scalar whose gradient at ``y`` is exactly 1 everywhere.

    It is ``mse_mean(y, y - n/2)``: the difference is n/2, and the gradient
    2 (n/2) / n = 1 has no rounding when ``y - n/2`` is exact and the size n
    is a power of two; both are asserted.
    """
    n = y.value.size
    target = y.value - n / 2
    assert n & (n - 1) == 0 and (y.value - target == n / 2).all()
    return ad.mse_mean(y, target)


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAffine:
    """The two affine layers of ``mlp2``."""

    def test_identity(self):
        t = Tape(record=False)
        assert np.array_equal(_identity_mlp2(t.leaf([[1.0, 0.0]]), 2).value, [[1.0, 0.0]])

    def test_bias_grad_is_ones(self):
        # integer data keeps y exact, so the sink hands y a gradient of ones
        rng = np.random.default_rng(0)
        t = Tape()
        x = t.leaf(rng.integers(-3, 4, (4, 2)))
        w1 = t.leaf(rng.integers(-3, 4, (2, 5)))
        b1 = t.leaf(np.zeros((1, 5)))
        w2 = t.leaf(rng.integers(-3, 4, (5, 4)))
        b2 = t.leaf(np.zeros((1, 4)))
        t.backward(_ones_sink(ad.mlp2(x, w1, b1, w2, b2)))
        assert np.array_equal(b2.grad, 4 * np.ones((1, 4)))

    def test_fd(self, rng):
        params = _mlp2_params(rng, 4, 5, 2)
        params["x"] = rng.standard_normal((3, 4))
        t1, t2 = rng.standard_normal((2, 3, 2))
        _assert_match(
            lambda p: ad.weighted_sum(
                [ad.mse_mean(_mlp2_of(p, p["x"]), t1), ad.mse_mean(_mlp2_of(p, p["x"]), t2)],
                [1.0, 1.0],
            ),
            params,
        )

    def test_shape_mismatch(self):
        t = Tape()
        x = t.leaf(np.ones((2, 3)))
        w1, b1 = t.leaf(np.ones((3, 4))), t.leaf(np.ones((1, 4)))
        w2, b2 = t.leaf(np.ones((4, 2))), t.leaf(np.ones((1, 2)))
        bad = t.leaf(np.ones((2, 2)))
        for args in ((x, bad, b1, w2, b2), (x, w1, bad, w2, b2),
                     (x, w1, b1, bad, b2), (x, w1, b1, w2, bad)):
            with pytest.raises(ValueError, match="mlp2 shape mismatch"):
                ad.mlp2(*args)


class TestRelu:
    """The ReLU between the layers of ``mlp2``, seen through identity layers."""

    def test_forward(self):
        t = Tape(record=False)
        assert np.array_equal(_identity_mlp2(t.leaf([[-1.0, 0.0, 2.0]]), 3).value, [[0, 0, 2]])

    def test_grad(self):
        # the subgradient at the kink (0) is 0
        t = Tape()
        x = t.leaf([[-1.0, 0.0, 2.0, 3.0]])
        t.backward(_ones_sink(_identity_mlp2(x, 4)))
        assert np.array_equal(x.grad, [[0.0, 0.0, 1.0, 1.0]])

    def test_fd_away_from_kink(self, rng):
        x = rng.standard_normal((4, 5))
        x[np.abs(x) < 1e-3] = 0.5

        def f(p):
            return ad.mse_mean(_identity_mlp2(p["x"], 5), np.zeros((4, 5)))

        _assert_match(f, {"x": x})


class TestMlp2:
    def test_matches_plain_numpy(self, rng):
        p = _mlp2_params(rng, 4, 6, 3)
        x = rng.standard_normal((5, 4))
        t = Tape(record=False)
        y = ad.mlp2(t.leaf(x), *(t.leaf(p[k]) for k in ("w1", "b1", "w2", "b2")))
        plain = np.maximum(x @ p["w1"] + p["b1"], 0.0) @ p["w2"] + p["b2"]
        assert np.array_equal(y.value, plain)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_nan_pre_activation_raises(self):
        # inf - inf = NaN before the ReLU, which would silently map it to 0
        t = Tape()
        x = t.leaf([[1.0, 1.0]])
        w1, b1 = t.leaf([[np.inf], [-np.inf]]), t.leaf([[0.0]])
        w2, b2 = t.leaf([[1.0]]), t.leaf([[0.0]])
        with pytest.raises(FloatingPointError, match="'mlp2'"):
            ad.mlp2(x, w1, b1, w2, b2)

    def test_relu_edges_bit_exact(self, rng):
        # hidden units whose pre-activations are exactly +0.0, -0.0, a positive
        # subnormal, a negative subnormal, negative, and mixed-sign
        tiny = 5e-324
        x = rng.uniform(0.05, 0.45, (8, 6))  # x * -tiny underflows to -0.0
        x[:, 0] = np.linspace(0.05, 0.45, 8)
        w1 = np.zeros((6, 6))
        w1[:, 1] = -tiny
        w1[:, 4] = -np.abs(rng.standard_normal(6))
        w1[0, 5] = 1.0
        b1 = np.array([[0.0, -0.0, tiny, -tiny, -0.1, -0.25]])
        w2 = rng.standard_normal((6, 4))
        b2 = rng.standard_normal((1, 4))
        target = rng.standard_normal((8, 4))

        pre = x @ w1
        pre += b1
        assert (pre[:, 0] == 0).all() and not np.signbit(pre[:, 0]).any()
        assert (pre[:, 1] == 0).all() and np.signbit(pre[:, 1]).all()
        assert (pre[:, 2] == tiny).all() and (pre[:, 3] == -tiny).all()
        assert (pre[:, 4] < 0).all() and (pre[:, 5] > 0).any() and (pre[:, 5] < 0).any()

        t = Tape()
        leaves = {k: t.leaf(v) for k, v in
                  {"x": x, "w1": w1, "b1": b1, "w2": w2, "b2": b2}.items()}
        y = ad.mlp2(*(leaves[k] for k in ("x", "w1", "b1", "w2", "b2")))
        t.backward(ad.mse_mean(y, target))

        h = pre.copy()
        h[~(h > 0)] = 0  # the boolean-mask ReLU
        plain = h @ w2
        plain += b2
        c = (plain - target) / 16  # the gradient reaching y: 2 (y - target) / 32, exact
        mask = pre > 0
        gh = c @ w2.T
        gh *= mask
        expected = {
            "x": gh @ w1.T, "w1": x.T @ gh, "b1": gh.sum(axis=0, keepdims=True),
            "w2": h.T @ c, "b2": c.sum(axis=0, keepdims=True),
        }
        assert y.value.tobytes() == plain.tobytes()
        for k, want in expected.items():
            assert leaves[k].grad.shape == want.shape, k
            assert leaves[k].grad.tobytes() == want.tobytes(), k


class TestL2Normalize:
    def test_three_four_five(self):
        t = Tape(record=False)
        y = ad.l2_normalize_rows(t.leaf([[3.0, 4.0]]))
        assert np.allclose(y.value, [[0.6, 0.8]], atol=1e-15)

    def test_unit_row_unchanged(self):
        t = Tape(record=False)
        y = ad.l2_normalize_rows(t.leaf([[0.0, 1.0]]))
        assert np.allclose(y.value, [[0.0, 1.0]], atol=1e-15)

    def test_near_zero_row_errors(self):
        t = Tape()
        with pytest.raises(ValueError, match="near-zero"):
            ad.l2_normalize_rows(t.leaf([[0.0, 0.0]]))

    def test_fd(self, rng):
        x = rng.standard_normal((3, 6)) + 0.5
        c = rng.standard_normal((3, 6))
        _assert_match(lambda p: ad.mse_mean(ad.l2_normalize_rows(p["x"]), c), {"x": x})


class TestSort:
    def test_forward_and_perm(self):
        t = Tape(record=False)
        s, perm = ad.sort_rows(t.leaf([[3.0, 1.0, 2.0]]))
        assert np.array_equal(s.value, [[1.0, 2.0, 3.0]])
        assert np.array_equal(perm, [[1, 2, 0]])

    def test_sum_grad_is_ones(self):
        t = Tape()
        x = t.leaf([[3.0, 1.0, 2.0, 0.0]])
        s, _ = ad.sort_rows(x)
        t.backward(_ones_sink(s))
        assert np.array_equal(x.grad, [[1.0, 1.0, 1.0, 1.0]])

    def test_min_element_grad(self):
        # d sorted[0] / dx = indicator of the argmin position
        t = Tape()
        x = t.leaf([[3.0, 1.0, 2.0]])
        s, _ = ad.sort_rows(x)
        t.backward(ad.weighted_sum([ad.slice_cols(s, 0, 1)], [1.0]))
        assert np.array_equal(x.grad, [[0.0, 1.0, 0.0]])

    def test_fd_through_sort(self, rng):
        x = rng.standard_normal((2, 8))
        target = np.sort(rng.standard_normal((2, 8)), axis=1)

        def f(p):
            s, _ = ad.sort_rows(p["x"])
            return ad.mse_mean(s, target)

        _assert_match(f, {"x": x})

    def test_stable_ties(self):
        t = Tape(record=False)
        _, perm = ad.sort_rows(t.leaf([[1.0, 1.0, 0.0]]))
        assert np.array_equal(perm, [[2, 0, 1]])


class TestMiscOps:
    def test_clamp_forward_and_gate(self):
        t = Tape()
        x = t.leaf([[-20.0, 0.5, 20.0, 3.0]])
        y = ad.clamp(x, -10.0, 10.0)
        assert np.array_equal(y.value, [[-10.0, 0.5, 10.0, 3.0]])
        t.backward(_ones_sink(y))
        assert np.array_equal(x.grad, [[0.0, 1.0, 0.0, 1.0]])

    def test_exp_and_scalar_mul_fd(self, rng):
        # exp(logvar / 2) times an untracked draw, and exp(logvar) in the KL
        params = {"mu": rng.standard_normal((3, 3)), "lv": 0.5 * rng.standard_normal((3, 3))}
        eps, target = rng.standard_normal((2, 3, 3))
        _assert_match(
            lambda p: ad.weighted_sum(
                [ad.mse_mean(ad.reparam(p["mu"], p["lv"], eps), target),
                 ad.gauss_kl(p["mu"], p["lv"])],
                [1.0, 0.3],
            ),
            params,
        )

    def test_logsumexp_diag_transpose_fd(self, rng):
        # both directions of info_nce: row log-sum-exp of s and of sᵀ, minus diag
        params = {
            "th": rng.standard_normal((4, 3)),
            "gh": rng.standard_normal((4, 3)),
            "lt": np.array([[0.3]]),
        }
        _assert_match(lambda p: ad.info_nce(p["th"], p["gh"], p["lt"]), params)

    def test_concat_slice_fd(self, rng):
        params = {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal((2, 2))}

        def f(p):
            cat = ad.concat_cols(p["a"], p["b"])
            return ad.gauss_kl(ad.slice_cols(cat, 0, 2), ad.slice_cols(cat, 3, 5))

        _assert_match(f, params)

    def test_matmul_nt_fd(self, rng):
        # th @ ghᵀ over normalized rows, as the alignment loss forms it
        params = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((3, 4))}
        lt = np.array([[np.log(0.5)]])
        _assert_match(
            lambda p: ad.info_nce(ad.l2_normalize_rows(p["a"]), ad.l2_normalize_rows(p["b"]),
                                  p["a"].tape.leaf(lt)),
            params,
        )


class TestTapeMechanics:
    def test_accumulation_doubles(self):
        t = Tape()
        x = t.leaf([[2.0]])
        t.backward(_ones_sink(ad.concat_cols(x, x)))
        assert x.grad[0, 0] == 2.0

    def test_reuse_in_product(self):
        # gauss_kl holds mu * mu: d(0.5 mu²)/dmu = mu, one half from each factor
        t = Tape()
        x = t.leaf([[3.0]])
        t.backward(ad.gauss_kl(x, t.leaf([[0.0]])))
        assert x.grad[0, 0] == 3.0

    def test_nonfinite_guard(self):
        t = Tape()
        with pytest.raises(FloatingPointError, match="gauss_kl"):
            ad.gauss_kl(t.leaf([[0.0]]), t.leaf([[1e4]]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_guard_passes_large_finite_values(self):
        # the fast-path sum overflows to inf, yet every element is finite
        t = Tape()
        y = ad.concat_cols(t.leaf([[1e308]]), t.leaf([[1e308]]))
        assert np.array_equal(y.value, [[1e308, 1e308]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_guard_still_raises(self, bad):
        t = Tape()
        with pytest.raises(FloatingPointError, match="concat_cols"):
            ad.concat_cols(t.leaf([[1e308]]), t.leaf([[bad]]))

    def test_backward_requires_scalar(self):
        t = Tape()
        x = t.leaf(np.ones((2, 2)))
        with pytest.raises(ValueError):
            t.backward(_identity_mlp2(x, 2))

    def test_shared_gradient_not_mutated(self):
        # reparam hands z's gradient array to mu itself; mu's second
        # contribution (from mse_mean, replayed later) must not leak into z.grad
        t = Tape()
        mu = t.leaf([[1.0, 2.0]])
        u = ad.mse_mean(mu, np.zeros((1, 2)))
        z = ad.reparam(mu, t.leaf([[0.0, 0.0]]), np.array([[0.5, 0.25]]))
        t.backward(ad.weighted_sum([ad.mse_mean(z, z.value - 1.0), u], [1.0, 1.0]))
        assert np.array_equal(z.grad, [[1.0, 1.0]])
        assert np.array_equal(mu.grad, [[2.0, 3.0]])

    def test_inference_tape_records_nothing(self):
        t = Tape(record=False)
        x = t.leaf([[1.0, -2.0]])
        y = _identity_mlp2(x, 2)
        ad.weighted_sum([ad.mse_mean(y, x.value), ad.gauss_kl(y, x)], [1.0, 1.0])
        assert t._ops == []

    def test_cross_tape_rejected(self):
        t1, t2 = Tape(), Tape()
        x = t1.leaf([[1.0]])
        with pytest.raises(ValueError):
            t2.backward(x)


class TestGradCheck:
    def test_quadratic_exact(self, rng):
        x = rng.uniform(0.5, 1.5, size=(1, 6))
        err = grad_check(lambda p: ad.mse_mean(p["x"], np.zeros((1, 6))), {"x": x})
        assert err <= 1e-9

    def test_affine_relu_composite(self, rng):
        params = _mlp2_params(rng, 5, 4, 3)
        x = rng.standard_normal((6, 5))

        def f(p):
            h = _mlp2_of(p, p["w1"].tape.leaf(x))
            return ad.mse_mean(h, np.zeros((6, 3)))

        assert grad_check(f, params) <= 1e-5

    def test_value_fn_path(self, rng):
        x = rng.uniform(0.5, 1.5, size=(1, 4))

        def f(p):
            return ad.mse_mean(p["x"], np.zeros((1, 4)))

        def vf(arrs):
            return float((arrs["x"] ** 2).mean())

        assert grad_check(f, {"x": x}, value_fn=vf) <= 1e-9

    def test_catches_wrong_gradient(self, rng):
        # a deliberately wrong value function must blow past any tolerance
        x = rng.uniform(0.5, 1.5, size=(1, 4))
        err = grad_check(
            lambda p: ad.mse_mean(p["x"], np.zeros((1, 4))),
            {"x": x},
            value_fn=lambda arrs: float((arrs["x"] ** 3).mean()),
        )
        assert err > 1e-2

    def test_every_op_at_100_random_points(self, rng):
        # per-op property: analytic gradient matches central differences at
        # 100 random evaluation points (kink-adjacent probes refine away)
        c = rng.standard_normal((3, 4))
        eps = rng.standard_normal((3, 4))
        block = _mlp2_params(rng, 4, 5, 4)

        def ops(p):
            x = p["x"]
            const = {k: x.tape.leaf(v) for k, v in block.items()}
            yield ad.mse_mean(_mlp2_of(const, x), c)
            yield ad.mse_mean(ad.l2_normalize_rows(
                ad.concat_cols(x, x.tape.leaf(np.full((3, 2), 3.0)))), np.ones((3, 6)))
            yield ad.mse_mean(ad.clamp(x, -0.5, 0.5), c)
            s, _ = ad.sort_rows(x)
            yield ad.mse_mean(s, np.zeros((3, 4)))
            yield ad.mse_mean(ad.slice_cols(ad.concat_cols(x, x), 2, 6), c)
            yield ad.info_nce(x, x, x.tape.leaf([[0.0]]))
            yield ad.mse_mean(ad.reparam(x.tape.leaf(c), x, eps), np.zeros((3, 4)))
            yield ad.gauss_kl(x, x)
            yield ad.weighted_sum([ad.mse_mean(x, c), ad.gauss_kl(x, x)], [0.7, -1.3])

        n_ops = sum(1 for _ in ops({"x": Tape().leaf(np.ones((3, 4)))}))
        points_per_op = 100 // n_ops + 1
        for trial in range(points_per_op):
            x = rng.standard_normal((3, 4))
            for k in range(n_ops):
                def f(p, k=k):
                    for i, out in enumerate(ops(p)):
                        if i == k:
                            return out
                err = grad_check(f, {"x": x})
                assert err <= 1e-5, f"op {k}, trial {trial}: {err}"

    def test_random_op_compositions(self, rng):
        for trial in range(10):
            params = {
                "w1": rng.standard_normal((4, 5)),
                "b1": rng.standard_normal((1, 5)),
                "w2": rng.standard_normal((5, 3)),
                "b2": rng.standard_normal((1, 3)),
                "lt": rng.standard_normal((1, 1)) * 0.2,
            }
            x = rng.standard_normal((4, 4))
            eps = rng.standard_normal((4, 1))
            target = rng.standard_normal((4, 1))

            def f(p):
                e = _mlp2_of(p, p["w1"].tape.leaf(x))
                en = ad.l2_normalize_rows(e)
                srt, _ = ad.sort_rows(e)
                mu = ad.slice_cols(e, 0, 1)
                lv = ad.clamp(ad.slice_cols(e, 1, 2), -2.0, 2.0)
                z = ad.reparam(mu, lv, eps)
                return ad.weighted_sum(
                    [ad.info_nce(en, en, p["lt"]), ad.mse_mean(srt, np.zeros((4, 3))),
                     ad.gauss_kl(mu, lv), ad.mse_mean(z, target)],
                    [1.0, 1.0, 0.5, 2.0],
                )

            assert grad_check(f, params) <= 1e-5, f"trial {trial}"


# ---------------------------------------------------------------------------
# reference: the chains of elementwise primitives that the loss ops stand
# for, written here as plain numpy tape ops. Each loss op must reproduce its
# chain's bytes, in the value and in every input gradient.
# ---------------------------------------------------------------------------

def _prim(x, value, backward):
    return ad._out(x.tape, value, "reference", backward)


def _scale(x, c):
    return _prim(x, x.value * c, lambda g: ad._acc(x, g * c))


def _add_const(x, c):
    return _prim(x, x.value + c, lambda g: ad._acc(x, g))


def _exp(x):
    y = np.exp(x.value)
    return _prim(x, y, lambda g: ad._acc(x, g * y))


def _add(a, b):
    def backward(g):
        ad._acc(a, g)
        ad._acc(b, g)

    return _prim(a, a.value + b.value, backward)


def _sub(a, b):
    def backward(g):
        ad._acc(a, g)
        ad._acc(b, -g)

    return _prim(a, a.value - b.value, backward)


def _mul(a, b):
    """Elementwise product; one operand may be (1, 1)."""
    def backward(g):
        ga, gb = g * b.value, g * a.value
        if ga.shape != a.value.shape:
            ga = ga.sum().reshape(1, 1)
        if gb.shape != b.value.shape:
            gb = gb.sum().reshape(1, 1)
        ad._acc(a, ga)
        ad._acc(b, gb)

    return _prim(a, a.value * b.value, backward)


def _matmul_nt(a, b):
    def backward(g):
        ad._acc(a, g @ b.value)
        ad._acc(b, g.T @ a.value)

    return _prim(a, a.value @ b.value.T, backward)


def _transpose(x):
    return _prim(x, np.ascontiguousarray(x.value.T), lambda g: ad._acc(x, g.T))


def _logsumexp_rows(x):
    m = x.value.max(axis=1, keepdims=True)
    e = np.exp(x.value - m)
    s = e.sum(axis=1, keepdims=True)
    return _prim(x, m + np.log(s), lambda g: ad._acc(x, g * (e / s)))


def _take_diag(x):
    n = x.value.shape[0]
    idx = np.arange(n)

    def backward(g):
        back = np.zeros_like(x.value)
        back[idx, idx] = g[:, 0]
        ad._acc(x, back)

    return _prim(x, x.value[idx, idx].reshape(n, 1).copy(), backward)


def _sum_all(x):
    return _prim(x, x.value.sum().reshape(1, 1),
                 lambda g: ad._acc(x, np.full_like(x.value, g[0, 0])))


def _mean_all(x):
    n = x.value.size
    return _prim(x, x.value.mean().reshape(1, 1),
                 lambda g: ad._acc(x, np.full_like(x.value, g[0, 0] / n)))


class _Chains:
    """The loss ops as primitive chains, under the loss ops' names."""

    @staticmethod
    def info_nce(th, gh, log_temp):
        s = _mul(_matmul_nt(th, gh), _exp(_scale(log_temp, -1.0)))
        rows = _mean_all(_sub(_logsumexp_rows(s), _take_diag(s)))
        st = _transpose(s)
        cols = _mean_all(_sub(_logsumexp_rows(st), _take_diag(st)))
        return _scale(_add(rows, cols), 0.5)

    @staticmethod
    def reparam(mu, logvar, eps):
        return _add(mu, _scale(_exp(_scale(logvar, 0.5)), eps))

    @staticmethod
    def gauss_kl(mu, logvar):
        inner = _add_const(_add(_add(_mul(mu, mu), _exp(logvar)), _scale(logvar, -1.0)), -1.0)
        return _scale(_sum_all(inner), 0.5 / mu.value.shape[0])

    @staticmethod
    def mse_mean(a, target):
        d = _add_const(a, -target)
        return _mean_all(_mul(d, d))

    @staticmethod
    def weighted_sum(terms, weights):
        total = _scale(terms[0], weights[0])
        for t, w in zip(terms[1:], weights[1:]):
            total = _add(total, _scale(t, w))
        return total


class TestLossOpsMatchChains:
    """Each loss op against its primitive chain: the same bytes in the op's
    value, the objective's value and every leaf gradient. Every tracked input
    of the op also feeds an ``mse_mean`` recorded after it, so its gradient
    already holds a contribution when the op's backward adds its own."""

    BATCHES = (1, 2, 7, 64)

    @staticmethod
    def _compare(build, arrays):
        runs = []
        for ops in (ad, _Chains):
            t = Tape()
            leaves = {k: t.leaf(v) for k, v in arrays.items()}
            out, inputs = build(ops, leaves)
            n_ops = len(t._ops)
            terms = [out if out.value.shape == (1, 1)
                     else ad.mse_mean(out, np.full(out.value.shape, 0.3))]
            terms += [ad.mse_mean(v, np.full(v.value.shape, 0.25)) for v in inputs]
            total = ad.weighted_sum(terms, [1.5] + [0.75] * len(inputs))
            t.backward(total)
            runs.append((out.value, total.value, {k: leaves[k].grad for k in arrays}, n_ops))
        (v1, t1, g1, n1), (v2, t2, g2, n2) = runs
        assert _same(v1, v2) and _same(t1, t2)
        for k in arrays:
            assert _same(g1[k], g2[k]), k
        return n1, n2

    @pytest.mark.parametrize("n", BATCHES)
    def test_info_nce(self, rng, n):
        arrays = {"t": rng.standard_normal((n, 6)), "g": rng.standard_normal((n, 6)),
                  "lt": np.array([[np.log(0.07)]])}

        def build(ops, p):
            th, gh = ad.l2_normalize_rows(p["t"]), ad.l2_normalize_rows(p["g"])
            return ops.info_nce(th, gh, p["lt"]), [th, gh, p["lt"]]

        assert self._compare(build, arrays) == (3, 17)

    @pytest.mark.parametrize("n", BATCHES)
    def test_reparam(self, rng, n):
        arrays = {"mu": rng.standard_normal((n, 5)), "lv": rng.uniform(-3, 3, (n, 5))}
        eps = rng.standard_normal((n, 5))

        def build(ops, p):
            return ops.reparam(p["mu"], p["lv"], eps), [p["mu"], p["lv"]]

        assert self._compare(build, arrays) == (1, 4)

    @pytest.mark.parametrize("n", BATCHES)
    def test_gauss_kl(self, rng, n):
        arrays = {"mu": rng.standard_normal((n, 5)), "lv": rng.uniform(-3, 3, (n, 5))}

        def build(ops, p):
            return ops.gauss_kl(p["mu"], p["lv"]), [p["mu"], p["lv"]]

        assert self._compare(build, arrays) == (1, 8)

    @pytest.mark.parametrize("n", BATCHES)
    def test_mse_mean(self, rng, n):
        arrays = {"a": rng.standard_normal((n, 5))}
        target = rng.standard_normal((n, 5))

        def build(ops, p):
            return ops.mse_mean(p["a"], target), [p["a"]]

        assert self._compare(build, arrays) == (1, 3)

    @pytest.mark.parametrize("n", BATCHES)
    def test_mse_mean_after_sort(self, rng, n):
        arrays = {"a": rng.standard_normal((n, 5))}
        target = np.sort(rng.standard_normal((n, 5)), axis=1)

        def build(ops, p):
            s, _ = ad.sort_rows(p["a"])
            return ops.mse_mean(s, target), [s]

        assert self._compare(build, arrays) == (2, 4)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_weighted_sum(self, rng, k):
        arrays = {f"x{i}": rng.standard_normal((1, 1)) for i in range(k)}
        weights = [1.0, 5.0, 0.0, 0.031][:k]

        def build(ops, p):
            terms = list(p.values())
            return ops.weighted_sum(terms, weights), terms

        assert self._compare(build, arrays) == (1, 2 * k - 1)

    @pytest.mark.parametrize("op, args", [
        ("info_nce", [(3, 4), (2, 4), (1, 1)]),
        ("info_nce", [(3, 4), (3, 4), (1, 2)]),
        ("reparam", [(3, 4), (3, 5)]),
        ("gauss_kl", [(3, 4), (4, 3)]),
    ])
    def test_shape_mismatch(self, op, args):
        t = Tape()
        leaves = [t.leaf(np.ones(s)) for s in args]
        if op == "reparam":
            leaves.append(np.ones((3, 4)))
        with pytest.raises(ValueError, match=f"{op} shape mismatch"):
            getattr(ad, op)(*leaves)

    def test_untracked_shape_mismatch(self):
        t = Tape()
        with pytest.raises(ValueError, match="reparam shape mismatch"):
            ad.reparam(t.leaf(np.ones((3, 4))), t.leaf(np.ones((3, 4))), np.ones((4, 3)))
        with pytest.raises(ValueError, match="mse_mean shape mismatch"):
            ad.mse_mean(t.leaf(np.ones((3, 4))), np.ones((3, 1)))
        with pytest.raises(ValueError, match="one weight per"):
            ad.weighted_sum([t.leaf([[1.0]])], [1.0, 2.0])
        with pytest.raises(ValueError, match="one weight per"):
            ad.weighted_sum([t.leaf([[1.0, 2.0]])], [1.0])

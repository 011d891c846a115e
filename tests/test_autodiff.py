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


class TestAffine:
    """The two affine layers of ``mlp2``."""

    def test_identity(self):
        t = Tape(record=False)
        assert np.array_equal(_identity_mlp2(t.leaf([[1.0, 0.0]]), 2).value, [[1.0, 0.0]])

    def test_bias_grad_is_ones(self):
        t = Tape()
        x = t.leaf(np.random.default_rng(0).standard_normal((3, 2)))
        w1 = t.leaf(np.random.default_rng(1).standard_normal((2, 5)))
        b1 = t.leaf(np.zeros((1, 5)))
        w2 = t.leaf(np.random.default_rng(2).standard_normal((5, 4)))
        b2 = t.leaf(np.zeros((1, 4)))
        t.backward(ad.sum_all(ad.mlp2(x, w1, b1, w2, b2)))
        assert np.array_equal(b2.grad, 3 * np.ones((1, 4)))

    def test_fd(self, rng):
        params = _mlp2_params(rng, 4, 5, 2)
        params["x"] = rng.standard_normal((3, 4))
        _assert_match(
            lambda p: ad.mean_all(ad.mul(_mlp2_of(p, p["x"]), _mlp2_of(p, p["x"]))),
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
        x = t.leaf([[-1.0, 0.0, 2.0]])
        t.backward(ad.sum_all(_identity_mlp2(x, 3)))
        assert np.array_equal(x.grad, [[0.0, 0.0, 1.0]])

    def test_fd_away_from_kink(self, rng):
        x = rng.standard_normal((4, 5))
        x[np.abs(x) < 1e-3] = 0.5

        def f(p):
            y = _identity_mlp2(p["x"], 5)
            return ad.sum_all(ad.mul(y, y))

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
        w2 = rng.standard_normal((6, 3))
        b2 = rng.standard_normal((1, 3))
        c = rng.standard_normal((8, 3))

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
        t.backward(ad.sum_all(ad.scale(y, c)))  # the gradient reaching y is c

        h = pre.copy()
        h[~(h > 0)] = 0  # the boolean-mask ReLU
        plain = h @ w2
        plain += b2
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
        _assert_match(
            lambda p: ad.sum_all(ad.scale(ad.l2_normalize_rows(p["x"]), c)), {"x": x}
        )


class TestSort:
    def test_forward_and_perm(self):
        t = Tape(record=False)
        s, perm = ad.sort_rows(t.leaf([[3.0, 1.0, 2.0]]))
        assert np.array_equal(s.value, [[1.0, 2.0, 3.0]])
        assert np.array_equal(perm, [[1, 2, 0]])

    def test_sum_grad_is_ones(self):
        t = Tape()
        x = t.leaf([[3.0, 1.0, 2.0]])
        s, _ = ad.sort_rows(x)
        t.backward(ad.sum_all(s))
        assert np.array_equal(x.grad, [[1.0, 1.0, 1.0]])

    def test_min_element_grad(self):
        # d sorted[0] / dx = indicator of the argmin position
        t = Tape()
        x = t.leaf([[3.0, 1.0, 2.0]])
        s, _ = ad.sort_rows(x)
        t.backward(ad.sum_all(ad.slice_cols(s, 0, 1)))
        assert np.array_equal(x.grad, [[0.0, 1.0, 0.0]])

    def test_fd_through_sort(self, rng):
        x = rng.standard_normal((2, 8))
        target = np.sort(rng.standard_normal((2, 8)), axis=1)

        def f(p):
            s, _ = ad.sort_rows(p["x"])
            d = ad.add_const(s, -target)
            return ad.mean_all(ad.mul(d, d))

        _assert_match(f, {"x": x})

    def test_stable_ties(self):
        t = Tape(record=False)
        _, perm = ad.sort_rows(t.leaf([[1.0, 1.0, 0.0]]))
        assert np.array_equal(perm, [[2, 0, 1]])


class TestMiscOps:
    def test_clamp_forward_and_gate(self):
        t = Tape()
        x = t.leaf([[-20.0, 0.5, 20.0]])
        y = ad.clamp(x, -10.0, 10.0)
        assert np.array_equal(y.value, [[-10.0, 0.5, 10.0]])
        t.backward(ad.sum_all(y))
        assert np.array_equal(x.grad, [[0.0, 1.0, 0.0]])

    def test_exp_and_scalar_mul_fd(self, rng):
        params = {"s": np.array([[0.3]]), "x": rng.standard_normal((3, 3))}
        _assert_match(
            lambda p: ad.mean_all(ad.mul(p["x"], ad.exp(ad.scale(p["s"], -1.0)))),
            params,
        )

    def test_logsumexp_diag_transpose_fd(self, rng):
        x = rng.standard_normal((4, 4))

        def f(p):
            s = p["x"]
            a = ad.mean_all(ad.sub(ad.logsumexp_rows(s), ad.take_diag(s)))
            st = ad.transpose(s)
            b = ad.mean_all(ad.sub(ad.logsumexp_rows(st), ad.take_diag(st)))
            return ad.scale(ad.add(a, b), 0.5)

        _assert_match(f, {"x": x})

    def test_concat_slice_fd(self, rng):
        params = {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal((2, 2))}

        def f(p):
            cat = ad.concat_cols(p["a"], p["b"])
            return ad.mean_all(ad.mul(ad.slice_cols(cat, 0, 2), ad.slice_cols(cat, 3, 5)))

        _assert_match(f, params)

    def test_matmul_nt_fd(self, rng):
        params = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal((2, 4))}
        _assert_match(lambda p: ad.mean_all(ad.matmul_nt(p["a"], p["b"])), params)


class TestTapeMechanics:
    def test_accumulation_doubles(self):
        t = Tape()
        x = t.leaf([[2.0]])
        t.backward(ad.sum_all(ad.add(x, x)))
        assert x.grad[0, 0] == 2.0

    def test_reuse_in_product(self):
        t = Tape()
        x = t.leaf([[3.0]])
        t.backward(ad.sum_all(ad.mul(x, x)))
        assert x.grad[0, 0] == 6.0

    def test_nonfinite_guard(self):
        t = Tape()
        with pytest.raises(FloatingPointError, match="exp"):
            ad.exp(t.leaf([[1e4]]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_guard_passes_large_finite_values(self):
        # the fast-path sum overflows to inf, yet every element is finite
        t = Tape()
        big = t.leaf([[1e308, 1e308]])
        y = ad.add(big, t.leaf([[0.0, 0.0]]))
        assert np.array_equal(y.value, [[1e308, 1e308]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_guard_still_raises(self, bad):
        t = Tape()
        with pytest.raises(FloatingPointError, match="add"):
            ad.add(t.leaf([[1e308, bad]]), t.leaf([[0.0, 0.0]]))

    def test_backward_requires_scalar(self):
        t = Tape()
        x = t.leaf(np.ones((2, 2)))
        with pytest.raises(ValueError):
            t.backward(_identity_mlp2(x, 2))

    def test_shared_gradient_not_mutated(self):
        # add hands one gradient array to both a and b; a's second
        # contribution (from scale, replayed later) must not leak into b
        t = Tape()
        a = t.leaf([[1.0, 2.0]])
        b = t.leaf([[3.0, 4.0]])
        u = ad.scale(a, 3.0)
        s = ad.add(a, b)
        t.backward(ad.add(ad.sum_all(ad.scale(s, np.array([[5.0, 7.0]]))), ad.sum_all(u)))
        assert np.array_equal(a.grad, [[8.0, 10.0]])
        assert np.array_equal(b.grad, [[5.0, 7.0]])

    def test_inference_tape_records_nothing(self):
        t = Tape(record=False)
        x = t.leaf([[1.0, -2.0]])
        ad.sum_all(ad.mul(_identity_mlp2(x, 2), x))
        assert t._ops == []

    def test_cross_tape_rejected(self):
        t1, t2 = Tape(), Tape()
        x = t1.leaf([[1.0]])
        with pytest.raises(ValueError):
            t2.backward(x)


class TestGradCheck:
    def test_quadratic_exact(self, rng):
        x = rng.uniform(0.5, 1.5, size=(1, 6))
        err = grad_check(lambda p: ad.sum_all(ad.mul(p["x"], p["x"])), {"x": x})
        assert err <= 1e-9

    def test_affine_relu_composite(self, rng):
        params = _mlp2_params(rng, 5, 4, 3)
        x = rng.standard_normal((6, 5))

        def f(p):
            h = _mlp2_of(p, p["w1"].tape.leaf(x))
            return ad.mean_all(ad.mul(h, h))

        assert grad_check(f, params) <= 1e-5

    def test_value_fn_path(self, rng):
        x = rng.uniform(0.5, 1.5, size=(1, 4))

        def f(p):
            return ad.sum_all(ad.mul(p["x"], p["x"]))

        def vf(arrs):
            return float((arrs["x"] ** 2).sum())

        assert grad_check(f, {"x": x}, value_fn=vf) <= 1e-9

    def test_catches_wrong_gradient(self, rng):
        # a deliberately wrong value function must blow past any tolerance
        x = rng.uniform(0.5, 1.5, size=(1, 4))
        err = grad_check(
            lambda p: ad.sum_all(ad.mul(p["x"], p["x"])),
            {"x": x},
            value_fn=lambda arrs: float((arrs["x"] ** 3).sum()),
        )
        assert err > 1e-2

    def test_every_op_at_100_random_points(self, rng):
        # per-op property: analytic gradient matches central differences at
        # 100 random evaluation points (kink-adjacent probes refine away)
        c = rng.standard_normal((3, 4))
        block = _mlp2_params(rng, 4, 5, 4)

        def ops(p):
            const = {k: p["x"].tape.leaf(v) for k, v in block.items()}
            yield ad.sum_all(ad.scale(_mlp2_of(const, p["x"]), c))
            yield ad.sum_all(ad.scale(ad.l2_normalize_rows(ad.add_const(p["x"], 3.0)), c))
            yield ad.mean_all(ad.scale(ad.exp(ad.scale(p["x"], 0.5)), c))
            yield ad.sum_all(ad.scale(ad.clamp(p["x"], -0.5, 0.5), c))
            s, _ = ad.sort_rows(p["x"])
            yield ad.mean_all(ad.mul(s, s))
            sq = ad.matmul_nt(p["x"], p["x"])
            yield ad.mean_all(ad.sub(ad.logsumexp_rows(sq), ad.take_diag(sq)))
            yield ad.mean_all(ad.mul(ad.transpose(p["x"]), ad.transpose(p["x"])))
            yield ad.sum_all(ad.slice_cols(ad.concat_cols(p["x"], p["x"]), 2, 6))

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

            def f(p):
                e = _mlp2_of(p, p["w1"].tape.leaf(x))
                en = ad.l2_normalize_rows(e)
                s = ad.mul(ad.matmul_nt(en, en), ad.exp(ad.scale(p["lt"], -1.0)))
                srt, _ = ad.sort_rows(s)
                return ad.add(
                    ad.mean_all(ad.sub(ad.logsumexp_rows(s), ad.take_diag(s))),
                    ad.mean_all(ad.mul(srt, srt)),
                )

            assert grad_check(f, params) <= 1e-5, f"trial {trial}"

import numpy as np
import pytest

from graph2ts.optim import ParamStore, adam_step


def test_first_step_magnitude():
    # bias correction makes the very first step lr * g / (|g| + eps') ~ lr
    for lr in (0.1, 3e-4):
        store = ParamStore({"p": np.array([[1.0]])})
        adam_step(store, {"p": np.array([[1.0]])}, lr=lr)
        assert abs((1.0 - store.params["p"][0, 0]) - lr) <= 1e-6 * lr + 1e-12


def test_zero_gradient_keeps_param_decays_moments():
    store = ParamStore({"p": np.array([[2.0]])})
    adam_step(store, {"p": np.array([[1.0]])}, lr=0.1)
    m1 = store.m["p"].copy()
    p1 = store.params["p"].copy()
    adam_step(store, {"p": np.array([[0.0]])}, lr=0.0)
    assert np.array_equal(store.params["p"], p1)
    assert abs(store.m["p"][0, 0]) < abs(m1[0, 0])
    assert store.step == 2


def test_deterministic():
    rng = np.random.default_rng(5)
    init = {"w": rng.standard_normal((3, 3))}
    grads = [
        {"w": np.random.default_rng(i).standard_normal((3, 3))} for i in range(10)
    ]
    outs = []
    for _ in range(2):
        store = ParamStore({k: v.copy() for k, v in init.items()})
        for g in grads:
            adam_step(store, g, lr=1e-2)
        outs.append(store.params["w"].copy())
    assert np.array_equal(outs[0], outs[1])


def test_nonfinite_gradient_names_parameter():
    store = ParamStore({"dec.w1": np.ones((2, 2))})
    with pytest.raises(FloatingPointError, match="dec.w1"):
        adam_step(store, {"dec.w1": np.array([[1.0, np.nan], [0, 0]])}, lr=0.1)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_large_finite_gradient_is_accepted():
    # the fast-path sum overflows to inf, yet every element is finite
    store = ParamStore({"p": np.zeros((1, 2))})
    adam_step(store, {"p": np.array([[1e308, 1e308]])}, lr=0.1)
    assert store.step == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_gradient_still_raises_beside_large_values(bad):
    store = ParamStore({"p": np.zeros((1, 2))})
    with pytest.raises(FloatingPointError, match="'p'"):
        adam_step(store, {"p": np.array([[1e308, bad]])}, lr=0.1)
    assert store.step == 0


def test_shape_and_missing_grad_errors():
    store = ParamStore({"p": np.ones((2, 2))})
    with pytest.raises(ValueError, match="missing gradient"):
        adam_step(store, {}, lr=0.1)
    with pytest.raises(ValueError, match="shape"):
        adam_step(store, {"p": np.ones((1, 2))}, lr=0.1)


def test_converges_on_quadratic():
    store = ParamStore({"p": np.array([[5.0]])})
    for _ in range(3000):
        adam_step(store, {"p": 2 * store.params["p"]}, lr=0.01)
    assert abs(store.params["p"][0, 0]) < 1e-3


def test_params_must_be_2d():
    with pytest.raises(ValueError):
        ParamStore({"p": np.ones(3)})

"""Adam optimizer contract: fixed points, first-step size, determinism."""
import numpy as np
import pytest

from vdm.optim import ParameterStore, adam_step


def _store_with(value, grad):
    store = ParameterStore()
    p = store.add("p", value)
    p.grad[...] = grad
    return store, p


def test_zero_gradient_fixed_point():
    store, p = _store_with(np.array([1.0, -2.0]), np.zeros(2))
    before = p.value.copy()
    adam_step(store, lr=1e-3)
    np.testing.assert_array_equal(p.value, before)
    assert store.step_count == 1


def test_first_step_is_learning_rate():
    # hand evaluation: m_hat = 1, v_hat = 1 -> delta = lr / (1 + eps)
    store, p = _store_with(np.array([0.0]), np.ones(1))
    adam_step(store, lr=1e-3)
    np.testing.assert_allclose(p.value, [-1e-3 / (1 + 1e-8)], rtol=1e-12)


def test_two_identical_stores_bit_identical():
    def run():
        rng = np.random.default_rng(4)
        store = ParameterStore()
        p = store.add("p", rng.normal(size=(3, 3)))
        for _ in range(5):
            p.grad[...] = np.sin(p.value)
            adam_step(store, lr=1e-2)
        return p.value.copy()

    np.testing.assert_array_equal(run(), run())


def test_nan_gradient_names_parameter():
    store, p = _store_with(np.ones(2), np.array([np.nan, 0.0]))
    with pytest.raises(FloatingPointError, match="'p'"):
        adam_step(store, lr=1e-3)


def test_gradients_zeroed_after_step():
    store, p = _store_with(np.ones(2), np.ones(2))
    adam_step(store, lr=1e-3)
    np.testing.assert_array_equal(p.grad, np.zeros(2))


def test_moment_shapes_match_parameters():
    store = ParameterStore()
    store.add("a", np.zeros((2, 3)))
    store.add("b", np.zeros(5))
    for name in store.params:
        assert store.m[name].shape == store[name].value.shape
        assert store.v[name].shape == store[name].value.shape


def test_step_counter_increments_by_one():
    store, _ = _store_with(np.ones(1), np.zeros(1))
    for want in (1, 2, 3):
        adam_step(store, lr=1e-3)
        assert store.step_count == want


def test_duplicate_name_rejected():
    store = ParameterStore()
    store.add("w", np.zeros(1))
    with pytest.raises(ValueError, match="already registered"):
        store.add("w", np.zeros(1))

"""Adam optimizer contract: fixed points, first-step size, determinism."""
import numpy as np
import pytest

from vdm import autodiff as ad
from vdm.autodiff import Tape, Tensor, backward
from vdm.objective import AdamState, adam_step


def _store_with(value, grad):
    store = {}
    p = store["p"] = Tensor(value, requires_grad=True)
    p.grad = np.array(grad, dtype=np.float64)
    return store, AdamState(store), p


def test_zero_gradient_fixed_point():
    store, state, p = _store_with(np.array([1.0, -2.0]), np.zeros(2))
    before = p.value.copy()
    adam_step(store, state, lr=1e-3)
    np.testing.assert_array_equal(p.value, before)
    assert state.step_count == 1


def test_first_step_is_learning_rate():
    # hand evaluation: m_hat = 1, v_hat = 1 -> delta = lr / (1 + eps)
    store, state, p = _store_with(np.array([0.0]), np.ones(1))
    adam_step(store, state, lr=1e-3)
    np.testing.assert_allclose(p.value, [-1e-3 / (1 + 1e-8)], rtol=1e-12)


def test_two_identical_stores_bit_identical():
    def run():
        rng = np.random.default_rng(4)
        store = {}
        p = store["p"] = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        state = AdamState(store)
        for _ in range(5):
            p.grad = np.sin(p.value)
            adam_step(store, state, lr=1e-2)
        return p.value.copy()

    np.testing.assert_array_equal(run(), run())


def test_nan_gradient_names_parameter():
    store, state, p = _store_with(np.ones(2), np.array([np.nan, 0.0]))
    with pytest.raises(FloatingPointError, match="'p'"):
        adam_step(store, state, lr=1e-3)


def test_gradients_zeroed_after_step():
    store, state, p = _store_with(np.ones(2), np.ones(2))
    adam_step(store, state, lr=1e-3)
    assert p.grad is None  # dropped: the next backward starts from zeros


def test_moment_shapes_match_parameters():
    store = {}
    store["a"] = Tensor(np.zeros((2, 3)), requires_grad=True)
    store["b"] = Tensor(np.zeros(5), requires_grad=True)
    state = AdamState(store)
    for name in store:
        assert state.m[name].shape == store[name].value.shape
        assert state.v[name].shape == store[name].value.shape


def test_step_counter_increments_by_one():
    store, state, _ = _store_with(np.ones(1), np.zeros(1))
    for want in (1, 2, 3):
        adam_step(store, state, lr=1e-3)
        assert state.step_count == want


def test_fresh_parameter_has_no_gradient_and_a_step_leaves_none():
    store = {}
    p = store["p"] = Tensor(np.ones(3), requires_grad=True)
    assert p.grad is None
    adam_step(store, AdamState(store), lr=1e-3)
    assert p.grad is None


def _nll(*params):
    """A scalar loss that reads each of ``params``."""
    terms = [ad.sum_of_means(1, ad.gaussian_log_pdf(p, Tensor(np.zeros(p.shape)),
                                                     Tensor(np.ones(p.shape))))[0]
             for p in params]
    return ad.linear_combination([-1.0] * len(terms), terms)


def test_missing_gradient_steps_as_zero():
    """A parameter with no gradient in a step, because the loss read it only
    in the first step ("first") or never ("never"), steps as a zero gradient:
    its moments decay and its update applies, the bytes a zero-filled
    gradient slot gives."""

    def run(fill_missing):
        store = {}
        for name, value in (("read", [-1.0, 0.5, 2.0]), ("first", [0.5, -0.25]), ("never", [3.0])):
            store[name] = Tensor(np.array(value), requires_grad=True)
        state = AdamState(store)
        moved = []
        for step in range(3):
            reads = ("read", "first") if step == 0 else ("read",)
            with Tape() as tape:
                backward(tape, _nll(*(store[name] for name in reads)))
            assert store["never"].grad is None and (step == 0) == (store["first"].grad is not None)
            for t in store.values():
                if fill_missing and t.grad is None:
                    t.grad = np.zeros_like(t.value)
            before = store["first"].value.copy()
            adam_step(store, state, lr=1e-2)
            moved.append(not np.array_equal(store["first"].value, before))
        assert moved == [True, True, True]
        return store, state

    (got, got_state), (want, want_state) = run(False), run(True)
    for name in ("read", "first", "never"):
        assert got[name].value.tobytes() == want[name].value.tobytes(), name
        assert got_state.m[name].tobytes() == want_state.m[name].tobytes(), name
        assert got_state.v[name].tobytes() == want_state.v[name].tobytes(), name
    np.testing.assert_array_equal(got["never"].value, [3.0])

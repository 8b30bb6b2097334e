"""Reverse-mode engine: primitive values, gradients vs finite differences,
tape replay determinism, tape state across threads."""
import contextvars
import threading

import numpy as np
import pytest

import vdm.autodiff as ad
from vdm.autodiff import Tape, Tensor, backward

from helpers import finite_diff_store, rel_error


def test_relu_values():
    out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.value, [0.0, 0.0, 2.0])


def test_sigmoid_symmetry_point():
    assert ad.sigmoid(Tensor([0.0])).value[0] == 0.5


def test_exp_log_inverse_pair():
    np.testing.assert_allclose(ad.exp(ad.log(Tensor([3.5]))).value, [3.5], rtol=1e-15)


def test_matmul_shape_error_names_primitive():
    with pytest.raises(ValueError, match="matmul"):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_add_shape_error():
    with pytest.raises(ValueError, match="add"):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))


def test_backward_requires_scalar():
    p = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = ad.square(p)
    with pytest.raises(ValueError, match="scalar"):
        backward(tape, y)


def test_backward_sum_is_ones():
    p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    with Tape() as tape:
        loss = ad.reduce_sum(p)
        backward(tape, loss)
    np.testing.assert_array_equal(p.grad, np.ones(3))


def test_backward_square_power_rule():
    p = Tensor(np.array([3.0]), requires_grad=True)
    with Tape() as tape:
        loss = ad.reduce_sum(ad.square(p))
        backward(tape, loss)
    np.testing.assert_allclose(p.grad, [6.0], rtol=1e-15)


def test_fanout_accumulates_additively():
    p = Tensor(np.array([2.0]), requires_grad=True)
    with Tape() as tape:
        y = p * p + p  # p used three times
        backward(tape, ad.reduce_sum(y))
    np.testing.assert_allclose(p.grad, [5.0], rtol=1e-15)


def _random_unary_cases():
    return [
        ("relu", ad.relu),
        ("sigmoid", ad.sigmoid),
        ("tanh", ad.tanh),
        ("exp", ad.exp),
        ("square", ad.square),
        ("clamp", lambda t: ad.clamp(t, -1.5, 1.5)),
    ]


@pytest.mark.parametrize("name,op", _random_unary_cases())
def test_unary_gradients_match_finite_differences(name, op):
    rng = np.random.default_rng(hash(name) % 2**32)
    x = rng.uniform(-2.0, 2.0, size=(4, 3))
    from vdm.optim import ParameterStore

    store = ParameterStore()
    p = store.add("x", x)

    def run():
        with Tape() as tape:
            loss = ad.reduce_sum(ad.square(op(p)))
        return float(loss.value)

    with Tape() as tape:
        loss = ad.reduce_sum(ad.square(op(p)))
        backward(tape, loss)
    fd = finite_diff_store(store, run)
    assert rel_error(p.grad, fd["x"]) < 1e-4


def test_div_sub_gradients_match_finite_differences():
    from vdm.optim import ParameterStore

    rng = np.random.default_rng(21)
    store = ParameterStore()
    a = store.add("a", rng.uniform(-2, 2, size=(3, 4)))
    b = store.add("b", rng.uniform(0.5, 2.0, size=(3, 4)))

    def forward():
        return ad.reduce_sum(ad.square(ad.sub(ad.div(a, b), ad.neg(b))))

    def run():
        with Tape():
            return float(forward().value)

    with Tape() as tape:
        backward(tape, forward())
    fd = finite_diff_store(store, run)
    assert rel_error(a.grad, fd["a"]) < 1e-4
    assert rel_error(b.grad, fd["b"]) < 1e-4


def test_log_gradient_positive_domain():
    from vdm.optim import ParameterStore

    rng = np.random.default_rng(3)
    store = ParameterStore()
    p = store.add("x", rng.uniform(0.2, 2.0, size=(5,)))

    def run():
        with Tape():
            loss = ad.reduce_sum(ad.log(p))
        return float(loss.value)

    with Tape() as tape:
        loss = ad.reduce_sum(ad.log(p))
        backward(tape, loss)
    fd = finite_diff_store(store, run)
    assert rel_error(p.grad, fd["x"]) < 1e-4


def test_three_layer_mlp_gradient_oracle():
    """Random MLP loss gradient vs central differences, step 1e-5."""
    from vdm.optim import ParameterStore

    rng = np.random.default_rng(42)
    store = ParameterStore()
    w1 = store.add("w1", rng.uniform(-0.5, 0.5, size=(4, 8)))
    b1 = store.add("b1", rng.uniform(-0.5, 0.5, size=8))
    w2 = store.add("w2", rng.uniform(-0.5, 0.5, size=(8, 8)))
    b2 = store.add("b2", rng.uniform(-0.5, 0.5, size=8))
    w3 = store.add("w3", rng.uniform(-0.5, 0.5, size=(8, 2)))
    b3 = store.add("b3", rng.uniform(-0.5, 0.5, size=2))
    x = Tensor(rng.uniform(-2.0, 2.0, size=(6, 4)))

    def forward():
        h = ad.relu(ad.matmul(x, w1) + b1)
        h = ad.tanh(ad.matmul(h, w2) + b2)
        return ad.reduce_sum(ad.square(ad.matmul(h, w3) + b3))

    def run():
        with Tape():
            return float(forward().value)

    with Tape() as tape:
        backward(tape, forward())
    fd = finite_diff_store(store, run)
    for name in store.names():
        assert rel_error(store[name].grad, fd[name]) < 1e-4, name


@pytest.mark.parametrize("axis", [None, 0, 1])
def test_reductions_and_shapes(axis):
    from vdm.optim import ParameterStore

    rng = np.random.default_rng(11)
    store = ParameterStore()
    p = store.add("x", rng.uniform(-2, 2, size=(3, 4)))

    for reducer in (ad.reduce_sum, ad.reduce_mean):
        def run():
            with Tape():
                return float(ad.reduce_sum(ad.square(reducer(p, axis=axis))).value)

        store.zero_grad()
        with Tape() as tape:
            backward(tape, ad.reduce_sum(ad.square(reducer(p, axis=axis))))
        fd = finite_diff_store(store, run)
        assert rel_error(p.grad, fd["x"]) < 1e-4


def test_concat_narrow_reshape_expand_gradients():
    from vdm.optim import ParameterStore

    rng = np.random.default_rng(12)
    store = ParameterStore()
    a = store.add("a", rng.uniform(-2, 2, size=(3, 2)))
    b = store.add("b", rng.uniform(-2, 2, size=(3, 5)))

    def forward():
        cat = ad.concat([a, b], axis=1)           # (3, 7)
        left = ad.narrow(cat, 1, 1, 4)            # (3, 4)
        grown = ad.expand_dim(left, 1, 3)         # (3, 3, 4)
        flat = ad.reshape(grown, (9, 4))
        return ad.reduce_sum(ad.square(flat))

    def run():
        with Tape():
            return float(forward().value)

    with Tape() as tape:
        backward(tape, forward())
    fd = finite_diff_store(store, run)
    assert rel_error(a.grad, fd["a"]) < 1e-4
    assert rel_error(b.grad, fd["b"]) < 1e-4


def test_logsumexp_matches_dense_evaluation():
    rng = np.random.default_rng(13)
    x = rng.uniform(-5, 5, size=(4, 6))
    got = ad.logsumexp(Tensor(x), axis=1).value
    want = np.log(np.exp(x).sum(axis=1))
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_broadcast_mul_gradient():
    from vdm.optim import ParameterStore

    rng = np.random.default_rng(14)
    store = ParameterStore()
    w = store.add("w", rng.uniform(-2, 2, size=(3, 4, 1)))
    x = Tensor(rng.uniform(-2, 2, size=(3, 4, 5)))

    def run():
        with Tape():
            return float(ad.reduce_sum(ad.square(w * x)).value)

    with Tape() as tape:
        backward(tape, ad.reduce_sum(ad.square(w * x)))
    fd = finite_diff_store(store, run)
    assert rel_error(w.grad, fd["w"]) < 1e-4


def test_tape_replay_determinism():
    """Same inputs and parameters give bit-identical loss and gradients."""
    from vdm.optim import ParameterStore

    def run():
        rng = np.random.default_rng(99)
        store = ParameterStore()
        w = store.add("w", rng.uniform(-1, 1, size=(5, 5)))
        x = Tensor(rng.uniform(-1, 1, size=(7, 5)))
        with Tape() as tape:
            loss = ad.reduce_sum(ad.square(ad.sigmoid(ad.matmul(x, w))))
            backward(tape, loss)
        return float(loss.value), w.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(g1, g2)


def test_tapes_do_not_nest():
    with Tape():
        with pytest.raises(RuntimeError, match="already active"):
            with Tape():
                pass


def test_pause_suppresses_recording():
    p = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        with Tape.pause():
            _ = ad.square(p)
        assert len(tape.records) == 0


def test_interleaved_pause_in_two_threads_keeps_callers_tape():
    # Forced order: A pauses, B pauses, A resumes, B resumes.  With one
    # process-wide slot, B would restore the None it saved while A was
    # paused, leaving the caller's tape switched off.
    p = Tensor(np.ones(3), requires_grad=True)
    barrier = threading.Barrier(2, timeout=10)

    def first():
        with Tape.pause():
            barrier.wait()
            barrier.wait()
        barrier.wait()

    def second():
        barrier.wait()
        with Tape.pause():
            barrier.wait()
            barrier.wait()

    with Tape() as tape:
        # each thread starts from the caller's context, so it sees the tape
        threads = [
            threading.Thread(target=contextvars.copy_context().run, args=(fn,))
            for fn in (first, second)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        _ = ad.square(p)
    assert len(tape.records) == 1


# ---------------------------------------------------------------------------
# fused layer primitives
# ---------------------------------------------------------------------------

def _mlp3_composed(x, w0, b0, w1, b1, w2, b2):
    h = ad.relu(ad.matmul(x, w0) + b0)
    h = ad.relu(ad.matmul(h, w1) + b1)
    return ad.matmul(h, w2) + b2


def _gru_composed(x, h, wr, br, wu, bu, wc, bc):
    xh = ad.concat([x, h], axis=-1)
    r = ad.sigmoid(ad.matmul(xh, wr) + br)
    u = ad.sigmoid(ad.matmul(xh, wu) + bu)
    c = ad.tanh(ad.matmul(ad.concat([x, r * h], axis=-1), wc) + bc)
    return u * h + (1.0 - u) * c


def _exp_clamp_composed(a, lo, hi):
    return ad.exp(ad.clamp(a, lo, hi))


def _log_pdf_composed(x, mean, std):
    z = (x - mean) / std
    return ad.reduce_sum(-0.5 * ad.LOG_2PI - ad.log(std) - 0.5 * ad.square(z), axis=-1)


def _kl_composed(qm, qs, pm, ps):
    var_ratio = ad.square(qs / ps)
    mean_term = ad.square((qm - pm) / ps)
    per_dim = 0.5 * (var_ratio + mean_term - 1.0) + ad.log(ps) - ad.log(qs)
    return ad.reduce_sum(per_dim, axis=-1)


def _fused_cases():
    """(name, fused op, composed reference, named input arrays)."""
    rng = np.random.default_rng(31)

    def u(*shape, lo=-1.0, hi=1.0):
        return rng.uniform(lo, hi, size=shape)

    return [
        ("mlp3", ad.mlp3, _mlp3_composed, {
            "x": u(5, 3), "w0": u(3, 6), "b0": u(6), "w1": u(6, 4), "b1": u(4),
            "w2": u(4, 2), "b2": u(2)}),
        ("gru_cell", ad.gru_cell, _gru_composed, {
            "x": u(5, 2), "h": u(5, 3), "wr": u(5, 3), "br": u(3), "wu": u(5, 3),
            "bu": u(3), "wc": u(5, 3), "bc": u(3)}),
        ("exp_clamp", lambda a: ad.exp_clamp(a, -1.5, 1.5),
         lambda a: _exp_clamp_composed(a, -1.5, 1.5), {"a": u(4, 3, lo=-2.0, hi=2.0)}),
        ("gaussian_log_pdf", ad.gaussian_log_pdf, _log_pdf_composed, {
            "x": u(4, 3, lo=-2.0, hi=2.0), "mean": u(4, 3), "std": u(4, 3, lo=0.3, hi=2.0)}),
        ("gaussian_kl", ad.gaussian_kl, _kl_composed, {
            "qm": u(4, 3), "qs": u(4, 3, lo=0.3, hi=2.0), "pm": u(4, 3),
            "ps": u(4, 3, lo=0.3, hi=2.0)}),
    ]


_FUSED = {case[0]: case for case in _fused_cases()}


@pytest.mark.parametrize("name", sorted(_FUSED))
def test_fused_forward_bit_identical_to_composition(name):
    _, fused, composed, inputs = _FUSED[name]
    args = [Tensor(v) for v in inputs.values()]
    want = composed(*args).value
    np.testing.assert_array_equal(fused(*args).value, want)
    with Tape() as tape:
        got = fused(*args).value
    assert len(tape.records) == 1
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", sorted(_FUSED))
def test_fused_gradients_match_finite_differences(name):
    from vdm.optim import ParameterStore

    _, fused, _, inputs = _FUSED[name]
    store = ParameterStore()
    args = [store.add(key, value.copy()) for key, value in inputs.items()]

    def forward():
        return ad.reduce_sum(ad.square(fused(*args)))

    def run():
        with Tape():
            return float(forward().value)

    with Tape() as tape:
        backward(tape, forward())
    fd = finite_diff_store(store, run)
    for key in inputs:
        assert rel_error(store[key].grad, fd[key]) < 1e-6, key


@pytest.mark.parametrize("name", sorted(_FUSED))
def test_fused_backward_skips_constant_inputs(name):
    """A parent that is neither recorded nor a parameter gets no gradient."""
    _, fused, _, inputs = _FUSED[name]
    keys = list(inputs)
    for const in range(len(keys)):
        args = [Tensor(v, requires_grad=(i != const)) for i, v in enumerate(inputs.values())]
        with Tape() as tape:
            out = fused(*args)
        (_, parents, back), = tape.records
        grads = back(np.ones_like(out.value))
        assert len(grads) == len(parents) == len(keys)
        for i, (key, g, t) in enumerate(zip(keys, grads, args)):
            if i == const:
                assert g is None, key
            else:
                assert g is not None and g.shape == t.shape, key


def test_fused_gru_input_gradient_through_recorded_state():
    """The state and input gradients flow when those parents come off the tape."""
    from vdm.optim import ParameterStore

    _, _, _, inputs = _FUSED["gru_cell"]
    store = ParameterStore()
    x0 = store.add("x0", inputs["x"].copy())
    h0 = store.add("h0", inputs["h"].copy())
    weights = [Tensor(inputs[k]) for k in ("wr", "br", "wu", "bu", "wc", "bc")]

    def forward():
        # both parents are tape products, not leaves
        return ad.reduce_sum(ad.square(ad.gru_cell(ad.tanh(x0), ad.tanh(h0), *weights)))

    def run():
        with Tape():
            return float(forward().value)

    with Tape() as tape:
        backward(tape, forward())
    fd = finite_diff_store(store, run)
    assert rel_error(x0.grad, fd["x0"]) < 1e-6
    assert rel_error(h0.grad, fd["h0"]) < 1e-6


def test_sigmoid_matches_two_branch_formula():
    """The one numerical change of the fused primitives: sigmoid is
    scipy.special.expit, within 2.3e-16 of the two-branch formula."""
    import warnings

    x = np.linspace(-750.0, 750.0, 300_001)
    want = np.empty_like(x)
    pos = x >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    want[~pos] = ex / (1.0 + ex)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = ad.sigmoid(Tensor(x)).value
    assert np.abs(got - want).max() <= 2.3e-16

"""Reverse-mode engine: primitive values, gradients vs finite differences,
tuple-output records, fused records against their compositions, tape replay
determinism, tape state across threads."""
import contextvars
import math
import threading
import weakref

import numpy as np
import pytest

import vdm.autodiff as ad
from vdm.autodiff import Tape, Tensor, backward

from helpers import (
    add,
    captured_arrays,
    clamp,
    concat,
    div,
    exp,
    exp_clamp,
    expand_dim,
    finite_diff_store,
    log,
    logsumexp,
    matmul,
    mul,
    narrow,
    neg,
    reduce_mean,
    reduce_sum,
    rel_error,
    relu,
    reshape,
    sigmoid,
    square,
    sub,
    tanh,
    traced_peak,
    weighted_sum,
)


def test_relu_values():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.value, [0.0, 0.0, 2.0])


def test_sigmoid_symmetry_point():
    assert sigmoid(Tensor([0.0])).value[0] == 0.5


def test_exp_log_inverse_pair():
    np.testing.assert_allclose(exp(log(Tensor([3.5]))).value, [3.5], rtol=1e-15)


def test_matmul_shape_error_names_primitive():
    with pytest.raises(ValueError, match="matmul"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_add_shape_error():
    with pytest.raises(ValueError, match="add"):
        add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))


def test_tensor_has_no_arithmetic_operators():
    """Unfused arithmetic cannot reach the tape through operator sugar."""
    with pytest.raises(TypeError):
        Tensor(1.0) + 1.0
    with pytest.raises(TypeError):
        2.0 * Tensor(1.0)


def test_linear_combination_rejects_non_scalars():
    with pytest.raises(ValueError, match="linear_combination"):
        ad.linear_combination((1.0, 1.0), (Tensor(1.0), Tensor(np.ones(2))))


def test_backward_requires_scalar():
    p = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = square(p)
    with pytest.raises(ValueError, match="scalar"):
        backward(tape, y)


def test_backward_sum_is_ones():
    p = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    with Tape() as tape:
        loss = reduce_sum(p)
        backward(tape, loss)
    np.testing.assert_array_equal(p.grad, np.ones(3))


def test_backward_square_power_rule():
    p = Tensor(np.array([3.0]), requires_grad=True)
    with Tape() as tape:
        loss = reduce_sum(square(p))
        backward(tape, loss)
    np.testing.assert_allclose(p.grad, [6.0], rtol=1e-15)


def test_fanout_accumulates_additively():
    p = Tensor(np.array([2.0]), requires_grad=True)
    with Tape() as tape:
        y = add(mul(p, p), p)  # p used three times
        backward(tape, reduce_sum(y))
    np.testing.assert_allclose(p.grad, [5.0], rtol=1e-15)


def _random_unary_cases():
    return [
        ("relu", relu),
        ("sigmoid", sigmoid),
        ("tanh", tanh),
        ("exp", exp),
        ("square", square),
        ("clamp", lambda t: clamp(t, -1.5, 1.5)),
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
            loss = reduce_sum(square(op(p)))
        return float(loss.value)

    with Tape() as tape:
        loss = reduce_sum(square(op(p)))
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
        return reduce_sum(square(sub(div(a, b), neg(b))))

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
            loss = reduce_sum(log(p))
        return float(loss.value)

    with Tape() as tape:
        loss = reduce_sum(log(p))
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
        h = relu(add(matmul(x, w1), b1))
        h = tanh(add(matmul(h, w2), b2))
        return reduce_sum(square(add(matmul(h, w3), b3)))

    def run():
        with Tape():
            return float(forward().value)

    with Tape() as tape:
        backward(tape, forward())
    fd = finite_diff_store(store, run)
    for name in store.params:
        assert rel_error(store[name].grad, fd[name]) < 1e-4, name


@pytest.mark.parametrize("axis", [None, 0, 1])
def test_reductions_and_shapes(axis):
    from vdm.optim import ParameterStore

    rng = np.random.default_rng(11)
    store = ParameterStore()
    p = store.add("x", rng.uniform(-2, 2, size=(3, 4)))

    for reducer in (reduce_sum, reduce_mean):
        def run():
            with Tape():
                return float(reduce_sum(square(reducer(p, axis=axis))).value)

        store.zero_grad()
        with Tape() as tape:
            backward(tape, reduce_sum(square(reducer(p, axis=axis))))
        fd = finite_diff_store(store, run)
        assert rel_error(p.grad, fd["x"]) < 1e-4


def test_concat_narrow_reshape_expand_gradients():
    from vdm.optim import ParameterStore

    rng = np.random.default_rng(12)
    store = ParameterStore()
    a = store.add("a", rng.uniform(-2, 2, size=(3, 2)))
    b = store.add("b", rng.uniform(-2, 2, size=(3, 5)))

    def forward():
        cat = concat([a, b], axis=1)              # (3, 7)
        left = narrow(cat, 1, 1, 4)               # (3, 4)
        grown = expand_dim(left, 1, 3)            # (3, 3, 4)
        flat = reshape(grown, (9, 4))
        return reduce_sum(square(flat))

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
    got = logsumexp(Tensor(x), axis=1).value
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
            return float(reduce_sum(square(mul(w, x))).value)

    with Tape() as tape:
        backward(tape, reduce_sum(square(mul(w, x))))
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
            loss = reduce_sum(square(sigmoid(matmul(x, w))))
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
            _ = square(p)
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
        _ = square(p)
    assert len(tape.records) == 1


# ---------------------------------------------------------------------------
# tuple-output records
# ---------------------------------------------------------------------------

def test_unread_output_gets_none_gradient():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    seen = []

    def back(g):
        seen.append(g)
        return (2.0 * g[0],)

    with Tape() as tape:
        first, _ = ad._emit((2.0 * p.value, 3.0 * p.value), (p,), back)
        backward(tape, reduce_sum(first))
    (g_first, g_second), = seen
    np.testing.assert_array_equal(g_first, np.ones(2))
    assert g_second is None
    np.testing.assert_array_equal(p.grad, [2.0, 2.0])


def test_record_with_no_output_read_is_skipped():
    p = Tensor(np.ones(2), requires_grad=True)
    seen = []
    with Tape() as tape:
        ad._emit((p.value, p.value), (p,), lambda g: seen.append(g) or (None,))
        backward(tape, reduce_sum(p))
    assert seen == []


def test_output_read_twice_accumulates_its_gradient():
    p = Tensor(np.array([0.5, 1.5]), requires_grad=True)
    seen = []

    def back(g):
        seen.append(g)
        return (g[0] * 2.0,)

    with Tape() as tape:
        first, _ = ad._emit((2.0 * p.value, 3.0 * p.value), (p,), back)
        loss = add(reduce_sum(first), reduce_sum(mul(first, Tensor(3.0))))
        backward(tape, loss)
    (g_first, g_second), = seen
    np.testing.assert_array_equal(g_first, [4.0, 4.0])
    assert g_second is None
    np.testing.assert_array_equal(p.grad, [8.0, 8.0])


def test_record_without_tape_keeps_no_closure():
    def back(g):
        return (g[0],)

    ref = weakref.ref(back)
    p = Tensor(np.ones(2), requires_grad=True)
    outs = ad._emit((p.value * 2.0, p.value * 3.0), (p,), back)
    del back
    assert ref() is None
    assert not any(t._from_tape for t in outs)


# ---------------------------------------------------------------------------
# fused records against the compositions they replace
# ---------------------------------------------------------------------------

B, K = 3, 4
BRANCH = np.array([2, 0, 3])               # (B,) selected branches
ONE_HOT = np.eye(K)[BRANCH]                # (B, K) indicator weights
ROWS = np.arange(B) * K + BRANCH            # their rows in (B*K, ...) arrays
_CONST_RNG = np.random.default_rng(41)
EPS_BKD = _CONST_RNG.standard_normal((B, K, 2))
EPS_BD = _CONST_RNG.standard_normal((B, 2))
STD_CLAMP = 0.9
PROB_FLOOR = 0.05


def _mlp3_composed(x, w0, b0, w1, b1, w2, b2):
    h = relu(add(matmul(x, w0), b0))
    h = relu(add(matmul(h, w1), b1))
    return add(matmul(h, w2), b2)


def _sigmoid_mlp3_composed(x, *weights):
    return sigmoid(_mlp3_composed(x, *weights))


def _gaussian_mlp_composed(x, h, *weights):
    raw = _mlp3_composed(concat([x, h], axis=-1), *weights)
    d = raw.shape[-1] // 2
    return narrow(raw, -1, 0, d), exp_clamp(narrow(raw, -1, d, d), -STD_CLAMP, STD_CLAMP)


def _gru_composed(x, h, wr, br, wu, bu, wc, bc):
    xh = concat([x, h], axis=-1)
    r = sigmoid(add(matmul(xh, wr), br))
    u = sigmoid(add(matmul(xh, wu), bu))
    c = tanh(add(matmul(concat([x, mul(r, h)], axis=-1), wc), bc))
    return add(mul(u, h), mul(sub(Tensor(1.0), u), c))


def _exp_clamp_composed(a, lo, hi):
    return exp(clamp(a, lo, hi))


def _log_pdf_composed(x, mean, std):
    z = div(sub(x, mean), std)
    per_dim = sub(sub(Tensor(-0.5 * ad.LOG_2PI), log(std)), mul(Tensor(0.5), square(z)))
    return reduce_sum(per_dim, axis=-1)


def _kl_composed(qm, qs, pm, ps):
    var_ratio = square(div(qs, ps))
    mean_term = square(div(sub(qm, pm), ps))
    half = mul(Tensor(0.5), sub(add(var_ratio, mean_term), Tensor(1.0)))
    per_dim = sub(add(half, log(ps)), log(qs))
    return reduce_sum(per_dim, axis=-1)


def _gru_k_composed(x, h, *weights):
    """The GRU with each state row repeated for its K consecutive input rows."""
    return _gru_composed(x, reshape(expand_dim(h, 1, K), (h.shape[0] * K, h.shape[1])), *weights)


def _latent_sample_composed(mean, std):
    drawn = add(expand_dim(mean, 1, K), mul(expand_dim(std, 1, K), Tensor(EPS_BKD)))
    return reshape(drawn, (B * K, 2))


def _reparameterize_composed(mean, std):
    return add(mean, mul(std, Tensor(EPS_BD)))


def _weighted_sum_composed(s, q_mean, q_std):
    w3 = Tensor(ONE_HOT[:, :, None])
    return tuple(
        reduce_sum(mul(w3, reshape(t, (B, K, t.shape[-1]))), axis=1)
        for t in (s, q_mean, q_std)
    )


def _select_bound_composed(recon, kl):
    return sub(sub(recon, kl), Tensor(math.log(K)))


def _log_mean_exp_composed(a):
    return sub(logsumexp(reshape(a, (B, K)), axis=1), Tensor(math.log(K)))


def _gan_losses_composed(d_gen, d_real, d_fake):
    def clamped_log(p):
        return log(clamp(p, PROB_FLOOR, 1.0 - PROB_FLOOR))

    gen = neg(clamped_log(d_gen))
    disc = sub(neg(clamped_log(d_real)), clamped_log(sub(Tensor(1.0), d_fake)))
    return reshape(gen, (B,)), reshape(disc, (B,))


def _concat_rows_composed(a0, a1, b0, b1):
    return concat([a0, a1], axis=0), concat([b0, b1], axis=0)


def _sum_of_means_composed(a, b):
    """Three steps: a holds B rows per step, b two rows of width 2."""
    def blocks(t, rows):
        means = [reduce_mean(narrow(t, 0, i * rows, rows)) for i in range(3)]
        return add(add(means[0], means[1]), means[2])

    return blocks(a, B), blocks(b, 2)


def _linear_combination_composed(a, b, c):
    return add(add(mul(Tensor(-1.0), a), mul(Tensor(-0.7), b)), mul(Tensor(2.5), c))


def _fused_cases():
    """(name, fused op, composed reference, named input arrays)."""
    rng = np.random.default_rng(31)

    def u(*shape, lo=-1.0, hi=1.0):
        return rng.uniform(lo, hi, size=shape)

    return [
        ("mlp3", lambda x, *w: ad.sigmoid_mlp3((x,), w), _sigmoid_mlp3_composed, {
            "x": u(5, 3), "w0": u(3, 6), "b0": u(6), "w1": u(6, 4), "b1": u(4),
            "w2": u(4, 2), "b2": u(2)}),
        ("gaussian_mlp", lambda x, h, *w: ad.gaussian_mlp((x, h), w, 3, STD_CLAMP),
         _gaussian_mlp_composed, {
            "x": u(5, 2), "h": u(5, 3), "w0": u(5, 6), "b0": u(6), "w1": u(6, 4),
            "b1": u(4), "w2": u(4, 6), "b2": u(6)}),
        ("gru_cell", ad.gru_cell, _gru_composed, {
            "x": u(5, 2), "h": u(5, 3), "wr": u(5, 3), "br": u(3), "wu": u(5, 3),
            "bu": u(3), "wc": u(5, 3), "bc": u(3)}),
        ("gru_cell_k4", ad.gru_cell, _gru_k_composed, {
            "x": u(B * K, 2), "h": u(B, 3), "wr": u(5, 3), "br": u(3), "wu": u(5, 3),
            "bu": u(3), "wc": u(5, 3), "bc": u(3)}),
        ("exp_clamp", lambda a: exp_clamp(a, -1.5, 1.5),
         lambda a: _exp_clamp_composed(a, -1.5, 1.5), {"a": u(4, 3, lo=-2.0, hi=2.0)}),
        ("gaussian_log_pdf", ad.gaussian_log_pdf, _log_pdf_composed, {
            "x": u(4, 3, lo=-2.0, hi=2.0), "mean": u(4, 3), "std": u(4, 3, lo=0.3, hi=2.0)}),
        ("gaussian_kl", ad.gaussian_kl, _kl_composed, {
            "qm": u(4, 3), "qs": u(4, 3, lo=0.3, hi=2.0), "pm": u(4, 3),
            "ps": u(4, 3, lo=0.3, hi=2.0)}),
        ("latent_sample", lambda m, s: ad.reparameterize(m, s, EPS_BKD.reshape(B * K, 2)),
         _latent_sample_composed, {"mean": u(B, 2), "std": u(B, 2, lo=0.3, hi=2.0)}),
        ("reparameterize", lambda m, s: ad.reparameterize(m, s, EPS_BD),
         _reparameterize_composed, {"mean": u(B, 2), "std": u(B, 2, lo=0.3, hi=2.0)}),
        ("take_rows", lambda s, qm, qs: ad.take_rows(ROWS, (s, qm, qs)),
         lambda s, qm, qs: weighted_sum(ONE_HOT, (s, qm, qs)), {
            "s": u(B * K, 3), "q_mean": u(B * K, 2), "q_std": u(B * K, 2, lo=0.3, hi=2.0)}),
        ("weighted_sum", lambda s, qm, qs: weighted_sum(ONE_HOT, (s, qm, qs)),
         _weighted_sum_composed, {
            "s": u(B, K, 3), "q_mean": u(B * K, 2), "q_std": u(B * K, 2, lo=0.3, hi=2.0)}),
        ("select_bound", lambda r, kl: ad.select_bound(r, kl, math.log(K)),
         _select_bound_composed, {"recon": u(B, lo=-3.0), "kl": u(B, lo=0.0, hi=2.0)}),
        ("log_mean_exp", lambda a: ad.log_mean_exp(a, K), _log_mean_exp_composed,
         {"a": u(B * K, lo=-5.0, hi=5.0)}),
        ("gan_losses", lambda dg, dr, df: ad.gan_losses(dg, dr, df, PROB_FLOOR),
         _gan_losses_composed, {
            "d_gen": u(B, 1, lo=0.01, hi=0.99), "d_real": u(B, 1, lo=0.01, hi=0.99),
            "d_fake": u(B, 1, lo=0.01, hi=0.99)}),
        ("concat_rows", lambda a0, a1, b0, b1: ad.concat_rows((a0, a1), (b0, b1)),
         _concat_rows_composed, {"a0": u(B, 3), "a1": u(2, 3), "b0": u(B), "b1": u(2)}),
        ("sum_of_means", lambda a, b: ad.sum_of_means(3, a, b),
         _sum_of_means_composed, {"a": u(3 * B), "b": u(3 * 2, 2)}),
        ("linear_combination",
         lambda a, b, c: ad.linear_combination((-1.0, -0.7, 2.5), (a, b, c)),
         _linear_combination_composed, {"a": u(lo=-3.0, hi=3.0), "b": u(), "c": u()}),
    ]


_FUSED = {case[0]: case for case in _fused_cases()}
_TUPLE_OUTPUT = (
    "gaussian_mlp", "take_rows", "weighted_sum", "gan_losses", "concat_rows", "sum_of_means"
)


def _outputs(result):
    return result if isinstance(result, tuple) else (result,)


def _square_sum(outputs):
    loss = reduce_sum(square(outputs[0]))
    for out in outputs[1:]:
        loss = add(loss, reduce_sum(square(out)))
    return loss


@pytest.mark.parametrize("name", sorted(_FUSED))
def test_fused_forward_bit_identical_to_composition(name):
    _, fused, composed, inputs = _FUSED[name]
    args = [Tensor(v) for v in inputs.values()]
    want = [out.value for out in _outputs(composed(*args))]
    got = _outputs(fused(*args))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.value, w)
    with Tape() as tape:
        got = _outputs(fused(*args))
    assert len(tape.records) == 1
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.value, w)


def _fd_check(fused, inputs, pick):
    from vdm.optim import ParameterStore

    store = ParameterStore()
    args = [store.add(key, value.copy()) for key, value in inputs.items()]

    def forward():
        return _square_sum(pick(_outputs(fused(*args))))

    def run():
        with Tape():
            return float(forward().value)

    with Tape() as tape:
        backward(tape, forward())
    fd = finite_diff_store(store, run)
    for key in inputs:
        # an input that no picked output reads gets no deposit: its gradient is zero
        grad = store[key].grad
        grad = np.zeros_like(fd[key]) if grad is None else grad
        assert rel_error(grad, fd[key]) < 1e-6, key


@pytest.mark.parametrize("name", sorted(_FUSED))
def test_fused_gradients_match_finite_differences(name):
    _, fused, _, inputs = _FUSED[name]
    _fd_check(fused, inputs, lambda outs: outs)


@pytest.mark.parametrize("name", _TUPLE_OUTPUT)
def test_fused_gradients_with_one_output_read(name):
    """Each output alone: the others reach the backward as None."""
    _, fused, _, inputs = _FUSED[name]
    n_out = len(_outputs(fused(*[Tensor(v) for v in inputs.values()])))
    for j in range(n_out):
        _fd_check(fused, inputs, lambda outs: outs[j : j + 1])


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
        if isinstance(out, tuple):
            grads = back(tuple(np.ones_like(t.value) for t in out))
        else:
            grads = back(np.ones_like(out.value))
        assert len(grads) == len(parents) == len(keys)
        for i, (key, g, t) in enumerate(zip(keys, grads, args)):
            if i == const:
                assert g is None, key
            else:
                assert g is not None and g.shape == t.shape, key


def test_take_rows_backward_equals_one_hot_weighted_sum():
    """The gather's backward scatters into zeros where the one-hot product
    leaves zeros of either sign: equal under assert_array_equal."""
    _, _, _, inputs = _FUSED["take_rows"]
    args = [Tensor(v, requires_grad=True) for v in inputs.values()]
    grads = [np.random.default_rng(i).normal(size=(B, v.shape[1]))
             for i, v in enumerate(inputs.values())]
    backs = []
    for fused in (lambda: ad.take_rows(ROWS, args), lambda: weighted_sum(ONE_HOT, args)):
        with Tape() as tape:
            fused()
        (_, _, back), = tape.records
        backs.append(back(tuple(grads)))
    for got, want in zip(*backs):
        np.testing.assert_array_equal(got, want)


def test_concat_rows_stacks_array_sequences_outside_the_record():
    """Constant array sequences come back as plain stacked arrays, in their
    place among the outputs; the tensor sequences stay one record whose
    parents are the tensors alone."""
    _, _, _, inputs = _FUSED["concat_rows"]
    a0, a1, b0, b1 = (Tensor(v, requires_grad=True) for v in inputs.values())
    c0, c1 = np.ones((B, 2)), np.zeros((2, 2))
    with Tape() as tape:
        a, c, b = ad.concat_rows((a0, a1), (c0, c1), (b0, b1))
    (outs, parents, _), = tape.records
    assert type(c) is np.ndarray
    np.testing.assert_array_equal(c, np.concatenate([c0, c1]))
    assert outs == (a, b) and parents == (a0, a1, b0, b1)


def test_fused_gru_input_gradient_through_recorded_state():
    """The state and input gradients flow when those parents come off the
    tape, with one input row per state and with K."""
    from vdm.optim import ParameterStore

    for name in ("gru_cell", "gru_cell_k4"):
        _, _, _, inputs = _FUSED[name]
        store = ParameterStore()
        x0 = store.add("x0", inputs["x"].copy())
        h0 = store.add("h0", inputs["h"].copy())
        weights = [Tensor(inputs[k]) for k in ("wr", "br", "wu", "bu", "wc", "bc")]

        def forward():
            # both parents are tape products, not leaves
            return reduce_sum(square(ad.gru_cell(tanh(x0), tanh(h0), *weights)))

        def run():
            with Tape():
                return float(forward().value)

        with Tape() as tape:
            backward(tape, forward())
        fd = finite_diff_store(store, run)
        assert rel_error(x0.grad, fd["x0"]) < 1e-6, name
        assert rel_error(h0.grad, fd["h0"]) < 1e-6, name


# widths: x 2, h 3, so the concatenated input is 5 wide; hidden layers 7
# and 4; the Gaussian head's d = 3 gives 6 raw outputs
_WIDE = {"x": (6, 2), "h": (6, 3), "w0": (5, 7), "b0": (7,), "w1": (7, 4), "b1": (4,)}


def _recorded_closure(fn, shapes):
    rng = np.random.default_rng(8)
    args = [Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True)
            for shape in shapes.values()]
    with Tape() as tape:
        fn(*args)
    (_, _, back), = tape.records
    return back


# each fused network record and its argument shapes, with the widths above;
# at k = 3 the GRU takes 18 input rows from 6 states
_GRU_WEIGHTS = {"wr": (5, 3), "br": (3,), "wu": (5, 3), "bu": (3,), "wc": (5, 3), "bc": (3,)}
_FUSED_NETS = {
    "gru_cell": (ad.gru_cell, {"x": (6, 2), "h": (6, 3), **_GRU_WEIGHTS}),
    "gru_cell_k3": (ad.gru_cell, {"x": (18, 2), "h": (6, 3), **_GRU_WEIGHTS}),
    "gaussian_mlp": (lambda x, h, *w: ad.gaussian_mlp((x, h), w, 3, STD_CLAMP),
                     dict(_WIDE, w2=(4, 6), b2=(6,))),
    "sigmoid_mlp3": (lambda x, h, *w: ad.sigmoid_mlp3((x, h), w),
                     dict(_WIDE, w2=(4, 1), b2=(1,))),
}


@pytest.mark.parametrize("name", sorted(_FUSED_NETS))
def test_fused_closure_keeps_no_concatenated_input(name):
    """Backward rebuilds the concatenated inputs [x, h] and [x, r * h] from
    the arrays it keeps, so no captured array is 5 = 2 + 3 wide; and the
    Gaussian head keeps no (B, 2d) raw output."""
    kept = captured_arrays(_recorded_closure(*_FUSED_NETS[name]))
    assert kept
    assert all(a.shape[-1] != 5 for a in kept), [a.shape for a in kept]
    if name == "gaussian_mlp":
        assert all(a.shape != (6, 6) for a in kept), [a.shape for a in kept]


@pytest.mark.parametrize("name", ["gaussian_mlp", "sigmoid_mlp3"])
def test_mlp_closure_keeps_no_hidden_layer(name):
    """Backward rebuilds the hidden layers h0 and h1 from the inputs and the
    weights, so no captured array is 7 or 4 wide, as the hidden layers are."""
    kept = captured_arrays(_recorded_closure(*_FUSED_NETS[name]))
    assert kept
    assert all(a.shape[-1] not in (7, 4) for a in kept), [a.shape for a in kept]


def test_gru_closure_keeps_no_gate_and_no_repeated_state():
    """Backward repeats the state and rebuilds the gates r, u and c from x,
    h and the weights, so at k = 3 no captured array has the 18 rows and 3
    columns that each of them has."""
    kept = captured_arrays(_recorded_closure(*_FUSED_NETS["gru_cell_k3"]))
    assert kept
    assert all(a.shape != (18, 3) for a in kept), [a.shape for a in kept]


def test_gru_forward_without_a_tape_holds_only_its_gates():
    """With no tape active, the cell's allocation peak at 1,000 rows of the
    model's shape (d_z = 6, d_h = 32) is the gate helper's five arrays, [x,
    h], r, u, [x, r * h] and c, plus less than half an output: r * h, tanh
    and (1 - u) * c are written in place (one output more, 1.56 MiB for a
    0.24 MiB output, when each made a new array)."""
    rng = np.random.default_rng(9)
    rows, d_x, d_h = 1000, 6, 32
    x, h = Tensor(rng.normal(size=(rows, d_x))), Tensor(rng.normal(size=(rows, d_h)))
    weights = [Tensor(rng.normal(size=(d_x + d_h, d_h) if i % 2 == 0 else d_h) * 0.1)
               for i in range(6)]
    ad.gru_cell(x, h, *weights)  # first-call allocations stay out
    with traced_peak() as peak:
        out = ad.gru_cell(x, h, *weights)
    gate_bytes = 8 * rows * (2 * (d_x + d_h) + 3 * d_h)
    assert peak.bytes <= gate_bytes + 0.5 * out.value.nbytes, (peak.bytes, gate_bytes)


@pytest.mark.parametrize("n_states", [4, 0])
def test_gru_rejects_inputs_that_are_no_multiple_of_the_states(n_states):
    """10 input rows are k rows to each state for no whole k, for 4 states
    or for none: the cell says so by name, before any concatenation."""
    x, h = Tensor(np.zeros((10, 2))), Tensor(np.zeros((n_states, 3)))
    weights = [Tensor(np.zeros(shape)) for shape in _GRU_WEIGHTS.values()]
    with pytest.raises(ValueError, match=rf"^gru_cell: 10 input rows, not a multiple of {n_states}"):
        ad.gru_cell(x, h, *weights)


def test_sigmoid_matches_two_branch_formula():
    """The stated tolerance of the one sigmoid: 1 / (1 + exp(-a)) through
    numpy's exp is within 2.3e-16 of the two-branch formula and of
    scipy.special.expit, and handles the overflow of exp(-a) itself."""
    import warnings

    from scipy.special import expit

    x = np.linspace(-750.0, 750.0, 300_001)
    want = np.empty_like(x)
    pos = x >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    want[~pos] = ex / (1.0 + ex)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = sigmoid(Tensor(x)).value
    assert np.abs(got - want).max() <= 2.3e-16
    assert np.abs(got - expit(x)).max() <= 2.3e-16

"""Training losses: frozen hand values, breakdown identity, FD gradient of the
full objective, training-loop contracts."""
import math

import numpy as np
import pytest

import vdm.autodiff as ad
from vdm.autodiff import Tape, Tensor, backward
from vdm.data import Dataset, generate_four_mode
from vdm.evaluation import dataset_multi_step_nll
from vdm.inference import belief_init, belief_step, select_branch
from vdm import objective
from vdm.nets import ModelConfig, VdmModel
from vdm.objective import adv_regularizer, total_loss, train

from helpers import (
    all_branch_belief_step,
    all_branch_elbo,
    all_branch_losses,
    desk_training_step,
    drop_grads,
    entry_grads,
    finite_diff_entries,
    frozen_branch_selection,
    per_step_total_loss,
    record_census,
    rel_error,
    sample_entries,
    tape_saved_bytes,
    traced_peak,
)

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def make_model(d_x=3, d_z=2, d_h=4, k=5, seed=0, **kw):
    cfg = ModelConfig(d_x=d_x, d_z=d_z, d_h=d_h, k=k, **kw)
    return VdmModel.initialize(cfg, np.random.default_rng(seed))


def zero_all(model):
    for store in (model.params, model.disc):
        for t in store.values():
            t.value[...] = 0.0


# ---------------------------------------------------------------------------
# evidence bound
# ---------------------------------------------------------------------------

def one_step_elbo(model, x1, x2, rng):
    """The evidence bound of the one filtering step of a single T=2 trajectory."""
    return total_loss(model, np.stack([x1, x2], axis=1), rng).elbo


def test_elbo_zero_model_hand_value_k1():
    """q equal to the prior (both N(0,I)), decoder N(0,I), x at the decoder
    mean: bound = -d_x * log sqrt(2 pi), KL and weight terms zero."""
    model = make_model(k=1, sampler_mode="monte_carlo")
    zero_all(model)
    value = one_step_elbo(model, np.zeros((1, 3)), np.zeros((1, 3)), np.random.default_rng(0))
    np.testing.assert_allclose(value, -3 * HALF_LOG_2PI, rtol=1e-12)


def test_elbo_zero_model_k5_includes_normalization_constant():
    """Identical branches: bound = recon - KL - log k exactly."""
    model = make_model(k=5)
    zero_all(model)
    value = one_step_elbo(model, np.zeros((1, 3)), np.zeros((1, 3)), np.random.default_rng(0))
    np.testing.assert_allclose(value, -3 * HALF_LOG_2PI - math.log(5), rtol=1e-12)


@pytest.mark.parametrize("sampler, weighting", [("sca", "delta"), ("monte_carlo", "categorical")])
def test_step_branches_index_the_selected_branches(monkeypatch, sampler, weighting):
    """One (B,) index array per filtering step: all 0 at k=1; at k=13 each
    step's branch counts sum to B; under delta each index is the arg-max of
    the step's branch likelihoods."""
    batch = np.random.default_rng(5).normal(size=(8, 4, 3))
    single = make_model(k=1, sampler_mode="monte_carlo", weighting_mode=weighting)
    bd = total_loss(single, batch, np.random.default_rng(6))
    assert len(bd.step_branches) == 3
    for branch in bd.step_branches:
        np.testing.assert_array_equal(branch, np.zeros(8))

    infos = []

    def recording(*args):
        belief, info = belief_step(*args)
        infos.append(info)
        return belief, info

    monkeypatch.setattr(objective, "belief_step", recording)
    model = make_model(d_z=6, k=13, sampler_mode=sampler, weighting_mode=weighting)
    bd = total_loss(model, batch, np.random.default_rng(6))
    assert len(bd.step_branches) == len(infos) == 3
    for branch, info in zip(bd.step_branches, infos):
        assert branch.dtype.kind == "i"
        counts = np.bincount(branch, minlength=13)  # raises on a negative index
        assert counts.shape == (13,) and counts.sum() == 8
        if weighting == "delta":
            ll = info.branch_loglik.value.reshape(8, 13)
            np.testing.assert_array_equal(branch, np.argmax(ll, axis=1))


def test_elbo_nonfinite_input_reported():
    model = make_model()
    with pytest.raises(ValueError, match="non-finite"):
        one_step_elbo(
            model, np.zeros((1, 3)), np.array([[np.inf, 0.0, 0.0]]), np.random.default_rng(0)
        )


def test_elbo_permutation_invariant_when_weights_recomputed():
    """The bound of the selected component, with the branches permuted and
    the weights recomputed, equals the all-branch bound of the unpermuted
    step."""
    from vdm.objective import _selected_elbo

    model = make_model(seed=3)
    belief = belief_init(model, np.random.default_rng(0).normal(size=(1, 3)))
    x = np.random.default_rng(1).normal(size=(1, 3))
    _, ref = all_branch_belief_step(model, belief, x, np.random.default_rng(2))
    _, info = belief_step(model, belief, x, np.random.default_rng(2))
    k = model.config.k
    recon_eps = np.random.default_rng(3).standard_normal((k, model.config.d_z))
    base = all_branch_elbo(model, ref, recon_eps)

    perm = np.random.default_rng(4).permutation(k)
    branch = select_branch(info.branch_loglik.value[perm].reshape(1, k), "delta")
    # the selected rows of the permuted branch states and priors
    state = Tensor(info.branch_states_flat.value[perm][branch])
    pm, ps = (Tensor(t.value[perm][branch]) for t in (info.prior_flat.mean, info.prior_flat.std))
    q = model.infer_component(state, Tensor(x))
    again = _selected_elbo(model, x, state, q.mean, q.std, pm, ps, recon_eps[perm][branch], k)
    np.testing.assert_allclose(again.value, base.value, rtol=1e-12)


@pytest.mark.parametrize("sampler, weighting", [("sca", "delta"), ("monte_carlo", "categorical")])
def test_loss_terms_bit_identical_to_all_branch_losses(sampler, weighting):
    """At B=32 the loss terms of the selected-component step equal those of
    the all-branch step and bound, run through the per-step loss, bit for
    bit; at B=1 within 1e-12."""
    model = make_model(d_x=3, d_z=6, d_h=32, k=13, seed=6, sampler_mode=sampler,
                       weighting_mode=weighting)
    for b, atol in ((32, 0.0), (1, 1e-12)):
        batch = np.random.default_rng(7).normal(size=(b, 6, 3))
        got = total_loss(model, batch, np.random.default_rng(8))
        with all_branch_losses():
            want = per_step_total_loss(model, batch, np.random.default_rng(8))
        for term in ("elbo", "pred", "adv"):
            np.testing.assert_allclose(getattr(got, term), getattr(want, term), rtol=0, atol=atol)


@pytest.mark.parametrize("omega2", [0.0, 1.0])
def test_each_steps_heads_equal_its_rows_of_the_stacked_heads(monkeypatch, omega2):
    """On a B=32 desk batch, the loss heads run on one step's row list give
    that step's rows of the heads run on all steps stacked, within 1e-12:
    the property the divergence fallback relies on to name the first step."""
    model = make_model(d_x=3, d_z=6, d_h=32, k=13, seed=0, omega2=omega2)
    batch = np.random.default_rng(1).normal(size=(32, 30, 3))
    steps, stacked = [], []

    def recording_concat(*series):
        steps.extend(zip(*series))
        return real_concat(*series)

    def recording_heads(*args):
        stacked.append(real_heads(*args))
        return stacked[-1]

    real_concat, real_heads = ad.concat_rows, objective._loss_heads
    monkeypatch.setattr(ad, "concat_rows", recording_concat)
    monkeypatch.setattr(objective, "_loss_heads", recording_heads)
    total_loss(model, batch, np.random.default_rng(2))
    (terms,) = stacked
    assert len(steps) == 29 and len(terms) == (4 if omega2 else 2)
    for t, row in enumerate(steps):
        for got, want in zip(real_heads(model, *row), terms, strict=True):
            np.testing.assert_allclose(
                got.value, want.value[t * 32 : (t + 1) * 32], rtol=0, atol=1e-12
            )


def _loss_and_gradients(model, loss_fn, batch, seed):
    """The breakdown of ``loss_fn`` and the gradients of every model and
    discriminator parameter after one backward sweep over total + disc."""
    drop_grads(model.params, model.disc)
    with Tape() as tape:
        bd = loss_fn(model, batch, np.random.default_rng(seed))
        backward(tape, ad.linear_combination((1.0, 1.0), (bd.total_node, bd.disc_node)))
    return bd, {
        (which, name): t.grad.copy()
        for which, store in (("model", model.params), ("disc", model.disc))
        for name, t in store.items()
    }


@pytest.mark.parametrize("sampler, weighting", [("sca", "delta"), ("monte_carlo", "categorical")])
@pytest.mark.parametrize("b", [1, 7, 32])
def test_loss_heads_once_per_batch_equal_per_step_loss(sampler, weighting, b):
    """The loss heads run once on the stacked rows of all steps give the
    per-step loss's terms bit for bit, from the same rng stream and the same
    branches; the gradients differ only in the order the weight gradients
    sum over rows."""
    model = make_model(d_x=3, d_z=6, d_h=32, k=13, seed=6, sampler_mode=sampler,
                       weighting_mode=weighting)
    batch = np.random.default_rng(7).normal(size=(b, 6, 3))
    got, got_grads = _loss_and_gradients(model, total_loss, batch, 8)
    want, want_grads = _loss_and_gradients(model, per_step_total_loss, batch, 8)
    for term in ("elbo", "pred", "adv", "disc_loss", "total"):
        assert getattr(got, term) == getattr(want, term), term
    for got_b, want_b in zip(got.step_branches, want.step_branches, strict=True):
        np.testing.assert_array_equal(got_b, want_b)
    for key, want_g in want_grads.items():
        assert rel_error(got_grads[key], want_g) < 1e-12, key


# ---------------------------------------------------------------------------
# predictive regularizer
# ---------------------------------------------------------------------------

def one_step_pred(model, x2):
    """The predictive regularizer of one filtering step from x_1 = 0, and the
    branch log-likelihoods of that step; both draw the same rng stream."""
    x1 = np.zeros((1, 3))
    pred = total_loss(model, np.stack([x1, x2], axis=1), np.random.default_rng(0)).pred
    _, info = belief_step(model, belief_init(model, x1), x2, np.random.default_rng(0))
    return pred, info.branch_loglik.value


def test_pred_equals_branch_loglik_when_k1():
    model = make_model(k=1, sampler_mode="monte_carlo", seed=5)
    pred, loglik = one_step_pred(model, np.full((1, 3), 0.2))
    np.testing.assert_allclose(pred, loglik[0], rtol=1e-12)


def test_pred_identical_branches_equals_single_value():
    model = make_model(k=5)
    zero_all(model)
    pred, loglik = one_step_pred(model, np.full((1, 3), 0.3))
    np.testing.assert_allclose(pred, loglik[0], rtol=1e-12)


def test_pred_invariant_to_branch_order():
    """The regularizer is the log of the mean branch likelihood, which the
    order of the branches cannot change."""
    ll = np.random.default_rng(6).normal(size=(2, 7))
    np.testing.assert_allclose(
        ad.log_mean_exp(Tensor(ll.ravel()), 7).value,
        ad.log_mean_exp(Tensor(ll[:, ::-1].ravel()), 7).value,
        rtol=1e-12,
    )


# ---------------------------------------------------------------------------
# adversarial regularizer
# ---------------------------------------------------------------------------

def test_adv_losses_at_uninformative_discriminator():
    model = make_model(seed=7)
    for t in model.disc.values():
        t.value[...] = 0.0  # D == 0.5 everywhere
    x = np.array([[0.4, -0.2, 0.1]])
    summary = Tensor(np.zeros((1, 4)))
    gen, disc = adv_regularizer(model, summary, x, Tensor(x.copy()))
    np.testing.assert_allclose(gen.value, [math.log(2.0)], rtol=1e-12)
    np.testing.assert_allclose(disc.value, [2.0 * math.log(2.0)], rtol=1e-12)


def test_omega2_zero_skips_adversarial_path():
    model = make_model(omega2=0.0, seed=8)
    batch = np.random.default_rng(0).normal(size=(2, 3, 3))
    bd = total_loss(model, batch, np.random.default_rng(1))
    assert bd.adv == 0.0
    assert bd.disc_node is None


# ---------------------------------------------------------------------------
# total loss
# ---------------------------------------------------------------------------

def test_breakdown_identity(monkeypatch):
    """total = -elbo - omega1 pred + omega2 adv, and the bound runs once on
    the steps' rows stacked step-major: elbo is the left-to-right sum of each
    step's batch mean."""
    bounds = []

    def recording_elbo(*args):
        value = real_elbo(*args)
        bounds.append(value.value.copy())
        return value

    real_elbo = objective._selected_elbo
    monkeypatch.setattr(objective, "_selected_elbo", recording_elbo)
    model = make_model(omega1=0.7, omega2=0.3, seed=9)
    batch = np.random.default_rng(2).normal(size=(3, 4, 3))
    bd = total_loss(model, batch, np.random.default_rng(3))
    np.testing.assert_allclose(bd.total, -bd.elbo - 0.7 * bd.pred + 0.3 * bd.adv, rtol=1e-12)
    (bound,) = bounds
    assert bound.shape == (3 * 3,)
    np.testing.assert_allclose(bd.elbo, bound.reshape(3, 3).mean(axis=1).sum(), rtol=1e-12)


def test_pure_elbo_ablation():
    model = make_model(omega1=0.0, omega2=0.0, seed=10)
    batch = np.random.default_rng(4).normal(size=(2, 3, 3))
    bd = total_loss(model, batch, np.random.default_rng(5))
    np.testing.assert_allclose(bd.total, -bd.elbo, rtol=1e-12)


def test_short_trajectory_rejected():
    model = make_model()
    with pytest.raises(ValueError, match="length"):
        total_loss(model, np.zeros((1, 1, 3)), np.random.default_rng(0))


def test_total_loss_rejects_a_single_trajectory_without_batch_axis():
    model = make_model()
    with pytest.raises(ValueError, match=r"^total_loss: expected \(B, T, d_x\)"):
        total_loss(model, np.zeros((4, 3)), np.random.default_rng(0))


@pytest.mark.parametrize("seed", [0, 1])
def test_total_loss_gradient_matches_finite_differences(seed):
    """d_z=2, d_h=4, T=3; branches and sample noise frozen across FD evaluations."""
    model = make_model(d_x=2, d_z=2, d_h=4, k=5, seed=seed)
    batch = np.random.default_rng(seed + 50).uniform(-1.5, 1.5, size=(2, 3, 2))

    probe = total_loss(model, batch, np.random.default_rng(777))
    frozen = probe.step_branches

    def loss_value():
        with Tape.pause():
            bd = total_loss(model, batch, np.random.default_rng(777))
        return bd.total

    with frozen_branch_selection(frozen):
        with Tape() as tape:
            bd = total_loss(model, batch, np.random.default_rng(777))
            backward(tape, bd.total_node)
        rng = np.random.default_rng(seed)
        entries = sample_entries(model.params, 3, rng)
        fd = finite_diff_entries(model.params, loss_value, entries)
    assert rel_error(entry_grads(model.params, entries), fd) < 1e-4


def test_discriminator_gradient_matches_finite_differences():
    model = make_model(d_x=2, d_z=2, d_h=4, k=5, seed=3)
    batch = np.random.default_rng(60).uniform(-1.5, 1.5, size=(2, 3, 2))
    probe = total_loss(model, batch, np.random.default_rng(88))
    frozen = probe.step_branches

    def disc_value():
        with Tape.pause():
            bd = total_loss(model, batch, np.random.default_rng(88))
        return bd.disc_loss

    with frozen_branch_selection(frozen):
        with Tape() as tape:
            bd = total_loss(model, batch, np.random.default_rng(88))
            drop_grads(model.disc)
            backward(tape, bd.disc_node)
        entries = sample_entries(model.disc, 4, np.random.default_rng(4))
        fd = finite_diff_entries(model.disc, disc_value, entries)
    assert rel_error(entry_grads(model.disc, entries), fd) < 1e-4


class _InfiniteNoise:
    """A Generator that passes draws through, except that ``bad_steps`` maps
    a standard normal draw's shape to the step, counted from 1, whose draw of
    that shape gets an infinite trajectory 1."""

    def __init__(self, seed, b, bad_steps):
        self._rng = np.random.default_rng(seed)
        self._b = b
        self._bad_steps = bad_steps
        self._calls = dict.fromkeys(bad_steps, 0)

    def standard_normal(self, size):
        out = self._rng.standard_normal(size)
        if size in self._bad_steps:
            self._calls[size] += 1
            if self._calls[size] == self._bad_steps[size]:
                out.reshape(self._b, -1)[1] = np.inf
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("omega2", [0.0, 1.0])
@pytest.mark.parametrize("recon_step, latent_step, message", [
    (3, None, "emit: non-finite input at step 3"),
    (1, None, "emit: non-finite input at step 1"),
    (None, 4, "gru_advance: non-finite input at step 4"),
    (3, 4, "emit: non-finite input at step 3"),
])
def test_nonfinite_value_names_its_first_step(omega2, recon_step, latent_step, message):
    """A non-finite value is reported at the first step it reaches, whether
    it first appears in a loss head or in the recursion: infinite
    reconstruction noise reaches the bound's emission, infinite latent noise
    the GRU of the belief step."""
    model = make_model(d_x=3, d_z=2, d_h=4, k=5, omega2=omega2, seed=2)
    batch = np.random.default_rng(1).normal(size=(4, 6, 3))
    rng = _InfiniteNoise(0, 4, {(4 * 5, 2): recon_step, (4, 5, 2): latent_step})
    with pytest.raises(FloatingPointError, match=f"^total_loss: {message}$"):
        with Tape():
            total_loss(model, batch, rng)


@pytest.mark.parametrize("bias", ["inf2.b", "tra2.b", "dec2.b", "enc2.b"])
def test_non_finite_head_output_names_the_step_that_made_it(bias):
    """Heads return their outputs unchecked; a NaN output bias still raises
    at step 1, the first step whose values it poisons, whichever check
    (a network input, the branch selection or the bound) first reads it."""
    model = make_model(d_x=3, d_z=2, d_h=4, k=5, seed=2)
    model.params[bias].value[:] = np.nan
    batch = np.random.default_rng(1).normal(size=(4, 6, 3))
    with pytest.raises(FloatingPointError, match=r" at step 1$"):
        with Tape():
            total_loss(model, batch, np.random.default_rng(0))


def test_overflowing_kl_is_reported_as_a_non_finite_bound():
    """An inference mean of 1e200 squares past the float64 range in the KL
    term while the branch likelihoods, which read the prior, stay finite:
    the bound is what fails, at the first step."""
    model = make_model(d_x=3, d_z=2, d_h=4, k=5, seed=2)
    model.params["inf2.b"].value[:2] = 1e200
    batch = np.random.default_rng(1).normal(size=(4, 6, 3))
    with pytest.raises(FloatingPointError, match=r"^total_loss: non-finite bound at step 1$"):
        with Tape(), np.errstate(over="ignore"):
            total_loss(model, batch, np.random.default_rng(0))


# One step at Lorenz desk scale (B=32, d_x 3, d_z 6, d_h 32, k 13, T=30,
# omega2=1) records per filtering step (29 of them) a belief step's 7 records
# (latent sample, GRU, transition prior, branch emission, log-pdf, branch
# gather, inference net) plus the discriminator's GRU and the
# adversarial branch pick.  Once per batch it records the initial encoding,
# the row stacking, the bound's 5 (reparameterization, emission, log-pdf, KL,
# selection), the predictive term, the adversarial term's 8 (transition
# prior, two reparameterizations, emission, three discriminator calls, GAN
# losses), the sums of the per-step means and the loss's linear combination.
DESK_TOTAL_LOSS_CENSUS = {
    "reparameterize": 29 + 1 + 2,
    "gru_cell": 29 + 29,
    "gaussian_mlp": 3 * 29 + 1 + 1 + 2,
    "gaussian_log_pdf": 29 + 1,
    "take_rows": 29 + 29,
    "concat_rows": 1,
    "gaussian_kl": 1,
    "select_bound": 1,
    "log_mean_exp": 1,
    "sigmoid_mlp3": 3,
    "gan_losses": 1,
    "sum_of_means": 1,
    "linear_combination": 1,
}


def test_training_step_tape_record_count():
    """The tape of one desk-scale ``total_loss`` holds exactly the census
    above, 9 records per filtering step and 18 once per batch; an added
    record shows here by its kind.  Every kind is a public primitive."""
    model = make_model(d_x=3, d_z=6, d_h=32, k=13, seed=0)
    batch = np.random.default_rng(1).normal(size=(32, 30, 3))
    with Tape() as tape:
        total_loss(model, batch, np.random.default_rng(2))
    assert record_census(tape) == DESK_TOTAL_LOSS_CENSUS
    assert set(DESK_TOTAL_LOSS_CENSUS) <= set(ad.__all__)
    assert len(tape.records) == 29 * 9 + 18 == 279


def test_training_step_tape_keeps_at_most_10_mib():
    """The records keep what backward reads and cannot rebuild: the network
    heads rebuild their concatenated inputs and hidden layers in backward,
    the GRU its repeated state and gates, and the Gaussian heads keep no raw
    output, so one desk-scale step's tape holds at most 10 MiB of arrays
    (8.8 MiB; 21.2 MiB when the GRU kept its gates and took a repeated
    state, 43.0 MiB when the heads also kept their hidden layers).  Every
    record stays on the tape through backward."""
    model, tape, root = desk_training_step()
    census = dict(DESK_TOTAL_LOSS_CENSUS, linear_combination=2)  # plus train's root
    assert record_census(tape) == census
    assert len(tape.records) == 280
    assert tape_saved_bytes(tape) <= 10 * 2**20
    backward(tape, root)
    assert record_census(tape) == census


def test_cli_default_training_step_peaks_below_90_mib():
    """One training step at the CLI's default shape (B=64, T=100, k=13,
    d_h=32), forward and backward, allocates at most 90 MiB at its peak
    under tracemalloc: 80 MiB with the hidden layers and the GRU gates
    rebuilt in backward, 165 MiB when the GRU kept its gates, 308 MiB when
    every record kept them."""
    model = make_model(d_x=3, d_z=6, d_h=32, k=13, seed=0)
    batch = np.random.default_rng(1).normal(size=(64, 100, 3))
    with traced_peak() as peak:
        with Tape() as tape:
            bd = total_loss(model, batch, np.random.default_rng(2))
            root = ad.linear_combination((1.0, 1.0), (bd.total_node, bd.disc_node))
        backward(tape, root)
    assert peak.bytes <= 90 * 2**20, peak.bytes / 2**20


def test_replaying_a_tape_twice_doubles_the_gradients():
    model, tape, root = desk_training_step()
    stores = (model.params, model.disc)
    backward(tape, root)
    once = [{k: t.grad.copy() for k, t in s.items()} for s in stores]
    backward(tape, root)
    for store, grads in zip(stores, once):
        for name, g in grads.items():
            assert np.any(g != 0.0), name
            np.testing.assert_allclose(
                store[name].grad, 2.0 * g, rtol=1e-12, atol=1e-12 * np.abs(g).max(),
                err_msg=name,
            )


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _tiny_four_mode(n=60, seed=0):
    (train_ds, val_ds, _), _ = (
        generate_four_mode((n, 20, 1), np.random.default_rng(seed)),
        None,
    )
    return train_ds, val_ds


def test_zero_epochs_returns_initialized_checkpoint():
    train_ds, _ = _tiny_four_mode()
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5, omega2=0.0)
    result = train(train_ds, cfg, np.random.default_rng(11), epochs=0)
    ref = VdmModel.initialize(cfg, np.random.default_rng(11))
    for name in ref.params:
        np.testing.assert_array_equal(
            result.checkpoint.model_arrays[name], ref.params[name].value
        )
    assert result.history == []


def test_omega2_zero_builds_no_discriminator_optimizer_state(monkeypatch):
    """At omega2 = 0 the discriminator is never stepped, so train builds Adam
    state for the model store alone."""
    built = []

    class CountingAdamState(objective.AdamState):
        def __init__(self, store):
            built.append(store)
            super().__init__(store)

    monkeypatch.setattr(objective, "AdamState", CountingAdamState)
    train_ds, _ = _tiny_four_mode()
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5, omega2=0.0)
    train(train_ds, cfg, np.random.default_rng(13), epochs=1, batch_size=16)
    assert len(built) == 1 and "enc0.w" in built[0]


def test_training_deterministic_bit_identical():
    train_ds, _ = _tiny_four_mode()
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5)

    def run():
        return train(train_ds, cfg, np.random.default_rng(13), epochs=2, batch_size=16)

    a, b = run(), run()
    for name in a.checkpoint.model_arrays:
        np.testing.assert_array_equal(
            a.checkpoint.model_arrays[name], b.checkpoint.model_arrays[name]
        )
    for name in a.checkpoint.disc_arrays:
        np.testing.assert_array_equal(
            a.checkpoint.disc_arrays[name], b.checkpoint.disc_arrays[name]
        )
    assert [h["total"] for h in a.history] == [h["total"] for h in b.history]


def test_four_mode_training_improves_validation_nll():
    """Monotone-improvement smoke oracle over 5 seeds, k=9 config; the sum
    reduction avoids the mean-reduction floor and shows the improvement."""
    splits = generate_four_mode((500, 60, 1), np.random.default_rng(99))
    train_ds, val_ds, _ = splits
    cfg = ModelConfig(d_x=2, d_z=4, d_h=8, k=9, omega2=0.0)
    for seed in range(5):
        before = train(train_ds, cfg, np.random.default_rng(seed), epochs=0)
        after = train(train_ds, cfg, np.random.default_rng(seed), epochs=8, batch_size=32)

        def val_nll(result):
            return dataset_multi_step_nll(
                result.checkpoint.build_model(),
                result.checkpoint.normalize(val_ds.data),
                val_ds.prefix_len,
                100,
                np.random.default_rng(1000 + seed),
                reduction="sum",
            )

        nll_before, nll_after = val_nll(before), val_nll(after)
        assert nll_after < nll_before, f"seed {seed}: {nll_after} !< {nll_before}"


def test_divergence_aborts_with_last_good_checkpoint():
    """An absurd learning rate overflows the parameters within an epoch or
    two; training stops and returns the last finite parameters."""
    train_ds, _ = _tiny_four_mode()
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5, omega2=0.0, lr=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        result = train(train_ds, cfg, np.random.default_rng(5), epochs=5, batch_size=16)
    assert result.aborted
    for arr in result.checkpoint.model_arrays.values():
        assert np.all(np.isfinite(arr))


def test_divergence_in_validation_aborts_with_last_good_checkpoint():
    """When the epoch's last update leaves the parameters non-finite, the
    validation forecasts fail: that too is divergence, not a crash.  One
    batch per epoch, so the epoch's one loss is finite and validation is
    where the run fails."""
    train_ds, val_ds = _tiny_four_mode()
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5, omega2=0.0, lr=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        result = train(train_ds, cfg, np.random.default_rng(5), val_dataset=val_ds,
                       epochs=5, batch_size=len(train_ds))
    assert result.aborted
    (last,) = result.history
    assert math.isfinite(last["total"]) and math.isnan(last["val_nll"])
    for arr in result.checkpoint.model_arrays.values():
        assert np.all(np.isfinite(arr))


def test_nonfinite_training_data_is_an_error_not_divergence():
    """A NaN in the training data is bad input: train raises instead of
    reporting a diverged run.  The NaN is written after the Dataset checked
    its values, so it reaches the filtering recursion."""
    train_ds, _ = _tiny_four_mode()
    train_ds.data[3, 2, 1] = np.nan
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5, omega2=0.0)
    with pytest.raises(ValueError, match="non-finite") as excinfo:
        train(train_ds, cfg, np.random.default_rng(5), epochs=2, batch_size=16)
    assert not isinstance(excinfo.value, FloatingPointError)


def test_nonfinite_validation_data_is_an_error():
    """A NaN in the validation data would score every epoch as nan and
    switch off best-model selection; train rejects it up front.  The NaN is
    written after the Dataset checked its values."""
    train_ds, val_ds = _tiny_four_mode()
    val_ds.data[0, 1, 0] = np.nan
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5, omega2=0.0)
    with pytest.raises(ValueError, match="validation"):
        train(train_ds, cfg, np.random.default_rng(5), val_dataset=val_ds, epochs=3, batch_size=16)


def test_validation_without_a_continuation_fails_before_training(monkeypatch):
    """A validation set whose prefix fills the whole sequence has nothing to
    score; train rejects it before the first batch, not after an epoch."""
    train_ds, val_ds = _tiny_four_mode()
    calls = []
    monkeypatch.setattr(objective, "total_loss", lambda *a: calls.append(a))
    full = Dataset(train_ds.data, train_ds.seq_len)
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5, omega2=0.0)
    with pytest.raises(ValueError):
        train(full, cfg, np.random.default_rng(5), val_dataset=val_ds, epochs=1, batch_size=16)
    assert calls == []


def test_empty_validation_set_is_an_error():
    """An empty validation Dataset has nothing to score; ``vdm train`` passes
    none for an empty val split instead."""
    train_ds, val_ds = _tiny_four_mode()
    empty = Dataset(val_ds.data[:0], val_ds.prefix_len)
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5, omega2=0.0)
    with pytest.raises(ValueError, match="^train: the validation set holds no sequences$"):
        train(train_ds, cfg, np.random.default_rng(5), val_dataset=empty, epochs=1)


@pytest.mark.parametrize("setting, value", [
    ("batch_size", 0), ("batch_size", True), ("batch_size", 16.0),
    ("val_forecasts", 0), ("val_forecasts", -1), ("val_forecasts", True),
    ("epochs", -1), ("epochs", True), ("epochs", 2.0),
    ("patience", 0), ("patience", "3"), ("patience", True),
])
def test_loop_settings_checked_before_the_first_batch(monkeypatch, setting, value):
    """epochs must be an int >= 0, and patience, batch_size and val_forecasts
    ints >= 1.  val_forecasts=0 used to fail only after a whole epoch,
    batch_size=0 inside ``range``, and patience="3" with a TypeError after
    two epochs; epochs=-1 returned an untrained checkpoint, epochs=True ran
    one epoch, and patience=0 stopped like patience=1."""
    train_ds, val_ds = _tiny_four_mode()

    def never(*args):
        raise AssertionError("total_loss ran")

    monkeypatch.setattr(objective, "total_loss", never)
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5, omega2=0.0)
    settings = {"epochs": 1, "patience": 1, "batch_size": 16, "val_forecasts": 5, setting: value}
    least = 0 if setting == "epochs" else 1
    with pytest.raises(ValueError, match=f"^train: {setting} must be an int >= {least}, got {value!r}$"):
        train(train_ds, cfg, np.random.default_rng(5), val_dataset=val_ds, **settings)


@pytest.mark.parametrize("position", ["dataset", "val_dataset"])
def test_bare_array_input_is_an_error(position):
    """Only Datasets are accepted; a bare array used to pass as val_dataset
    through ndarray.data, a memoryview."""
    train_ds, val_ds = _tiny_four_mode()
    inputs = {"dataset": train_ds, "val_dataset": val_ds}
    inputs[position] = inputs[position].data
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5, omega2=0.0)
    with pytest.raises(ValueError, match=f"train: {position} must be a Dataset, got ndarray"):
        train(config=cfg, rng=np.random.default_rng(5), epochs=1, batch_size=16, **inputs)


@pytest.mark.parametrize("position", ["dataset", "val_dataset"])
def test_observation_width_must_match_the_config(monkeypatch, position):
    """A dataset whose d_x is not the config's fails before the first batch;
    a d_x=1 validation set against a d_x=2 model used to broadcast through
    the normalization and score made-up observations."""
    train_ds, val_ds = _tiny_four_mode()
    inputs = {"dataset": train_ds, "val_dataset": val_ds}
    inputs[position] = Dataset(inputs[position].data[:, :, :1], train_ds.prefix_len)
    calls = []
    monkeypatch.setattr(objective, "total_loss", lambda *a: calls.append(a))
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5, omega2=0.0)
    with pytest.raises(ValueError, match=f"^train: {position} has d_x=1, the config d_x=2$"):
        train(config=cfg, rng=np.random.default_rng(5), epochs=1, batch_size=16, **inputs)
    assert calls == []


def _live_discriminator_adv(model, prefix_summary, x_real, x_gen):
    """The adversarial losses with the generator reading the live
    discriminator, as when each loss had its own backward sweep."""
    d_gen = model.discriminate(prefix_summary, x_gen)
    d_real = model.discriminate(prefix_summary, Tensor(np.asarray(x_real, dtype=np.float64)))
    d_fake = model.discriminate(prefix_summary, x_gen.detach())
    return ad.gan_losses(d_gen, d_real, d_fake, objective.DISC_PROB_FLOOR)


def test_training_step_one_sweep_matches_two_sweep_reference(monkeypatch):
    """One train step replays the tape once; the model and discriminator
    gradients it hands to Adam equal those of the two-sweep reference: the
    generator loss swept alone, then the discriminator loss alone after
    zeroing the discriminator gradients."""
    train_ds = generate_four_mode((16, 20, 1), np.random.default_rng(0))[0]
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5)
    sweeps, handed = [], []
    real_backward, real_adam = objective.backward, objective.adam_step

    def counting_backward(tape, loss):
        sweeps.append(len(tape.records))
        return real_backward(tape, loss)

    def spying_adam(store, state, lr):
        handed.append({name: t.grad.copy() for name, t in store.items()})
        return real_adam(store, state, lr=lr)

    monkeypatch.setattr(objective, "backward", counting_backward)
    monkeypatch.setattr(objective, "adam_step", spying_adam)
    result = train(train_ds, cfg, np.random.default_rng(3), epochs=1, batch_size=16)
    assert len(sweeps) == 1
    assert len(handed) == 2
    monkeypatch.undo()

    monkeypatch.setattr(objective, "adv_regularizer", _live_discriminator_adv)
    rng = np.random.default_rng(3)
    model = VdmModel.initialize(cfg, rng)
    # train standardizes with training-set statistics, which the checkpoint keeps
    data = result.checkpoint.normalize(train_ds.data)
    batch = data[rng.permutation(len(data))]
    with Tape() as tape:
        bd = total_loss(model, batch, rng)
        backward(tape, bd.total_node)
        drop_grads(model.disc)
        backward(tape, bd.disc_node)
    for store, got in ((model.params, handed[0]), (model.disc, handed[1])):
        for name, t in store.items():
            assert rel_error(got[name], t.grad) < 1e-12, name


def test_metrics_history_contents():
    train_ds, val_ds = _tiny_four_mode()
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5, omega2=0.0)
    result = train(
        train_ds, cfg, np.random.default_rng(21), val_dataset=val_ds, epochs=2,
        batch_size=16, val_forecasts=10,
    )
    assert len(result.history) == 2
    for row in result.history:
        for key in ("epoch", "total", "elbo", "pred", "adv", "val_nll"):
            assert key in row
        assert math.isfinite(row["val_nll"])
    assert result.checkpoint.provenance["epoch"] in (0, 1)


def _epoch_line(row):
    return (f"epoch {row['epoch']}: total={row['total']:.4f} elbo={row['elbo']:.4f} "
            f"pred={row['pred']:.4f} adv={row['adv']:.4f} val_nll={row['val_nll']:.4f}")


def test_verbose_training_prints_each_epoch_and_the_early_stop(capsys):
    """With patience 1 the first epoch that does not improve the validation
    NLL is the last, and says so after its own line."""
    train_ds, val_ds = _tiny_four_mode()
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5, omega2=0.0)
    result = train(train_ds, cfg, np.random.default_rng(21), val_dataset=val_ds, epochs=5,
                   batch_size=16, patience=1, val_forecasts=10, verbose=True)
    stop = len(result.history) - 1
    assert 0 < stop < 4
    assert capsys.readouterr().out.splitlines() == (
        [_epoch_line(row) for row in result.history] + [f"epoch {stop}: early stop (patience 1)"]
    )


def test_verbose_training_prints_the_divergence(capsys):
    """A diverged epoch prints the error before its own line, whose
    validation NLL is nan."""
    train_ds, val_ds = _tiny_four_mode()
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=5, omega2=0.0, lr=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        result = train(train_ds, cfg, np.random.default_rng(5), val_dataset=val_ds, epochs=5,
                       batch_size=len(train_ds), verbose=True)
    assert result.aborted
    first, second = capsys.readouterr().out.splitlines()
    assert first.startswith("epoch 0: aborted on divergence: ")
    assert second == _epoch_line(result.history[0]) and second.endswith("val_nll=nan")

"""Filtering recursion: weighting rules, belief invariants, k=1 reference
filter equivalence, one-step predictive quadrature."""
import numpy as np
import pytest

from vdm.autodiff import Tensor
from vdm.evaluation import forecast_dataset
from vdm.inference import (
    MixtureBelief,
    belief_init,
    belief_step,
    export_predictive_prior,
    filter_sequence,
    generate,
    one_step_predictive,
    select_branch,
    sigma_points,
)
from vdm.nets import Gaussian, ModelConfig, VdmModel
from vdm.util import NonFiniteError

from helpers import all_branch_belief_step, reference_export_prior


def make_model(d_x=3, d_z=2, d_h=4, k=5, seed=0, **kw):
    cfg = ModelConfig(d_x=d_x, d_z=d_z, d_h=d_h, k=k, **kw)
    return VdmModel.initialize(cfg, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# weighting
# ---------------------------------------------------------------------------

def test_delta_weights_pick_argmax():
    branch = select_branch(np.log([[0.2, 0.5, 0.3]]), "delta")
    np.testing.assert_array_equal(branch, [1])


def test_single_branch_weight():
    branch = select_branch(np.array([[-3.7]]), "delta")
    np.testing.assert_array_equal(branch, [0])


def test_tie_breaks_to_lowest_index():
    branch = select_branch(np.zeros((1, 4)), "delta")
    np.testing.assert_array_equal(branch, [0])


def test_delta_scale_invariance():
    """Multiplying all likelihoods by a positive constant is a log shift."""
    rng = np.random.default_rng(2)
    ll = rng.normal(size=(6, 5))
    for shift in (-7.0, 0.0, 11.5):
        np.testing.assert_array_equal(
            select_branch(ll, "delta"), select_branch(ll + shift, "delta")
        )


def test_categorical_frequencies_proportional_to_likelihood():
    probs = np.array([0.1, 0.6, 0.3])
    ll = np.log(np.tile(probs, (20000, 1)))
    branch = select_branch(ll, "categorical", np.random.default_rng(9))
    freq = np.bincount(branch, minlength=3) / 20000
    # binomial 3-sigma band per component
    band = 3 * np.sqrt(probs * (1 - probs) / 20000)
    assert np.all(np.abs(freq - probs) < band)


def test_degenerate_likelihoods_error():
    with pytest.raises(FloatingPointError):
        select_branch(np.array([[np.nan, 0.0]]), "delta")
    with pytest.raises(FloatingPointError):
        select_branch(np.array([[-np.inf, -np.inf]]), "delta")
    with pytest.raises(ValueError, match="rng"):
        select_branch(np.zeros((1, 2)), "categorical")


def test_weights_reject_a_single_row():
    with pytest.raises(ValueError, match=r"^select_branch: expected \(B, k\)"):
        select_branch(np.zeros(3), "delta")


# ---------------------------------------------------------------------------
# belief recursion
# ---------------------------------------------------------------------------

def test_recursion_rejects_lower_rank_observations():
    """belief_init and belief_step take (B, d_x) observations and
    filter_sequence a (B, T, d_x) batch; a single trajectory is B = 1."""
    model = make_model()
    with pytest.raises(ValueError, match=r"^belief_init: expected \(B, 3\)"):
        belief_init(model, np.zeros(3))
    belief = belief_init(model, np.zeros((1, 3)))
    with pytest.raises(ValueError, match=r"^belief_step: expected \(B, 3\)"):
        belief_step(model, belief, np.zeros(3), np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"^filter_sequence: expected \(B, T>=1, d_x\)"):
        filter_sequence(model, np.zeros((2, 3)), np.random.default_rng(0))


@pytest.mark.parametrize("fn", ["belief_step", "one_step_predictive"])
@pytest.mark.parametrize("sampler, k", [("sca", 5), ("monte_carlo", 1)])
def test_observations_must_match_the_belief_batch(fn, sampler, k):
    """One observation row per belief row: a (1, d_x) x against a B = 2
    belief raises a ValueError naming the function and both batch sizes."""
    model = make_model(k=k, sampler_mode=sampler)
    belief = belief_init(model, np.zeros((2, 3)))
    call = {
        "belief_step": lambda x: belief_step(model, belief, x, np.random.default_rng(0)),
        "one_step_predictive": lambda x: one_step_predictive(model, belief, x),
    }[fn]
    with pytest.raises(ValueError, match=rf"^{fn}: the belief has batch size 2, x has 1$"):
        call(np.zeros((1, 3)))


def test_belief_init_contract():
    model = make_model(seed=6)
    x = np.array([[0.5, -0.5, 0.2]])
    belief = belief_init(model, x)
    np.testing.assert_array_equal(belief.expected_h.value, np.zeros((1, 4)))
    g = model.encode_initial(x)
    np.testing.assert_array_equal(belief.collapsed.mean.value, g.mean.value)
    np.testing.assert_array_equal(belief.collapsed.std.value, g.std.value)


def test_belief_step_determinism():
    model = make_model(seed=8)
    x0 = np.array([[0.1, 0.2, 0.3], [1.0, -1.0, 0.0]])
    x1 = np.array([[0.2, 0.1, -0.3], [0.9, -1.1, 0.1]])

    def run():
        belief = belief_init(model, x0)
        return belief_step(model, belief, x1, np.random.default_rng(21))

    (b1, info1), (b2, info2) = run(), run()
    np.testing.assert_array_equal(b1.collapsed.mean.value, b2.collapsed.mean.value)
    np.testing.assert_array_equal(info1.branch, info2.branch)
    np.testing.assert_array_equal(b1.expected_h.value, b2.expected_h.value)


def test_expected_h_is_convex_combination():
    model = make_model(seed=10)
    belief = belief_init(model, np.random.default_rng(0).normal(size=(3, 3)))
    belief, info = belief_step(model, belief, np.random.default_rng(1).normal(size=(3, 3)),
                               np.random.default_rng(2))
    states = info.branch_states_flat.value.reshape(3, model.config.k, model.config.d_h)
    recomputed = np.einsum("bk,bkh->bh", np.eye(model.config.k)[info.branch], states)
    np.testing.assert_allclose(belief.expected_h.value, recomputed, atol=1e-12)


def test_collapsed_matches_selected_component():
    model = make_model(seed=12)
    belief = belief_init(model, np.random.default_rng(3).normal(size=(2, 3)))
    x = np.random.default_rng(4).normal(size=(2, 3))
    _, ref = all_branch_belief_step(model, belief, x, np.random.default_rng(5))
    belief, info = belief_step(model, belief, x, np.random.default_rng(5))
    np.testing.assert_array_equal(info.branch, ref.branch)
    idx = info.branch
    k, d_z = model.config.k, model.config.d_z
    means = ref.q_flat.mean.value.reshape(2, k, d_z)
    stds = ref.q_flat.std.value.reshape(2, k, d_z)
    for b in range(2):
        np.testing.assert_array_equal(belief.collapsed.mean.value[b], means[b, idx[b]])
        np.testing.assert_array_equal(belief.collapsed.std.value[b], stds[b, idx[b]])


LORENZ_MODES = [("sca", "delta"), ("monte_carlo", "categorical")]


def _lorenz_model(sampler, weighting):
    return make_model(d_x=3, d_z=6, d_h=32, k=13, seed=4, sampler_mode=sampler,
                      weighting_mode=weighting)


def _filter_both(model, xs):
    """The beliefs of the selected-component step and of the all-branch
    reference, each filtering ``xs`` from its own copy of one rng stream."""
    out = []
    for step in (belief_step, all_branch_belief_step):
        rng = np.random.default_rng(9)
        belief = belief_init(model, xs[:, 0])
        beliefs = []
        for t in range(1, xs.shape[1]):
            belief, _ = step(model, belief, xs[:, t], rng)
            beliefs.append(belief)
        out.append(beliefs)
    return out


@pytest.mark.parametrize("sampler, weighting", LORENZ_MODES)
def test_selected_component_step_bit_identical_to_all_branch_step(sampler, weighting):
    """At B=32 the step that builds only the selected component gives the
    all-branch step's beliefs bit for bit, step after step."""
    model = _lorenz_model(sampler, weighting)
    xs = np.random.default_rng(8).normal(size=(32, 6, 3))
    got, want = _filter_both(model, xs)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.collapsed.mean.value, w.collapsed.mean.value)
        np.testing.assert_array_equal(g.collapsed.std.value, w.collapsed.std.value)
        np.testing.assert_array_equal(g.expected_h.value, w.expected_h.value)


@pytest.mark.parametrize("sampler, weighting", LORENZ_MODES)
def test_selected_component_step_matches_all_branch_step_single_row(sampler, weighting):
    """At B=1 numpy's single-row product may differ in the last bits from a
    row of the B*k-row product."""
    model = _lorenz_model(sampler, weighting)
    xs = np.random.default_rng(8).normal(size=(1, 6, 3))
    got, want = _filter_both(model, xs)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g.collapsed.mean.value, w.collapsed.mean.value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(g.collapsed.std.value, w.collapsed.std.value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(g.expected_h.value, w.expected_h.value, rtol=0, atol=1e-12)


def test_k1_matches_independent_single_sample_filter():
    """Reference single-sample filter, written from scratch, over several seeds."""
    for seed in range(3):
        model = make_model(k=1, sampler_mode="monte_carlo", seed=seed)
        rng = np.random.default_rng(100 + seed)
        xs = rng.normal(size=(1, 4, 3))

        # the recursion step by step, for the branch each step picked
        rng_a = np.random.default_rng(7)
        beliefs = [belief_init(model, xs[:, 0])]
        for t in range(1, 4):
            belief, info = belief_step(model, beliefs[-1], xs[:, t], rng_a)
            np.testing.assert_array_equal(info.branch, [0])
            beliefs.append(belief)
        # the filter ends on the last of them
        final = filter_sequence(model, xs, np.random.default_rng(7))
        np.testing.assert_array_equal(final.collapsed.mean.value,
                                      beliefs[-1].collapsed.mean.value)

        # independent reference: one latent draw, h <- s, q <- infer(s, x)
        rng_b = np.random.default_rng(7)
        g = model.encode_initial(xs[:, 0])
        h = np.zeros((1, model.config.d_h))
        ref_means, ref_stds = [g.mean.value.copy()], [g.std.value.copy()]
        for t in range(1, 4):
            eps = rng_b.standard_normal((1, 1, model.config.d_z))
            z = g.mean.value + g.std.value * eps[:, 0]
            s = model.gru_advance(Tensor(z), Tensor(h)).value
            g = model.infer_component(Tensor(s), Tensor(xs[:, t]))
            h = s
            ref_means.append(g.mean.value.copy())
            ref_stds.append(g.std.value.copy())

        for t, b in enumerate(beliefs):
            np.testing.assert_allclose(b.collapsed.mean.value, ref_means[t], rtol=1e-12)
            np.testing.assert_allclose(b.collapsed.std.value, ref_stds[t], rtol=1e-12)


def test_filter_sequence_prefix_one_returns_init_only():
    model = make_model(seed=14)
    rng = np.random.default_rng(0)
    belief = filter_sequence(model, np.zeros((2, 1, 3)), rng)
    # no belief step ran: the rng is untouched and the belief is belief_init's
    assert rng.random() == np.random.default_rng(0).random()
    init = belief_init(model, np.zeros((2, 3)))
    np.testing.assert_array_equal(belief.collapsed.mean.value, init.collapsed.mean.value)
    assert belief.batch == 2
    np.testing.assert_array_equal(belief.expected_h.value, np.zeros((2, 4)))


def test_filter_sequence_empty_prefix_rejected():
    model = make_model()
    with pytest.raises(ValueError, match="T>=1"):
        filter_sequence(model, np.zeros((2, 0, 3)), np.random.default_rng(0))


@pytest.mark.parametrize("sampler, k", [("sca", 5), ("monte_carlo", 3)])
def test_empty_batch_filters_scores_and_forecasts(sampler, k):
    """Zero trajectories give zero rows at every stage of the branch layout."""
    model = make_model(k=k, sampler_mode=sampler)
    belief = filter_sequence(model, np.zeros((0, 3, 3)), np.random.default_rng(0))
    assert belief.batch == 0 and belief.collapsed.mean.shape == (0, 2)
    assert one_step_predictive(model, belief, np.zeros((0, 3))).shape == (0,)
    fc = forecast_dataset(model, np.zeros((0, 3, 3)), 2, 4, 1, np.random.default_rng(0))
    assert fc.shape == (0, 4, 1, 3)


def test_filter_sequence_protocol_shapes():
    # taxi-style: prefix 10 of a 30-step trajectory; lorenz-style: prefix 10, horizon 90
    model = make_model(d_x=2, seed=15)
    data = np.random.default_rng(1).normal(size=(4, 30, 2))
    belief = filter_sequence(model, data[:, :10], np.random.default_rng(2))
    # the final belief has absorbed all 10 prefix observations
    rng = np.random.default_rng(2)
    want = belief_init(model, data[:, 0])
    for t in range(1, 10):
        want, _ = belief_step(model, want, data[:, t], rng)
    np.testing.assert_array_equal(belief.expected_h.value, want.expected_h.value)
    fc = generate(model, belief, 20, np.random.default_rng(3))
    assert fc.shape == (4, 20, 2)


def test_generate_rejects_zero_horizon():
    model = make_model()
    belief = belief_init(model, np.zeros((1, 3)))
    with pytest.raises(ValueError, match="horizon"):
        generate(model, belief, 0, np.random.default_rng(0))


def test_generate_rejects_a_non_finite_forecast():
    """The emission's output feeds no network inside ``generate``, so the
    forecast itself is checked before it leaves."""
    model = make_model(seed=16)
    belief = belief_init(model, np.zeros((2, 3)))
    model.params["dec2.b"].value[:] = np.inf
    with pytest.raises(NonFiniteError, match="^generate: non-finite forecast$"):
        generate(model, belief, 3, np.random.default_rng(0))


def test_generate_rejects_a_float32_overflow():
    """The rollout runs in float32: an emission mean past float32's range,
    which float64 holds, is a non-finite forecast."""
    model = make_model(seed=16)
    model.params["dec1.w"].value[:] = 0.0
    model.params["dec1.b"].value[:] = 1.0  # the second hidden layer is all ones
    model.params["dec2.w"].value[:, :3] = 3e38  # so each mean is about 32 * 3e38
    em = model.emit(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 4))))
    assert np.isfinite(em.mean.value).all() and em.mean.value.min() > 3.5e38
    belief = belief_init(model, np.zeros((2, 3)))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="^generate: non-finite"):
        generate(model, belief, 3, np.random.default_rng(0))


def test_generate_returns_float64_and_leaves_the_belief_be():
    model = make_model(seed=16)
    belief = belief_init(model, np.random.default_rng(4).normal(size=(2, 3)))
    arrays = [t.value.copy() for t in (belief.expected_h, *belief.collapsed)]
    out = generate(model, belief, 6, np.random.default_rng(11))
    assert out.dtype == np.float64 and out.shape == (2, 6, 3)
    for t, kept in zip((belief.expected_h, *belief.collapsed), arrays):
        assert t.value.dtype == np.float64
        np.testing.assert_array_equal(t.value, kept)


def test_generate_deterministic_given_seed():
    model = make_model(seed=16)
    belief = belief_init(model, np.random.default_rng(4).normal(size=(2, 3)))
    a = generate(model, belief, 6, np.random.default_rng(11))
    b = generate(model, belief, 6, np.random.default_rng(11))
    np.testing.assert_array_equal(a, b)


def test_generate_emits_with_pre_update_recurrent_state():
    """Manual rollout, in float32 as ``generate`` runs it: each emission
    conditions on the state from before the cell absorbs the step's latent."""
    model = make_model(seed=25)
    belief = belief_init(model, np.random.default_rng(6).normal(size=(1, 3)))
    horizon = 4
    got = generate(model, belief, horizon, np.random.default_rng(33))

    rng = np.random.default_rng(33)
    model32 = model.float32_copy()

    def draw(g, d):
        mean, std = (t.value.astype(np.float32) for t in g)
        return mean + std * rng.standard_normal((1, d), dtype=np.float32)

    z = draw(belief.collapsed, 2)
    h = model32.gru_advance(Tensor(z), Tensor(np.zeros((1, 4), np.float32))).value
    want = np.empty((1, horizon, 3))
    for t in range(horizon):
        z = draw(model32.transition_prior(Tensor(h)), 2)
        want[:, t] = draw(model32.emit(Tensor(z), Tensor(h)), 3)  # h not yet advanced by z
        h = model32.gru_advance(Tensor(z), Tensor(h)).value
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_generate_advances_the_cell_once_per_step(monkeypatch):
    """The latent drawn at the last step is emitted but never absorbed: a
    horizon-H forecast makes H GRU calls, not H + 1.  ``generate`` runs a
    float32 copy of the model, so the spy sits on the class."""
    model = make_model(seed=16)
    belief = belief_init(model, np.random.default_rng(4).normal(size=(2, 3)))
    calls = []
    real = VdmModel.gru_advance

    def counted(self, z, h):
        calls.append(1)
        return real(self, z, h)

    monkeypatch.setattr(VdmModel, "gru_advance", counted)
    generate(model, belief, 6, np.random.default_rng(11))
    assert len(calls) == 6


def test_generate_small_emission_noise_leaves_only_latent_variability():
    """With the emission spread clamped to its floor, forecasts reproduce the
    emission means; remaining seed-to-seed variability is the latent path."""
    model = make_model(seed=26)
    model.params["dec2.b"].value[3:] = -50.0  # raw std clamps to -10
    belief = belief_init(model, np.zeros((1, 3)))
    a = generate(model, belief, 5, np.random.default_rng(1))
    b = generate(model, belief, 5, np.random.default_rng(2))
    assert np.abs(a - b).max() > 1e-3  # latent sampling still moves forecasts
    # reproducibility is untouched
    np.testing.assert_array_equal(a, generate(model, belief, 5, np.random.default_rng(1)))


# ---------------------------------------------------------------------------
# one-step predictive
# ---------------------------------------------------------------------------

def predictive_components(model, belief):
    """(B, m, d_x) means and stds of the one-step predictive's components,
    built by hand: noise-free sigma points (the posterior mean alone under
    monte_carlo), then the GRU, the transition prior and the emission at the
    prior mean."""
    cfg = model.config
    mean, std = belief.collapsed.mean.value, belief.collapsed.std.value
    if cfg.sampler_mode == "sca":
        xi, _ = sigma_points(cfg.d_z, cfg.kappa)
    else:
        xi = np.zeros((1, cfg.d_z))
    b, m = mean.shape[0], xi.shape[0]
    z = (mean[:, None, :] + std[:, None, :] * xi[None]).reshape(b * m, cfg.d_z)
    s = model.gru_advance(Tensor(z), Tensor(np.repeat(belief.expected_h.value, m, axis=0)))
    em = model.emit(model.transition_prior(s).mean, s)
    return em.mean.value.reshape(b, m, -1), em.std.value.reshape(b, m, -1)


def scipy_predictive(model, belief, x):
    """(B,) log of the equal-weight mean of the component densities, by scipy."""
    from scipy import stats
    from scipy.special import logsumexp

    means, stds = predictive_components(model, belief)
    comp = stats.norm.logpdf(x[:, None, :], loc=means, scale=stds).sum(axis=2)
    return logsumexp(comp, axis=1) - np.log(means.shape[1])


def repeat_belief(belief, n):
    """``belief`` (B = 1) repeated over n rows."""
    def rep(t):
        return Tensor(np.repeat(t.value, n, axis=0))

    c = belief.collapsed
    return MixtureBelief(rep(belief.expected_h), Gaussian(rep(c.mean), rep(c.std)))


def test_one_step_predictive_k1_single_gaussian():
    from scipy import stats

    model = make_model(k=1, sampler_mode="monte_carlo", seed=17)
    belief = belief_init(model, np.zeros((1, 3)))
    means, stds = predictive_components(model, belief)
    assert means.shape[1] == 1
    x = np.random.default_rng(17).normal(size=(1, 3))
    want = stats.norm.logpdf(x[0], loc=means[0, 0], scale=stds[0, 0]).sum()
    np.testing.assert_allclose(one_step_predictive(model, belief, x), [want], rtol=1e-10)


def test_one_step_predictive_density_integrates_to_one():
    """Trapezoid quadrature over a wide 1-d observation grid."""
    cfg = ModelConfig(d_x=1, d_z=2, d_h=4, k=5)
    model = VdmModel.initialize(cfg, np.random.default_rng(18))
    belief = belief_init(model, np.array([[0.3]]))
    belief, _ = belief_step(model, belief, np.array([[0.1]]), np.random.default_rng(3))
    means, stds = predictive_components(model, belief)
    lo = float((means - 12 * stds).min())
    hi = float((means + 12 * stds).max())
    grid = np.linspace(lo, hi, 20001)
    dens = np.exp(one_step_predictive(model, repeat_belief(belief, grid.size), grid[:, None]))
    integral = np.trapezoid(dens, grid)
    assert abs(integral - 1.0) < 1e-3


def test_one_step_predictive_mode_beats_tail():
    model = make_model(seed=19)
    belief = belief_init(model, np.zeros((1, 3)))
    means, stds = predictive_components(model, belief)
    center = one_step_predictive(model, belief, means[0, 0][None, :])
    tail = one_step_predictive(model, belief, (means[0, 0] + 100 * stds[0, 0])[None, :])
    assert center > tail


def test_one_step_predictive_component_count_matches_k(monkeypatch):
    """Under sca the mixture has k = 2 d_z + 1 components, one per branch: the
    GRU runs on B k rows, and the density is the mean over exactly k of them."""
    model = make_model(k=5, seed=20)
    belief = belief_init(model, np.zeros((2, 3)))
    x = np.random.default_rng(20).normal(size=(2, 3))
    means, _ = predictive_components(model, belief)
    assert means.shape[1] == model.config.k
    rows = []
    real = model.gru_advance

    def counted(z, h):
        rows.append(z.shape[0])
        return real(z, h)

    monkeypatch.setattr(model, "gru_advance", counted)
    got = one_step_predictive(model, belief, x)
    assert rows == [2 * model.config.k]
    np.testing.assert_allclose(got, scipy_predictive(model, belief, x), rtol=1e-10)


def test_predictive_mixture_density_matches_scipy():
    rng = np.random.default_rng(21)
    model = make_model(seed=21)
    belief = belief_init(model, rng.normal(size=(2, 3)))
    belief, _ = belief_step(model, belief, rng.normal(size=(2, 3)), np.random.default_rng(0))
    x = rng.normal(size=(2, 3))
    got = one_step_predictive(model, belief, x)
    assert got.shape == (2,)
    np.testing.assert_allclose(got, scipy_predictive(model, belief, x), rtol=1e-10)


def test_one_step_predictive_rejects_a_non_finite_log_density():
    """The branch emission feeds no network inside ``one_step_predictive``,
    and ``one_step_nll`` on T = 2 sequences runs no belief step before it,
    so the log density is checked before it leaves."""
    model = make_model(seed=26)
    belief = belief_init(model, np.zeros((2, 3)))
    model.params["dec2.b"].value[:] = np.nan
    with pytest.raises(NonFiniteError, match="^one_step_predictive: non-finite log density$"):
        one_step_predictive(model, belief, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# predictive-prior export
# ---------------------------------------------------------------------------

def test_export_prior_k1_draws_from_single_gaussian():
    model = make_model(k=1, sampler_mode="monte_carlo", seed=22)
    x = np.zeros((1, 2, 3))
    draws = export_predictive_prior(model, x, n_draws=50000, rng=np.random.default_rng(1))
    # the export's filtering step takes the first draws of the same rng
    belief = belief_init(model, x[:, 0])
    _, info = belief_step(model, belief, x[:, 1], np.random.default_rng(1))
    prior = model.transition_prior(info.branch_states_flat)
    got_mean = draws[-1].mean(axis=0)
    want_mean = prior.mean.value[0]
    stderr = prior.std.value[0] / np.sqrt(50000)
    assert np.all(np.abs(got_mean - want_mean) < 4 * stderr)


def test_export_prior_draw_count_and_steps():
    model = make_model(seed=23)
    draws = export_predictive_prior(model, np.zeros((1, 3, 3)), n_draws=17,
                                    rng=np.random.default_rng(2))
    assert len(draws) == 3
    assert all(d.shape == (17, 2) for d in draws)


@pytest.mark.parametrize("sampler,weighting", [("sca", "delta"), ("monte_carlo", "categorical")])
def test_export_prior_matches_recomputed_branch_priors(sampler, weighting):
    """The export reuses the branch priors of each belief step; running the
    transition network again on the branch states gives the same bytes."""
    model = make_model(sampler_mode=sampler, weighting_mode=weighting, seed=25)
    x = np.random.default_rng(3).normal(size=(1, 4, 3))
    got = export_predictive_prior(model, x, n_draws=40, rng=np.random.default_rng(4))
    want = reference_export_prior(model, x, 40, np.random.default_rng(4))
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_export_prior_needs_a_draw_count_and_an_rng():
    """No unseeded fallback: the same seed must give the same draws."""
    model = make_model(seed=23)
    x = np.zeros((1, 2, 3))
    with pytest.raises(TypeError):
        export_predictive_prior(model, x)
    with pytest.raises(TypeError):
        export_predictive_prior(model, x, 5)


def test_export_prior_rejects_batches():
    model = make_model(seed=24)
    with pytest.raises(ValueError, match="single-trajectory"):
        export_predictive_prior(model, np.zeros((2, 2, 3)), n_draws=3,
                                rng=np.random.default_rng(1))


def test_export_prior_rejects_a_non_finite_draw():
    """Step 0's prior sits at h_0 = 0 and feeds no network, so with a single
    observation the draws themselves are all that is checked."""
    model = make_model(seed=24)
    model.params["tra2.b"].value[:] = np.inf
    with pytest.raises(NonFiniteError, match="^export_predictive_prior: non-finite prior draw$"):
        export_predictive_prior(model, np.zeros((1, 1, 3)), n_draws=3,
                                rng=np.random.default_rng(1))

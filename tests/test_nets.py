"""Network contracts: zero-weight smoke values, shapes, gradients, GRU gates."""
import functools

import numpy as np
import pytest

from vdm.autodiff import Tape, Tensor, backward
from vdm.nets import ModelConfig, VdmModel

from helpers import (
    add,
    finite_diff_array,
    finite_diff_store,
    parameter_counts,
    reduce_sum,
    rel_error,
    square,
)


def make_model(d_x=3, d_z=2, d_h=4, k=5, seed=0, **kw):
    cfg = ModelConfig(d_x=d_x, d_z=d_z, d_h=d_h, k=k, **kw)
    return VdmModel.initialize(cfg, np.random.default_rng(seed))


def zero_all(store):
    for t in store.values():
        t.value[...] = 0.0


def test_config_validation():
    with pytest.raises(ValueError, match="k = 2\\*d_z\\+1"):
        ModelConfig(d_x=2, d_z=3, d_h=4, k=5, sampler_mode="sca")
    with pytest.raises(ValueError, match="monte_carlo"):
        ModelConfig(d_x=2, d_z=2, d_h=4, k=1, sampler_mode="sca")
    with pytest.raises(ValueError, match="weighting_mode"):
        ModelConfig(d_x=2, d_z=2, d_h=4, k=5, weighting_mode="softmax")
    cfg = ModelConfig(d_x=2, d_z=2, d_h=4, k=1, sampler_mode="monte_carlo")
    assert cfg.k == 1


@pytest.mark.parametrize("name", ["d_x", "d_z", "d_h", "k"])
@pytest.mark.parametrize("value", [4.0, True, np.int64(4), "4", 0])
def test_config_dimensions_must_be_positive_ints(name, value):
    """A float, a bool, a numpy integer or a string dimension is rejected like
    a non-positive one; a float used to pass and fail later in a network."""
    dims = dict(d_x=2, d_z=2, d_h=4, k=5, sampler_mode="monte_carlo")
    dims[name] = value
    with pytest.raises(ValueError, match=f"^ModelConfig: {name} must be a positive integer$"):
        ModelConfig(**dims)


@pytest.mark.parametrize("name", ["kappa", "omega1", "omega2", "lr"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), True])
def test_config_real_settings_must_be_finite_numbers(name, value):
    """A NaN passes a range check and a bool counts as a number, so both were
    accepted and surfaced later, as a divergence or as a weight of 1."""
    settings = dict(d_x=2, d_z=2, d_h=4, k=5)
    settings[name] = value
    with pytest.raises(ValueError, match=f"^ModelConfig: {name} must be a finite number$"):
        ModelConfig(**settings)


def test_encoder_zero_final_layer_standard_normal():
    model = make_model()
    model.params["enc2.w"].value[...] = 0.0
    model.params["enc2.b"].value[...] = 0.0
    g = model.encode_initial(np.array([[0.7, -2.0, 3.3]]))
    np.testing.assert_array_equal(g.mean.value, np.zeros((1, 2)))
    np.testing.assert_array_equal(g.std.value, np.ones((1, 2)))


@pytest.mark.parametrize("d_z", [4, 6, 8])
def test_encoder_output_dimension(d_z):
    model = make_model(d_z=d_z, k=2 * d_z + 1)
    g = model.encode_initial(np.zeros((1, 3)))
    assert g.mean.value.shape == (1, d_z)
    assert g.std.value.shape == (1, d_z)


def test_encoder_deterministic():
    model = make_model(seed=3)
    x = np.array([[0.1, 0.2, 0.3]])
    g1 = model.encode_initial(x)
    g2 = model.encode_initial(x)
    np.testing.assert_array_equal(g1.mean.value, g2.mean.value)
    np.testing.assert_array_equal(g1.std.value, g2.std.value)


def test_transition_zero_final_layer_standard_normal_prior():
    model = make_model()
    model.params["tra2.w"].value[...] = 0.0
    model.params["tra2.b"].value[...] = 0.0
    g = model.transition_prior(np.linspace(-1, 1, 4)[None, :])
    np.testing.assert_array_equal(g.mean.value, np.zeros((1, 2)))
    np.testing.assert_array_equal(g.std.value, np.ones((1, 2)))


def test_transition_gradient_wrt_input():
    model = make_model(seed=5)
    h0 = np.random.default_rng(1).uniform(-1, 1, size=(1, 4))

    def loss_value():
        g = model.transition_prior(Tensor(h0))
        return float(reduce_sum(add(g.mean, g.std)).value)

    store = {}
    hp = store["h"] = Tensor(h0, requires_grad=True)
    with Tape() as tape:
        g = model.transition_prior(hp)
        backward(tape, reduce_sum(add(g.mean, g.std)))
    fd = finite_diff_array(h0, loss_value)
    assert rel_error(hp.grad, fd) < 1e-4


def test_lorenz_configuration_dimensions():
    cfg = ModelConfig(d_x=3, d_z=6, d_h=32, k=13)
    model = VdmModel.initialize(cfg, np.random.default_rng(0))
    g = model.transition_prior(np.zeros((1, 32)))
    assert g.mean.value.shape == (1, 6)


def test_gru_all_zero_weights_zero_state():
    model = make_model()
    zero_all(model.params)
    out = model.gru_advance(np.zeros((1, 2)), np.zeros((1, 4)))
    np.testing.assert_array_equal(out.value, np.zeros((1, 4)))


def test_gru_update_gate_saturation_carries_state_through():
    model = make_model(seed=7)
    model.params["gru.bu"].value[...] = 50.0  # update gate ~ 1
    h_prev = np.array([[0.3, -0.7, 0.2, 0.9]])
    out = model.gru_advance(np.array([[1.0, -1.0]]), h_prev)
    np.testing.assert_allclose(out.value, h_prev, atol=1e-12)


def test_gru_advance_serves_each_state_row_to_k_inputs():
    """Each state row serves its k consecutive latents, bit for bit as the
    repeated state would; latent rows that are no whole multiple of the
    state rows raise ValueError naming the cell."""
    model = make_model(seed=7)
    rng = np.random.default_rng(3)
    z, h = rng.normal(size=(6, 2)), rng.normal(size=(2, 4))
    np.testing.assert_array_equal(
        model.gru_advance(z, h).value, model.gru_advance(z, np.repeat(h, 3, axis=0)).value
    )
    with pytest.raises(ValueError, match="^gru_cell: 10 input rows"):
        model.gru_advance(np.zeros((10, 2)), np.zeros((4, 4)))


def test_gru_shared_between_generation_and_inference():
    """The inference-side recurrent sample uses the generative cell parameters."""
    from vdm.inference import belief_init, belief_step, latent_sample_batch

    model = make_model(seed=9)
    belief = belief_init(model, np.array([[0.1, 0.2, -0.1]]))
    _, info = belief_step(model, belief, np.array([[0.4, -0.2, 0.0]]),
                          np.random.default_rng(11))
    # belief_step's first draw: the same seed gives the same latents
    z = latent_sample_batch(belief.collapsed, model.config, np.random.default_rng(11))
    z = z.value  # (k, d_z): the k latents of the one row
    manual = model.gru_advance(Tensor(z), Tensor(np.zeros((z.shape[0], 4))))
    np.testing.assert_allclose(info.branch_states_flat.value, manual.value, rtol=1e-12)


def test_emit_zero_final_layer():
    model = make_model()
    model.params["dec2.w"].value[...] = 0.0
    model.params["dec2.b"].value[...] = 0.0
    g = model.emit(np.ones((1, 2)), np.ones((1, 4)))
    np.testing.assert_array_equal(g.mean.value, np.zeros((1, 3)))
    np.testing.assert_array_equal(g.std.value, np.ones((1, 3)))


def test_emit_taxi_dimensions():
    cfg = ModelConfig(d_x=2, d_z=6, d_h=32, k=13)
    model = VdmModel.initialize(cfg, np.random.default_rng(1))
    g = model.emit(np.zeros((1, 6)), np.zeros((1, 32)))
    assert g.mean.value.shape == (1, 2)


def test_infer_component_identical_inputs_identical_components():
    model = make_model(seed=13)
    s = np.full((5, 4), 0.25)
    x = np.tile(np.array([0.5, -0.5, 1.0]), (5, 1))
    g = model.infer_component(Tensor(s), Tensor(x))
    for i in range(1, 5):
        np.testing.assert_array_equal(g.mean.value[i], g.mean.value[0])
        np.testing.assert_array_equal(g.std.value[i], g.std.value[0])


def test_infer_component_zero_final_layer():
    model = make_model()
    model.params["inf2.w"].value[...] = 0.0
    model.params["inf2.b"].value[...] = 0.0
    g = model.infer_component(np.ones((1, 4)), np.ones((1, 3)))
    np.testing.assert_array_equal(g.mean.value, np.zeros((1, 2)))
    np.testing.assert_array_equal(g.std.value, np.ones((1, 2)))


def test_infer_component_gradient_wrt_both_inputs():
    model = make_model(seed=15)
    rng = np.random.default_rng(3)
    s0 = rng.uniform(-1, 1, size=(1, 4))
    x0 = rng.uniform(-1, 1, size=(1, 3))

    store = {}
    sp = store["s"] = Tensor(s0.copy(), requires_grad=True)
    xp = store["x"] = Tensor(x0.copy(), requires_grad=True)

    def loss_value():
        g = model.infer_component(Tensor(store["s"].value), Tensor(store["x"].value))
        return float(reduce_sum(add(g.mean, g.std)).value)

    with Tape() as tape:
        g = model.infer_component(sp, xp)
        backward(tape, reduce_sum(add(g.mean, g.std)))
    fd = finite_diff_store(store, loss_value)
    assert rel_error(sp.grad, fd["s"]) < 1e-4
    assert rel_error(xp.grad, fd["x"]) < 1e-4


def test_discriminator_zero_output_layer_gives_half():
    model = make_model()
    model.disc["mlp2.w"].value[...] = 0.0
    model.disc["mlp2.b"].value[...] = 0.0
    p = model.discriminate(np.ones((1, 4)), np.ones((1, 3)))
    np.testing.assert_array_equal(p.value, [[0.5]])


def test_discriminator_output_strictly_inside_unit_interval():
    model = make_model(seed=21)
    rng = np.random.default_rng(8)
    for _ in range(20):
        p = model.discriminate(rng.uniform(-50, 50, (1, 4)), rng.uniform(-50, 50, (1, 3)))
        assert 0.0 < p.value[0, 0] < 1.0


def test_discriminator_parameters_disjoint_from_model():
    model = make_model()
    model_ids = {id(t.value) for t in model.params.values()}
    disc_ids = {id(t.value) for t in model.disc.values()}
    assert not model_ids & disc_ids
    assert "gru.wr" in model.disc  # own summarizer cell


def test_parameter_names_distinct_in_each_store():
    """``parameter_shapes`` is the only source of parameter names, and a store
    is a dict, so a repeated name would silently replace a parameter."""
    for cfg in (ModelConfig(d_x=3, d_z=6, d_h=32, k=13), ModelConfig(d_x=1, d_z=1, d_h=1, k=3)):
        for store, shapes in VdmModel.parameter_shapes(cfg).items():
            names = [name for name, _ in shapes]
            assert len(set(names)) == len(names), store


def test_all_zero_parameters_smoke():
    """With every weight zero each net emits N(0, I) and the discriminator 0.5."""
    model = make_model()
    zero_all(model.params)
    zero_all(model.disc)
    x = np.array([[1.0, 2.0, 3.0]])
    for g in (
        model.encode_initial(x),
        model.transition_prior(np.ones((1, 4))),
        model.emit(np.ones((1, 2)), np.ones((1, 4))),
        model.infer_component(np.ones((1, 4)), x),
    ):
        np.testing.assert_array_equal(g.mean.value, np.zeros_like(g.mean.value))
        np.testing.assert_array_equal(g.std.value, np.ones_like(g.std.value))
    np.testing.assert_array_equal(model.discriminate(np.ones((1, 4)), x).value, [[0.5]])


def test_std_strictly_positive_everywhere():
    rng = np.random.default_rng(31)
    model = make_model(seed=31)
    for _ in range(20):
        g = model.infer_component(rng.uniform(-30, 30, (1, 4)), rng.uniform(-30, 30, (1, 3)))
        assert np.all(g.std.value > 0)


def test_head_std_stays_within_the_clamp():
    """Raw log stds driven far past the clamp give stds of exactly e^-10 and
    e^10 at every head: positive and finite by construction."""
    model = make_model(seed=32)
    x, z, h = np.ones((1, 3)), np.ones((1, 2)), np.ones((1, 4))
    heads = {
        "enc": lambda: model.encode_initial(x),
        "tra": lambda: model.transition_prior(h),
        "dec": lambda: model.emit(z, h),
        "inf": lambda: model.infer_component(h, x),
    }
    for prefix, head in heads.items():
        bias = model.params[f"{prefix}2.b"].value
        d = len(bias) // 2
        high = np.arange(d) % 2 == 1
        bias[d:] = np.where(high, 1e6, -1e6)
        np.testing.assert_array_equal(head().std.value[0], np.exp(np.where(high, 10.0, -10.0)))


def test_parameter_counts_stable_and_match_init():
    for cfg in (
        ModelConfig(d_x=3, d_z=6, d_h=32, k=13),
        ModelConfig(d_x=2, d_z=6, d_h=32, k=13),
        ModelConfig(d_x=12, d_z=8, d_h=48, k=17),
    ):
        want_model, want_disc = parameter_counts(cfg)
        for seed in (0, 1):
            model = VdmModel.initialize(cfg, np.random.default_rng(seed))
            assert sum(t.value.size for t in model.params.values()) == want_model
            assert sum(t.value.size for t in model.disc.values()) == want_disc


def test_nonfinite_input_rejected():
    model = make_model()
    with pytest.raises(ValueError, match="non-finite"):
        model.encode_initial(np.array([[np.nan, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        model.gru_advance(np.array([[np.inf, 0.0]]), np.zeros((1, 4)))


# trailing dimension of each argument under make_model's d_x=3, d_z=2, d_h=4
NETWORK_INPUT_DIMS = {
    "encode_initial": (3,),
    "transition_prior": (4,),
    "gru_advance": (2, 4),
    "emit": (2, 4),
    "infer_component": (4, 3),
    "disc_step": (3, 4),
    "discriminate": (4, 3),
}


@pytest.mark.parametrize("method", sorted(NETWORK_INPUT_DIMS))
def test_network_rejects_a_lower_rank_input(method):
    """Every network takes (B, d) batches: a single vector in any argument
    position raises ValueError naming the network, and the (1, d) batch of
    the same values is accepted."""
    model = make_model()
    dims = NETWORK_INPUT_DIMS[method]
    getattr(model, method)(*[np.zeros((1, d)) for d in dims])
    for pos, dim in enumerate(dims):
        args = [np.zeros((1, d)) for d in dims]
        args[pos] = np.zeros(dim)
        with pytest.raises(ValueError, match=rf"^{method}: expected a \(B, {dim}\) batch"):
            getattr(model, method)(*args)


@pytest.mark.parametrize("seed", range(5))
def test_every_network_parameter_gradient(seed):
    """FD spot checks across all model parameters through a combined net loss."""
    from helpers import entry_grads, finite_diff_entries, sample_entries

    model = make_model(seed=seed)
    rng = np.random.default_rng(seed + 100)
    x = rng.uniform(-1, 1, size=(2, 3))
    z = rng.uniform(-1, 1, size=(2, 2))
    h = rng.uniform(-1, 1, size=(2, 4))

    def forward():
        enc = model.encode_initial(Tensor(x))
        tra = model.transition_prior(Tensor(h))
        s = model.gru_advance(Tensor(z), Tensor(h))
        em = model.emit(Tensor(z), s)
        inf = model.infer_component(s, Tensor(x))
        parts = [enc.mean, enc.std, tra.mean, tra.std, em.mean, em.std, inf.mean, inf.std]
        return functools.reduce(add, [reduce_sum(square(p)) for p in parts])

    def loss_value():
        with Tape.pause():
            return float(forward().value)

    with Tape() as tape:
        backward(tape, forward())
    entries = sample_entries(model.params, 4, rng)
    fd = finite_diff_entries(model.params, loss_value, entries)
    assert rel_error(entry_grads(model.params, entries), fd) < 1e-4

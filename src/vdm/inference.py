"""The filtering recursion: mixture beliefs, weighting, forecasting.

All public entry points accept batched observations with a leading batch
axis; a single trajectory is the B = 1 case.  The recursion alternates:
sample latents from the previous collapsed posterior, push each through the
recurrent cell, select one branch from the branch likelihoods, build the
mixture component of the selected branch from the new observation, and carry
that component plus the expected recurrent state forward.  The weighting is
one-hot, so the components of the other branches would enter with weight
zero; they are never built.  The sampler draws each row's k latents as
noise-infused cubature sigma points (``sca``, k = 2d+1), which stay anchored
to their region of the distribution, or as k i.i.d. draws (``monte_carlo``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .nets import Gaussian
from .util import NonFiniteError

__all__ = [
    "MixtureBelief",
    "StepInfo",
    "sigma_points",
    "latent_sample_batch",
    "select_branch",
    "belief_init",
    "belief_step",
    "filter_sequence",
    "generate",
    "one_step_predictive",
    "export_predictive_prior",
]


@dataclass
class MixtureBelief:
    """Filtering state after absorbing one observation: what the next step,
    ``generate`` and ``one_step_predictive`` read.

    expected_h: (B, d_h) the selected branch state
    collapsed:  (B, d_z) single Gaussian carried to the next step
    """

    expected_h: Tensor
    collapsed: Gaussian

    @property
    def batch(self):
        return self.expected_h.shape[0]


@dataclass
class StepInfo:
    """A belief step's branch quantities; its selected state and component are the belief's."""

    branch_states_flat: Tensor  # (B*k, d_h)
    prior_flat: Gaussian       # (B*k, d_z) transition priors at each branch
    branch_loglik: Tensor      # (B*k,) log p(x_t | h_{t-1} = s^{(j)})
    branch: np.ndarray         # (B,) int index of the selected branch
    prior: Gaussian            # (B, d_z) the selected branch's transition prior


def _as_batch_array(x, dim, name, batch=None):
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"{name}: expected (B, {dim}) observations, got {arr.shape}")
    if batch is not None and arr.shape[0] != batch:
        raise ValueError(f"{name}: the belief has batch size {batch}, x has {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: non-finite observation")
    return arr


def _branches(model, z_flat, h, x, k):
    """The k branches of each of B rows, as k consecutive rows: the (B*k,
    d_h) states the recurrent cell reaches from the (B, d_h) state ``h`` with
    the (B*k, d_z) latents ``z_flat``, their differentiable log p(x_t |
    h_{t-1} = s) and their transition priors.

    The latent is resolved at the transition prior's mean, so the branch
    likelihood is deterministic and draws nothing from the rng.
    """
    s_flat = model.gru_advance(z_flat, h)
    prior_flat = model.transition_prior(s_flat)
    em = model.emit(prior_flat.mean, s_flat)
    return s_flat, ad.gaussian_log_pdf(Tensor(np.repeat(x, k, axis=0)), em.mean, em.std), prior_flat


def select_branch(loglik, mode, rng=None):
    """(B,) int indices of the selected branches from (B, k) log-likelihoods.

    delta: the argmax (lowest index wins ties).  categorical: an index drawn
    with probability proportional to likelihood.  Both are one-hot
    weightings, so ``belief_step`` builds only the selected branch's
    component; a soft weighting would need all k components back.
    """
    ll = np.asarray(loglik, dtype=np.float64)
    if ll.ndim != 2:
        raise ValueError(f"select_branch: expected (B, k) log-likelihoods, got {ll.shape}")
    if np.any(np.isnan(ll)) or np.any(np.all(np.isneginf(ll), axis=1)):
        raise FloatingPointError("select_branch: degenerate branch likelihoods")
    b, k = ll.shape
    if mode == "delta":
        idx = np.argmax(ll, axis=1)
    elif mode == "categorical":
        if rng is None:
            raise ValueError("select_branch: categorical mode needs an rng")
        shifted = ll - ll.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        u = rng.random((b, 1))
        idx = (u > np.cumsum(probs, axis=1)).sum(axis=1)
        idx = np.minimum(idx, k - 1)
    else:
        raise ValueError(f"select_branch: unknown mode {mode!r}")
    return idx


def belief_init(model, x_first):
    """Single-component belief from the initial-observation encoder; h_0 = 0."""
    x = _as_batch_array(x_first, model.config.d_x, "belief_init")
    h0 = Tensor(np.zeros((x.shape[0], model.config.d_h)))
    return MixtureBelief(expected_h=h0, collapsed=model.encode_initial(Tensor(x)))


def belief_step(model, belief, x, rng):
    """Advance the belief by one observation; returns the new belief and
    the intermediate quantities the training losses reuse."""
    cfg = model.config
    x_arr = _as_batch_array(x, cfg.d_x, "belief_step", belief.batch)
    b = x_arr.shape[0]
    k = cfg.k

    z_flat = latent_sample_batch(belief.collapsed, cfg, rng)
    s_flat, loglik, prior_flat = _branches(model, z_flat, belief.expected_h, x_arr, k)
    branch = select_branch(loglik.value.reshape(b, k), cfg.weighting_mode, rng)
    # gather the selected branch, then build its component alone, on B rows
    # instead of B*k
    rows = np.arange(b) * k + branch
    state, pm, ps = ad.take_rows(rows, (s_flat, prior_flat.mean, prior_flat.std))
    q = model.infer_component(state, Tensor(x_arr))                # (B, d_z)
    info = StepInfo(s_flat, prior_flat, loglik, branch, Gaussian(pm, ps))
    return MixtureBelief(expected_h=state, collapsed=q), info


def filter_sequence(model, x_prefix, rng):
    """Run the recursion over x_{1:tau}; returns the final belief."""
    arr = np.asarray(x_prefix, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[1] < 1:
        raise ValueError(f"filter_sequence: expected (B, T>=1, d_x), got {arr.shape}")
    belief = belief_init(model, arr[:, 0])
    for t in range(1, arr.shape[1]):
        belief, _ = belief_step(model, belief, arr[:, t], rng)
    return belief


def _draw(g, rng):
    """One plain-array draw from the Gaussian ``g``, in float32."""
    mean, std = (t.value.astype(np.float32, copy=False) for t in g)
    return mean + std * rng.standard_normal(mean.shape, dtype=np.float32)


def generate(model, belief, horizon, rng):
    """Sample a (B, horizon, d_x) float64 continuation from the generative model.

    Runs tape-free and in float32: forecasts are never differentiated
    through, so the rollout runs the networks on float32 copies of the
    belief and of the weights, made per call, with float32 noise, and
    stores each step in the float64 output.  A non-finite forecast, a
    float32 overflow included, raises NonFiniteError.
    """
    if horizon < 1:
        raise ValueError("generate: horizon must be >= 1")
    cfg = model.config
    model32 = model.float32_copy()
    with Tape.pause():
        b = belief.batch
        z = Tensor(_draw(belief.collapsed, rng))
        h = Tensor(belief.expected_h.value.astype(np.float32, copy=False))
        out = np.empty((b, horizon, cfg.d_x))
        for t in range(horizon):
            # the cell absorbs the previous latent; the last step's latent is never absorbed
            h = model32.gru_advance(z, h)
            prior = model32.transition_prior(h)
            z = Tensor(_draw(prior, rng))
            em = model32.emit(z, h)
            out[:, t] = _draw(em, rng)
    if not np.isfinite(out).all():
        raise NonFiniteError("generate: non-finite forecast")
    return out


def sigma_points(d, kappa):
    """Abscissas and weights of the 2d+1 point cubature rule.

    gamma_0 = kappa/(d+kappa), the rest 1/(2(d+kappa)); xi_0 = 0 and
    xi_i = +-sqrt(d+kappa) e_i on the Cartesian unit basis.
    """
    if d < 1:
        raise ValueError("sigma_points: d must be >= 1")
    if kappa <= 0:
        raise ValueError("sigma_points: kappa must be positive")
    k = 2 * d + 1
    scale = np.sqrt(d + kappa)
    xi = np.zeros((k, d))
    xi[1 : d + 1] = scale * np.eye(d)
    xi[d + 1 :] = -scale * np.eye(d)
    gamma = np.full(k, 1.0 / (2.0 * (d + kappa)))
    gamma[0] = kappa / (d + kappa)
    return xi, gamma


def latent_sample_batch(g, config, rng):
    """Differentiable (B*k, d) draw from a batched Gaussian per the config's
    sampler: row i's k latents are rows i*k to i*k + k - 1.

    sca mode uses noise-infused sigma points (k = 2d+1); monte_carlo uses k
    i.i.d. reparameterized draws.  Gradients flow into mean and std; the
    offsets xi + eps are constants, drawn as one (B, k, d) array.
    """
    b, d = g.mean.shape
    k = config.k
    if config.sampler_mode == "sca":
        xi, _ = sigma_points(d, config.kappa)
        offset = xi[None, :, :] + rng.standard_normal((b, k, d))
    else:
        offset = rng.standard_normal((b, k, d))
    return ad.reparameterize(g.mean, g.std, offset.reshape(b * k, d))


def one_step_predictive(model, belief, x):
    """(B,) log densities of the next observations ``x``: the log of the mean
    branch likelihood, which the training loss takes as its predictive term.

    Draw-free: latents are the noise-free sigma points of the collapsed
    posterior (the posterior mean alone under monte_carlo sampling), and
    each branch resolves z at the transition prior's mean.  A non-finite
    log density raises NonFiniteError.
    """
    cfg = model.config
    x_arr = _as_batch_array(x, cfg.d_x, "one_step_predictive", belief.batch)
    with Tape.pause():
        q, m = belief.collapsed, 1
        z_flat = q.mean
        if cfg.sampler_mode == "sca":
            xi, _ = sigma_points(cfg.d_z, cfg.kappa)
            m = len(xi)
            z_flat = ad.reparameterize(q.mean, q.std, np.tile(xi, (belief.batch, 1)))
        _, loglik, _ = _branches(model, z_flat, belief.expected_h, x_arr, m)
        out = ad.log_mean_exp(loglik, m).value
    if not np.isfinite(out).all():
        raise NonFiniteError("one_step_predictive: non-finite log density")
    return out


def export_predictive_prior(model, x_prefix, n_draws, rng):
    """Per-step latent draws from the equal-weight mixture of branch priors.

    Filters a single (1, P, d_x) prefix and returns one (n_draws, d_z) array
    per step, suitable for external density plotting.  Step 0's prior sits
    at h_0 = 0; each later step's are the branch priors its belief step
    computed.  All filtering draws come from ``rng`` before the export draws.
    A non-finite draw raises NonFiniteError.
    """
    arr = np.asarray(x_prefix, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] != 1 or arr.shape[1] < 1:
        raise ValueError(
            f"export_predictive_prior: expects a single-trajectory (1, P>=1, d_x) prefix, "
            f"got {arr.shape}"
        )
    out = []
    with Tape.pause():
        belief = belief_init(model, arr[:, 0])
        priors = [model.transition_prior(belief.expected_h)]
        for t in range(1, arr.shape[1]):
            belief, info = belief_step(model, belief, arr[:, t], rng)
            priors.append(info.prior_flat)
        for prior in priors:
            k = prior.mean.shape[0]
            idx = rng.integers(0, k, size=n_draws)
            eps = rng.standard_normal((n_draws, model.config.d_z))
            out.append(prior.mean.value[idx] + prior.std.value[idx] * eps)
    if not all(np.isfinite(draws).all() for draws in out):
        raise NonFiniteError("export_predictive_prior: non-finite prior draw")
    return out

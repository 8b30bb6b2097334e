"""Training losses and the minibatch training loop.

Per step the loss combines the evidence bound of the filtering recursion, a
predictive-likelihood regularizer over the branch samples, and an optional
adversarial term driven by a conditional discriminator.  The minimized
objective is  total = -elbo - omega1 * pred + omega2 * adv, summed over steps
and averaged over the minibatch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import evaluation
from .autodiff import Tape, Tensor, backward
from .checkpoint import Checkpoint
from .data import Dataset
from .inference import belief_init, belief_step
from .nets import VdmModel
from .optim import AdamState, adam_step

__all__ = [
    "LossBreakdown",
    "adv_regularizer",
    "total_loss",
    "train",
    "TrainResult",
]

DISC_PROB_FLOOR = 1e-6


@dataclass
class LossBreakdown:
    """Scalar loss terms plus the per-step selected branches.

    Sign convention: ``total`` is the minimized quantity,
    total = -elbo - omega1 * pred + omega2 * adv.
    """

    elbo: float
    pred: float
    adv: float
    total: float
    step_branches: list = field(default_factory=list)  # one (B,) index array per step
    total_node: Tensor | None = None
    disc_loss: float = 0.0
    disc_node: Tensor | None = None


def _selected_elbo(model, x, state, qm, qs, pm, ps, eps, k):
    """Evidence bound of R selected rows, shape (R,), from their observations,
    branch states, component and transition-prior means and stds, and (R, d_z)
    reconstruction noise ``eps``.

    The active branch receives full weight (the weighting function evaluates
    to k at the selected index and 0 elsewhere, cancelling the 1/k front
    factor), and the weight normalization contributes the constant -log k.
    """
    z_tilde = ad.reparameterize(qm, qs, eps)
    em = model.emit(z_tilde, state)
    recon = ad.gaussian_log_pdf(Tensor(x), em.mean, em.std)
    kl = ad.gaussian_kl(qm, qs, pm, ps)
    return ad.select_bound(recon, kl, math.log(k))


def adv_regularizer(model, prefix_summary, x_real, x_gen):
    """Non-saturating conditional GAN losses, one per row, each shape (R,).

    generator: -log D(prefix, x_gen); discriminator: -log D(prefix, x_real)
    - log(1 - D(prefix, x_gen)) with the generated sample detached.  The
    generator reads the discriminator through detached weights and a detached
    prefix summary, so one backward sweep over the sum of both losses gives
    the model and the discriminator each only their own loss's gradient.
    """
    detached = {name: t.detach() for name, t in model.disc.params.items()}
    frozen = VdmModel(model.config, model.params, detached)
    d_gen = frozen.discriminate(prefix_summary.detach(), x_gen)
    d_real = model.discriminate(prefix_summary, Tensor(x_real))
    d_fake = model.discriminate(prefix_summary, x_gen.detach())
    return ad.gan_losses(d_gen, d_real, d_fake, DISC_PROB_FLOOR)


def _loss_heads(model, x, loglik, state, qm, qs, pm, ps, eps, *adv):
    """The (R,) bound and predictive terms of R selected rows, given their
    (R*k,) branch log-likelihoods and the bound's inputs; given ``adv`` =
    (prefix summary, picked branch state, latent and emission noise), also the
    generator and discriminator losses."""
    k = model.config.k
    elbo = _selected_elbo(model, x, state, qm, qs, pm, ps, eps, k)
    if not np.all(np.isfinite(elbo.value)):
        raise FloatingPointError("non-finite bound")
    # log of the mean branch predictive likelihood
    terms = [elbo, ad.log_mean_exp(loglik, k)]
    if adv:
        # one-step generative sample conditioned on x_{<t}
        h_disc, s_sel, eps_z, eps_x = adv
        prior = model.transition_prior(s_sel)
        z_gen = ad.reparameterize(prior.mean, prior.std, eps_z)
        em = model.emit(z_gen, s_sel)
        x_gen = ad.reparameterize(em.mean, em.std, eps_x)
        terms += adv_regularizer(model, h_disc, x, x_gen)
    return terms


def total_loss(model, batch, rng):
    """Loss breakdown for a (B, T, d_x) batch: the recursion and its random
    draws run step by step, then the loss heads run once on the selected rows
    of all steps, stacked step-major."""
    cfg = model.config
    arr = np.asarray(batch, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[1] < 2:
        raise ValueError(f"total_loss: expected (B, T, d_x) with length T >= 2, got {arr.shape}")
    b, t_len, _ = arr.shape

    belief = belief_init(model, arr[:, 0])
    use_adv = cfg.omega2 > 0.0
    if use_adv:
        h_disc = model.disc_initial_state(b)

    steps, branches = [], []  # per step: the rows _loss_heads reads, the branch
    try:
        for t in range(1, t_len):
            belief, info = belief_step(model, belief, arr[:, t], rng)
            recon_eps = rng.standard_normal((b * cfg.k, cfg.d_z))
            q = belief.collapsed
            row = [arr[:, t], info.branch_loglik, belief.expected_h, q.mean, q.std,
                   info.prior.mean, info.prior.std, recon_eps[np.arange(b) * cfg.k + info.branch]]
            if use_adv:
                # a uniformly chosen branch state (no reweighting by x_t leaks in)
                h_disc = model.disc_step(Tensor(arr[:, t - 1]), h_disc)
                pick = np.arange(b) * cfg.k + rng.integers(0, cfg.k, size=b)
                (s_sel,) = ad.take_rows(pick, (info.branch_states_flat,))
                row += [h_disc, s_sel, rng.standard_normal((b, cfg.d_z)),
                        rng.standard_normal((b, cfg.d_x))]
            steps.append(row)
            branches.append(info.branch)
        terms = _loss_heads(model, *ad.concat_rows(*zip(*steps)))
    except FloatingPointError as err:
        # a head row reads only its own step: the first step whose heads fail
        # on its own rows, else step t's belief step, is where the run diverged
        with Tape.pause():
            for s, row in enumerate(steps, start=1):
                try:
                    _loss_heads(model, *row)
                except FloatingPointError as head_err:
                    err, t = head_err, s
                    break
        raise FloatingPointError(f"total_loss: {err} at step {t}") from None

    # per-step batch means summed left to right over the steps
    sums = ad.sum_of_means(t_len - 1, *terms)
    coeffs = (-1.0, -cfg.omega1, cfg.omega2) if use_adv else (-1.0, -cfg.omega1)
    total = ad.linear_combination(coeffs, sums[: len(coeffs)])
    values = [float(s.value) for s in sums]
    breakdown = LossBreakdown(values[0], values[1], 0.0, float(total.value), branches, total)
    if use_adv:
        breakdown.adv, breakdown.disc_loss = values[2:]
        breakdown.disc_node = sums[3]
    if not math.isfinite(breakdown.total):
        raise FloatingPointError("total_loss: non-finite total")
    return breakdown


@dataclass
class TrainResult:
    checkpoint: object
    history: list
    aborted: bool = False


def train(
    dataset,
    config,
    rng,
    val_dataset=None,
    epochs=20,
    batch_size=64,
    patience=10,
    val_forecasts=100,
    verbose=False,
):
    """Minibatch Adam over the full objective with 1:1 discriminator updates.

    ``dataset`` and ``val_dataset`` are ``vdm.data.Dataset``s; validation
    scores the continuation after the training set's ``prefix_len``.
    Observations are standardized per dimension with training-set statistics
    (stored on the checkpoint); validation multi-step NLL is tracked per
    epoch and the best-validation parameters are retained.
    """
    if not isinstance(dataset, Dataset):
        raise ValueError(f"train: dataset must be a Dataset, got {type(dataset).__name__}")
    # checked by type: a bare array has a .data attribute too (a memoryview)
    if val_dataset is not None and not isinstance(val_dataset, Dataset):
        raise ValueError(
            f"train: val_dataset must be a Dataset, got {type(val_dataset).__name__}"
        )
    data, prefix_len = dataset.data, dataset.prefix_len
    if len(dataset) == 0:
        raise ValueError("train: the training set holds no sequences")
    for name, ds in (("dataset", dataset), ("val_dataset", val_dataset)):
        if ds is not None and ds.d_x != config.d_x:
            raise ValueError(f"train: {name} has d_x={ds.d_x}, the config d_x={config.d_x}")
    obs_mean = data.reshape(-1, data.shape[2]).mean(axis=0)
    obs_std = data.reshape(-1, data.shape[2]).std(axis=0)
    obs_std = np.where(obs_std < 1e-12, 1.0, obs_std)
    scaled = (data - obs_mean) / obs_std
    val_scaled = None
    if val_dataset is not None:
        val_arr = val_dataset.data
        if val_arr.shape[0] == 0:
            raise ValueError("train: the validation set holds no sequences")
        if val_arr.shape[1] <= prefix_len:
            raise ValueError("train: the validation set has no continuation to score")
        if not np.all(np.isfinite(val_arr)):
            raise ValueError("train: validation set holds a non-finite value")
        val_scaled = (val_arr - obs_mean) / obs_std

    model = VdmModel.initialize(config, rng)
    params_adam, disc_adam = AdamState(model.params), AdamState(model.disc)

    def _snapshot():
        return Checkpoint.from_stores(config, model.params, model.disc, obs_mean, obs_std)

    best = _snapshot()
    best_val = math.inf
    best_epoch = 0
    history = []
    aborted = False
    stale = 0
    n = scaled.shape[0]

    def _validate():
        if val_scaled is None:
            return math.nan
        val_rng = np.random.default_rng(12345)
        # looked up on the module, where perfbench's tracer wraps it
        return evaluation.dataset_multi_step_nll(
            model, val_scaled, prefix_len, val_forecasts, val_rng
        )

    for epoch in range(epochs):
        order = rng.permutation(n)
        epoch_terms = np.zeros(4)  # total, elbo, pred, adv
        batches = 0
        val_nll = math.nan
        try:
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                with Tape() as tape:
                    bd = total_loss(model, scaled[idx], rng)
                    root = bd.total_node
                    if bd.disc_node is not None:
                        root = ad.linear_combination((1.0, 1.0), (root, bd.disc_node))
                    backward(tape, root)
                adam_step(model.params, params_adam, lr=config.lr)
                if bd.disc_node is not None:
                    adam_step(model.disc, disc_adam, lr=config.lr)
                epoch_terms += (bd.total, bd.elbo, bd.pred, bd.adv)
                batches += 1
            val_nll = _validate()
        except FloatingPointError as err:
            # non-finite values anywhere in the pass, or in the validation
            # forecasts from the epoch's last parameters, mean the run diverged;
            # non-finite training or validation data is a ValueError and propagates
            if verbose:
                print(f"epoch {epoch}: aborted on divergence: {err}")
            aborted = True

        epoch_terms /= max(batches, 1)
        history.append(
            {
                "epoch": epoch,
                "total": epoch_terms[0],
                "elbo": epoch_terms[1],
                "pred": epoch_terms[2],
                "adv": epoch_terms[3],
                "val_nll": val_nll,
            }
        )
        if verbose:
            print(
                f"epoch {epoch}: total={epoch_terms[0]:.4f} elbo={epoch_terms[1]:.4f} "
                f"pred={epoch_terms[2]:.4f} adv={epoch_terms[3]:.4f} val_nll={val_nll:.4f}"
            )
        if aborted:
            break
        if not math.isnan(val_nll) and val_nll < best_val:
            best_val = val_nll
            best = _snapshot()
            best_epoch = epoch
            stale = 0
        elif math.isnan(val_nll):
            best = _snapshot()
            best_epoch = epoch
        else:
            stale += 1
            if stale >= patience:
                if verbose:
                    print(f"epoch {epoch}: early stop (patience {patience})")
                break

    best.provenance = {
        "epoch": best_epoch,
        "val_nll": None if math.isinf(best_val) or math.isnan(best_val) else best_val,
    }
    return TrainResult(checkpoint=best, history=history, aborted=aborted)

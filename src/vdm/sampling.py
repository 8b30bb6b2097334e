"""The cubature rule and the one latent sampler the filtering recursion uses.

The cubature rule places 2d+1 abscissas that match a standard Gaussian's
first two moments exactly.  ``latent_sample_batch`` draws k latents per row
of a batched Gaussian in one of two modes: ``sca`` infuses each sigma point
with standard normal noise, turning the points into stochastic sigma
variables that stay anchored to their region of the distribution;
``monte_carlo`` takes k i.i.d. reparameterized draws.
"""
from __future__ import annotations

import numpy as np

from . import autodiff as ad

__all__ = ["sigma_points", "latent_sample_batch"]


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

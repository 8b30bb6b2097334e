#!/usr/bin/env python3
# Sigma points and their stochastic counterpart.  The deterministic rule
# matches a Gaussian's first two moments with 2d+1 points; infusing each point
# with standard normal noise gives stochastic sigma variables that stay
# anchored to "their" region of the distribution across resamplings.  Both
# samplers are the modes of latent_sample_batch, the one the filter runs.

import numpy as np

from vdm.autodiff import Tensor
from vdm.nets import Gaussian, ModelConfig
from vdm.inference import latent_sample_batch, sigma_points

d, kappa = 3, 0.5
xi, gamma = sigma_points(d, kappa)

print(f"{2 * d + 1} points for d={d}, kappa={kappa}")
print("weights:", gamma)
print("sum gamma      :", gamma.sum())
print("sum gamma xi   :", gamma @ xi)
print("sum gamma xixiT:\n", np.einsum("i,ij,ik->jk", gamma, xi, xi))

# --- stochastic sigma variables ------------------------------------------
# a batch of one belief; the sampler returns (batch * k, d): row i's k
# latents are k consecutive rows, so one belief gives exactly its k samples
g = Gaussian(Tensor([[1.0, -2.0, 0.5]]), Tensor([[0.5, 1.0, 2.0]]))
sca_cfg = ModelConfig(d_x=1, d_z=d, d_h=1, k=2 * d + 1, kappa=kappa, sampler_mode="sca")
sca = latent_sample_batch(g, sca_cfg, np.random.default_rng(7)).value
print("\nnoise-infused samples (seed 7):\n", sca)

# persistence: the same seed reproduces the same samples from the same belief
again = latent_sample_batch(g, sca_cfg, np.random.default_rng(7)).value
print("persistent across resampling:", np.array_equal(sca, again))

# --- spread comparison against plain Monte Carlo -------------------------
# cubature anchors keep the k samples spread out even for small k
mc_cfg = ModelConfig(d_x=1, d_z=d, d_h=1, k=2 * d + 1, sampler_mode="monte_carlo")
mc = latent_sample_batch(g, mc_cfg, np.random.default_rng(0)).value
print("\nper-coordinate sample spread (std):")
print("  sca:", sca.std(axis=0))
print("  mc :", mc.std(axis=0))

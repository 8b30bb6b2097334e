"""Variational dynamic mixtures: multi-modal sequential latent-variable forecasting.

A sequential latent-variable model whose inference recursion pushes multiple
cubature samples through a shared recurrent cell, forming a mixture-of-
Gaussians posterior per step.  Training maximizes a per-step evidence bound
with predictive and adversarial regularizers; evaluation covers sample NLL
and the empirical Wasserstein distance between forecast and truth sets.

The top level holds the names the README quick start uses; everything else
is imported from its submodule (``vdm.inference``, ``vdm.checkpoint``, ...).
"""
from .data import LorenzConfig, simulate_lorenz
from .evaluation import dataset_multi_step_nll
from .nets import ModelConfig
from .objective import train

__version__ = "0.1.0"

__all__ = ["LorenzConfig", "ModelConfig", "simulate_lorenz", "train", "dataset_multi_step_nll"]

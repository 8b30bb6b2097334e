"""Diagonal Gaussians: the building block of every distribution in the model."""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import LOG_2PI, as_tensor
from .util import NonFiniteError

__all__ = ["LOG_2PI", "DiagGaussian", "gaussian_log_pdf", "gaussian_kl"]


class DiagGaussian:
    """Mean/std pair over the last axis; std must be strictly positive."""

    __slots__ = ("mean", "std")

    def __init__(self, mean, std):
        self.mean = as_tensor(mean)
        self.std = as_tensor(std)
        if self.mean.shape != self.std.shape:
            raise ValueError(
                f"DiagGaussian: mean shape {self.mean.shape} != std shape {self.std.shape}"
            )
        if not (np.isfinite(self.mean.value).all() and np.isfinite(self.std.value).all()):
            raise NonFiniteError("DiagGaussian: parameters must be finite")
        if (self.std.value <= 0.0).any():
            raise ValueError("DiagGaussian: std must be strictly positive")

    def detach(self):
        return DiagGaussian(self.mean.detach(), self.std.detach())

    def sample(self, rng):
        """One reparameterization-free draw as a plain array."""
        eps = rng.standard_normal(self.mean.shape)
        return self.mean.value + self.std.value * eps


def gaussian_log_pdf(x, g):
    """log N(x; g.mean, diag(g.std**2)), summed over the last axis.

    Differentiable in x and in the Gaussian parameters.  For 1-d inputs the
    result is a scalar; batched inputs reduce only the trailing axis.
    """
    return ad.gaussian_log_pdf(as_tensor(x), g.mean, g.std)


def gaussian_kl(q, p):
    """Closed-form KL(q || p) between diagonal Gaussians, summed over the last axis."""
    return ad.gaussian_kl(q.mean, q.std, p.mean, p.std)

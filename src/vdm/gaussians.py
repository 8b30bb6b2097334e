"""Diagonal Gaussians: the building block of every distribution in the model."""
from __future__ import annotations

import numpy as np

from .autodiff import as_tensor
from .util import NonFiniteError

__all__ = ["DiagGaussian"]


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

    def sample(self, rng):
        """One reparameterization-free draw as a plain array."""
        eps = rng.standard_normal(self.mean.shape)
        return self.mean.value + self.std.value * eps


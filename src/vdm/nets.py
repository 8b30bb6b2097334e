"""Model configuration and the six parameterized networks.

All networks are pure functions of (parameters, inputs).  Every input is a
batch ``(B, d)`` (a single vector is the B = 1 row ``(1, d)``), and every
output is a batch with the same B; a lower-rank input raises ValueError
naming the network.  Standard deviations are produced as ``exp(raw)`` with
the raw output clamped to [-10, 10] to guard overflow.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, as_tensor
from .util import NonFiniteError

__all__ = ["Gaussian", "ModelConfig", "VdmModel"]

RAW_STD_CLAMP = 10.0

WEIGHTING_MODES = ("delta", "categorical")
SAMPLER_MODES = ("sca", "monte_carlo")


@dataclass
class ModelConfig:
    """Dimensions, sample count and training weights for one model instance."""

    d_x: int
    d_z: int
    d_h: int
    k: int
    kappa: float = 0.5
    weighting_mode: str = "delta"
    sampler_mode: str = "sca"
    omega1: float = 1.0
    omega2: float = 1.0
    lr: float = 1e-3

    def __post_init__(self):
        for name in ("d_x", "d_z", "d_h", "k"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:  # a float, a bool or a numpy int
                raise ValueError(f"ModelConfig: {name} must be a positive integer")
        for name in ("kappa", "omega1", "omega2", "lr"):
            value = getattr(self, name)
            # a bool, a NaN or an infinity would pass the range checks below
            if type(value) not in (int, float) or not math.isfinite(value):
                raise ValueError(f"ModelConfig: {name} must be a finite number")
        if self.kappa <= 0:
            raise ValueError("ModelConfig: kappa must be positive")
        if self.weighting_mode not in WEIGHTING_MODES:
            raise ValueError(f"ModelConfig: unknown weighting_mode {self.weighting_mode!r}")
        if self.sampler_mode not in SAMPLER_MODES:
            raise ValueError(f"ModelConfig: unknown sampler_mode {self.sampler_mode!r}")
        if self.k == 1 and self.sampler_mode == "sca":
            raise ValueError("ModelConfig: k=1 requires monte_carlo sampling")
        if self.sampler_mode == "sca" and self.k != 2 * self.d_z + 1:
            raise ValueError(
                f"ModelConfig: sca sampling requires k = 2*d_z+1 = {2 * self.d_z + 1}, got k={self.k}"
            )
        if self.omega1 < 0 or self.omega2 < 0:
            raise ValueError("ModelConfig: omega1/omega2 must be nonnegative")
        if self.lr <= 0:
            raise ValueError("ModelConfig: lr must be positive")


class Gaussian(NamedTuple):
    """A diagonal Gaussian over the last axis: what every head returns."""

    mean: Tensor
    std: Tensor


def _mlp3_weights(store, prefix):
    return tuple(store[f"{prefix}{i}.{p}"] for i in range(3) for p in ("w", "b"))


def _gaussian_head(store, prefix, inputs, d):
    """Three-layer MLP on the concatenated inputs whose 2d outputs are a mean
    and a raw log std, clamped before the exp."""
    return Gaussian(*ad.gaussian_mlp(inputs, _mlp3_weights(store, prefix), d, RAW_STD_CLAMP))


def _check_input(name, x, dim):
    v = x.value if isinstance(x, Tensor) else np.asarray(x)
    if v.ndim != 2 or v.shape[1] != dim:
        raise ValueError(f"{name}: expected a (B, {dim}) batch, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise NonFiniteError(f"{name}: non-finite input")


def _gru_cell(store, prefix, x, h_prev):
    """``ad.gru_cell`` with the store's r, u and c weights; u -> 1 carries
    h_prev through unchanged."""
    return ad.gru_cell(
        x, h_prev, *(store[f"{prefix}.{p}{gate}"] for gate in "ruc" for p in ("w", "b"))
    )


class VdmModel:
    """Config plus the model and discriminator stores, each a dict of name -> Tensor."""

    def __init__(self, config, params, disc):
        self.config = config
        self.params = params
        self.disc = disc

    @staticmethod
    def parameter_shapes(config):
        """{"model": [...], "disc": [...]}: the (name, shape) of each weight
        and then its bias, in the order ``initialize`` draws them."""
        d_x, d_z, d_h = config.d_x, config.d_z, config.d_h

        def linear(name, fan_in, fan_out):
            return [(f"{name}.w", (fan_in, fan_out)), (f"{name}.b", (fan_out,))]

        def mlp3(prefix, d_in, width, d_out):
            return (linear(f"{prefix}0", d_in, width) + linear(f"{prefix}1", width, width)
                    + linear(f"{prefix}2", width, d_out))

        def gru(d_in):
            return [(f"gru.{p}{g}", shape) for g in "ruc"
                    for p, shape in (("w", (d_in + d_h, d_h)), ("b", (d_h,)))]

        return {
            "model": mlp3("enc", d_x, 32, 2 * d_z) + mlp3("tra", d_h, 64, 2 * d_z)
            + mlp3("dec", d_z + d_h, 32, 2 * d_x) + mlp3("inf", d_h + d_x, 64, 2 * d_z) + gru(d_z),
            "disc": gru(d_x) + mlp3("mlp", d_h + d_x, 32, 1),
        }

    @classmethod
    def initialize(cls, config, rng):
        stores = {}
        for store, shapes in cls.parameter_shapes(config).items():
            params = stores[store] = {}
            for (w_name, w_shape), (b_name, b_shape) in zip(shapes[::2], shapes[1::2]):
                # a bias shares its weight's uniform fan-in bound, so no hidden
                # unit starts exactly on a relu kink when an input (e.g. h_0)
                # is identically zero
                bound = 1.0 / np.sqrt(w_shape[0])
                params[w_name] = Tensor(rng.uniform(-bound, bound, w_shape), requires_grad=True)
                params[b_name] = Tensor(rng.uniform(-bound, bound, b_shape), requires_grad=True)
        return cls(config, stores["model"], stores["disc"])

    # ------------------------------------------------------------------
    # generative / inference networks (shared parameters)
    # ------------------------------------------------------------------

    def encode_initial(self, x):
        """Belief over z from the first observation of a sequence."""
        _check_input("encode_initial", x, self.config.d_x)
        return _gaussian_head(self.params, "enc", (as_tensor(x),), self.config.d_z)

    def transition_prior(self, h):
        """p(z_t | h_{t-1}) as a diagonal Gaussian."""
        _check_input("transition_prior", h, self.config.d_h)
        return _gaussian_head(self.params, "tra", (as_tensor(h),), self.config.d_z)

    def gru_advance(self, z, h_prev):
        """One recurrent update, each row of ``h_prev`` serving its k
        consecutive rows of ``z``; the same parameters serve generation and
        inference."""
        _check_input("gru_advance", z, self.config.d_z)
        _check_input("gru_advance", h_prev, self.config.d_h)
        return _gru_cell(self.params, "gru", as_tensor(z), as_tensor(h_prev))

    def emit(self, z, h_prev):
        """Emission density p(x_t | z_t, h_{t-1}); h is the previous recurrent state."""
        _check_input("emit", z, self.config.d_z)
        _check_input("emit", h_prev, self.config.d_h)
        inputs = (as_tensor(z), as_tensor(h_prev))
        return _gaussian_head(self.params, "dec", inputs, self.config.d_x)

    def infer_component(self, s, x):
        """One mixture component q(z_t | s_{t-1}, x_t)."""
        _check_input("infer_component", s, self.config.d_h)
        _check_input("infer_component", x, self.config.d_x)
        inputs = (as_tensor(s), as_tensor(x))
        return _gaussian_head(self.params, "inf", inputs, self.config.d_z)

    # ------------------------------------------------------------------
    # discriminator (disjoint parameters)
    # ------------------------------------------------------------------

    def disc_initial_state(self, batch):
        return Tensor(np.zeros((batch, self.config.d_h)))

    def disc_step(self, x, h_prev):
        """Advance the discriminator's own prefix summarizer by one observation."""
        if self.disc is None:
            raise ValueError("disc_step: a scoring model holds no discriminator")
        _check_input("disc_step", x, self.config.d_x)
        _check_input("disc_step", h_prev, self.config.d_h)
        return _gru_cell(self.disc, "gru", as_tensor(x), as_tensor(h_prev))

    def discriminate(self, prefix_summary, x):
        """Probability in (0,1), shape (B, 1), that x is a real continuation of the prefix."""
        if self.disc is None:
            raise ValueError("discriminate: a scoring model holds no discriminator")
        _check_input("discriminate", prefix_summary, self.config.d_h)
        _check_input("discriminate", x, self.config.d_x)
        inputs = (as_tensor(prefix_summary), as_tensor(x))
        return ad.sigmoid_mlp3(inputs, _mlp3_weights(self.disc, "mlp"))


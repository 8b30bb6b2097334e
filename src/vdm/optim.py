"""Named parameter storage and the Adam optimizer."""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor

__all__ = ["AdamState", "ParameterStore", "adam_step"]


class ParameterStore:
    """Named parameter tensors; their optimizer state is an ``AdamState``."""

    def __init__(self):
        self.params = {}  # name -> Tensor(requires_grad=True)

    def add(self, name, value):
        if name in self.params:
            raise ValueError(f"parameter {name!r} already registered")
        t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        self.params[name] = t
        return t

    def __getitem__(self, name):
        return self.params[name]

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None


class AdamState:
    """Adam's moments of each parameter of one store, and its step count."""

    def __init__(self, store):
        self.m = {name: np.zeros_like(t.value) for name, t in store.params.items()}
        self.v = {name: np.zeros_like(t.value) for name, t in store.params.items()}
        self.step_count = 0


def adam_step(store, state, lr):
    """In-place bias-corrected Adam update (betas 0.9, 0.999; eps 1e-8); a
    missing gradient counts as zero, and gradients are dropped afterwards."""
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - 0.9**t
    c2 = 1.0 - 0.999**t
    for name, p in store.params.items():
        g = np.zeros_like(p.value) if p.grad is None else p.grad
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * g * g
        p.value -= lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)
    store.zero_grad()
    return store

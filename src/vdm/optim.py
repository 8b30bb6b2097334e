"""Named parameter storage and the Adam optimizer."""
from __future__ import annotations

import numpy as np

from .autodiff import Tensor

__all__ = ["ParameterStore", "adam_step"]


class ParameterStore:
    """Named parameter tensors with gradient slots and Adam moment buffers.

    Every parameter carries a gradient array and first/second moment arrays of
    identical shape; the step counter advances by exactly one per optimizer
    step.
    """

    def __init__(self):
        self.params = {}  # name -> Tensor(requires_grad=True)
        self.m = {}
        self.v = {}
        self.step_count = 0

    def add(self, name, value):
        if name in self.params:
            raise ValueError(f"parameter {name!r} already registered")
        t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
        self.params[name] = t
        self.m[name] = np.zeros_like(t.value)
        self.v[name] = np.zeros_like(t.value)
        return t

    def __getitem__(self, name):
        return self.params[name]

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    def detached(self):
        """Name -> constant tensor over the same value array: reading the
        parameters through it leaves their gradients untouched."""
        return {name: t.detach() for name, t in self.params.items()}


def adam_step(store, lr):
    """In-place bias-corrected Adam update (betas 0.9, 0.999; eps 1e-8);
    gradients are zeroed afterwards."""
    store.step_count += 1
    t = store.step_count
    c1 = 1.0 - 0.9**t
    c2 = 1.0 - 0.999**t
    for name, p in store.params.items():
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in parameter {name!r}")
        m = store.m[name]
        v = store.v[name]
        m *= 0.9
        m += (1.0 - 0.9) * g
        v *= 0.999
        v += (1.0 - 0.999) * g * g
        p.value -= lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)
    store.zero_grad()
    return store

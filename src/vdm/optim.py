"""The Adam optimizer over a parameter store: a dict of name -> Tensor(requires_grad=True)."""
from __future__ import annotations

import numpy as np

__all__ = ["AdamState", "adam_step"]


class AdamState:
    """Adam's moments of each parameter of one store, and its step count."""

    def __init__(self, store):
        self.m = {name: np.zeros_like(t.value) for name, t in store.items()}
        self.v = {name: np.zeros_like(t.value) for name, t in store.items()}
        self.step_count = 0


def adam_step(store, state, lr):
    """In-place bias-corrected Adam update (betas 0.9, 0.999; eps 1e-8); a
    missing gradient counts as zero, and gradients are dropped afterwards."""
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - 0.9**t
    c2 = 1.0 - 0.999**t
    for name, p in store.items():
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
    for p in store.values():
        p.grad = None
    return store

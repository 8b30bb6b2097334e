#!/usr/bin/env python3
# A walk through the numeric core: record a computation on a tape, pull
# gradients back through it, check one against finite differences, and take a
# few optimizer steps on a toy curve fit.  Each call below is one fused tape
# record with an analytic backward; gaussian_mlp returns two outputs, a mean
# and a std, from one record, and an output nothing reads gets no gradient.
# Tensors have no arithmetic operators: a weighted sum of scalar losses is
# one linear_combination record.

import numpy as np

import vdm.autodiff as ad
from vdm.autodiff import Tape, Tensor, backward
from vdm.optim import AdamState, ParameterStore, adam_step

rng = np.random.default_rng(0)


def init_mlp3(store, sizes):
    """Register a three-layer MLP's weights; returns them in gaussian_mlp's order."""
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        bound = 1.0 / np.sqrt(fan_in)
        store.add(f"w{i}", rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        store.add(f"b{i}", rng.uniform(-bound, bound, size=fan_out))
    return tuple(store[f"{p}{i}"] for i in range(3) for p in ("w", "b"))


# --- gradients of a small expression -------------------------------------
store = ParameterStore()
weights = init_mlp3(store, (3, 8, 8, 4))
x = Tensor(rng.normal(size=(5, 3)))
target = Tensor(rng.normal(size=(5, 2)))
unit_std = Tensor(np.ones((5, 2)))


def mean_nll():
    """Mean negative log-likelihood of target under N(mean(x), I); the
    head's std output is left unread."""
    mean, _ = ad.gaussian_mlp((x,), weights, 2, 10.0)
    ll = ad.gaussian_log_pdf(target, mean, unit_std)
    (mean_ll,) = ad.sum_of_means(1, ll)
    return ad.linear_combination((-1.0,), (mean_ll,))


with Tape() as tape:
    loss = mean_nll()
    backward(tape, loss)

w = store["w0"]
print("tape records:", len(tape.records))
print("loss:", float(loss.value))
print("dloss/dw0[0,0]:", w.grad[0, 0])

# finite-difference check of the same entry
eps = 1e-6
w.value[0, 0] += eps
up = float(mean_nll().value)
w.value[0, 0] -= 2 * eps
down = float(mean_nll().value)
w.value[0, 0] += eps
print("finite difference:", (up - down) / (2 * eps))

# --- fit y = sin(x) with a Gaussian head ---------------------------------
xs = np.linspace(-2, 2, 64)[:, None]
ys = np.sin(xs * np.pi / 2)

net = ParameterStore()
net_weights = init_mlp3(net, (1, 16, 16, 2))
net_adam = AdamState(net)

inputs, targets = Tensor(xs), Tensor(ys)
for step in range(400):
    with Tape() as tape:
        mean, std = ad.gaussian_mlp((inputs,), net_weights, 1, 10.0)
        (mean_ll,) = ad.sum_of_means(1, ad.gaussian_log_pdf(targets, mean, std))
        loss = ad.linear_combination((-1.0,), (mean_ll,))
        backward(tape, loss)
    adam_step(net, net_adam, lr=3e-3)
    if step % 100 == 0:
        print(f"step {step}: nll={float(loss.value):.4f}")
mse = float(np.mean((mean.value - ys) ** 2))
print(f"final nll: {float(loss.value):.4f}, mse of the mean: {mse:.5f}")

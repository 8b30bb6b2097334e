#!/usr/bin/env python3
# The evaluation toolkit on hand-built inputs: the sample-based NLL kernel for
# long-horizon forecasts, and the empirical Wasserstein distance, which
# rewards forecast sets that are both accurate and as diverse as the truth.

import numpy as np

from vdm.evaluation import multi_step_nll, wasserstein

rng = np.random.default_rng(0)

# --- sample NLL ------------------------------------------------------------
# one truth of 20 steps, scored against three sets of 10 forecasts each
truth = rng.normal(size=(20, 2))

perfect = np.repeat(truth[None], 10, axis=0)
noisy = truth[None] + 0.5 * rng.normal(size=(10, 20, 2))
off = truth[None] + 2.0 + 0.5 * rng.normal(size=(10, 20, 2))
nll = multi_step_nll(np.stack([truth] * 3), np.stack([perfect, noisy, off]))

print("sample NLL (lower is better):")
print(f"  perfect forecasts: {nll[0]:.4f}   (= 0.5 log 2 pi)")
print(f"  noisy forecasts  : {nll[1]:.4f}")
print(f"  biased forecasts : {nll[2]:.4f}")

# --- why the W-distance complements NLL -------------------------------------
# truths spread over two clusters; compare a diverse forecast set against a
# mode-averaged one with the same per-sample quality
n = 40
labels = rng.integers(0, 2, size=n)
truths = np.where(labels[:, None] == 0, -2.0, 2.0) + 0.2 * rng.normal(size=(n, 1))

diverse = np.where(rng.integers(0, 2, size=n)[:, None] == 0, -2.0, 2.0) \
    + 0.2 * rng.normal(size=(n, 1))
averaged = 0.0 + 0.2 * rng.normal(size=(n, 1))  # splits the difference

print("\nempirical W-distance against two-cluster truths:")
print(f"  diverse forecasts : {wasserstein(diverse, truths):.4f}")
print(f"  averaged forecasts: {wasserstein(averaged, truths):.4f}")
print("mode-averaging doubles the transport cost even though every averaged")
print("sample sits exactly between the clusters.")

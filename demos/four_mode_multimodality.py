#!/usr/bin/env python3
# The flagship behavior: on planar data whose continuations split into four
# diagonal headings, the multi-sample filter (k=9) learns forecasts that cover
# all four modes instead of averaging them.  A single-sample filter (k=1) is
# trained on the same data for contrast.
#
# Takes a couple of minutes; shrink n_train or epochs for a faster look.

import numpy as np

from vdm.data import generate_four_mode
from vdm.evaluation import dataset_multi_step_nll, forecast_dataset
from vdm.inference import export_predictive_prior
from vdm.nets import ModelConfig
from vdm.objective import train

train_ds, val_ds, test_ds = generate_four_mode((2000, 200, 200), np.random.default_rng(1234))
print(f"data: {len(train_ds)} train trajectories of length {train_ds.seq_len}, "
      f"prefix {train_ds.prefix_len}")

results = {}
for name, cfg in (
    ("k=9", ModelConfig(d_x=2, d_z=4, d_h=16, k=9)),
    ("k=1", ModelConfig(d_x=2, d_z=4, d_h=16, k=1, sampler_mode="monte_carlo")),
):
    res = train(train_ds, cfg, np.random.default_rng(0), val_dataset=val_ds,
                epochs=10, batch_size=64, val_forecasts=50, verbose=False)
    results[name] = res.checkpoint
    print(f"{name}: trained {len(res.history)} epochs, "
          f"best val NLL {res.checkpoint.provenance['val_nll']:.4f}")

# --- forecast 1000 continuations from one shared prefix -------------------
for name, ckpt in results.items():
    model = ckpt.build_model()
    scaled = ckpt.normalize(test_ds.data)
    fc = forecast_dataset(model, scaled[:1], 1, 1000, 3, np.random.default_rng(5))
    final = ckpt.denormalize(fc)[0, :, -1, :]
    quadrant = (final[:, 0] > 0).astype(int) * 2 + (final[:, 1] > 0).astype(int)
    masses = np.bincount(quadrant, minlength=4) / 1000.0
    nll = dataset_multi_step_nll(model, scaled, 1, 500, np.random.default_rng(7))
    print(f"\n{name}: multi-step NLL {nll:.4f}")
    print(f"{name}: forecast mass per heading quadrant {masses}")

# --- latent predictive-prior draws for external plotting ------------------
ckpt = results["k=9"]
model = ckpt.build_model()
draws = export_predictive_prior(model, ckpt.normalize(test_ds.data[:1]), n_draws=500,
                                rng=np.random.default_rng(10))
spread = draws[1].std(axis=0)
print(f"\npredictive-prior draw spread at step 2 (multi-modal if much wider "
      f"than one component): {spread}")

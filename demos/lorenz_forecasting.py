#!/usr/bin/env python3
# Stochastic Lorenz forecasting end to end: simulate noisy chaotic sequences,
# train the k=13 model briefly, and score it with all three metrics (sample
# NLL over the horizon, closed-form one-step NLL, grouped W-distance).
#
# A short run for illustration; expect every metric to improve sharply over
# the untrained checkpoint rather than to reach full-scale numbers.

import numpy as np

from vdm.data import Dataset, LorenzConfig, simulate_lorenz
from vdm.evaluation import dataset_multi_step_nll, one_step_nll, w_distance_protocol
from vdm.nets import ModelConfig
from vdm.objective import train

lorenz = LorenzConfig(seq_len=30, prefix_len=10)
sim = simulate_lorenz(lorenz, np.random.default_rng(42), counts=(600, 60, 40),
                      n_groups=4, group_size=30)
print(f"simulated {len(sim.train)} train sequences, {len(sim.groups)} groups "
      f"of {len(sim.groups[0])} noise siblings")

cfg = ModelConfig(d_x=3, d_z=6, d_h=32, k=13, omega2=0.0)


def score(ckpt):
    model = ckpt.build_model()
    scaled = ckpt.normalize(sim.test.data)
    nll = dataset_multi_step_nll(model, scaled, 10, 100, np.random.default_rng(3),
                                 reduction="sum")
    one = one_step_nll(model, scaled, 10, np.random.default_rng(4))
    groups = [Dataset(ckpt.normalize(g.data), g.prefix_len) for g in sim.groups]
    w, se = w_distance_protocol(model, groups, np.random.default_rng(5))
    return nll, one, w, se


untrained = train(sim.train, cfg, np.random.default_rng(7), epochs=0)
print("\nuntrained:  multi-step {:8.2f}  one-step {:7.3f}  W {:6.3f} +- {:.3f}".format(
    *score(untrained.checkpoint)))

trained = train(sim.train, cfg, np.random.default_rng(7), val_dataset=sim.val,
                epochs=8, batch_size=32, val_forecasts=30, verbose=True)
print("\ntrained:    multi-step {:8.2f}  one-step {:7.3f}  W {:6.3f} +- {:.3f}".format(
    *score(trained.checkpoint)))
print("\n(metrics are in normalized units; lower is better everywhere)")

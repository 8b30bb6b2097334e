"""Forecast evaluation: sample NLL, one-step NLL, empirical Wasserstein distance."""
from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .gaussians import LOG_2PI, DiagGaussian
from .inference import MixtureBelief, filter_sequence, generate, one_step_predictive
from .util import parallel_map

__all__ = [
    "multi_step_nll",
    "dataset_multi_step_nll",
    "one_step_nll",
    "wasserstein",
    "w_distance_protocol",
    "forecast_dataset",
]


def multi_step_nll(truths, forecasts, reduction="mean"):
    """Sample-based NLL of each ground truth under a Gaussian forecast kernel.

    ``truths`` is (N, horizon, d_x) and ``forecasts`` (N, n, horizon, d_x);
    returns the (N,) values -log( (1/n) sum_i (2pi)^{-1/2} exp(-e_i / 2) ),
    where e_i reduces the squared error of forecast i over horizon and
    dimensions; ``reduction`` picks the mean (default) or sum reduction.
    Computed via log-sum-exp.
    """
    truths = np.asarray(truths, dtype=np.float64)
    forecasts = np.asarray(forecasts, dtype=np.float64)
    if forecasts.ndim != 4 or forecasts.shape[:1] + forecasts.shape[2:] != truths.shape:
        raise ValueError(
            f"multi_step_nll: forecasts {forecasts.shape} do not match truths {truths.shape}"
        )
    sq = forecasts - truths[:, None]
    sq *= sq
    if reduction == "mean":
        err = sq.mean(axis=(2, 3))
    elif reduction == "sum":
        err = sq.sum(axis=(2, 3))
    else:
        raise ValueError(f"multi_step_nll: unknown reduction {reduction!r}")
    m = (-err / 2.0).max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(-err / 2.0 - m).sum(axis=1))
    return 0.5 * LOG_2PI + np.log(err.shape[1]) - lse


# Rows (trajectories x forecasts) forecast in one batch.  The chunk layout,
# not VDM_THREADS, fixes the output bytes: BLAS results depend on the row count.
FORECAST_ROWS = 1024


def _chunk_plan(n_traj, n_forecasts, rng):
    """(trajectory slice, generator) per chunk: consecutive runs of whole
    trajectories, max(1, FORECAST_ROWS // n_forecasts) at a time, each with its
    own child stream of ``rng``, all spawned before any chunk runs."""
    size = max(1, FORECAST_ROWS // n_forecasts)
    starts = range(0, n_traj, size)
    streams = rng.spawn(len(starts))
    return [(slice(start, min(start + size, n_traj)), stream)
            for start, stream in zip(starts, streams)]


def forecast_dataset(model, data, prefix_len, n_forecasts, horizon, rng):
    """(N, n_forecasts, horizon, d_x) continuations after filtering each prefix,
    in one batch: ``dataset_multi_step_nll`` and ``vdm forecast`` pass one
    chunk of trajectories at a time.  ``prefix_len`` must lie in [1, T]."""
    data = np.asarray(data, dtype=np.float64)
    n_traj = data.shape[0]
    if n_forecasts < 1:
        raise ValueError(f"forecast_dataset: n_forecasts must be >= 1, got {n_forecasts}")
    if not 1 <= prefix_len <= data.shape[1]:
        raise ValueError(
            f"forecast_dataset: prefix_len must be in [1, {data.shape[1]}], got {prefix_len}"
        )
    belief, _ = filter_sequence(model, data[:, :prefix_len], rng)
    h, mean, std = (ad.repeat_rows(t, n_forecasts)
                    for t in (belief.expected_h, belief.collapsed.mean, belief.collapsed.std))
    out = generate(model, MixtureBelief(h, DiagGaussian(mean, std)), horizon, rng)
    return out.reshape(n_traj, n_forecasts, horizon, data.shape[2])


def dataset_multi_step_nll(model, data, prefix_len, n_forecasts, rng, reduction="mean"):
    """Mean multi-step NLL over a (N, T, d_x) array of trajectories.

    The trajectories are forecast chunk by chunk (in parallel up to
    VDM_THREADS) and each chunk is reduced to its NLLs at once, so memory does
    not grow with N.
    """
    data = np.asarray(data, dtype=np.float64)
    horizon = data.shape[1] - prefix_len
    if prefix_len < 1:
        raise ValueError(f"dataset_multi_step_nll: prefix_len must be >= 1, got {prefix_len}")
    if horizon < 1:
        raise ValueError("dataset_multi_step_nll: no continuation to score")
    if data.shape[0] == 0:
        raise ValueError("dataset_multi_step_nll: no trajectories to score")
    if n_forecasts < 1:
        raise ValueError(f"dataset_multi_step_nll: n_forecasts must be >= 1, got {n_forecasts}")
    if not np.all(np.isfinite(data)):
        raise ValueError("dataset_multi_step_nll: non-finite observation")

    def score(chunk):
        rows, chunk_rng = chunk
        fc = forecast_dataset(model, data[rows], prefix_len, n_forecasts, horizon, chunk_rng)
        return multi_step_nll(data[rows, prefix_len:], fc, reduction)

    per_chunk = parallel_map(score, _chunk_plan(data.shape[0], n_forecasts, rng))
    return float(np.mean(np.concatenate(per_chunk)))


def one_step_nll(model, data, prefix_len, rng):
    """Average next-step NLL over the continuation steps of a (N, T, d_x)
    array, filtering with the true past."""
    data = np.asarray(data, dtype=np.float64)
    t_len = data.shape[1]
    if prefix_len < 1:
        raise ValueError(f"one_step_nll: prefix_len must be >= 1, got {prefix_len}")
    if t_len - prefix_len < 1:
        raise ValueError("one_step_nll: no continuation to score")
    if data.shape[0] == 0:
        raise ValueError("one_step_nll: no trajectories to score")
    # the belief after the last observation predicts nothing that is scored
    _, beliefs = filter_sequence(model, data[:, :-1], rng)
    totals = [-one_step_predictive(model, beliefs[t - 1], data[:, t])
              for t in range(prefix_len, t_len)]
    return float(np.mean(totals))


def wasserstein(p, q):
    """Exact empirical Wasserstein distance between equal-size sample sets.

    Solves the optimal assignment on the Euclidean cost matrix and averages
    the matched costs.
    """
    # imported here, not at module level: only scoring needs scipy (~45 MB, ~0.6 s)
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 2 or q.ndim != 2 or p.shape != q.shape or p.shape[0] == 0:
        raise ValueError(
            f"wasserstein: expected matching non-empty (n, d) sets, got {p.shape} and {q.shape}"
        )
    cost = cdist(p, q)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def w_distance_protocol(model, groups, rng, forecasts_per_truth=10):
    """Grouped empirical W-distance: mean and standard error over groups.

    Per group of n truths with similar prefixes, each truth contributes
    ``forecasts_per_truth`` forecasts; the j-th forecasts of all truths form
    set j, scored against the n true continuations, and the j-scores are
    averaged before averaging over groups.  Each group has its own child
    stream of ``rng``.
    """
    if not groups:
        raise ValueError("w_distance_protocol: no groups to score")
    if forecasts_per_truth < 1:
        raise ValueError(
            f"w_distance_protocol: forecasts_per_truth must be >= 1, got {forecasts_per_truth}"
        )

    def score(args):
        group, grp_rng = args
        data = group.data
        n = data.shape[0]
        prefix_len = group.prefix_len
        horizon = data.shape[1] - prefix_len
        fc = forecast_dataset(model, data, prefix_len, forecasts_per_truth, horizon, grp_rng)
        truths = data[:, prefix_len:].reshape(n, -1)
        dists = [
            wasserstein(fc[:, j].reshape(n, -1), truths) for j in range(forecasts_per_truth)
        ]
        return float(np.mean(dists))

    per_group = parallel_map(score, list(zip(groups, rng.spawn(len(groups)))))
    per_group = np.asarray(per_group)
    stderr = per_group.std(ddof=1) / np.sqrt(len(per_group)) if len(per_group) > 1 else 0.0
    return float(per_group.mean()), float(stderr)

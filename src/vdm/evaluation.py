"""Forecast evaluation: sample NLL, one-step NLL, empirical Wasserstein distance."""
from __future__ import annotations

import itertools

import numpy as np

from . import autodiff as ad
from . import inference
from .inference import MixtureBelief, filter_sequence, generate, one_step_predictive
from .nets import Gaussian
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

    ``truths`` is (N, horizon, d_x) and ``forecasts`` (N, n, horizon, d_x),
    n >= 1 and all finite; returns the (N,) values -log( (1/n) sum_i
    (2pi)^{-1/2} exp(-e_i / 2) ), where e_i reduces the squared error of
    forecast i over horizon and dimensions; ``reduction`` picks the mean
    (default) or sum reduction.  Computed via log-sum-exp.
    """
    truths = np.asarray(truths, dtype=np.float64)
    forecasts = np.array(forecasts, dtype=np.float64)  # a copy: the errors overwrite it
    if forecasts.ndim != 4 or forecasts.shape[:1] + forecasts.shape[2:] != truths.shape:
        raise ValueError(
            f"multi_step_nll: forecasts {forecasts.shape} do not match truths {truths.shape}"
        )
    if forecasts.shape[1] == 0:
        raise ValueError("multi_step_nll: no forecasts to score")
    if reduction not in ("mean", "sum"):
        raise ValueError(f"multi_step_nll: unknown reduction {reduction!r}")
    if not (np.isfinite(truths).all() and np.isfinite(forecasts).all()):
        raise ValueError("multi_step_nll: non-finite truths or forecasts")
    return _multi_step_nll(truths, forecasts, reduction)


def _multi_step_nll(truths, forecasts, reduction):
    """``multi_step_nll`` on checked float64 arrays; the squared errors
    overwrite ``forecasts``."""
    sq = np.subtract(forecasts, truths[:, None], out=forecasts)
    sq *= sq
    err = sq.mean(axis=(2, 3)) if reduction == "mean" else sq.sum(axis=(2, 3))
    m = (-err / 2.0).max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(-err / 2.0 - m).sum(axis=1))
    return 0.5 * ad.LOG_2PI + np.log(err.shape[1]) - lse


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
    belief = filter_sequence(model, data[:, :prefix_len], rng)
    h, mean, std = (ad.Tensor(np.repeat(t.value, n_forecasts, axis=0))
                    for t in (belief.expected_h, belief.collapsed.mean, belief.collapsed.std))
    out = generate(model, MixtureBelief(h, Gaussian(mean, std)), horizon, rng)
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
    if reduction not in ("mean", "sum"):
        raise ValueError(f"dataset_multi_step_nll: unknown reduction {reduction!r}")
    if not np.all(np.isfinite(data)):
        raise ValueError("dataset_multi_step_nll: non-finite observation")

    def score(chunk):
        rows, chunk_rng = chunk
        fc = forecast_dataset(model, data[rows], prefix_len, n_forecasts, horizon, chunk_rng)
        return _multi_step_nll(data[rows, prefix_len:], fc, reduction)

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
    # scored as the filter goes, keeping no belief history; the filter steps
    # first (a non-finite x_t fails in it) and skips the unread last belief
    belief = filter_sequence(model, data[:, :prefix_len], rng)
    totals = np.empty((t_len - prefix_len, data.shape[0]))
    for t in range(prefix_len, t_len):
        before, x = belief, data[:, t]
        if t + 1 < t_len:  # looked up on the module, where perfbench's tracer wraps it
            belief, _ = inference.belief_step(model, before, x, rng)
        totals[t - prefix_len] = -one_step_predictive(model, before, x)
    return float(totals.mean())


def wasserstein(p, q):
    """Exact empirical Wasserstein distance between equal-size sample sets.

    Solves the optimal assignment on the Euclidean cost matrix and averages
    the matched costs.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if (p.ndim != 2 or q.ndim != 2 or p.shape != q.shape or p.shape[0] == 0
            or not (np.isfinite(p).all() and np.isfinite(q).all())):
        raise ValueError("wasserstein: expected matching non-empty finite (n, d) sets, "
                         f"got {p.shape} and {q.shape}")
    cost = _distances(p[None], q, np.empty((1, len(p), len(p))))
    return float(_mean_matched_costs(cost, "wasserstein")[0])


def _distances(sets, truths, out):
    """Fill and return out[b, i, k] = ||sets[b, i] - truths[k]|| by d^2 = |p|^2 +
    |q|^2 - 2 p.q, one BLAS product per set.  For D values per point that errs by at
    most 2(D + 3)u (|p|^2 + |q|^2), u = 2^-53 (the dot-product bound on its three
    sums, 2|p.q| <= |p|^2 + |q|^2, two more roundings), so d is within 5e-13 relative
    of exact where d^2 >= tau (|p|^2 + |q|^2), tau = 2e12 (D + 3)u.  Other and
    non-finite entries are recomputed row-wise, and identical points cost exactly 0.
    """
    qq, qt = np.einsum("kd,kd->k", truths, truths), -2.0 * truths.T  # -2: an exact scale
    with np.errstate(invalid="ignore", over="ignore"):  # NaN/inf entries are recomputed
        for s, d2 in zip(sets, out):
            scale = np.einsum("id,id->i", s, s)[:, None] + qq  # |p|^2 + |q|^2
            np.add(np.matmul(s, qt, out=d2), scale, out=d2)  # |p|^2 + |q|^2 - 2 p.q
            redo = ~(d2 >= 2e12 * (truths.shape[1] + 3) * 2.0**-53 * scale)  # below tau, or NaN
            for i in np.flatnonzero(redo.any(axis=1)):
                diff = truths[redo[i]] - s[i]
                d2[i, redo[i]] = np.einsum("kd,kd->k", diff, diff)
    return np.sqrt(out, out=out)


def _mean_matched_costs(cost, caller):
    """(B,) mean matched cost of the optimal assignment of each (n, n) problem."""
    if not np.isfinite(cost.max()):  # costs are >= 0, NaN or +inf
        raise ValueError(f"{caller}: non-finite distance between sample sets")
    return np.take_along_axis(cost, _assign(cost)[:, :, None], axis=2)[:, :, 0].mean(axis=1)


def _assign(cost):
    """(B, n) column of each row in the optimal assignment of each (n, n)
    cost matrix of a batch; a problem's result does not depend on the others.

    Shortest augmenting paths (Jonker-Volgenant, in Crouse's form) from a
    column reduction, vectorized over the problems: each iteration scans one
    row of every problem still searching, and a problem whose search reaches
    a free column augments and starts its next free row at once.  Row duals
    stay implicit: an assigned row has reduced cost 0 at its column.
    """
    n = cost.shape[1]
    # column reduction: a row goes to the last column it is cheapest for
    v = cost.min(axis=1)
    cheap = np.stack([c.argmin(axis=0) for c in cost])  # argmin(axis=1) copies cost
    col4row = np.full(v.shape, -1)
    np.maximum.at(col4row, (np.arange(len(cost))[:, None], cheap), np.arange(n))
    row4col = np.where(np.take_along_axis(col4row, cheap, 1) == np.arange(n), cheap, -1)
    # per searching problem: the row to scan and its path cost minus its
    # dual; per column the path cost (inf once scanned), the path cost at its
    # scan, v (-inf once scanned) and the row that last lowered the path cost
    ids = np.flatnonzero((col4row < 0).any(axis=1))
    row, offset = np.zeros(len(ids), dtype=np.intp), np.zeros(len(ids))
    spc, scanned, vw = np.empty((3, len(ids), n))
    path = np.empty((len(ids), n), dtype=np.intp)
    new, pb = np.arange(len(ids)), ids
    # flat indices into views: entry (b, j) of a (B, n) array is at b * n + j,
    # row i of problem b is cost row b * n + i, and slot s starts at s * n
    cost_rows = cost.reshape(-1, n)
    flat_cost, flat_v, flat_r4c = cost_rows.reshape(-1), v.reshape(-1), row4col.reshape(-1)
    slot_at, at = np.arange(0, len(ids) * n, n), ids * n
    while len(ids):
        if len(new):  # start each problem in new on its first free row
            row[new] = (col4row[pb] < 0).argmax(axis=1)
            offset[new], spc[new], scanned[new], vw[new] = 0.0, np.inf, np.inf, v[pb]
        reduced = cost_rows.take(at + row, axis=0)
        reduced -= vw
        reduced += offset[:, None]
        np.copyto(path, row[:, None], where=reduced < spc)
        np.minimum(spc, reduced, out=spc)
        col = spc.argmin(axis=1)
        scan = slot_at[:len(ids)] + col
        mu = spc.take(scan)
        scanned.put(scan, mu)
        spc.put(scan, np.inf)
        vw.put(scan, -np.inf)
        cell = at + col
        row = flat_r4c.take(cell)
        # a free column's row is -1: its offset, never read, is some in-range entry
        offset = mu - flat_cost.take((at + row) * n + col) + flat_v.take(cell)
        keep = row >= 0
        (new,) = np.nonzero(~keep)  # searches that reached a free column
        if not len(new):
            continue
        pb = ids[new]
        v[pb] -= np.maximum(mu[new, None] - scanned[new], 0.0)
        for b, s, j in zip(pb.tolist(), new.tolist(), col[new].tolist()):
            back, c4r, r4c = path[s], col4row[b], row4col[b]
            while j >= 0:  # flip the path back to the free root row
                i = r4c[j] = back[j]
                c4r[i], j = j, c4r[i]
        keep[new] = (col4row[pb] < 0).any(axis=1)
        if not keep.all():
            new = (np.cumsum(keep) - 1)[new[keep[new]]]
            ids, at, row, offset, spc, scanned, vw, path = (
                a[keep] for a in (ids, at, row, offset, spc, scanned, vw, path))
            pb = ids[new]
    return col4row


# Cost-matrix entries per batched solve: batching makes the numpy solver fast, the bound
# keeps memory flat (2^18 solves 100 Lorenz problems as 5 x 20: a 1.6 MB slab in place
# of 2 x 50's 4 MB, for about 0.1 s more).
SOLVE_ENTRIES = 1 << 18


def w_distance_protocol(model, groups, rng, forecasts_per_truth=10):
    """Grouped empirical W-distance: mean and standard error over groups.

    Per group of n truths with similar prefixes, each truth contributes
    ``forecasts_per_truth`` forecasts; the j-th forecasts of all truths form
    set j, scored against the n true continuations, and the j-scores are
    averaged before averaging over groups.  Each group has its own child
    stream of ``rng``.  The groups are forecast a slab at a time, and one
    batched assignment solve scores each slab.
    """
    if not groups:
        raise ValueError("w_distance_protocol: no groups to score")
    if forecasts_per_truth < 1:
        raise ValueError(
            f"w_distance_protocol: forecasts_per_truth must be >= 1, got {forecasts_per_truth}"
        )
    if any(len(group.data) == 0 for group in groups):
        raise ValueError("w_distance_protocol: a group holds no trajectories")
    if any(group.prefix_len >= group.data.shape[1] for group in groups):
        raise ValueError("w_distance_protocol: a group has no continuation to score")

    def costs(args):
        group, grp_rng, out = args
        truths = group.data[:, group.prefix_len:]
        fc = forecast_dataset(model, group.data, group.prefix_len, forecasts_per_truth,
                              truths.shape[1], grp_rng)
        sets = fc.reshape(*fc.shape[:2], -1).swapaxes(0, 1)  # set j: j-th forecasts
        _distances(sets, truths.reshape(len(truths), -1), out)

    per_group = []
    for n, run in itertools.groupby(groups, key=lambda group: len(group.data)):
        run = list(run)
        size = max(1, SOLVE_ENTRIES // (forecasts_per_truth * n * n))
        for slab in (run[i:i + size] for i in range(0, len(run), size)):
            cost = np.empty((len(slab), forecasts_per_truth, n, n))
            # spawned a slab at a time: the same children, in the same order,
            # as spawning one per group up front
            parallel_map(costs, list(zip(slab, rng.spawn(len(slab)), cost)))
            means = _mean_matched_costs(cost.reshape(-1, n, n), "w_distance_protocol")
            per_group.extend(means.reshape(len(slab), forecasts_per_truth).mean(axis=1))
    per_group = np.asarray(per_group)
    stderr = per_group.std(ddof=1) / np.sqrt(len(per_group)) if len(per_group) > 1 else 0.0
    return float(per_group.mean()), float(stderr)

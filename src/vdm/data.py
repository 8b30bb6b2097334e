"""Dataset synthesis and trajectory file ingestion.

Two generators: a stochastic Lorenz system (RK4 transitions, two-component
Gaussian process noise, additive observation noise) and a 2-d four-heading
toy.  Real trajectory files enter through a generic CSV reader with rows
``seq_id,t,x0..x{d_x-1}``.
"""
from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass

import numpy as np

from .util import atomic_write_text

log = logging.getLogger(__name__)

__all__ = [
    "Dataset",
    "LorenzConfig",
    "LorenzData",
    "rk4_step",
    "simulate_lorenz_paths",
    "simulate_lorenz",
    "generate_four_mode",
    "load_csv",
    "save_csv",
    "write_csv",
    "group_by_prefix",
]


@dataclass
class Dataset:
    """Uniform-length trajectories stored as one (N, T, d_x) array."""

    data: np.ndarray
    prefix_len: int

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ValueError(f"Dataset: expected (N, T, d_x), got {self.data.shape}")
        if self.data.shape[0] and not np.all(np.isfinite(self.data)):
            raise ValueError("Dataset: non-finite observations")
        if self.data.shape[0] and not 1 <= self.prefix_len <= self.data.shape[1]:
            raise ValueError("Dataset: prefix_len out of range")

    def __len__(self):
        return self.data.shape[0]

    @property
    def d_x(self):
        return self.data.shape[2]

    @property
    def seq_len(self):
        return self.data.shape[1]

    def subset(self, indices):
        return Dataset(self.data[np.asarray(indices)], self.prefix_len)


LORENZ_SIGMA = 10.0
LORENZ_RHO = 28.0
LORENZ_BETA = 8.0 / 3.0
LORENZ_DT = 0.01
# process noise: an equal mixture of N(±e_y, LORENZ_NOISE_CHOL LORENZ_NOISE_CHOL^T)
LORENZ_NOISE_MEAN_A = np.array([0.0, 1.0, 0.0])
LORENZ_NOISE_MEAN_B = np.array([0.0, -1.0, 0.0])
LORENZ_NOISE_CHOL = np.linalg.cholesky(
    np.array([[0.06, 0.03, 0.01], [0.03, 0.03, 0.03], [0.01, 0.03, 0.05]]) + 1e-12 * np.eye(3)
)
LORENZ_OBS_NOISE_STD = np.array([0.6, 0.4, 0.8])
LORENZ_INIT_LOW = np.array([-10.0, -10.0, 10.0])
LORENZ_INIT_HIGH = np.array([10.0, 10.0, 30.0])


@dataclass
class LorenzConfig:
    """Sequence shape of the stochastic Lorenz source; the system, its
    integration step and its noise are the ``LORENZ_*`` constants."""

    seq_len: int = 100
    prefix_len: int = 10


def _lorenz_field(state):
    x, y, z = state[..., 0], state[..., 1], state[..., 2]
    return np.stack(
        [LORENZ_SIGMA * (y - x), x * (LORENZ_RHO - z) - y, x * y - LORENZ_BETA * z], axis=-1
    )


def rk4_step(state, h):
    """One classical 4th-order Runge-Kutta step of size h of the Lorenz field."""
    state = np.asarray(state, dtype=np.float64)
    k1 = _lorenz_field(state)
    k2 = _lorenz_field(state + 0.5 * h * k1)
    k3 = _lorenz_field(state + 0.5 * h * k2)
    k4 = _lorenz_field(state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def simulate_lorenz_paths(n, cfg, rng, init_states=None, process_noise=True, obs_noise=True):
    """Simulate n sequences; returns (observations, latent_paths), each (n, T, 3).

    Per step: RK4 advance, then process noise drawn from the two-component
    Gaussian mixture, then emission with additive observation noise.
    """
    t_len = cfg.seq_len
    if init_states is None:
        init_states = rng.uniform(LORENZ_INIT_LOW, LORENZ_INIT_HIGH, size=(n, 3))
    else:
        init_states = np.broadcast_to(np.asarray(init_states, dtype=np.float64), (n, 3)).copy()
    latents = np.empty((n, t_len, 3))
    latents[:, 0] = init_states
    for t in range(1, t_len):
        nxt = rk4_step(latents[:, t - 1], LORENZ_DT)
        if process_noise:
            pick = rng.random((n, 1)) < 0.5
            means = np.where(pick, LORENZ_NOISE_MEAN_A, LORENZ_NOISE_MEAN_B)
            nxt = nxt + means + rng.standard_normal((n, 3)) @ LORENZ_NOISE_CHOL.T
        latents[:, t] = nxt
    obs = latents.copy()
    if obs_noise:
        obs += rng.standard_normal((n, t_len, 3)) * LORENZ_OBS_NOISE_STD
    return obs, latents


@dataclass
class LorenzData:
    train: Dataset
    val: Dataset
    test: Dataset
    groups: list


def simulate_lorenz(cfg, rng, counts=(5000, 200, 800), *, n_groups, group_size):
    """Train/val/test splits plus ``n_groups`` W-distance groups of ``group_size`` sequences.

    Each group shares a single initial condition; its sequences differ only
    through the noise realizations.
    """
    n_train, n_val, n_test = counts
    if min(counts) < 0 or n_train < 1:
        raise ValueError("simulate_lorenz: counts must be positive")
    splits = []
    for n in counts:
        obs, _ = simulate_lorenz_paths(n, cfg, rng)
        splits.append(Dataset(obs, cfg.prefix_len))
    groups = []
    for _ in range(n_groups):
        init = rng.uniform(LORENZ_INIT_LOW, LORENZ_INIT_HIGH, size=3)
        obs, _ = simulate_lorenz_paths(group_size, cfg, rng, init_states=init)
        groups.append(Dataset(obs, cfg.prefix_len))
    return LorenzData(train=splits[0], val=splits[1], test=splits[2], groups=groups)


FOUR_MODE_HEADINGS = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]) / np.sqrt(2.0)
FOUR_MODE_STEP = 0.5
FOUR_MODE_NOISE = 0.05
FOUR_MODE_LEN = 4


def _four_mode_split(n, rng, prefix_len, noise_std):
    starts = rng.standard_normal((n, 2)) * noise_std
    modes = rng.integers(0, 4, size=n)
    steps = FOUR_MODE_HEADINGS[modes] * FOUR_MODE_STEP
    data = np.empty((n, FOUR_MODE_LEN, 2))
    data[:, 0] = starts
    for t in range(1, FOUR_MODE_LEN):
        data[:, t] = data[:, t - 1] + steps + rng.standard_normal((n, 2)) * noise_std
    return Dataset(data, prefix_len)


def generate_four_mode(counts, rng, prefix_len=1, noise_std=FOUR_MODE_NOISE):
    """Length-4 planar trajectories marching along one of four diagonal headings.

    Start points are N(0, noise_std^2 I); each step adds heading * 0.5 plus
    isotropic noise.  ``counts`` gives (train, val, test) sizes.
    """
    if min(counts) < 0 or counts[0] < 1:
        raise ValueError("generate_four_mode: counts must be positive")
    return tuple(_four_mode_split(n, rng, prefix_len, noise_std) for n in counts)


# ---------------------------------------------------------------------------
# CSV ingestion / export
# ---------------------------------------------------------------------------

def _csv_header(d_x):
    return ["seq_id", "t"] + [f"x{i}" for i in range(d_x)]


def _row_fields(d_x):
    return [("seq_id", object), ("t", np.int64), ("x", np.float64, (d_x,))]


def _parse_rows(fh, d_x):
    """The body rows of a trajectory CSV in one vectorized pass.

    Numbers follow numpy's grammar: no digit separators, and ``t`` is a
    64-bit integer.  A blank line is skipped; any other malformed row raises.
    """
    return np.loadtxt(fh, dtype=np.dtype(_row_fields(d_x)), delimiter=",", quotechar='"',
                      comments=None, ndmin=1)


def _raise_first_bad_row(path, lines, d_x):
    """Raise for the first body row, in file order, with the wrong field count,
    a field that ``_parse_rows`` rejects, a non-finite value or a step index
    not above the previous one of its sequence, if there is one."""
    numbers = np.dtype(_row_fields(d_x)[1:])
    last_step = {}
    limit = csv.field_size_limit(2**31 - 1)  # loadtxt puts no length limit on a seq_id
    try:
        for lineno, row in enumerate(csv.reader(lines), start=2):
            if len(row) != 2 + d_x:
                raise ValueError(f"{path}: malformed row {lineno}: expected {2 + d_x} fields")
            try:
                t, x = np.loadtxt([",".join(row[1:])], dtype=numbers, delimiter=",",
                                  comments=None).item()
            except ValueError:
                raise ValueError(f"{path}: malformed row {lineno}: non-numeric field") from None
            if not np.isfinite(x).all():
                raise ValueError(f"{path}: non-finite value at row {lineno}")
            if t <= last_step.get(row[0], t - 1):
                raise ValueError(
                    f"{path}: sequence {row[0]!r}: step index not ascending at row {lineno}"
                )
            last_step[row[0]] = t
    finally:
        csv.field_size_limit(limit)


def load_csv(path, d_x, seq_len, prefix_len):
    """Assemble a Dataset from rows ``seq_id,t,x0..x{d_x-1}``.

    The file is parsed in one vectorized pass and checked in numpy; sequences
    keep their order of first appearance.  Sequences shorter than seq_len
    are skipped (count logged); longer ones are truncated.  Malformed or
    non-finite rows and out-of-order step indices raise with the first
    offending row, and its sequence, named by a second, row-by-row read.
    """
    empty = Dataset(np.zeros((0, seq_len, d_x)), prefix_len)
    with open(path) as fh:
        line = fh.readline()
        if not line:
            return empty
        header = next(csv.reader([line]))
        if header != _csv_header(d_x):
            raise ValueError(f"{path}: unexpected header {header!r}")
        start = fh.tell()
        body = fh.read()
        if not body:
            return empty
        # loadtxt skips a blank line, a malformed row here unless inside a quoted
        # seq_id; the text is dropped before parsing, and reread only on a fault
        if body.startswith("\n") or "\n\n" in body:
            _raise_first_bad_row(path, io.StringIO(body), d_x)
        del body
        fh.seek(start)
        try:
            rows = _parse_rows(fh, d_x)
            first_seen = {}
            codes = np.fromiter(
                (first_seen.setdefault(s, len(first_seen)) for s in rows["seq_id"]), np.intp,
                len(rows),
            )
            order = np.argsort(codes, kind="stable")
            t, same_seq = rows["t"][order], np.diff(codes[order]) == 0
            if np.any(same_seq & (t[1:] <= t[:-1])) or not np.isfinite(rows["x"]).all():
                raise ValueError(f"{path}: non-finite value or step index not ascending")
            del first_seen, t, same_seq  # not held while the dataset is assembled
        except ValueError:
            fh.seek(start)
            _raise_first_bad_row(path, fh, d_x)
            raise

    counts = np.bincount(codes)
    kept = np.flatnonzero(counts >= seq_len)
    if kept.size < counts.size:
        log.warning(
            "load_csv: skipped %d sequence(s) shorter than %d", counts.size - kept.size, seq_len
        )
    starts = np.cumsum(counts) - counts
    data = rows["x"][order[starts[kept, None] + np.arange(seq_len)]]
    return Dataset(data, prefix_len)


def write_csv(path, header, blocks):
    """Stream a CSV to ``path`` atomically, holding one block of rows at a time.

    ``blocks`` yields ``(keys, values)``: one comma-joined key prefix per row,
    written unquoted, and a float array of the rows' values, written as their
    shortest repr.
    """

    def chunks():
        yield ",".join(header) + "\n"
        for keys, values in blocks:
            rows = np.asarray(values, dtype=np.float64).tolist()
            yield "".join(
                f"{key},{','.join(map(repr, row))}\n" for key, row in zip(keys, rows, strict=True)
            )

    atomic_write_text(path, chunks())


def save_csv(dataset, path):
    """Write a Dataset atomically in the trajectory CSV format, one sequence per block."""
    steps = range(dataset.seq_len)
    blocks = (([f"{i},{t}" for t in steps], seq) for i, seq in enumerate(dataset.data))
    write_csv(path, _csv_header(dataset.d_x), blocks)


def group_by_prefix(dataset, n_groups, group_size, radius):
    """Greedy disjoint clustering by flattened-prefix Euclidean distance.

    Each group collects the (nearest-first) trajectories within ``radius`` of
    an anchor, capped at ``group_size``.  Returns fewer groups when the pool
    runs out; undersized groups are counted in a warning.
    """
    if len(dataset) < group_size:
        raise ValueError("group_by_prefix: dataset smaller than group_size")
    prefixes = dataset.data[:, : dataset.prefix_len].reshape(len(dataset), -1)
    unused = np.ones(len(dataset), dtype=bool)
    groups = []
    undersized = 0
    while len(groups) < n_groups and unused.any():
        anchor = int(np.argmax(unused))
        dists = np.linalg.norm(prefixes - prefixes[anchor], axis=1)
        dists[~unused] = np.inf
        candidates = np.flatnonzero(dists <= radius)
        candidates = candidates[np.argsort(dists[candidates], kind="stable")][:group_size]
        if candidates.size < group_size:
            undersized += 1
        unused[candidates] = False
        groups.append(dataset.subset(candidates))
    if len(groups) < n_groups or undersized:
        log.warning(
            "group_by_prefix: %d group(s) formed (%d undersized) of %d requested",
            len(groups),
            undersized,
            n_groups,
        )
    return groups

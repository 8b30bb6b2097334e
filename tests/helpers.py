"""Shared test utilities: finite-difference oracles, a gradient reset for
parameter stores, error measures, frozen branch selection, analytic
parameter counts, the all-branch belief step and bound that the
selected-component step must reproduce, the one-hot weighted sum that the
row gather must reproduce, the per-step loss that the loss heads run once
per batch must reproduce (its bound is this module's ``step_elbo``, which
``all_branch_losses`` swaps for the all-branch bound), the arrays a tape
keeps for backward and its records counted by kind, one desk-scale training
step, a traced allocation peak, the unfused tape primitives that fused
records are checked against and test losses are built from, the
row-at-a-time CSV rendering and reading that the block writer and the
vectorized loader must reproduce, and the exact four-mode law with the
closed-form limit of the multi-step NLL under a Gaussian mixture."""
import collections
import contextlib
import csv
import io
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import types
from dataclasses import dataclass
from unittest import mock

import numpy as np

import vdm.autodiff as ad
import vdm.inference
import vdm.objective
from vdm.data import FOUR_MODE_HEADINGS, FOUR_MODE_NOISE, FOUR_MODE_STEP
from vdm.inference import latent_sample_batch
from vdm.nets import Gaussian, ModelConfig, VdmModel

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def fresh_python(code, *args, **env):
    """Run ``code`` with ``args`` as ``sys.argv[1:]`` in a new interpreter that
    imports ``vdm`` from this checkout, with ``env`` added to the environment;
    returns the completed process with text output."""
    full = dict(os.environ, **env)
    full["PYTHONPATH"] = SRC + os.pathsep + full.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=full, capture_output=True, text=True, timeout=300,
    )


def finite_diff_store(store, loss_fn, eps=1e-5, names=None):
    """Central finite differences of a scalar loss over a parameter store
    (a dict of name -> Tensor).

    ``loss_fn`` must be a pure function of the current parameter values
    (re-seed any rng inside it).
    """
    grads = {}
    for name in names or store:
        flat = store[name].value.ravel()
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = loss_fn()
            flat[i] = orig - eps
            fm = loss_fn()
            flat[i] = orig
            g[i] = (fp - fm) / (2.0 * eps)
        grads[name] = g.reshape(store[name].value.shape)
    return grads


def drop_grads(*stores):
    """Clear every gradient of the parameter stores, so the next backward
    starts from zeros."""
    for store in stores:
        for t in store.values():
            t.grad = None


def sample_entries(store, per_param, rng):
    """A few random flat indices per parameter array, for spot FD checks."""
    entries = []
    for name in store:
        size = store[name].value.size
        take = min(per_param, size)
        for idx in rng.choice(size, size=take, replace=False):
            entries.append((name, int(idx)))
    return entries


def finite_diff_entries(store, loss_fn, entries, eps=1e-5):
    """Central differences at selected (name, flat_index) coordinates only."""
    out = []
    for name, idx in entries:
        flat = store[name].value.ravel()
        orig = flat[idx]
        flat[idx] = orig + eps
        fp = loss_fn()
        flat[idx] = orig - eps
        fm = loss_fn()
        flat[idx] = orig
        out.append((fp - fm) / (2.0 * eps))
    return np.asarray(out)


def entry_grads(store, entries):
    """Gather analytic gradient values at the same coordinates; a parameter
    that backward never reached (``grad`` None) has gradient zero."""
    grads = {name: store[name].grad for name, _ in entries}
    return np.asarray([0.0 if grads[name] is None else grads[name].ravel()[idx]
                       for name, idx in entries])


def finite_diff_array(arr, loss_fn, eps=1e-5):
    """Central finite differences of a scalar loss w.r.t. a flat input array."""
    flat = arr.ravel()
    g = np.zeros(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = loss_fn()
        flat[i] = orig - eps
        fm = loss_fn()
        flat[i] = orig
        g[i] = (fp - fm) / (2.0 * eps)
    return g.reshape(arr.shape)


def rel_error(got, want):
    """Scale-normalized worst-case deviation between two gradient arrays."""
    got = np.asarray(got)
    want = np.asarray(want)
    scale = max(np.abs(want).max(), 1e-10)
    return np.abs(got - want).max() / scale


def row_writer_csv(header, rows):
    """CSV text as ``csv.writer`` renders it with floats as ``repr(float(v))``.

    ``rows`` holds (key fields, float values) pairs.  This is the rendering
    every vdm CSV writer used before ``vdm.data.write_csv``, kept as its
    byte-identity reference.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for keys, values in rows:
        writer.writerow(list(keys) + [repr(float(v)) for v in values])
    return buf.getvalue()


def rerendered_csv(path, n_keys):
    """The file at ``path`` parsed and rendered again by ``row_writer_csv``.

    Floats parse back exactly from their shortest repr, so this equals the
    file's text exactly when the file was written in the reference rendering.
    """
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return row_writer_csv(header, [(row[:n_keys], map(float, row[n_keys:])) for row in rows])


def row_reader_csv(path, d_x, seq_len):
    """The trajectory CSV at ``path`` read one row at a time by ``csv.reader``
    and ``float``; returns the (N, seq_len, d_x) array and the number of
    sequences skipped as shorter than seq_len.

    This is the loader ``vdm.data.load_csv`` replaced, kept as its reference:
    the same arrays, the same skipped count, and the same errors, in the same
    words and at the same rows, for input in numpy's number grammar.
    """
    sequences = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return np.zeros((0, seq_len, d_x)), 0
        if header != ["seq_id", "t"] + [f"x{i}" for i in range(d_x)]:
            raise ValueError(f"{path}: unexpected header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2 + d_x:
                raise ValueError(f"{path}: malformed row {lineno}: expected {2 + d_x} fields")
            seq_id = row[0]
            try:
                t = int(row[1])
                values = [float(v) for v in row[2:]]
            except ValueError:
                raise ValueError(f"{path}: malformed row {lineno}: non-numeric field") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: non-finite value at row {lineno}")
            steps = sequences.setdefault(seq_id, [])
            if steps and t <= steps[-1][0]:
                raise ValueError(
                    f"{path}: sequence {seq_id!r}: step index not ascending at row {lineno}"
                )
            steps.append((t, values))
    kept = [
        [v for _, v in steps[:seq_len]] for steps in sequences.values() if len(steps) >= seq_len
    ]
    data = np.asarray(kept, dtype=np.float64).reshape(len(kept), seq_len, d_x)
    return data, len(sequences) - len(kept)


def captured_arrays(fn):
    """The distinct ndarrays a backward closure keeps alive: those in its
    cells, in tuples and lists there, and in the closures it captures in
    turn.  A captured Tensor is a parent, not an array the closure adds."""
    found, seen = {}, set()

    def visit(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found[id(obj)] = obj
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item)
        elif isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                visit(cell.cell_contents)

    visit(fn)
    return list(found.values())


def tape_saved_bytes(tape):
    """Bytes a tape keeps for backward: the distinct ndarrays its backward
    closures capture plus its record outputs, deduplicated by id."""
    arrays = {}
    for out, _, back in tape.records:
        for t in out if type(out) is tuple else (out,):
            arrays[id(t.value)] = t.value
        for arr in captured_arrays(back):
            arrays[id(arr)] = arr
    return sum(arr.nbytes for arr in arrays.values())


@contextlib.contextmanager
def traced_peak():
    """Trace allocations in the block; yields a namespace whose ``bytes``
    holds tracemalloc's peak and ``current`` the bytes still held, both read
    as the block ends, once it has ended."""
    peak = types.SimpleNamespace(bytes=None, current=None)
    tracemalloc.start()
    try:
        yield peak
        peak.current, peak.bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def record_census(tape):
    """How many records of each kind a tape holds, a kind being the function
    that defines the record's backward closure, such as ``gru_cell``."""
    return collections.Counter(back.__qualname__.split(".")[0] for _, _, back in tape.records)


def desk_training_step():
    """The model and tape of one training step at Lorenz desk scale, with the
    backward root ``train`` adds, and that root."""
    config = ModelConfig(d_x=3, d_z=6, d_h=32, k=13)
    model = VdmModel.initialize(config, np.random.default_rng(0))
    batch = np.random.default_rng(1).normal(size=(32, 30, 3))
    with ad.Tape() as tape:
        bd = vdm.objective.total_loss(model, batch, np.random.default_rng(2))
        root = ad.linear_combination((1.0, 1.0), (bd.total_node, bd.disc_node))
    return model, tape, root


@contextlib.contextmanager
def frozen_branch_selection(step_branches):
    """Inside the block every belief step takes its selected branches from
    ``step_branches`` instead of its branch likelihoods.

    ``step_branches`` holds one (B,) index array per filtering step, as
    ``LossBreakdown.step_branches`` records them; each ``total_loss`` call
    over the same batch takes them again from the first, so finite
    differences see the same branch selection as the analytic pass.
    """
    branches = itertools.cycle(step_branches)

    def recorded(loglik, mode, rng=None):
        branch = next(branches)
        assert branch.shape == np.shape(loglik)[:1], (branch.shape, np.shape(loglik))
        return branch

    with mock.patch.object(vdm.inference, "select_branch", recorded):
        yield


def parameter_counts(config):
    """Analytic parameter counts for (model, discriminator); init-independent."""

    def lin(i, o):
        return i * o + o

    model = (
        lin(config.d_x, 32) + lin(32, 32) + lin(32, 2 * config.d_z)
        + lin(config.d_h, 64) + lin(64, 64) + lin(64, 2 * config.d_z)
        + lin(config.d_z + config.d_h, 32) + lin(32, 32) + lin(32, 2 * config.d_x)
        + lin(config.d_h + config.d_x, 64) + lin(64, 64) + lin(64, 2 * config.d_z)
        + 3 * lin(config.d_z + config.d_h, config.d_h)
    )
    disc = (
        3 * lin(config.d_x + config.d_h, config.d_h)
        + lin(config.d_h + config.d_x, 32) + lin(32, 32) + lin(32, 1)
    )
    return model, disc


def reference_export_prior(model, x_prefix, n_draws, rng):
    """Predictive-prior draws with the transition network run again on each
    step's branch states: filter the (1, P, d_x) prefix, take the priors at
    h_0 = 0 for step 0 and at the k branch states of each later step, then
    draw a branch index and a standard normal per draw, step by step."""
    belief = vdm.inference.belief_init(model, x_prefix[:, 0])
    states = [np.zeros((1, model.config.d_h))]
    for t in range(1, x_prefix.shape[1]):
        belief, info = vdm.inference.belief_step(model, belief, x_prefix[:, t], rng)
        states.append(info.branch_states_flat.value)
    out = []
    for s in states:
        prior = model.transition_prior(ad.Tensor(s))
        idx = rng.integers(0, s.shape[0], size=n_draws)
        eps = rng.standard_normal((n_draws, model.config.d_z))
        out.append(prior.mean.value[idx] + prior.std.value[idx] * eps)
    return out


# ---------------------------------------------------------------------------
# the all-branch belief step: k mixture components built and collapsed with
# one-hot indicator weights, kept as the reference for the step that builds
# only the selected component
# ---------------------------------------------------------------------------

def weighted_sum(weights, tensors):
    """For each tensor of B*k rows of width d, flat or as (B, k, d), the
    (B, d) sum over its k branches weighted by the (B, k) ``weights``, as one
    record: the gather ``ad.take_rows`` replaces, for one-hot weights."""
    b, k = weights.shape
    w3 = weights[:, :, None]
    tensors = tuple(tensors)
    outs = tuple((w3 * t.value.reshape(b, k, -1)).sum(axis=1) for t in tensors)

    def back(g):
        return tuple(
            None if gi is None else (np.expand_dims(gi, 1) * w3).reshape(t.value.shape)
            for t, gi in zip(tensors, g)
        )

    return ad._emit(outs, tensors, back)


@dataclass
class AllBranchInfo:
    branch_states_flat: ad.Tensor  # (B*k, d_h)
    x_rep: ad.Tensor              # (B*k, d_x) the observation repeated per branch
    q_flat: Gaussian              # (B*k, d_z) mixture components
    prior_flat: Gaussian          # (B*k, d_z) transition priors at each branch
    branch_loglik: ad.Tensor      # (B*k,)
    branch: np.ndarray            # (B,) selected branch indices


def all_branch_belief_step(model, belief, x, rng):
    """``vdm.inference.belief_step`` as it was before the branch was picked
    first: the inference net runs on all B*k branch states and a
    ``weighted_sum`` with the one-hot weights ``np.eye(k)[branch]`` collapses
    the k components.  It draws the same rng stream, so it gives the same
    belief."""
    cfg = model.config
    x_arr = np.asarray(x, dtype=np.float64)
    b, k = x_arr.shape[0], cfg.k
    z_flat = latent_sample_batch(belief.collapsed, cfg, rng)
    s_flat = model.gru_advance(z_flat, belief.expected_h)
    x_rep = ad.Tensor(np.repeat(x_arr, k, axis=0))
    q_flat = model.infer_component(s_flat, x_rep)
    prior_flat = model.transition_prior(s_flat)
    em = model.emit(prior_flat.mean, s_flat)
    loglik = ad.gaussian_log_pdf(x_rep, em.mean, em.std)
    branch = vdm.inference.select_branch(loglik.value.reshape(b, k), cfg.weighting_mode, rng)
    expected_h, mean, std = weighted_sum(np.eye(k)[branch], (s_flat, q_flat.mean, q_flat.std))
    belief = vdm.inference.MixtureBelief(expected_h=expected_h, collapsed=Gaussian(mean, std))
    info = AllBranchInfo(s_flat, x_rep, q_flat, prior_flat, loglik, branch)
    return belief, info


def weighted_bound(weights, recon, kl, const):
    """Per row, sum_k w * recon - sum_k w * kl - const, for flat (B*k,)
    reconstruction and KL terms, as one record."""
    b, k = weights.shape
    rv, kv = recon.value, kl.value
    out = (weights * rv.reshape(b, k)).sum(axis=1) - (weights * kv.reshape(b, k)).sum(axis=1)
    out = out - const

    def back(g):
        g = np.expand_dims(g, 1)
        return (g * weights).reshape(rv.shape), (-g * weights).reshape(kv.shape)

    return ad._emit(out, (recon, kl), back)


def all_branch_elbo(model, info, recon_eps):
    """The evidence bound of one all-branch step: reconstruction and KL on
    all B*k components, then the weighted selection; ``recon_eps`` is
    (B*k, d_z)."""
    k = model.config.k
    z_tilde = ad.reparameterize(info.q_flat.mean, info.q_flat.std, recon_eps)
    em = model.emit(z_tilde, info.branch_states_flat)
    recon = ad.gaussian_log_pdf(info.x_rep, em.mean, em.std)
    q, p = info.q_flat, info.prior_flat
    kl = ad.gaussian_kl(q.mean, q.std, p.mean, p.std)
    return weighted_bound(np.eye(k)[info.branch], recon, kl, math.log(k))


def step_elbo(model, x, belief, info, recon_eps):
    """The bound ``per_step_total_loss`` runs on each step, which
    ``all_branch_losses`` swaps for the all-branch bound: that of the
    selected component on its B rows, read from the new belief and the
    step's info; ``recon_eps`` is the step's (B*k, d_z) reconstruction
    noise, of which the selected branches' rows are used."""
    b, k = len(x), model.config.k
    q, prior = belief.collapsed, info.prior
    eps = recon_eps[np.arange(b) * k + info.branch]
    return vdm.objective._selected_elbo(
        model, x, belief.expected_h, q.mean, q.std, prior.mean, prior.std, eps, k
    )


@contextlib.contextmanager
def all_branch_losses():
    """Inside the block ``per_step_total_loss`` filters with the all-branch
    step and bound."""
    def all_branch_step_elbo(model, x, belief, info, recon_eps):
        return all_branch_elbo(model, info, recon_eps)

    with mock.patch.object(vdm.objective, "belief_step", all_branch_belief_step), \
            mock.patch.object(sys.modules[__name__], "step_elbo", all_branch_step_elbo):
        yield


# ---------------------------------------------------------------------------
# the per-step loss: every loss head run inside the filtering loop on each
# step's B rows, kept as the reference for the loss heads run once per batch
# ---------------------------------------------------------------------------

def series_sum_of_means(*series):
    """For each sequence of tensors, the left-to-right sum of their means,
    as a scalar tensor, one record for all: the per-step form of
    ``ad.sum_of_means``."""
    series = tuple(tuple(terms) for terms in series)
    outs = []
    for terms in series:
        total = terms[0].value.mean()
        for t in terms[1:]:
            total = total + t.value.mean()
        outs.append(total)
    parents = tuple(t for terms in series for t in terms)

    def back(g):
        return tuple(
            None if gi is None else np.broadcast_to(gi / t.value.size, t.value.shape).copy()
            for gi, terms in zip(g, series)
            for t in terms
        )

    return ad._emit(tuple(outs), parents, back)


def per_step_total_loss(model, batch, rng):
    """``vdm.objective.total_loss`` with every loss head inside the filtering
    loop, as it was before the heads moved after it: the same rng stream and
    the same terms.  It calls ``vdm.objective.belief_step`` as the module
    holds it and the bound ``step_elbo`` as this module holds it, so
    ``all_branch_losses`` swaps in the all-branch step and bound."""
    obj = vdm.objective
    cfg = model.config
    arr = np.asarray(batch, dtype=np.float64)
    b, t_len, _ = arr.shape

    belief = vdm.inference.belief_init(model, arr[:, 0])
    use_adv = cfg.omega2 > 0.0
    if use_adv:
        h_disc = ad.Tensor(np.zeros((b, cfg.d_h)))

    elbo_terms, pred_terms, gen_terms, disc_terms = [], [], [], []
    breakdown = obj.LossBreakdown(0.0, 0.0, 0.0, 0.0)
    for t in range(1, t_len):
        x_t = arr[:, t]
        try:
            belief, info = obj.belief_step(model, belief, x_t, rng)
            recon_eps = rng.standard_normal((b * cfg.k, cfg.d_z))
            elbo_t = step_elbo(model, x_t, belief, info, recon_eps)
            if not np.all(np.isfinite(elbo_t.value)):
                raise FloatingPointError("non-finite bound")
        except FloatingPointError as err:
            raise FloatingPointError(f"total_loss: {err} at step {t}") from None
        breakdown.step_branches.append(info.branch)

        if use_adv:
            h_disc = model.disc_step(ad.Tensor(arr[:, t - 1]), h_disc)
            pick = np.arange(b) * cfg.k + rng.integers(0, cfg.k, size=b)
            (s_sel,) = ad.take_rows(pick, (info.branch_states_flat,))
            prior = model.transition_prior(s_sel)
            z_gen = ad.reparameterize(prior.mean, prior.std, rng.standard_normal((b, cfg.d_z)))
            em = model.emit(z_gen, s_sel)
            x_gen = ad.reparameterize(em.mean, em.std, rng.standard_normal((b, cfg.d_x)))
            gen_t, disc_t = obj.adv_regularizer(model, h_disc, x_t, x_gen)
            gen_terms.append(gen_t)
            disc_terms.append(disc_t)

        elbo_terms.append(elbo_t)
        pred_terms.append(ad.log_mean_exp(info.branch_loglik, cfg.k))

    if use_adv:
        elbo_sum, pred_sum, gen_sum, disc_sum = series_sum_of_means(
            elbo_terms, pred_terms, gen_terms, disc_terms
        )
        total = ad.linear_combination(
            (-1.0, -cfg.omega1, cfg.omega2), (elbo_sum, pred_sum, gen_sum)
        )
        breakdown.adv = float(gen_sum.value)
        breakdown.disc_loss = float(disc_sum.value)
        breakdown.disc_node = disc_sum
    else:
        elbo_sum, pred_sum = series_sum_of_means(elbo_terms, pred_terms)
        total = ad.linear_combination((-1.0, -cfg.omega1), (elbo_sum, pred_sum))
    breakdown.elbo = float(elbo_sum.value)
    breakdown.pred = float(pred_sum.value)
    breakdown.total = float(total.value)
    breakdown.total_node = total
    if not math.isfinite(breakdown.total):
        raise FloatingPointError("total_loss: non-finite total")
    return breakdown


# ---------------------------------------------------------------------------
# unfused tape primitives: the compositions that fused records replace, kept
# as their references
# ---------------------------------------------------------------------------

def concat(tensors, axis=-1):
    tensors = tuple(tensors)
    values = [t.value for t in tensors]
    splits = np.cumsum([v.shape[axis] for v in values])[:-1]
    return ad._emit(
        np.concatenate(values, axis=axis),
        tensors,
        lambda g: tuple(np.split(g, splits, axis=axis)),
    )


def reshape(a, shape):
    old = a.value.shape
    return ad._emit(a.value.reshape(shape), (a,), lambda g: (g.reshape(old),))


def narrow(a, axis, start, size):
    """Contiguous slice of ``size`` entries along ``axis`` starting at ``start``."""
    idx = [slice(None)] * a.value.ndim
    idx[axis] = slice(start, start + size)
    idx = tuple(idx)
    shape = a.value.shape

    def back(g):
        full = np.zeros(shape, dtype=np.float64)
        full[idx] = g
        return (full,)

    return ad._emit(a.value[idx].copy(), (a,), back)


def expand_dim(a, axis, reps):
    """Insert an axis of length ``reps`` by broadcasting; gradient sums it out."""
    expanded = np.expand_dims(a.value, axis)
    target = list(expanded.shape)
    target[axis] = reps
    return ad._emit(
        np.broadcast_to(expanded, target).copy(),
        (a,),
        lambda g: (g.sum(axis=axis),),
    )


def logsumexp(a, axis):
    """Numerically stable log-sum-exp along ``axis`` (max shift is constant)."""
    m = np.max(a.value, axis=axis, keepdims=True)
    shifted = exp(sub(a, ad.Tensor(m)))
    return add(log(reduce_sum(shifted, axis=axis)), ad.Tensor(np.squeeze(m, axis=axis)))


def exp_clamp(a, lo, hi):
    """exp(clip(a, lo, hi)) as one record, as the Gaussian heads computed
    their std before ``gaussian_mlp``; the gradient passes only through the
    interior."""
    av = a.value
    out = np.exp(np.clip(av, lo, hi))
    return ad._emit(out, (a,), lambda g: (g * out * ((av > lo) & (av < hi)),))


# ---------------------------------------------------------------------------
# elementwise and reduction primitives with no caller in the package: the
# algebra the tests build losses and unfused references from
# ---------------------------------------------------------------------------

def _unbroadcast(grad, shape):
    """Reduce a broadcasted gradient back to ``shape``: the package's records
    never broadcast, so these binary primitives reduce their own gradients."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _check_broadcast(name, a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(
            f"{name}: shapes {a.shape} and {b.shape} do not broadcast"
        ) from None


def add(a, b):
    _check_broadcast("add", a.value, b.value)
    return ad._emit(
        a.value + b.value,
        (a, b),
        lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)),
    )


def sub(a, b):
    _check_broadcast("sub", a.value, b.value)
    return ad._emit(
        a.value - b.value,
        (a, b),
        lambda g: (_unbroadcast(g, a.value.shape), -_unbroadcast(g, b.value.shape)),
    )


def mul(a, b):
    _check_broadcast("mul", a.value, b.value)
    return ad._emit(
        a.value * b.value,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.value, a.value.shape),
            _unbroadcast(g * a.value, b.value.shape),
        ),
    )


def div(a, b):
    _check_broadcast("div", a.value, b.value)
    inv = 1.0 / b.value
    return ad._emit(
        a.value * inv,
        (a, b),
        lambda g: (
            _unbroadcast(g * inv, a.value.shape),
            _unbroadcast(-g * a.value * inv * inv, b.value.shape),
        ),
    )


def neg(a):
    return ad._emit(-a.value, (a,), lambda g: (-g,))


def matmul(a, b):
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ValueError(
            f"matmul: incompatible shapes {a.value.shape} and {b.value.shape}"
        )
    av, bv = a.value, b.value
    return ad._emit(av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g))


def relu(a):
    mask = a.value > 0.0
    return ad._emit(np.where(mask, a.value, 0.0), (a,), lambda g: (g * mask,))


def sigmoid(a):
    out = ad._sigmoid(a.value.copy())
    return ad._emit(out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a):
    out = np.tanh(a.value)
    return ad._emit(out, (a,), lambda g: (g * (1.0 - out * out),))


def exp(a):
    out = np.exp(a.value)
    return ad._emit(out, (a,), lambda g: (g * out,))


def log(a):
    if np.any(a.value <= 0.0):
        raise ValueError("log: input must be strictly positive")
    av = a.value
    return ad._emit(np.log(av), (a,), lambda g: (g / av,))


def square(a):
    av = a.value
    return ad._emit(av * av, (a,), lambda g: (2.0 * g * av,))


def clamp(a, lo, hi):
    """Elementwise clip; gradient passes only through the interior."""
    mask = (a.value > lo) & (a.value < hi)
    return ad._emit(np.clip(a.value, lo, hi), (a,), lambda g: (g * mask,))


def reduce_sum(a, axis=None, keepdims=False):
    shape = a.value.shape

    def back(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, shape).copy(),)

    return ad._emit(a.value.sum(axis=axis, keepdims=keepdims), (a,), back)


def reduce_mean(a, axis=None, keepdims=False):
    shape = a.value.shape
    n = a.value.size if axis is None else shape[axis]

    def back(g):
        if axis is None:
            return (np.broadcast_to(g / n, shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp / n, shape).copy(),)

    return ad._emit(a.value.mean(axis=axis, keepdims=keepdims), (a,), back)


# ---------------------------------------------------------------------------
# the exact four-mode law and the multi-step NLL's closed-form limit
# ---------------------------------------------------------------------------

def four_mode_law(x0, horizon, noise_std=FOUR_MODE_NOISE):
    """The exact law of the next ``horizon`` steps of four-mode trajectories
    from their (N, 2) points ``x0``: the mode is uniform and independent of
    x0, and given mode m the flattened (H*2,) continuation is Gaussian with
    mean x0 + t * 0.5 * heading_m at step t = 1..H and random-walk covariance
    noise_std^2 min(s, t) (x) I_2.  Returns the (4,) mode weights, the
    (N, 4, H*2) means and the shared (H*2, H*2) covariance."""
    t = np.arange(1, horizon + 1)
    steps = t[None, :, None] * FOUR_MODE_STEP * FOUR_MODE_HEADINGS[:, None, :]  # (4, H, 2)
    means = (np.asarray(x0)[:, None, None, :] + steps[None]).reshape(len(x0), 4, -1)
    cov = noise_std ** 2 * np.kron(np.minimum.outer(t, t), np.eye(2))
    return np.full(4, 0.25), means, cov


def sample_four_mode_law(x0, horizon, n, rng, noise_std=FOUR_MODE_NOISE):
    """(N, n, horizon, 2) draws from ``four_mode_law``: a uniform mode per
    draw, then the heading's steps plus cumulated isotropic noise."""
    modes = rng.integers(0, 4, size=(len(x0), n))
    steps = FOUR_MODE_HEADINGS[modes] * FOUR_MODE_STEP  # (N, n, 2)
    noise = rng.standard_normal((len(x0), n, horizon, 2)) * noise_std
    return np.asarray(x0)[:, None, None] + np.cumsum(steps[:, :, None] + noise, axis=2)


def _mixture_log_density(y, weights, means, cov):
    """(N,) log sum_m weights_m N(y; means[:, m], cov) for (N, D) points."""
    chol = np.linalg.cholesky(cov)
    white = np.linalg.solve(chol, (y[:, None] - means).reshape(-1, len(cov)).T).T
    log_det = 2.0 * np.log(np.diag(chol)).sum()
    log_n = -0.5 * (len(cov) * ad.LOG_2PI + log_det + (white ** 2).sum(-1))
    return np.logaddexp.reduce(log_n.reshape(means.shape[:2]) + np.log(weights), axis=1)


def multi_step_nll_limit(truths, weights, means, cov, reduction):
    """The n -> infinity limits of ``multi_step_nll`` for forecasts drawn from
    the Gaussian mixture sum_m weights_m N(means[:, m], cov), and of the
    relative variance of its kernel, both (N,).

    With e = |f - y|^2 / s, s = H*D under ``mean`` and 1 under ``sum``, the
    kernel exp(-e / 2) has the expectation (2 pi s)^{D'/2} sum_m w_m
    N(y; mu_m, cov + s I) over D' = H*D values, so the limit is
    1/2 log 2 pi - log of that; its square is the kernel at s / 2.
    """
    y = np.asarray(truths).reshape(len(truths), -1)
    n_values = y.shape[1]
    s = float(n_values) if reduction == "mean" else 1.0

    def log_moment(scale):  # log E exp(-|f - y|^2 / (2 scale))
        return (0.5 * n_values * math.log(2.0 * math.pi * scale)
                + _mixture_log_density(y, weights, means, cov + scale * np.eye(n_values)))

    log_mean = log_moment(s)
    rel_var = np.expm1(log_moment(s / 2.0) - 2.0 * log_mean)
    return 0.5 * ad.LOG_2PI - log_mean, rel_var

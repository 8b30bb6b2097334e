"""Array-valued reverse-mode automatic differentiation over numpy float64.

A ``Tape`` records every primitive executed while it is active; ``backward``
replays the records in exact reverse order, accumulating gradients additively
at fan-out points.  With no tape active all operations are plain numpy
evaluations, which keeps rollout / evaluation paths cheap.  A ``Tensor``
holds float64 values, or float32 ones when it is given a float32 array: the
tape-free forecast rollout runs the same primitives in float32, and
recording a float32 value on a tape raises, so everything differentiated
stays float64.

A record may return a tuple of outputs; its backward then receives a tuple
of gradients, with ``None`` for an output that nothing read.  A record's
backward returns a gradient for every parent, ``None`` only where its own
output's gradient is ``None``, and ``backward`` drops those of parents that
are neither recorded nor ``requires_grad``.  Every primitive is a fused
record (``sigmoid_mlp3``, ``gaussian_mlp``, ``gru_cell``,
``gaussian_log_pdf``, ``gaussian_kl`` and the filtering and loss glue after
them, down to ``linear_combination``): each forward gives,
bit for bit, the values of the composition of elementwise primitives it
replaces, and each backward is written out analytically in the same
floating-point operations as that composition's.  ``Tensor`` has no
arithmetic operators, so no unfused record reaches the tape unnoticed.
"""
from __future__ import annotations

import contextvars
import math

import numpy as np

__all__ = [
    "Tape",
    "Tensor",
    "as_tensor",
    "backward",
    "LOG_2PI",
    "sigmoid_mlp3",
    "gaussian_mlp",
    "gru_cell",
    "gaussian_log_pdf",
    "gaussian_kl",
    "reparameterize",
    "take_rows",
    "select_bound",
    "log_mean_exp",
    "gan_losses",
    "concat_rows",
    "sum_of_means",
    "linear_combination",
]

LOG_2PI = float(np.log(2.0 * np.pi))

_FLOAT32, _FLOAT64 = np.dtype(np.float32), np.dtype(np.float64)

# per thread, so a worker's ``Tape.pause`` cannot clear another thread's tape
_ACTIVE_TAPE = contextvars.ContextVar("vdm_active_tape", default=None)


class Tape:
    """Ordered record of primitive operations from one forward pass."""

    def __init__(self):
        # (out, parents, backward_fn) in execution order; out is a Tensor or
        # a tuple of Tensors
        self.records = []

    def __enter__(self):
        if _ACTIVE_TAPE.get() is not None:
            raise RuntimeError("a Tape is already active; tapes do not nest")
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPE.reset(self._token)
        return False

    class pause:
        """Temporarily deactivate the active tape (constant-only regions)."""

        def __enter__(self):
            self._token = _ACTIVE_TAPE.set(None)
            return self

        def __exit__(self, *exc):
            _ACTIVE_TAPE.reset(self._token)
            return False


class Tensor:
    """A float64 array plus a gradient slot for leaf parameters, None until
    filled.  A float32 array stays float32; anything else becomes float64."""

    __slots__ = ("value", "requires_grad", "grad", "_from_tape")

    def __init__(self, value, requires_grad=False):
        if type(value) is not np.ndarray or value.dtype != _FLOAT32:
            value = np.asarray(value, dtype=np.float64)
        self.value = value
        self.requires_grad = requires_grad
        self.grad = None
        self._from_tape = False

    @property
    def shape(self):
        return self.value.shape

    def detach(self):
        return Tensor(self.value)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(value, parents, backward_fn):
    """Wrap ``value``, an array or a tuple of arrays, in output tensors; with
    a tape active, record them with their parents and backward closure."""
    multi = type(value) is tuple
    out = tuple(Tensor(v) for v in value) if multi else Tensor(value)
    tape = _ACTIVE_TAPE.get()
    if tape is not None:
        outs = out if multi else (out,)
        for t in (*parents, *outs):
            if t.value.dtype != _FLOAT64:
                raise ValueError(f"a Tape records float64 values only, got {t.value.dtype}")
        for t in outs:
            t._from_tape = True
        tape.records.append((out, parents, backward_fn))
    return out


def backward(tape, loss):
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

    ``loss`` must be a scalar produced under ``tape``.  Gradients of leaf
    tensors accumulate (+=) from zeros; ``adam_step`` drops them after its update.
    A record's backward gives each parent a gradient of that parent's shape:
    nothing is broadcast.  Only recorded and ``requires_grad`` parents receive
    theirs; the others' are dropped.  The network records rebuild their
    hidden layers and gates from the parameter values, which a ``detach``
    shares, so no parameter may change between a record's forward and
    ``backward``: ``train`` calls ``adam_step`` after it.
    """
    if loss.value.ndim != 0:
        raise ValueError(f"backward: loss must be a scalar, got shape {loss.value.shape}")
    grads = {id(loss): np.ones((), dtype=np.float64)}

    def deposit(t, g):
        if t._from_tape:
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g
        elif t.requires_grad:
            if t.grad is None:
                t.grad = np.zeros_like(t.value)
            t.grad += g

    for out, parents, backward_fn in reversed(tape.records):
        if type(out) is tuple:
            g = tuple([grads.pop(id(t), None) for t in out])
            if all(x is None for x in g):
                continue
        else:
            g = grads.pop(id(out), None)
            if g is None:
                continue
        for parent, pg in zip(parents, backward_fn(g)):
            if pg is not None:
                deposit(parent, pg)


# ---------------------------------------------------------------------------
# fused records: one record each, forward bit-identical to the composed
# primitives; a closure keeps what its backward cannot rebuild from its parents
# (the networks no hidden layer or gate), and with no tape active _emit drops
# the closure and those arrays with it; a backward returns every parent's
# gradient and leaves to ``backward`` which parents receive one
# ---------------------------------------------------------------------------

def _sigmoid(a):
    """The logistic function 1 / (1 + exp(-a)), computed in place of ``a``.

    Within 2.3e-16 of the two-branch formula and of ``scipy.special.expit``:
    below a = -709.78 exp(-a) overflows to inf and the result is 0 (or a
    subnormal), so the overflow and underflow flags are expected here.
    """
    with np.errstate(over="ignore", under="ignore"):
        np.negative(a, out=a)
        np.exp(a, out=a)
        a += 1.0
        np.reciprocal(a, out=a)
    return a


def _affine(x, w, b):
    out = x @ w
    out += b
    return out


def _affine_relu(x, w, b):
    out = _affine(x, w, b)
    # fmax sends NaN to 0 as relu's np.where(a > 0, a, 0) does; it differs
    # only in keeping the sign of a -0.0 pre-activation, which equals 0.0
    np.fmax(out, 0.0, out=out)
    return out


def _mlp3_hidden(inputs, weights):
    """The (B, d_i) inputs concatenated along the last axis, and the two ReLU
    hidden layers h0 and h1 over them."""
    xv = np.concatenate([t.value for t in inputs], -1) if len(inputs) > 1 else inputs[0].value
    h0 = _affine_relu(xv, weights[0].value, weights[1].value)
    return xv, h0, _affine_relu(h0, weights[2].value, weights[3].value)


def _mlp3_forward(name, inputs, weights):
    """Run the three layers on the concatenated (B, d_i) inputs; returns the
    raw output."""
    if any(t.value.ndim != 2 for t in inputs):
        raise ValueError(
            f"{name}: expected (B, d) inputs, got shapes {[t.value.shape for t in inputs]}"
        )
    return _affine(_mlp3_hidden(inputs, weights)[2], weights[4].value, weights[5].value)


def _mlp3_backward(g, inputs, weights):
    """Gradients of the inputs, then of the six weights, from the gradient
    ``g`` of the raw output; the concatenated input and hidden layers are
    rebuilt by the forward's own calls, bit for bit while the weights hold."""
    w0, b0, w1, b1, w2, b2 = weights
    xv, h0, h1 = _mlp3_hidden(inputs, weights)
    grads = [None] * 6
    for i, (inp, w, b) in ((2, (h1, w2, b2)), (1, (h0, w1, b1)), (0, (xv, w0, b0))):
        grads[2 * i] = inp.T @ g
        grads[1 + 2 * i] = g.sum(axis=0)
        if i > 0:
            g = g @ w.value.T
            np.multiply(g, inp > 0.0, out=g)
    ends = np.cumsum([t.value.shape[-1] for t in inputs])[:-1]
    return tuple(np.split(g @ w0.value.T, ends, axis=1)) + tuple(grads)


def sigmoid_mlp3(inputs, weights):
    """Three linear layers with ReLU on the two hidden layers and the
    logistic function on the output.

    ``inputs`` is a sequence of (B, d_i) tensors, concatenated along the last
    axis; ``weights`` is (w0, b0, w1, b1, w2, b2).
    """
    inputs, weights = tuple(inputs), tuple(weights)
    out = _sigmoid(_mlp3_forward("sigmoid_mlp3", inputs, weights))

    def back(g):
        return _mlp3_backward(g * out * (1.0 - out), inputs, weights)

    return _emit(out, inputs + weights, back)


def gaussian_mlp(inputs, weights, d, clamp):
    """The three layers of ``sigmoid_mlp3`` with a diagonal-Gaussian head in
    place of the logistic: returns (mean, std).

    The 2d raw outputs split into a mean and a raw log std; the std is
    exp(clip(raw, -clamp, clamp)), whose gradient passes only through the
    interior of the clip, kept as a bool mask of the clipped values.
    """
    inputs, weights = tuple(inputs), tuple(weights)
    raw = _mlp3_forward("gaussian_mlp", inputs, weights)
    if raw.shape[-1] != 2 * d:
        raise ValueError(f"gaussian_mlp: expected {2 * d} raw outputs, got {raw.shape[-1]}")
    mean = raw[:, :d].copy()
    std = np.clip(raw[:, d:], -clamp, clamp)
    inside = (std > -clamp) & (std < clamp)
    np.exp(std, out=std)

    def back(g):
        g_mean, g_std = g
        g_raw = np.zeros((std.shape[0], 2 * d))
        if g_std is not None:
            g_raw[:, d:] = g_std * std * inside
        if g_mean is not None:
            g_raw[:, :d] = g_mean
        return _mlp3_backward(g_raw, inputs, weights)

    return _emit((mean, std), inputs + weights, back)


def _gru_gates(xv, hv, wr, br, wu, bu, wc, bc):
    """[x, h], the gates r and u, [x, r * h] and the candidate c on (R, d) rows;
    [x, r * h] is a copy of [x, h] whose h columns r scales in place, and
    tanh runs in place."""
    xh = np.concatenate([xv, hv], axis=-1)
    r = _sigmoid(_affine(xh, wr.value, br.value))
    u = _sigmoid(_affine(xh, wu.value, bu.value))
    xrh = xh.copy()
    xrh[:, xv.shape[-1]:] *= r
    c = _affine(xrh, wc.value, bc.value)
    return xh, r, u, xrh, np.tanh(c, out=c)


def gru_cell(x, h, wr, br, wu, bu, wc, bc):
    """One gated-recurrent-unit update on (B*k, d_x) inputs from (B, d_h)
    states, each state row serving its k consecutive input rows: r =
    sigmoid([x, h] wr + br), u = sigmoid([x, h] wu + bu), c = tanh([x, r * h]
    wc + bc) and h' = u * h + (1 - u) * c, so u carries the state through.
    Backward keeps no gate: it reruns ``_gru_gates`` on the repeated state,
    bit for bit while the weights hold, and sums the state gradient over
    each row's k branches.
    """
    xv, hv = x.value, h.value
    if xv.ndim != 2 or hv.ndim != 2:
        raise ValueError(f"gru_cell: expected (B, d) inputs, got {xv.shape} and {hv.shape}")
    k = len(xv) // len(hv) if len(hv) else 1
    if len(xv) != k * len(hv):
        raise ValueError(f"gru_cell: {len(xv)} input rows, not a multiple of {len(hv)} states")
    hk = np.repeat(hv, k, axis=0) if k > 1 else hv
    d_x = xv.shape[-1]
    # _gru_gates' u and c, bit for bit, with at most three gate-size arrays
    # alive: r scales the h columns of [x, h] in place, turning it into
    # [x, r * h], and is dropped; [x, r * h] goes before the output is made
    xh = np.concatenate([xv, hk], axis=-1)
    u = _sigmoid(_affine(xh, wu.value, bu.value))
    xh[:, d_x:] *= _sigmoid(_affine(xh, wr.value, br.value))
    c = _affine(xh, wc.value, bc.value)
    del xh
    np.tanh(c, out=c)
    out = u * hk
    np.subtract(1.0, u, out=u)  # (1 - u) * c in u's buffer
    u *= c
    out += u

    def back(g):
        hk = np.repeat(hv, k, axis=0) if k > 1 else hv
        xh, r, u, xrh, c = _gru_gates(xv, hk, wr, br, wu, bu, wc, bc)
        ga_c = g * (1.0 - u) * (1.0 - c * c)
        g_xrh = ga_c @ wc.value.T
        g_rh = g_xrh[:, d_x:]
        ga_r = g_rh * hk * r * (1.0 - r)
        ga_u = g * (hk - c) * u * (1.0 - u)
        g_xh = ga_r @ wr.value.T + ga_u @ wu.value.T
        g_h = g_xh[:, d_x:] + g * u + g_rh * r
        grads = [g_xh[:, :d_x] + g_xrh[:, :d_x],
                 g_h.reshape(len(hv), k, -1).sum(axis=1) if k > 1 else g_h]
        for ga, inp in ((ga_r, xh), (ga_u, xh), (ga_c, xrh)):
            grads += [inp.T @ ga, ga.sum(axis=0)]
        return tuple(grads)

    return _emit(out, (x, h, wr, br, wu, bu, wc, bc), back)


def gaussian_log_pdf(x, mean, std):
    """log N(x; mean, diag(std**2)) summed over the last axis; std > 0."""
    z = (x.value - mean.value) * (1.0 / std.value)
    out = ((-0.5 * LOG_2PI - np.log(std.value)) - 0.5 * (z * z)).sum(axis=-1)

    def back(g):
        inv = 1.0 / std.value
        ge = np.expand_dims(g, -1)
        gx = -(ge * z) * inv
        return gx, -gx, ge * inv * (z * z - 1.0)

    return _emit(out, (x, mean, std), back)


def gaussian_kl(qm, qs, pm, ps):
    """KL(N(qm, qs**2) || N(pm, ps**2)) for diagonal Gaussians, summed over the last axis."""
    inv = 1.0 / ps.value
    a = qs.value * inv
    b = (qm.value - pm.value) * inv
    per_dim = 0.5 * ((a * a + b * b) - 1.0) + np.log(ps.value) - np.log(qs.value)
    out = per_dim.sum(axis=-1)

    def back(g):
        ge = np.expand_dims(g, -1)
        gqm = ge * b * inv
        return gqm, ge * (a * inv - 1.0 / qs.value), -gqm, ge * inv * (1.0 - a * a - b * b)

    return _emit(out, (qm, qs, pm, ps), back)


# ---------------------------------------------------------------------------
# filtering and loss glue: mixture branches are k consecutive rows of a
# (B*k, ...) array, and a branch choice is a constant (B,) index array
# ---------------------------------------------------------------------------

def reparameterize(mean, std, eps):
    """mean + std * eps for (R, d) Gaussian rows and a constant (R*k, d)
    array ``eps``: each Gaussian row serves its k consecutive eps rows."""
    mv, sv = mean.value, std.value
    r, d = mv.shape
    eps3 = eps.reshape(r, len(eps) // r if r else 0, d)  # numpy infers no axis of an empty array
    out = (mv[:, None] + sv[:, None] * eps3).reshape(eps.shape)

    def back(g):
        g3 = g.reshape(eps3.shape)
        return g3.sum(axis=1), (g3 * eps3).sum(axis=1)

    return _emit(out, (mean, std), back)


def take_rows(rows, tensors):
    """For each tensor, its rows at the distinct indices ``rows``; the
    backward scatters each gradient into zeros at those rows."""
    tensors = tuple(tensors)
    outs = tuple(t.value[rows] for t in tensors)

    def scatter(t, g):
        full = np.zeros(t.value.shape)
        full[rows] = g
        return full

    def back(g):
        return tuple(None if gi is None else scatter(t, gi) for t, gi in zip(tensors, g))

    return _emit(outs, tensors, back)


def select_bound(recon, kl, const):
    """recon - kl - const per row: the evidence bound of one filtering step
    from the selected component's (B,) reconstruction and KL terms."""
    out = recon.value - kl.value - const
    return _emit(out, (recon, kl), lambda g: (g, -g))


def log_mean_exp(a, k):
    """log of the mean of exp(a) over each run of k consecutive entries of a
    (R*k,) tensor, shifted by the run's maximum, which is held constant."""
    av = a.value.reshape(-1, k)
    m = np.max(av, axis=1, keepdims=True)
    e = np.exp(av - m)
    s = e.sum(axis=1)
    out = (np.log(s) + np.squeeze(m, axis=1)) - math.log(k)
    return _emit(out, (a,), lambda g: (((g / s)[:, None] * e).ravel(),))


def gan_losses(d_gen, d_real, d_fake, floor):
    """Non-saturating GAN losses from (B, 1) discriminator probabilities,
    each clipped to [floor, 1 - floor]; returns two (B,) tensors:
    generator -log d_gen and discriminator -log d_real - log(1 - d_fake).
    The gradient passes only through the interior of each clip."""
    lo, hi = floor, 1.0 - floor
    gv, rv = d_gen.value, d_real.value
    fv = 1.0 - d_fake.value
    cg, cr, cf = np.clip(gv, lo, hi), np.clip(rv, lo, hi), np.clip(fv, lo, hi)
    gen = -np.log(cg)
    disc = -np.log(cr) - np.log(cf)

    def back(g):
        g_gen, g_disc = g
        grads = [None, None, None]
        if g_gen is not None:
            grads[0] = (-g_gen.reshape(gv.shape) / cg) * ((gv > lo) & (gv < hi))
        if g_disc is not None:
            g_disc = g_disc.reshape(rv.shape)
            grads[1] = (-g_disc / cr) * ((rv > lo) & (rv < hi))
            grads[2] = -((-g_disc / cf) * ((fv > lo) & (fv < hi)))
        return tuple(grads)

    b = gv.shape[0]
    return _emit((gen.reshape(b), disc.reshape(b)), (d_gen, d_real, d_fake), back)


def concat_rows(*series):
    """For each sequence of tensors or of constant arrays, their rows stacked
    in order along the first axis: the tensors' as one record, whose backward
    slices each gradient back into the pieces, the arrays' as plain arrays."""
    tensors = tuple(pieces for pieces in series if isinstance(pieces[0], Tensor))
    outs = tuple(np.concatenate([t.value for t in pieces]) for pieces in tensors)
    bounds = [np.cumsum([0] + [t.value.shape[0] for t in pieces]) for pieces in tensors]

    def back(g):
        return tuple(
            None if gi is None else gi[start:stop]
            for gi, ends in zip(g, bounds)
            for start, stop in zip(ends[:-1], ends[1:])
        )

    stacked = iter(_emit(outs, tuple(t for pieces in tensors for t in pieces), back))
    return tuple(next(stacked) if isinstance(p[0], Tensor) else np.concatenate(p) for p in series)


def sum_of_means(n_steps, *tensors):
    """For each tensor of ``n_steps`` equal blocks of rows, the left-to-right
    sum of the blocks' means, as a scalar tensor; returns one per tensor."""
    outs = []
    for t in tensors:
        blocks = t.value.reshape(n_steps, -1)
        total = blocks[0].mean()
        for block in blocks[1:]:
            total = total + block.mean()
        outs.append(total)

    def back(g):
        return tuple(
            None if gi is None else np.full(t.value.shape, gi / (t.value.size // n_steps))
            for gi, t in zip(g, tensors)
        )

    return _emit(tuple(outs), tensors, back)


def linear_combination(coeffs, scalars):
    """sum_i c_i * s_i, left to right, for constant float coefficients and
    scalar tensors; the gradient of s_i is c_i * g."""
    coeffs, scalars = tuple(float(c) for c in coeffs), tuple(scalars)
    if len(coeffs) != len(scalars) or any(s.value.ndim for s in scalars):
        raise ValueError("linear_combination: expected one coefficient per scalar tensor")
    out = coeffs[0] * scalars[0].value
    for c, s in zip(coeffs[1:], scalars[1:]):
        out = out + c * s.value
    return _emit(out, scalars, lambda g: tuple(c * g for c in coeffs))

"""Array-valued reverse-mode automatic differentiation over numpy float64.

A ``Tape`` records every primitive executed while it is active; ``backward``
replays the records in exact reverse order, accumulating gradients additively
at fan-out points.  With no tape active all operations are plain numpy
evaluations, which keeps rollout / evaluation paths cheap.

Besides the elementwise and structural primitives there are fused layer
primitives (``mlp3``, ``gru_cell``, ``exp_clamp``, ``gaussian_log_pdf``,
``gaussian_kl``): each is one tape record whose forward gives, bit for bit,
the values of the composition of primitives it replaces and whose backward
is written out analytically.
"""
from __future__ import annotations

import contextvars

import numpy as np
from scipy.special import expit

__all__ = [
    "Tape",
    "Tensor",
    "as_tensor",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "relu",
    "sigmoid",
    "tanh",
    "exp",
    "log",
    "square",
    "clamp",
    "reduce_sum",
    "reduce_mean",
    "concat",
    "reshape",
    "narrow",
    "expand_dim",
    "logsumexp",
    "LOG_2PI",
    "mlp3",
    "gru_cell",
    "exp_clamp",
    "gaussian_log_pdf",
    "gaussian_kl",
]

LOG_2PI = float(np.log(2.0 * np.pi))

# per thread, so a worker's ``Tape.pause`` cannot clear another thread's tape
_ACTIVE_TAPE = contextvars.ContextVar("vdm_active_tape", default=None)


class Tape:
    """Ordered record of primitive operations from one forward pass."""

    def __init__(self):
        self.records = []  # (out, parents, backward_fn) in execution order

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
    """A float64 array plus a gradient slot for leaf parameters."""

    __slots__ = ("value", "requires_grad", "grad", "_from_tape")

    def __init__(self, value, requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(self.value) if requires_grad else None
        self._from_tape = False

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def item(self):
        return float(self.value)

    def detach(self):
        return Tensor(self.value)

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.value.shape}, requires_grad={self.requires_grad})"

    # operator sugar; scalars and ndarrays are lifted to constant tensors
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, as_tensor(other))

    def __rtruediv__(self, other):
        return div(as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))

    def __neg__(self):
        return neg(self)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _emit(value, parents, backward_fn):
    out = Tensor(value)
    tape = _ACTIVE_TAPE.get()
    if tape is not None:
        out._from_tape = True
        tape.records.append((out, parents, backward_fn))
    return out


def _wants(t):
    """Whether a backward pass needs the gradient of parent ``t``."""
    return t._from_tape or t.requires_grad


def _unbroadcast(grad, shape):
    """Reduce a broadcasted gradient back to ``shape``."""
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


def backward(tape, loss):
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

    ``loss`` must be a scalar produced under ``tape``.  Gradients of leaf
    tensors accumulate (+=); call ``zero_grad`` between independent passes.
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
            t.grad += _unbroadcast(np.asarray(g, dtype=np.float64), t.value.shape)

    for out, parents, backward_fn in reversed(tape.records):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        for parent, pg in zip(parents, backward_fn(g)):
            if pg is not None:
                deposit(parent, pg)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b):
    _check_broadcast("add", a.value, b.value)
    return _emit(
        a.value + b.value,
        (a, b),
        lambda g: (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)),
    )


def sub(a, b):
    _check_broadcast("sub", a.value, b.value)
    return _emit(
        a.value - b.value,
        (a, b),
        lambda g: (_unbroadcast(g, a.value.shape), -_unbroadcast(g, b.value.shape)),
    )


def mul(a, b):
    _check_broadcast("mul", a.value, b.value)
    return _emit(
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
    return _emit(
        a.value * inv,
        (a, b),
        lambda g: (
            _unbroadcast(g * inv, a.value.shape),
            _unbroadcast(-g * a.value * inv * inv, b.value.shape),
        ),
    )


def neg(a):
    return _emit(-a.value, (a,), lambda g: (-g,))


def matmul(a, b):
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ValueError(
            f"matmul: incompatible shapes {a.value.shape} and {b.value.shape}"
        )
    av, bv = a.value, b.value
    return _emit(av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g))


def relu(a):
    mask = a.value > 0.0
    return _emit(np.where(mask, a.value, 0.0), (a,), lambda g: (g * mask,))


def sigmoid(a):
    out = expit(a.value)
    return _emit(out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a):
    out = np.tanh(a.value)
    return _emit(out, (a,), lambda g: (g * (1.0 - out * out),))


def exp(a):
    out = np.exp(a.value)
    return _emit(out, (a,), lambda g: (g * out,))


def log(a):
    if np.any(a.value <= 0.0):
        raise ValueError("log: input must be strictly positive")
    av = a.value
    return _emit(np.log(av), (a,), lambda g: (g / av,))


def square(a):
    av = a.value
    return _emit(av * av, (a,), lambda g: (2.0 * g * av,))


def clamp(a, lo, hi):
    """Elementwise clip; gradient passes only through the interior."""
    mask = (a.value > lo) & (a.value < hi)
    return _emit(np.clip(a.value, lo, hi), (a,), lambda g: (g * mask,))


def reduce_sum(a, axis=None, keepdims=False):
    shape = a.value.shape

    def back(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, shape).copy(),)

    return _emit(a.value.sum(axis=axis, keepdims=keepdims), (a,), back)


def reduce_mean(a, axis=None, keepdims=False):
    shape = a.value.shape
    n = a.value.size if axis is None else shape[axis]

    def back(g):
        if axis is None:
            return (np.broadcast_to(g / n, shape).copy(),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp / n, shape).copy(),)

    return _emit(a.value.mean(axis=axis, keepdims=keepdims), (a,), back)


def concat(tensors, axis=-1):
    tensors = tuple(tensors)
    values = [t.value for t in tensors]
    base = values[0].ndim
    if any(v.ndim != base for v in values):
        raise ValueError(
            f"concat: rank mismatch {[v.shape for v in values]}"
        )
    sizes = [v.shape[axis] for v in values]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        return tuple(np.split(g, splits, axis=axis))

    return _emit(np.concatenate(values, axis=axis), tensors, back)


def reshape(a, shape):
    old = a.value.shape
    return _emit(a.value.reshape(shape), (a,), lambda g: (g.reshape(old),))


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

    return _emit(a.value[idx].copy(), (a,), back)


def expand_dim(a, axis, reps):
    """Insert an axis of length ``reps`` by broadcasting; gradient sums it out."""
    expanded = np.expand_dims(a.value, axis)
    target = list(expanded.shape)
    target[axis] = reps
    return _emit(
        np.broadcast_to(expanded, target).copy(),
        (a,),
        lambda g: (g.sum(axis=axis),),
    )


def logsumexp(a, axis):
    """Numerically stable log-sum-exp along ``axis`` (max shift is constant)."""
    m = np.max(a.value, axis=axis, keepdims=True)
    shifted = exp(sub(a, Tensor(m)))
    return add(log(reduce_sum(shifted, axis=axis)), Tensor(np.squeeze(m, axis=axis)))


# ---------------------------------------------------------------------------
# fused layer primitives: one record each, forward bit-identical to the
# composed primitives; with no tape active _emit drops the backward closure
# and with it every saved activation
# ---------------------------------------------------------------------------

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


def mlp3(x, w0, b0, w1, b1, w2, b2):
    """Three linear layers with ReLU on the two hidden layers; ``x`` is (B, d)."""
    if x.value.ndim != 2:
        raise ValueError(f"mlp3: expected a (B, d) input, got shape {x.value.shape}")
    xv = x.value
    h0 = _affine_relu(xv, w0.value, b0.value)
    h1 = _affine_relu(h0, w1.value, b1.value)
    out = _affine(h1, w2.value, b2.value)

    def back(g):
        grads = [None] * 7
        for i, (inp, w, b) in ((2, (h1, w2, b2)), (1, (h0, w1, b1)), (0, (xv, w0, b0))):
            if _wants(w):
                grads[1 + 2 * i] = inp.T @ g
            if _wants(b):
                grads[2 + 2 * i] = g.sum(axis=0)
            if i > 0:
                g = g @ w.value.T
                np.multiply(g, inp > 0.0, out=g)
            elif _wants(x):
                grads[0] = g @ w.value.T
        return tuple(grads)

    return _emit(out, (x, w0, b0, w1, b1, w2, b2), back)


def gru_cell(x, h, wr, br, wu, bu, wc, bc):
    """One gated-recurrent-unit update on (B, d_x) inputs and (B, d_h) states.

    r = sigmoid([x, h] wr + br), u = sigmoid([x, h] wu + bu),
    c = tanh([x, r * h] wc + bc) and h' = u * h + (1 - u) * c: the update
    gate u carries the previous state through.
    """
    xv, hv = x.value, h.value
    if xv.ndim != 2 or hv.ndim != 2:
        raise ValueError(f"gru_cell: expected (B, d) inputs, got {xv.shape} and {hv.shape}")
    xh = np.concatenate([xv, hv], axis=-1)
    r = expit(_affine(xh, wr.value, br.value))
    u = expit(_affine(xh, wu.value, bu.value))
    xrh = np.concatenate([xv, r * hv], axis=-1)
    c = np.tanh(_affine(xrh, wc.value, bc.value))
    out = u * hv
    out += (1.0 - u) * c
    d_x = xv.shape[-1]

    def back(g):
        ga_c = g * (1.0 - u) * (1.0 - c * c)
        g_xrh = ga_c @ wc.value.T
        g_rh = g_xrh[:, d_x:]
        ga_r = g_rh * hv * r * (1.0 - r)
        ga_u = g * (hv - c) * u * (1.0 - u)
        grads = [None] * 8
        for i, (ga, w, b, inp) in enumerate(
            ((ga_r, wr, br, xh), (ga_u, wu, bu, xh), (ga_c, wc, bc, xrh))
        ):
            if _wants(w):
                grads[2 + 2 * i] = inp.T @ ga
            if _wants(b):
                grads[3 + 2 * i] = ga.sum(axis=0)
        if _wants(x) or _wants(h):
            g_xh = ga_r @ wr.value.T + ga_u @ wu.value.T
            if _wants(x):
                grads[0] = g_xh[:, :d_x] + g_xrh[:, :d_x]
            if _wants(h):
                grads[1] = g_xh[:, d_x:] + g * u + g_rh * r
        return tuple(grads)

    return _emit(out, (x, h, wr, br, wu, bu, wc, bc), back)


def exp_clamp(a, lo, hi):
    """exp(clip(a, lo, hi)); the gradient passes only through the interior."""
    av = a.value
    out = np.exp(np.clip(av, lo, hi))
    return _emit(
        out, (a,), lambda g: (g * out * ((av > lo) & (av < hi)) if _wants(a) else None,)
    )


def gaussian_log_pdf(x, mean, std):
    """log N(x; mean, diag(std**2)) summed over the last axis; std > 0."""
    inv = 1.0 / std.value
    z = (x.value - mean.value) * inv
    out = ((-0.5 * LOG_2PI - np.log(std.value)) - 0.5 * (z * z)).sum(axis=-1)

    def back(g):
        ge = np.expand_dims(g, -1)
        gx = -(ge * z) * inv
        return (
            _unbroadcast(gx, x.value.shape) if _wants(x) else None,
            _unbroadcast(-gx, mean.value.shape) if _wants(mean) else None,
            _unbroadcast(ge * inv * (z * z - 1.0), std.value.shape) if _wants(std) else None,
        )

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
        return (
            _unbroadcast(gqm, qm.value.shape) if _wants(qm) else None,
            _unbroadcast(ge * (a * inv - 1.0 / qs.value), qs.value.shape) if _wants(qs) else None,
            _unbroadcast(-gqm, pm.value.shape) if _wants(pm) else None,
            _unbroadcast(ge * inv * (1.0 - a * a - b * b), ps.value.shape) if _wants(ps) else None,
        )

    return _emit(out, (qm, qs, pm, ps), back)

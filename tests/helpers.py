"""Shared test utilities: finite-difference oracles, error measures and the
row-at-a-time CSV rendering that the block writer must reproduce."""
import csv
import io

import numpy as np


def finite_diff_store(store, loss_fn, eps=1e-5, names=None):
    """Central finite differences of a scalar loss over a ParameterStore.

    ``loss_fn`` must be a pure function of the current parameter values
    (re-seed any rng inside it).
    """
    grads = {}
    for name in names or store.names():
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


def sample_entries(store, per_param, rng):
    """A few random flat indices per parameter array, for spot FD checks."""
    entries = []
    for name in store.names():
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
    """Gather analytic gradient values at the same coordinates."""
    return np.asarray([store[name].grad.ravel()[idx] for name, idx in entries])


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

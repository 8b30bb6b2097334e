"""Small shared helpers: the divergence error, worker caps, atomic file writes, hashing."""
from __future__ import annotations

import hashlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor

__all__ = ["NonFiniteError", "worker_count", "parallel_map", "atomic_write_bytes",
           "atomic_write_text", "sha256_file"]


class NonFiniteError(FloatingPointError, ValueError):
    """A network input, a forecast, a log density or a prior draw is NaN or infinite.

    Inside training this means the run diverged; ``train`` catches
    FloatingPointError for that.  It is also a ValueError so callers that
    validate their own inputs keep one except clause.
    """


def worker_count():
    """Worker parallelism cap from VDM_THREADS (default 1, fully deterministic);
    a value that is not an integer >= 1 raises ValueError."""
    raw = os.environ.get("VDM_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"VDM_THREADS must be an integer >= 1, got {raw!r}")
    return workers


def parallel_map(fn, items):
    """Order-preserving map over items on at most VDM_THREADS workers: the
    calling thread and VDM_THREADS - 1 pool threads, each taking the next
    unclaimed item until none is left.  Once an item fails, workers claim no
    more, and the exception of the first failed item in item order is
    re-raised when every worker has stopped.

    Each item must carry its own rng state so results are identical at any
    worker count.
    """
    workers = min(worker_count(), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    results, errors = [None] * len(items), {}
    claims, lock = iter(range(len(items))), threading.Lock()

    def drain():
        while not errors:
            with lock:
                i = next(claims, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # re-raised once every worker stops
                errors[i] = exc

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
    for helper in helpers:
        helper.result()
    if errors:
        raise errors[min(errors)]
    return results


def atomic_write_bytes(path, payload):
    """Write bytes, or an iterable of bytes chunks, via a sibling temp file and
    rename, so readers never see partial files; on any error ``path`` is untouched.

    The file gets mode 0o666 less the umask, as ``open`` would give it.
    """
    chunks = [payload] if isinstance(payload, bytes) else payload
    path = os.fspath(path)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text):
    """Write UTF-8 text atomically; ``text`` is a str or an iterable of str chunks."""
    chunks = [text] if isinstance(text, str) else text
    atomic_write_bytes(path, (chunk.encode("utf-8") for chunk in chunks))


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()

"""Worker cap, parallel map determinism, atomic writes."""
import os
import re
import sys
import threading

import numpy as np
import pytest

from vdm import util
from vdm.util import atomic_write_text, parallel_map, sha256_file, worker_count


def test_worker_count_default_and_parsing(monkeypatch):
    monkeypatch.delenv("VDM_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("VDM_THREADS", "4")
    assert worker_count() == 4


@pytest.mark.parametrize("value", ["0", "-2", "four", "1.5", ""])
def test_worker_count_rejects_a_value_below_one_or_not_an_integer(monkeypatch, value):
    monkeypatch.setenv("VDM_THREADS", value)
    message = f"VDM_THREADS must be an integer >= 1, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        worker_count()


def test_parallel_map_identical_at_any_worker_count(monkeypatch):
    def task(seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(4).sum()

    items = list(range(20))
    monkeypatch.setenv("VDM_THREADS", "1")
    serial = parallel_map(task, items)
    monkeypatch.setenv("VDM_THREADS", "4")
    threaded = parallel_map(task, items)
    assert serial == threaded  # order-preserving and value-identical


def test_parallel_map_at_two_workers_shares_items_with_the_caller(monkeypatch):
    """VDM_THREADS=2 is the calling thread and one pool thread: the first two
    items meet at a barrier, so two threads run items, and they are the
    caller and one other; the results keep the items' order."""
    monkeypatch.setenv("VDM_THREADS", "2")
    meet, ran = threading.Barrier(2, timeout=10), {}

    def task(i):
        if i < 2:
            meet.wait()
        ran[i] = threading.get_ident()
        return i * i

    assert parallel_map(task, list(range(12))) == [i * i for i in range(12)]
    assert threading.get_ident() in ran.values()
    assert len(set(ran.values())) == 2


def test_parallel_map_runs_each_item_once_under_contention(monkeypatch):
    """Eight workers switching every microsecond: every item is claimed by
    exactly one worker, and the results keep the items' order."""
    monkeypatch.setenv("VDM_THREADS", "8")
    runs = []

    def task(i):
        runs.append(i)
        return -i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert parallel_map(task, list(range(3000))) == [-i for i in range(3000)]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(runs) == list(range(3000))


def test_parallel_map_reraises_an_items_exception_unchanged(monkeypatch):
    monkeypatch.setenv("VDM_THREADS", "2")
    error = KeyError("item 3")

    def task(i):
        if i == 3:
            raise error
        return i

    with pytest.raises(KeyError) as caught:
        parallel_map(task, list(range(8)))
    assert caught.value is error


def test_parallel_map_at_one_worker_starts_no_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool at VDM_THREADS=1")

    monkeypatch.setenv("VDM_THREADS", "1")
    monkeypatch.setattr(util, "ThreadPoolExecutor", no_pool)
    ran = set()
    assert parallel_map(lambda i: ran.add(threading.get_ident()) or -i, [1, 2, 3]) == [-1, -2, -3]
    assert ran == {threading.get_ident()}


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "first")
    atomic_write_text(target, "second")
    assert target.read_text() == "second"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_sha256_file_stable(tmp_path):
    target = tmp_path / "blob.bin"
    target.write_bytes(b"abc123")
    assert sha256_file(target) == sha256_file(target)
    assert len(sha256_file(target)) == 64

"""Worker cap, parallel map determinism, atomic writes."""
import os
import re

import numpy as np
import pytest

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

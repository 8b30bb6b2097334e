"""Same seed, same bytes, across revisions: tiny simulate, train, evaluate and
forecast runs at seed 0, and the gradients of one desk-scale training step,
hash to the values recorded in ``golden_bytes.json``.

The bytes depend on numpy and on the BLAS build, so the file records both
and a machine with others fails with a message naming them.  A change that
alters bytes on purpose regenerates the file from the repository root with

    PYTHONPATH=src python3 tests/test_golden_bytes.py

which prints each file and gradient entry whose hash changed, was added or
was dropped, against the file it overwrites.
"""
import json
import os
import sys
import tempfile

from helpers import fresh_python

TESTS = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS, "golden_bytes.json")
REGENERATE = "PYTHONPATH=src python3 tests/test_golden_bytes.py"

GOLDEN_RUN = r"""
import hashlib
import json
import os
import sys

import numpy as np

import vdm.cli
from vdm.autodiff import backward

work, tests = sys.argv[1:3]
sys.path.insert(0, tests)
from helpers import desk_training_step

os.chdir(work)  # relative paths keep the work directory out of run_record.json
sizes = ["--n-train", "64", "--n-val", "16", "--n-test", "16"]
shape = ["--d-h", "8", "--epochs", "2", "--batch-size", "16", "--val-forecasts", "5"]
for argv in (
    ["simulate", "--gen", "lorenz", "--out", "lz", *sizes, "--seq-len", "30",
     "--prefix-len", "10", "--n-groups", "2", "--group-size", "20"],
    ["simulate", "--gen", "four_mode", "--out", "fm", *sizes],
    ["train", "--data", "lz/manifest.json", "--out", "sca", *shape],
    ["train", "--data", "lz/manifest.json", "--out", "mc", *shape, "--sampler",
     "monte_carlo", "--k", "5", "--weighting", "categorical", "--omega2", "0"],
    ["train", "--data", "fm/manifest.json", "--out", "fm_run", *shape, "--d-z", "2"],
    ["evaluate", "--data", "lz/manifest.json", "--checkpoint", "sca/checkpoint.vdm",
     "--out", "ev", "--limit", "8", "--n-forecasts", "20", "--w-forecasts", "5"],
    ["forecast", "--data", "lz/manifest.json", "--checkpoint", "sca/checkpoint.vdm",
     "--out", "fc", "--n", "5", "--limit", "2", "--export-prior", "--prior-draws", "20"],
):
    assert vdm.cli.main([*argv, "--seed", "0"]) == 0, argv


def sha256(data):
    return hashlib.sha256(data).hexdigest()


files = {}
for root, _, names in os.walk("."):
    for name in names:
        path = os.path.join(root, name)
        with open(path, "rb") as fh:
            files[os.path.relpath(path)] = sha256(fh.read())
model, tape, root = desk_training_step()
backward(tape, root)
gradients = {f"{store}/{name}": sha256(t.grad.tobytes())
             for store in ("params", "disc") for name, t in getattr(model, store).items()}
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
                  "files": files, "gradients": gradients}))
"""


def golden_run(work):
    """The versions and hashes of one run in a fresh one-thread interpreter,
    its outputs written under ``work``."""
    proc = fresh_python(GOLDEN_RUN, work, TESTS, VDM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_outputs_and_gradients_match_the_golden_hashes(tmp_path):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    run = golden_run(tmp_path)
    for lib in ("numpy", "blas"):
        assert run[lib] == golden[lib], (
            f"golden_bytes.json was recorded with {lib} {golden[lib]!r}, this machine has "
            f"{run[lib]!r}; bytes may differ for that reason alone.  Regenerate the file "
            f"here with `{REGENERATE}` to compare revisions on this machine"
        )
    for kind in ("files", "gradients"):
        assert sorted(run[kind]) == sorted(golden[kind]), kind
        changed = sorted(name for name, digest in run[kind].items() if digest != golden[kind][name])
        assert not changed, f"{kind} whose bytes changed: {changed}"


def changed_entries(old, new):
    """One line for each file or gradient hash of ``new`` that differs from,
    or is missing in, ``old``, and for each entry of ``old`` that ``new``
    drops; and one for a numpy or BLAS version that changed."""
    lines = [f"{lib}: {old.get(lib)} -> {new[lib]}"
             for lib in ("numpy", "blas") if old.get(lib) != new[lib]]
    for kind in ("files", "gradients"):
        before, after = old.get(kind, {}), new[kind]
        for name in sorted(before.keys() | after.keys()):
            if name not in after:
                lines.append(f"{kind}: dropped {name}")
            elif name not in before:
                lines.append(f"{kind}: added {name}")
            elif before[name] != after[name]:
                lines.append(f"{kind}: changed {name}")
    return lines


def test_regeneration_names_each_changed_entry():
    old = {"numpy": "2.4", "blas": "b", "files": {"a": "1", "b": "2"}, "gradients": {"g": "1"}}
    new = {"numpy": "2.5", "blas": "b", "files": {"a": "1", "b": "3", "c": "4"}, "gradients": {}}
    assert changed_entries(old, new) == [
        "numpy: 2.4 -> 2.5", "files: changed b", "files: added c", "gradients: dropped g",
    ]
    assert changed_entries(new, new) == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        record = golden_run(work)
    previous = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as fh:
            previous = json.load(fh)
    print("\n".join(changed_entries(previous, record)) or "no hash changed")
    with open(GOLDEN, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(record['files'])} file and {len(record['gradients'])} gradient "
          f"hashes to {os.path.relpath(GOLDEN)}", file=sys.stderr)

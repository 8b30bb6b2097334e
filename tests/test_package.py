"""Package surface: the top-level exports match the README quick start,
every submodule export, every name a demo imports and every call site the
benchmark traces resolves, the fast demos run, and no command loads scipy."""
import ast
import glob
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import vdm

from helpers import fresh_python

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def readme_quick_start_names():
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = re.search(r"from vdm import \(([^)]*)\)", text)
    assert block, "README quick start has no `from vdm import (...)`"
    return [name.strip() for name in block.group(1).split(",") if name.strip()]


def test_public_api_is_the_readme_quick_start():
    names = readme_quick_start_names()
    assert sorted(vdm.__all__) == sorted(names)
    for name in names:
        assert callable(getattr(vdm, name)), name


SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(vdm.__path__, "vdm."))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_resolve(module):
    mod = importlib.import_module(module)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.__all__ lists {name!r}, which is not defined"


def demo_imports(path):
    """(module, name) for every ``from vdm... import name`` in a demo, read
    without running it."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vdm"
        for alias in node.names
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_imports_resolve(demo):
    imports = demo_imports(demo)
    assert imports, f"{demo} imports nothing from vdm"
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize(
    "demo", ["autodiff_tour.py", "cubature_sampling.py", "metrics_and_wasserstein.py"]
)
def test_demo_runs(demo):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


SCIPY_GUARD = r"""
import json
import os
import sys

import vdm
import vdm.cli


def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


work = sys.argv[1]
data, run = os.path.join(work, "lz"), os.path.join(work, "run")
manifest, ckpt = os.path.join(data, "manifest.json"), os.path.join(run, "checkpoint.vdm")
commands = {
    "simulate": ["simulate", "--gen", "lorenz", "--seed", "5", "--out", data,
                 "--n-train", "8", "--n-val", "2", "--n-test", "4", "--seq-len", "12",
                 "--prefix-len", "4", "--n-groups", "2", "--group-size", "4"],
    "train": ["train", "--data", manifest, "--seed", "3", "--out", run, "--d-z", "2",
              "--d-h", "4", "--k", "5", "--epochs", "1", "--batch-size", "16",
              "--val-forecasts", "5"],
    "forecast": ["forecast", "--data", manifest, "--checkpoint", ckpt, "--seed", "2",
                 "--out", os.path.join(work, "fc"), "--n", "3", "--limit", "2"],
    "evaluate": ["evaluate", "--data", manifest, "--checkpoint", ckpt, "--seed", "2",
                 "--out", os.path.join(work, "ev"), "--n-forecasts", "5",
                 "--w-forecasts", "2"],
}
loaded = {"import": scipy_loaded()}
for name, argv in commands.items():
    assert vdm.cli.main(argv) == 0, name
    loaded[name] = scipy_loaded()
with open(os.path.join(work, "ev", "metrics_report.csv")) as fh:
    loaded["evaluate_report"] = fh.read()
print(json.dumps(loaded))
"""


def test_every_benchmark_trace_target_resolves(monkeypatch):
    """Each (owner, attribute) that perfbench's worker wraps for its per-layer
    spans exists, so renaming a traced call site fails here instead of
    silently zeroing a metric.  ``vdm.cli.filter_sequence`` is a known stale
    pin: the CLI filters only through ``vdm.evaluation``."""
    importlib.import_module("vdm.cli")  # the worker runs commands through it
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", os.path.join(ROOT, "perfbench", "worker.py"))
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in worker._targets(vdm)
               if not hasattr(owner, attr)]
    assert missing == ["vdm.cli.filter_sequence"]


PIN_CALLS = r"""
import functools
import json
import os
import sys

import vdm
import vdm.cli

work, perfbench = sys.argv[1:3]
sys.path.insert(0, perfbench)
import worker

calls = {}


def counted(pin, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[pin] += 1
        return fn(*args, **kwargs)
    return wrapper


for owner, attr, _, _ in worker._targets(vdm):
    pin = f"{owner.__name__}.{attr}"
    calls[pin] = 0
    if hasattr(owner, attr):
        setattr(owner, attr, counted(pin, getattr(owner, attr)))
data, run = os.path.join(work, "lz"), os.path.join(work, "run")
manifest, ckpt = os.path.join(data, "manifest.json"), os.path.join(run, "checkpoint.vdm")
for argv in (
    ["simulate", "--gen", "lorenz", "--seed", "5", "--out", data, "--n-train", "8",
     "--n-val", "2", "--n-test", "4", "--seq-len", "12", "--prefix-len", "4",
     "--n-groups", "2", "--group-size", "4"],
    ["train", "--data", manifest, "--seed", "3", "--out", run, "--d-z", "2", "--d-h", "4",
     "--k", "5", "--epochs", "1", "--batch-size", "16", "--val-forecasts", "5"],
    ["evaluate", "--data", manifest, "--checkpoint", ckpt, "--seed", "2",
     "--out", os.path.join(work, "ev"), "--n-forecasts", "5", "--w-forecasts", "2"],
    ["forecast", "--data", manifest, "--checkpoint", ckpt, "--seed", "2",
     "--out", os.path.join(work, "fc"), "--n", "3", "--limit", "2", "--export-prior",
     "--prior-draws", "5"],
):
    assert vdm.cli.main(argv) == 0, argv[0]
print(json.dumps(sorted(pin for pin, n in calls.items() if n == 0)))
"""


def test_every_benchmark_trace_target_is_called(tmp_path):
    """Each pin perfbench's worker wraps is called by a tiny simulate, train,
    evaluate with groups and ``forecast --export-prior``, so a pin that
    resolves but is no longer on any command's path fails here.  Two are
    known: ``vdm.cli.filter_sequence`` does not resolve, and the W-distance
    protocol scores its sets without ``vdm.evaluation.wasserstein``."""
    proc = fresh_python(PIN_CALLS, tmp_path, os.path.join(ROOT, "perfbench"), VDM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    uncalled = json.loads(proc.stdout.splitlines()[-1])
    assert uncalled == ["vdm.cli.filter_sequence", "vdm.evaluation.wasserstein"]


def test_no_command_loads_scipy(tmp_path):
    """The package needs numpy only: importing it and running simulate,
    train, forecast and evaluate with groups (the W-distance included)
    leave scipy unloaded."""
    proc = fresh_python(SCIPY_GUARD, tmp_path, VDM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "w_distance" in loaded.pop("evaluate_report")
    for step in ("import", "simulate", "train", "forecast", "evaluate"):
        assert loaded[step] == [], step

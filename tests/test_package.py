"""Package surface: the top-level exports match the README quick start, and
the fast demos run."""
import os
import re
import subprocess
import sys

import pytest

import vdm

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

"""Smoke test: the quick demos run to completion.

Each demo runs as its own process in a temporary working directory, since
05_benchmark.py writes its report and grid into the current directory.
04_bayesian.py is left out for its run time (about 9 s).
"""

import os
import pathlib
import subprocess
import sys

import pytest

import hyperpolate

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
PACKAGE_ROOT = str(pathlib.Path(hyperpolate.__file__).resolve().parent.parent)


@pytest.mark.parametrize(
    "demo",
    ["01_regimes.py", "02_baselines.py", "03_symbolic_search.py", "05_benchmark.py"],
)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

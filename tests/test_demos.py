"""Smoke test of the demo scripts: each runs to completion from a copy in a
temporary directory and writes its output files there."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "averaging_regimes.py": [
        f"avg_{label}_eta{eta}.csv"
        for label in ("tail_weighted", "last_iterate") for eta in (0.9, 0.06)],
    "rate_landscape.py": ["rates_1a.csv", "rates_1b.csv", "rates_2.csv",
                          "rate_landscape.svg"],
    "tune_free_benchmark.py": ["benchmark.csv", "benchmark.svg"],
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) \
        == sorted(DEMOS)


@pytest.mark.parametrize("script", sorted(DEMOS))
def test_demo_runs_and_writes_its_outputs(tmp_path, script):
    shutil.copy(ROOT / "demos" / script, tmp_path)
    env = dict(os.environ, VROPT_CACHE_DIR=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    for name in DEMOS[script]:
        assert (tmp_path / "out" / name).is_file(), name

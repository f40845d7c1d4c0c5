"""Every demo script, the README quick start, and the benchmark's own test
suite run to completion against the package sources."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=SRC_ENV,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    """The first python block of README.md runs and gives the exact
    probability its comment states."""
    block = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    check = "from fractions import Fraction\nassert p == Fraction(7, 16), p\n"
    proc = subprocess.run([sys.executable, "-c", block + check], cwd=tmp_path, env=SRC_ENV,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_perfbench_tests_pass():
    """The benchmark's own tests, which check that every traced function and
    method still exists.  They run in a subprocess because ``tests`` and
    ``perfbench`` each have a top-level ``reference`` module."""
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

"""Smoke tests: the quick demos run against the current library API.

Demos 03-05 sample, benchmark or train for 15-40 s each with one BLAS
thread (demo 03's brute-force run is most of its time), so they are left
out of tier 1; CI runs them in a step of their own and checks demo 03's
"samples bitwise equal: True".
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_jacobian_structure_demo():
    out = run_demo("01_jacobian_structure.py")
    assert "probe-extracted diagonal matches brute force: True" in out


def test_line_graph_pruning_demo():
    run_demo("02_line_graph_pruning.py")

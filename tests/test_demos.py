"""Smoke tests: the quick demos run against the current library API.

Demos 03-05 sample, benchmark or train for minutes (demo 03's brute-force
run alone takes about two) and are left out for their run time.
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

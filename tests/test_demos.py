"""Demos run as scripts, and the README's code runs as written: each
exits 0 and prints the result it promises."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_disk_attainment_refinement_reaches_the_chord_energy():
    out = run_demo("disk_attainment_refinement.py")
    rows = [line.split() for line in out.splitlines() if line[:1].isdigit()]
    assert [row[0] for row in rows] == ["64", "128"]
    assert abs(float(rows[-1][1]) - 2.0) <= 1e-3


@pytest.mark.parametrize("name", [
    "annulus_least_gradient.py",
    "rof_counterexamples.py",
    "curvature_and_1d.py",
    "anisotropic_vector_counterexample.py",
])
def test_demo_prints_only_passing_verdicts(name):
    verdicts = re.findall(r"\b(True|False)\b", run_demo(name))
    assert verdicts and set(verdicts) == {"True"}


def test_readme_library_quick_start_runs_as_written():
    # the python block under "## Library quick start", verbatim: the
    # least-gradient annulus, whose infimum is the inner perimeter 2 pi
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    res = scope["res"]
    assert res.gap_relative <= 1e-4
    assert scope["report"].overall_pass
    energy = res.energy_history_raw[-1]
    assert abs(energy - 2 * np.pi) <= 5e-3 * 2 * np.pi

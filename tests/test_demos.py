"""Demos run as scripts: each exits 0 and prints the result it promises."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_disk_attainment_refinement_reaches_the_chord_energy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "disk_attainment_refinement.py")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()
            if line[:1].isdigit()]
    assert [row[0] for row in rows] == ["64", "128"]
    assert abs(float(rows[-1][1]) - 2.0) <= 1e-3

"""The benchmark's entry points still run against this tree.

``perfbench/`` is kept fixed between benchmark refreshes, so a change to
the library that removes a name it imports, or makes its set-up fail,
shows up here rather than only in a traced benchmark run.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lingrad import get_case

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_setup_only_prints_a_time(workload):
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0", "--setup-only"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=150)
    assert out.returncode == 0, out.stderr
    assert float(out.stdout.split()[-1]) > 0.0


def test_micro_calls_run_once_each():
    # each call micro.run times, on the names micro imports, at nx=16
    spec_ = importlib.util.spec_from_file_location(
        "perfbench_micro", PERFBENCH / "micro.py")
    micro = importlib.util.module_from_spec(spec_)
    spec_.loader.exec_module(micro)
    spec = get_case("annulus_least_gradient").build_spec(16)
    domain, f = spec.domain, spec.integrand
    u, z, zeta = micro.feasible_state(spec, np.random.default_rng(1))
    zmat = np.moveaxis(z + 0.1 * micro.discrete_gradient(domain, u),
                       (0, 1), (-2, -1))
    assert micro.discrete_divergence(domain, z).shape == u.shape
    assert f.prox_conjugate(domain.cell_centers, zmat, 0.5).shape == zmat.shape
    assert np.isfinite(micro.relaxed_energy(spec, u))
    assert micro.duality_gap(spec, u, z, zeta).dual_feasible
    z_rep, zeta_rep = micro.repair_dual(spec, z, zeta)
    assert z_rep.shape == (len(domain.operator.points), 1, 2)
    assert zeta_rep.shape == zeta.shape

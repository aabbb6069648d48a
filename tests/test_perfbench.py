"""The benchmark's entry points still run against this tree.

``perfbench/`` is kept fixed between benchmark refreshes, so a change to
the library that removes a name it imports, or makes its set-up fail,
shows up here rather than only in a traced benchmark run.
"""

import importlib.util
import json
import os
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
    assert z_rep.shape == (len(domain.points), 1, 2)
    assert zeta_rep.shape == zeta.shape


# the spans the per-layer metrics of a solve workload are read from
SOLVE_SPANS = {"solver.solve", "solver.duality_gap", "solver.repair_dual",
               "solver.nearest_boundary_extension",
               "geometry.GridDomain.__init__",
               "integrands.Integrand.prox_conjugate",
               "certificate.verify_least_gradient"}


def test_the_tracer_records_the_spans_of_a_solve():
    # spans.Tracer names its spans after the functions and classes it
    # wraps, so a name moved or renamed in lingrad would read as a
    # per-layer metric of 0; uninstall puts every original back
    code = (
        "import importlib.util\n"
        "import json\n"
        "import lingrad\n"
        "from lingrad.geometry import GridDomain\n"
        "spec_ = importlib.util.spec_from_file_location(\n"
        f"    'perfbench_spans', {str(PERFBENCH / 'spans.py')!r})\n"
        "spans = importlib.util.module_from_spec(spec_)\n"
        "spec_.loader.exec_module(spans)\n"
        "gap, grad = lingrad.solver.duality_gap, GridDomain.grad\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "spec = lingrad.get_case('annulus_least_gradient').build_spec(32)\n"
        "res = lingrad.solve(spec, lingrad.SolverConfig(gap_tol=1e-3))\n"
        "lingrad.verify_least_gradient(spec, res.u, res.z, zeta=res.zeta)\n"
        "tracer.uninstall()\n"
        "print(len(res.levels))\n"
        "print(json.dumps(sorted({s[0] for s in tracer.spans})))\n"
        "print(lingrad.solver.duality_gap is gap, GridDomain.grad is grad)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=150)
    assert out.returncode == 0, out.stderr
    levels, names, restored = out.stdout.splitlines()
    assert int(levels) > 1
    assert SOLVE_SPANS <= set(json.loads(names))
    assert restored == "True True"

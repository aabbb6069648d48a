"""Time to a certified duality gap, and to verify certificates, in lingrad.

Run from the root of a lingrad checkout:

    python3 perfbench/run.py --workload lg_annulus --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (wall_norm_s, setup_s, peak_rss_mb);
``--trace 1`` wraps the public calls of each layer module in spans and
prints the per-layer metrics instead, with the tracing overhead and the
layer microbenchmarks.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md in
this directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import os
import sys
import time

T_START = time.perf_counter()  # set-up time counts from here

# single-threaded BLAS/OpenMP: steadier on a shared machine, and within nproc
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name -> (gallery case, nx, certified rel-gap target, iteration cap)
SOLVE_WORKLOADS = {
    "lg_annulus": ("annulus_least_gradient", 96, 1e-3, 30000),
    "rof_annulus": ("rof_annulus", 192, 1e-3, 20000),
}
WORKLOADS = tuple(SOLVE_WORKLOADS) + ("analytic_certs",)
SETUP_SAMPLES = 5  # this process plus four fresh child processes
DEFAULT_ENERGY_RTOL = 0.05


def reference_energy(case_name):
    """Closed-form energy of the known minimizer, independent of lingrad."""
    if case_name == "annulus_least_gradient":
        return 2.0 * math.pi  # perimeter of the inner circle
    if case_name == "rof_annulus":
        # u = 0: boundary penalty 2 pi (1/2) (4/3) on the inner loop plus
        # (1/2) int (4/(3r) - 4/3)^2 over 1/2 < r < 1
        return 4.0 * math.pi / 3.0 + 16.0 * math.pi / 9.0 * (math.log(2.0) - 0.625)
    raise KeyError(case_name)


class Outcome:
    """Counts attempted and failed operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, reasons):
        self.attempted += 1
        self.failed += bool(reasons)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class SolveWorkload:
    """One operation: one solve to the certified target on a fresh domain."""

    def __init__(self, name):
        import lingrad

        self.lingrad = lingrad
        self.case_name, self.nx, self.target, self.cap = SOLVE_WORKLOADS[name]
        self.case = lingrad.get_case(self.case_name)
        self.rtol = (self.case.expected.energy_rtol
                     if self.case.expected.energy is not None else DEFAULT_ENERGY_RTOL)
        self.e_ref = reference_energy(self.case_name)
        self.verify = ("verify_least_gradient"
                       if self.case.expected.certificate == "least_gradient"
                       else "verify_scalar")
        self.last = None  # (spec, SolveResult, certificate report) of the latest solve
        self.clock = perf_counter  # times operations

    def warm_up(self):
        # one check period on the full-size problem: loads the lazy imports
        # (scipy.spatial in the warm start, scipy.sparse in repair_dual) and
        # runs every code path of the timed solve
        spec = self.case.build_spec(self.nx)
        self.lingrad.solve(spec, self.lingrad.SolverConfig(
            gap_tol=self.target, max_iters=self.lingrad.SolverConfig().check_every))

    def op(self):
        """Returns (seconds, failure reasons)."""
        lg = self.lingrad
        self.last = None  # so that peak memory does not depend on the op count
        spec = self.case.build_spec(self.nx)  # fresh: its Poisson LU is paid in the op
        t0 = self.clock()
        try:
            res = lg.solve(spec, lg.SolverConfig(gap_tol=self.target, max_iters=self.cap))
        except lg.errors.LingradError as exc:
            return self.clock() - t0, [f"{type(exc).__name__}: {exc}"]
        wall = self.clock() - t0
        reasons = []
        if not (res.converged and res.gap_relative <= self.target):
            reasons.append(f"rel gap {res.gap_relative:.3g} > {self.target:g} "
                           f"after {res.iterations} iterations")
        err = self.energy_rel_err(res)
        if not err <= self.rtol:
            reasons.append(f"energy rel err {err:.3g} > {self.rtol:g}")
        report = None
        try:
            report = getattr(lg, self.verify)(spec, res.u, res.z, zeta=res.zeta)
        except lg.errors.LingradError as exc:
            reasons.append(f"verify: {type(exc).__name__}: {exc}")
        self.last = (spec, res, report)
        return wall, reasons

    def energy_rel_err(self, res):
        return abs(res.energy_history_raw[-1] - self.e_ref) / self.e_ref

    def counts(self):
        """Exact solver counts from the latest SolveResult."""
        if self.last is None:
            return {}
        spec, res, _ = self.last
        hit = [int(i) for i, g in zip(res.check_iters, res.gap_history) if g <= 1e-2]
        return {
            "solver.iters": res.iterations,
            "solver.iters_to_1e-2": hit[0] if hit else 0,
            "solver.final_rel_gap": float(res.gap_relative),
            "solver.energy_rel_err": self.energy_rel_err(res),
            "geometry.inside_cells": int(spec.domain.inside_mask.sum()),
            "geometry.boundary_faces": len(spec.domain.boundary_faces),
        }

    def describe(self):
        if self.last is None:
            return f"{self.case_name} nx={self.nx}: no solve completed"
        _, res, report = self.last
        return (f"{self.case_name} nx={self.nx}: {res.iterations} iterations, "
                f"rel gap {res.gap_relative:.3e} (target {self.target:g}), "
                f"energy {res.energy_history_raw[-1]:.6f} (reference "
                f"{self.e_ref:.6f}, rtol {self.rtol:g}), grid certificate "
                f"pass = {report.overall_pass if report else None}")


class AnalyticWorkload:
    """One operation: verify every gallery case that ships reference fields."""

    CONE_POINTS = 16

    def __init__(self, seed):
        import numpy as np
        import lingrad

        self.lingrad = lingrad
        rng = np.random.default_rng(seed)
        self.ts = [float(t) for t in rng.uniform(0.5, 2.0, 3)]
        self.eps = 1e-2
        self.cone_b = [float(b) for b in rng.uniform(-0.49, 0.49, self.CONE_POINTS)
                       * self.eps]
        self.last = None
        self.clock = perf_counter  # times operations

    def warm_up(self):
        self.op()

    def op(self):
        lg = self.lingrad
        t0 = self.clock()
        reasons = []
        verdicts = {}
        try:
            f0 = lg.build_bad_f0(self.eps)
            cases = [lg.get_case("annulus_least_gradient"), lg.get_case("rof_annulus")]
            cases += [lg.get_case("rof_ball", t=t) for t in self.ts]
            cases += [lg.get_case("weighted_tv_1d"),
                      lg.gallery.anisotropic_counterexample(f0)]
            for case in cases:
                rep = case.verify_reference()  # at the case's tolerance, 1e4 samples
                verdicts[case.name] = verdicts.get(case.name, True) and rep.overall_pass
            sweep = max(lg.check_bad_grad(f0, 1.0, b) for b in self.cone_b)
        except lg.errors.LingradError as exc:
            return self.clock() - t0, [f"{type(exc).__name__}: {exc}"]
        wall = self.clock() - t0
        reasons += [f"{name} certificate failed" for name, ok in verdicts.items() if not ok]
        if not sweep <= 1e-6:
            reasons.append(f"rank-one gradient identity residual {sweep:.2e} > 1e-6")
        self.last = (verdicts, sweep)
        return wall, reasons

    def counts(self):
        return {}

    def describe(self):
        if self.last is None:
            return "no certification pass completed"
        verdicts, sweep = self.last
        ok = ", ".join(f"{n}={'pass' if v else 'FAIL'}" for n, v in verdicts.items())
        return (f"rof_ball t = {', '.join(f'{t:.4f}' for t in self.ts)}; {ok}; "
                f"cone sweep max residual {sweep:.2e} over {len(self.cone_b)} points")


def make_workload(name, seed):
    if name in SOLVE_WORKLOADS:
        return SolveWorkload(name)
    return AnalyticWorkload(seed)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def set_up(name, seed):
    """Import, build the workload, run one warm-up operation."""
    work = make_workload(name, seed)
    work.warm_up()
    return work, perf_counter() - T_START


def child_setup_seconds(name, seed):
    """Set-up time of a fresh process, which pays every import again."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return float(out.stdout.split()[-1])


def timed_ops(work, seconds, outcome):
    """Run operations for ``seconds``: at least one, and another only while
    it is expected to end in time, so a run never overshoots by a whole
    operation."""
    walls = []
    start = perf_counter()
    while True:
        wall, reasons = work.op()
        outcome.record(reasons)
        walls.append(wall)
        for r in reasons:
            print(f"  FAILED op {outcome.attempted}: {r}", flush=True)
        if perf_counter() - start + statistics.median(walls) > seconds:
            return walls


def machine_record():
    import numpy
    import scipy

    model, caches = "unknown", []
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches.append(f"L{level}{kind[0].lower()}={(idx / 'size').read_text().strip()}")
    except OSError:
        pass
    return (f"machine: cpus={os.cpu_count()} usable={len(os.sched_getaffinity(0))} "
            f"model={model!r} caches={'/'.join(caches) or 'unknown'} "
            f"python={platform.python_version()} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} blas_threads={os.environ['OMP_NUM_THREADS']}")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def end_to_end(args, work, own_setup, outcome):
    from calibrate import INTERVAL_S, REFERENCE_S, SpeedProbe

    setups = [own_setup] + [child_setup_seconds(args.workload, args.seed)
                            for _ in range(SETUP_SAMPLES - 1)]
    probe = SpeedProbe()
    work.clock = probe.clock
    try:
        with probe:
            walls = timed_ops(work, args.seconds, outcome)
    finally:
        work.clock = perf_counter
    # an operation's time adds up the speed of every moment it ran, so the
    # kernel times are averaged, not taken at their median
    wall, kernel = statistics.median(walls), statistics.fmean(probe.samples)
    print(f"  {work.describe()}")
    print(f"  ops={len(walls)} wall_s samples: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"  wall_s median {wall:.4f} s; speed probe: {len(probe.samples)} kernel runs "
          f"every {INTERVAL_S:g} s, mean {kernel * 1e3:.3f} ms (reference "
          f"{REFERENCE_S * 1e3:g} ms), quartiles " + " ".join(
              f"{q * 1e3:.3f}" for q in statistics.quantiles(probe.samples, n=4)) + " ms")
    print(f"  setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
    return {
        "wall_norm_s": (wall * REFERENCE_S / kernel, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer(args, work, outcome):
    import micro
    from spans import Tracer, median_or_zero as med

    # untraced and traced operations alternate, so that drift in the
    # machine's speed falls on both; their ratio is the tracing overhead
    tracer = Tracer()
    plain, traced, counts = [], [], {}
    start = perf_counter()
    # another pair only while it is expected to end within --seconds
    while not plain or (perf_counter() - start) * (1 + 1 / len(plain)) < args.seconds:
        plain += timed_ops(work, 0, outcome)
        counts = work.counts() or counts
        tracer.install()
        try:
            traced += timed_ops(work, 0, outcome)
        finally:
            tracer.uninstall()
    print(f"  {work.describe()}")
    n_ops = len(traced)
    d = tracer.durations

    def calls(name):
        return len(d(name)) / n_ops

    solve_s = sum(d("solver.solve"))
    gaps = d("solver.duality_gap", parent="solver.solve")
    repairs = tracer.durations_per_root("solver.repair_dual", "solver.solve")
    iters = counts.get("solver.iters", 0)
    metrics = {
        "energy.gradient_us": (med(d("energy.discrete_gradient"), 1e6), "us"),
        "energy.gradient_calls": (calls("energy.discrete_gradient"), "count"),
        "energy.divergence_us": (med(d("energy.discrete_divergence"), 1e6), "us"),
        "energy.divergence_calls": (calls("energy.discrete_divergence"), "count"),
        "energy.relaxed_energy_us": (med(d("energy.relaxed_energy"), 1e6), "us"),
        "energy.relaxed_energy_calls": (calls("energy.relaxed_energy"), "count"),
        "energy.io_bytes": (tracer.bytes_per_call(
            {"energy.discrete_gradient", "energy.discrete_divergence"}), "B_computed"),
        "integrands.prox_us": (med(d("integrands.Integrand.prox_conjugate"), 1e6), "us"),
        "integrands.prox_calls": (calls("integrands.Integrand.prox_conjugate"), "count"),
        "integrands.conjugate_us": (med(d("integrands.Integrand.conjugate"), 1e6), "us"),
        "integrands.conjugate_calls": (calls("integrands.Integrand.conjugate"), "count"),
        "solver.iters": (iters, "count"),
        "solver.iters_to_1e-2": (counts.get("solver.iters_to_1e-2", 0), "count"),
        "solver.final_rel_gap": (counts.get("solver.final_rel_gap", 0.0), "1"),
        "solver.energy_rel_err": (counts.get("solver.energy_rel_err", 0.0), "1"),
        "solver.iter_us": (statistics.median(plain) / iters * 1e6 if iters else 0.0, "us"),
        "solver.loop_self_share": (tracer.self_share("solver.solve"), "1"),
        "solver.gap_checks": (len(gaps) / n_ops, "count"),
        "solver.gap_check_ms": (med(gaps, 1e3), "ms"),
        "solver.gap_share": (sum(gaps) / solve_s if solve_s else 0.0, "1"),
        "solver.repair_ms": (med([r for g in repairs for r in g[1:]], 1e3), "ms"),
        "solver.repair_first_ms": (med([g[0] for g in repairs], 1e3), "ms"),
        "solver.warm_start_ms": (med(d("solver.nearest_boundary_extension"), 1e3), "ms"),
        "certificate.verify_ms": (med(
            d("certificate.verify_scalar") + d("certificate.verify_vector")
            + d("certificate.verify_least_gradient"), 1e3), "ms"),
        "certificate.analytic_samples_ms": (med(d("certificate.analytic_samples"), 1e3), "ms"),
        "gallery.bad_f0_build_ms": (med(d("gallery.build_bad_f0"), 1e3), "ms"),
        "gallery.bad_f0_value_ms": (med(d("gallery.BadF0.value"), 1e3), "ms"),
        "gallery.bad_f0_value_calls": (calls("gallery.BadF0.value"), "count"),
        "geometry.domain_build_ms": (med(d("geometry.GridDomain.__init__"), 1e3), "ms"),
        "geometry.inside_cells": (counts.get("geometry.inside_cells", 0), "count"),
        "geometry.boundary_faces": (counts.get("geometry.boundary_faces", 0), "count"),
        "trace.overhead_share": (statistics.median(traced) / statistics.median(plain) - 1.0,
                                 "1"),
    }
    print(f"  untraced ops={len(plain)} traced ops={n_ops} spans={len(tracer.spans)}")
    t0 = perf_counter()
    for name, value in micro.run(args.seed).items():
        metrics[name] = (value, "us")
    print(f"  microbenchmarks took {perf_counter() - t0:.1f} s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "lingrad" / "__init__.py").is_file():
        print(f"error: no lingrad sources under {SRC}; run from a lingrad checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lingrad

    if Path(lingrad.__file__).resolve().parent != SRC / "lingrad":
        print(f"error: imported lingrad from {lingrad.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work, own_setup = set_up(args.workload, args.seed)
    if args.setup_only:
        print(own_setup)
        return 0
    print(machine_record())
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}", flush=True)
    outcome = Outcome()
    if args.trace:
        metrics = per_layer(args, work, outcome)
    else:
        metrics = end_to_end(args, work, own_setup, outcome)
    failed = outcome.failed
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(f"  failed_frac {failed / outcome.attempted:.6g} "
          f"({failed} of {outcome.attempted} operations)")
    print(f"  correct={failed == 0}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

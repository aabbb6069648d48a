"""Attainment on the disk: a fully discontinuous datum that IS kept.

The unit circle has curvature 1 > 0, so total variation minimization
attains even the half-circle indicator datum.  The minimizer is the
indicator of the upper half disk: its TV is the chord length 2, and the
boundary trace error vanishes under refinement, in contrast with the
annulus where the trace error never drops below the lost datum mass.

Finer levels are warm-started from coarser ones and solved to
proportionally tighter duality gaps so the solver error never masks the
refinement trend.
"""

from lingrad import Ball, GridDomain, ProblemSpec, SolverConfig, make_tv, solve, trace_error
from lingrad.solver import prolong_state


def spec_at(nx):
    domain = GridDomain(Ball(1.0), nx)
    u0 = (domain.boundary_faces.point[:, 1] > 0).astype(float)
    return ProblemSpec(make_tv(1, 2), domain, u0)


prev = None
print("nx    energy      rel.gap    trace error")
for nx, tol, iters in ((64, 5e-4, 10000), (128, 2e-4, 30000)):
    spec = spec_at(nx)
    warm = prolong_state(*prev, spec) if prev else None
    res = solve(spec, SolverConfig(max_iters=iters, gap_tol=tol),
                warm_start=warm)
    print(f"{nx:<5} {res.energy_history_raw[-1]:<11.6f} {res.gap_relative:<10.2e} "
          f"{trace_error(spec, res.u):.3e}")
    prev = (spec, res)

print("\nenergy approaches the chord value 2 and the trace error keeps "
      "falling: the datum is attained.")

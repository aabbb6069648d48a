"""Least gradient on an annulus: the boundary datum that cannot be kept.

On B2 minus B1 with datum 1 on the inner circle and 0 on the outer one,
every minimizing sequence collapses to u = 0: the inner circle is
negatively curved (generalized curvature -1), so holding the datum there
would cost more perimeter than simply dropping it and paying the boundary
penalty 2 pi.  We solve the problem numerically, check the energy against
the analytic infimum, and verify the closed-form certificate z = -x/|x|^2
that proves u = 0 optimal.
"""

import numpy as np

from lingrad import (
    SolverConfig,
    generalized_mean_curvature,
    get_case,
    make_tv,
    solve,
    trace_error,
    verify_least_gradient,
)

case = get_case("annulus_least_gradient")

print("curvature of the two boundary loops (TV integrand):")
for pt, label in ([1.0, 0.0], "inner"), ([2.0, 0.0], "outer"):
    H = generalized_mean_curvature(make_tv(1, 2), case.analytic.shape, pt)
    print(f"  {label} loop at {pt}: H = {H:+.4f}")

print("\nanalytic certificate for u = 0 (z = -x/|x|^2):")
report = verify_least_gradient(case.analytic, tol=1e-8)
for name, cond in report.conditions.items():
    print(f"  {name}: L1 residual {cond.l1:.2e}  (pass: {cond.passed})")

print("\nsolving at nx = 96 ...")
spec = case.build_spec(96)
res = solve(spec, SolverConfig(max_iters=30000, gap_tol=1e-4))
energy = res.energy_history_raw[-1]
print(f"  energy           : {energy:.6f}   (infimum 2 pi = {2 * np.pi:.6f})")
print(f"  max |u|          : {np.abs(res.u.values).max():.2e}   (minimizer is 0)")
print(f"  relative gap     : {res.gap_relative:.2e}")
print(f"  trace error      : {trace_error(spec, res.u):.4f}   "
      f"(datum mass on the lost loop: {2 * np.pi:.4f})")
print("\nthe datum is NOT attained; the trace error stays at the full datum "
      "mass no matter the resolution.")

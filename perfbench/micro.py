"""Layer microbenchmarks: median time per call of each hot operator.

The inputs are the least-gradient annulus (the only case on which
``repair_dual`` does work) at several grid sizes, with seeded random
fields.  The duals are feasible: a random z goes through the TV prox and
zeta is clipped to [-1, 1].  On an infeasible z, ``duality_gap`` returns
early and would time the wrong path.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from lingrad import get_case
from lingrad.energy import _face_masks, discrete_divergence, discrete_gradient, relaxed_energy
from lingrad.solver import duality_gap, repair_dual

SIZES = (128, 256, 512)


def _per_call_us(fn, min_reps=3, min_seconds=0.15, max_reps=200):
    fn()  # warm
    times = []
    start = perf_counter()
    while len(times) < max_reps and (len(times) < min_reps
                                     or perf_counter() - start < min_seconds):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e6


def feasible_state(spec, rng):
    """Random (u, z, zeta) with z in the unit dual ball and zeta in [-1, 1]."""
    domain = spec.domain
    n, d = spec.n_channels, domain.dim
    interior, _, _ = _face_masks(domain)
    u = np.where(domain.inside_mask[None],
                 rng.standard_normal((n,) + domain.grid_shape), 0.0)
    raw = np.where(interior[None], rng.standard_normal((n, d) + domain.grid_shape), 0.0)
    zmat = np.moveaxis(raw, (0, 1), (-2, -1))
    z = np.moveaxis(spec.integrand.prox_conjugate(domain.cell_centers, zmat, 1.0),
                    (-2, -1), (0, 1))
    zeta = np.clip(rng.standard_normal((len(domain.boundary_faces), n)), -1.0, 1.0)
    return u, z, zeta


def run(seed):
    """Metrics named like ``energy.gradient_us.nx512``, in microseconds."""
    case = get_case("annulus_least_gradient")
    spec = case.build_spec(16)
    repair_dual(spec, *feasible_state(spec, np.random.default_rng(seed))[1:])  # lazy imports
    out = {}
    for nx in SIZES:
        rng = np.random.default_rng([seed, nx])
        spec = case.build_spec(nx)
        domain, f = spec.domain, spec.integrand
        u, z, zeta = feasible_state(spec, rng)
        zmat = np.moveaxis(z + 0.1 * discrete_gradient(domain, u), (0, 1), (-2, -1))
        # the first repair on a fresh domain factorizes its Poisson matrix
        t0 = perf_counter()
        repair_dual(spec, z, zeta)
        first = (perf_counter() - t0) * 1e6
        timed = {
            "energy.gradient_us": lambda: discrete_gradient(domain, u),
            "energy.divergence_us": lambda: discrete_divergence(domain, z),
            "integrands.prox_us": lambda: f.prox_conjugate(domain.cell_centers, zmat, 0.5),
            "energy.relaxed_energy_us": lambda: relaxed_energy(spec, u),
            "solver.duality_gap_us": lambda: duality_gap(spec, u, z, zeta),
            "solver.repair_warm_us": lambda: repair_dual(spec, z, zeta),
        }
        for name, fn in timed.items():
            out[f"{name}.nx{nx}"] = _per_call_us(fn)
        out[f"solver.repair_first_us.nx{nx}"] = first
    return out

"""Primal-dual solver: fixed points, gap, dual feasibility, truncation echo."""

import numpy as np
import pytest

from lingrad.energy import ProblemSpec, truncate
from lingrad.errors import InstabilityError, ShapeMismatchError
from lingrad.gallery import build_bad_f0
from lingrad.geometry import Annulus, Ball, GridDomain
from lingrad.integrands import Integrand, make_tv
from lingrad.solver import (
    SolverConfig,
    duality_gap,
    nearest_boundary_extension,
    repair_dual,
    solve,
    trace_error,
)


def disk_spec(nx=48, value=3.0):
    domain = GridDomain(Ball(1.0), nx)
    u0 = np.full(len(domain.boundary_faces), value)
    return ProblemSpec(make_tv(1, 2), domain, u0)


def annulus_spec(nx=48):
    domain = GridDomain(Annulus(1.0, 2.0), nx)
    r = np.linalg.norm(domain.boundary_faces.point, axis=1)
    return ProblemSpec(make_tv(1, 2), domain, np.where(r < 1.5, 1.0, 0.0))


def halfdisk_spec(nx=48):
    domain = GridDomain(Ball(1.0), nx)
    u0 = (domain.boundary_faces.point[:, 1] > 0).astype(float)
    return ProblemSpec(make_tv(1, 2), domain, u0)


def test_constant_datum_gives_constant_minimizer():
    spec = disk_spec()
    res = solve(spec, SolverConfig(max_iters=500, gap_tol=1e-8))
    inside = spec.domain.inside_mask
    assert np.allclose(res.u.values[0, inside], 3.0)
    assert res.energy_history[-1] <= 1e-6
    assert res.converged


def test_annulus_least_gradient_collapse():
    spec = annulus_spec(64)
    res = solve(spec, SolverConfig(max_iters=20000, gap_tol=1e-4))
    assert res.converged
    assert np.abs(res.u.values).max() <= 0.05
    e = res.energy_history[-1]
    assert abs(e - 2 * np.pi) / (2 * np.pi) <= 0.02


def test_halfdisk_energy_near_chord():
    spec = halfdisk_spec(64)
    res = solve(spec, SolverConfig(max_iters=15000, gap_tol=1e-5))
    assert abs(res.energy_history[-1] - 2.0) / 2.0 <= 0.05
    # interior values stay in the datum's range
    assert res.u.values.min() >= -1e-6
    assert res.u.values.max() <= 1.0 + 1e-6
    # and the minimizer is the indicator of the upper half disk away from
    # the jump line
    pts = spec.domain.cell_centers
    inside = spec.domain.inside_mask
    upper = inside & (pts[..., 1] > 0.1)
    lower = inside & (pts[..., 1] < -0.1)
    assert np.allclose(res.u.values[0][upper], 1.0, atol=1e-2)
    assert np.allclose(res.u.values[0][lower], 0.0, atol=1e-2)


def test_energy_history_monotone_and_z_feasible():
    spec = annulus_spec(48)
    res = solve(spec, SolverConfig(max_iters=4000, gap_tol=1e-12))
    assert np.all(np.diff(res.energy_history) <= 1e-9)
    znorm = np.sqrt(np.sum(res.z.values**2, axis=(0, 1)))
    assert znorm.max() <= spec.integrand.growth_constant + 1e-9
    assert np.abs(res.zeta).max() <= 1.0 + 1e-12


def test_fixed_point_euler_lagrange():
    # -G^T z + B^T (w_b / h^d zeta) approaches lambda (u - h) + g at the
    # fixed point
    spec = annulus_spec(48)
    res = solve(spec, SolverConfig(max_iters=30000, gap_tol=1e-5))
    domain = spec.domain
    op = domain.operator
    beta = (domain.boundary_faces.weight / domain.cell_volume)[:, None]
    z = op.cells(res.z.values)  # (N, 1, d)
    v = -(op.G.T @ z.reshape(-1, 1)) + op.B.T @ (beta * res.zeta)
    resid = domain.cell_volume * np.sum(np.abs(v))
    assert resid <= 200 * max(res.gap, 1e-12)


def test_duality_gap_properties():
    spec = annulus_spec(48)
    u = nearest_boundary_extension(spec)
    z0 = np.zeros((1, 2) + spec.domain.grid_shape)
    zeta0 = np.zeros((len(spec.domain.boundary_faces), 1))
    dg = duality_gap(spec, u, z0, zeta0)
    # with zero duals and g = lambda = 0 the dual objective vanishes, so the
    # gap equals the primal energy (direct-summation oracle)
    from lingrad.energy import relaxed_energy

    assert dg.dual == pytest.approx(0.0, abs=1e-12)
    assert dg.value == pytest.approx(relaxed_energy(spec, u), rel=1e-12)
    assert dg.dual_feasible


def test_duality_gap_rof_zero_dual_is_primal_energy():
    # with zero duals on a quadratic-fit problem, the dual objective is 0
    # (the box conjugate of the lower-order terms vanishes at v = 0 when the
    # box contains h), so the gap equals TV energy + quadratic mismatch
    from lingrad.energy import relaxed_energy
    from lingrad.fields import Field
    from lingrad.geometry import Annulus

    domain = GridDomain(Annulus(0.5, 1.0), 32)
    hbar = lambda p: 4.0 / (3.0 * np.linalg.norm(p, axis=-1)) - 4.0 / 3.0
    spec = ProblemSpec(make_tv(1, 2), domain,
                       hbar(domain.boundary_faces.point),
                       h=Field.from_function(domain, hbar).values,
                       lam=np.ones(domain.grid_shape))
    u = nearest_boundary_extension(spec)
    dg = duality_gap(spec, u,
                     np.zeros((1, 2) + domain.grid_shape),
                     np.zeros((len(domain.boundary_faces), 1)))
    assert dg.dual == pytest.approx(0.0, abs=1e-12)
    assert dg.value == pytest.approx(relaxed_energy(spec, u), rel=1e-12)


def test_gap_ignores_g_outside_the_domain():
    # a g that is nonzero on outside cells only does not enter the problem:
    # the dual is still repaired and the gap is that of g = None
    spec = annulus_spec(32)
    g_out = np.where(spec.domain.inside_mask, 0.0, 1.0)
    spec_g = ProblemSpec(spec.integrand, spec.domain, spec.u0, g=g_out)
    res = solve(spec, SolverConfig(max_iters=300, gap_tol=0.0))
    z = res.z.values
    assert repair_dual(spec_g, z, res.zeta)[0] is not z
    assert (duality_gap(spec_g, res.u, z, res.zeta).value
            == duality_gap(spec, res.u, z, res.zeta).value)


def test_boundary_l1_distance_matches_analytic_jump():
    from lingrad.solver import boundary_l1_distance

    spec = halfdisk_spec(48)
    # a field that misses the datum by exactly 1 on the upper half renders
    # the quadrature distance ~ pi (the upper arc length)
    u = np.zeros((1,) + spec.domain.grid_shape)
    d = boundary_l1_distance(spec, u, lambda p: (p[:, 1] > 0).astype(float))
    assert d == pytest.approx(np.pi, rel=0.05)


def test_duality_gap_flags_infeasible_dual():
    spec = annulus_spec(48)
    u = nearest_boundary_extension(spec)
    z_bad = np.full((1, 2) + spec.domain.grid_shape, 5.0)  # way outside |z|<=1
    zeta0 = np.zeros((len(spec.domain.boundary_faces), 1))
    dg = duality_gap(spec, u, z_bad, zeta0)
    assert not dg.dual_feasible
    assert np.isinf(dg.value)


def test_gap_rises_quadratically_under_dual_perturbation():
    spec = annulus_spec(48)
    res = solve(spec, SolverConfig(max_iters=20000, gap_tol=1e-6))
    base = duality_gap(spec, res.u.values, res.z.values, res.zeta).value
    rises = []
    interior = spec.domain._interior_face_mask()
    idx = np.argwhere(interior[0])[len(np.argwhere(interior[0])) // 2]
    for delta in (1e-3, 2e-3):
        z = res.z.values.copy()
        z[(0, 0) + tuple(idx)] = np.clip(z[(0, 0) + tuple(idx)] + delta, -1, 1)
        rises.append(duality_gap(spec, res.u.values, z, res.zeta).value - base)
    # O(delta^2)-ish growth: doubling delta must not grow the rise ~8x
    assert rises[0] >= -1e-12
    assert rises[1] <= 8 * max(rises[0], 1e-10)


def test_trace_error_examples():
    spec = annulus_spec(48)
    # matching boundary-adjacent cells exactly zeroes the trace error
    u = np.zeros((1,) + spec.domain.grid_shape)
    bf = spec.domain.boundary_faces
    for i in range(len(bf)):
        u[(0,) + tuple(bf.cell[i])] = spec.u0[i, 0]
    assert trace_error(spec, u) == pytest.approx(0.0)
    # the least-gradient minimizer keeps at least half the datum mass
    res = solve(spec, SolverConfig(max_iters=15000, gap_tol=1e-4))
    floor = 0.5 * float(np.sum(bf.weight * np.abs(spec.u0[:, 0])))
    assert trace_error(spec, res.u) >= floor


def test_trace_error_decreases_under_refinement_for_attainment():
    # attainment refinement protocol: gap tolerance proportional to h, so
    # the enforced accuracy ladder (not solver noise) drives the trend
    errs = []
    prev = None
    from lingrad.solver import prolong_state

    for nx in (32, 64, 128):
        spec = halfdisk_spec(nx)
        warm = prolong_state(*prev, spec) if prev else None
        res = solve(spec, SolverConfig(max_iters=60000,
                                       gap_tol=4e-2 * 32 / nx,
                                       step_alpha=0.25), warm_start=warm)
        errs.append(trace_error(spec, res.u))
        prev = (spec, res)
    assert errs[0] > errs[1] > errs[2]


def test_truncation_commutes_with_solve():
    spec = halfdisk_spec(48)
    cfg = SolverConfig(max_iters=40000, gap_tol=1e-6)
    res = solve(spec, cfg)
    b = 0.5
    spec_b = ProblemSpec(spec.integrand, spec.domain,
                         np.clip(spec.u0, -b, b))
    res_b = solve(spec_b, cfg)
    lhs = truncate(res.u, b).values
    diff = spec.domain.cell_volume * float(np.sum(np.abs(lhs - res_b.u.values)))
    gap_scale = max(res.gap, res_b.gap, 1e-12)
    assert diff <= 100 * gap_scale


def test_divergence_guard_trips_on_rising_energy(monkeypatch):
    import lingrad.solver as S

    orig = S.relaxed_energy
    state = {"n": 0}

    def inflating(spec, u):
        state["n"] += 1
        return orig(spec, u) + 0.5 * state["n"]

    monkeypatch.setattr(S, "relaxed_energy", inflating)
    spec = disk_spec(32, value=0.0)
    with pytest.raises(InstabilityError):
        solve(spec, SolverConfig(max_iters=5000, gap_tol=0.0, check_every=10))


def test_explicit_steps_respect_stability_validation():
    spec = disk_spec(32)
    L = np.sqrt(8.0) / spec.domain.h
    bad = SolverConfig(tau=10.0 / L, sigma=10.0 / L)
    with pytest.raises(ValueError):
        solve(spec, bad)
    ok = SolverConfig(tau=0.9 / L, sigma=0.9 / L, max_iters=50,
                      gap_tol=1e-12, divergence_check=False)
    res = solve(spec, ok)
    assert res.iterations == 50


def no_prox(x, zeta, tau):
    raise AssertionError("solve iterated on an integrand it must reject")


@pytest.mark.parametrize("make_integrand", [
    lambda: build_bad_f0(1e-2).integrand(),
    lambda: Integrand(1, 2, name="no_radius", growth_constant=1.0,
                      value=make_tv(1, 2).value, prox_conjugate=no_prox),
], ids=["bad_f0", "scalar_no_radius"])
def test_solve_rejects_integrand_without_dual_radius(make_integrand):
    integrand = make_integrand()
    domain = GridDomain(Ball(1.0), 16)
    u0 = np.zeros((len(domain.boundary_faces), integrand.n_rows))
    spec = ProblemSpec(integrand, domain, u0)
    with pytest.raises(ShapeMismatchError, match="dual_radius"):
        solve(spec, SolverConfig(max_iters=10))


def test_warm_start_extension_values():
    spec = annulus_spec(48)
    u = nearest_boundary_extension(spec)
    inside = spec.domain.inside_mask
    vals = np.unique(np.round(u[0, inside], 12))
    assert set(vals) <= {0.0, 1.0}
    # cells hugging the inner ring carry the inner datum
    r = np.linalg.norm(spec.domain.cell_centers, axis=-1)
    near_inner = inside & (r < 1.0 + 2 * spec.domain.h)
    assert np.all(u[0, near_inner] == 1.0)

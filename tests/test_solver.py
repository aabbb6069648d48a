"""Primal-dual solver: fixed points, gap, dual feasibility, truncation echo."""

import dataclasses
import gc
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lingrad import solver as solver_module
from lingrad.certificate import (
    verify_least_gradient,
    verify_scalar,
)
from lingrad.energy import (
    ProblemSpec,
    relaxed_energy,
)
from lingrad.errors import (
    InstabilityError,
    InvalidFieldError,
    ShapeMismatchError,
    SpecFileError,
)
from lingrad.gallery import build_bad_f0, get_case
from lingrad.geometry import Annulus, Ball, GridDomain, Rectangle
from lingrad.integrands import Integrand, make_tv
from lingrad.solver import (
    SolverConfig,
    _restriction,
    duality_gap,
    nearest_boundary_extension,
    prolong_state,
    repair_dual,
    solve,
    trace_error,
)
from lingrad.specfile import parse_spec


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
    assert np.allclose(res.u, 3.0)
    assert res.energy_history_raw[-1] <= 1e-6
    assert res.converged


def test_annulus_least_gradient_collapse():
    spec = annulus_spec(64)
    res = solve(spec, SolverConfig(max_iters=20000, gap_tol=1e-4))
    assert res.converged
    assert np.abs(res.u).max() <= 0.05
    e = res.energy_history_raw[-1]
    assert abs(e - 2 * np.pi) / (2 * np.pi) <= 0.02


def test_halfdisk_energy_near_chord():
    spec = halfdisk_spec(64)
    res = solve(spec, SolverConfig(max_iters=15000, gap_tol=1e-5))
    assert abs(res.energy_history_raw[-1] - 2.0) / 2.0 <= 0.05
    # interior values stay in the datum's range
    assert res.u.min() >= -1e-6
    assert res.u.max() <= 1.0 + 1e-6
    # and the minimizer is the indicator of the upper half disk away from
    # the jump line
    pts = spec.domain.points
    upper = pts[:, 1] > 0.1
    lower = pts[:, 1] < -0.1
    assert np.allclose(res.u[upper, 0], 1.0, atol=1e-2)
    assert np.allclose(res.u[lower, 0], 0.0, atol=1e-2)


def test_solve_returns_a_feasible_dual():
    spec = annulus_spec(48)
    res = solve(spec, SolverConfig(max_iters=4000, gap_tol=1e-12))
    znorm = np.sqrt(np.sum(res.z**2, axis=(1, 2)))
    assert znorm.max() <= spec.integrand.growth_constant + 1e-9
    assert np.abs(res.zeta).max() <= 1.0 + 1e-12


def test_fixed_point_euler_lagrange():
    # -G^T z + B^T (w_b / h^d zeta) approaches lambda (u - h) + g at the
    # fixed point
    spec = annulus_spec(48)
    res = solve(spec, SolverConfig(max_iters=30000, gap_tol=1e-5))
    domain = spec.domain
    beta = (domain.boundary_faces.weight / domain.cell_volume)[:, None]
    v = domain.div(res.z) + domain.trace_adjoint(beta * res.zeta)
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
    from lingrad.geometry import Annulus

    domain = GridDomain(Annulus(0.5, 1.0), 32)
    hbar = lambda p: 4.0 / (3.0 * np.linalg.norm(p, axis=-1)) - 4.0 / 3.0
    spec = ProblemSpec(make_tv(1, 2), domain,
                       hbar(domain.boundary_faces.point),
                       h=hbar(domain.points),
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
    z = res.z
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
    # the quadrature samples circles; a rectangle is rejected by name, not
    # answered with the per-face trace_error
    domain = GridDomain(Rectangle(), 16)
    square = ProblemSpec(make_tv(1, 2), domain,
                         np.zeros(len(domain.boundary_faces)))
    with pytest.raises(ShapeMismatchError, match="2-D Rectangle"):
        boundary_l1_distance(square, np.zeros((1,) + domain.grid_shape),
                             lambda p: np.zeros(len(p)))


def test_boundary_l1_distance_on_an_interval_is_the_trace_error():
    from lingrad.solver import boundary_l1_distance

    # the quadrature's boundary of an interval is its two endpoints, each
    # of weight 1, so the distance is the per-face trace_error
    spec = get_case("weighted_tv_1d").build_spec(64)
    u = np.linspace(-0.5, 0.5, len(spec.domain.points))[:, None]
    d = boundary_l1_distance(spec, u, lambda p: np.sign(p[:, 0] - 0.5))
    assert d == pytest.approx(trace_error(spec, u), rel=1e-14)
    assert d == pytest.approx(1.0, abs=0.05)


def test_duality_gap_flags_infeasible_dual():
    spec = annulus_spec(48)
    u = nearest_boundary_extension(spec)
    z_bad = np.full((1, 2) + spec.domain.grid_shape, 5.0)  # way outside |z|<=1
    zeta0 = np.zeros((len(spec.domain.boundary_faces), 1))
    dg = duality_gap(spec, u, z_bad, zeta0)
    assert not dg.dual_feasible
    assert np.isinf(dg.value)


def test_duality_gap_flags_infeasible_zeta():
    # zeta scaled just past its dual ball used to give a negative "gap"
    # reported as feasible, against weak duality
    spec = get_case("rof_annulus").build_spec(48)
    res = solve(spec, SolverConfig(max_iters=20000, gap_tol=1e-6))
    assert duality_gap(spec, res.u, res.z, res.zeta).dual_feasible
    for factor in (1.001, 1.01):
        dg = duality_gap(spec, res.u, res.z, factor * res.zeta)
        assert not dg.dual_feasible
        assert dg.value == np.inf and dg.dual == -np.inf


@pytest.mark.parametrize("box_bound", [float("nan"), -1.0, 0.0, float("inf"),
                                       -float("inf")])
def test_duality_gap_checks_the_box_bound(solved_grid_cases, box_bound):
    # the gap reads spec.box_bound, and no spec holds a bad one
    spec, _ = solved_grid_cases["rof_annulus"]
    with pytest.raises(SpecFileError, match="^box_bound must be finite"):
        dataclasses.replace(spec, box_bound=box_bound)


def test_gap_rises_quadratically_under_dual_perturbation():
    # with lambda = 1 the dual bound is smooth in z (repair_dual is
    # bypassed), so near the optimum a shift of z by delta at one face
    # strictly inside the dual ball raises the gap by ~delta^2
    spec = get_case("rof_annulus").build_spec(48)
    res = solve(spec, SolverConfig(max_iters=20000, gap_tol=1e-6))
    base = duality_gap(spec, res.u, res.z, res.zeta).value
    domain = spec.domain
    faces = np.flatnonzero(domain.interior[:, 0, 0]
                           & (np.abs(res.z[:, 0, 0]) < 0.5))
    idx = (faces[len(faces) // 2], 0, 0)
    rises = []
    for delta in (1e-3, 2e-3):
        z = res.z.copy()
        z[idx] += delta
        rises.append(duality_gap(spec, res.u, z, res.zeta).value - base)
    assert rises[0] > 0
    assert abs(rises[1] / rises[0] - 4.0) <= 0.01


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
                                       gap_tol=4e-2 * 32 / nx),
                    warm_start=warm)
        errs.append(trace_error(spec, res.u))
        prev = (spec, res)
    assert errs[0] > errs[1] > errs[2]


def test_non_finite_iterate_raises_naming_the_iteration(monkeypatch):
    spec = halfdisk_spec(32)
    prox = spec.integrand.prox_conjugate
    calls = {"n": 0}

    def nan_after_25(x, zeta, tau):
        calls["n"] += 1
        if calls["n"] > 25:
            return np.full(np.shape(zeta), np.nan)
        return prox(x, zeta, tau)

    monkeypatch.setattr(spec.integrand, "prox_conjugate", nan_after_25)
    with pytest.raises(InstabilityError, match="non-finite z at iteration 30"):
        solve(spec, SolverConfig(max_iters=5000, gap_tol=0.0, check_every=10))


def test_non_finite_prox_output_raises_naming_the_iteration(monkeypatch):
    # one NaN from the prox reaches the next prox input through u_bar; the
    # solve names that iteration instead of the prox's input check
    spec = get_case("annulus_least_gradient").build_spec(32)
    prox = spec.integrand.prox_conjugate
    calls = {"n": 0}

    def nan_at_25(x, zeta, tau):
        calls["n"] += 1
        if calls["n"] == 25:
            return np.full(np.shape(zeta), np.nan)
        return prox(x, zeta, tau)

    monkeypatch.setattr(spec.integrand, "prox_conjugate", nan_at_25)
    with pytest.raises(InstabilityError, match="non-finite z at iteration 26"):
        solve(spec, SolverConfig(max_iters=5000, gap_tol=0.0))


class _RecordingWeight:
    """Stands in for the face weights of the divergence; records whether
    each dual field it scales shares memory with ``base`` and is a
    C-contiguous (d, N, n) array."""

    __array_ufunc__ = None  # numpy hands x * weight to __rmul__

    def __init__(self, weight, base):
        self.weight, self.base, self.seen = weight, base, []

    def __rmul__(self, x):
        self.seen.append((np.shares_memory(x, self.base),
                          x.flags.c_contiguous))
        return x * self.weight


@pytest.mark.parametrize("n", [1, 2])
def test_dual_is_planar_in_the_prox_and_the_divergence(monkeypatch, n):
    # the conjugate prox receives (N, n, d) views of planar (d, N, n)
    # storage, cold and warm started, and -G^T reads a planar z in place
    domain = GridDomain(Ball(1.0), 24)
    spec = ProblemSpec(make_tv(n, 2), domain, domain.boundary_faces.point[:, :n])
    prox = spec.integrand.prox_conjugate
    layouts = []

    def recording(x, zeta, tau):
        layouts.append((zeta.shape, zeta.transpose(2, 0, 1).flags.c_contiguous))
        return prox(x, zeta, tau)

    monkeypatch.setattr(spec.integrand, "prox_conjugate", recording)
    cfg = SolverConfig(max_iters=30, gap_tol=0.0, check_every=10)
    res = solve(spec, cfg)
    solve(spec, cfg, warm_start=(res.u, res.z, res.zeta))
    assert layouts == [((len(domain.points), n, 2), True)] * 60

    z = res.z
    weight = _RecordingWeight(domain._weight, z)
    monkeypatch.setattr(domain, "_weight", weight)
    domain.div(z)
    assert weight.seen == [(True, True)]


def test_restarts_reach_the_gap_in_few_iterations():
    # plain primal-dual steps need 5,600 iterations here; the restarted
    # Halpern iteration needs 800 over the ladder (200 / 300 / 300)
    spec = get_case("annulus_least_gradient").build_spec(64)
    res = solve(spec, SolverConfig(max_iters=2800, gap_tol=1e-3))
    assert res.converged and res.gap_relative <= 1e-3


def test_every_gap_check_scores_one_state(monkeypatch):
    # one duality_gap call per check on every level of the ladder: checks
    # fall every check_every iterations and at the last one
    calls, gap = [], solver_module.duality_gap

    def counted(*args):
        calls.append(1)
        return gap(*args)

    monkeypatch.setattr(solver_module, "duality_gap", counted)
    spec = get_case("annulus_least_gradient").build_spec(64)
    cfg = SolverConfig(max_iters=2800, gap_tol=1e-3)
    res = solve(spec, cfg)
    assert [nx for nx, _, _ in res.levels] == [16, 32, 64]
    checks = sum(-(-it // cfg.check_every) for _, it, _ in res.levels)
    assert len(calls) == checks
    assert len(res.check_iters) == -(-res.iterations // cfg.check_every)


@pytest.mark.xfail(strict=True, reason="the finest level stops at its cap "
                   "on the plateau near 2e-4 of the lower-order terms")
def test_weighted_tv_reaches_1e_4_within_the_level_cap():
    # the averaging loop converged here (29,400 iterations over the
    # ladder); the Halpern loop does not, and this marks the loss until a
    # solve leaves the plateau
    spec = get_case("weighted_tv_1d").build_spec(64)
    res = solve(spec, SolverConfig(max_iters=30000, gap_tol=1e-4))
    assert res.converged


def one_grid_start(spec):
    """The cold start of ``solve`` as a warm start: the solve then runs on
    the grid of ``spec`` alone, with the plain steps (t = 1) of every
    given start."""
    pts, bf = spec.domain.points, spec.domain.boundary_faces
    return (nearest_boundary_extension(spec),
            np.zeros((len(pts), spec.n_channels, spec.domain.dim)),
            np.zeros((len(bf), spec.n_channels)))


def test_strongly_convex_solve_is_accelerated():
    # lambda = 1 on every cell, and an odd nx has no coarser level: the
    # cold solve runs on one grid, where the accelerated steps reach 1e-3
    # in about 500 iterations and 1e-4 in about 800, and plain steps
    # (t = 1) take 1,700 and 2,500
    spec = get_case("rof_annulus").build_spec(97)
    res = solve(spec, SolverConfig(max_iters=1800, gap_tol=1e-4))
    assert len(res.levels) == 1
    assert res.converged and res.gap_relative <= 1e-4
    first = res.check_iters[np.argmax(res.gap_history <= 1e-3)]
    assert first <= 1000


@pytest.fixture(scope="module")
def rof_annulus_32():
    return get_case("rof_annulus").build_spec(32)


@settings(max_examples=12, deadline=None)
@given(log_lam=st.floats(-2.0, 2.0))
def test_accelerated_solve_converges_for_every_fit_weight(rof_annulus_32,
                                                          log_lam):
    # lambda from 1e-2 to 1e2 (1,400 to 100 iterations at nx=32); the
    # reported gap is the gap of the returned triple, and a valid one
    base = rof_annulus_32
    spec = ProblemSpec(base.integrand, base.domain, base.u0, h=base.h,
                       lam=10.0**log_lam * base.lam)
    res = solve(spec, SolverConfig(max_iters=3000, gap_tol=1e-4))
    assert res.converged
    dg = duality_gap(spec, res.u, res.z, res.zeta)
    assert dg.value == res.gap and dg.relative == res.gap_relative
    assert dg.value >= 0.0
    # g = 0 and M is the data bound, so u is clipped to the box and the
    # scored u truncated to the data range
    assert min(spec.u0.min(), spec.h.min()) <= res.u.min()
    assert res.u.max() <= max(spec.u0.max(), spec.h.max())


@pytest.mark.parametrize("scale", [0.01, 0.1])
def test_a_warm_start_at_the_solution_stops_at_its_first_check(scale):
    # a given start runs the plain steps, which keep a converged state
    # where it is; the large early steps of t = 1/gamma would move it away
    base = get_case("rof_annulus").build_spec(64)
    spec = dataclasses.replace(base, lam=scale * base.lam)
    cfg = SolverConfig(max_iters=3000, gap_tol=1e-3)
    first = solve(spec, cfg)
    assert first.converged
    res = solve(spec, cfg, warm_start=(first.u, first.z, first.zeta))
    assert res.converged and res.iterations == cfg.check_every


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nx, levels", [
    (64, [(16, 300), (32, 300), (64, 400)]), (65, [(65, 1400)])])
def test_a_subnormal_fit_weight_runs_the_plain_steps(nx, levels):
    # lambda = 1e-310: 1/gamma overflows, so even a cold start runs t = 1
    # instead of an infinite t and a zero dual step
    base = get_case("rof_annulus").build_spec(nx)
    spec = dataclasses.replace(base, lam=np.full_like(base.lam, 1e-310))
    res = solve(spec, SolverConfig(max_iters=3000, gap_tol=1e-3))
    assert res.converged
    assert [lv[:2] for lv in res.levels] == levels


@pytest.mark.xfail(strict=True, reason="a cold start at t = 1/gamma needs "
                   "about 1/gamma iterations before t decays")
def test_a_small_fit_weight_converges_from_a_cold_start():
    # one grid at lambda = 1e-4 stops at the cap with a rel-gap of 0.48;
    # at lambda = 0 the same solve converges in 1,000 iterations
    base = get_case("rof_annulus").build_spec(65)
    spec = dataclasses.replace(base, lam=1e-4 * base.lam)
    res = solve(spec, SolverConfig(max_iters=5000, gap_tol=1e-3))
    assert res.converged


@pytest.mark.parametrize("field, value", [
    ("max_iters", 0), ("max_iters", -5), ("max_iters", 2.5),
    ("check_every", 0), ("gap_tol", float("nan")), ("gap_tol", -1e-3),
    ("box_bound", float("nan")), ("box_bound", float("inf")),
    ("box_bound", 0.0), ("box_bound", -1.0),
])
def test_solver_config_is_checked_at_the_boundary(tmp_path, field, value):
    if field == "box_bound":
        # the box bound of a spec file's [solver] section is the spec's
        p = tmp_path / "s.cfg"
        p.write_text("[domain]\nshape = disk 1.0\nnx = 16\n"
                     f"[solver]\nbox_bound = {value}\n")
        with pytest.raises(SpecFileError, match="^" + re.escape(
                f"{p}: [solver] box_bound must be finite and > 0")):
            parse_spec(str(p))
        return
    cfg = SolverConfig(max_iters=10)
    setattr(cfg, field, value)
    with pytest.raises(SpecFileError, match=f"SolverConfig.{field}"):
        solve(disk_spec(16), cfg)


def no_prox(x, zeta, tau):
    raise AssertionError("solve iterated on an integrand it must reject")


def scalar_no_radius():
    tv = make_tv(1, 2)
    return Integrand(1, 2, name="no_radius", growth_constant=1.0,
                     value=tv.value, gradient=tv.gradient,
                     recession_value=tv.recession,
                     recession_gradient=tv.recession_gradient,
                     conjugate=tv.conjugate, prox_conjugate=no_prox)


@pytest.mark.parametrize("make_integrand", [
    lambda: build_bad_f0(1e-2).integrand(),
    scalar_no_radius,
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
    points = spec.domain.points
    assert u.shape == (len(points), 1)
    vals = np.unique(np.round(u[:, 0], 12))
    assert set(vals) <= {0.0, 1.0}
    # cells hugging the inner ring carry the inner datum
    r = np.linalg.norm(points, axis=-1)
    near_inner = r < 1.0 + 2 * spec.domain.h
    assert np.all(u[near_inner, 0] == 1.0)


@pytest.mark.parametrize("make_spec", [annulus_spec, disk_spec])
def test_prolonged_constant_is_constant_on_every_cell(make_spec):
    # fine cells whose containing coarse cell lies outside the coarse
    # domain read u from the nearest inside coarse cell
    coarse, fine = make_spec(48), make_spec(96)
    cd = coarse.domain
    n_in, m = len(cd.points), len(cd.boundary_faces)
    state = SimpleNamespace(u=np.full((n_in, 1), 3.0),
                            z=np.zeros((n_in, 1, cd.dim)),
                            zeta=np.zeros((m, 1)))
    u, z, zeta = prolong_state(coarse, state, fine)
    assert u.shape == (len(fine.domain.points), 1)
    assert np.all(u == 3.0)


def test_plain_steps_keep_u_in_the_box():
    # where lambda vanishes the u update is the prox of l + the box
    # |u| <= M that the gap's dual is taken over, so no lower-order term
    # of the gap is negative
    spec = get_case("disk_bv_attainment").build_spec(64)
    res = solve(spec, SolverConfig(max_iters=300))
    assert np.abs(res.u).max() <= spec.box_bound
    dg = duality_gap(spec, res.u, res.z, res.zeta)
    assert np.all(dg.terms[2] >= 0.0)
    assert not dg.conditional


def test_a_box_below_the_minimizer_is_flagged_not_clipped():
    # M below the data bound holds no minimizer: u is not clipped to it,
    # so the iterate leaves the box and the gap and the certificate show
    # it; such a state is neither converged nor certified, although its
    # gap meets the target (its negative lower-order terms, summed with
    # the positive ones, read -4.3e-4 after 300 iterations)
    spec = get_case("disk_bv_attainment").build_spec(32)
    small = dataclasses.replace(spec, box_bound=0.5)
    res = solve(small, SolverConfig(max_iters=1000, gap_tol=1e-3))
    assert np.abs(res.u).max() > 0.5
    assert res.gap_relative <= 1e-3 and res.converged is False
    dg = duality_gap(small, res.u, res.z, res.zeta)
    assert np.any(dg.terms[2] < 0.0) and dg.conditional
    r_div = verify_least_gradient(small, res.u, res.z, zeta=res.zeta)[
        "r_div"]
    outside = int(re.search(r"(\d+) cells outside", r_div.note).group(1))
    assert outside > 0
    assert r_div.l1 <= r_div.tol and r_div.passed is False


@pytest.mark.parametrize("shape, nx", [
    (Annulus(0.9, 1.0), 32), (Annulus(0.9, 1.0), 64),
    (Annulus(0.95, 1.0), 64),
    (Annulus(0.97, 1.0), 16), (Annulus(0.97, 1.0), 32),
    (Annulus(0.97, 1.0), 64),
    (Annulus(0.5, 1.0, dim=1), 32),
])
def test_thin_and_split_grids_solve(shape, nx):
    # these grids, or their coarse ladder levels, split into several
    # face-connected components, and some have no interior face at all
    # (G has no entries, and z = 0 on every slot)
    domain = GridDomain(shape, nx)
    pts = domain.boundary_faces.point
    r = np.linalg.norm(pts, axis=1)
    mid = 0.5 * (shape.r_in + shape.r_out)
    u0 = (r < mid).astype(float) + (pts[:, -1] > 0)
    spec = ProblemSpec(make_tv(1, shape.dim), domain, u0[:, None])
    res = solve(spec, SolverConfig(gap_tol=1e-3))
    assert res.converged and res.gap_relative <= 1e-3


def test_cold_plain_solve_starts_from_its_restriction():
    spec = get_case("annulus_least_gradient").build_spec(64)
    cfg = SolverConfig(max_iters=400, gap_tol=1e-3)
    res = solve(spec, cfg)
    assert [nx for nx, _, _ in res.levels] == [16, 32, 64]
    assert res.levels[-1][1] == res.iterations
    coarse = _restriction(spec)
    res_c = solve(coarse, cfg)
    assert [lv[:2] for lv in res_c.levels] == [lv[:2] for lv in res.levels[:2]]
    by_hand = solve(spec, cfg, warm_start=prolong_state(coarse, res_c, spec))
    assert len(by_hand.levels) == 1
    assert np.array_equal(res.u, by_hand.u)
    assert np.array_equal(res.z, by_hand.z)
    assert np.array_equal(res.zeta, by_hand.zeta)
    assert res.iterations == by_hand.iterations
    assert res.gap == by_hand.gap


def test_coarse_levels_are_released_before_the_finer_one_iterates(
        monkeypatch):
    # reference counting alone frees each coarse spec and domain, with
    # their factors, once its state is prolonged
    coarse_domains, alive = [], []
    restrict, iterate = solver_module._restriction, solver_module._iterate

    def restriction(spec):
        coarse = restrict(spec)
        if coarse is not None:
            coarse_domains.append(weakref.ref(coarse.domain))
        return coarse

    def spy(spec, *args):
        alive.append(sorted(ref().nx for ref in coarse_domains
                            if ref() is not None))
        return iterate(spec, *args)

    monkeypatch.setattr(solver_module, "_restriction", restriction)
    monkeypatch.setattr(solver_module, "_iterate", spy)
    spec = get_case("annulus_least_gradient").build_spec(64)
    gc.disable()
    try:
        solve(spec, SolverConfig(max_iters=100))
    finally:
        gc.enable()
    assert alive == [[16, 32], [32], []]


@pytest.mark.parametrize("how", ["warm_start", "nx_24", "nx_33"])
def test_solve_without_a_coarser_level_reports_one(how):
    cfg = SolverConfig(max_iters=200, gap_tol=1e-3)
    if how == "warm_start":
        spec = annulus_spec(64)
        first = solve(spec, cfg)
        res = solve(spec, cfg, warm_start=(first.u, first.z, first.zeta))
    else:  # at nx=24, 12 cells across is below GridDomain's 16; an odd
        # nx has no grid of half the cells per axis
        spec = annulus_spec(int(how.removeprefix("nx_")))
        assert _restriction(spec) is None
        res = solve(spec, cfg)
    assert [lv[:2] for lv in res.levels] == [(spec.domain.nx, res.iterations)]
    assert res.levels[0][2] > 0.0


def test_a_strongly_convex_cold_solve_ladders():
    # lambda > 0 on every cell: the cold solve starts from its restriction
    # too
    spec = get_case("rof_annulus").build_spec(64)
    res = solve(spec, SolverConfig(max_iters=2000, gap_tol=1e-3))
    assert [nx for nx, _, _ in res.levels] == [16, 32, 64]
    assert res.converged and res.gap_relative <= 1e-3


def test_the_ladder_cuts_the_fine_iterations_where_lambda_is_positive():
    # 200 iterations on the fine level at nx=96 after 200 and 300 on the
    # coarser ones, against 1,700 on that grid alone from the cold start
    # given as a warm start, which runs the plain steps
    spec = get_case("rof_annulus").build_spec(96)
    cfg = SolverConfig(max_iters=2000, gap_tol=1e-3)
    laddered = solve(spec, cfg)
    assert [nx for nx, _, _ in laddered.levels] == [24, 48, 96]
    one_grid = solve(spec, cfg, warm_start=one_grid_start(spec))
    assert len(one_grid.levels) == 1
    assert laddered.converged and one_grid.converged
    assert laddered.iterations < one_grid.iterations


def test_the_least_gradient_annulus_keeps_its_ladder_counts():
    # the benchmark's lg_annulus solve, the one benchmark workload where
    # repair_dual and its zeta polish run: any change to the repaired
    # iterates shows in these counts
    spec = get_case("annulus_least_gradient").build_spec(96)
    res = solve(spec, SolverConfig(max_iters=30000, gap_tol=1e-3))
    assert res.converged
    assert [lv[:2] for lv in res.levels] == [(24, 300), (48, 200), (96, 200)]


def test_the_rof_annulus_keeps_its_ladder_counts():
    # the benchmark's rof_annulus solve, where lambda > 0 on every cell:
    # any change to the step scale, the clip or the ladder shows in these
    # counts
    spec = get_case("rof_annulus").build_spec(192)
    res = solve(spec, SolverConfig(max_iters=30000, gap_tol=1e-3))
    assert res.converged
    assert [lv[:2] for lv in res.levels] == [
        (24, 200), (48, 300), (96, 200), (192, 300)]


@pytest.mark.parametrize("make_spec, nx", [
    (annulus_spec, 48), (annulus_spec, 96), (disk_spec, 48), (disk_spec, 96),
    (lambda nx: get_case("rof_annulus").build_spec(nx), 96)])
def test_prolonged_u_is_read_from_the_nearest_inside_coarse_cell(make_spec,
                                                                 nx):
    # cKDTree is an independent oracle of the distance; ties between
    # coarse cells may fall either way
    from scipy.spatial import cKDTree

    cd, fd = make_spec(nx // 2).domain, make_spec(nx).domain
    n_in = len(cd.points)
    u, _, _ = solver_module._prolong(
        cd, np.arange(n_in, dtype=float)[:, None], np.zeros((n_in, 1, 2)),
        np.zeros((len(cd.boundary_faces), 1)), fd)
    dist, _ = cKDTree(cd.points).query(fd.points)
    chosen = cd.points[u[:, 0].astype(int)]
    assert np.array_equal(np.linalg.norm(chosen - fd.points, axis=1),
                          dist)
    # both the containing cell and the search are taken somewhere
    containing = fd.coarse_cells(cd)
    assert np.any(containing >= 0) and np.any(containing < 0)


@pytest.mark.parametrize("shape", [Ball(1.0), Annulus(1.0, 2.0)])
@pytest.mark.parametrize("nx", [48, 64, 96, 128, 192])
def test_prolonged_z_is_read_from_the_coarse_cell_holding_the_face(shape, nx):
    # channel 0 of the coarse z holds, on each axis, the position of each
    # coarse cell's + face, channel 1 a 1 that marks a face read from an
    # inside coarse cell; a fine face inside a coarse cell lies h_c / 2
    # below that cell's + face, one on a coarse face h_c below the + face
    # of the cell above it
    cd, fd = GridDomain(shape, nx // 2), GridDomain(shape, nx)
    n_in = len(cd.points)
    z = np.stack([cd.points + 0.5 * cd.h, np.ones((n_in, 2))], axis=1)
    _, z_f, _ = solver_module._prolong(
        cd, np.zeros((n_in, 1)), z, np.zeros((len(cd.boundary_faces), 2)), fd)
    for a in range(2):
        read = fd.interior[:, 0, a] & (z_f[:, 1, a] == 1.0)
        assert np.count_nonzero(read) > 0.9 * np.count_nonzero(
            fd.interior[:, 0, a])
        offset = (z_f[read, 0, a] - fd.points[read, a] - 0.5 * fd.h) / cd.h
        on_face = np.abs(offset - 1.0) < 1e-9
        assert np.all(on_face | (np.abs(offset - 0.5) < 1e-9))
        assert np.any(on_face) and not np.all(on_face)


def test_prolong_state_takes_only_the_ladders_pairs():
    coarse, fine = annulus_spec(64), annulus_spec(96)
    cd = coarse.domain
    n_in, m = len(cd.points), len(cd.boundary_faces)
    state = SimpleNamespace(u=np.zeros((n_in, 1)), z=np.zeros((n_in, 1, 2)),
                            zeta=np.zeros((m, 1)))
    with pytest.raises(ShapeMismatchError, match="nx=96 .* nx=64"):
        prolong_state(coarse, state, fine)


def test_restriction_samples_the_fine_spec():
    case = get_case("annulus_least_gradient")
    fine = dataclasses.replace(case.build_spec(64), box_bound=2.5)
    coarse = _restriction(fine)
    assert coarse.domain.nx == 32
    assert np.array_equal(coarse.u0, case.build_spec(32).u0)
    assert coarse.box_bound == 2.5
    assert coarse.integrand is fine.integrand


@pytest.mark.parametrize("d, n_ref, n_query", [
    (1, 7, 50), (2, 300, 1000), (3, 40, 5000), (2, 70000, 3)])
def test_nearest_is_the_first_argmin_of_squared_distances(d, n_ref, n_query):
    # small integer coordinates make exact ties common; the sizes give one
    # block, several blocks, and blocks of one query row
    rng = np.random.default_rng(d + n_ref)
    ref = rng.integers(-4, 5, (n_ref, d)).astype(float)
    query = rng.integers(-6, 7, (n_query, d)) / 2.0
    d2 = np.sum((query[:, None, :] - ref[None]) ** 2, axis=-1)
    assert np.array_equal(solver_module._nearest(ref, query),
                          np.argmin(d2, axis=1))


def test_restriction_takes_the_mean_of_the_inside_children():
    spec = get_case("rof_annulus").build_spec(64)
    x, y = spec.domain.points.T
    spec = dataclasses.replace(spec, g=0.1 * x[:, None], lam=1.0 + y**2)
    coarse = _restriction(spec)
    # the children of each coarse cell, found by the coarse cell that
    # contains each fine center (a fine center lies h_c / 4 from its coarse
    # cell's faces, so the floor is exact); some fine cells lie in outside
    # coarse ones
    cd = coarse.domain
    grid = np.floor((spec.domain.points - cd.origin) / cd.h).astype(int)
    parent = cd.cell_index[tuple(grid.T)]
    child = parent >= 0
    assert not np.all(child)
    count = np.bincount(parent[child], minlength=len(coarse.lam))
    assert np.all(count > 0) and np.any(count < 4)
    for fine, restricted in ((spec.g[:, 0], coarse.g[:, 0]),
                             (spec.h[:, 0], coarse.h[:, 0]),
                             (spec.lam, coarse.lam)):
        mean = np.bincount(parent[child], weights=fine[child]) / count
        np.testing.assert_allclose(restricted, mean, rtol=1e-15, atol=1e-15)


def test_a_coarse_cell_without_inside_children_reads_the_nearest_fine_cell():
    # on this thin annulus some coarse centers are inside while none of
    # their four fine children are
    domain = GridDomain(Annulus(0.97, 1.0), 32)
    pts = domain.points
    spec = ProblemSpec(make_tv(1, 2), domain,
                       np.zeros(len(domain.boundary_faces)),
                       h=np.arange(len(pts), dtype=float))
    coarse = _restriction(spec)
    cpts = coarse.domain.points
    d2 = np.sum((cpts[:, None, :] - pts[None]) ** 2, axis=-1)
    lone = np.min(d2, axis=1) > (0.5 * domain.h) ** 2 * 2 * (1 + 1e-9)
    assert np.any(lone)
    # h numbers the fine cells: the first nearest fine cell is read
    assert np.array_equal(coarse.h[lone, 0], np.argmin(d2[lone], axis=1))


def test_the_solve_path_imports_no_scipy_spatial():
    code = (
        "import sys\n"
        "import lingrad\n"
        "from lingrad.solver import boundary_l1_distance\n"
        "case = lingrad.get_case('rof_annulus')\n"
        "spec = case.build_spec(32)\n"
        "res = lingrad.solve(spec, lingrad.SolverConfig(gap_tol=1e-3))\n"
        "assert len(res.levels) > 1\n"
        "lingrad.verify_scalar(spec, res.u, res.z, zeta=res.zeta)\n"
        "boundary_l1_distance(spec, res.u, case.analytic.u0)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))\n"
    )
    assert _fresh_python(code) == ["[]"]


def test_a_positive_lambda_solve_imports_no_scipy_sparse():
    # only the Neumann factorization of repair_dual loads scipy.sparse: the
    # ROF annulus (lambda > 0) never reaches it, the least-gradient annulus
    # loads it on its first gap check
    code = (
        "import sys\n"
        "import lingrad\n"
        "from lingrad.energy import gauss_green_residual\n"
        "from lingrad.solver import boundary_l1_distance, trace_error\n"
        "case = lingrad.get_case('rof_annulus')\n"
        "spec = case.build_spec(32)\n"
        "res = lingrad.solve(spec, lingrad.SolverConfig(gap_tol=1e-3))\n"
        "assert len(res.levels) > 1\n"
        "lingrad.verify_scalar(spec, res.u, res.z, zeta=res.zeta)\n"
        "trace_error(spec, res.u)\n"
        "boundary_l1_distance(spec, res.u, case.analytic.u0)\n"
        "gauss_green_residual(spec.domain, spec.domain.pad(res.u),\n"
        "                     spec.domain.pad(res.z))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
        "spec = lingrad.get_case('annulus_least_gradient').build_spec(32)\n"
        "res = lingrad.solve(spec, lingrad.SolverConfig(gap_tol=1e-3))\n"
        "print(res.converged, 'scipy.sparse.linalg' in sys.modules)\n"
    )
    assert _fresh_python(code) == ["[]", "True True"]


def _fresh_python(code):
    """The stdout lines of ``code`` run in a new interpreter on this
    checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


# the four grid gallery cases at small resolutions
GRID_CASES = {"annulus_least_gradient": 24, "rof_annulus": 32,
              "disk_bv_attainment": 24, "weighted_tv_1d": 64}


@pytest.mark.parametrize("name", GRID_CASES)
def test_a_cold_solve_makes_no_round_trip(monkeypatch, name):
    # the data are sampled on the inside cells, the cold start is made
    # there and the result is the compressed state the loop scored, so
    # neither a cold solve nor one warm started from its prolongation pads
    # or compresses anything
    calls = {"cells": 0, "pad": 0}
    for meth in calls:
        def counted(self, values, _meth=meth,
                    _orig=getattr(GridDomain, meth)):
            calls[_meth] += 1
            return _orig(self, values)
        monkeypatch.setattr(GridDomain, meth, counted)
    cfg = SolverConfig(max_iters=200)
    case = get_case(name)
    coarse, fine = case.build_spec(32), case.build_spec(64)
    res = solve(coarse, cfg)
    warm = solve(fine, cfg, warm_start=prolong_state(coarse, res, fine))
    assert calls == {"cells": 0, "pad": 0}
    for spec, r in ((coarse, res), (fine, warm)):
        domain = spec.domain
        N, m = len(domain.points), len(domain.boundary_faces)
        assert r.u.shape == (N, 1) and r.zeta.shape == (m, 1)
        assert r.z.shape == (N, 1, domain.dim)
        assert r.z.transpose(2, 0, 1).flags.c_contiguous  # planar


@pytest.fixture(scope="module")
def solved_grid_cases():
    out = {}
    for name, nx in GRID_CASES.items():
        spec = get_case(name).build_spec(nx)
        out[name] = (spec, solve(spec, SolverConfig(max_iters=2000,
                                                    gap_tol=1e-3)))
    return out


def _into_ball(v, radius):
    """Scale each trailing (n, d) or (n,) block of v into its radius ball."""
    axes = tuple(range(1, v.ndim))
    nrm = np.sqrt(np.sum(v * v, axis=axes))
    scale = np.minimum(1.0, radius / np.maximum(nrm, 1e-300))
    return v * scale.reshape(scale.shape + (1,) * len(axes))


@pytest.mark.parametrize("name", GRID_CASES)
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.floats(0.0, 1e-2))
def test_gap_nonnegative_for_every_feasible_pair(solved_grid_cases, name,
                                                 seed, size):
    # weak duality: any u against any feasible (z, zeta) has gap >= 0
    spec, res = solved_grid_cases[name]
    domain = spec.domain
    bf = domain.boundary_faces
    f = spec.integrand
    rng = np.random.default_rng(seed)

    def shake(a):
        return a + size * rng.uniform(-1.0, 1.0, a.shape)

    u = shake(res.u)
    radius = np.broadcast_to(f.dual_radius(domain.points),
                             (len(domain.points),))
    z = _into_ball(np.where(domain.interior, shake(res.z), 0.0), radius)
    r_b = np.broadcast_to(f.dual_radius(bf.point), (len(bf),))
    zeta = _into_ball(shake(res.zeta), r_b)
    dg = duality_gap(spec, u, z, zeta)
    assert dg.dual_feasible
    assert dg.value >= -1e-12 * abs(dg.primal)
    # the local Fenchel-Young terms of the scored dual sum to the gap ...
    assert sum(float(np.sum(t)) for t in dg.terms) == dg.value
    # ... and none is negative once u lies in the box |u| <= M
    u_box = np.clip(u, -spec.box_bound, spec.box_bound)
    dg_box = duality_gap(spec, u_box, z, zeta)
    scale = max(abs(dg_box.primal), abs(dg_box.dual))
    assert min(float(t.min()) for t in dg_box.terms) >= -1e-14 * scale


def _box_conjugate_oracle(v, spec):
    # sup over |u| <= M of (v - g) u - lambda/2 (u - h)^2, per cell and
    # channel: the unconstrained maximizer h + (v - g)/lambda clipped to the
    # box, or the box corner sign(v - g) M where lambda = 0
    s, h, M = v - spec.g, spec.h, spec.box_bound
    lam = np.broadcast_to(spec.lam[:, None], s.shape)
    safe = np.where(lam > 0, lam, 1.0)
    best = np.where(lam > 0, np.clip(h + s / safe, -M, M), np.sign(s) * M)
    return s * best - 0.5 * lam * (best - h) ** 2


@pytest.mark.parametrize("name", GRID_CASES)
def test_one_evaluation_of_the_gap(solved_grid_cases, name):
    # the gap is the sum of its terms and the primal is relaxed_energy, to
    # the last bit; the dual objective summed in one piece, an oracle
    # independent of the terms' pairings, is primal - gap
    spec, res = solved_grid_cases[name]
    domain = spec.domain
    bf, vol = domain.boundary_faces, domain.cell_volume
    dg = duality_gap(spec, res.u, res.z, res.zeta)
    assert sum(float(np.sum(t)) for t in dg.terms) == dg.value
    assert relaxed_energy(spec, res.u) == dg.primal
    v = (domain.div(dg.z)
         + domain.trace_adjoint(bf.weight[:, None] / vol * dg.zeta))
    dual = (float(np.sum(bf.weight[:, None] * dg.zeta * spec.u0))
            - vol * float(np.sum(spec.integrand.conjugate(domain.points,
                                                          dg.z)))
            - vol * float(np.sum(_box_conjugate_oracle(v, spec))))
    assert abs(dual - dg.dual) <= 1e-12 * max(abs(dg.primal), abs(dg.dual))


def test_default_box_bound_of_the_grid_gallery_cases(solved_grid_cases):
    # max(|u0|, |h|) when g = 0, 4 (max(|u0|, |h|) + 1) otherwise; the ROF
    # annulus's h = 4/(3r) - 4/3 reaches 43.9 at cell centers outside the
    # annulus, and M reads the inside cells only
    got = {name: spec.box_bound
           for name, (spec, _) in solved_grid_cases.items()}
    assert got == {"annulus_least_gradient": 1.0, "disk_bv_attainment": 1.0,
                   "rof_annulus": pytest.approx(4.0 / 3.0),
                   "weighted_tv_1d": 8.0}


def test_one_box_bound_for_solve_gap_and_certificate():
    # a given M is the M of the solve's gap checks, of duality_gap and of
    # the grid certificate
    base = get_case("annulus_least_gradient").build_spec(24)
    spec = ProblemSpec(base.integrand, base.domain, base.u0, box_bound=2.5)
    assert spec.box_bound == 2.5 and base.box_bound == 1.0
    res = solve(spec, SolverConfig(max_iters=300, gap_tol=0.0))
    dg = duality_gap(spec, res.u, res.z, res.zeta)
    assert dg.value == res.gap
    # the default M scores the same triple differently
    assert duality_gap(base, res.u, res.z, res.zeta).value != res.gap
    rep = verify_least_gradient(spec, res.u, res.z, zeta=res.zeta)
    assert rep["r_div"].note.endswith("M = 2.5")
    shares = sum(rep[k].l1 for k in ("r_subdiff", "r_boundary", "r_div"))
    assert abs(shares - res.gap) <= 1e-12 * max(abs(dg.primal), abs(dg.dual))


def _first_nan(a):
    a = a.copy()
    a.flat[0] = np.nan
    return a


@pytest.mark.parametrize("field, edit, error, msg", [
    ("u", lambda a: a[:-1], ShapeMismatchError,
     r"^u has shape \(\d+, 1\), expected \(\d+, 1\)$"),
    ("z", lambda a: a[:-1], ShapeMismatchError,
     r"^z has shape \(\d+, 1, 2\), expected \(\d+, 1, 2\)$"),
    ("z", lambda a: np.concatenate([a, a], axis=1), ShapeMismatchError,
     r"^z has shape \(\d+, 2, 2\), expected \(\d+, 1, 2\)$"),
    ("zeta", lambda a: a[:-1], ShapeMismatchError,
     r"^zeta has shape \(\d+, 1\), expected \(\d+, 1\)$"),
    ("u", _first_nan, InvalidFieldError, "^u has non-finite values$"),
    ("z", _first_nan, InvalidFieldError, "^z has non-finite values$"),
    ("zeta", _first_nan, InvalidFieldError, "^zeta has non-finite values$"),
], ids=["u_short", "z_short", "z_two_channels", "zeta_short", "u_nan",
        "z_nan", "zeta_nan"])
@pytest.mark.parametrize("entry", ["duality_gap", "verify", "warm_start"])
def test_fields_are_checked_where_they_enter(solved_grid_cases, field, edit,
                                             error, msg, entry):
    spec, res = solved_grid_cases["annulus_least_gradient"]
    state = {"u": res.u, "z": res.z, "zeta": res.zeta}
    state[field] = edit(state[field])
    u, z, zeta = state.values()
    call = {
        "duality_gap": lambda: duality_gap(spec, u, z, zeta),
        "verify": lambda: verify_least_gradient(spec, u, z, zeta=zeta),
        "warm_start": lambda: solve(spec, SolverConfig(max_iters=10),
                                    warm_start=(u, z, zeta)),
    }[entry]
    with pytest.raises(error, match=msg):
        call()


@pytest.mark.parametrize("name", GRID_CASES)
def test_grid_report_is_the_gap_split_by_location(solved_grid_cases, name):
    # the three shares sum to the gap, so every share is within 1.01 gap
    # (all terms >= 0) and some share exceeds 0.3 gap
    spec, res = solved_grid_cases[name]
    verify = (verify_least_gradient
              if get_case(name).expected.certificate == "least_gradient"
              else verify_scalar)

    def report(tol):
        return verify(spec, res.u, res.z, zeta=res.zeta, tol=tol)

    rep = report(1.01 * res.gap)
    dg = duality_gap(spec, res.u, res.z, res.zeta)
    shares = sum(rep[k].l1 for k in ("r_subdiff", "r_boundary", "r_div"))
    assert abs(shares - res.gap) <= 1e-12 * max(abs(dg.primal), abs(dg.dual))
    assert rep.overall_pass
    assert not report(0.3 * res.gap).overall_pass


@pytest.mark.parametrize("name", GRID_CASES)
def test_returned_state_is_the_reported_one(solved_grid_cases, name):
    # the solve reports T(x), the PDHG step from the Halpern iterate x,
    # not x itself (with u truncated to the data range where u is clipped
    # to the box); u, z, zeta, the gap and the last raw energy describe
    # that one triple.  Its padded form, which the energies, the gap and
    # the certificates still accept, scores the same to the last bit
    spec, res = solved_grid_cases[name]
    domain = spec.domain
    verify = (verify_least_gradient
              if get_case(name).expected.certificate == "least_gradient"
              else verify_scalar)
    ref = duality_gap(spec, res.u, res.z, res.zeta)
    report = verify(spec, res.u, res.z, zeta=res.zeta).as_flat_dict()
    for u, z in ((res.u, res.z), (domain.pad(res.u), domain.pad(res.z))):
        dg = duality_gap(spec, u, z, res.zeta)
        assert dg.relative == res.gap_relative
        assert dg.value == res.gap
        assert relaxed_energy(spec, u) == res.energy_history_raw[-1]
        assert all(np.array_equal(a, b) for a, b in zip(dg.terms, ref.terms))
        assert verify(spec, u, z, zeta=res.zeta).as_flat_dict() == report


@pytest.mark.parametrize("name", ["rof_annulus", "disk_bv_attainment"])
def test_returned_dual_lies_in_its_balls(solved_grid_cases, name):
    # the reported z and zeta are prox outputs: z in the dual ball of each
    # cell and zeta in that of each boundary face, with no repair; a
    # projection onto a ball lands on its sphere to within one rounding
    spec, res = solved_grid_cases[name]
    bf = spec.domain.boundary_faces
    f = spec.integrand
    roundoff = 1.0 + 2.0 * np.finfo(float).eps
    z_norm = np.sqrt(np.sum(res.z * res.z, axis=(1, 2)))
    assert np.all(z_norm <= roundoff * f.dual_radius(spec.domain.points))
    assert np.all(np.linalg.norm(res.zeta, axis=1)
                  <= roundoff * f.dual_radius(bf.point))

"""Certificate verification: shipped analytic references, sensitivity, grids."""

import dataclasses

import numpy as np
import pytest

from lingrad.certificate import (
    boundary_gradient_condition,
    verify_least_gradient,
    verify_scalar,
    verify_vector,
)
from lingrad.energy import ProblemSpec
from lingrad.errors import ShapeMismatchError
from lingrad.fields import DualField, Field
from lingrad.gallery import get_case
from lingrad.geometry import Annulus, Ball, GridDomain
from lingrad.integrands import make_area, make_tv, make_vector_tv
from lingrad.solver import SolverConfig, solve


def rof_annulus_case():
    return get_case("rof_annulus").analytic


def annulus_lg_case():
    return get_case("annulus_least_gradient").analytic


def test_rof_annulus_reference_passes_tight():
    rep = verify_scalar(rof_annulus_case(), tol=1e-8)
    assert rep.overall_pass
    for cond in rep.conditions.values():
        assert cond.l1 <= 1e-8
        assert cond.sup <= 1e-8


def test_rof_ball_references_pass_for_t_family():
    for t in (0.5, 1.0, 2.0):
        rep = get_case("rof_ball", t=t).verify_reference(1e-8)
        assert rep.overall_pass


def test_weighted_1d_reference_passes_at_1e10():
    rep = get_case("weighted_tv_1d").verify_reference(1e-10)
    assert rep.overall_pass
    for cond in rep.conditions.values():
        assert cond.l1 <= 1e-10


def test_least_gradient_annulus_reference():
    rep = verify_least_gradient(annulus_lg_case(), tol=1e-8)
    assert rep.overall_pass
    # the scalar characterization agrees on the same fields
    rep2 = verify_scalar(annulus_lg_case(), tol=1e-8)
    assert rep2.overall_pass
    # one scorer: the same four residuals with the same values
    assert list(rep.conditions) == list(rep2.conditions) == [
        "r_div", "r_subdiff", "r_range", "r_boundary"]
    for key, cond in rep.conditions.items():
        assert cond.l1 == rep2[key].l1
        assert cond.sup == rep2[key].sup


def test_anisotropic_vector_reference():
    rep = get_case("anisotropic_counterexample").verify_reference(1e-6)
    assert rep.overall_pass


def test_reports_expose_locations_and_norms():
    rep = verify_scalar(rof_annulus_case(), tol=1e-8)
    c = rep["r_boundary"]
    assert c.l1 >= 0 and c.sup >= 0
    assert len(c.worst_location) == 2
    flat = rep.as_flat_dict()
    assert flat["overall_pass"]
    assert "r_div.l1" in flat


# ---------------------------------------------------------------------------
# sensitivity: no silent passes
# ---------------------------------------------------------------------------


def _max_l1(report):
    return max(c.l1 for c in report.conditions.values())


@pytest.mark.parametrize("case_name,verifier", [
    ("rof_annulus", verify_scalar),
    ("annulus_least_gradient", verify_least_gradient),
    ("weighted_tv_1d", verify_scalar),
])
def test_constant_dual_shift_is_detected(case_name, verifier):
    delta = 1e-3
    ana = get_case(case_name).analytic
    z_orig = ana.z
    d = ana.integrand.n_cols
    bump = np.zeros((1, d))
    bump[0, 0] = delta

    pert = dataclasses.replace(ana, z=lambda p: z_orig(p) + bump[None])
    before = verifier(ana, tol=np.inf)
    after = verifier(pert, tol=np.inf)
    rise = _max_l1(after) - _max_l1(before)
    assert rise >= delta / 4


def test_primal_perturbation_is_detected():
    ana = rof_annulus_case()
    delta = 1e-3
    pert = dataclasses.replace(
        ana,
        u=lambda p: np.full(p.shape[0], delta),
    )
    rep = verify_scalar(pert, tol=np.inf)
    assert _max_l1(rep) >= delta / 4


# ---------------------------------------------------------------------------
# boundary gradient condition
# ---------------------------------------------------------------------------


def test_boundary_gradient_condition_rof_annulus():
    pts, res = boundary_gradient_condition(rof_annulus_case())
    assert res.max() <= 1e-10
    # faces with u = u0 contribute exactly zero: outer loop (datum 0 = trace)
    outer = np.isclose(np.linalg.norm(pts, axis=1), 1.0)
    assert np.all(res[outer] == 0.0)


def test_boundary_gradient_condition_linear_in_defect():
    ana = rof_annulus_case()
    delta = 2.5e-3
    z_orig = ana.z

    def z_shifted(p):
        out = z_orig(p).copy()
        r = np.linalg.norm(p, axis=-1, keepdims=True)
        out[:, 0, :] += delta * (p / r)  # radial defect -> [z,nu] shifts by delta
        return out

    pert = dataclasses.replace(ana, z=z_shifted)
    pts, res = boundary_gradient_condition(pert)
    inner = np.isclose(np.linalg.norm(pts, axis=1), 0.5)
    assert np.allclose(res[inner], delta, rtol=1e-9)


# ---------------------------------------------------------------------------
# grid-mode verification
# ---------------------------------------------------------------------------


def test_grid_certificate_on_converged_solve():
    domain = GridDomain(Annulus(1.0, 2.0), 48)
    r = np.linalg.norm(domain.boundary_faces.point, axis=1)
    spec = ProblemSpec(make_tv(1, 2), domain, np.where(r < 1.5, 1.0, 0.0))
    res = solve(spec, SolverConfig(max_iters=30000, gap_tol=1e-6))
    tol = 100 * max(res.gap, 1e-12)
    rep = verify_scalar(spec, res.u, res.z, zeta=res.zeta, tol=tol)
    assert rep.overall_pass
    repg = verify_least_gradient(spec, res.u, res.z, zeta=res.zeta, tol=tol)
    assert repg.overall_pass


def test_grid_certificate_flags_corrupted_dual():
    domain = GridDomain(Annulus(1.0, 2.0), 48)
    r = np.linalg.norm(domain.boundary_faces.point, axis=1)
    spec = ProblemSpec(make_tv(1, 2), domain, np.where(r < 1.5, 1.0, 0.0))
    res = solve(spec, SolverConfig(max_iters=10000, gap_tol=1e-4))
    z_bad = res.z.values.copy()
    z_bad[0, 0] += 0.5
    rep = verify_scalar(spec, Field(domain, res.u.values),
                        DualField(domain, z_bad), zeta=res.zeta, tol=1e-2)
    assert not rep.overall_pass


def test_vector_trivial_certificate():
    domain = GridDomain(Ball(1.0), 32)
    n = 2
    spec = ProblemSpec(make_vector_tv(2, 2), domain,
                       np.zeros((len(domain.boundary_faces), n)))
    u = Field.zeros(domain, n)
    z = DualField.zeros(domain, n)
    rep = verify_vector(spec, u, z, tol=1e-12)
    assert rep.overall_pass
    assert all(c.l1 == 0.0 for c in rep.conditions.values())


def test_vector_constant_certificate():
    domain = GridDomain(Ball(1.0), 32)
    c = np.array([0.7, -1.3])
    u_vals = np.where(domain.inside_mask[None], c[:, None, None], 0.0)
    spec = ProblemSpec(make_vector_tv(2, 2), domain,
                       np.tile(c, (len(domain.boundary_faces), 1)))
    rep = verify_vector(spec, Field(domain, u_vals), DualField.zeros(domain, 2),
                        tol=1e-12)
    assert rep.overall_pass


def test_verify_scalar_rejects_vector_problem():
    domain = GridDomain(Ball(1.0), 32)
    spec = ProblemSpec(make_vector_tv(2, 2), domain,
                       np.zeros((len(domain.boundary_faces), 2)))
    with pytest.raises(ShapeMismatchError):
        verify_scalar(spec, Field.zeros(domain, 2), DualField.zeros(domain, 2))


def test_verify_least_gradient_requires_pure_tv():
    case = get_case("rof_annulus")  # has lambda = 1
    with pytest.raises(ShapeMismatchError, match="lambda"):
        verify_least_gradient(case.analytic)
    spec = case.build_spec(32)
    u, z = Field.zeros(spec.domain, 1), DualField.zeros(spec.domain, 1)
    with pytest.raises(ShapeMismatchError, match="lambda"):
        verify_least_gradient(spec, u, z)
    # only the TV integrand: a vectorial analytic case, a scalar area grid
    with pytest.raises(ShapeMismatchError, match="TV integrand"):
        verify_least_gradient(get_case("anisotropic_counterexample").analytic)
    domain = GridDomain(Ball(1.0), 32)
    spec = ProblemSpec(make_area(2), domain, np.zeros(len(domain.boundary_faces)))
    with pytest.raises(ShapeMismatchError, match="TV integrand"):
        verify_least_gradient(spec, Field.zeros(domain, 1),
                              DualField.zeros(domain, 1))


def test_grid_certificate_passes_across_a_jump():
    # a sharp discontinuity: the cells across the jump carry one-cell
    # gradients of order 1/h, and the certificate still passes
    domain = GridDomain(Ball(1.0), 48)
    u0 = (domain.boundary_faces.point[:, 1] > 0).astype(float)
    spec = ProblemSpec(make_tv(1, 2), domain, u0)
    res = solve(spec, SolverConfig(max_iters=20000, gap_tol=1e-5))
    tol = 100 * max(res.gap, 1e-12)
    rep = verify_scalar(spec, res.u, res.z, zeta=res.zeta, tol=tol)
    assert rep.overall_pass


# ---------------------------------------------------------------------------
# the grid report is the duality gap split by location
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rof_annulus_48():
    spec = get_case("rof_annulus").build_spec(48)
    return spec, solve(spec, SolverConfig(max_iters=20000, gap_tol=1e-6))


def test_grid_report_names_the_worst_location(rof_annulus_48):
    spec, res = rof_annulus_48
    domain = spec.domain
    bf = domain.boundary_faces
    tol = np.inf
    u = domain.cells(res.u.values)

    c = len(u) // 2
    u_bad = u.copy()
    u_bad[c] += 0.5
    rep = verify_scalar(spec, u_bad, res.z, zeta=res.zeta, tol=tol)
    centre = tuple(domain.points[c].tolist())
    assert centre in (rep["r_subdiff"].worst_location,
                      rep["r_div"].worst_location)

    jump = np.abs(spec.u0 - domain.trace(u))[:, 0]
    k = int(np.argmax(jump))
    assert jump[k] > 0.1
    zeta_bad = res.zeta.copy()
    zeta_bad[k] = 0.0
    rep = verify_scalar(spec, res.u, res.z, zeta=zeta_bad, tol=tol)
    assert rep["r_boundary"].worst_location == tuple(bf.point[k].tolist())


def test_grid_report_flags_an_infeasible_multiplier(rof_annulus_48):
    spec, res = rof_annulus_48
    rep = verify_scalar(spec, res.u, res.z, zeta=1.01 * res.zeta, tol=np.inf)
    assert not rep.overall_pass
    assert not rep["r_range"].passed and rep["r_range"].l1 > 0
    assert rep["r_range"].worst_location in {
        tuple(p) for p in spec.domain.boundary_faces.point.tolist()}


def test_boundary_gradient_condition_is_analytic_only(rof_annulus_48):
    spec, res = rof_annulus_48
    with pytest.raises(ShapeMismatchError, match="AnalyticCase"):
        boundary_gradient_condition(spec)

"""Gallery cases: data plumbing, the anisotropic norm, admissibility guards."""

import numpy as np
import pytest
from scipy import optimize

from lingrad.errors import DomainError, ProxFailureError
from lingrad.gallery import (
    BadF0,
    build_bad_f0,
    case_names,
    check_bad_grad,
    get_case,
    anisotropic_counterexample,
    weighted_tv_1d,
    _mat22,
    _vec4,
)

RNG = np.random.default_rng(99)


def test_every_shipped_reference_passes_its_certificate():
    for name in case_names():
        case = get_case(name)
        if case.analytic is None:
            continue
        rep = case.verify_reference(1e-6)
        assert rep.overall_pass, name


def test_boundary_penalty_is_nonnegative():
    from lingrad.energy import boundary_penalty

    rng = np.random.default_rng(11)
    case = get_case("annulus_least_gradient")
    spec = case.build_spec(32)
    for _ in range(20):
        u = np.where(spec.domain.inside_mask[None],
                     rng.standard_normal((1,) + spec.domain.grid_shape), 0.0)
        assert boundary_penalty(spec, u) >= 0.0


def test_registry_contents():
    names = case_names()
    for expected in ("annulus_least_gradient", "rof_annulus", "rof_ball",
                     "weighted_tv_1d", "disk_bv_attainment",
                     "anisotropic_counterexample"):
        assert expected in names
    with pytest.raises(KeyError):
        get_case("no_such_case")


def test_rof_annulus_data_points():
    case = get_case("rof_annulus")
    u0 = case.analytic.u0
    assert u0(np.array([[0.5, 0.0]]))[0] == pytest.approx(4.0 / 3.0)
    assert u0(np.array([[1.0, 0.0]]))[0] == pytest.approx(0.0)


def test_rof_ball_plug_in_values():
    case = get_case("rof_ball", t=1.0)
    ana = case.analytic
    x = np.array([[1.0, 0.0, 0.0]])
    assert ana.u(x)[0] == pytest.approx(2.0)  # u = 2t/|x| at |x| = 1
    # [z, nu] (u0 - u) = 2t = |u0 - u| at the sphere
    zn = np.einsum("mnd,md->mn", ana.z(x), x)[0, 0]
    assert zn * (0.0 - 2.0) == pytest.approx(2.0)


def test_rof_ball_requires_positive_t():
    with pytest.raises(ValueError):
        get_case("rof_ball", t=0.0)


def test_annulus_case_expectations():
    case = get_case("annulus_least_gradient")
    assert case.expected.attainment is False
    assert case.expected.energy == pytest.approx(2 * np.pi)
    spec = case.build_spec(48)
    r = np.linalg.norm(spec.domain.boundary_faces.point, axis=1)
    assert np.all(spec.u0[np.isclose(r, 1.0), 0] == 1.0)
    assert np.all(spec.u0[np.isclose(r, 2.0), 0] == 0.0)


def test_disk_bv_case_grid_data():
    case = get_case("disk_bv_attainment")
    spec = case.build_spec(48)
    pts = spec.domain.boundary_faces.point
    assert np.array_equal(spec.u0[:, 0], (pts[:, 1] > 0).astype(float))
    assert case.expected.attainment is True
    assert case.expected.energy == 2.0


# ---------------------------------------------------------------------------
# weighted 1d admissibility
# ---------------------------------------------------------------------------


def test_weighted_default_is_admissible():
    case = weighted_tv_1d()
    assert case.analytic is not None
    spec = case.build_spec(64)
    # curvature signs at both endpoints embedded in the source term
    assert spec.g[0, 0] < 0  # g = a' < 0 near x = 0


@pytest.mark.parametrize("a,ap,msg", [
    (lambda x: 1.0 + np.sin(np.pi * x) / 2,
     lambda x: np.pi / 2 * np.cos(np.pi * x), "a'(1)"),
    (lambda x: 2.0 - np.cos(np.pi * x),
     lambda x: np.pi * np.sin(np.pi * x), "a'(0)"),
    (lambda x: 3.0 + np.sin(np.pi * (x - 0.5)),
     lambda x: np.pi * np.cos(np.pi * (x - 0.5)), "a'("),
    (lambda x: np.cos(np.pi * x), lambda x: -np.pi * np.sin(np.pi * x),
     "positive"),
])
def test_weighted_rejects_inadmissible(a, ap, msg):
    with pytest.raises(ValueError) as err:
        weighted_tv_1d(a, ap)
    assert msg in str(err.value)


# ---------------------------------------------------------------------------
# the anisotropic norm
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def f0():
    return build_bad_f0(1e-2)


def test_bad_f0_integrand_has_no_prox(f0):
    # the dual range is not a ball: the integrand serves certificates only
    f = f0.integrand()
    assert f.dual_radius is None
    with pytest.raises(ProxFailureError, match=r"'bad_f0:0.01'.*prox_conjugate"):
        f.prox_conjugate(None, 2.0 * np.eye(2), 1.0)


def test_q_vanishes_at_e11(f0):
    q, _ = f0._q_and_grad(np.array([1.0, 0.0, 0.0, 0.0]))
    assert q == 0.0


def test_conj_is_plain_quadratic_off_the_bump(f0):
    # e2 tensor e2 is far from +-e1 tensor e1: f0* = sqrt(A xi . xi)
    M = np.array([[0.0, 0.0], [0.0, 1.0]])
    v = _vec4(M)
    quad = float(v @ f0.A @ v)
    assert f0.conj_value(M[None])[0] == pytest.approx(np.sqrt(quad), rel=1e-14)


def test_value_against_support_function_oracle(f0):
    # f0(x) = max over unit w of <x, w>/f0*(w), solved independently
    rng = np.random.default_rng(2)
    for _ in range(3):
        M = rng.standard_normal((2, 2))
        x = _vec4(M)

        def neg_ratio(w):
            nw = np.linalg.norm(w)
            return -(x @ w) / (f0.conj_value(_mat22(w / nw)[None])[0] * nw)

        # the ratio is smooth and 0-homogeneous in w, so quasi-Newton
        # from a few starts finds the maximum to roundoff
        best = -np.inf
        for _ in range(3):
            res = optimize.minimize(neg_ratio, rng.standard_normal(4),
                                    method="BFGS", options={"gtol": 1e-8})
            best = max(best, -res.fun)
        assert f0.value(M) == pytest.approx(best, rel=1e-9)


def test_norm_axioms_sampled(f0):
    m = 10000
    x = RNG.standard_normal((m, 2, 2))
    y = RNG.standard_normal((m, 2, 2))
    vx = f0.value(x)
    vy = f0.value(y)
    assert np.all(vx > 0)
    # homogeneity (with sign: the norm is even)
    for t in (0.5, -2.0):
        assert np.allclose(f0.value(t * x[:100]), abs(t) * vx[:100], rtol=1e-9)
    # triangle inequality
    assert np.all(f0.value(x + y) <= vx + vy + 1e-9)


def test_uniform_convexity_of_dual_square(f0):
    assert f0.convexity_margin(n_samples=2048, seed=5) > 0


def test_gradient_is_continuous_on_sphere(f0):
    # bounded second differences of D f0 along the sphere
    rng = np.random.default_rng(8)
    x = rng.standard_normal((64, 2, 2))
    x /= np.linalg.norm(x.reshape(64, -1), axis=1)[:, None, None]
    v = rng.standard_normal((64, 2, 2))
    t = 1e-4
    g0 = f0.grad(x)
    g1 = f0.grad(x + t * v)
    g2 = f0.grad(x - t * v)
    second = np.linalg.norm((g1 + g2 - 2 * g0).reshape(64, -1), axis=1) / t**2
    assert second.max() < 1e4  # finite curvature, no kinks at these samples


def test_check_bad_grad_examples(f0):
    assert check_bad_grad(f0, 1.0, 0.0) <= 1e-6
    assert check_bad_grad(f0, 2.0, 0.0) <= 1e-6
    assert check_bad_grad(f0, 1.0, f0.eps / 4) <= 1e-6


def test_check_bad_grad_cone_sweep(f0):
    bs = np.linspace(-0.49 * f0.eps, 0.49 * f0.eps, 50)
    residuals = [check_bad_grad(f0, 1.0, float(b)) for b in bs]
    assert max(residuals) <= 1e-6


def test_check_bad_grad_rejects_outside_cone(f0):
    with pytest.raises(DomainError):
        check_bad_grad(f0, 1.0, f0.eps)


def test_eps_guards():
    with pytest.raises(ValueError):
        build_bad_f0(-1.0)
    with pytest.raises(ValueError):
        build_bad_f0(0.2)  # beyond the calibrated convexity range
    assert BadF0.estimate_eps_max() > 1e-2


def test_anisotropic_case_structure(f0):
    case = anisotropic_counterexample(f0)
    ana = case.analytic
    # datum vanishes on the left half circle
    p = np.array([[-1.0, 0.0]])
    assert np.allclose(ana.u0(p), 0.0)
    # z depends only on x2 and has a zero second column: FD divergence is 0
    pts = RNG.uniform(-0.6, 0.6, (50, 2))
    assert np.abs(ana._div_z(pts)).max() <= 1e-8
    zz = ana.z(np.stack([np.linspace(-0.5, 0.5, 9),
                         np.full(9, 0.001)], axis=-1))
    assert np.allclose(zz[:, :, 1], 0.0)
    assert np.allclose(zz - zz[0], 0.0)  # constant in x1


def test_anisotropic_certificate_passes(f0):
    rep = anisotropic_counterexample(f0).verify_reference(1e-6)
    assert rep.overall_pass


def test_anisotropic_z_is_the_newton_field_in_closed_form(f0):
    # on the plateau |x2| <= eps/8 of etabar, z is g(x2) = c (c, x2) x e1
    # / f0(v x v) at v = (c, x2), the field built by inverting the
    # gradient map, whatever x1
    s = np.linspace(-f0.eps / 8, f0.eps / 8, 2001)
    c = np.sqrt(1.0 - s * s)
    v = np.stack([c, s], axis=-1)
    g = (c / f0.value(v[:, :, None] * v[:, None, :]))[:, None] * v
    z = anisotropic_counterexample(f0).analytic.z
    for x1 in (-0.5, 0.0, 0.9):
        closed = z(np.stack([np.full(s.size, x1), s], axis=-1))
        assert np.all(closed[:, :, 1] == 0.0)
        assert np.max(np.abs(closed[:, :, 0] - g)) <= 1e-13


def test_anisotropic_certificate_inverts_nothing_and_check_inverts_once(
        f0, monkeypatch):
    calls = []
    invert = BadF0._invert_gradient

    def counted(self, targets):
        calls.append(len(targets))
        return invert(self, targets)

    ana = anisotropic_counterexample(f0).analytic
    monkeypatch.setattr(BadF0, "_invert_gradient", counted)
    pts = RNG.uniform(-0.7, 0.7, (400, 2))
    ana.z(pts)
    ana._div_z(pts)
    assert calls == []
    check_bad_grad(f0, 1.0, f0.eps / 4)
    assert calls == [1]


def test_anisotropic_u0_needs_narrow_bump(f0):
    case = anisotropic_counterexample(f0)
    s = np.linspace(-1, 1, 100001)
    p = np.stack([np.sqrt(np.maximum(0, 1 - s * s)), s], axis=-1)
    vals = np.linalg.norm(case.analytic.u0(p), axis=1)
    support = np.abs(s[vals > 0])
    assert support.max() < f0.eps / 4
    assert vals.max() > 0

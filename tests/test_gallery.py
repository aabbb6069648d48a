"""Gallery cases: data plumbing, the anisotropic norm, admissibility guards."""

import numpy as np
import pytest
from scipy import optimize

from lingrad import gallery
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


def test_bad_f0_integrand_gradient_is_the_norm_gradient(f0):
    # one batch axis and two, against BadF0.grad on the flattened matrices
    f = f0.integrand()
    xi = np.random.default_rng(5).standard_normal((3, 4, 2, 2))
    assert np.array_equal(f.gradient(None, xi),
                          f0.grad(xi.reshape(-1, 2, 2)).reshape(xi.shape))
    assert np.array_equal(f.gradient(None, xi[0]),
                          f0.grad(xi[0]).reshape(xi[0].shape))


def test_q_vanishes_at_e11(f0):
    q, _ = f0._q_and_grad(np.array([1.0, 0.0, 0.0, 0.0]))
    assert q == 0.0


def test_conj_is_plain_quadratic_off_the_bump(f0):
    # e2 tensor e2 is far from +-e1 tensor e1: f0* = sqrt(A xi . xi)
    M = np.array([[0.0, 0.0], [0.0, 1.0]])
    v = _vec4(M)
    quad = float(v @ f0.A @ v)
    assert f0.conj_value(M[None])[0] == pytest.approx(np.sqrt(quad), rel=1e-14)


def support_oracle(f0, x, starts):
    """f0(x) = max over unit w of <x, w>/f0*(w), solved independently."""
    def neg_ratio(w):
        nw = np.linalg.norm(w)
        return -(x @ w) / (f0.conj_value(_mat22(w / nw)[None])[0] * nw)

    # the ratio is smooth and 0-homogeneous in w, so quasi-Newton
    # from a few starts finds the maximum to roundoff
    return max(-optimize.minimize(neg_ratio, w0, method="BFGS",
                                  options={"gtol": 1e-8}).fun for w0 in starts)


def test_value_against_support_function_oracle(f0):
    rng = np.random.default_rng(2)
    for _ in range(3):
        M = rng.standard_normal((2, 2))
        best = support_oracle(f0, _vec4(M),
                              [rng.standard_normal(4) for _ in range(3)])
        assert f0.value(M) == pytest.approx(best, rel=1e-9)
    # x = A y with y in the sliding band of either pole: the maximizer is
    # near y, where Dq chains through the bump's slope
    u = np.array([0.0, 0.6, 0.3, 0.74])
    u /= np.linalg.norm(u)
    theta = 2.0 * np.arcsin(0.15 / 2.0)  # chordal distance 0.15 to the pole
    for pole in (1.0, -1.0):
        y = pole * np.cos(theta) * np.eye(4)[0] + np.sin(theta) * u
        x = f0.A @ y
        best = support_oracle(f0, x, [y])
        assert f0.value(_mat22(x)) == pytest.approx(best, rel=1e-9)


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


def oracle_invert(f0, targets):
    """The Newton inversion with its Jacobian built one direction at a
    time and the residual evaluated again after every step."""
    t = np.asarray(targets, dtype=float)
    single = t.ndim == 1
    t = np.atleast_2d(t)
    norm_t = np.linalg.norm(t, axis=-1, keepdims=True)
    fstar = f0.conj_value(_mat22(t))[..., None]
    xi = t / np.maximum(fstar, 1e-300)
    xi = np.where(norm_t > 0, xi, 0.0)
    res = f0._grad_half_conj_sq(xi) - t
    for _ in range(gallery._NEWTON_ITERS):
        rmax = np.max(np.abs(res) / np.maximum(norm_t, 1e-300))
        if rmax < gallery._NEWTON_TOL:
            break
        step = 1e-7 * np.maximum(np.linalg.norm(xi, axis=-1, keepdims=True), 1.0)
        J = np.empty(xi.shape[:-1] + (4, 4))
        for j in range(4):
            dxi = np.zeros_like(xi)
            dxi[..., j] = step[..., 0]
            J[..., :, j] = (f0._grad_half_conj_sq(xi + dxi)
                            - f0._grad_half_conj_sq(xi - dxi)) / (2.0 * step)
        try:
            delta = np.linalg.solve(J, res[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise ProxFailureError(
                "Newton inversion hit a singular Jacobian; reduce eps")
        lam = np.ones(xi.shape[:-1] + (1,))
        for _ in range(30):
            rc = f0._grad_half_conj_sq(xi - lam * delta) - t
            worse = (np.linalg.norm(rc, axis=-1, keepdims=True)
                     > np.linalg.norm(res, axis=-1, keepdims=True))
            if not np.any(worse):
                break
            lam = np.where(worse, 0.5 * lam, lam)
        xi = xi - lam * delta
        res = f0._grad_half_conj_sq(xi) - t
    else:
        rmax = np.max(np.abs(res) / np.maximum(norm_t, 1e-300))
        if rmax >= 1e-8:
            raise ProxFailureError(
                f"gradient inversion stalled (residual {rmax:.1e}); "
                "try a smaller eps")
    return xi[0] if single else xi


def cone_targets(f0, n):
    # v x v for v = (1, b) inside the cone |b| < eps / 2, where the gradient
    # identity holds
    bs = np.linspace(-0.49 * f0.eps, 0.49 * f0.eps, n)
    return np.stack([_vec4(np.outer([1.0, b], [1.0, b])) for b in bs])


@pytest.mark.parametrize("targets", [
    np.random.default_rng(17).standard_normal((512, 4)),
    "cone",
    np.zeros((1, 4)),
    np.array([0.3, -1.2, 0.5, 2.0]),
], ids=["batch512", "cone", "zero_row", "1d"])
def test_inversion_equals_the_per_direction_oracle_bit_for_bit(f0, targets):
    if isinstance(targets, str):
        targets = cone_targets(f0, 21)
    new, old = f0._invert_gradient(targets), oracle_invert(f0, targets)
    assert new.shape == old.shape == np.shape(targets)
    assert new.tobytes() == old.tobytes()


def sphere_rows(pole, dist, n, seed):
    """n 4-vectors of random norms whose directions lie at sphere distance
    about ``dist`` from ``pole``."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, 4))
    u -= (u @ pole)[:, None] * pole
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    y = pole + dist * u
    y /= np.linalg.norm(y, axis=-1, keepdims=True)
    return rng.uniform(0.5, 3.0, (n, 1)) * y


@pytest.mark.parametrize("dist, region", [
    (0.05, "plateau"), (0.15, "sliding"), (0.4, "outside")])
def test_q_only_path_equals_q_and_grad_bit_for_bit(f0, dist, region):
    e11 = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.concatenate([sphere_rows(e11, dist, 64, 1),
                        sphere_rows(-e11, dist, 64, 2)])
    q, grad = f0._q_and_grad(v)
    q_only, (_, _, _, _, w, _, _, _) = f0._cutoff(v)
    if region == "plateau":
        assert np.all(w == 1.0) and np.all(q != 0.0)
    elif region == "sliding":
        assert np.all((0.0 < w) & (w < 1.0)) and np.all(q != 0.0)
    else:
        assert np.all(w == 0.0) and np.all(grad == 0.0)
    assert q_only.tobytes() == q.tobytes()
    quad = np.einsum("...i,ij,...j->...", v, f0.A, v)
    assert (f0.conj_value(_mat22(v)).tobytes()
            == np.sqrt(np.maximum(quad + q, 0.0)).tobytes())
    # Dq is the derivative of the q-only path, on the band's slope too
    fd = np.stack([(f0._cutoff(v + e)[0] - f0._cutoff(v - e)[0]) / 2e-7
                   for e in 1e-7 * np.eye(4)], axis=-1)
    assert np.all(np.linalg.norm(grad - fd, axis=-1)
                  <= 1e-6 * np.linalg.norm(grad, axis=-1))


def test_inversion_reports_a_singular_jacobian(f0, monkeypatch):
    # a constant gradient map has a zero Jacobian
    monkeypatch.setattr(BadF0, "_grad_half_conj_sq",
                        lambda self, v: np.ones_like(v))
    with pytest.raises(ProxFailureError, match="singular Jacobian; reduce eps"):
        f0._invert_gradient(np.array([[1.0, 0.0, 0.0, 0.0]]))


def test_inversion_reports_a_stall(f0, monkeypatch):
    # v * v + 1 >= 1 never meets the target -1 and its Jacobian diag(2 v)
    # stays invertible, so Newton runs out of steps; some line searches
    # exhaust every halving on the way, and every Newton system solved
    # matches the oracle's bit for bit
    monkeypatch.setattr(BadF0, "_grad_half_conj_sq",
                        lambda self, v: v * v + 1.0)
    solve, systems = np.linalg.solve, []

    def recorded(J, b):
        systems[-1].append(J.tobytes() + b.tobytes())
        return solve(J, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    msg = r"gradient inversion stalled \(residual 1.0e\+00\); try a smaller eps"
    for invert in (f0._invert_gradient, lambda t: oracle_invert(f0, t)):
        systems.append([])
        with pytest.raises(ProxFailureError, match=msg):
            invert(-np.ones((2, 4)))
    assert len(systems[0]) == gallery._NEWTON_ITERS
    assert systems[0] == systems[1]


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
        build_bad_f0(float("nan"))
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


def test_check_bad_grad_evaluates_the_cutoff_four_times(f0, monkeypatch):
    # one inversion: q alone for the start's f0*, then q and Dq for the
    # start's residual, for one Newton step's batched Jacobian and for one
    # accepted line-search trial whose residual ends the loop
    calls = {"_invert_gradient": [], "_cutoff": [], "_q_and_grad": []}

    def counted(name):
        method = getattr(BadF0, name)

        def wrapper(self, v):
            calls[name].append(np.shape(v))
            return method(self, v)
        return wrapper

    for name in calls:
        monkeypatch.setattr(BadF0, name, counted(name))
    assert check_bad_grad(f0, 1.0, f0.eps / 4) <= 1e-6
    assert calls["_invert_gradient"] == [(1, 4)]
    assert calls["_cutoff"] == [(1, 4), (1, 4), (8, 4), (1, 4)]
    assert calls["_q_and_grad"] == [(1, 4), (8, 4), (1, 4)]


def test_anisotropic_u0_needs_narrow_bump(f0):
    case = anisotropic_counterexample(f0)
    s = np.linspace(-1, 1, 100001)
    p = np.stack([np.sqrt(np.maximum(0, 1 - s * s)), s], axis=-1)
    vals = np.linalg.norm(case.analytic.u0(p), axis=1)
    support = np.abs(s[vals > 0])
    assert support.max() < f0.eps / 4
    assert vals.max() > 0

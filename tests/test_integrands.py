"""Convex-core tests: values, duality, recession, prox, property suite."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lingrad.errors import (
    DualRangeError,
    ProxFailureError,
    ShapeMismatchError,
    SingularPointError,
)
from lingrad.integrands import (
    Integrand,
    calibrate_fenchel_constant,
    make_area,
    make_hencky,
    make_tv,
    make_vector_tv,
    make_weighted_tv,
)

RNG = np.random.default_rng(42)


def builtin_integrands():
    return [
        make_tv(1, 2),
        make_area(2),
        make_hencky(2),
        make_weighted_tv(lambda p: 2.0 - np.sin(np.pi * p[..., 0]), d=1,
                         a_bounds=(1.0, 2.0)),
        make_vector_tv(2, 2),
    ]


def sample_x(f, m):
    if not f.x_dependent:
        return None
    return RNG.uniform(0.05, 0.95, (m, f.n_cols))


# ---------------------------------------------------------------------------
# spec-level examples
# ---------------------------------------------------------------------------


def test_tv_value():
    tv = make_tv(1, 2)
    assert tv.value(None, [3.0, 4.0]) == pytest.approx(5.0)


def test_area_value_at_zero():
    assert make_area(2).value(None, [0.0, 0.0]) == pytest.approx(1.0)


def test_hencky_small_branch():
    # |xi| = 1/2 sits on the quadratic branch: value |xi|^2
    assert make_hencky(2).value(None, [0.5, 0.0]) == pytest.approx(0.25)


def test_recession_tv_and_area():
    assert make_tv(1, 2).recession(None, [1.0, 0.0]) == pytest.approx(1.0)
    assert make_area(2).recession(None, [3.0, 4.0]) == pytest.approx(5.0)


def test_recession_hencky():
    xi = RNG.standard_normal(2)
    assert make_hencky(2).recession(None, xi) == pytest.approx(
        np.linalg.norm(xi))


def test_conjugate_tv_indicator():
    tv = make_tv(1, 2)
    assert tv.conjugate(None, [0.5, 0.0]) == 0.0
    assert np.isinf(tv.conjugate(None, [2.0, 0.0]))


def test_conjugate_area_oracle():
    # 1D maximization oracle gives f*(0) = -sqrt(1 - 0) = -1
    assert make_area(2).conjugate(None, [0.0, 0.0]) == pytest.approx(-1.0)
    # interior point: closed form -sqrt(1 - |z|^2), checked by enumeration
    z = np.array([0.3, 0.4])
    ts = np.linspace(0.0, 20.0, 400001)
    sup = np.max(0.5 * ts - np.sqrt(1.0 + ts * ts))
    assert make_area(2).conjugate(None, z) == pytest.approx(sup, abs=1e-8)


def test_fenchel_young_equality_at_gradient():
    for f in builtin_integrands():
        xi = RNG.standard_normal((f.n_rows, f.n_cols)) + 0.1
        x = sample_x(f, 1)
        x1 = None if x is None else x[0]
        z = f.gradient(x1, xi)
        gap = f.subdiff_residual(x1, xi, z)
        assert abs(float(gap)) < 1e-10


def test_recession_gradient_examples():
    tv = make_tv(1, 2)
    assert np.allclose(tv.recession_gradient(None, [0.0, 1.0]), [[0.0, 1.0]])
    w = make_weighted_tv(lambda p: np.full(p.shape[:-1], 2.0), d=2,
                         a_bounds=(2.0, 2.0))
    g = w.recession_gradient(np.array([0.3, 0.3]), [1.0, 0.0])
    assert np.allclose(g, [[2.0, 0.0]])


def test_recession_gradient_area_fd_oracle():
    # finite differences of the recession function itself
    area = make_area(2)
    xi = np.array([3.0, 4.0])
    step = 1e-6
    fd = np.empty(2)
    for i in range(2):
        e = np.zeros(2)
        e[i] = step
        fd[i] = (area.recession(None, xi + e) - area.recession(None, xi - e)) / (
            2 * step)
    got = area.recession_gradient(None, xi)[0]
    assert np.allclose(got, fd, atol=1e-8)
    assert np.allclose(got, [0.6, 0.8])


def test_recession_gradient_euler_identity():
    # <D f^inf(xi), xi> = f^inf(xi)
    for f in builtin_integrands():
        xi = RNG.standard_normal((f.n_rows, f.n_cols)) + 0.05
        x = sample_x(f, 1)
        x1 = None if x is None else x[0]
        g = f.recession_gradient(x1, xi)
        lhs = float(np.sum(g * xi))
        rhs = float(f.recession(x1, xi))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_singular_point_error_at_zero():
    with pytest.raises(SingularPointError):
        make_tv(1, 2).gradient(None, [0.0, 0.0])
    with pytest.raises(SingularPointError):
        make_area(2).recession_gradient(None, [0.0, 0.0])


def test_prox_tv_projection():
    tv = make_tv(1, 2)
    assert np.allclose(tv.prox_conjugate(None, [2.0, 0.0], 0.37), [[1.0, 0.0]])
    assert np.allclose(tv.prox_conjugate(None, [0.3, 0.4], 5.0), [[0.3, 0.4]])


def test_prox_area_radial_oracle():
    # frozen root of r + r/sqrt(1 - r^2) = 2, computed by independent bisection
    root = 0.7747295739010802
    got = make_area(2).prox_conjugate(None, [2.0, 0.0], 1.0)
    assert np.allclose(got, [[root, 0.0]], atol=1e-12)


def test_prox_hencky_shrink_then_clamp():
    hk = make_hencky(2)
    # interior: pure shrink by 1/(1 + tau/2)
    got = hk.prox_conjugate(None, [0.5, 0.0], 1.0)
    assert np.allclose(got, [[0.5 / 1.5, 0.0]])
    # far point clamps to the unit sphere
    got = hk.prox_conjugate(None, [30.0, 0.0], 0.1)
    assert np.allclose(got, [[1.0, 0.0]])


def test_prox_weighted_tv_where_weight_vanishes():
    # the dual ball of radius a(x) = 0 is {0}, also for zeta = 0
    w = make_weighted_tv(lambda p: np.abs(p[..., 0] - 0.5), d=1,
                         a_bounds=(0.1, 1.0))
    x = np.array([[0.5], [0.5], [0.2]])
    got = w.prox_conjugate(x, np.array([[0.0], [2.0], [2.0]]), 1.0)
    assert np.array_equal(got[:, 0, 0], [0.0, 0.0, 0.3])


def test_prox_requires_positive_tau():
    with pytest.raises(ValueError):
        make_tv(1, 2).prox_conjugate(None, [1.0, 0.0], 0.0)


def prox_args(f):
    """Strategy for (x, v, w, tau): two prox inputs with |v|, |w| <= 20."""
    entry = 20.0 / np.sqrt(f.n_rows * f.n_cols)
    mat = hnp.arrays(float, (1, f.n_rows, f.n_cols),
                     elements=st.floats(-entry, entry))
    x = (hnp.arrays(float, (1, f.n_cols), elements=st.floats(0.05, 0.95))
         if f.x_dependent else st.none())
    return st.tuples(x, mat, mat, st.floats(0.05, 20.0))


@pytest.mark.parametrize("f", builtin_integrands(), ids=lambda f: f.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_prox_firmly_nonexpansive(f, data):
    # |p - q|^2 <= <p - q, v - w> for p, q the proxes of v, w
    x, v, w, tau = data.draw(prox_args(f))
    p = f.prox_conjugate(x, v, tau)
    q = f.prox_conjugate(x, w, tau)
    assert np.sum((p - q) ** 2) <= np.sum((p - q) * (v - w)) + 1e-12


@pytest.mark.parametrize("f", builtin_integrands(), ids=lambda f: f.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_prox_optimality_is_fenchel_young_equality(f, data):
    # p = prox_{tau f*}(v) iff (v - p)/tau is a subgradient of f* at p, iff
    # the Fenchel-Young inequality is tight at ((v - p)/tau, p)
    x, v, _, tau = data.draw(prox_args(f))
    p = f.prox_conjugate(x, v, tau)
    res = f.subdiff_residual(x, (v - p) / tau, p)
    assert np.all(np.abs(res) <= 1e-12)


def test_area_prox_shrinks_tiny_zeta():
    # r + tau r / sqrt(1 - r^2) = |zeta| gives r -> |zeta| / (1 + tau) as
    # |zeta| -> 0, and r <= |zeta| everywhere
    area = make_area(2)
    t = np.logspace(-300, 3, 20001)
    zeta = np.stack([t, np.zeros_like(t)], axis=-1)
    tiny = t < 1e-12
    for tau in (0.05, 1.0, 20.0):
        p = area.prox_conjugate(None, zeta, tau)
        assert np.all(p[:, 0, 1] == 0.0)
        assert np.all(np.abs(p[:, 0, 0]) <= t)
        assert np.allclose(p[tiny, 0, 0], t[tiny] / (1.0 + tau),
                           rtol=1e-12, atol=0.0)
    got = area.prox_conjugate(None, [1e-40, 0.0], 1.0)
    assert got[0, 0] == pytest.approx(5e-41, rel=1e-12)


def test_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        make_tv(1, 2).value(None, [1.0, 2.0, 3.0])
    with pytest.raises(ShapeMismatchError):
        make_vector_tv(2, 2).value(None, [1.0, 2.0])
    # a scalar integrand promotes (d,) and (m, d) only: (3, 2, 2) is three
    # 2x2 gradients, not 3 x 2 scalar gradients
    tv = make_tv(1, 2)
    with pytest.raises(ShapeMismatchError, match=r"\(3, 2, 2\)"):
        tv.value(np.zeros((3, 2)), np.ones((3, 2, 2)))
    assert np.array_equal(tv.value(None, np.ones((3, 2))),
                          tv.value(None, np.ones((3, 1, 2))))


def test_subdiff_residual_examples():
    tv = make_tv(1, 2)
    # whole unit ball is the subdifferential at 0
    assert tv.subdiff_residual(None, [0.0, 0.0], [0.6, -0.5]) == pytest.approx(0.0)
    # direct evaluation: f(xi) + f*(z) - <z, xi> = 1 + 0 - 0
    assert tv.subdiff_residual(None, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)


def test_quant_fenchel_margins_tv():
    tv = make_tv(1, 2)
    # direct algebra oracle: 1 - <v, v*> - 0.5 |v - v*|^2 = (1 - |v*|^2)/2
    assert tv.quant_fenchel_margin(None, [1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.5)
    assert tv.quant_fenchel_margin(None, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(0.0)
    assert tv.quant_fenchel_margin(None, [1.0, 0.0], [-1.0, 0.0]) == pytest.approx(
        0.0, abs=1e-12)


def test_quant_fenchel_rejects_outside_dual_range():
    with pytest.raises(DualRangeError):
        make_tv(1, 2).quant_fenchel_margin(None, [1.0, 0.0], [1.5, 0.0])
    with pytest.raises(ShapeMismatchError):
        make_tv(1, 2).quant_fenchel_margin(None, [2.0, 0.0], [0.5, 0.0])


# ---------------------------------------------------------------------------
# user integrands: the closed-form contract
# ---------------------------------------------------------------------------


def _user_area_slots():
    area = make_area(2)
    return dict(value=area.value, gradient=area.gradient,
                recession_value=area.recession,
                recession_gradient=area.recession_gradient,
                conjugate=area.conjugate)


def user_area_like():
    # area integrand with every closed form but the prox of its conjugate
    return Integrand(1, 2, name="userf", growth_constant=1.0,
                     **_user_area_slots())


def test_prox_without_closed_form_raises():
    with pytest.raises(ProxFailureError, match="'userf'.*prox_conjugate"):
        user_area_like().prox_conjugate(None, [1.0, 0.0], 1.0)


@pytest.mark.parametrize("slot", ["value", "gradient", "recession_value",
                                  "recession_gradient", "conjugate"])
def test_integrand_requires_every_closed_form(slot):
    slots = _user_area_slots()
    del slots[slot]
    with pytest.raises(TypeError, match=f"'{slot}'"):
        Integrand(1, 2, name="userf", growth_constant=1.0, **slots)


# ---------------------------------------------------------------------------
# property suite (the invariants backing the acceptance run)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("f", builtin_integrands(), ids=lambda f: f.name)
def test_recession_homogeneity(f):
    m = 200
    xi = RNG.standard_normal((m, f.n_rows, f.n_cols))
    x = sample_x(f, m)
    base = f.recession(x, xi)
    for t in (0.5, 2.0, 17.0):
        scaled = f.recession(x, t * xi)
        assert np.allclose(scaled, t * base, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("f", builtin_integrands(), ids=lambda f: f.name)
def test_growth_bounds(f):
    m = 500
    xi = RNG.standard_normal((m, f.n_rows, f.n_cols)) * 10
    x = sample_x(f, m)
    nrm = np.sqrt(np.sum(xi * xi, axis=(-2, -1)))
    val = f.value(x, xi)
    C = f.growth_constant
    assert np.all(val >= nrm / C - C - 1e-12)
    assert np.all(val <= C * (nrm + 1.0) + 1e-12)
    fin = f.recession(x, xi)
    assert np.all(fin >= nrm / C - 1e-12)
    assert np.all(fin <= C * nrm + 1e-12)


@pytest.mark.parametrize("f", builtin_integrands(), ids=lambda f: f.name)
def test_midpoint_convexity(f):
    m = 500
    a = RNG.standard_normal((m, f.n_rows, f.n_cols)) * 5
    b = RNG.standard_normal((m, f.n_rows, f.n_cols)) * 5
    x = sample_x(f, m)
    mid = f.value(x, 0.5 * (a + b))
    avg = 0.5 * (f.value(x, a) + f.value(x, b))
    assert np.all(mid <= avg + 1e-12)


@pytest.mark.parametrize("f", builtin_integrands(), ids=lambda f: f.name)
def test_fenchel_young_nonnegative(f):
    m = 300
    xi = RNG.standard_normal((m, f.n_rows, f.n_cols)) * 3
    x = sample_x(f, m)
    radius = f.dual_radius(x) if f.x_dependent else f.dual_radius(None)
    z = RNG.standard_normal((m, f.n_rows, f.n_cols))
    z *= (np.asarray(radius) * RNG.uniform(0, 1, m)
          / np.sqrt(np.sum(z * z, axis=(-2, -1))))[..., None, None]
    res = f.subdiff_residual(x, xi, z)
    assert np.all(res >= -1e-12)


@pytest.mark.parametrize("f", builtin_integrands(), ids=lambda f: f.name)
def test_dual_range_bound_of_prox(f):
    m = 300
    zeta = RNG.standard_normal((m, f.n_rows, f.n_cols)) * 8
    x = sample_x(f, m)
    for tau in (0.1, 1.0, 10.0):
        out = f.prox_conjugate(x, zeta, tau)
        nrm = np.sqrt(np.sum(out * out, axis=(-2, -1)))
        assert np.all(nrm <= f.growth_constant + 1e-12)


@pytest.mark.parametrize("f", builtin_integrands(), ids=lambda f: f.name)
def test_gradient_limit_to_recession(f):
    # <D f(x, t xi), xi/|xi|> increases to f^inf(x, xi/|xi|)
    m = 64
    xi = RNG.standard_normal((m, f.n_rows, f.n_cols))
    xi /= np.sqrt(np.sum(xi * xi, axis=(-2, -1)))[..., None, None]
    x = sample_x(f, m)
    target = f.recession(x, xi)
    prev = None
    for t in (10.0, 100.0, 1000.0):
        slope = np.sum(f.gradient(x, t * xi) * xi, axis=(-2, -1))
        if prev is not None:
            assert np.all(slope >= prev - 1e-12)
        prev = slope
    assert np.allclose(prev, target, atol=1e-3)


@pytest.mark.parametrize("f", builtin_integrands(), ids=lambda f: f.name)
def test_quant_fenchel_margin_bulk(f):
    rng = np.random.default_rng(7)
    m = 10000
    v = rng.standard_normal((m, f.n_rows, f.n_cols))
    v /= np.sqrt(np.sum(v * v, axis=(-2, -1)))[..., None, None]
    x = sample_x(f, m)
    # dual samples: random directions scaled into the dual ball
    w = rng.standard_normal((m, f.n_rows, f.n_cols))
    w /= np.sqrt(np.sum(w * w, axis=(-2, -1)))[..., None, None]
    radius = np.asarray(f.dual_radius(x) if f.x_dependent else f.dual_radius(None))
    vstar = w * (radius * rng.uniform(0, 1, m))[..., None, None]
    g = f.recession_gradient(x, v)
    diff = g - vstar
    margin = (np.sum(diff * v, axis=(-2, -1))
              - f.fenchel_constant * np.sum(diff * diff, axis=(-2, -1)))
    assert margin.min() >= -1e-10


def test_biconjugacy_roundtrip():
    # sup over dual samples of <z, xi> - f*(z) recovers f(xi) within 1e-6
    rng = np.random.default_rng(3)
    ang = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    radii = np.linspace(0, 1, 2001)
    zs = (radii[:, None, None]
          * np.stack([np.cos(ang), np.sin(ang)], axis=-1)[None]).reshape(-1, 1, 2)
    for f in (make_tv(1, 2), make_area(2), make_hencky(2)):
        fstar = f.conjugate(None, zs)
        for _ in range(3):
            xi = rng.standard_normal((1, 2))
            xi *= min(1.0, 2.0 / np.linalg.norm(xi))  # sup error ~ |xi| dtheta^2
            rec = float(np.max(np.einsum("nd,knd->k", xi, zs) - fstar))
            assert rec == pytest.approx(float(f.value(None, xi)), abs=1e-6)


def test_calibrate_fenchel_constant_positive():
    c = calibrate_fenchel_constant(make_tv(1, 2), n_samples=512)
    assert 0.3 < c <= 0.5 + 1e-12


# ---------------------------------------------------------------------------
# reference oracle: the hand-written closed forms of each built-in family,
# kept as they were before the family was built on one isotropic
# constructor; the built-ins must reproduce them bit for bit
# ---------------------------------------------------------------------------


def ref_fro(xi):
    return np.sqrt(np.einsum("...ij,...ij->...", xi, xi))


def ref_unit(xi):
    nrm = ref_fro(xi)
    if np.any(nrm == 0.0):
        raise SingularPointError("xi = 0")
    return xi / nrm[..., None, None]


def ref_tv():
    def conjugate(x, z):
        nrm = ref_fro(z)
        return np.where(nrm <= 1.0 + 1e-12, 0.0, np.inf)

    def prox(x, zeta, tau):
        nrm = ref_fro(zeta)
        scale = 1.0 / np.maximum(1.0, nrm)
        return zeta * scale[..., None, None]

    return dict(value=lambda x, xi: ref_fro(xi), gradient=lambda x, xi: ref_unit(xi),
                conjugate=conjugate, prox=prox, radius=1.0,
                growth_constant=1.0, fenchel_constant=0.5)


def ref_area():
    def value(x, xi):
        return np.sqrt(1.0 + np.sum(xi * xi, axis=(-2, -1)))

    def gradient(x, xi):
        return xi / value(x, xi)[..., None, None]

    def conjugate(x, z):
        nrm2 = np.sum(z * z, axis=(-2, -1))
        inside = nrm2 <= 1.0 + 1e-12
        return np.where(inside, -np.sqrt(np.maximum(0.0, 1.0 - nrm2)), np.inf)

    def prox(x, zeta, tau):
        s = ref_fro(zeta)
        lo = np.zeros_like(s)
        hi = np.full_like(s, 1.0 - 1e-16)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            g = mid + tau * mid / np.sqrt(np.maximum(1e-300, 1.0 - mid * mid))
            took = g < s
            lo = np.where(took, mid, lo)
            hi = np.where(took, hi, mid)
        r = 0.5 * (lo + hi)
        ratio = np.where(s > 0, r / np.maximum(s, 1e-300), 1.0 / (1.0 + tau))
        return zeta * ratio[..., None, None]

    return dict(value=value, gradient=gradient, conjugate=conjugate, prox=prox,
                radius=1.0, growth_constant=1.0, fenchel_constant=0.5)


def ref_hencky():
    def value(x, xi):
        nrm = ref_fro(xi)
        return np.where(nrm <= 0.5, nrm * nrm, nrm - 0.25)

    def gradient(x, xi):
        nrm = ref_fro(xi)
        safe = np.maximum(nrm, 1e-300)
        scale = np.where(nrm <= 0.5, 2.0, 1.0 / safe)
        return xi * scale[..., None, None]

    def conjugate(x, z):
        nrm2 = np.sum(z * z, axis=(-2, -1))
        return np.where(nrm2 <= 1.0 + 1e-12, 0.25 * nrm2, np.inf)

    def prox(x, zeta, tau):
        s = ref_fro(zeta)
        r = np.minimum(s / (1.0 + 0.5 * tau), 1.0)
        safe = np.maximum(s, 1e-300)
        return zeta * (r / safe)[..., None, None]

    return dict(value=value, gradient=gradient, conjugate=conjugate, prox=prox,
                radius=1.0, growth_constant=1.0, fenchel_constant=0.5)


def ref_weight(x):
    return 2.0 - np.sin(np.pi * x[..., 0])


def ref_weighted_tv(a_min, a_max):
    def value(x, xi):
        return ref_weight(x) * ref_fro(xi)

    def gradient(x, xi):
        nrm = ref_fro(xi)
        if np.any(nrm == 0.0):
            raise SingularPointError("xi = 0")
        return xi * (ref_weight(x) / nrm)[..., None, None]

    def conjugate(x, z):
        nrm = ref_fro(z)
        return np.where(nrm <= ref_weight(x) * (1.0 + 1e-12), 0.0, np.inf)

    def prox(x, zeta, tau):
        nrm = ref_fro(zeta)
        w = np.broadcast_to(ref_weight(x), nrm.shape)
        scale = np.where(nrm > w, w / np.maximum(nrm, 1e-300), 1.0)
        return zeta * scale[..., None, None]

    return dict(value=value, gradient=gradient, conjugate=conjugate, prox=prox,
                radius=None, growth_constant=max(a_max, 1.0 / a_min),
                fenchel_constant=0.5 / a_max)


# (built-in, its reference, the reference of its recession function a(x)|xi|)
ORACLE_CASES = [
    (make_tv(1, 2), ref_tv(), ref_tv()),
    (make_vector_tv(2, 3), ref_tv(), ref_tv()),
    (make_area(2), ref_area(), ref_tv()),
    (make_hencky(2), ref_hencky(), ref_tv()),
    (make_weighted_tv(ref_weight, d=1, a_bounds=(1.0, 2.0)),
     ref_weighted_tv(1.0, 2.0), ref_weighted_tv(1.0, 2.0)),
    (make_weighted_tv(ref_weight, d=2, a_bounds=(0.5, 3.0)),
     ref_weighted_tv(0.5, 3.0), ref_weighted_tv(0.5, 3.0)),
]


def assert_same(got, want, *args):
    """Bit-identical results, or SingularPointError from both."""
    try:
        expected = want(*args)
    except SingularPointError:
        with pytest.raises(SingularPointError):
            got(*args)
        return
    assert np.array_equal(got(*args), expected)


@st.composite
def oracle_args(draw, f, rows=6):
    """(x, xi, zeta, tau) batches over six decades of scale; row 0 is zero."""
    shape = (rows, f.n_rows, f.n_cols)

    def batch():
        unit = draw(hnp.arrays(float, shape, elements=st.floats(-1.0, 1.0)))
        exp = draw(hnp.arrays(float, (rows,), elements=st.floats(-14.0, 3.0)))
        out = unit * (10.0 ** exp)[:, None, None]
        out[0] = 0.0
        return out

    x = (draw(hnp.arrays(float, (rows, f.n_cols),
                         elements=st.floats(0.05, 0.95)))
         if f.x_dependent else None)
    return x, batch(), batch(), draw(st.floats(0.05, 20.0))


@pytest.mark.parametrize("f, ref, rec", ORACLE_CASES, ids=[
    "tv", "vector_tv", "area", "hencky", "weighted_tv_1d", "weighted_tv_2d"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_builtin_matches_reference_formulas(f, ref, rec, data):
    x, xi, zeta, tau = data.draw(oracle_args(f))
    assert f.growth_constant == ref["growth_constant"]
    assert f.fenchel_constant == ref["fenchel_constant"]
    radius = ref["radius"] if x is None else ref_weight(x)
    assert np.array_equal(f.dual_radius(x), radius)
    x1 = None if x is None else x[1:]
    for got, want in ((f.value, ref["value"]),
                      (f.gradient, ref["gradient"]),
                      (f.recession, rec["value"]),
                      (f.recession_gradient, rec["gradient"])):
        assert_same(got, want, x, xi)
        assert_same(got, want, x1, xi[1:])
    assert_same(f.conjugate, ref["conjugate"], x, zeta)
    p = f.prox_conjugate(x, zeta, tau)
    want = ref["prox"](x, zeta, tau)
    keep = ref_fro(zeta) >= 1e-12 if f.name == "area" else slice(None)
    assert np.array_equal(p[keep], want[keep])

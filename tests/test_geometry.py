"""Domain discretization, boundary faces, normals, and curvature."""

import tracemalloc

import numpy as np
import pytest

from lingrad.errors import DomainError, ResolutionError, ShapeMismatchError
from lingrad.geometry import (
    Annulus,
    Ball,
    GridDomain,
    Interval,
    Rectangle,
    boundary_normal,
    build_domain,
    curvature_condition_margin,
    generalized_mean_curvature,
)
from lingrad.integrands import make_tv, make_vector_tv, make_weighted_tv


def test_disk_boundary_faces_and_weights():
    domain = build_domain(Ball(1.0), 64)
    m = len(domain.boundary_faces)
    assert 4 * 64 * 0.7 <= m <= 4 * 64 * 1.3
    total = domain.boundary_faces.weight.sum()
    assert abs(total - 2 * np.pi) / (2 * np.pi) <= 0.05


@pytest.mark.parametrize("nx", [64, 128, 256])
def test_disk_weight_sum_convergence(nx):
    domain = build_domain(Ball(1.0), nx)
    total = domain.boundary_faces.weight.sum()
    assert abs(total - 2 * np.pi) / (2 * np.pi) <= 3.0 / np.sqrt(nx)


def test_annulus_two_loops():
    domain = build_domain(Annulus(0.5, 1.0), 128)
    r = np.linalg.norm(domain.boundary_faces.point, axis=1)
    inner = np.isclose(r, 0.5, atol=1e-9)
    outer = np.isclose(r, 1.0, atol=1e-9)
    assert np.all(inner | outer)
    w = domain.boundary_faces.weight
    assert abs(w[inner].sum() - np.pi) / np.pi <= 0.05
    assert abs(w[outer].sum() - 2 * np.pi) / (2 * np.pi) <= 0.05


def test_interval_faces():
    domain = build_domain(Interval(0.0, 1.0), 64)
    bf = domain.boundary_faces
    assert len(bf) == 2
    assert sorted(bf.normal.ravel().tolist()) == [-1.0, 1.0]
    assert np.allclose(bf.weight, 1.0)
    assert np.allclose(sorted(bf.point.ravel()), [0.0, 1.0])


def test_unit_normals_and_outwardness():
    for shape in (Ball(1.0), Annulus(1.0, 2.0), Rectangle()):
        domain = build_domain(shape, 64)
        bf = domain.boundary_faces
        assert np.allclose(np.linalg.norm(bf.normal, axis=1), 1.0, atol=1e-12)
        # stepping h/2 along the normal leaves the domain
        outside = shape.signed_distance(bf.point + 0.5 * domain.h * bf.normal)
        assert np.all(outside > 0)


def test_signed_distance_gradient_unit():
    for shape in (Ball(1.0), Annulus(0.5, 1.0)):
        rng = np.random.default_rng(0)
        ang = rng.uniform(0, 2 * np.pi, 100)
        pts = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        pts *= rng.uniform(0.55, 0.99, 100)[:, None]
        g = shape.sd_gradient(pts)
        assert np.allclose(np.linalg.norm(g, axis=-1), 1.0, atol=1e-8)


def test_build_domain_accepts_grammar_strings():
    domain = build_domain("annulus 0.5 1.0", 32)
    assert isinstance(domain.shape, Annulus)
    assert domain.h == pytest.approx(2.0 / 32)
    lo, hi = domain.bounds[0]
    assert lo < -1.0 < 1.0 < hi  # ghost ring extends past the shape box


class _EverywhereInside(Ball):
    """A shape whose signed distance cannot tell any point outside."""

    def signed_distance(self, pts):
        return np.full(np.shape(pts)[:-1], -1.0)


def test_resolution_guards():
    with pytest.raises(ResolutionError):
        build_domain(Ball(1.0), 8)
    with pytest.raises(ResolutionError):
        # gap much thinner than a cell: no center lands inside
        GridDomain(Annulus(0.998, 1.0), 16)
    for radius in (1e-200, 1e-160, 1e300):
        # h^2 underflows to 0, 1/h^2 overflows, h^2 overflows
        with pytest.raises(ResolutionError, match="h = .* not representable"):
            GridDomain(Ball(radius), 16)
    with pytest.raises(ResolutionError, match="outer ring"):
        GridDomain(_EverywhereInside(1.0), 16)


def test_boundary_normal_queries():
    domain = build_domain(Ball(1.0), 64)
    assert np.allclose(boundary_normal(domain, [1.0, 0.0]), [1.0, 0.0])
    s = np.sqrt(0.5)
    assert np.allclose(boundary_normal(domain, [s, s]), [s, s], atol=1e-12)
    # annulus inner boundary: outward means toward the hole
    ann = build_domain(Annulus(0.5, 1.0), 64)
    assert np.allclose(boundary_normal(ann, [0.5, 0.0]), [-1.0, 0.0])
    with pytest.raises(DomainError):
        boundary_normal(domain, [0.5, 0.0])


# ---------------------------------------------------------------------------
# generalized mean curvature
# ---------------------------------------------------------------------------


def test_curvature_disk_unit():
    H = generalized_mean_curvature(make_tv(1, 2), Ball(1.0), [1.0, 0.0])
    assert H == pytest.approx(1.0, rel=5e-3)


def test_curvature_sphere_d3():
    H = generalized_mean_curvature(make_tv(1, 3), Ball(1.0, 3),
                                   [0.0, 0.0, 1.0])
    assert H == pytest.approx(2.0, rel=5e-3)


def test_curvature_annulus_inner_negative():
    # analytic oracle: -div(x/|x|) = -(d-1)/|x| on the inner loop
    H = generalized_mean_curvature(make_tv(1, 2), Annulus(1.0, 2.0),
                                   [1.0, 0.0])
    assert H == pytest.approx(-1.0, rel=5e-3)


def test_curvature_scaling_with_radius():
    for r in (0.5, 2.0):
        shape = Ball(r)
        h_fd = 1e-4 * shape.diameter
        H = generalized_mean_curvature(make_tv(1, 2), shape, [r, 0.0])
        assert abs(H - 1.0 / r) / (1.0 / r) <= 5 * h_fd


def test_curvature_grid_refinement_first_order():
    # refinement moves the estimate toward the analytic value
    tv = make_tv(1, 2)
    x = [1.0, 0.0]
    vals = {}
    for nx in (64, 128):
        domain = build_domain(Ball(1.0), nx)
        vals[nx] = generalized_mean_curvature(tv, domain, x)
    assert abs(vals[64] - vals[128]) <= abs(vals[64] - 1.0) + 1e-12


def test_curvature_weighted_1d_endpoint():
    # f = a(x) |xi| with a = 1 + x: curvature at the right endpoint is a'(1)
    w = make_weighted_tv(lambda p: 1.0 + p[..., 0], d=1, a_bounds=(1.0, 2.0))
    H = generalized_mean_curvature(w, Interval(0.0, 1.0), [1.0])
    assert H == pytest.approx(1.0, rel=1e-3)
    # and -a'(0) at the left endpoint
    H0 = generalized_mean_curvature(w, Interval(0.0, 1.0), [0.0])
    assert H0 == pytest.approx(-1.0, rel=1e-3)


def test_curvature_rejects_vector_integrand():
    with pytest.raises(ShapeMismatchError):
        generalized_mean_curvature(make_vector_tv(2, 2), Ball(1.0), [1.0, 0.0])


def test_curvature_rejects_off_boundary_point():
    with pytest.raises(DomainError):
        generalized_mean_curvature(make_tv(1, 2), Ball(1.0), [0.2, 0.0])


def test_curvature_condition_margins():
    tv = make_tv(1, 2)
    disk = build_domain(Ball(1.0), 64)
    g = np.zeros(len(disk.points))
    margins = curvature_condition_margin(tv, g, disk, c=0.5)
    assert np.all(margins > 0.4)  # H = 1, g = 0, c = 0.5 -> margin ~ 0.5
    ann = build_domain(Annulus(1.0, 2.0), 64)
    margins = curvature_condition_margin(tv, np.zeros(len(ann.points)), ann,
                                         c=0.0)
    r = np.linalg.norm(ann.boundary_faces.point, axis=1)
    assert np.all(margins[np.isclose(r, 1.0)] < 0)  # inner loop H = -1
    assert np.all(margins[np.isclose(r, 2.0)] > 0)  # outer loop H = +1/2


@pytest.mark.parametrize("shape", [Ball(1.0, 3), Annulus(1.0, 2.0, 3)])
def test_3d_curvature_margins_read_the_mean_curvature(shape):
    # TV's curvature of a sphere of radius R is (d - 1) / R = 2 / R, and
    # -2 / R on the inner sphere of a shell, which curves away from the
    # domain: 2 on the unit ball (1.985 to 2.010 at nx=16), -2 and 1 on
    # the shell
    domain = build_domain(shape, 16)
    margins = curvature_condition_margin(
        make_tv(1, 3), np.zeros(len(domain.points)), domain, c=0.0)
    r = np.linalg.norm(domain.boundary_faces.point, axis=1)
    inner = np.isclose(r, getattr(shape, "r_in", 0.0))
    assert np.allclose(margins, np.where(inner, -2.0, 2.0) / r,
                       rtol=0.03, atol=0.0)


def loop_margins(f, g_values, domain, c):
    """The margin face by face: H(x_b) minus the largest |g| over the
    inside cells within 3h of x_b, measured to every inside cell."""
    faces = domain.boundary_faces
    H = np.atleast_1d(generalized_mean_curvature(f, domain, faces.point))
    g_inside = np.abs(g_values)
    margins = np.empty(len(faces))
    for i in range(len(faces)):
        d2 = np.sum((domain.points - faces.point[i]) ** 2, axis=-1)
        near = d2 <= (3.0 * domain.h) ** 2
        local = float(g_inside[near].max()) if np.any(near) else 0.0
        margins[i] = H[i] - local - c
    return margins


@pytest.mark.parametrize("shape, nx", [
    (Ball(1.0), 64), (Annulus(1.0, 2.0), 64), (Annulus(0.97, 1.0), 64),
    (Rectangle(), 32), (Interval(), 64),
    (Ball(1.0, 3), 16), (Annulus(1.0, 2.0, 3), 16)])
def test_curvature_condition_margins_match_the_face_loop(shape, nx):
    domain = build_domain(shape, nx)
    tv = make_tv(1, domain.dim)
    g = np.random.default_rng(nx).standard_normal(len(domain.points))
    assert np.array_equal(curvature_condition_margin(tv, g, domain, c=0.3),
                          loop_margins(tv, g, domain, c=0.3))


def test_3d_curvature_margins_gather_in_blocks():
    # the 9^3 cells around all 4,872 faces of the ball at nx=32, gathered
    # at once, peak at about 270 MB; blocks of face-cell pairs keep the
    # peak near 3 MB
    domain = build_domain(Ball(1.0, 3), 32)
    g = np.zeros(len(domain.points))
    tracemalloc.start()
    try:
        curvature_condition_margin(make_tv(1, 3), g, domain, c=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_curvature_condition_sees_local_g():
    tv = make_tv(1, 2)
    disk = build_domain(Ball(1.0), 64)
    # a large |g| spike near (1, 0) must push that margin down
    spike = np.linalg.norm(disk.points - np.array([1.0, 0.0]), axis=-1)
    g = np.where(spike < 2 * disk.h, 5.0, 0.0)
    margins = curvature_condition_margin(tv, g, disk, c=0.0)
    bf = disk.boundary_faces
    near = np.linalg.norm(bf.point - np.array([1.0, 0.0]), axis=-1) < disk.h
    far = np.linalg.norm(bf.point + np.array([1.0, 0.0]), axis=-1) < disk.h
    assert np.all(margins[near] < -3.5)
    assert np.all(margins[far] > 0.5)
    # g is read on the inside cells only, as a ProblemSpec holds it
    for bad in (g[:-1], disk.pad(g)):
        with pytest.raises(ShapeMismatchError, match="on inside cells"):
            curvature_condition_margin(tv, bad, disk, c=0.0)

"""Property tests of the compressed operator (G, B) of a masked grid.

Random balls and annuli in 1-D and 2-D at random resolutions.  The four
products are checked bit for bit against sparse matrices built here from
the neighbor table, and the padded operators against the per-axis
slice-loop formulas they replaced, both kept below as reference oracles.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from lingrad.energy import (
    ProblemSpec,
    _face_masks,
    discrete_divergence,
    discrete_gradient,
    gauss_green_residual,
)
from lingrad.errors import ShapeMismatchError
from lingrad.geometry import Annulus, Ball, GridDomain
from lingrad.integrands import make_tv
from lingrad.solver import _polish_zeta, repair_dual


@st.composite
def domains(draw):
    dim = draw(st.sampled_from([1, 2]))
    nx = draw(st.integers(16, 64))
    if draw(st.booleans()):
        shape = Ball(draw(st.floats(0.3, 3.0)), dim=dim)
    else:
        r_in = draw(st.floats(0.2, 1.5))
        shape = Annulus(r_in, r_in * draw(st.floats(1.5, 4.0)), dim=dim)
    return GridDomain(shape, nx)


def random_fields(domain, seed, n):
    rng = np.random.default_rng(seed)
    u = np.where(domain.inside_mask[None],
                 rng.standard_normal((n,) + domain.grid_shape), 0.0)
    z = rng.standard_normal((n, domain.dim) + domain.grid_shape)
    return u, z


def shifted_slices(domain, a):
    lo = [slice(None)] * domain.dim
    hi = [slice(None)] * domain.dim
    lo[a] = slice(0, -1)
    hi[a] = slice(1, None)
    return tuple(lo), tuple(hi)


def reference_masks(domain):
    """(d, *grid) masks of interior faces and of interior or boundary slots."""
    inside = domain.inside_mask
    interior = np.zeros((domain.dim,) + domain.grid_shape, dtype=bool)
    for a in range(domain.dim):
        lo, hi = shifted_slices(domain, a)
        interior[(a,) + lo] = inside[lo] & inside[hi]
    active = interior.copy()
    bf = domain.boundary_faces
    for cell, a, sign in zip(bf.cell, bf.axis, bf.sign):
        slot = cell.copy()
        slot[a] -= sign < 0
        active[(a,) + tuple(slot)] = True
    return interior, active


def sparse_oracle(domain):
    """G (forward differences on interior faces, d N x N), -G^T, B (one row
    per boundary face selecting its inside cell) and B^T as sparse
    matrices."""
    nbr = domain.neighbors[:, 0]
    n_in = nbr.shape[1]
    interior = nbr >= 0
    slots = np.flatnonzero(interior)  # in row order a * N + c
    inv_h = 1.0 / domain.h
    G = sp.csr_array(
        (np.tile([-inv_h, inv_h], len(slots)),
         np.stack([slots % n_in, nbr.ravel()[slots]], axis=1).ravel(),
         np.concatenate([[0], np.cumsum(2 * interior.ravel())])),
        shape=(domain.dim * n_in, n_in))
    face_cells = domain.cell_index[tuple(domain.boundary_faces.cell.T)]
    m = len(face_cells)
    B = sp.csr_array((np.ones(m), face_cells, np.arange(m + 1)),
                     shape=(m, n_in))
    return G, (-G.T).tocsr(), B, B.T


def slice_loop_gradient(domain, u):
    """Forward differences per axis, masked to interior faces."""
    interior, _ = reference_masks(domain)
    out = np.zeros((u.shape[0], domain.dim) + domain.grid_shape)
    for a in range(domain.dim):
        lo, hi = shifted_slices(domain, a)
        diff = np.zeros_like(u)
        diff[(slice(None),) + lo] = (
            u[(slice(None),) + hi] - u[(slice(None),) + lo]) / domain.h
        out[:, a] = np.where(interior[a][None], diff, 0.0)
    return out


def slice_loop_divergence(domain, z):
    """Backward differences per axis of z on interior and boundary slots."""
    _, active = reference_masks(domain)
    out = np.zeros((z.shape[0],) + domain.grid_shape)
    for a in range(domain.dim):
        za = np.where(active[a][None], z[:, a], 0.0)
        shifted = np.zeros_like(za)
        lo, hi = shifted_slices(domain, a)
        shifted[(slice(None),) + hi] = za[(slice(None),) + lo]
        out += (za - shifted) / domain.h
    return np.where(domain.inside_mask[None], out, 0.0)


@settings(max_examples=30, deadline=None)
@given(domains(), st.integers(0, 2**32 - 1), st.integers(1, 2))
def test_the_products_equal_the_sparse_oracle(domain, seed, n):
    G, div, B, Bt = sparse_oracle(domain)
    rng = np.random.default_rng(seed)
    n_in, m, d = len(domain.points), len(domain.boundary_faces), domain.dim
    u = rng.standard_normal((n_in, n))
    z = rng.standard_normal((d, n_in, n)).transpose(1, 2, 0)  # planar
    zeta = rng.standard_normal((m, n))
    assert np.array_equal(domain.grad(u),
                          (G @ u).reshape(d, n_in, n).transpose(1, 2, 0))
    div_z = div @ z.transpose(2, 0, 1).reshape(-1, n)
    assert np.array_equal(domain.div(z), div_z)
    assert np.array_equal(domain.div(z.copy()), div_z)  # a non-planar z
    assert np.array_equal(domain.trace(u), B @ u)
    assert np.array_equal(domain.trace_adjoint(zeta), Bt @ zeta)
    assert np.array_equal(domain.trace_adjoint(zeta[:, 0]), Bt @ zeta[:, 0])


@settings(max_examples=30, deadline=None)
@given(domains(), st.integers(0, 2**32 - 1), st.integers(1, 2))
def test_adjointness_and_gauss_green(domain, seed, n):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((len(domain.points), n))
    w = rng.standard_normal((len(domain.points), n, domain.dim))
    lhs = float(np.sum(domain.grad(u) * w))
    rhs = -float(np.sum(u * domain.div(w)))
    # relative to the sum of the magnitudes of all the products: |G| |u|
    # is (|u[c + e_a]| + |u[c]|) / h on interior faces
    abs_u = np.abs(u)
    abs_grad = (domain.grad(abs_u)
                + 2.0 / domain.h * abs_u[:, :, None] * domain.interior)
    scale = float(np.sum(abs_grad * np.abs(w)))
    assert abs(lhs - rhs) <= 1e-12 * scale

    u_pad, z_pad = random_fields(domain, seed, n)
    scale = max(1.0, np.abs(u_pad).max() * np.abs(z_pad).max())
    assert gauss_green_residual(domain, u_pad, z_pad) <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(domains(), st.integers(0, 2**32 - 1), st.integers(1, 2))
def test_padded_operators_match_slice_loops(domain, seed, n):
    u, z = random_fields(domain, seed, n)
    grad = discrete_gradient(domain, u)
    div = discrete_divergence(domain, z)
    ref_grad = slice_loop_gradient(domain, u)
    ref_div = slice_loop_divergence(domain, z)
    assert grad.shape == ref_grad.shape and div.shape == ref_div.shape
    tol = 1e-12 / domain.h
    assert np.max(np.abs(grad - ref_grad)) <= tol * max(1.0, np.abs(u).max())
    assert np.max(np.abs(div - ref_div)) <= tol * max(1.0, np.abs(z).max())


@settings(max_examples=30, deadline=None)
@given(domains())
def test_the_inside_cells_are_numbered_once(domain):
    # the centers, the cell numbers, the boundary faces' cells and the
    # neighbor table all follow the one row-major numbering of the cells
    n_in = len(domain.points)
    inside = domain.inside_mask
    assert np.array_equal(domain.points, domain.cell_centers[inside])
    assert np.array_equal(domain.cell_index[tuple(np.argwhere(inside).T)],
                          np.arange(n_in))
    assert np.all(domain.cell_index[~inside] == -1)
    assert np.array_equal(
        domain.face_cells,
        domain.cell_index[tuple(domain.boundary_faces.cell.T)])
    for a in range(domain.dim):
        fwd, back = domain.neighbors[a]
        has = fwd >= 0
        assert np.array_equal(back[fwd[has]], np.flatnonzero(has))
        step = np.zeros(domain.dim)
        step[a] = domain.h
        assert np.allclose(domain.points[fwd[has]] - domain.points[has],
                           step, rtol=0.0, atol=1e-9 * domain.h)


@settings(max_examples=30, deadline=None)
@given(domains())
def test_the_coarse_cell_map_holds_each_fine_center(coarse):
    # the coarse grid cell holding a point is found by a float floor, exact
    # here: every fine center, and the center across each + face, lies a
    # quarter of a coarse cell from that cell's faces
    fine = GridDomain(coarse.shape, 2 * coarse.nx)
    for axis in (None,) + tuple(range(fine.dim)):
        centers = fine.points.copy()
        if axis is not None:
            centers[:, axis] += fine.h
        grid = np.floor((centers - coarse.origin) / coarse.h).astype(int)
        offset = (centers - coarse.origin) / coarse.h - grid
        assert np.all((offset > 0.2) & (offset < 0.8))
        # the cell's number, -1 exactly where it is outside
        assert np.array_equal(fine.coarse_cells(coarse, axis),
                              coarse.cell_index[tuple(grid.T)])
    with pytest.raises(ShapeMismatchError):
        coarse.coarse_cells(coarse)


@settings(max_examples=20, deadline=None)
@given(domains())
def test_boundary_selection_and_step_sums(domain):
    bf = domain.boundary_faces
    # B picks each boundary face's inside cell
    cells = np.argwhere(domain.inside_mask)
    assert np.array_equal(cells[domain.face_cells], bf.cell)
    assert np.array_equal(domain.trace(cells), bf.cell)
    # the degree, on which the steps' column sums rest, counts the interior
    # faces of each cell
    interior, active = reference_masks(domain)
    degree = np.zeros(domain.grid_shape)
    for a in range(domain.dim):
        lo, hi = shifted_slices(domain, a)
        degree += interior[a]
        degree[hi] += interior[a][lo]
    assert np.array_equal(domain.degree, degree[domain.inside_mask])
    # the padded masks kept for callers holding padded arrays
    got_interior, _, got_active = _face_masks(domain)
    assert np.array_equal(got_interior, interior)
    assert np.array_equal(got_active, active)


@settings(max_examples=30, deadline=None)
@given(domains(), st.integers(0, 2**32 - 1))
def test_the_zeta_polish_and_the_repair_keep_their_bounds(domain, seed):
    # TV with g = lambda = 0 and random (z, zeta): the polish keeps zeta in
    # its bounds and never lowers its own zeta-block objective, and the
    # repaired pair is feasible, so duality_gap cannot drop it silently
    rng = np.random.default_rng(seed)
    bf = domain.boundary_faces
    m, n_in = len(bf), len(domain.points)
    spec = ProblemSpec(make_tv(1, domain.dim), domain,
                       rng.uniform(-1.0, 1.0, (m, 1)))
    r_b = np.ones(m)
    z = rng.uniform(0.1, 3.0) * rng.standard_normal((n_in, 1, domain.dim))
    zeta = rng.uniform(-1.0, 1.0, (m, 1))

    # the polish's own balance weight M (1 + 1e-9) h^d
    weight = spec.box_bound * (1.0 + 1e-9) * domain.cell_volume

    def objective(zeta):
        balance = domain.div(z)[:, 0] + domain.trace_adjoint(
            bf.weight / domain.cell_volume * zeta[:, 0])
        value = np.sum(bf.weight * zeta[:, 0] * spec.u0[:, 0])
        penalty = weight * np.sum(np.abs(balance))
        return value - penalty, abs(value) + penalty

    polished = _polish_zeta(spec, z, zeta, r_b)
    assert np.all(np.abs(polished) <= 1.0)
    before, scale = objective(zeta)
    after, _ = objective(polished)
    assert after >= before - 1e-12 * scale

    z_rep, zeta_rep = repair_dual(spec, z, zeta)
    assert z_rep is not z
    # feasible as the gap reads it: the final rescale may leave |z_c| an
    # ulp above r, inside the conjugate's 1e-12 relative slack
    assert np.all(spec.integrand.conjugate(domain.points, z_rep) == 0.0)
    assert np.all(np.abs(zeta_rep) <= 1.0)


@settings(max_examples=20, deadline=None)
@given(domains(), st.integers(0, 2**32 - 1))
def test_the_neumann_solve_inverts_the_laplacian_of_the_oracle(domain, seed):
    # G^T G x = rhs minus its mean on each face-connected component, with
    # x = 0 at the pinned cell of each
    G = sparse_oracle(domain)[0]
    rhs = np.random.default_rng(seed).standard_normal(len(domain.points))
    x = domain.neumann_solve(rhs)
    _, groups, labels, pinned = domain._neumann
    assert np.all(x[pinned] == 0.0)
    centred = rhs - np.array([rhs[cells].mean() for cells in groups])[labels]
    scale = np.abs(centred).max() + 4.0 / domain.h**2 * np.abs(x).max()
    assert np.abs(G.T @ (G @ x) - centred).max() <= 1e-12 * scale


def test_the_repair_on_a_split_grid():
    # the 1-D annulus is two intervals; its repaired pair must be feasible
    domain = GridDomain(Annulus(0.5, 1.0, dim=1), 32)
    m, n_in = len(domain.boundary_faces), len(domain.points)
    spec = ProblemSpec(make_tv(1, 1), domain, np.ones((m, 1)))
    z = np.random.default_rng(0).standard_normal((n_in, 1, 1))
    z_rep, zeta_rep = repair_dual(spec, z, np.zeros((m, 1)))
    assert np.all(spec.integrand.conjugate(domain.points, z_rep) == 0.0)
    assert np.all(np.abs(zeta_rep) <= 1.0)

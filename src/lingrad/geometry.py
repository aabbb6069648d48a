"""Domains: analytic shapes, masked grids, boundary faces, curvature.

Orientation conventions, fixed once and used everywhere:

* ``signed_distance`` is negative inside the domain and zero on the
  boundary.  The interior distance-to-boundary function is its negative.
* Boundary normals always point out of the domain.  On the inner loop of
  an annulus this means toward the hole.
* Each boundary face of a grid separates an inside cell from an outside
  one.  ``sign = +1`` means the outside cell sits on the positive side of
  the face's axis, so the staircase outward direction is ``+e_axis``.
* A face carries two measures: the raw face area h^(d-1), which is what
  the exact discrete Gauss-Green identity uses, and a geometric weight
  h^(d-1) * |nu . e_axis| which converges to the boundary surface measure
  and is used for energies and trace errors.

The generalized boundary curvature of an integrand f at a boundary point x
is  min( -div D_xi f^inf(., grad dist), +div D_xi f^inf(., -grad dist) )
with the divergence taken by central differences; for f = |.| on the unit
circle it evaluates to d - 1 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError, ResolutionError, ShapeMismatchError
from .integrands import Integrand

__all__ = [
    "Ball",
    "Annulus",
    "Rectangle",
    "Interval",
    "GridDomain",
    "BoundaryFaces",
    "build_domain",
    "boundary_normal",
    "generalized_mean_curvature",
    "curvature_condition_margin",
]


class Ball:
    """Ball of given radius centered at the origin (disk when dim == 2)."""

    def __init__(self, radius: float, dim: int = 2):
        if not 0 < radius < np.inf:
            raise ValueError(f"radius must be finite and > 0, got {radius!r}")
        self.radius = float(radius)
        self.dim = int(dim)
        self.diameter = 2 * self.radius

    def signed_distance(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.linalg.norm(pts, axis=-1) - self.radius

    def sd_gradient(self, pts):
        pts = np.asarray(pts, dtype=float)
        r = np.linalg.norm(pts, axis=-1, keepdims=True)
        return pts / np.maximum(r, 1e-300)

    def project(self, pts):
        pts = np.asarray(pts, dtype=float)
        r = np.linalg.norm(pts, axis=-1, keepdims=True)
        return pts * (self.radius / np.maximum(r, 1e-300))

    def bbox(self):
        return [(-self.radius, self.radius)] * self.dim


class Annulus:
    """Region between two concentric spheres, r_in < |x| < r_out."""

    def __init__(self, r_in: float, r_out: float, dim: int = 2):
        if not 0 < r_in < r_out < np.inf:
            raise ValueError(
                f"need 0 < r_in < r_out, both finite, got {r_in!r}, {r_out!r}")
        self.r_in = float(r_in)
        self.r_out = float(r_out)
        self.dim = int(dim)
        self.diameter = 2 * self.r_out

    def signed_distance(self, pts):
        r = np.linalg.norm(np.asarray(pts, dtype=float), axis=-1)
        return np.maximum(self.r_in - r, r - self.r_out)

    def sd_gradient(self, pts):
        pts = np.asarray(pts, dtype=float)
        r = np.linalg.norm(pts, axis=-1, keepdims=True)
        inner_side = (self.r_in - r) > (r - self.r_out)
        unit = pts / np.maximum(r, 1e-300)
        return np.where(inner_side, -unit, unit)

    def project(self, pts):
        pts = np.asarray(pts, dtype=float)
        r = np.linalg.norm(pts, axis=-1, keepdims=True)
        inner_side = (self.r_in - r) > (r - self.r_out)
        target = np.where(inner_side, self.r_in, self.r_out)
        return pts * (target / np.maximum(r, 1e-300))

    def bbox(self):
        return [(-self.r_out, self.r_out)] * self.dim


class Rectangle:
    """Axis-aligned box; the default grid shape covering it exactly."""

    def __init__(self, bounds: Sequence = ((0.0, 1.0), (0.0, 1.0))):
        self.bounds = [(float(lo), float(hi)) for lo, hi in bounds]
        if not all(-np.inf < lo < hi < np.inf for lo, hi in self.bounds):
            raise ValueError(
                f"need finite bounds lo < hi on every axis, got {self.bounds}")
        self.dim = len(self.bounds)
        self.diameter = float(
            np.sqrt(sum((hi - lo) ** 2 for lo, hi in self.bounds))
        )

    def signed_distance(self, pts):
        pts = np.asarray(pts, dtype=float)
        per_axis = []
        for a, (lo, hi) in enumerate(self.bounds):
            per_axis.append(np.maximum(lo - pts[..., a], pts[..., a] - hi))
        return np.max(np.stack(per_axis, axis=-1), axis=-1)

    def sd_gradient(self, pts):
        pts = np.asarray(pts, dtype=float)
        per_axis = np.stack(
            [np.maximum(lo - pts[..., a], pts[..., a] - hi)
             for a, (lo, hi) in enumerate(self.bounds)],
            axis=-1,
        )
        which = np.argmax(per_axis, axis=-1)
        grad = np.zeros_like(pts)
        for a, (lo, hi) in enumerate(self.bounds):
            sel = which == a
            sgn = np.where(pts[..., a] - hi > lo - pts[..., a], 1.0, -1.0)
            grad[..., a] = np.where(sel, sgn, 0.0)
        return grad

    def project(self, pts):
        pts = np.asarray(pts, dtype=float)
        out = pts.copy()
        per_axis = np.stack(
            [np.maximum(lo - pts[..., a], pts[..., a] - hi)
             for a, (lo, hi) in enumerate(self.bounds)],
            axis=-1,
        )
        which = np.argmax(per_axis, axis=-1)
        for a, (lo, hi) in enumerate(self.bounds):
            sel = which == a
            nearest = np.where(pts[..., a] - hi > lo - pts[..., a], hi, lo)
            out[..., a] = np.where(sel, nearest, out[..., a])
        return out

    def bbox(self):
        return list(self.bounds)


class Interval(Rectangle):
    """One-dimensional domain (a, b)."""

    def __init__(self, a: float = 0.0, b: float = 1.0):
        super().__init__([(a, b)])


Shape = Union[Ball, Annulus, Rectangle, Interval]


@dataclass
class BoundaryFaces:
    """Flat arrays describing every inside/outside face transition."""

    cell: np.ndarray       # (m, dim) int indices of the adjacent inside cell
    axis: np.ndarray       # (m,) face axis
    sign: np.ndarray       # (m,) +1 if outward staircase direction is +e_axis
    point: np.ndarray      # (m, dim) closest point on the true boundary
    normal: np.ndarray     # (m, dim) outward unit normal at `point`
    weight: np.ndarray     # (m,) geometric surface weight
    face_measure: float    # raw h^(d-1) shared by all faces

    def __len__(self):
        return self.cell.shape[0]


# ghost cells on each side of the shape's bounding box
_PAD_CELLS = 2


class GridDomain:
    """Masked uniform grid over an analytic shape, and its discrete operator.

    Cells are squares of side ``h``, cubes in 3-D; a cell belongs to the
    domain when its center is strictly inside.  The inside cells are
    numbered 0..N-1 once, row-major (the order of boolean indexing with
    ``inside_mask``): ``cell_index`` holds each cell's number (-1
    outside) and ``points`` the (N, d) centers.  ``neighbors`` (d, 2, N)
    holds at [a, 0] and [a, 1] the numbers of each inside cell's +e_a and
    -e_a neighbors, -1 where that cell is outside; each -1 is a boundary
    face.

    A primal field is an (N, n) array of cell values.  A dual field is an
    (N, n, d) array holding, at [c, :, a], the value on the face between
    cell c and its +e_a neighbor (face slot a * N + c).  It is stored
    planar: its memory is a C-contiguous (d, N, n) array and the (N, n, d)
    array is the view ``.transpose(1, 2, 0)`` of it, so the slots of one
    axis are contiguous.  The energies, the solver, its result and the
    certificates all hold fields in these compressed forms.  Padded
    (n, *grid) and (n, d, *grid) arrays, the layout of LGF1 files, keep
    the same values at [cell] and [axis, cell]; ``pad`` makes one and
    ``cells`` compresses one.

    * ``grad(u)`` = G u: forward differences (u[c + e_a] - u[c]) / h on
      interior faces, those between two inside cells, and 0 on the other
      slots; a planar dual field.
    * ``div(z)`` = -G^T z, the interior divergence: the (finite) values a
      dual field holds on the other slots are ignored.
    * ``trace(u)`` = B u: the value of each boundary face's inside cell,
      listed in ``face_cells``; ``trace_adjoint(zeta)`` = B^T zeta sums
      the values of each cell's boundary faces.

    Each is index arithmetic on the neighbor table, and sums its terms in
    the order of a CSR product with its matrix, bit for bit
    (``tests/test_operator.py`` holds that oracle).  ``interior`` is the
    (N, 1, d) planar mask of interior slots, ``degree`` the number of
    interior faces of each cell, and ``slot_cells`` the grid cell at whose
    + face a padded dual array keeps each boundary face's value.  Only the
    Neumann Laplacian G^T G of ``neumann_solve`` is a sparse matrix, built
    on first use.

    ``coarse_cells(coarse, axis)`` maps each inside cell to the cell of
    the next coarser grid that holds its center, or the center of its
    +e_a neighbor: integer index arithmetic, the one cell lookup of the
    solver's coarse-to-fine ladder, for its restriction and its
    prolongation alike.
    """

    def __init__(self, shape: Shape, nx: int):
        if nx < 16:
            raise ResolutionError("resolution must be at least 16")
        self.shape = shape
        self.nx = nx  # cells across the first axis of the shape's box
        self.dim = shape.dim

        # h = (shape extent)/nx exactly; a ghost ring of _PAD_CELLS keeps
        # every boundary face's storage slot inside the array
        box = shape.bbox()
        self.h = float((box[0][1] - box[0][0]) / nx)
        # the operator scales by h, h^d and 1/h^2: each must be a finite,
        # nonzero number, which is checked before anything is computed at
        # the scale of h
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            scales = np.float64(self.h) ** np.array([1.0, self.dim, -2.0])
        if not np.all(np.isfinite(scales) & (scales > 0)):
            raise ResolutionError(
                f"grid spacing h = {self.h:.3g} is not representable: h, "
                f"h^{self.dim} and 1/h^2 must be finite and nonzero")
        lo = np.array([b[0] - _PAD_CELLS * self.h for b in box])
        n_cells = []
        for a in range(self.dim):
            span = box[a][1] - box[a][0]
            n = int(round(span / self.h))
            if abs(n * self.h - span) > 1e-9 * self.h:
                raise ResolutionError("box does not tile with square cells")
            n_cells.append(n + 2 * _PAD_CELLS)
        self.n_cells = tuple(n_cells)
        self.origin = lo

        axes = [
            lo[a] + self.h * (np.arange(self.n_cells[a]) + 0.5)
            for a in range(self.dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        self.cell_centers = np.stack(mesh, axis=-1)  # (*n_cells, dim)
        self.inside_mask = shape.signed_distance(self.cell_centers) < 0.0
        if not np.any(self.inside_mask):
            raise ResolutionError("no cell center falls inside the shape")

        # the ghost ring keeps every neighbor of an inside cell in the grid,
        # unless the shape's signed distance cannot resolve cells of size h
        ring = np.ones(self.n_cells, dtype=bool)
        ring[(slice(1, -1),) * self.dim] = False
        if np.any(self.inside_mask & ring):
            raise ResolutionError(
                "an inside cell lies on the grid's outer ring: the shape's "
                f"signed distance does not resolve h = {self.h:.3g}")
        # the one numbering of the inside cells; within the ring a
        # neighbor's flat index is the cell's plus or minus its axis's stride
        self._flat = np.flatnonzero(self.inside_mask)
        n_in = len(self._flat)
        index = np.full(self.inside_mask.size, -1)
        index[self._flat] = np.arange(n_in)
        self.cell_index = index.reshape(self.n_cells)
        strides = [int(np.prod(self.n_cells[a + 1:])) for a in range(self.dim)]
        self.neighbors = np.stack([
            np.stack([index[self._flat + sgn * s] for sgn in (1, -1)])
            for s in strides])
        self.points = self.cell_centers[self.inside_mask]  # (N, d)
        self.boundary_faces, self.face_cells = self._collect_boundary_faces()

        self._inv_h = 1.0 / self.h
        nbr = self.neighbors  # (d, 2, N): + and - neighbor per axis
        interior = nbr[:, 0] >= 0
        self.interior = interior[:, :, None].transpose(1, 2, 0)
        self.degree = np.count_nonzero(nbr >= 0, axis=(0, 1))
        # the +e_a neighbor of each cell, the cell itself where the face is
        # not interior, so that its difference is an exact 0
        self._fwd = np.where(interior, nbr[:, 0], np.arange(n_in))
        # 1/h on interior slots, 0 on the others, planar (d, N, 1)
        self._weight = (interior * self._inv_h)[:, :, None]
        # the -e_a neighbor of each cell or, where it has none, a slot of
        # axis a that is not interior (weighted value 0).  ``div`` gathers
        # it on every axis but the last of a d >= 2 grid; on that axis the
        # neighbor is c - 1 wherever it is inside, and slot c - 1 is not
        # interior wherever it is not, so a shift by one cell reads it
        self._back = np.where(nbr[:, 1] >= 0, nbr[:, 1],
                              np.argmin(interior, axis=1)[:, None])

        bf = self.boundary_faces
        # a face with sign -1 stores its value on the + face of the outside
        # cell below it; padded dual arrays keep that slot
        self.slot_cells = bf.cell.copy()
        self.slot_cells[np.arange(len(bf)), bf.axis] -= (bf.sign < 0)

    def _collect_boundary_faces(self):
        """One face per inside cell and (axis, sign) whose neighbor is
        outside; axis-major, + before -, cells row-major.  Returns the
        faces and the number of each face's inside cell."""
        face_of = [(a, sgn, np.flatnonzero(self.neighbors[a, k] < 0))
                   for a in range(self.dim) for k, sgn in enumerate((1, -1))]
        face_cells = np.concatenate([idx for _, _, idx in face_of])
        cell = np.stack(np.unravel_index(self._flat[face_cells], self.n_cells),
                        axis=1)
        axis = np.concatenate([np.full(len(idx), a) for a, _, idx in face_of])
        sign = np.concatenate([np.full(len(idx), s) for _, s, idx in face_of])

        face_pts = self.points[face_cells]
        face_pts[np.arange(len(axis)), axis] += 0.5 * self.h * sign
        bpoint = np.atleast_2d(self.shape.project(face_pts))
        normal = np.atleast_2d(self.shape.sd_gradient(bpoint))
        normal = normal / np.linalg.norm(normal, axis=-1, keepdims=True)
        nu_comp = np.abs(normal[np.arange(len(axis)), axis])
        measure = self.h ** (self.dim - 1)
        weight = measure * nu_comp
        faces = BoundaryFaces(cell, axis, sign, bpoint, normal, weight, measure)
        return faces, face_cells

    @property
    def cell_volume(self) -> float:
        return self.h**self.dim

    @property
    def bounds(self):
        """Axis-aligned bounding box of the grid, ((lo, hi) per axis)."""
        return tuple(
            (float(self.origin[a]), float(self.origin[a] + self.n_cells[a] * self.h))
            for a in range(self.dim)
        )

    @property
    def grid_shape(self):
        return self.n_cells

    def grad(self, u: np.ndarray) -> np.ndarray:
        """G u: (N, n) cell values to planar (N, n, d) face values."""
        su = u * self._inv_h
        out = su.take(self._fwd, axis=0)  # (d, N, n)
        out -= su
        return out.transpose(1, 2, 0)

    def div(self, z: np.ndarray) -> np.ndarray:
        """-G^T z: (N, n, d) face values to (N, n) cell values.  A planar z
        is read without a copy."""
        sz = z.transpose(2, 0, 1) * self._weight
        # axis by axis, the -e_a neighbor's value and then the cell's own:
        # the order in which a CSR product sums the row
        out = sz[0] - sz[0].take(self._back[0], axis=0)
        for a in range(1, self.dim):
            if a < self.dim - 1:
                out -= sz[a].take(self._back[a], axis=0)
            else:
                out[1:] -= sz[a][:-1]
            out += sz[a]
        return out

    def trace(self, u: np.ndarray) -> np.ndarray:
        """B u: (N, ...) cell values to the (m, ...) values of the inside
        cell of each boundary face."""
        return u.take(self.face_cells, axis=0)

    def trace_adjoint(self, zeta: np.ndarray) -> np.ndarray:
        """B^T zeta: (m, ...) face values to (N, ...) sums over each cell's
        boundary faces, one ``bincount`` per channel."""
        if zeta.ndim == 1:
            return np.bincount(self.face_cells, zeta,
                               minlength=len(self.points))
        sums = [self.trace_adjoint(col) for col in zeta.T]
        return sums[0][:, None] if len(sums) == 1 else np.stack(sums, axis=1)

    @cached_property
    def _neumann(self):
        """LU factors of the Neumann Laplacian G^T G with the first cell of
        each face-connected component pinned (its row and column those of
        the identity: no constant nullspace, and still symmetric), the
        cells of each component in ascending order, each cell's component
        and the pinned cells."""
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components
        from scipy.sparse.linalg import splu

        n_in = len(self.points)
        inv_h2 = self._inv_h * self._inv_h
        # the two cells of each interior face, both ways round
        interior = self.interior[:, 0].T  # (d, N)
        pair = np.stack([np.nonzero(interior)[1], self._fwd[interior]])
        rows, cols = np.concatenate([pair, pair[::-1]], axis=1)
        _, labels = connected_components(
            sp.csr_array((np.ones(len(rows)), (rows, cols)),
                         shape=(n_in, n_in)), directed=False)
        groups = np.split(np.argsort(labels, kind="stable"),
                          np.cumsum(np.bincount(labels))[:-1])
        pinned = [cells[0] for cells in groups]
        diag = self.degree * inv_h2
        diag[pinned] = 1.0
        free = np.ones(n_in, dtype=bool)
        free[pinned] = False
        off = free[rows] & free[cols]
        lap = sp.csc_array(
            (np.concatenate([np.full(np.count_nonzero(off), -inv_h2), diag]),
             (np.concatenate([rows[off], np.arange(n_in)]),
              np.concatenate([cols[off], np.arange(n_in)]))),
            shape=(n_in, n_in))
        return (splu(lap, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True)),
                groups, labels, pinned)

    def neumann_solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with G^T G x = rhs minus its mean on each face-connected
        component, and x = 0 at the first cell of each."""
        lu, groups, labels, pinned = self._neumann
        # np.mean's pairwise sum: a connected grid's mean is rhs.mean() exactly
        rhs = rhs - np.array([rhs[cells].mean() for cells in groups])[labels]
        rhs[pinned] = 0.0
        return lu.solve(rhs)

    def coarse_cells(self, coarse: GridDomain,
                     axis: Optional[int] = None) -> np.ndarray:
        """The (N,) numbers of the cells of ``coarse`` that hold the center
        of each inside cell (with ``axis=a``, of the cell across its +e_a
        face), -1 where that coarse cell is outside.

        ``coarse`` must be the next level of the ladder, the same box on
        half the cells per axis; any other grid raises ShapeMismatchError.
        Both origins lie ``_PAD_CELLS`` = P cells outside the box, so fine
        grid index j lies in coarse index (j + P) // 2 on each axis.  With
        ``axis=a``, a + face that lies on a coarse face maps to the coarse
        cell above that face."""
        if (self.shape.bbox() != coarse.shape.bbox()
                or self.nx != 2 * coarse.nx):
            raise ShapeMismatchError(
                f"the grid nx={self.nx} does not refine nx={coarse.nx}: a "
                "ladder pair has the same box and twice the cells per axis")
        idx = np.stack(np.unravel_index(self._flat, self.n_cells))  # (d, N)
        if axis is not None:
            idx[axis] += 1
        return coarse.cell_index[tuple((idx + _PAD_CELLS) // 2)]

    def cells(self, values: np.ndarray) -> np.ndarray:
        """Compressed (N, ...) copy of padded (..., *grid) values."""
        # one row per leading index
        rows = values.reshape(-1, self.inside_mask.size)
        out = np.empty((len(self._flat), len(rows)), dtype=values.dtype)
        for k, row in enumerate(rows):
            out[:, k] = row[self._flat]
        return out.reshape((-1,) + values.shape[:values.ndim - self.dim])

    def pad(self, values: np.ndarray) -> np.ndarray:
        """Padded (..., *grid) array of compressed (N, ...) values, zero outside."""
        rows = values.reshape(len(values), -1).T  # one row per leading index
        out = np.zeros((len(rows), self.inside_mask.size), dtype=values.dtype)
        for k, row in enumerate(rows):  # a 1-D scatter per row is the fast path
            out[k, self._flat] = row
        return out.reshape(values.shape[1:] + self.grid_shape)

    def __repr__(self):
        return (
            f"GridDomain({type(self.shape).__name__}, n_cells={self.n_cells}, "
            f"h={self.h:.4g}, faces={len(self.boundary_faces)})"
        )


def build_domain(shape, resolution: int) -> GridDomain:
    """Discretize a shape (object or grammar string) at the given resolution.

    Strings follow the problem-spec grammar: ``disk R``,
    ``annulus RIN ROUT``, ``rect``, ``interval A B``.
    """
    if isinstance(shape, str):
        from .specfile import parse_shape

        shape = parse_shape(shape)
    return GridDomain(shape, resolution)


def boundary_normal(domain_or_shape, point):
    """Outward unit normal at (or near) a boundary point.

    The point must lie within one grid spacing (or 1e-3 of the diameter for
    bare shapes) of the boundary; it is projected before evaluating.
    """
    shape = domain_or_shape.shape if isinstance(domain_or_shape, GridDomain) else domain_or_shape
    tol = domain_or_shape.h if isinstance(domain_or_shape, GridDomain) else 1e-3 * shape.diameter
    point = np.asarray(point, dtype=float)
    if np.any(np.abs(shape.signed_distance(point)) > tol):
        raise DomainError("point is too far from the boundary")
    proj = shape.project(point)
    g = shape.sd_gradient(proj)
    return g / np.linalg.norm(g, axis=-1, keepdims=True)


def _unit_sphere(dim, m):
    """m equally weighted points of the unit sphere in 2-D (equally spaced
    angles) or 3-D (a Fibonacci lattice), and its area."""
    if dim == 2:
        ang = np.linspace(0, 2 * np.pi, m, endpoint=False)
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1), 2 * np.pi
    if dim != 3:
        raise ShapeMismatchError("analytic quadrature supports dim 2 and 3")
    k = np.arange(m) + 0.5
    phi = np.arccos(1 - 2 * k / m)
    theta = np.pi * (1 + 5**0.5) * k
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)],
        axis=-1,
    ), 4 * np.pi


def _shape_quadrature(shape, n_interior: int, n_boundary: int):
    """Interior and boundary quadrature samples for an analytic shape:
    (points, weights, boundary points, boundary weights, outward normals).

    A 2-D or 3-D Ball or Annulus is sampled on spheres: its boundary gets
    max(16, n_boundary // loops) equally weighted points per loop (equally
    spaced angles in 2-D, a Fibonacci lattice in 3-D).  A 1-D Rectangle
    gets its two endpoints, each of weight 1.  Other shapes raise
    ShapeMismatchError naming their dimension and type.
    """
    if isinstance(shape, Ball) or isinstance(shape, Annulus):
        dim = shape.dim
        r0 = shape.r_in if isinstance(shape, Annulus) else 0.0
        r1 = shape.r_out if isinstance(shape, Annulus) else shape.radius
        n_dirs = 96 if dim == 2 else 128
        n_rad = max(2, n_interior // n_dirs)
        dirs, sphere_area = _unit_sphere(dim, n_dirs)
        redges = np.linspace(r0, r1, n_rad + 1)
        rmid = 0.5 * (redges[:-1] + redges[1:])
        shell = (redges[1:] ** dim - redges[:-1] ** dim) / dim * sphere_area
        pts = (rmid[:, None, None] * dirs[None]).reshape(-1, dim)
        w = np.repeat(shell / n_dirs, n_dirs)

        loops = [(r1, 1.0)]
        if isinstance(shape, Annulus):
            loops.append((r0, -1.0))
        bp, bw, bn = [], [], []
        for radius, orient in loops:
            dd, area = _unit_sphere(dim, max(16, n_boundary // len(loops)))
            bp.append(radius * dd)
            bw.append(np.full(len(dd), area * radius ** (dim - 1) / len(dd)))
            bn.append(orient * dd)
        return pts, w, np.concatenate(bp), np.concatenate(bw), np.concatenate(bn)

    if isinstance(shape, Rectangle) and shape.dim == 1:
        (a, b) = shape.bounds[0]
        m = max(8, n_interior)
        x = np.linspace(a, b, m + 1)
        mid = 0.5 * (x[:-1] + x[1:])
        pts = mid[:, None]
        w = np.full(m, (b - a) / m)
        bp = np.array([[a], [b]])
        bw = np.array([1.0, 1.0])
        bn = np.array([[-1.0], [1.0]])
        return pts, w, bp, bw, bn

    raise ShapeMismatchError(f"no analytic quadrature for a {shape.dim}-D "
                             f"{type(shape).__name__}")


def _central_divergence(field, x, step):
    """Sum over axes a of (field(x + step e_a) - field(x - step e_a))[..., a]
    / (2 step): the central-difference divergence at points x (P, d)."""
    div = 0.0
    for a in range(x.shape[-1]):
        xp = x.copy()
        xm = x.copy()
        xp[:, a] += step
        xm[:, a] -= step
        div += (field(xp)[..., a] - field(xm)[..., a]) / (2 * step)
    return div


def generalized_mean_curvature(f: Integrand, domain_or_shape, x,
                               h_fd: Optional[float] = None):
    """Generalized mean curvature of the boundary with respect to f.

    Evaluates min(-div D_xi f^inf(., G), +div D_xi f^inf(., -G)) at boundary
    points x, where G is the gradient of the interior distance function and
    the divergence is taken by central differences of step ``h_fd``
    (default max(grid h, 1e-4 * diameter)).  Normalized so that f = |.| on
    the unit sphere gives d - 1. Scalar integrands only.
    """
    if f.n_rows != 1:
        raise ShapeMismatchError("curvature is defined for scalar integrands")
    if isinstance(domain_or_shape, GridDomain):
        shape = domain_or_shape.shape
        h_grid = domain_or_shape.h
    else:
        shape = domain_or_shape
        h_grid = 0.0
    if h_fd is None:
        h_fd = max(h_grid, 1e-4 * shape.diameter)

    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[-1] != shape.dim:
        raise ShapeMismatchError("point dimension does not match the shape")
    if np.any(np.abs(shape.signed_distance(x)) > max(h_grid, 1e-6 * shape.diameter)):
        raise DomainError("curvature point is not on the boundary")
    x = np.atleast_2d(shape.project(x))

    def field(pts, orientation):
        # D_xi f^inf at the (oriented) interior-distance gradient; the
        # interior distance gradient is minus the signed-distance gradient
        g = -orientation * shape.sd_gradient(pts)
        xi = g[..., None, :]  # (m, 1, dim): scalar integrand, n = 1
        return f.recession_gradient(pts, xi)[..., 0, :]

    def divergence(orientation):
        return _central_divergence(lambda p: field(p, orientation), x, h_fd)

    h_val = np.minimum(-divergence(+1.0), divergence(-1.0))
    return h_val if h_val.size > 1 else float(h_val[0])


# face-cell pairs per block of curvature_condition_margin's gather
_MARGIN_BLOCK = 1 << 15


def curvature_condition_margin(f: Integrand, g_values, domain: GridDomain,
                               c: float):
    """Margin of the discrete curvature condition at every boundary face.

    Returns H(x_b) - sup{|g| over inside cells within 3h of x_b} - c; all
    entries positive means the discrete smallness condition on g holds.
    ``g_values`` is (N,) on the inside cells.
    """
    faces = domain.boundary_faces
    H = np.atleast_1d(generalized_mean_curvature(f, domain, faces.point))
    g_inside = np.abs(np.asarray(g_values, dtype=float))
    if g_inside.shape != domain.points.shape[:1]:
        raise ShapeMismatchError("g must be (N,) on inside cells")
    # x_b lies within h/2 of its face, so a cell center within 3h of it is
    # at most 4 cells from the face's inside cell on each axis; indices
    # past the grid are clipped into the ghost ring, whose cells are outside
    offsets = np.indices((9,) * domain.dim).reshape(domain.dim, -1).T - 4
    top = np.array(domain.n_cells) - 1
    rows = max(1, _MARGIN_BLOCK // len(offsets))
    local = np.empty(len(faces))
    for lo in range(0, len(faces), rows):
        cell, point = faces.cell[lo:lo + rows], faces.point[lo:lo + rows]
        idx = np.clip(cell[:, None] + offsets, 0, top)  # (rows, 9^d, d)
        near = domain.cell_index[tuple(np.moveaxis(idx, -1, 0))]
        d2 = np.sum((domain.points[near] - point[:, None]) ** 2, axis=-1)
        within = (near >= 0) & (d2 <= (3.0 * domain.h) ** 2)
        local[lo:lo + rows] = np.where(within, g_inside[near], 0.0).max(axis=1)
    return H - local - c

"""Discrete relaxed energy, exact-adjoint operators, and truncation.

Everything here works on compressed vectors over the N inside cells of a
domain (see ``GridDomain.operator``): a primal field is an (N, n) array, a
dual field an (N, n, d) array on the + face of each inside cell, and a
boundary multiplier an (m, n) array over boundary faces.  A compressed dual
field is stored planar, as the (N, n, d) view of a C-contiguous (d, N, n)
array, so that ``G u`` and ``G^T z`` reshape it without a copy; a dual
field given in another layout is copied to it once on entry.  Padded
(n, *grid) and (n, d, *grid) arrays appear only at the I/O edge: Field and
DualField, and the padded-signature ``discrete_gradient``,
``discrete_divergence`` and ``normal_trace`` kept for callers that hold
padded arrays.  Every public function here accepts either form.

The operator is two sparse matrices.  ``G`` takes forward differences on
interior faces (faces between two inside cells) and is zero elsewhere;
``B`` selects the inside cell of each boundary face.  The discrete
divergence of a padded dual field is -G^T z plus the boundary flux
B^T (h^(d-1)/h^d [z, nu]), with [z, nu] the face-normal component of z
(sign times the value stored at the face's slot), so that

    <u, div z> + <grad u, z> = sum over boundary faces of h^(d-1) * u * [z, nu]

holds exactly.  This discrete Gauss-Green identity is the backbone of
certificate checking; no continuum pairing measure is needed at grid level.

The relaxed energy combines the cell term sum h^d f(x, grad u) (jumps show
up as large one-cell gradients), the boundary penalty
sum w_b f^inf(x_b, (u0 - u) tensor nu) with the geometric face weights w_b
and the one-sided trace u = B u taken from the adjacent inside cell, and
the lower order terms sum h^d (g u + lambda/2 |u - h|^2).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidFieldError, ShapeMismatchError, SpecFileError
from .fields import DualField, Field
from .geometry import GridDomain
from .integrands import Integrand

__all__ = [
    "ProblemSpec",
    "discrete_gradient",
    "discrete_divergence",
    "boundary_flux",
    "gauss_green_residual",
    "relaxed_energy",
    "lower_order_energy",
    "boundary_penalty",
    "truncate",
    "total_variation",
]


@dataclass
class ProblemSpec:
    """Integrand + domain + boundary datum + lower-order data (g, h, lambda).

    ``g``, ``h`` and ``lam`` keep their padded shapes; their values on the
    inside cells are gathered once into ``g_cells``/``h_cells`` (N, n) and
    ``lam_cells`` (N,), which is what the energies and the solver read.
    ``box_bound`` is the M of every duality gap (see ``solver``): by
    default m0 = max(|u0|, |h_cells|) when g = 0, else 4 (m0 + 1); one
    that is not finite and > 0 raises SpecFileError.
    """

    integrand: Integrand
    domain: GridDomain
    u0: np.ndarray                 # (m_faces, n) boundary samples
    g: Optional[np.ndarray] = None     # (n, *grid)
    h: Optional[np.ndarray] = None     # (n, *grid)
    lam: Optional[np.ndarray] = None   # (*grid), nonnegative
    box_bound: Optional[float] = None  # M; resolved in __post_init__

    def __post_init__(self):
        n = self.integrand.n_rows
        grid = self.domain.grid_shape
        m = len(self.domain.boundary_faces)
        if self.integrand.n_cols != self.domain.dim:
            raise ShapeMismatchError(
                "integrand column dimension must match the spatial dimension"
            )
        u0 = np.asarray(self.u0, dtype=float)
        if u0.shape == (m,) and n == 1:
            u0 = u0[:, None]
        self.u0 = u0 = _checked(u0, "u0", (m, n))
        for name, shape in (("g", (n,) + grid), ("h", (n,) + grid),
                            ("lam", grid)):
            arr = getattr(self, name)
            arr = np.zeros(shape) if arr is None else np.asarray(arr, float)
            if arr.shape == grid and shape == (1,) + grid:
                arr = arr[None]
            if arr.shape != shape:
                raise ShapeMismatchError(f"{name} must have shape {shape}")
            setattr(self, name, arr)
        op = self.domain.operator
        self.g_cells = op.cells(self.g)
        self.h_cells = op.cells(self.h)
        self.lam_cells = op.cells(self.lam)
        for name, vals in (("g", self.g_cells), ("h", self.h_cells),
                           ("lambda", self.lam_cells)):
            if not np.all(np.isfinite(vals)):
                raise InvalidFieldError(f"{name} has non-finite values")
        if np.any(self.lam_cells < 0):
            raise InvalidFieldError("lambda must be nonnegative")
        if self.box_bound is None:
            m0 = max(np.max(np.abs(u0)), np.max(np.abs(self.h_cells)))
            self.box_bound = float(4.0 * (m0 + 1.0) if np.any(self.g_cells)
                                   else max(m0, 1e-12))
        elif not (isinstance(self.box_bound, numbers.Real)
                  and 0 < self.box_bound < np.inf):
            # a NaN or non-positive M would make the gap NaN or negative
            raise SpecFileError(
                f"box_bound must be finite and > 0, got {self.box_bound!r}")

    @property
    def n_channels(self) -> int:
        return self.integrand.n_rows

    def zero_field(self) -> Field:
        return Field.zeros(self.domain, self.n_channels)


# ---------------------------------------------------------------------------
# Staggered operators
# ---------------------------------------------------------------------------


def _checked(values, name, expected, domain=None) -> np.ndarray:
    """A field as it enters, finite and of the expected shape (None: any
    size) once padded values on the domain's grid are compressed; else
    InvalidFieldError or ShapeMismatchError naming it."""
    if not np.all(np.isfinite(values)):
        raise InvalidFieldError(f"{name} has non-finite values")
    if domain is not None and (values.shape[len(expected) - 1:]
                               == domain.grid_shape):
        values = domain.operator.cells(values)
    if (values.ndim != len(expected)
            or any(e not in (None, s) for s, e in zip(values.shape, expected))):
        raise ShapeMismatchError(f"{name} has shape {values.shape}, expected "
                                 + str(expected).replace("None", "n"))
    return values


def _cell_values(domain: GridDomain, u, n: Optional[int] = None) -> np.ndarray:
    """(N, n) inside-cell values of a Field, a padded or a compressed array,
    checked; n = None accepts any channel count."""
    u = u.values if isinstance(u, Field) else np.asarray(u, dtype=float)
    return _checked(u, "u", (len(domain.operator.points), n), domain)


def _dual_values(domain: GridDomain, z, n: Optional[int] = None) -> np.ndarray:
    """Planar (N, n, d) face values of a DualField, a padded or a compressed
    array, checked; n = None accepts any channel count."""
    z = z.values if isinstance(z, DualField) else np.asarray(z, dtype=float)
    z = _checked(z, "z", (len(domain.operator.points), n, domain.dim), domain)
    # no copy when z is already stored planar
    return np.ascontiguousarray(z.transpose(2, 0, 1)).transpose(1, 2, 0)


def _zeta_values(spec: "ProblemSpec", zeta) -> np.ndarray:
    """The (m, n) boundary multiplier, checked."""
    return _checked(np.asarray(zeta, dtype=float), "zeta",
                    (len(spec.domain.boundary_faces), spec.n_channels))


def _gradient(op, u: np.ndarray) -> np.ndarray:
    """G u: (N, n) cell values to planar (N, n, d) face values."""
    return (op.G @ u).reshape(op.dim, len(u), -1).transpose(1, 2, 0)


def _divergence(op, z: np.ndarray) -> np.ndarray:
    """-G^T z: (N, n, d) face values to (N, n); interior faces only.

    A planar z is reshaped without a copy.
    """
    return op.div @ z.transpose(2, 0, 1).reshape(-1, z.shape[1])


def _face_masks(domain: GridDomain):
    """Padded (d, *grid) masks: interior faces, boundary-face slots, both."""
    interior = domain._interior_face_mask()
    slots = np.zeros_like(interior)
    slots[(domain.boundary_faces.axis,) + tuple(domain.operator.slot_cells.T)] = True
    return interior, slots, interior | slots


def discrete_gradient(domain: GridDomain, u: np.ndarray) -> np.ndarray:
    """Forward differences of (n, *grid) cell values on interior faces."""
    op = domain.operator
    return op.pad(_gradient(op, op.cells(np.asarray(u, dtype=float))))


def discrete_divergence(domain: GridDomain, z: np.ndarray) -> np.ndarray:
    """Negative adjoint of the gradient, collecting boundary-face flux."""
    z = np.asarray(z, dtype=float)
    op = domain.operator
    flux = (domain.boundary_faces.face_measure / domain.cell_volume
            * normal_trace(domain, z).T)
    return op.pad(_divergence(op, op.cells(z)) + op.Bt @ flux)


def normal_trace(domain: GridDomain, z: np.ndarray) -> np.ndarray:
    """[z, nu] at boundary faces of a padded z: sign times the slot value, (n, m)."""
    bf = domain.boundary_faces
    vals = z[(slice(None), bf.axis) + tuple(domain.operator.slot_cells.T)]
    return vals * bf.sign[None]


def boundary_flux(domain: GridDomain, u: np.ndarray, z: np.ndarray) -> float:
    """Exact discrete flux: sum over boundary faces of h^(d-1) u_adj . [z, nu]."""
    u_adj = domain.operator.B @ _cell_values(domain, u)  # (m, n)
    tr = normal_trace(domain, z)
    return float(domain.boundary_faces.face_measure * np.sum(u_adj.T * tr))


def gauss_green_residual(domain: GridDomain, u, z) -> float:
    """|<u, div z> + <grad u, z> - boundary flux|; zero up to roundoff."""
    u = u.values if isinstance(u, Field) else np.asarray(u, dtype=float)
    z = z.values if isinstance(z, DualField) else np.asarray(z, dtype=float)
    vol = domain.cell_volume
    div = discrete_divergence(domain, z)
    grad = discrete_gradient(domain, u)
    lhs = vol * float(np.sum(u * div)) + vol * float(np.sum(grad * z))
    return abs(lhs - boundary_flux(domain, u, z))


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------


def boundary_penalty(spec: ProblemSpec, u) -> float:
    """sum w_b f^inf(x_b, (u0 - u_adj) tensor nu) with one-sided traces."""
    bf = spec.domain.boundary_faces
    jump = spec.u0 - spec.domain.operator.B @ _cell_values(spec.domain, u)
    mat = jump[:, :, None] * bf.normal[:, None, :]  # (m, n, d)
    vals = spec.integrand.recession(bf.point, mat)
    return float(np.sum(bf.weight * vals))


def lower_order_energy(spec: ProblemSpec, u) -> float:
    """sum h^d (g . u + lambda/2 |u - h|^2) over inside cells."""
    u = _cell_values(spec.domain, u)
    dev = u - spec.h_cells
    dens = (np.sum(spec.g_cells * u, axis=1)
            + 0.5 * spec.lam_cells * np.sum(dev * dev, axis=1))
    return spec.domain.cell_volume * float(np.sum(dens))


def relaxed_energy(spec: ProblemSpec, u) -> float:
    """Cell term + boundary penalty + lower-order terms of the relaxed functional."""
    op = spec.domain.operator
    u = _cell_values(spec.domain, u, spec.n_channels)
    cell_term = spec.domain.cell_volume * float(
        np.sum(spec.integrand.value(op.points, _gradient(op, u)))
    )
    return cell_term + boundary_penalty(spec, u) + lower_order_energy(spec, u)


def total_variation(domain: GridDomain, u: np.ndarray) -> float:
    """Discrete TV: sum h^d |grad u| over cells (Frobenius per cell)."""
    grad = _gradient(domain.operator, _cell_values(domain, u))
    mag = np.sqrt(np.sum(grad * grad, axis=(1, 2)))
    return domain.cell_volume * float(np.sum(mag))


def truncate(u: Field, b: float) -> Field:
    """Pointwise clamp of a scalar field to [-b, b]."""
    if b < 0:
        raise ValueError("truncation level must be nonnegative")
    if u.n_channels != 1:
        raise ShapeMismatchError("truncation is defined for scalar fields")
    return Field(u.domain, np.clip(u.values, -b, b))

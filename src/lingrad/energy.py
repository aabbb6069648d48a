"""Discrete relaxed energy, exact-adjoint operators, and truncation.

Everything here works on compressed vectors over the N inside cells of a
domain (see ``GridDomain``): a primal field is an (N, n) array, a
dual field an (N, n, d) array on the + face of each inside cell, and a
boundary multiplier an (m, n) array over boundary faces.  A compressed dual
field is stored planar, as the (N, n, d) view of a C-contiguous (d, N, n)
array, so that ``G u`` writes it and ``G^T z`` reads it without a copy;
a dual field given in another layout is copied to it once on entry.  A
``ProblemSpec`` stores g, h and lambda the same way, on the inside cells,
and ``solve`` returns its state in this form.  Padded (n, *grid) and
(n, d, *grid) arrays are the layout of LGF1 files (``fields``); here they
remain only for callers that still hold them: the energies and the gap
also accept them, and ``discrete_gradient``, ``discrete_divergence``,
``normal_trace``, ``boundary_flux`` and ``gauss_green_residual`` keep
padded signatures.  Every field enters through the one check of
``_checked``.

The operator is four products on the neighbor index tables of the
domain, and they are its methods: ``domain.grad(u)`` = G u takes forward
differences on interior faces (faces between two inside cells) and is
zero elsewhere, ``domain.div(z)`` = -G^T z, ``domain.trace(u)`` = B u
selects the inside cell of each boundary face, and
``domain.trace_adjoint`` is B^T.  The discrete divergence of a padded
dual field is -G^T z plus the boundary flux
B^T (h^(d-1)/h^d [z, nu]), with [z, nu] the face-normal component of z
(sign times the value stored at the face's slot), so that

    <u, div z> + <grad u, z> = sum over boundary faces of h^(d-1) * u * [z, nu]

holds exactly.  This discrete Gauss-Green identity is the backbone of
certificate checking; no continuum pairing measure is needed at grid level.

The relaxed energy combines the cell term sum h^d f(x, grad u) (jumps show
up as large one-cell gradients), the boundary penalty
sum w_b f^inf(x_b, (u0 - u) tensor nu) with the geometric face weights w_b
and the one-sided trace u = B u taken from the adjacent inside cell, and
the lower order terms sum h^d (g u + lambda/2 |u - h|^2), each the sum of
a per-location density (``_densities``) that every duality gap starts from.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidFieldError, ShapeMismatchError, SpecFileError
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

    g, h and lambda are read only on the inside cells and stored there:
    ``g`` and ``h`` as (N, n), ``lam`` as (N,), zero when not given.  Padded
    (n, *grid) or (*grid) input is compressed once every entry of it is
    checked finite.  ``box_bound`` is the M of every duality gap (see
    ``solver``): by default m0 = max(|u0|, |h|) when g = 0, else
    4 (m0 + 1); one that is not finite and > 0 raises SpecFileError.
    """

    integrand: Integrand
    domain: GridDomain
    u0: np.ndarray                 # (m_faces, n) boundary samples
    g: Optional[np.ndarray] = None     # (N, n) inside cells
    h: Optional[np.ndarray] = None     # (N, n) inside cells
    lam: Optional[np.ndarray] = None   # (N,) inside cells, nonnegative
    box_bound: Optional[float] = None  # M; resolved in __post_init__

    def __post_init__(self):
        if self.integrand.n_cols != self.domain.dim:
            raise ShapeMismatchError(
                "integrand column dimension must match the spatial dimension"
            )
        n = self.integrand.n_rows
        cells = len(self.domain.points)
        self.u0 = _checked(self.u0, "u0",
                           (len(self.domain.boundary_faces), n))
        for name, attr, shape in (("g", "g", (cells, n)),
                                  ("h", "h", (cells, n)),
                                  ("lambda", "lam", (cells,))):
            arr = getattr(self, attr)
            setattr(self, attr, np.zeros(shape) if arr is None
                    else _checked(arr, name, shape, self.domain))
        if np.any(self.lam < 0):
            raise InvalidFieldError("lambda must be nonnegative")
        if self.box_bound is None:
            m0 = _data_bound(self)
            self.box_bound = float(4.0 * (m0 + 1.0) if np.any(self.g)
                                   else max(m0, 1e-12))
        elif not (isinstance(self.box_bound, numbers.Real)
                  and 0 < self.box_bound < np.inf):
            # a NaN or non-positive M would make the gap NaN or negative
            raise SpecFileError(
                f"box_bound must be finite and > 0, got {self.box_bound!r}")

    @property
    def n_channels(self) -> int:
        return self.integrand.n_rows


def _data_bound(spec) -> float:
    """m0 = max(|u0|, |h|): where g = 0 a minimizer with |u| <= m0 exists,
    by truncation."""
    return max(np.max(np.abs(spec.u0)), np.max(np.abs(spec.h)))


def _box_holds_minimizer(spec) -> bool:
    """Whether the box |u| <= M = ``spec.box_bound`` of the gap is known to
    hold a minimizer: g = 0 and M >= ``_data_bound``.  Elsewhere a gap is a
    proof only for a state inside the box."""
    return not np.any(spec.g) and spec.box_bound >= _data_bound(spec)


# ---------------------------------------------------------------------------
# Staggered operators
# ---------------------------------------------------------------------------


def _checked(values, name, expected, domain=None) -> np.ndarray:
    """A field as it enters: the whole given array must be finite; then a
    padded array on the domain's grid is compressed, a scalar field that
    omits its channel axis gets one, and the shape must be ``expected``
    (None: any size); else InvalidFieldError or ShapeMismatchError naming
    it."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise InvalidFieldError(f"{name} has non-finite values")
    grid = () if domain is None else domain.grid_shape
    if grid and values.shape[values.ndim - len(grid):] == grid:
        values = domain.cells(values)
    if values.ndim == len(expected) - 1 >= 1 and expected[1] == 1:
        values = values[:, None]
    if (values.ndim != len(expected)
            or any(e not in (None, s) for s, e in zip(values.shape, expected))):
        raise ShapeMismatchError(f"{name} has shape {values.shape}, expected "
                                 + str(expected).replace("None", "n"))
    return values


def _cell_values(domain: GridDomain, u, n: Optional[int] = None) -> np.ndarray:
    """(N, n) inside-cell values of a padded or a compressed array,
    checked; n = None accepts any channel count."""
    return _checked(u, "u", (len(domain.points), n), domain)


def _dual_values(domain: GridDomain, z, n: Optional[int] = None) -> np.ndarray:
    """Planar (N, n, d) face values of a padded or a compressed array,
    checked; n = None accepts any channel count."""
    z = _checked(z, "z", (len(domain.points), n, domain.dim), domain)
    # no copy when z is already stored planar
    return np.ascontiguousarray(z.transpose(2, 0, 1)).transpose(1, 2, 0)


def _zeta_values(spec: "ProblemSpec", zeta) -> np.ndarray:
    """The (m, n) boundary multiplier, checked."""
    return _checked(zeta, "zeta",
                    (len(spec.domain.boundary_faces), spec.n_channels))


def _face_masks(domain: GridDomain):
    """Padded (d, *grid) masks: interior faces, boundary-face slots, both."""
    interior = domain.pad(domain.interior[:, 0, :])
    slots = np.zeros_like(interior)
    slots[(domain.boundary_faces.axis,) + tuple(domain.slot_cells.T)] = True
    return interior, slots, interior | slots


def discrete_gradient(domain: GridDomain, u: np.ndarray) -> np.ndarray:
    """Forward differences of (n, *grid) cell values on interior faces."""
    return domain.pad(domain.grad(domain.cells(np.asarray(u, dtype=float))))


def discrete_divergence(domain: GridDomain, z: np.ndarray) -> np.ndarray:
    """Negative adjoint of the gradient, collecting boundary-face flux."""
    z = np.asarray(z, dtype=float)
    flux = (domain.boundary_faces.face_measure / domain.cell_volume
            * normal_trace(domain, z).T)
    return domain.pad(domain.div(domain.cells(z)) + domain.trace_adjoint(flux))


def normal_trace(domain: GridDomain, z: np.ndarray) -> np.ndarray:
    """[z, nu] at boundary faces of a padded z: sign times the slot value, (n, m)."""
    bf = domain.boundary_faces
    vals = z[(slice(None), bf.axis) + tuple(domain.slot_cells.T)]
    return vals * bf.sign[None]


def boundary_flux(domain: GridDomain, u: np.ndarray, z: np.ndarray) -> float:
    """Exact discrete flux: sum over boundary faces of h^(d-1) u_adj . [z, nu]."""
    u_adj = domain.trace(_cell_values(domain, u))  # (m, n)
    tr = normal_trace(domain, z)
    return float(domain.boundary_faces.face_measure * np.sum(u_adj.T * tr))


def gauss_green_residual(domain: GridDomain, u, z) -> float:
    """|<u, div z> + <grad u, z> - boundary flux| of padded u and z; zero
    up to roundoff."""
    u, z = np.asarray(u, dtype=float), np.asarray(z, dtype=float)
    vol = domain.cell_volume
    div = discrete_divergence(domain, z)
    grad = discrete_gradient(domain, u)
    lhs = vol * float(np.sum(u * div)) + vol * float(np.sum(grad * z))
    return abs(lhs - boundary_flux(domain, u, z))


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------


class _Densities(NamedTuple):
    """Per-location primal densities of u, and what a dual pairs against."""

    u: np.ndarray      # (N, n) inside-cell values
    grad: np.ndarray   # (N, n, d) G u, planar
    jump: np.ndarray   # (m, n) u0 - B u
    cell: np.ndarray   # (N,) h^d f(x, G u)
    face: np.ndarray   # (m,) w_b f^inf(x_b, jump tensor nu)
    lower: np.ndarray  # (N,) h^d (g . u + lambda/2 |u - h|^2)


def _densities(spec: ProblemSpec, u) -> _Densities:
    """The densities of a padded or a compressed array u, checked."""
    domain, f = spec.domain, spec.integrand
    bf, vol = domain.boundary_faces, domain.cell_volume
    u = _cell_values(domain, u, spec.n_channels)
    grad, jump, dev = domain.grad(u), spec.u0 - domain.trace(u), u - spec.h
    face = f.recession(bf.point, jump[:, :, None] * bf.normal[:, None, :])
    lower = (np.sum(spec.g * u, axis=1)
             + 0.5 * spec.lam * np.sum(dev * dev, axis=1))
    return _Densities(u, grad, jump, vol * f.value(domain.points, grad),
                      bf.weight * face, vol * lower)


def _total(*terms) -> float:
    """The sum of per-location terms, each array summed in turn."""
    return sum(float(np.sum(t)) for t in terms)


def boundary_penalty(spec: ProblemSpec, u) -> float:
    """sum w_b f^inf(x_b, (u0 - u_adj) tensor nu) with one-sided traces."""
    return _total(_densities(spec, u).face)


def lower_order_energy(spec: ProblemSpec, u) -> float:
    """sum h^d (g . u + lambda/2 |u - h|^2) over inside cells."""
    return _total(_densities(spec, u).lower)


def relaxed_energy(spec: ProblemSpec, u) -> float:
    """Cell term + boundary penalty + lower-order terms of the relaxed functional."""
    dens = _densities(spec, u)
    return _total(dens.cell, dens.face, dens.lower)


def total_variation(domain: GridDomain, u: np.ndarray) -> float:
    """Discrete TV: sum h^d |grad u| over cells (Frobenius per cell)."""
    grad = domain.grad(_cell_values(domain, u))
    mag = np.sqrt(np.sum(grad * grad, axis=(1, 2)))
    return domain.cell_volume * float(np.sum(mag))


def truncate(u: np.ndarray, b: float) -> np.ndarray:
    """Pointwise clamp of a compressed scalar field, (N, 1), to [-b, b]."""
    if not b >= 0:
        raise ValueError(f"truncation level must be nonnegative, got {b}")
    return np.clip(_checked(u, "u", (None, 1)), -b, b)

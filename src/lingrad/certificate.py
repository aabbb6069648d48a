"""Quantitative verification of the subdifferential optimality conditions.

A field u minimizes the relaxed functional exactly when a dual certificate
field z exists satisfying five conditions; this module turns each into a
nonnegative residual and aggregates it in L1 together with a sup norm and
the worst-offending location:

  r_div       divergence balance   div z = lambda (u - h) + g
  r_subdiff   z in the xi-subdifferential of f at grad u (Fenchel-Young gap),
              on cells below the jump threshold
  r_singular  surrogate for the singular-part condition: the positive part
              of f^inf(x, grad u) - <z, grad u> on jump cells.  The exact
              continuum statement has no grid analog; the report labels
              this residual as a surrogate.
  r_range     z inside the closed dual range, tested through conjugate
              finiteness (f*(x, z) <= 10 C^2 after a relative shrink)
  r_boundary  [z, nu] (u0 - u) = f^inf(x, (u0 - u) tensor nu) on the boundary

Verification runs in two modes.  Grid mode consumes solver output: cell
residuals use the staggered operators, and the normal trace is the solver's
boundary multiplier zeta when provided, otherwise the face-normal component
of z.  Analytic mode samples closed-form reference fields on quadrature
points of the shape (no grid), which is how the gallery's explicit
counterexample certificates are checked to 1e-8 and better.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .energy import (
    ProblemSpec,
    normal_trace,
    _cell_values,
    _divergence,
    _dual_values,
    _gradient,
)
from .errors import ShapeMismatchError
from .fields import DualField
from .geometry import Annulus, Ball, Rectangle
from .integrands import Integrand

__all__ = [
    "ToleranceSet",
    "ConditionResidual",
    "CertificateReport",
    "AnalyticCase",
    "verify_scalar",
    "verify_vector",
    "verify_least_gradient",
    "boundary_gradient_condition",
    "analytic_samples",
]


@dataclass
class ToleranceSet:
    """Per-condition pass thresholds on the L1-aggregated residuals."""

    div: float = 1e-6
    subdiff: float = 1e-6
    singular: float = 1e-6
    range: float = 1e-6
    boundary: float = 1e-6
    jump_threshold: Optional[float] = None  # default 10 / h on grids

    @classmethod
    def uniform(cls, tol: float) -> "ToleranceSet":
        return cls(div=tol, subdiff=tol, singular=tol, range=tol, boundary=tol)


@dataclass
class ConditionResidual:
    name: str
    l1: float
    sup: float
    worst_location: tuple
    tol: float
    passed: bool
    note: str = ""


@dataclass
class CertificateReport:
    conditions: dict
    overall_pass: bool

    def __getitem__(self, key):
        return self.conditions[key]

    def residuals(self):
        return {k: c.l1 for k, c in self.conditions.items()}

    def as_flat_dict(self):
        out = {"overall_pass": self.overall_pass}
        for k, c in self.conditions.items():
            out[f"{k}.l1"] = c.l1
            out[f"{k}.sup"] = c.sup
            out[f"{k}.tol"] = c.tol
            out[f"{k}.passed"] = c.passed
            for i, coord in enumerate(c.worst_location):
                out[f"{k}.worst.{'xyz'[i] if i < 3 else i}"] = coord
            if c.note:
                out[f"{k}.note"] = c.note
        return out


# ---------------------------------------------------------------------------
# Sample containers: one code path scores both grid and analytic data
# ---------------------------------------------------------------------------


@dataclass
class _Samples:
    points: np.ndarray       # (m, sdim)
    vol_w: np.ndarray        # (m,)
    u: np.ndarray            # (m, n)
    grad_u: np.ndarray       # (m, n, d)
    z: np.ndarray            # (m, n, d)
    div_z: np.ndarray        # (m, n)
    g: np.ndarray            # (m, n)
    h: np.ndarray            # (m, n)
    lam: np.ndarray          # (m,)
    b_points: np.ndarray     # (mb, sdim)
    b_w: np.ndarray          # (mb,)
    b_normals: np.ndarray    # (mb, sdim)
    b_u: np.ndarray          # (mb, n)
    b_u0: np.ndarray         # (mb, n)
    b_ztrace: np.ndarray     # (mb, n)


def _agg(name, per_sample, weights, locations, tol, note=""):
    per_sample = np.asarray(per_sample, dtype=float)
    l1 = float(np.sum(weights * per_sample))
    if per_sample.size:
        k = int(np.argmax(per_sample))
        sup = float(per_sample[k])
        loc = tuple(np.atleast_1d(locations[k]).tolist())
    else:
        sup, loc = 0.0, ()
    return ConditionResidual(name, l1, sup, loc, tol, bool(l1 <= tol), note)


# relative shrink of z before r_range tests the conjugate for finiteness
_RANGE_TOL = 1e-8
# |u0 - u| above which a boundary face counts in the gradient condition
_ACTIVE_TOL = 1e-9


def _score(f: Integrand, s: _Samples, tols: ToleranceSet,
           jump: float) -> CertificateReport:
    conds = {}

    # r_div
    el = s.div_z - (s.lam[:, None] * (s.u - s.h) + s.g)
    per = np.sum(np.abs(el), axis=-1)
    conds["r_div"] = _agg("r_div", per, s.vol_w, s.points, tols.div)

    # split cells at the jump threshold
    gnorm = np.sqrt(np.sum(s.grad_u**2, axis=(-2, -1)))
    ac = gnorm <= jump

    # r_subdiff on absolutely continuous cells
    if np.any(ac):
        res = f.subdiff_residual(s.points[ac], s.grad_u[ac], s.z[ac])
        res = np.maximum(res, 0.0)
        conds["r_subdiff"] = _agg("r_subdiff", res, s.vol_w[ac],
                                  s.points[ac], tols.subdiff)
    else:
        conds["r_subdiff"] = ConditionResidual(
            "r_subdiff", 0.0, 0.0, (), tols.subdiff, True)

    # r_singular surrogate on jump cells
    if np.any(~ac):
        pts, gu, zz = s.points[~ac], s.grad_u[~ac], s.z[~ac]
        fin = f.recession(pts, gu)
        pair = np.sum(zz * gu, axis=(-2, -1))
        res = np.maximum(fin - pair, 0.0)
        conds["r_singular_surrogate"] = _agg(
            "r_singular_surrogate", res, s.vol_w[~ac], pts, tols.singular,
            note="surrogate for the singular-part density condition")
    else:
        conds["r_singular_surrogate"] = ConditionResidual(
            "r_singular_surrogate", 0.0, 0.0, (), tols.singular, True,
            note="surrogate for the singular-part density condition")

    # r_range via conjugate finiteness after a relative shrink
    fmax = 10.0 * f.growth_constant**2
    conj = f.conjugate(s.points, s.z / (1.0 + _RANGE_TOL))
    bad = (~np.isfinite(conj)) | (conj > fmax)
    conds["r_range"] = _agg("r_range", bad.astype(float), s.vol_w,
                            s.points, tols.range)

    # r_boundary
    jumps = s.b_u0 - s.b_u
    mats = jumps[:, :, None] * s.b_normals[:, None, :]
    fin = f.recession(s.b_points, mats)
    pair = np.sum(s.b_ztrace * jumps, axis=-1)
    per = np.abs(pair - fin)
    conds["r_boundary"] = _agg("r_boundary", per, s.b_w, s.b_points,
                               tols.boundary)

    overall = all(c.passed for c in conds.values())
    return CertificateReport(conds, overall)


# ---------------------------------------------------------------------------
# Grid mode
# ---------------------------------------------------------------------------


def _grid_samples(spec: ProblemSpec, u, z, zeta=None) -> _Samples:
    """Inside-cell and boundary-face samples of grid fields.

    Without ``zeta`` the normal trace is read from the boundary-face slots
    of z, so z must then be a DualField or a padded array.
    """
    domain = spec.domain
    op = domain.operator
    bf = domain.boundary_faces
    vol = domain.cell_volume
    u_c = _cell_values(domain, u)
    z_c = _dual_values(domain, z)
    n = spec.n_channels
    if u_c.shape[1] != n or z_c.shape[1] != n:
        raise ShapeMismatchError("field channel count does not match the spec")

    if zeta is None:
        zv = z.values if isinstance(z, DualField) else np.asarray(z, dtype=float)
        ztr = normal_trace(domain, zv).T  # (m, n)
        flux = bf.face_measure / vol * ztr
    else:
        ztr = np.asarray(zeta, dtype=float).reshape(len(bf), n)
        flux = (bf.weight / vol)[:, None] * ztr
    m = len(op.points)
    return _Samples(
        points=op.points, vol_w=np.full(m, vol), u=u_c,
        grad_u=_gradient(op, u_c), z=z_c,
        div_z=_divergence(op, z_c) + op.Bt @ flux,
        g=spec.g_cells, h=spec.h_cells, lam=spec.lam_cells,
        b_points=bf.point, b_w=bf.weight, b_normals=bf.normal,
        b_u=op.B @ u_c, b_u0=spec.u0, b_ztrace=ztr,
    )


# ---------------------------------------------------------------------------
# Analytic mode
# ---------------------------------------------------------------------------


def _fibonacci_sphere(m):
    k = np.arange(m) + 0.5
    phi = np.arccos(1 - 2 * k / m)
    theta = np.pi * (1 + 5**0.5) * k
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)],
        axis=-1,
    )


def _shape_quadrature(shape, n_interior: int, n_boundary: int):
    """Interior and boundary quadrature samples for an analytic shape."""
    if isinstance(shape, Ball) or isinstance(shape, Annulus):
        dim = shape.dim
        r0 = shape.r_in if isinstance(shape, Annulus) else 0.0
        r1 = shape.r_out if isinstance(shape, Annulus) else shape.radius
        n_dirs = 96 if dim == 2 else 128
        n_rad = max(2, n_interior // n_dirs)
        if dim == 2:
            ang = np.linspace(0, 2 * np.pi, n_dirs, endpoint=False)
            dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
            sphere_area = 2 * np.pi
        elif dim == 3:
            dirs = _fibonacci_sphere(n_dirs)
            sphere_area = 4 * np.pi
        else:
            raise ShapeMismatchError("analytic quadrature supports dim 2 and 3")
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
            m_b = max(16, n_boundary // len(loops))
            if dim == 2:
                ang = np.linspace(0, 2 * np.pi, m_b, endpoint=False)
                dd = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
                area = 2 * np.pi * radius
            else:
                dd = _fibonacci_sphere(m_b)
                area = 4 * np.pi * radius**2
            bp.append(radius * dd)
            bw.append(np.full(len(dd), area / len(dd)))
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

    raise ShapeMismatchError(f"no analytic quadrature for {type(shape).__name__}")


def _call_or_zeros(fn, pts, n):
    if fn is None:
        return np.zeros((pts.shape[0], n))
    out = np.asarray(fn(pts), dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    return out


@dataclass
class AnalyticCase:
    """Closed-form problem data and reference fields for certificate checks.

    Cases whose fields live on features thinner than the uniform sample
    spacing supply refinement clusters: ``extra_interior = (points,
    weights)`` and ``extra_boundary = (points, weights, normals)``.  These
    are appended to the uniform quadrature (they may overlap it, which only
    makes the aggregated residuals more conservative).
    """

    integrand: Integrand
    shape: object
    u0: Callable                      # boundary points -> (m,) or (m, n)
    u: Callable                       # points -> (m,) or (m, n)
    grad_u: Callable                  # points -> (m, n, d)
    z: Callable                       # points -> (m, n, d)
    div_z: Optional[Callable] = None  # points -> (m,) or (m, n); FD fallback
    g: Optional[Callable] = None
    h: Optional[Callable] = None
    lam: Optional[Callable] = None
    fd_step: Optional[float] = None
    extra_interior: Optional[tuple] = None
    extra_boundary: Optional[tuple] = None

    def _div_z(self, pts):
        if self.div_z is not None:
            out = np.asarray(self.div_z(pts), dtype=float)
            return out[:, None] if out.ndim == 1 else out
        step = self.fd_step or 1e-5 * self.shape.diameter
        n = self.integrand.n_rows
        div = np.zeros((pts.shape[0], n))
        for a in range(self.shape.dim):
            xp = pts.copy()
            xm = pts.copy()
            xp[:, a] += step
            xm[:, a] -= step
            div += (np.asarray(self.z(xp))[:, :, a]
                    - np.asarray(self.z(xm))[:, :, a]) / (2 * step)
        return div


def analytic_samples(case: AnalyticCase, n_interior: int = 9600,
                     n_boundary: int = 512) -> _Samples:
    n = case.integrand.n_rows
    pts, w, bp, bw, bn = _shape_quadrature(case.shape, n_interior, n_boundary)
    if case.extra_interior is not None:
        pts = np.concatenate([pts, np.asarray(case.extra_interior[0], dtype=float)])
        w = np.concatenate([w, np.asarray(case.extra_interior[1], dtype=float)])
    if case.extra_boundary is not None:
        bp = np.concatenate([bp, np.asarray(case.extra_boundary[0], dtype=float)])
        bw = np.concatenate([bw, np.asarray(case.extra_boundary[1], dtype=float)])
        bn = np.concatenate([bn, np.asarray(case.extra_boundary[2], dtype=float)])
    u = _call_or_zeros(case.u, pts, n)
    grad_u = np.asarray(case.grad_u(pts), dtype=float)
    z = np.asarray(case.z(pts), dtype=float)
    div_z = case._div_z(pts)
    bz = np.asarray(case.z(bp), dtype=float)
    ztr = np.einsum("mnd,md->mn", bz, bn)
    return _Samples(
        points=pts, vol_w=w, u=u, grad_u=grad_u, z=z, div_z=div_z,
        g=_call_or_zeros(case.g, pts, n), h=_call_or_zeros(case.h, pts, n),
        lam=_call_or_zeros(case.lam, pts, 1)[:, 0],
        b_points=bp, b_w=bw, b_normals=bn,
        b_u=_call_or_zeros(case.u, bp, n), b_u0=_call_or_zeros(case.u0, bp, n),
        b_ztrace=ztr,
    )


# ---------------------------------------------------------------------------
# Public verifiers
# ---------------------------------------------------------------------------


def _resolve_samples(spec_or_case, u=None, z=None, zeta=None,
                     n_samples=10000, jump_threshold=None):
    """(integrand, samples, jump threshold); the threshold defaults to 10/h
    on grids, where a jump shows up as a one-cell gradient of order 1/h, and
    to inf for analytic cases."""
    if isinstance(spec_or_case, AnalyticCase):
        s = analytic_samples(spec_or_case, n_interior=int(n_samples * 0.95),
                             n_boundary=max(64, int(n_samples * 0.05)))
        default_jump = np.inf
    else:
        s = _grid_samples(spec_or_case, u, z, zeta)
        default_jump = 10.0 / spec_or_case.domain.h
    if jump_threshold is None:
        jump_threshold = default_jump
    return spec_or_case.integrand, s, jump_threshold


def verify_scalar(spec_or_case, u=None, z=None, tols: Optional[ToleranceSet] = None,
                  zeta=None, n_samples: int = 10000) -> CertificateReport:
    """Scalar certificate check; accepts a grid spec with fields or an AnalyticCase."""
    tols = tols or ToleranceSet()
    f, s, jump = _resolve_samples(spec_or_case, u, z, zeta, n_samples,
                                  tols.jump_threshold)
    if f.n_rows != 1:
        raise ShapeMismatchError("verify_scalar requires a scalar problem")
    return _score(f, s, tols, jump)


def verify_vector(spec_or_case, u=None, z=None, tols: Optional[ToleranceSet] = None,
                  zeta=None, n_samples: int = 10000) -> CertificateReport:
    """Vectorial certificate check (autonomous integrands only for n > 1)."""
    tols = tols or ToleranceSet()
    f, s, jump = _resolve_samples(spec_or_case, u, z, zeta, n_samples,
                                  tols.jump_threshold)
    if f.n_rows > 1 and f.x_dependent:
        raise ShapeMismatchError(
            "the vectorial characterization requires an autonomous integrand"
        )
    return _score(f, s, tols, jump)


def verify_least_gradient(spec_or_case, u=None, z=None,
                          tols: Optional[ToleranceSet] = None,
                          zeta=None, n_samples: int = 10000) -> CertificateReport:
    """Least-gradient certificate: unit dual bound, divergence-free z,
    pairing saturation, and the boundary sign condition.

    The sign condition [z, nu] in sgn(u0 - u) is scored through its
    Fenchel gap (|j| - t j)_+ plus the feasibility excess (|t| - 1)_+,
    which vanishes exactly on the sgn graph and degrades smoothly, so no
    active-set classification of near-matching faces is needed.
    """
    tols = tols or ToleranceSet()
    f, s, _ = _resolve_samples(spec_or_case, u, z, zeta, n_samples)
    if f.n_rows != 1 or abs(f.growth_constant - 1.0) > 0 or not f.homogeneous:
        raise ShapeMismatchError("least-gradient check requires the TV integrand")
    if np.any(s.lam != 0) or np.any(s.g != 0):
        raise ShapeMismatchError("least-gradient check requires g = h = lambda = 0")

    conds = {}
    znorm = np.sqrt(np.sum(s.z**2, axis=(-2, -1)))
    conds["gv1_dual_bound"] = _agg(
        "gv1_dual_bound", np.maximum(znorm - 1.0, 0.0), s.vol_w, s.points,
        tols.range)
    conds["gv2_divergence"] = _agg(
        "gv2_divergence", np.sum(np.abs(s.div_z), axis=-1), s.vol_w, s.points,
        tols.div)
    gnorm = np.sqrt(np.sum(s.grad_u**2, axis=(-2, -1)))
    pair = np.sum(s.z * s.grad_u, axis=(-2, -1))
    conds["gv3_pairing"] = _agg(
        "gv3_pairing", np.abs(gnorm - pair), s.vol_w, s.points, tols.subdiff)

    jump = (s.b_u0 - s.b_u)[:, 0]
    tr = s.b_ztrace[:, 0]
    per = (np.maximum(np.abs(jump) - tr * jump, 0.0)
           + np.maximum(np.abs(tr) - 1.0, 0.0))
    conds["gv4_boundary_sign"] = _agg(
        "gv4_boundary_sign", per, s.b_w, s.b_points, tols.boundary)

    overall = all(c.passed for c in conds.values())
    return CertificateReport(conds, overall)


def boundary_gradient_condition(spec_or_case, u=None, z=None, zeta=None,
                                n_samples: int = 10000):
    """Per-face residual of the normal-trace gradient condition.

    Where the trace misses the datum, [z, nu] must equal
    D_xi f^inf(x, (u0 - u) tensor nu) nu; faces with u = u0 contribute 0.
    Returns (points, residuals).
    """
    f, s, _ = _resolve_samples(spec_or_case, u, z, zeta, n_samples)
    jumps = s.b_u0 - s.b_u
    active = np.linalg.norm(jumps, axis=-1) > _ACTIVE_TOL
    res = np.zeros(len(s.b_points))
    if np.any(active):
        mats = jumps[active][:, :, None] * s.b_normals[active][:, None, :]
        dfi = f.recession_gradient(s.b_points[active], mats)
        target = np.einsum("mnd,md->mn", dfi, s.b_normals[active])
        res[active] = np.linalg.norm(s.b_ztrace[active] - target, axis=-1)
    return s.b_points, res

"""Verification of the optimality conditions of the relaxed functional.

A field u minimizes the relaxed functional exactly when a dual certificate
field z and its boundary multiplier satisfy four conditions.  Each becomes
a nonnegative residual with an aggregate ``l1``, a largest value ``sup``
and the ``worst_location`` of that value:

  r_div       the Euler-Lagrange balance  div z = lambda (u - h) + g
  r_subdiff   z in the xi-subdifferential of f at grad u (Fenchel-Young gap)
  r_range     z inside the closed dual range
  r_boundary  [z, nu] (u0 - u) = f^inf(x, (u0 - u) tensor nu) on the boundary

On a grid (a ProblemSpec with solver fields) the report is the duality gap
of ``solver.duality_gap`` split into its local Fenchel-Young terms, the
``DualityGap.terms`` that sum to it, at the dual point the gap used: the
given (z, zeta), zeta = 0 when none is given, or ``repair_dual``'s.
r_subdiff and r_div have one term per inside cell, r_boundary one per
boundary face; each ``l1`` is that share of the gap, and r_range, the
feasibility of the dual, must be exact.  A pass at ``tol`` thus proves
gap <= 3 tol.  The r_div terms are >= 0 only where |u| <= M, the spec's
``box_bound``; its note counts the cells outside the box.  A
``DualityGap.conditional`` gap (the box is not known to hold a minimizer
and u leaves it) fails r_div whatever its l1: it bounds only the
box-constrained problem.

Analytic mode samples closed-form reference fields on quadrature points of
the shape (no grid), which is how the gallery's explicit counterexample
certificates are checked to 1e-8 and better.  Each residual is then a
pointwise defect integrated against the quadrature weights, and r_range
the measure of interior samples where f*(z) is infinite.  Every check
draws the same ``analytic_samples``: 9,500 interior and 500 boundary
points of the uniform quadrature, plus the case's refinement clusters.

``verify_scalar``, ``verify_vector`` and ``verify_least_gradient`` differ
only in the problems they accept; all three return this one report with
the keys above, in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .energy import ProblemSpec, _cell_values
from .errors import ShapeMismatchError
from .geometry import _central_divergence, _shape_quadrature
from .integrands import Integrand
from .solver import duality_gap

__all__ = [
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
# Analytic samples and their residuals
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
    k = int(np.argmax(per_sample))
    sup = float(per_sample[k])
    loc = tuple(np.atleast_1d(locations[k]).tolist())
    return ConditionResidual(name, l1, sup, loc, tol, bool(l1 <= tol), note)


# relative shrink of z before r_range tests the conjugate for finiteness
_RANGE_TOL = 1e-8
# |u0 - u| above which a boundary face counts in the gradient condition
_ACTIVE_TOL = 1e-9
# interior and boundary points of the uniform quadrature of every check
_N_INTERIOR, _N_BOUNDARY = 9500, 500


def _score(f: Integrand, s: _Samples, tol: float) -> CertificateReport:
    conds = {}

    # r_div
    el = s.div_z - (s.lam[:, None] * (s.u - s.h) + s.g)
    per = np.sum(np.abs(el), axis=-1)
    conds["r_div"] = _agg("r_div", per, s.vol_w, s.points, tol)

    # r_subdiff
    res = np.maximum(f.subdiff_residual(s.points, s.grad_u, s.z), 0.0)
    conds["r_subdiff"] = _agg("r_subdiff", res, s.vol_w, s.points, tol)

    # r_range via conjugate finiteness after a relative shrink
    fmax = 10.0 * f.growth_constant**2
    conj = f.conjugate(s.points, s.z / (1.0 + _RANGE_TOL))
    bad = (~np.isfinite(conj)) | (conj > fmax)
    conds["r_range"] = _agg("r_range", bad.astype(float), s.vol_w,
                            s.points, tol)

    # r_boundary
    jumps = s.b_u0 - s.b_u
    mats = jumps[:, :, None] * s.b_normals[:, None, :]
    fin = f.recession(s.b_points, mats)
    pair = np.sum(s.b_ztrace * jumps, axis=-1)
    per = np.abs(pair - fin)
    conds["r_boundary"] = _agg("r_boundary", per, s.b_w, s.b_points, tol)

    overall = all(c.passed for c in conds.values())
    return CertificateReport(conds, overall)


# ---------------------------------------------------------------------------
# Grid mode
# ---------------------------------------------------------------------------


def _grid_report(spec: ProblemSpec, u, z, zeta,
                 tol: float) -> CertificateReport:
    """The duality gap of (u; z, zeta) split by location (module docstring)."""
    domain = spec.domain
    bf, M = domain.boundary_faces, spec.box_bound
    u = _cell_values(domain, u, spec.n_channels)
    if zeta is None:
        zeta = np.zeros((len(bf), spec.n_channels))
    dg = duality_gap(spec, u, z, zeta)
    cell, face, lower = dg.terms
    dual = "repaired dual" if dg.repaired else "given dual"
    outside = int(np.sum(np.any(np.abs(u) > M, axis=1)))
    # an infeasible z or zeta makes its cell or face term infinite
    bad = np.concatenate([~np.isfinite(cell), ~np.isfinite(face)])
    r_div = _agg("r_div", lower, 1.0, domain.points, tol,
                 f"{dual}, {outside} cells outside |u| <= M = {M:.6g}")
    if dg.conditional:
        r_div.passed = False
    conds = {
        "r_div": r_div,
        "r_subdiff": _agg("r_subdiff", cell, 1.0, domain.points, tol, dual),
        "r_range": _agg("r_range", bad.astype(float), np.concatenate(
            [np.full(len(cell), domain.cell_volume), bf.weight]),
            np.concatenate([domain.points, bf.point]), 0.0,
            "measure where z or zeta is infeasible"),
        "r_boundary": _agg("r_boundary", face, 1.0, bf.point, tol, dual),
    }
    return CertificateReport(conds, all(c.passed for c in conds.values()))


# ---------------------------------------------------------------------------
# Analytic mode
# ---------------------------------------------------------------------------


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
    extra_interior: Optional[tuple] = None
    extra_boundary: Optional[tuple] = None

    def _div_z(self, pts):
        if self.div_z is not None:
            out = np.asarray(self.div_z(pts), dtype=float)
            return out[:, None] if out.ndim == 1 else out
        return _central_divergence(lambda p: np.asarray(self.z(p)), pts,
                                   1e-5 * self.shape.diameter)


def analytic_samples(case: AnalyticCase) -> _Samples:
    """The case's fields on the quadrature every analytic check uses."""
    n = case.integrand.n_rows
    pts, w, bp, bw, bn = _shape_quadrature(case.shape, _N_INTERIOR,
                                           _N_BOUNDARY)
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


def _report(spec_or_case, u, z, zeta, tol):
    if isinstance(spec_or_case, AnalyticCase):
        return _score(spec_or_case.integrand, analytic_samples(spec_or_case),
                      tol)
    return _grid_report(spec_or_case, u, z, zeta, tol)


def verify_scalar(spec_or_case, u=None, z=None, tol: float = 1e-6,
                  zeta=None) -> CertificateReport:
    """Scalar certificate check; accepts a grid spec with fields or an
    AnalyticCase.  Each condition passes when its l1 is at most ``tol``."""
    if spec_or_case.integrand.n_rows != 1:
        raise ShapeMismatchError("verify_scalar requires a scalar problem")
    return _report(spec_or_case, u, z, zeta, tol)


def verify_vector(spec_or_case, u=None, z=None, tol: float = 1e-6,
                  zeta=None) -> CertificateReport:
    """Vectorial certificate check (autonomous integrands only for n > 1)."""
    f = spec_or_case.integrand
    if f.n_rows > 1 and f.x_dependent:
        raise ShapeMismatchError(
            "the vectorial characterization requires an autonomous integrand"
        )
    return _report(spec_or_case, u, z, zeta, tol)


def verify_least_gradient(spec_or_case, u=None, z=None, tol: float = 1e-6,
                          zeta=None) -> CertificateReport:
    """Least-gradient certificate: the report of ``verify_scalar`` for the
    TV integrand with g = lambda = 0, where the four conditions read

      r_range     |z| <= 1
      r_div       div z = 0
      r_subdiff   (z, Du) = |Du|
      r_boundary  [z, nu] (u0 - u) = |u0 - u|, i.e. [z, nu] in sgn(u0 - u)

    In analytic mode r_range tests |z| <= 1 on interior samples only, so
    the trace bound |[z, nu]| <= 1 goes unchecked at boundary samples
    where u meets the datum (there r_boundary vanishes whatever [z, nu]
    is).  Raises ``ShapeMismatchError`` for any other integrand and for
    nonzero g or lambda.
    """
    f = spec_or_case.integrand
    if f.n_rows != 1 or abs(f.growth_constant - 1.0) > 0 or not f.homogeneous:
        raise ShapeMismatchError("least-gradient check requires the TV integrand")
    analytic = isinstance(spec_or_case, AnalyticCase)
    if analytic:
        s = analytic_samples(spec_or_case)
        lam, g = s.lam, s.g
    else:
        lam, g = spec_or_case.lam, spec_or_case.g
    if np.any(lam != 0) or np.any(g != 0):
        raise ShapeMismatchError("least-gradient check requires g = h = lambda = 0")
    if analytic:
        return _score(f, s, tol)
    return _grid_report(spec_or_case, u, z, zeta, tol)


def boundary_gradient_condition(case: AnalyticCase):
    """Per-sample residual of the normal-trace gradient condition.

    Where the trace misses the datum, [z, nu] must equal
    D_xi f^inf(x, (u0 - u) tensor nu) nu; samples with u = u0 contribute 0.
    Returns (points, residuals).  Analytic cases only; on a grid the
    boundary condition is r_boundary of ``verify_scalar``.
    """
    if not isinstance(case, AnalyticCase):
        raise ShapeMismatchError("boundary_gradient_condition needs an AnalyticCase")
    f, s = case.integrand, analytic_samples(case)
    jumps = s.b_u0 - s.b_u
    active = np.linalg.norm(jumps, axis=-1) > _ACTIVE_TOL
    res = np.zeros(len(s.b_points))
    if np.any(active):
        mats = jumps[active][:, :, None] * s.b_normals[active][:, None, :]
        dfi = f.recession_gradient(s.b_points[active], mats)
        target = np.einsum("mnd,md->mn", dfi, s.b_normals[active])
        res[active] = np.linalg.norm(s.b_ztrace[active] - target, axis=-1)
    return s.b_points, res

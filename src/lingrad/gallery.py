"""Ready-to-run example problems with analytic reference certificates.

Every explicit example and counterexample this package reproduces is
packaged here as a GalleryCase: problem data, optional closed-form
reference fields (u, z), and the expected outcome (attainment or not,
energy value, which certificate must pass).  The cases:

  annulus_least_gradient     TV on B2 minus B1, datum 1 inner / 0 outer;
                             the minimizer is 0, the datum is lost on the
                             negatively curved inner loop, infimum 2 pi.
  rof_annulus_counterexample TV + quadratic fit on B1 minus B_1/2 with
                             datum 4/(3r) - 4/3; u = 0 is certified optimal
                             and misses the datum at r = 1/2.
  rof_ball_counterexample    radial d = 3 family u = 2t/|x| showing the
                             curvature bound on the fit weight is sharp.
  weighted_tv_1d             a(x)|u'| on (0, 1) with endpoint data -1, 1
                             and source g = a'(x): u = 0 certified by
                             z = a(x); both endpoint curvatures positive.
  disk_bv_attainment         TV on the disk with a half-circle indicator
                             datum: trace attained under refinement, energy
                             approaches the chord length 2.
  build_bad_f0 / anisotropic_counterexample
                             the smooth anisotropic norm on 2x2 matrices
                             whose gradient locks onto rank-one lines,
                             giving smooth non-attainment on the unit disk
                             for a smooth vectorial datum.

The bad-f0 norm is built from its dual: f0*(x) = sqrt(Ax.x + q(x)) where
q is the 2-homogeneous extension of a cutoff of 2 x21^2 x22 / x11 around
+-e1 tensor e1 (bump equal to 1 within 10 eps, supported within 20 eps on
the sphere), and f0 is recovered pointwise by Newton inversion of the
gradient map of f0*^2 / 2.

The counterexample's certificate needs no inversion.  Inside the cone
|v2| < eps |v1|, D f0(v x v) = v1 (v x e1) / f0(v x v), and Euler's
relation f0(X) = <D f0(X), X> (f0 is 1-homogeneous) gives f0(v x v) =
|v1| |v|.  At the boundary point v = (c, x2), c = sqrt(1 - x2^2), this is
D f0(v x v) = (c, x2) x e1.  r_boundary compares that closed form with
the Newton-evaluated f0(u0 x nu): an independent check of the inversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .certificate import AnalyticCase
from .energy import ProblemSpec
from .errors import DomainError, ProxFailureError
from .geometry import Annulus, Ball, GridDomain, Interval
from .integrands import Integrand, make_tv, make_weighted_tv

__all__ = [
    "Expected",
    "GalleryCase",
    "BadF0",
    "annulus_least_gradient",
    "rof_annulus_counterexample",
    "rof_ball_counterexample",
    "weighted_tv_1d",
    "disk_bv_attainment",
    "build_bad_f0",
    "check_bad_grad",
    "anisotropic_counterexample",
    "case_names",
    "get_case",
]


@dataclass
class Expected:
    """Structured expected outcome of a gallery case."""

    attainment: Optional[bool] = None
    energy: Optional[float] = None
    energy_rtol: float = 0.05
    certificate: Optional[str] = None   # scalar | vector | least_gradient
    certificate_tol: float = 1e-6
    note: str = ""


@dataclass
class GalleryCase:
    name: str
    expected: Expected
    analytic: Optional[AnalyticCase] = None
    spec_builder: Optional[Callable] = None   # nx -> ProblemSpec
    default_nx: int = 96

    def build_spec(self, nx: Optional[int] = None) -> ProblemSpec:
        if self.spec_builder is None:
            raise DomainError(f"case {self.name} has no grid form")
        return self.spec_builder(nx or self.default_nx)

    def verify_reference(self, tol: Optional[float] = None):
        """Run the matching certificate verifier on the reference fields."""
        from . import certificate as C

        if self.analytic is None:
            raise DomainError(f"case {self.name} ships no reference fields")
        tol = tol if tol is not None else self.expected.certificate_tol
        kind = self.expected.certificate or "scalar"
        fn = {
            "scalar": C.verify_scalar,
            "vector": C.verify_vector,
            "least_gradient": C.verify_least_gradient,
        }[kind]
        return fn(self.analytic, tol=tol)


# ---------------------------------------------------------------------------
# Scalar cases
# ---------------------------------------------------------------------------


def _zeros_u(p):
    return np.zeros(p.shape[0])


def _zeros_grad(d):
    def fn(p):
        return np.zeros((p.shape[0], 1, d))
    return fn


def annulus_least_gradient() -> GalleryCase:
    """Least gradient on B2 minus B1 with datum 1 inside / 0 outside."""
    tv = make_tv(1, 2)
    shape = Annulus(1.0, 2.0)

    def u0(p):
        return (np.linalg.norm(p, axis=-1) < 1.5).astype(float)

    def z(p):
        r2 = np.sum(p * p, axis=-1, keepdims=True)
        return (-p / r2)[:, None, :]

    analytic = AnalyticCase(
        integrand=tv, shape=shape, u0=u0, u=_zeros_u,
        grad_u=_zeros_grad(2), z=z,
        div_z=lambda p: np.zeros(p.shape[0]),
    )

    def build(nx):
        domain = GridDomain(shape, nx)
        vals = u0(domain.boundary_faces.point)
        return ProblemSpec(make_tv(1, 2), domain, vals)

    return GalleryCase(
        name="annulus_least_gradient",
        expected=Expected(
            attainment=False, energy=2 * np.pi, energy_rtol=0.02,
            certificate="least_gradient", certificate_tol=1e-8,
            note="minimizer 0; infimum = perimeter of the inner circle",
        ),
        analytic=analytic, spec_builder=build, default_nx=96,
    )


def rof_annulus_counterexample() -> GalleryCase:
    """Quadratic-fit TV on B1 minus B_1/2: datum lost on the inner loop."""
    tv = make_tv(1, 2)
    shape = Annulus(0.5, 1.0)

    def hbar(p):
        r = np.linalg.norm(p, axis=-1)
        return 4.0 / (3.0 * r) - 4.0 / 3.0

    def z(p):
        r = np.linalg.norm(p, axis=-1, keepdims=True)
        return ((2.0 / 3.0) * p - (4.0 / 3.0) * p / r)[:, None, :]

    analytic = AnalyticCase(
        integrand=tv, shape=shape, u0=hbar, u=_zeros_u,
        grad_u=_zeros_grad(2), z=z,
        div_z=lambda p: 4.0 / 3.0 - 4.0 / (3.0 * np.linalg.norm(p, axis=-1)),
        h=hbar, lam=lambda p: np.ones(p.shape[0]),
    )

    def build(nx):
        domain = GridDomain(shape, nx)
        points = domain.points
        return ProblemSpec(make_tv(1, 2), domain,
                           hbar(domain.boundary_faces.point),
                           h=hbar(points), lam=np.ones(len(points)))

    return GalleryCase(
        name="rof_annulus",
        expected=Expected(
            attainment=False, certificate="scalar", certificate_tol=1e-8,
            note="reference pair u = 0, z = (2/3)x - (4/3)x/|x|",
        ),
        analytic=analytic, spec_builder=build, default_nx=96,
    )


def rof_ball_counterexample(t: float = 1.0) -> GalleryCase:
    """Radial d = 3 family: datum 0, fit weight too large, u = 2t/|x|."""
    if t <= 0:
        raise ValueError("t must be positive")
    tv = make_tv(1, 3)
    shape = Ball(1.0, 3)

    def u(p):
        return 2.0 * t / np.linalg.norm(p, axis=-1)

    def grad_u(p):
        r = np.linalg.norm(p, axis=-1, keepdims=True)
        return (-2.0 * t * p / r**3)[:, None, :]

    def hb(p):
        return (1.0 + t) * 2.0 / np.linalg.norm(p, axis=-1)

    def z(p):
        r = np.linalg.norm(p, axis=-1, keepdims=True)
        return (-p / r)[:, None, :]

    analytic = AnalyticCase(
        integrand=tv, shape=shape,
        u0=lambda p: np.zeros(p.shape[0]),
        u=u, grad_u=grad_u, z=z,
        div_z=lambda p: -2.0 / np.linalg.norm(p, axis=-1),
        h=hb, lam=lambda p: np.ones(p.shape[0]),
    )
    return GalleryCase(
        name="rof_ball",
        expected=Expected(
            attainment=False, certificate="scalar", certificate_tol=1e-8,
            note="radial certificate z = -x/|x|; no grid form",
        ),
        analytic=analytic, spec_builder=None,
    )


def _default_weight():
    a = lambda x: 2.0 - np.sin(np.pi * np.asarray(x))
    a_prime = lambda x: -np.pi * np.cos(np.pi * np.asarray(x))
    return a, a_prime


def weighted_tv_1d(a: Optional[Callable] = None,
                   a_prime: Optional[Callable] = None) -> GalleryCase:
    """Weighted TV on (0, 1): endpoint data -1, 1; u = 0 certified by z = a.

    Admissibility is machine-checked: a > 0 on (0, 1), a'(1) > 0 and
    a'(0) < 0, so both generalized endpoint curvatures a'(1) and -a'(0)
    are positive.  The source term is g = a'(x).
    """
    if a is None and a_prime is None:
        a, a_prime = _default_weight()
    if a is None or a_prime is None:
        raise ValueError("pass both a and a_prime (or neither)")
    xs = np.linspace(0.0, 1.0, 4097)
    vals = np.asarray(a(xs), dtype=float)
    if np.any(vals <= 0):
        raise ValueError("inadmissible weight: a must be positive on [0, 1]")
    ap0 = float(np.asarray(a_prime(0.0)))
    ap1 = float(np.asarray(a_prime(1.0)))
    if ap1 <= 0:
        raise ValueError(
            "inadmissible weight: need a'(1) > 0 (right endpoint curvature)")
    if ap0 >= 0:
        raise ValueError(
            "inadmissible weight: need a'(0) < 0 (left endpoint curvature)")
    a_min, a_max = float(vals.min()), float(vals.max())

    def weight_pts(p):
        return np.asarray(a(np.asarray(p)[..., 0]), dtype=float)

    integrand = make_weighted_tv(weight_pts, d=1, a_bounds=(a_min, a_max))
    shape = Interval(0.0, 1.0)

    def u0(p):
        return np.where(p[:, 0] > 0.5, 1.0, -1.0)

    def z(p):
        return weight_pts(p)[:, None, None]

    def g_fn(p):
        return np.asarray(a_prime(np.asarray(p)[..., 0]), dtype=float)

    analytic = AnalyticCase(
        integrand=integrand, shape=shape, u0=u0, u=_zeros_u,
        grad_u=_zeros_grad(1), z=z,
        div_z=g_fn,
        g=g_fn,
    )

    def build(nx):
        domain = GridDomain(shape, nx)
        return ProblemSpec(integrand, domain, u0(domain.boundary_faces.point),
                           g=g_fn(domain.points))

    return GalleryCase(
        name="weighted_tv_1d",
        expected=Expected(
            attainment=False, certificate="scalar", certificate_tol=1e-10,
            note="endpoint curvatures a'(1) and -a'(0) are both positive, "
                 "but |g| touches them",
        ),
        analytic=analytic, spec_builder=build, default_nx=256,
    )


def disk_bv_attainment() -> GalleryCase:
    """TV on the unit disk with a half-circle indicator datum.

    The boundary has curvature 1 > 0, so the fully discontinuous datum is
    attained; the minimizer is the indicator of the upper half disk and the
    energy approaches the cut length 2.
    """
    shape = Ball(1.0, 2)

    def u0(p):
        return (p[:, 1] > 0).astype(float)

    def build(nx):
        domain = GridDomain(shape, nx)
        return ProblemSpec(make_tv(1, 2), domain, u0(domain.boundary_faces.point))

    return GalleryCase(
        name="disk_bv_attainment",
        expected=Expected(
            attainment=True, energy=2.0, energy_rtol=0.05,
            note="chord of the jump set; trace error must shrink under "
                 "refinement",
        ),
        analytic=None, spec_builder=build, default_nx=96,
    )


# ---------------------------------------------------------------------------
# The anisotropic norm of the vectorial counterexample
# ---------------------------------------------------------------------------

# coordinates on 2x2 matrices, in the order (x11, x21, x12, x22)
_A4 = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 1.0, 0.0],
        [0.0, 1.0, 2.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)
_E11 = np.array([1.0, 0.0, 0.0, 0.0])
# damped Newton inversion of grad(f0*^2 / 2): iteration cap, relative residual
_NEWTON_ITERS = 50
_NEWTON_TOL = 1e-12


def _vec4(mats):
    m = np.asarray(mats, dtype=float)
    return np.stack([m[..., 0, 0], m[..., 1, 0], m[..., 0, 1], m[..., 1, 1]],
                    axis=-1)


def _mat22(vecs):
    v = np.asarray(vecs, dtype=float)
    out = np.empty(v.shape[:-1] + (2, 2))
    out[..., 0, 0] = v[..., 0]
    out[..., 1, 0] = v[..., 1]
    out[..., 0, 1] = v[..., 2]
    out[..., 1, 1] = v[..., 3]
    return out


class BadF0:
    """Smooth anisotropic norm on 2x2 matrices violating the rank-one
    gradient splitting.

    Built from the dual side: f0*(v) = sqrt(A v . v + q(v)) with q the
    2-homogeneous extension of 2 v21^2 v22 / v11 cut off around
    +-e1 tensor e1 (bump = 1 within radius 10 eps on the sphere, support
    within 20 eps; profile (1 - s^2)^3), and f0 the dual norm of f0*,
    evaluated by damped Newton inversion of F = grad(f0*^2 / 2).  Each
    Newton step evaluates F once on all 8 central-difference points of its
    Jacobian and once per line-search trial, and the accepted trial's
    residual is reused as the next step's, so a converged cone point costs
    4 evaluations of the cutoff q (f0* at the start reads q alone, without
    its gradient).  Inside the cone
    |b| < eps |a| the gradient identity

        D f0((a e1 + b e2) x (a e1 + b e2))
            = a (a e1 + b e2) x e1 / f0(...)

    holds exactly, which is what makes the boundary certificate of the
    vectorial counterexample work.
    """

    def __init__(self, eps: float = 1e-2):
        if eps <= 0:
            raise ValueError("eps must be positive")
        if eps > 0.03:
            raise ValueError(
                "eps too large: the dual square loses sampled convexity "
                "(calibrated bound ~3e-2); start from 1e-2")
        self.eps = float(eps)
        self.r_one = 10.0 * self.eps   # bump == 1 within r_one, 0 beyond 2 r_one
        self.A = _A4.copy()
        margin = self.convexity_margin(n_samples=512, seed=11)
        if margin <= 0:
            raise ValueError(
                f"dual square not sampled-convex at eps={eps:g} "
                f"(margin {margin:.2e}); reduce eps")

    # -- the auxiliary 2-homogeneous cutoff function -----------------------

    def _bump(self, s):
        t = (s - self.r_one) / (self.r_one)
        t = np.clip(t, 0.0, 1.0)
        return (1.0 - t * t) ** 3

    def _bump_prime(self, s):
        t = (s - self.r_one) / (self.r_one)
        inside = (t > 0.0) & (t < 1.0)
        tt = np.where(inside, t, 0.0)
        return np.where(inside, -6.0 * tt * (1.0 - tt * tt) ** 2 / self.r_one, 0.0)

    def _cutoff(self, v):
        """q(v) for batched 4-vectors, and the cutoff state Dq chains through.

        The state is (v, y, safe_r, use_minus, s, w, active, va, base): the
        float input, its direction and clamped norm, which pole is nearer,
        the sphere distance s to it, the bump w(s), the rows where w > 0,
        those rows and 2 v21^2 v22 / v11 on them.
        """
        v = np.asarray(v, dtype=float)
        r = np.linalg.norm(v, axis=-1, keepdims=True)
        safe_r = np.maximum(r, 1e-300)
        y = v / safe_r
        # distance on the sphere to the nearer of +-e1 tensor e1
        dp = np.linalg.norm(y - _E11, axis=-1)
        dm = np.linalg.norm(y + _E11, axis=-1)
        use_minus = dm < dp
        s = np.where(use_minus, dm, dp)
        w = self._bump(s)
        active = w > 0.0

        va = v[active]
        base = 2.0 * va[..., 1] * va[..., 1] * va[..., 3] / va[..., 0]
        q = np.zeros(v.shape[:-1])
        q[active] = base * w[active]
        return q, (v, y, safe_r, use_minus, s, w, active, va, base)

    def _q_and_grad(self, v):
        """q(v) and Dq(v) for batched 4-vectors; exact where the bump is flat."""
        q, (v, y, safe_r, use_minus, s, w, active, va, base) = self._cutoff(v)
        grad = np.zeros_like(v)
        if not np.any(active):
            return q, grad

        v0, v1, v3 = va[..., 0], va[..., 1], va[..., 3]
        dbase = np.stack(
            [-2.0 * v1 * v1 * v3 / (v0 * v0),
             4.0 * v1 * v3 / v0,
             np.zeros_like(v0),
             2.0 * v1 * v1 / v0],
            axis=-1,
        )
        wa = w[active]

        # gradient of the cutoff: chain through s(y(v)); zero on the plateau
        bp = self._bump_prime(s[active])
        sliding = bp != 0.0
        gw = np.zeros_like(va)
        if np.any(sliding):
            ya = y[active][sliding]
            ra = safe_r[active][:, 0][sliding]
            sign = np.where(use_minus[active][sliding], 1.0, -1.0)
            e_eff = -sign[:, None] * _E11  # y - e for plus branch, y + e for minus
            diff = ya + e_eff
            dn = diff / np.linalg.norm(diff, axis=-1, keepdims=True)
            proj = dn - ya * np.sum(dn * ya, axis=-1, keepdims=True)
            gw[sliding] = bp[sliding][:, None] * proj / ra[:, None]
        grad[active] = dbase * wa[..., None] + base[..., None] * gw
        return q, grad

    # -- dual norm and its gradient map ------------------------------------

    def conj_value(self, mats):
        """f0*(x) = sqrt(A x . x + q(x)) on 2x2 matrices (batched); reads q
        only, not its gradient."""
        v = _vec4(mats)
        q = self._cutoff(v)[0]
        quad = np.einsum("...i,ij,...j->...", v, self.A, v)
        return np.sqrt(np.maximum(quad + q, 0.0))

    def _grad_half_conj_sq(self, v):
        """F(v) = grad of f0*^2 / 2 = A v + Dq(v) / 2, batched on 4-vectors."""
        _, gq = self._q_and_grad(v)
        return v @ self.A.T + 0.5 * gq

    def _invert_gradient(self, targets):
        """Solve F(xi) = target by damped Newton with FD Jacobians, batched.

        A Newton step evaluates F once for its central-difference Jacobian,
        on the 8 points xi +- step e_j of every row together, and once per
        line-search trial.  The accepted trial's residual is the next
        step's; F is evaluated again only when all 30 halvings fail.
        """
        t = np.asarray(targets, dtype=float)
        single = t.ndim == 1
        t = np.atleast_2d(t)
        norm_t = np.linalg.norm(t, axis=-1, keepdims=True)
        fstar = self.conj_value(_mat22(t))[..., None]
        xi = t / np.maximum(fstar, 1e-300)
        xi = np.where(norm_t > 0, xi, 0.0)
        res = self._grad_half_conj_sq(xi) - t
        for _ in range(_NEWTON_ITERS):
            rmax = np.max(np.abs(res) / np.maximum(norm_t, 1e-300))
            if rmax < _NEWTON_TOL:
                break
            # FD Jacobian: J[..., i, j] = dF_i / dxi_j, from F at xi +- step e_j
            step = 1e-7 * np.maximum(np.linalg.norm(xi, axis=-1, keepdims=True), 1.0)
            dxi = step[..., None] * np.eye(4)  # row j is step e_j
            pm = np.concatenate([xi[..., None, :] + dxi, xi[..., None, :] - dxi],
                                axis=-2)
            fpm = self._grad_half_conj_sq(pm.reshape(-1, 4)).reshape(pm.shape)
            J = np.swapaxes((fpm[..., :4, :] - fpm[..., 4:, :])
                            / (2.0 * step[..., None]), -1, -2)
            try:
                delta = np.linalg.solve(J, res[..., None])[..., 0]
            except np.linalg.LinAlgError:
                raise ProxFailureError(
                    "Newton inversion hit a singular Jacobian; reduce eps")
            # damped update: halve until the residual does not increase
            lam = np.ones(xi.shape[:-1] + (1,))
            res_norm = np.linalg.norm(res, axis=-1, keepdims=True)
            for _ in range(30):
                cand = xi - lam * delta
                rc = self._grad_half_conj_sq(cand) - t
                worse = np.linalg.norm(rc, axis=-1, keepdims=True) > res_norm
                if not np.any(worse):
                    xi, res = cand, rc
                    break
                lam = np.where(worse, 0.5 * lam, lam)
            else:
                # lam moved after the last trial: take the step it now gives
                xi = xi - lam * delta
                res = self._grad_half_conj_sq(xi) - t
        else:
            rmax = np.max(np.abs(res) / np.maximum(norm_t, 1e-300))
            if rmax >= 1e-8:
                raise ProxFailureError(
                    f"gradient inversion stalled (residual {rmax:.1e}); "
                    "try a smaller eps")
        return xi[0] if single else xi

    def _value_and_grad(self, x):
        """f0(x) and D f0(x) (2x2) at nonzero 4-vectors x (m, 4), from one
        inversion p = F^-1(x) = D(f0^2 / 2)(x): f0^2 = <p, x>, D f0 = p / f0."""
        p = self._invert_gradient(x)
        f0 = np.sqrt(np.maximum(np.sum(p * x, axis=-1), 0.0))
        return f0, _mat22(p / f0[..., None])

    def value(self, mats):
        """f0(x), the dual norm of f0*, batched over 2x2 matrices."""
        x = _vec4(mats)
        single = x.ndim == 1
        x = np.atleast_2d(x)
        nz = np.linalg.norm(x, axis=-1) > 0
        out = np.zeros(x.shape[0])
        if np.any(nz):
            out[nz] = self._value_and_grad(x[nz])[0]
        return float(out[0]) if single else out

    def grad(self, mats):
        """D f0(x) for x != 0, batched over 2x2 matrices."""
        x = _vec4(mats)
        single = x.ndim == 1
        x = np.atleast_2d(x)
        if np.any(np.linalg.norm(x, axis=-1) == 0):
            raise DomainError("gradient of a norm is undefined at 0")
        g = self._value_and_grad(x)[1]
        return g[0] if single else g

    def convexity_margin(self, n_samples: int = 1024, seed: int = 0,
                         t: float = 1e-3) -> float:
        """Smallest sampled second difference of f0*^2 (uniform convexity check)."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n_samples, 4))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        v = rng.standard_normal((n_samples, 4))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)

        def f2(w):
            return self.conj_value(_mat22(w)) ** 2

        second = (f2(x + t * v) + f2(x - t * v) - 2.0 * f2(x)) / (t * t)
        return float(second.min())

    def integrand(self) -> Integrand:
        """Wrap as an Integrand (n = 2, d = 2); conjugate is the dual-ball test.

        The dual range {f0* <= 1} is not a ball, so there is no closed-form
        prox and no ``dual_radius``: the integrand serves energies and
        certificates, and ``solve`` rejects it.
        """
        bad = self

        def value(x, xi):
            flat = xi.reshape(-1, 2, 2)
            return bad.value(flat).reshape(xi.shape[:-2])

        def gradient(x, xi):
            flat = xi.reshape(-1, 2, 2)
            return bad.grad(flat).reshape(xi.shape)

        def conjugate(x, z):
            flat = z.reshape(-1, 2, 2)
            # dual-ball membership with a small numerical slack: gradients of
            # f0 land exactly on the dual sphere in exact arithmetic
            val = bad.conj_value(flat).reshape(z.shape[:-2])
            return np.where(val <= 1.0 + 1e-9, 0.0, np.inf)

        # growth constant sampled on the sphere with a safety factor
        rng = np.random.default_rng(5)
        sph = rng.standard_normal((512, 4))
        sph /= np.linalg.norm(sph, axis=-1, keepdims=True)
        vals = bad.value(_mat22(sph))
        growth = 1.05 * max(float(vals.max()), 1.0 / float(vals.min()))

        return Integrand(
            2, 2,
            name=f"bad_f0:{bad.eps:g}",
            growth_constant=growth,
            homogeneous=True,
            value=value,
            gradient=gradient,
            recession_value=value,
            recession_gradient=gradient,
            conjugate=conjugate,
        )

    @staticmethod
    def estimate_eps_max(lo: float = 1e-2, hi: float = 0.3,
                         steps: int = 8) -> float:
        """Empirical largest eps keeping the dual square sampled-convex."""
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            trial = BadF0.__new__(BadF0)
            trial.eps = mid
            trial.r_one = 10.0 * mid
            trial.A = _A4.copy()
            if trial.convexity_margin(256, seed=2) > 0:
                lo = mid
            else:
                hi = mid
        return lo


def build_bad_f0(eps: float = 1e-2) -> BadF0:
    """Construct the anisotropic counterexample norm at cone half-width eps."""
    return BadF0(eps)


def check_bad_grad(f0: BadF0, a: float, b: float) -> float:
    """Residual of the rank-one gradient identity inside the cone |b| < eps/2 |a|."""
    if not (0 <= abs(b) < 0.5 * f0.eps * abs(a)):
        raise DomainError("(a, b) outside the cone |b| < (eps/2) |a|")
    vec = np.array([a, b])
    value, g = f0._value_and_grad(_vec4(np.outer(vec, vec))[None])
    target = a * np.outer(vec, [1.0, 0.0]) / value[0]
    return float(np.linalg.norm(g[0] - target))


def anisotropic_counterexample(f0: Optional[BadF0] = None) -> GalleryCase:
    """Smooth vectorial non-attainment on the unit disk.

    The datum u0(x) = 1_{x1 > 0} eta(x2) x is smooth on the circle (eta is
    a bump of width < eps/4 around 0), yet u = 0 is a minimizer: the
    divergence-free certificate z(x) = etabar(x2) (c, x2) x e1, with
    c = sqrt(1 - x2^2), satisfies every optimality condition.  It is the
    closed form of the rank-one gradient identity (module docstring) on
    the support |x2| <= eps/4 of etabar, well inside the cone.
    """
    f0 = f0 or build_bad_f0()
    eps = f0.eps
    fint = f0.integrand()
    shape = Ball(1.0, 2)
    w_eta = eps / 8.0     # eta support half-width (< eps/4 total width)
    w_bar = eps / 4.0     # etabar support half-width

    def eta(s):
        t = np.clip(np.abs(s) / w_eta, 0.0, 1.0)
        return (1.0 - t * t) ** 3

    def eta_bar(s):
        t = np.clip((np.abs(s) - w_eta) / (w_bar - w_eta), 0.0, 1.0)
        return (1.0 - t * t) ** 3

    def u0(p):
        s = p[:, 1]
        amp = np.where(p[:, 0] > 0, eta(s), 0.0)
        return amp[:, None] * p

    def z(p):
        s = p[:, 1]
        col = eta_bar(s)[:, None] * np.stack(
            [np.sqrt(np.maximum(0.0, 1.0 - s * s)), s], axis=-1)
        return np.stack([col, np.zeros_like(col)], axis=-1)

    # the data live on a strip of half-width eps/4; the uniform quadrature
    # cannot resolve it, so refinement clusters carry the actual checks
    th = np.linspace(-0.75 * eps, 0.75 * eps, 384)
    arc_w = np.full(th.size, (th[-1] - th[0]) / th.size)
    b_extra = np.stack([np.cos(th), np.sin(th)], axis=-1)
    x2 = np.linspace(-w_bar * 1.2, w_bar * 1.2, 33)
    x1 = np.linspace(-0.95, 0.95, 97)
    gx, gy = np.meshgrid(x1, x2, indexing="ij")
    strip = np.stack([gx.ravel(), gy.ravel()], axis=-1)
    strip_w = np.full(strip.shape[0],
                      (x1[1] - x1[0]) * (x2[1] - x2[0]))

    analytic = AnalyticCase(
        integrand=fint, shape=shape, u0=u0,
        u=lambda p: np.zeros((p.shape[0], 2)),
        grad_u=lambda p: np.zeros((p.shape[0], 2, 2)),
        z=z,
        extra_interior=(strip, strip_w),
        extra_boundary=(b_extra, arc_w, b_extra),
    )
    return GalleryCase(
        name="anisotropic_counterexample",
        expected=Expected(
            attainment=False, certificate="vector", certificate_tol=1e-6,
            note="smooth datum, smooth integrand, u = 0 minimizer",
        ),
        analytic=analytic, spec_builder=None,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_CASES = {
    "annulus_least_gradient": annulus_least_gradient,
    "rof_annulus": rof_annulus_counterexample,
    "rof_ball": rof_ball_counterexample,
    "weighted_tv_1d": weighted_tv_1d,
    "disk_bv_attainment": disk_bv_attainment,
    "anisotropic_counterexample": anisotropic_counterexample,
}


def case_names():
    return sorted(_CASES)


def get_case(name: str, **kwargs) -> GalleryCase:
    try:
        ctor = _CASES[name]
    except KeyError:
        raise KeyError(f"unknown gallery case {name!r}; "
                       f"known: {', '.join(case_names())}") from None
    return ctor(**kwargs)

"""Convex integrands with linear growth.

An integrand f(x, xi) maps a spatial point x and an n-by-d matrix xi to a
real value, is convex in xi, and satisfies the two-sided growth bound

    (1/C) |xi| - C  <=  f(x, xi)  <=  C (|xi| + 1)

with a single constant C (``growth_constant``).  Alongside the value we
track the objects convex duality attaches to such an f: the recession
function (the 1-homogeneous limit of f(x, t*xi)/t), its gradient, the
Legendre conjugate f*, and the resolvent (prox) of f*, which is what a
primal-dual solver actually calls.  Every one of them is a closed form
that the integrand is built with; nothing here approximates a missing one.
All evaluators broadcast over leading batch axes; xi always occupies the
trailing (n, d) axes.  For scalar problems (n == 1) a plain d-vector or an
(m, d) batch of them is accepted and promoted; an input with three or more
axes must end in (1, d), so an (m, n, d) field of n channels is rejected
rather than read as m * n scalar gradients.

The conjugate of every integrand in this family is +inf outside the closed
dual range (the closure of the xi-gradient range), which is contained in
the centered ball of radius ``growth_constant``.  Prox outputs therefore
always land in that ball, a fact the solver relies on for dual feasibility.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import (
    DualRangeError,
    ProxFailureError,
    ShapeMismatchError,
    SingularPointError,
)

__all__ = [
    "Integrand",
    "make_tv",
    "make_vector_tv",
    "make_area",
    "make_hencky",
    "make_weighted_tv",
    "calibrate_fenchel_constant",
]

def _fro(xi):
    """Frobenius norm over the trailing (n, d) axes."""
    return np.sqrt(_inner(xi, xi))


def _inner(a, b):
    """Frobenius inner product over the trailing (n, d) axes."""
    return np.einsum("...ij,...ij->...", a, b)


class Integrand:
    """A convex integrand bundle: value, gradient, recession, conjugate, prox.

    An integrand is its closed forms.  ``value``, ``gradient``,
    ``recession_value``, ``recession_gradient`` and ``conjugate`` are
    required keyword arguments, each a callable (x, xi) -> array on
    (..., n, d) batches, and each evaluator calls its own with no
    approximation behind it; energies, certificates and curvature need
    only these five.  ``homogeneous`` declares f = f^inf, which
    ``repair_dual`` and the least-gradient certificate read.  The solver
    also needs ``prox_conjugate`` (the prox of f*) and ``dual_radius``
    (the radius of a ball-shaped dual range), which stay optional.  So
    ``solve`` serves the isotropic family a(x) phi(|xi|), phi convex with
    slope 1 at infinity, whose dual range is the ball of radius a(x); the
    built-in constructors are all of this kind and fill every slot.  The
    anisotropic ``gallery.BadF0`` integrand has neither of the solver's
    slots and serves certificates only.
    """

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        *,
        name: str = "custom",
        x_dependent: bool = False,
        growth_constant: float,
        homogeneous: bool = False,
        value: Callable,
        gradient: Callable,
        recession_value: Callable,
        recession_gradient: Callable,
        conjugate: Callable,
        prox_conjugate: Optional[Callable] = None,
        dual_radius: Optional[Callable] = None,
        fenchel_constant: Optional[float] = None,
    ):
        if n_rows < 1 or n_cols < 1:
            raise ValueError("n_rows and n_cols must be positive")
        if growth_constant <= 0:
            raise ValueError("growth_constant must be positive")
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.name = name
        self.x_dependent = bool(x_dependent)
        self.growth_constant = float(growth_constant)
        self.homogeneous = bool(homogeneous)
        self.fenchel_constant = fenchel_constant
        self._value = value
        self._gradient = gradient
        self._recession_value = recession_value
        self._recession_gradient = recession_gradient
        self._conjugate = conjugate
        self._prox_conjugate = prox_conjugate
        # for ball-shaped dual ranges: callable x -> radius (None otherwise)
        self.dual_radius = dual_radius

    # -- argument normalization ------------------------------------------

    def as_matrix(self, xi) -> np.ndarray:
        """Promote xi to shape (..., n, d), validating dimensions."""
        xi = np.asarray(xi, dtype=float)
        n, d = self.n_rows, self.n_cols
        if xi.ndim >= 2 and xi.shape[-2:] == (n, d):
            out = xi
        elif n == 1 and xi.ndim in (1, 2) and xi.shape[-1] == d:
            out = xi[..., None, :]
        else:
            promoted = f", ({d},) or (m, {d})" if n == 1 else ""
            raise ShapeMismatchError(
                f"expected trailing shape ({n}, {d}){promoted}, got {xi.shape}"
            )
        if not np.all(np.isfinite(out)):
            raise ShapeMismatchError("xi must be finite")
        return out

    def __repr__(self):
        return (
            f"Integrand({self.name!r}, n={self.n_rows}, d={self.n_cols}, "
            f"C={self.growth_constant})"
        )

    # -- primal side ------------------------------------------------------

    def value(self, x, xi):
        """f(x, xi)."""
        return self._value(x, self.as_matrix(xi))

    def gradient(self, x, xi):
        """D_xi f(x, xi).  Raises SingularPointError where undefined."""
        return self._gradient(x, self.as_matrix(xi))

    def recession(self, x, xi):
        """The 1-homogeneous recession value f^inf(x, xi)."""
        return self._recession_value(x, self.as_matrix(xi))

    def recession_gradient(self, x, xi):
        """D_xi f^inf(x, xi) for xi != 0; satisfies <D f^inf, xi> = f^inf."""
        xi = self.as_matrix(xi)
        if np.any(_fro(xi) == 0.0):
            raise SingularPointError("recession gradient undefined at xi = 0")
        return self._recession_gradient(x, xi)

    # -- dual side ---------------------------------------------------------

    def conjugate(self, x, xistar):
        """Legendre transform f*(x, xi*); +inf outside the closed dual range."""
        return self._conjugate(x, self.as_matrix(xistar))

    def prox_conjugate(self, x, zeta, tau):
        """argmin_w  |w - zeta|^2/2 + tau * f*(x, w); lands in the dual range.

        ``solve`` passes zeta as an (N, n, d) view of planar (d, N, n)
        storage, which is not contiguous.  A user prox must not write into
        it, and must return a new writable array, which ``solve`` masks in
        place.  A result computed elementwise from zeta keeps the planar
        layout.
        """
        if tau <= 0:
            raise ValueError("tau must be positive")
        if self._prox_conjugate is None:
            raise ProxFailureError(
                f"integrand {self.name!r} has no closed-form prox of its "
                "conjugate; pass prox_conjugate= to Integrand"
            )
        return self._prox_conjugate(x, self.as_matrix(zeta), tau)

    # -- duality checks -----------------------------------------------------

    def subdiff_residual(self, x, xi, z):
        """Fenchel-Young gap f(x,xi) + f*(x,z) - <z,xi>; zero iff z in the subdifferential."""
        xi = self.as_matrix(xi)
        z = self.as_matrix(z)
        return self.value(x, xi) + self.conjugate(x, z) - _inner(z, xi)

    def in_dual_range(self, x, z, tol: float = 1e-8) -> bool:
        """Whether z lies within relative distance tol of the closed dual range."""
        z = self.as_matrix(z)
        if self.dual_radius is not None:
            r = self.dual_radius(x)
            return bool(np.all(_fro(z) <= np.asarray(r) * (1.0 + tol) + tol * 1e-6))
        val = self.conjugate(x, z / (1.0 + tol))
        return bool(np.all(np.isfinite(val)))

    def quant_fenchel_margin(self, x, v, vstar):
        """Margin of the quantitative Fenchel inequality at a unit direction v.

        Returns <D f^inf(x,v) - v*, v> - C |D f^inf(x,v) - v*|^2 with this
        integrand's calibrated constant C.  Nonnegative return certifies the
        inequality at this sample.
        """
        if self.fenchel_constant is None:
            raise ValueError("integrand has no calibrated Fenchel constant")
        v = self.as_matrix(v)
        vstar = self.as_matrix(vstar)
        if np.any(np.abs(_fro(v) - 1.0) > 1e-8):
            raise ShapeMismatchError("v must be a unit matrix (|v| = 1)")
        if not self.in_dual_range(x, vstar, tol=1e-8):
            raise DualRangeError("vstar lies outside the closed dual range")
        g = self.recession_gradient(x, v)
        diff = g - vstar
        return _inner(diff, v) - self.fenchel_constant * _inner(diff, diff)


def calibrate_fenchel_constant(f: Integrand, n_samples: int = 4096,
                               seed: int = 0, safety: float = 0.9,
                               x=None) -> float:
    """Estimate the quantitative-Fenchel constant by sampling, with a safety factor.

    Samples unit directions v and dual points v* = D f^inf(x, w) for random w,
    and returns safety * inf <Dv - v*, v> / |Dv - v*|^2 over the samples.
    """
    rng = np.random.default_rng(seed)
    shape = (f.n_rows, f.n_cols)
    worst = np.inf
    for _ in range(n_samples):
        v = rng.standard_normal(shape)
        v /= _fro(v[None])[0]
        w = rng.standard_normal(shape)
        w /= _fro(w[None])[0]
        vstar = f.recession_gradient(x, w) * rng.uniform(0.0, 1.0)
        g = f.recession_gradient(x, v)
        diff = g - vstar
        den = float(_inner(diff[None], diff[None])[0])
        if den < 1e-14:
            continue
        num = float(_inner(diff[None], v[None])[0])
        worst = min(worst, num / den)
    if not np.isfinite(worst) or worst <= 0:
        raise ValueError("sampling produced no positive Fenchel ratio")
    return safety * worst


# ---------------------------------------------------------------------------
# Built-in integrands: the isotropic family a(x) phi(|xi|), each with a
# closed-form conjugate and prox.
# ---------------------------------------------------------------------------


def _isotropic(name: str, n: int, d: int, *,
               weight: Optional[Callable] = None, a_bounds=(1.0, 1.0),
               value: Optional[Callable] = None,
               gradient: Optional[Callable] = None,
               conjugate: Optional[Callable] = None,
               prox_scale: Optional[Callable] = None) -> Integrand:
    """An isotropic integrand f(x, xi) = a(x) phi(|xi|).

    phi is convex with slope 1 at infinity, so the recession function is
    a(x)|xi| and the dual range is the ball of radius a(x).  ``weight`` maps
    points to a(x); None means a = 1, and x may then be None.  ``a_bounds``
    = (a_min, a_max) give the growth constant max(a_max, 1/a_min) and the
    Fenchel constant 1/(2 a_max): for |v| = 1 and |v*| <= a,
    <a v - v*, v> >= |a v - v*|^2 / (2 a).

    A family passes its value, gradient and conjugate, and the scalar factor
    of its prox: prox_{tau f*}(x, zeta) = zeta * prox_scale(x, |zeta|, tau).
    Left out, they give phi(t) = t: f is its own recession function, f* the
    indicator of the dual ball, and the prox the projection onto it.
    """
    a_min, a_max = a_bounds

    def radius(x):
        return 1.0 if weight is None else weight(x)

    def norm_value(x, xi):
        return radius(x) * _fro(xi)

    def norm_gradient(x, xi):
        nrm = _fro(xi)
        if np.any(nrm == 0.0):
            raise SingularPointError(
                "norm not differentiable at xi = 0; "
                "use subdiff_residual for set-valued checks"
            )
        if weight is None:
            return xi / nrm[..., None, None]
        return xi * (weight(x) / nrm)[..., None, None]

    def ball_indicator(x, z):
        return np.where(_fro(z) <= radius(x) * (1.0 + 1e-12), 0.0, np.inf)

    def ball_projection(x, s, tau):
        # the floor keeps 0/0 out where a weight vanishes at zeta = 0
        r = radius(x)
        return r / np.maximum(np.maximum(r, 1e-300), s)

    scale = prox_scale or ball_projection

    def prox(x, zeta, tau):
        return zeta * scale(x, _fro(zeta), tau)[..., None, None]

    return Integrand(
        n, d,
        name=name,
        x_dependent=weight is not None,
        growth_constant=max(a_max, 1.0 / a_min),
        homogeneous=value is None,
        value=value or norm_value,
        gradient=gradient or norm_gradient,
        recession_value=norm_value,
        recession_gradient=norm_gradient,
        conjugate=conjugate or ball_indicator,
        prox_conjugate=prox,
        dual_radius=radius,
        fenchel_constant=0.5 / a_max,
    )


def make_tv(n: int = 1, d: int = 2) -> Integrand:
    """Total-variation integrand f(xi) = |xi| (Frobenius norm)."""
    return _isotropic("tv" if n == 1 else f"vector_tv:{n}", n, d)


def make_vector_tv(n: int, d: int = 2) -> Integrand:
    """Vectorial total variation: Frobenius norm on n-by-d gradients."""
    return make_tv(n, d)


def make_area(d: int = 2) -> Integrand:
    """Non-parametric area integrand f(xi) = sqrt(1 + |xi|^2)."""

    def value(x, xi):
        return np.sqrt(1.0 + np.sum(xi * xi, axis=(-2, -1)))

    def gradient(x, xi):
        return xi / value(x, xi)[..., None, None]

    def conjugate(x, z):
        nrm2 = np.sum(z * z, axis=(-2, -1))
        inside = nrm2 <= 1.0 + 1e-12
        return np.where(inside, -np.sqrt(np.maximum(0.0, 1.0 - nrm2)), np.inf)

    def prox_scale(x, s, tau):
        # radial optimality: r + tau * r / sqrt(1 - r^2) = s, which forces
        # r <= s; bisection on [0, min(s, 1)) is branch-free and hits double
        # precision in < 100 steps, relative to s however small it is
        lo = np.zeros_like(s)
        hi = np.minimum(s, 1.0 - 1e-16)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            g = mid + tau * mid / np.sqrt(np.maximum(1e-300, 1.0 - mid * mid))
            took = g < s
            lo = np.where(took, mid, lo)
            hi = np.where(took, hi, mid)
        r = 0.5 * (lo + hi)
        # below |zeta| ~ 1e-154 the norm squares to 0; there
        # r = |zeta| / (1 + tau) to double precision
        return np.where(s > 0, r / np.maximum(s, 1e-300), 1.0 / (1.0 + tau))

    return _isotropic("area", 1, d, value=value, gradient=gradient,
                      conjugate=conjugate, prox_scale=prox_scale)


def make_hencky(d: int = 2) -> Integrand:
    """Linear-growth plasticity integrand: |xi|^2 capped to slope-1 growth.

    This is the convex envelope of min(|xi|^2, |xi|): equal to |xi|^2 up to
    |xi| = 1/2 and to |xi| - 1/4 beyond, with a C^1 match at the splice.
    """

    def value(x, xi):
        nrm = _fro(xi)
        return np.where(nrm <= 0.5, nrm * nrm, nrm - 0.25)

    def gradient(x, xi):
        nrm = _fro(xi)
        safe = np.maximum(nrm, 1e-300)
        scale = np.where(nrm <= 0.5, 2.0, 1.0 / safe)
        return xi * scale[..., None, None]

    def conjugate(x, z):
        nrm2 = np.sum(z * z, axis=(-2, -1))
        return np.where(nrm2 <= 1.0 + 1e-12, 0.25 * nrm2, np.inf)

    def prox_scale(x, s, tau):
        # quadratic-inside-a-ball: shrink, then radial clamp
        r = np.minimum(s / (1.0 + 0.5 * tau), 1.0)
        return r / np.maximum(s, 1e-300)

    return _isotropic("hencky", 1, d, value=value, gradient=gradient,
                      conjugate=conjugate, prox_scale=prox_scale)


_WEIGHT_SAMPLES = 4096  # uniform points of a sample_box that bound a


def make_weighted_tv(a: Callable, d: int = 1, *, a_bounds=None,
                     sample_box=None) -> Integrand:
    """Spatially weighted total variation f(x, xi) = a(x) |xi|.

    ``a`` maps point arrays of shape (..., d) to positive weights.  Bounds on
    a are needed for the growth constant; pass ``a_bounds=(a_min, a_max)`` or
    a ``sample_box`` ((lo, hi) per axis) where 4,096 points estimate them.
    """
    if a_bounds is not None:
        a_min, a_max = float(a_bounds[0]), float(a_bounds[1])
    else:
        if sample_box is None:
            raise ValueError("need a_bounds or sample_box to calibrate the weight")
        rng = np.random.default_rng(7)
        lo = np.asarray([b[0] for b in sample_box], dtype=float)
        hi = np.asarray([b[1] for b in sample_box], dtype=float)
        pts = lo + (hi - lo) * rng.random((_WEIGHT_SAMPLES, d))
        vals = np.asarray(a(pts), dtype=float)
        a_min, a_max = float(vals.min()), float(vals.max())
    if a_min <= 0:
        raise ValueError("weight must be strictly positive")

    def weight(x):
        if x is None:
            raise ValueError("weighted integrand needs the spatial point x")
        return np.asarray(a(np.asarray(x, dtype=float)), dtype=float)

    return _isotropic("weighted_tv", 1, d, weight=weight,
                      a_bounds=(a_min, a_max))

"""Convex integrands with linear growth.

An integrand f(x, xi) maps a spatial point x and an n-by-d matrix xi to a
real value, is convex in xi, and satisfies the two-sided growth bound

    (1/C) |xi| - C  <=  f(x, xi)  <=  C (|xi| + 1)

with a single constant C (``growth_constant``).  Alongside the value we
track the objects convex duality attaches to such an f: the recession
function (the 1-homogeneous limit of f(x, t*xi)/t), its gradient, the
Legendre conjugate f*, and the resolvent (prox) of f*, which is what a
primal-dual solver actually calls.  All evaluators broadcast over leading
batch axes; xi always occupies the trailing (n, d) axes, and for scalar
problems (n == 1) a plain d-vector is accepted and promoted.

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
    RecessionConvergenceError,
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

# t-ladder for the Richardson limit of f(x, t*xi)/t (user integrands only)
_RICHARDSON_T = (2.0**8, 2.0**10, 2.0**12)
_RICHARDSON_RTOL = 1e-6


def _fro(xi):
    """Frobenius norm over the trailing (n, d) axes."""
    return np.sqrt(_inner(xi, xi))


def _inner(a, b):
    """Frobenius inner product over the trailing (n, d) axes."""
    return np.einsum("...ij,...ij->...", a, b)


class Integrand:
    """A convex integrand bundle: value, gradient, recession, conjugate, prox.

    Evaluator slots left as None fall back to generic numerics: Richardson
    extrapolation for the recession function, finite differences for its
    gradient, multi-start projected ascent for the conjugate, and a
    Moreau-decomposition inner solve for the conjugate prox.  Built-in
    constructors fill every slot with closed forms.
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
        gradient: Optional[Callable] = None,
        recession_value: Optional[Callable] = None,
        recession_gradient: Optional[Callable] = None,
        conjugate: Optional[Callable] = None,
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
        elif n == 1 and xi.ndim >= 1 and xi.shape[-1] == d:
            out = xi[..., None, :]
        else:
            raise ShapeMismatchError(
                f"expected trailing shape ({n}, {d}) or ({d},), got {xi.shape}"
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
        xi = self.as_matrix(xi)
        if self._gradient is None:
            return self._fd_gradient(self._value, x, xi)
        return self._gradient(x, xi)

    def recession(self, x, xi):
        """The 1-homogeneous recession value f^inf(x, xi)."""
        xi = self.as_matrix(xi)
        if self.homogeneous:
            return self._value(x, xi)
        if self._recession_value is not None:
            return self._recession_value(x, xi)
        return self._recession_extrapolated(x, xi)

    def recession_gradient(self, x, xi):
        """D_xi f^inf(x, xi) for xi != 0; satisfies <D f^inf, xi> = f^inf."""
        xi = self.as_matrix(xi)
        if np.any(_fro(xi) == 0.0):
            raise SingularPointError("recession gradient undefined at xi = 0")
        if self._recession_gradient is not None:
            return self._recession_gradient(x, xi)
        return self._fd_gradient(lambda xx, m: self.recession(xx, m), x, xi)

    def _recession_extrapolated(self, x, xi):
        # r(t) = f(x, t*xi)/t = A + c t^(-p) with p estimated from the three
        # stated t's (ratio 4 apart); the fitted limit is then validated
        # against a held-out sample at the next t, which is what catches
        # drifts (like log t / t) that a three-point fit alone cannot
        t1, t2, t3 = _RICHARDSON_T
        r1 = np.asarray(self._value(x, t1 * xi) / t1, dtype=float)
        r2 = np.asarray(self._value(x, t2 * xi) / t2, dtype=float)
        r3 = np.asarray(self._value(x, t3 * xi) / t3, dtype=float)
        scale = np.maximum(1.0, np.abs(r3))
        d1 = r1 - r2
        d2 = r2 - r3
        flat = (np.abs(d1) <= 1e-9 * scale) & (np.abs(d2) <= 1e-9 * scale)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(flat, np.inf, d1 / np.where(d2 == 0.0, 1.0, d2))
        decaying = flat | (ratio > 1.01)
        if not np.all(decaying):
            raise RecessionConvergenceError(
                "recession samples do not decay geometrically in t"
            )
        limit = np.where(flat, r3, r3 - d2 / np.where(flat, 1.0, ratio - 1.0))
        r4 = self._value(x, 4.0 * t3 * xi) / (4.0 * t3)
        predicted = np.where(flat, r3, limit + (r3 - limit) / ratio)
        if np.any(np.abs(r4 - predicted) > _RICHARDSON_RTOL * scale):
            raise RecessionConvergenceError(
                "recession extrapolation disagreement exceeds "
                f"{_RICHARDSON_RTOL:g} relative"
            )
        return limit

    @staticmethod
    def _fd_gradient(fun, x, xi, step=None):
        # central differences entry by entry; adequate for smooth evaluators
        if step is None:
            step = 1e-6 * max(1.0, float(np.max(np.abs(xi))))
        flat_batch = xi.reshape(-1, xi.shape[-2], xi.shape[-1])
        grad_flat = np.zeros_like(flat_batch)
        for b in range(flat_batch.shape[0]):
            m = flat_batch[b]
            for i in range(m.shape[0]):
                for j in range(m.shape[1]):
                    mp = m.copy()
                    mm = m.copy()
                    mp[i, j] += step
                    mm[i, j] -= step
                    grad_flat[b, i, j] = (
                        float(fun(x, mp)) - float(fun(x, mm))
                    ) / (2 * step)
        return grad_flat.reshape(xi.shape)

    # -- dual side ---------------------------------------------------------

    def conjugate(self, x, xistar):
        """Legendre transform f*(x, xi*); +inf outside the closed dual range."""
        xistar = self.as_matrix(xistar)
        if self._conjugate is not None:
            return self._conjugate(x, xistar)
        return self._conjugate_by_ascent(x, xistar)

    def _conjugate_by_ascent(self, x, zs):
        # f*(z) is +inf exactly when sup_{|v|=1} <z,v> - f^inf(x,v) > 0;
        # otherwise the sup in the transform is attained and projected
        # gradient ascent from a few directions finds it.
        flat = zs.reshape(-1, self.n_rows, self.n_cols)
        out = np.empty(flat.shape[0])
        rng = np.random.default_rng(12345)
        dirs = rng.standard_normal((8, self.n_rows, self.n_cols))
        dirs /= _fro(dirs)[:, None, None]
        for b, z in enumerate(flat):
            probe = max(
                float(np.sum(z * d)) - float(self.recession(x, d))
                for d in dirs
            )
            if probe > 1e-7:
                out[b] = np.inf
                continue
            best = -np.inf
            for d in dirs:
                xi = d.copy()
                step = 1.0
                for _ in range(200):
                    g = z - self.gradient(x, xi)
                    xi = xi + step * g
                    step *= 0.98
                best = max(best, float(np.sum(z * xi)) - float(self.value(x, xi)))
            out[b] = best
        return out.reshape(zs.shape[:-2])

    def prox_conjugate(self, x, zeta, tau):
        """argmin_w  |w - zeta|^2/2 + tau * f*(x, w); lands in the dual range."""
        if tau <= 0:
            raise ValueError("tau must be positive")
        zeta = self.as_matrix(zeta)
        if self._prox_conjugate is not None:
            return self._prox_conjugate(x, zeta, tau)
        return self._prox_conjugate_moreau(x, zeta, tau)

    def _prox_conjugate_moreau(self, x, zeta, tau):
        # Moreau: prox_{tau f*}(zeta) = zeta - tau * argmin_w |w - zeta/tau|^2/2 + f(w)/tau
        from scipy import optimize

        flat = zeta.reshape(-1, self.n_rows, self.n_cols)
        out = np.empty_like(flat)
        shape = (self.n_rows, self.n_cols)
        for b, zb in enumerate(flat):
            y = zb / tau

            def obj(wv):
                w = wv.reshape(shape)
                return 0.5 * float(np.sum((w - y) ** 2)) + float(self.value(x, w)) / tau

            res = optimize.minimize(obj, y.ravel(), method="Nelder-Mead",
                                    options={"maxiter": 100 * y.size, "xatol": 1e-12,
                                             "fatol": 1e-14})
            if not res.success and res.fun > obj(y.ravel()):
                raise ProxFailureError("inner prox solve did not converge")
            out[b] = zb - tau * res.x.reshape(shape)
        out = out.reshape(zeta.shape)
        if np.any(_fro(out) > self.growth_constant * (1 + 1e-9)):
            raise ProxFailureError("prox output violates the dual range bound")
        return out

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
# Built-in integrands.  Each carries closed-form conjugate and prox.
# ---------------------------------------------------------------------------


def make_tv(n: int = 1, d: int = 2) -> Integrand:
    """Total-variation integrand f(xi) = |xi| (Frobenius norm)."""

    def value(x, xi):
        return _fro(xi)

    def gradient(x, xi):
        nrm = _fro(xi)
        if np.any(nrm == 0.0):
            raise SingularPointError(
                "norm integrand not differentiable at xi = 0; "
                "use subdiff_residual for set-valued checks"
            )
        return xi / nrm[..., None, None]

    def conjugate(x, z):
        nrm = _fro(z)
        return np.where(nrm <= 1.0 + 1e-12, 0.0, np.inf)

    def prox(x, zeta, tau):
        nrm = _fro(zeta)
        scale = 1.0 / np.maximum(1.0, nrm)
        return zeta * scale[..., None, None]

    return Integrand(
        n, d,
        name="tv" if n == 1 else f"vector_tv:{n}",
        growth_constant=1.0,
        homogeneous=True,
        value=value,
        gradient=gradient,
        recession_value=value,
        recession_gradient=gradient,
        conjugate=conjugate,
        prox_conjugate=prox,
        dual_radius=lambda x: 1.0,
        fenchel_constant=0.5,
    )


def make_vector_tv(n: int, d: int = 2) -> Integrand:
    """Vectorial total variation: Frobenius norm on n-by-d gradients."""
    return make_tv(n, d)


def make_area(d: int = 2) -> Integrand:
    """Non-parametric area integrand f(xi) = sqrt(1 + |xi|^2)."""

    def value(x, xi):
        return np.sqrt(1.0 + np.sum(xi * xi, axis=(-2, -1)))

    def gradient(x, xi):
        return xi / value(x, xi)[..., None, None]

    def recession_value(x, xi):
        return _fro(xi)

    def recession_gradient(x, xi):
        nrm = _fro(xi)
        if np.any(nrm == 0.0):
            raise SingularPointError("recession gradient undefined at xi = 0")
        return xi / nrm[..., None, None]

    def conjugate(x, z):
        nrm2 = np.sum(z * z, axis=(-2, -1))
        inside = nrm2 <= 1.0 + 1e-12
        return np.where(inside, -np.sqrt(np.maximum(0.0, 1.0 - nrm2)), np.inf)

    def prox(x, zeta, tau):
        # radial optimality: r + tau * r / sqrt(1 - r^2) = |zeta|; bisection
        # on [0, 1) is branch-free and hits double precision in < 100 steps
        s = _fro(zeta)
        lo = np.zeros_like(s)
        hi = np.full_like(s, 1.0 - 1e-16)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            g = mid + tau * mid / np.sqrt(np.maximum(1e-300, 1.0 - mid * mid))
            took = g < s
            lo = np.where(took, mid, lo)
            hi = np.where(took, hi, mid)
        r = 0.5 * (lo + hi)
        safe = np.maximum(s, 1e-300)
        return zeta * (r / safe)[..., None, None]

    return Integrand(
        1, d,
        name="area",
        growth_constant=1.0,
        homogeneous=False,
        value=value,
        gradient=gradient,
        recession_value=recession_value,
        recession_gradient=recession_gradient,
        conjugate=conjugate,
        prox_conjugate=prox,
        dual_radius=lambda x: 1.0,
        fenchel_constant=0.5,
    )


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

    def recession_value(x, xi):
        return _fro(xi)

    def recession_gradient(x, xi):
        nrm = _fro(xi)
        if np.any(nrm == 0.0):
            raise SingularPointError("recession gradient undefined at xi = 0")
        return xi / nrm[..., None, None]

    def conjugate(x, z):
        nrm2 = np.sum(z * z, axis=(-2, -1))
        return np.where(nrm2 <= 1.0 + 1e-12, 0.25 * nrm2, np.inf)

    def prox(x, zeta, tau):
        # quadratic-inside-a-ball: shrink, then radial clamp
        s = _fro(zeta)
        r = np.minimum(s / (1.0 + 0.5 * tau), 1.0)
        safe = np.maximum(s, 1e-300)
        return zeta * (r / safe)[..., None, None]

    return Integrand(
        1, d,
        name="hencky",
        growth_constant=1.0,
        homogeneous=False,
        value=value,
        gradient=gradient,
        recession_value=recession_value,
        recession_gradient=recession_gradient,
        conjugate=conjugate,
        prox_conjugate=prox,
        dual_radius=lambda x: 1.0,
        fenchel_constant=0.5,
    )


def make_weighted_tv(a: Callable, d: int = 1, *, a_bounds=None,
                     sample_box=None, n_samples: int = 4096) -> Integrand:
    """Spatially weighted total variation f(x, xi) = a(x) |xi|.

    ``a`` maps point arrays of shape (..., d) to positive weights.  Bounds on
    a are needed for the growth constant; pass ``a_bounds=(a_min, a_max)`` or
    a ``sample_box`` ((lo, hi) per axis) over which they are estimated.
    """
    if a_bounds is not None:
        a_min, a_max = float(a_bounds[0]), float(a_bounds[1])
    else:
        if sample_box is None:
            raise ValueError("need a_bounds or sample_box to calibrate the weight")
        rng = np.random.default_rng(7)
        lo = np.asarray([b[0] for b in sample_box], dtype=float)
        hi = np.asarray([b[1] for b in sample_box], dtype=float)
        pts = lo + (hi - lo) * rng.random((n_samples, d))
        vals = np.asarray(a(pts), dtype=float)
        a_min, a_max = float(vals.min()), float(vals.max())
    if a_min <= 0:
        raise ValueError("weight must be strictly positive")

    def weight(x):
        if x is None:
            raise ValueError("weighted integrand needs the spatial point x")
        return np.asarray(a(np.asarray(x, dtype=float)), dtype=float)

    def value(x, xi):
        return weight(x) * _fro(xi)

    def gradient(x, xi):
        nrm = _fro(xi)
        if np.any(nrm == 0.0):
            raise SingularPointError(
                "norm integrand not differentiable at xi = 0; "
                "use subdiff_residual for set-valued checks"
            )
        return xi * (weight(x) / nrm)[..., None, None]

    def conjugate(x, z):
        nrm = _fro(z)
        w = weight(x)
        return np.where(nrm <= w * (1.0 + 1e-12), 0.0, np.inf)

    def prox(x, zeta, tau):
        nrm = _fro(zeta)
        w = np.broadcast_to(weight(x), nrm.shape)
        scale = np.where(nrm > w, w / np.maximum(nrm, 1e-300), 1.0)
        return zeta * scale[..., None, None]

    return Integrand(
        1, d,
        name="weighted_tv",
        x_dependent=True,
        growth_constant=max(a_max, 1.0 / a_min),
        homogeneous=True,
        value=value,
        gradient=gradient,
        recession_value=value,
        recession_gradient=gradient,
        conjugate=conjugate,
        prox_conjugate=prox,
        dual_radius=weight,
        fenchel_constant=0.5 / a_max,
    )

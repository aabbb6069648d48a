"""Primal-dual saddle-point solver for the discrete relaxed functional.

The saddle form dualizes both the integrand, via biconjugacy
f(x, grad u) = sup_z <z, grad u> - f*(x, z), and the boundary penalty, via
its own multiplier zeta constrained to the nu-section of the dual range.
The solver takes integrands whose dual range is a ball (``dual_radius``),
so the section is the ball of that radius (for scalar TV the interval
[-1, 1]).  One iteration alternates

  (i)   z    <- prox of f* at z + sigma/t G u_bar, per cell,
  (ii)  zeta <- project zeta + sigma/t (u0 - B u_bar) onto the ball,
  (iii) u    <- closed-form prox of the lower-order terms at
                u + t tau (-G^T z + B^T (w_b / h^d zeta) - g),
  (iv)  u_bar <- u + theta (u - u_prev) (over-relaxation), t <- theta t,

with G and B the domain's operator (``GridDomain.operator``): forward
differences on interior faces, and the selection of each boundary face's
inside cell.  The zeta backflow B^T (w_b / h^d zeta) couples each face
through its geometric weight w_b, the same weight as in the boundary
penalty.  At a fixed point -G^T z + B^T (w_b / h^d zeta) = lambda (u - h)
+ g, the discrete Euler-Lagrange equation, and the pair (z, zeta) is the
certificate the verification module consumes.

The loop, the gap and the dual repair run on compressed vectors: u is
(N, n) over the N inside cells, z is (N, n, d) on the + face of each
inside cell (the layout the conjugate prox takes), zeta is (m, n) over
boundary faces.  z, its running sum and the interior mask are stored
planar, as (N, n, d) views of C-contiguous (d, N, n) arrays: ``G u_bar``
reshapes to that layout without a copy, ``G^T z`` reads it without one,
and the prox reduces over the n and d axes of contiguous planes.  Each
update is written in place into an array the iteration already owns: the
prox input into the gradient product, the interior mask into the prox
output, and u into the divergence product.  Padded arrays are made only
at the I/O edge, for the Field and DualField of the SolveResult and from a
padded warm start.

The steps follow the diagonal alpha-exponent rule of Pock and Chambolle
(ICCV 2011) for K = [h^d G; w_b B], with alpha = ``_STEP_ALPHA`` = 0.5:
each dual step is the inverse of its row sum of |K|^(2 - alpha), each
primal step h^d over its column sum of |K|^alpha.  The rule needs no
operator norm estimate and is stable for any alpha in [0, 2], the zeta
block included.  It is the only rule.  Scalar steps 0.99/L, with
L = sqrt(4 d)/h the norm bound of G alone, were measured against it in
the same restarted loop, as iterations to the target relative gap:

  =======================================  ===========  ===============
  case                                     diagonal     scalar 0.99/L
  =======================================  ===========  ===============
  half-disk indicator, nx=48, 1e-6         28,800       > 40,000 (1e-5)
  BV-attainment disk, nx=96, 1e-3          4,100        4,500
  weighted 1-D TV, nx=256, 1e-2            68,100       76,700
  least-gradient annulus, nx=96, 1e-3      1,800        1,500
  ROF annulus, nx=192, 1e-3                4,300        3,400
  least-gradient annulus, nx=128, 1e-4 *   4,400        2,400
  =======================================  ===========  ===============

  * checked every 200 iterations

Neither rule wins everywhere, and only the diagonal one reaches the
half-disk's 1e-6.  A smaller alpha = 0.25 gained nothing either: the
warm-started half-disk ladder nx 64/128/256 took 5.5 s against 5.8 s in
single runs, and the nx=128 attainment demo 7,000 iterations against
4,400.

Where lambda > 0 on every inside cell the lower-order term lambda/2 |u - h|^2
makes the primal block strongly convex, and the step scale t and the
over-relaxation theta follow the accelerated scheme of Chambolle and Pock,
"A first-order primal-dual algorithm for convex problems with applications
to imaging" (JMIV 40, 2011, Alg. 2), run in the metric of the diagonal
steps.  In the variables T^(-1/2) u the term has a modulus of at least
gamma = min(lambda) min(tau).  The scale starts at t = max(1, 1/gamma) (so
the first prox has gamma t = 1 unless gamma > 1), and after each u update

  theta = max(1 / sqrt(1 + 2 gamma t), 1 / t),   t <- theta t.

Scaling T by t and Sigma by 1/t keeps ||Sigma^(1/2) K T^(1/2)|| <= 1
(Pock and Chambolle, Lemma 2), so every step is stable.  The floor
theta >= 1/t keeps t >= 1: primal steps never get smaller than the plain
ones.  t carries across restarts.  Where lambda vanishes on some cell,
gamma = 0, theta = 1 and t = 1 throughout, and the iteration is the plain
one bit for bit.  The plain steps grow lopsided as the grid is refined
(in 2-D a primal step is about h/2 times a dual step), which the schedule
undoes while t is large.  Iterations to the target on the ROF annulus with
lambda scaled, plain -> accelerated:

  ======  ======  =====  ======================
  lambda  target  nx     plain -> accelerated
  ======  ======  =====  ======================
  1       1e-3    96     1,800 -> 700
  1       1e-3    192    4,300 -> 1,500
  1       1e-3    384    12,000 -> 3,000
  1       1e-4    64     1,900 -> 800
  1       1e-4    96     2,500 -> 1,300
  1       1e-6    48     2,700 -> 1,900
  10      1e-3    64     300 -> 200
  10      1e-3    96     400 -> 300
  10      1e-3    192    1,200 -> 600
  100     1e-3    64     100 -> 100
  100     1e-3    192    200 -> 100
  0.1     1e-3    128    2,400 -> 2,100
  0.1     1e-3    192    4,300 -> 2,600
  0.1     1e-3    64     1,300 -> 1,800
  0.1     1e-4    64     1,600 -> 1,800
  0.01    1e-3    64     1,400 -> 1,800
  0.01    1e-3    96     1,900 -> 2,400
  0.01    1e-4    64     1,600 -> 2,000
  ======  ======  =====  ======================

The last five rows are losses: with a small lambda on a coarse grid the
large early steps cost more than they save.  Rejected alternatives, as
iterations to 1e-3 at nx=192: resetting t at each restart took 2,300 /
19,000 at lambda = 1 / 0.1 (against 1,500 / 2,600); a fixed t = 16 / 64
/ 256 with theta = 1 took 1,800 / 900 / 3,400 at lambda = 1, erratic in a
tuned constant; a start at 1/sqrt(gamma) took 2,600 against 1,800 at
lambda = 0.1, nx=64, 1e-4.

The loop restarts from an averaged iterate, the "sufficient decay" rule of
Applegate, Hinder, Lu and Lubin, "Faster first-order primal-dual methods
for linear programming using restarts and sharpness" (arXiv:2105.12715),
also used by PDLP (arXiv:2106.04756), with the certified duality gap below
as the restart metric.  The solver keeps the running average of (u, z,
zeta) since the last restart.  Every gap check evaluates the gap of both
the current iterate and the average; the state with the lower relative
gap is the one reported.  Once that gap is
at most ``_RESTART_DECAY`` = 0.2 times the relative gap at the last
restart, the iterate restarts from that state, with u_bar = u and the
average emptied.  The first check always restarts.  The restarts pay on
the piecewise-linear (LP-like) least-gradient and BV problems, where plain
steps crawl: the least-gradient annulus at nx=96 reaches a relative gap of
1e-3 in 1,800 iterations, against 12,800 without restarts.

The reported duality gap is a true primal-dual gap for the problem
restricted to a box |u| <= M: the dual objective uses the conjugate of the
lower-order terms over [-M, M], which stays finite even where lambda = 0.
Any M at least as large as the sup-norm of a minimizer gives gap -> 0; for
g = 0 the data bound max(|u0|, |h|) is such an M by truncation.  M lives in
one place, ``ProblemSpec.box_bound``, which the gap checks of a solve,
``duality_gap``, the zeta polish and the grid certificate all read.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import (
    ProblemSpec,
    relaxed_energy,
    _cell_values,
    _divergence,
    _dual_values,
    _gradient,
    _zeta_values,
)
from .errors import InstabilityError, ShapeMismatchError, SpecFileError
from .fields import DualField, Field
from .geometry import Annulus, Ball

__all__ = [
    "SolverConfig",
    "SolveResult",
    "DualityGap",
    "solve",
    "duality_gap",
    "repair_dual",
    "trace_error",
    "boundary_l1_distance",
    "nearest_boundary_extension",
    "prolong_state",
]


@dataclass
class SolverConfig:
    """Stopping rules.

    The step sizes are not configurable: every solve takes per-variable
    diagonal steps by the alpha-exponent rule of Pock and Chambolle with
    alpha = 0.5, computed from the domain's operator (see the module
    docstring for the rule and why it is the only one).  ``check_every``
    sets how often the gap is checked, and with it the restart cadence.
    ``solve`` rejects, with a ``SpecFileError`` naming the field, a
    ``max_iters`` or ``check_every`` below 1 and a ``gap_tol`` that is NaN
    or negative.  The gap's box bound M is ``ProblemSpec.box_bound``.
    """

    max_iters: int = 20000
    gap_tol: float = 1e-5
    check_every: int = 100


def _check_config(config: SolverConfig) -> None:
    """Raise SpecFileError naming the first field the loop cannot honor."""
    for name in ("max_iters", "check_every"):
        value = getattr(config, name)
        if not isinstance(value, numbers.Integral) or value < 1:
            raise SpecFileError(
                f"SolverConfig.{name} must be an integer >= 1, got {value!r}")
    tol = config.gap_tol
    if not isinstance(tol, numbers.Real) or not tol >= 0:
        raise SpecFileError(
            f"SolverConfig.gap_tol must be a number >= 0, got {tol!r}")


@dataclass
class SolveResult:
    """Converged (or truncated) primal-dual state.

    ``u``/``z``/``zeta`` are the state whose gap the last check reported:
    the current iterate or the average since the last restart, whichever
    had the lower relative gap.  ``gap``, ``gap_relative`` and
    ``energy_history_raw[-1]`` describe that same state.  At each check,
    ``energy_history_raw`` holds the primal energy of the reported state.
    """

    u: Field
    z: DualField
    zeta: np.ndarray
    energy_history_raw: np.ndarray
    gap_history: np.ndarray
    check_iters: np.ndarray
    iterations: int
    converged: bool
    gap: float
    gap_relative: float


@dataclass
class DualityGap:
    """A gap, with the dual point it was taken at (given, or ``repaired``);
    their ``_gap_terms`` sum to ``value``."""

    value: float
    relative: float
    primal: float
    dual: float
    dual_feasible: bool
    z: np.ndarray
    zeta: np.ndarray
    repaired: bool = False


def nearest_boundary_extension(spec: ProblemSpec) -> np.ndarray:
    """u0 extended inward by nearest boundary face value; warm start."""
    from scipy.spatial import cKDTree

    op = spec.domain.operator
    _, nearest = cKDTree(spec.domain.boundary_faces.point).query(op.points)
    return op.pad(spec.u0[nearest])


def _box_conjugate(v, g, lam, h, M):
    """Pointwise sup over |u| <= M of (v - g) u - lam/2 (u - h)^2, per channel."""
    s = v - g
    with np.errstate(divide="ignore", invalid="ignore"):
        u_star = np.where(lam > 0, h + s / np.where(lam > 0, lam, 1.0), 0.0)
    u_star = np.clip(u_star, -M, M)
    u_free = np.where(lam > 0, u_star, np.sign(s) * M)
    return s * u_free - 0.5 * lam * (u_free - h) ** 2


def duality_gap(spec: ProblemSpec, u, z, zeta) -> DualityGap:
    """Primal energy minus the dual objective over |u| <= M =
    ``spec.box_bound``; >= 0, 0 at optimum.

    ``u`` and ``z`` may be fields, padded or compressed arrays, zeta is
    (m, n); a wrong shape or a non-finite entry raises an error naming it.
    Least-gradient-type duals are also projected to feasibility by
    ``repair_dual`` (divergence cleaned by a Poisson solve, then rescaled
    into the dual balls), and the better of the two dual bounds is
    reported; the result is a valid gap either way since every feasible
    dual point underestimates the minimum.  Infeasibility of the *given*
    dual is reported, never repaired away: z is feasible where f*(x, z) is
    finite, zeta where f*(x_b, zeta tensor nu_b) is.
    """
    domain = spec.domain
    u = _cell_values(domain, u, spec.n_channels)
    z = _dual_values(domain, z, spec.n_channels)
    zeta = _zeta_values(spec, zeta)

    primal = relaxed_energy(spec, u)
    fstar = spec.integrand.conjugate(domain.operator.points, z)
    if not (np.all(np.isfinite(fstar))
            and np.all(_zeta_indicator(spec, zeta) == 0.0)):
        return DualityGap(np.inf, np.inf, primal, -np.inf, False, z, zeta)

    dual = _dual_objective(spec, z, zeta, fstar)
    scored, repaired = (z, zeta), False
    z_rep, zeta_rep = repair_dual(spec, z, zeta)
    if z_rep is not z:
        fstar_rep = spec.integrand.conjugate(domain.operator.points, z_rep)
        if np.all(np.isfinite(fstar_rep)):
            dual_rep = _dual_objective(spec, z_rep, zeta_rep, fstar_rep)
            if dual_rep > dual:
                dual, scored, repaired = dual_rep, (z_rep, zeta_rep), True
    gap = primal - dual
    rel = gap / max(abs(primal), abs(dual), 1e-12)
    return DualityGap(gap, rel, primal, dual, True, *scored, repaired)


def _zeta_indicator(spec, zeta):
    """(m,) 0 where zeta tensor nu lies in the dual range (f* finite), else inf."""
    bf = spec.domain.boundary_faces
    conj = spec.integrand.conjugate(
        bf.point, zeta[:, :, None] * bf.normal[:, None, :])
    return np.where(np.isfinite(conj), 0.0, np.inf)


def _drift(spec, z, zeta):
    """v = -G^T z + B^T (w_b / h^d zeta), the dual field the u update sees."""
    domain = spec.domain
    beta = domain.boundary_faces.weight / domain.cell_volume
    return (_divergence(domain.operator, z)
            + domain.operator.Bt @ (beta[:, None] * zeta))


def _dual_objective(spec, z, zeta, fstar):
    """sum w_b zeta u0 - h^d sum f*(z) - h^d sum q(-G^T z + backflow) on cells."""
    domain = spec.domain
    bf = domain.boundary_faces
    vol = domain.cell_volume
    q = _box_conjugate(_drift(spec, z, zeta), spec.g_cells,
                       spec.lam_cells[:, None], spec.h_cells, spec.box_bound)
    return (float(np.sum(bf.weight[:, None] * zeta * spec.u0))
            - vol * float(np.sum(fstar)) - vol * float(np.sum(q)))


def _gap_terms(spec, u, z, zeta):
    """The gap of compressed (u; z, zeta) as its local Fenchel-Young terms.

    Per cell h^d [f(Gu) + f*(z) - <z, Gu>], per boundary face
    w_b [f^inf(j tensor nu) + i(zeta) - <zeta, j>] with j = u0 - Bu and i
    the indicator of ``_zeta_indicator``, and per cell
    h^d [l(u) + q_M(v) - <v, u>] with l(u) = g u + lambda/2 |u - h|^2 and
    v = ``_drift``.  The pairings cancel (<v, u> h^d = -<z, Gu> h^d +
    sum w_b <zeta, Bu>), so the three sum to the gap.  Each term is >= 0
    (the last only where |u| <= M = ``spec.box_bound``), 0 exactly where
    its optimality condition holds, and inf where its dual variable is
    infeasible.
    """
    domain, f = spec.domain, spec.integrand
    op, bf, vol = domain.operator, domain.boundary_faces, domain.cell_volume
    cell = vol * f.subdiff_residual(op.points, _gradient(op, u), z)
    jump = spec.u0 - op.B @ u
    face = bf.weight * (
        f.recession(bf.point, jump[:, :, None] * bf.normal[:, None, :])
        + _zeta_indicator(spec, zeta) - np.sum(zeta * jump, axis=1))
    v = _drift(spec, z, zeta)
    lam = spec.lam_cells[:, None]
    dev = u - spec.h_cells
    q = _box_conjugate(v, spec.g_cells, lam, spec.h_cells, spec.box_bound)
    lower = vol * np.sum(spec.g_cells * u + 0.5 * lam * dev * dev + q - v * u,
                         axis=1)
    return cell, face, lower


# Poisson-solve-and-clip rounds of repair_dual
_REPAIR_ROUNDS = 6


def repair_dual(spec: ProblemSpec, z, zeta):
    """Project (z, zeta) to a feasible dual point (least-gradient family).

    Alternates a Poisson solve with the Neumann Laplacian G^T G (removing
    the fluctuating part of -G^T z + backflow(zeta)) with pointwise
    clipping into the dual balls; a final global rescale makes the pair
    exactly feasible, so it plugs into ``duality_gap`` for a certified
    lower bound.  Requires a homogeneous scalar integrand with a ball dual
    range and g = lambda = 0; otherwise (z, zeta) come back as given.  A
    padded z gives a padded result, a compressed z a compressed one.
    """
    f = spec.integrand
    domain = spec.domain
    if (f.n_rows != 1 or not f.homogeneous or f.dual_radius is None
            or np.any(spec.lam_cells != 0) or np.any(spec.g_cells != 0)):
        return z, zeta
    op = domain.operator
    padded = np.shape(z)[2:] == domain.grid_shape
    bf = domain.boundary_faces
    radius = np.broadcast_to(
        np.asarray(f.dual_radius(op.points), dtype=float), (len(op.points),))

    # nu-section bounds for the zeta polish
    r_b = np.asarray(f.dual_radius(bf.point), dtype=float)
    r_b = np.broadcast_to(r_b, (len(bf),))
    zeta = np.clip(np.asarray(zeta, dtype=float).reshape(len(bf), 1),
                   -r_b[:, None], r_b[:, None])

    z_rep = _dual_values(domain, z)
    for k in range(_REPAIR_ROUNDS):
        v = _drift(spec, z_rep, zeta)[:, 0]
        rhs = v - v.mean()
        rhs[0] = 0.0
        z_rep = z_rep - _gradient(op, op.neumann_solver.solve(-rhs)[:, None])
        if k < _REPAIR_ROUNDS - 1:
            znorm = np.sqrt(np.sum(z_rep**2, axis=(1, 2)))
            with np.errstate(divide="ignore", invalid="ignore"):
                scale = np.minimum(1.0, radius / np.maximum(znorm, 1e-300))
            z_rep = z_rep * scale[:, None, None]
            zeta = _polish_zeta(spec, z_rep, zeta, r_b)
    znorm = np.sqrt(np.sum(z_rep**2, axis=(1, 2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        over = np.where(radius > 0, znorm / radius, 0.0)
    s = 1.0 / max(1.0, float(over.max()))
    return (op.pad(s * z_rep) if padded else s * z_rep), s * zeta


_POLISH_SWEEPS = 3


def _polish_zeta(spec, z_rep, zeta, r_b):
    """Coordinate-exact ascent of the dual objective in the zeta block.

    For fixed z the dual objective is w zeta u0 - M h^d |divergence balance|
    per boundary cell, with M = ``spec.box_bound``, piecewise linear in
    each zeta; the 1-D maximum sits at -1, +1, or the balance kink, so
    evaluating three candidates per face is exact.  Cells sharing no faces make the sweep a plain coordinate
    ascent that can only improve the bound.
    """
    domain = spec.domain
    op = domain.operator
    bf = domain.boundary_faces
    beta = bf.weight / domain.cell_volume
    # the balance penalty gets an epsilon preference so that ties break
    # toward divergence feasibility, which the later Poisson projection
    # would otherwise pay for; argmax takes the first of tied candidates
    m_vol = spec.box_bound * (1.0 + 1e-9) * domain.cell_volume
    div_fixed = _divergence(op, z_rep)[:, 0]
    wu0 = bf.weight * spec.u0[:, 0]
    zeta = zeta.copy()
    # backflow beta zeta of each face, and a trailing 0 for the table pads
    flow = np.append(beta * zeta[:, 0], 0.0)
    # faces of one cell always differ in (axis, sign), so sweeping those
    # groups sequentially is genuine coordinate (Gauss-Seidel) ascent
    groups = [(sel, cell_faces, div_fixed[op.face_cells[sel]], beta[sel],
               r_b[sel], wu0[sel], np.arange(sel.size))
              for sel, cell_faces in op.boundary_face_groups]
    for _ in range(_POLISH_SWEEPS):
        for sel, cell_faces, div_c, b, r, wu, cols in groups:
            # each cell's backflow summed as Bt @ sums it: from 0, faces
            # ascending
            back = np.zeros(sel.size)
            for k in range(cell_faces.shape[1]):
                back += flow[cell_faces[:, k]]
            res_wo = (div_c + back) - b * zeta[sel, 0]
            cands = np.stack([-r, r, np.clip(-res_wo / b, -r, r)], axis=0)
            vals = wu * cands - m_vol * np.abs(res_wo + b * cands)
            new = cands[np.argmax(vals, axis=0), cols]
            zeta[sel, 0] = new
            flow[sel] = b * new
    return zeta


def trace_error(spec: ProblemSpec, u) -> float:
    """Discrete L1 boundary distance sum w_b |u_adjacent - u0|."""
    u_adj = spec.domain.operator.B @ _cell_values(spec.domain, u)
    diff = np.linalg.norm(u_adj - spec.u0, axis=-1)
    return float(np.sum(spec.domain.boundary_faces.weight * diff))


def boundary_l1_distance(spec: ProblemSpec, u, u0_fn,
                         n_samples: int = 8192) -> float:
    """L1 distance of the piecewise-constant discrete trace to a continuum datum.

    Quadrature at sub-face resolution: sample the true boundary, read the
    adjacent-cell value of the nearest boundary face, and integrate
    |trace - u0| dH^(d-1).  Unlike the per-face ``trace_error``, this sees
    the O(h) error of representing a datum jump inside a single face, so it
    is the right quantity for refinement studies of trace attainment.
    The boundary is sampled on its circles, so the domain must be a 2-D
    ``Ball`` or ``Annulus``; other shapes raise ``ShapeMismatchError``.
    """
    from scipy.spatial import cKDTree

    domain = spec.domain
    bf = domain.boundary_faces
    shape = domain.shape
    if domain.dim == 2 and isinstance(shape, Ball):
        loops = [shape.radius]
    elif domain.dim == 2 and isinstance(shape, Annulus):
        loops = [shape.r_in, shape.r_out]
    else:
        raise ShapeMismatchError(
            f"boundary_l1_distance samples the circles of a 2-D Ball or "
            f"Annulus, not a {domain.dim}-D {type(shape).__name__}")
    u_adj = domain.operator.B @ _cell_values(domain, u)  # (m, n)
    tree = cKDTree(bf.point)
    total = 0.0
    for radius in loops:
        m = n_samples // len(loops)
        ang = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
        pts = radius * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        _, nearest = tree.query(pts)
        datum = np.asarray(u0_fn(pts), dtype=float)
        if datum.ndim == 1:
            datum = datum[:, None]
        diff = np.linalg.norm(u_adj[nearest] - datum, axis=-1)
        total += float(diff.sum() * (2 * np.pi * radius / m))
    return total


def prolong_state(coarse_spec: ProblemSpec, coarse: SolveResult,
                  fine_spec: ProblemSpec):
    """Nearest-neighbor transfer of (u, z, zeta) to a finer grid (warm start).

    Returns padded (u, z) and the (m, n) zeta of the fine grid.
    """
    from scipy.spatial import cKDTree

    cd, fd = coarse_spec.domain, fine_spec.domain
    op = fd.operator

    def coarse_values(values, points):
        idx = np.floor((points - cd.origin) / cd.h).astype(int)
        for a in range(cd.dim):
            idx[..., a] = np.clip(idx[..., a], 0, cd.n_cells[a] - 1)
        return values[(slice(None),) + tuple(idx.T)].T  # (N, n)

    u = coarse_values(coarse.u.values, op.points)
    z = np.zeros((len(op.points), coarse_spec.n_channels, fd.dim))
    for a in range(fd.dim):
        face_pos = op.points.copy()
        face_pos[:, a] += 0.5 * fd.h
        z[:, :, a] = coarse_values(coarse.z.values[:, a], face_pos)
    z = np.where(op.interior, z, 0.0)

    tree = cKDTree(cd.boundary_faces.point)
    _, nearest = tree.query(fd.boundary_faces.point)
    zeta = coarse.zeta[nearest]
    return op.pad(u), op.pad(z), zeta


# a check restarts once the reported rel-gap is at most this factor times
# the rel-gap at the last restart
_RESTART_DECAY = 0.2
# exponent alpha of the diagonal step rule
_STEP_ALPHA = 0.5


def solve(spec: ProblemSpec, config: Optional[SolverConfig] = None,
          warm_start=None) -> SolveResult:
    """Minimize the discrete relaxed functional; the dual iterate is the certificate.

    ``warm_start`` may carry an (u, z, zeta) triple, padded or compressed,
    e.g. from ``prolong_state`` after a coarser solve; it is checked like
    the arguments of ``duality_gap``.
    """
    if config is None:
        config = SolverConfig()
    _check_config(config)
    f = spec.integrand
    if f.dual_radius is None:
        raise ShapeMismatchError(
            f"integrand {f.name!r} has no dual_radius: the boundary "
            "dualization projects zeta onto a ball-shaped dual range"
        )
    domain = spec.domain
    op = domain.operator
    n = spec.n_channels
    d = domain.dim
    vol = domain.cell_volume
    bf = domain.boundary_faces
    G, B, Bt = op.G, op.B, op.Bt
    pts = op.points

    beta = (bf.weight / vol)[:, None]  # per-face backflow density
    # diagonal steps for K = [h^d G; w_b B], in plain coordinates
    al = _STEP_ALPHA
    K_grad = vol * abs(G)
    # prox parameter for the z block: sigma_row * h^d; every interior row
    # has the same sum
    sigma_z = vol / float(K_grad.power(2.0 - al).sum(axis=1).max())
    col = K_grad.power(al).sum(axis=0) + Bt @ bf.weight**al
    tau = (vol / np.maximum(col, 1e-300))[:, None]
    # net zeta step on (u0 - B u): sigma_row * w = w^(alpha - 1)
    sigma_zeta = (bf.weight ** (al - 1.0))[:, None]

    if warm_start is not None:
        u0_w, z0_w, zeta0_w = warm_start
        u = _cell_values(domain, u0_w, n)
        z = np.where(op.interior, _dual_values(domain, z0_w, n), 0.0)
        zeta = _zeta_values(spec, zeta0_w).copy()
    else:
        u = op.cells(nearest_boundary_extension(spec))
        z = _dual_values(domain, np.zeros((len(pts), n, d)))
        zeta = np.zeros((len(bf), n))
    u_bar = u
    exterior = ~op.interior
    radius = np.broadcast_to(
        np.asarray(f.dual_radius(bf.point), dtype=float), (len(bf),)
    )

    lam = spec.lam_cells[:, None]
    g_arr = spec.g_cells
    lam_h = lam * spec.h_cells
    # accelerated schedule: primal steps t tau, dual steps sigma / t, from
    # t = 1/gamma down to the floor t = 1; gamma is the strong-convexity
    # modulus of the lower-order term in the metric of the steps
    gamma = float(spec.lam_cells.min() * tau.min())
    t = 1.0 / gamma if 0 < gamma < 1 else 1.0

    sigma_zeta_t = np.empty_like(sigma_zeta)
    tau_t = np.empty_like(tau)
    denom = np.empty_like(tau)

    def rescale(t):
        # the steps at scale t, in place: zeta steps sigma / t, primal
        # steps t tau and the lower-order prox's denominators
        # 1 + t tau lambda; returns the z step
        np.divide(sigma_zeta, t, out=sigma_zeta_t)
        np.multiply(tau, t, out=tau_t)
        np.multiply(tau_t, lam, out=denom)
        np.add(denom, 1.0, out=denom)
        return sigma_z / t

    sigma_t = rescale(t)

    energies_raw, gaps, iters_log = [], [], []
    gap_now = np.inf
    rel_gap = np.inf
    converged = False
    it = 0
    # running sums of (u, z, zeta) since the last restart, and the state
    # whose gap the last check reported
    sum_u, sum_z = np.zeros_like(u), np.zeros_like(z)
    sum_zeta = np.zeros_like(zeta)
    n_avg = 0
    restart_rel = np.inf
    kept = (u, z, zeta)

    for it in range(1, config.max_iters + 1):
        # (i) dual ascent in z, kept on interior faces; the prox input is
        # formed in the gradient product's output, the mask applied in the
        # prox's output
        z_in = _gradient(op, u_bar)
        z_in *= sigma_t
        z_in += z
        try:
            z = f.prox_conjugate(pts, z_in, sigma_t)
        except ShapeMismatchError:
            # the prox rejects a non-finite input z + sigma G u_bar: name
            # the iterate that blew up instead
            if np.all(np.isfinite(z_in)):
                raise
            bad = "u" if np.all(np.isfinite(z)) else "z"
            raise InstabilityError(
                f"non-finite {bad} at iteration {it}") from None
        np.copyto(z, 0.0, where=exterior)

        # (ii) boundary dual ascent in zeta
        zeta = zeta + sigma_zeta_t * (spec.u0 - B @ u_bar)
        nrm = np.linalg.norm(zeta, axis=-1)
        scale = np.minimum(1.0, radius / np.maximum(nrm, 1e-300))
        zeta = zeta * scale[:, None]

        # (iii) primal descent with closed-form lower-order prox,
        # (u + t tau (drift - g + lambda h)) / (1 + t tau lambda), built in
        # the divergence product's output
        u_prev = u
        u = _divergence(op, z)
        u += Bt @ (beta * zeta)
        u -= g_arr
        u += lam_h
        u *= tau_t
        u += u_prev
        u /= denom

        # (iv) over-relaxation u + theta (u - u_prev) with theta = t_next / t
        # = max(1 / sqrt(1 + 2 gamma t), 1 / t); theta = 1 once t = 1
        t_next = max(t / np.sqrt(1.0 + 2.0 * gamma * t), 1.0)
        u_bar = u - u_prev
        if t_next < t:
            u_bar *= t_next / t
            t = t_next
            sigma_t = rescale(t)
        u_bar += u

        sum_u += u
        sum_z += z
        sum_zeta += zeta
        n_avg += 1

        if it % config.check_every == 0 or it == config.max_iters:
            for name, a in (("z", z), ("zeta", zeta), ("u", u)):
                if not np.all(np.isfinite(a)):
                    raise InstabilityError(
                        f"non-finite {name} at iteration {it}")
            kept = (u, z, zeta)
            dg = duality_gap(spec, u, z, zeta)
            if n_avg > 1:
                avg = (sum_u / n_avg, sum_z / n_avg, sum_zeta / n_avg)
                dg_avg = duality_gap(spec, *avg)
                if dg_avg.relative < dg.relative:
                    kept, dg = avg, dg_avg
            if not np.isfinite(dg.value):
                raise InstabilityError(
                    f"non-finite duality gap at iteration {it}")
            energies_raw.append(dg.primal)
            iters_log.append(it)
            gap_now, rel_gap = dg.value, dg.relative
            gaps.append(rel_gap)
            if rel_gap <= config.gap_tol:
                converged = True
                break
            if rel_gap <= _RESTART_DECAY * restart_rel:
                u, z, zeta = kept
                u_bar = u
                restart_rel = rel_gap
                sum_u[...] = 0.0
                sum_z[...] = 0.0
                sum_zeta[...] = 0.0
                n_avg = 0

    u, z, zeta = kept
    return SolveResult(
        u=Field(domain, op.pad(u)),
        z=DualField(domain, op.pad(z)),
        zeta=zeta,
        energy_history_raw=np.asarray(energies_raw),
        gap_history=np.asarray(gaps),
        check_iters=np.asarray(iters_log, dtype=int),
        iterations=it,
        converged=converged,
        gap=gap_now,
        gap_relative=rel_gap,
    )

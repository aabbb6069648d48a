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
output, and u into the divergence product.  The data g, h and lambda, the
cold start, the coarse levels and their prolongation are compressed too;
padded arrays are made only for the Field and DualField of the
SolveResult, and read only from a padded warm start.

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
gamma = min(lambda) min(tau).  From a cold start, or a caller's
``warm_start``, the scale starts at t = max(1, 1/gamma) (so the first prox
has gamma t = 1 unless gamma > 1); on the coarse-to-fine ladder below,
each finer level starts at the t the level under it ended with.  After
each u update

  theta = max(1 / sqrt(1 + 2 gamma t), 1 / t),   t <- theta t.

Scaling T by t and Sigma by 1/t keeps ||Sigma^(1/2) K T^(1/2)|| <= 1
(Pock and Chambolle, Lemma 2), so every step is stable, whatever t >= 1 a
level starts at.  The floor theta >= 1/t keeps t >= 1: primal steps never
get smaller than the plain ones.  t carries across restarts.  Where
lambda vanishes on some cell,
gamma = 0, theta = 1 and t = 1 throughout, and the steps are the plain
ones.  Where moreover g = 0 and M = ``ProblemSpec.box_bound`` is at least
the data bound max(|u0|, |h|), the box |u| <= M over which the gap takes
its dual holds a minimizer (by truncation), and step (iii) is followed
by a clip of u to [-M, M]: the exact prox of the lower-order term plus
the indicator of the box (the term is separable, so the prox of the sum
is the clipped prox).  The iterate then never leaves the box, and no
lower-order term of the gap is negative.  Elsewhere the clip is left
out.  With g != 0 the default M is a heuristic, and a spec may set any
M; clipping there would solve the box-constrained problem instead and
report it as converged, while without the clip an iterate past M shows
as negative lower-order gap terms and in the certificate's count of
cells outside the box, and such a state is not converged whatever its
gap (``DualityGap.conditional``).  Where gamma > 0 the clip would
cost time: on the ROF annulus at nx=192 it made the solve slower in 4 of
4 alternating pairs of runs at the same 1,500 iterations (1.11-1.37 s
against 1.07-1.10 s).  The plain steps grow lopsided as the grid is refined (in
2-D a primal step is about h/2 times a dual step), which the schedule
undoes while t is large.  Iterations
to the target on the ROF annulus with lambda scaled, plain ->
accelerated:

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
steps crawl: from a cold start on its own grid, the least-gradient
annulus at nx=96 reaches a relative gap of 1e-3 in 1,800 iterations,
against 12,800 without restarts.

A solve without a ``warm_start`` does not start cold on its own grid.
It first solves the
restriction of its spec (``_restriction``): the same integrand and box
bound M on half the cells per axis, with u0 taken from the nearest fine
boundary face and g, h, lambda from the nearest fine inside cell.  That
solve starts the same way, so the ladder runs down to the coarsest grid
``GridDomain`` allows (nx >= 16, each nx even).  Each level runs under
the caller's ``SolverConfig`` (the same gap_tol, max_iters and
check_every) and hands its compressed (u, z, zeta) to the next finer
level through ``_prolong``, the compressed core of ``prolong_state``;
its spec, domain, factors and state are released before the finer level
iterates, and the prolonged state once the finer level has copied it in.
The prolongation reads u from the coarse cell that contains each fine
center, which is the nearest inside coarse cell wherever it is inside;
only the other fine cells search for the nearest (200 of 21,736 cells of
the ROF annulus at nx=192).  ``SolveResult.levels`` records each level.
Iterations per level, coarsest first, against a cold start on the finest
grid alone:

  ==================================  ===============================  ========
  case, target                        ladder                           cold
  ==================================  ===============================  ========
  least-gradient annulus, 96, 1e-3    500 / 300 / 600                  1,800
  least-gradient annulus, 256, 1e-3   300 / 300 / 500 / 500 / 900      4,700
  BV-attainment disk, 96, 1e-3        1,200 / 700 / 1,100              4,100
  BV-attainment disk, 256, 1e-3       700 / 300 / 500 / 900 / 1,300    13,000
  weighted 1-D TV, 256, 1e-2          800 / 400 / 1,000 / 1,500 / 800  68,100
  half-disk, 64, 1e-5                 1,900 / 3,800 / 3,400            > 30,000
  ROF annulus, 96, 1e-3               400 / 400 / 300                  700
  ROF annulus, 192, 1e-3              400 / 400 / 300 / 700            1,500
  ROF annulus, 384, 1e-3              400 / 400 / 300 / 700 / 400      3,000
  ==================================  ===============================  ========

The one loss measured is criterion 10's half-disk at nx=48 to 1e-6 with
the datum truncated at b = 0.25: 19,000 + 7,750 iterations against
11,500 cold (b = 1 and b = 0.5 gain: 6,250 + 18,250 against 28,250 and
3,750 + 11,750 against 16,750).  Below nx of about 48 an iteration costs
about the same at any size, so a long coarse level is not cheap there.
Looser coarse tolerances lose: with 10x the target, sqrt(target) or
max(target, 1e-3) on the coarse levels, the disk at nx=96 to 1e-3 took
3,600 / 4,500 / 1,100 fine iterations (1,100 with the target itself),
and the half-disk at nx=64 to 1e-5 took 7,100 / 22,600 / 15,900 (3,400).
A coarsest level of 48 instead of 24 took 1,200 + 600 iterations on the
least-gradient annulus at nx=96 against 500 + 300 + 600.

Where gamma > 0 each level starts at the step scale t the level below
ended with, and the coarsest at t = max(1, 1/gamma).  Where gamma = 0,
t = 1 on every level, so the rule leaves those ladders as they are.  At
lambda = 1 t reaches its floor 1 within the coarsest level, so the finer
levels run plain steps from their warm starts; restarting them at
t = 1/gamma, whose large early steps move the warm iterate away, took
400 / 300 / 500 / 1,200 iterations on the ROF annulus at nx=192.  Other
rules for a level's first t, as iterations on the nx=192 level of that
ladder (700 when t is carried): t gamma kept from the level below, 800;
1/(gamma (1 + k)) with k the iterations of the level below, 800;
1/sqrt(gamma), 2,300.  The ROF annulus with lambda scaled, iterations to
the target from a cold start on the finest grid -> on the ladder:

  ======  ======  =====  ==================================
  lambda  target  nx     cold -> ladder
  ======  ======  =====  ==================================
  1       1e-3    96     700 -> 400 / 400 / 300
  1       1e-4    96     1,300 -> 500 / 500 / 900
  1       1e-4    192    1,500 -> 500 / 500 / 900 / 800
  0.1     1e-3    192    2,600 -> 500 / 300 / 600 / 800
  0.01    1e-3    96     2,400 -> 700 / 400 / 900
  10      1e-3    192    600 -> 100 / 100 / 100 / 200
  1       1e-4    64     800 -> 400 / 500 / 800
  100     1e-3    192    100 -> 100 / 100 / 100 / 100
  ======  ======  =====  ==================================

The last two rows are losses, 0.09 -> 0.13 s and 0.08 -> 0.12 s in single
runs: where the cold solve on the finest grid is already short, the
coarse levels cost more than they save.  At lambda = 0.1 and nx=192 the
ladder took 1.12 s against 2.50 s, and at lambda = 1, 1e-4, nx=96 0.23 s
against 0.24 s.  The step-rule and acceleration tables above were
measured from cold starts on one grid.

The reported duality gap is a true primal-dual gap for the problem
restricted to a box |u| <= M: the dual objective uses the conjugate of the
lower-order terms over [-M, M], which stays finite even where lambda = 0.
Any M at least as large as the sup-norm of a minimizer gives gap -> 0; for
g = 0 the data bound max(|u0|, |h|) is such an M by truncation.  M is
``ProblemSpec.box_bound``, which every gap and the zeta polish read.  The gap
is the sum of the local Fenchel-Young terms of ``_gap_terms`` (Chambolle
and Pock, JMIV 2011), the one evaluation of the dual.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import (
    ProblemSpec,
    _box_holds_minimizer,
    _cell_values,
    _densities,
    _divergence,
    _dual_values,
    _gradient,
    _total,
    _zeta_values,
)
from .errors import (
    InstabilityError,
    ResolutionError,
    ShapeMismatchError,
    SpecFileError,
)
from .fields import DualField, Field
from .geometry import GridDomain, _shape_quadrature

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
    ``solve`` and ``parse_spec`` reject a ``max_iters`` or ``check_every``
    below 1 and a NaN or negative ``gap_tol`` with a ``SpecFileError``
    naming the field.  The gap's box bound M is ``ProblemSpec.box_bound``.
    """

    max_iters: int = 20000
    gap_tol: float = 1e-5
    check_every: int = 100


def _check_config(config: SolverConfig, where="SolverConfig.") -> None:
    """Raise SpecFileError naming the first field the loop cannot honor."""
    for name in ("max_iters", "check_every"):
        value = getattr(config, name)
        if not isinstance(value, numbers.Integral) or value < 1:
            raise SpecFileError(
                f"{where}{name} must be an integer >= 1, got {value!r}")
    tol = config.gap_tol
    if not isinstance(tol, numbers.Real) or not tol >= 0:
        raise SpecFileError(
            f"{where}gap_tol must be a number >= 0, got {tol!r}")


@dataclass
class SolveResult:
    """Converged (or truncated) primal-dual state.

    ``u``/``z``/``zeta`` are the state whose gap the last check reported:
    the current iterate or the average since the last restart, whichever
    had the lower relative gap.  ``gap``, ``gap_relative`` and
    ``energy_history_raw[-1]`` describe that same state.  At each check,
    ``energy_history_raw`` holds the primal energy of the reported state.
    These, ``iterations`` and ``converged`` describe the grid of ``spec``.
    ``converged`` means a relative gap <= ``gap_tol`` and, where the box
    |u| <= M is not known to hold a minimizer, u inside it.
    ``levels`` holds one ``(nx, iterations, seconds)`` record per grid the
    solve iterated on, coarsest first; the last is the grid of ``spec``,
    so a solve without coarse levels has one.
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
    levels: tuple


@dataclass
class DualityGap:
    """A gap at a dual point (given, or ``repaired``): ``value`` sums its
    ``_gap_terms`` (cell, face, lower) and ``dual`` is ``primal - value``.
    ``conditional`` marks a gap that proves nothing: the box |u| <= M is
    not known to hold a minimizer (``energy._box_holds_minimizer``) and u
    has a cell outside it."""

    value: float
    relative: float
    primal: float
    dual: float
    dual_feasible: bool
    z: np.ndarray
    zeta: np.ndarray
    terms: tuple
    repaired: bool
    conditional: bool


def nearest_boundary_extension(spec: ProblemSpec) -> np.ndarray:
    """u0 extended inward by nearest boundary face value, (N, n): the cold
    start of ``solve``."""
    from scipy.spatial import cKDTree

    points = spec.domain.operator.points
    _, nearest = cKDTree(spec.domain.boundary_faces.point).query(points)
    return spec.u0[nearest]


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
    The gap is the sum of ``_gap_terms`` on the densities of u, computed
    once.  Least-gradient-type duals are also projected to feasibility by
    ``repair_dual`` (divergence cleaned by a Poisson solve, then rescaled
    into the dual balls), and the smaller gap is reported; it is valid
    either way since every feasible dual point underestimates the minimum.
    An infeasible *given* dual (an infinite term) is reported, never
    repaired away.
    """
    dens = _densities(spec, u)
    z = _dual_values(spec.domain, z, spec.n_channels)
    zeta = _zeta_values(spec, zeta)
    primal = _total(dens.cell, dens.face, dens.lower)
    terms = _gap_terms(spec, dens, z, zeta)
    gap = _total(*terms)
    conditional = bool(np.any(np.abs(dens.u) > spec.box_bound)
                       and not _box_holds_minimizer(spec))
    if not np.isfinite(gap):  # an infeasible given dual
        return DualityGap(np.inf, np.inf, primal, -np.inf, False, z, zeta,
                          terms, False, conditional)
    scored, repaired = (z, zeta), False
    z_rep, zeta_rep = repair_dual(spec, z, zeta)
    if z_rep is not z:
        terms_rep = _gap_terms(spec, dens, z_rep, zeta_rep)
        gap_rep = _total(*terms_rep)
        if gap_rep < gap:
            gap, terms, scored, repaired = (gap_rep, terms_rep,
                                            (z_rep, zeta_rep), True)
    dual = primal - gap
    rel = gap / max(abs(primal), abs(dual), 1e-12)
    return DualityGap(gap, rel, primal, dual, True, *scored, terms, repaired,
                      conditional)


def _drift(spec, z, zeta):
    """v = -G^T z + B^T (w_b / h^d zeta), the dual field the u update sees."""
    domain = spec.domain
    beta = domain.boundary_faces.weight / domain.cell_volume
    return (_divergence(domain.operator, z)
            + domain.operator.Bt @ (beta[:, None] * zeta))


def _gap_terms(spec, dens, z, zeta):
    """The local Fenchel-Young terms of (u; z, zeta), given the
    ``energy._densities`` of u: the one evaluation of the dual.

    Per cell h^d [f(Gu) + f*(z) - <z, Gu>], per boundary face
    w_b [f^inf(j tensor nu) + i(zeta) - <zeta, j>] with j = u0 - Bu and i
    the indicator of f*(x_b, zeta tensor nu) < inf, and per cell
    h^d [l(u) + q_M(v) - <v, u>] with l(u) = g u + lambda/2 |u - h|^2,
    v = ``_drift`` and q_M = ``_box_conjugate``.  The pairings cancel, so
    the three sum to the primal minus the dual
    sum w_b <zeta, u0> - h^d sum f*(z) - h^d sum q_M(v).  Each is >= 0 (the
    last only where |u| <= M = ``spec.box_bound``), 0 exactly where its
    optimality condition holds, inf where its dual variable is infeasible.
    """
    domain, f = spec.domain, spec.integrand
    op, bf, vol = domain.operator, domain.boundary_faces, domain.cell_volume
    cell = dens.cell + vol * (f.conjugate(op.points, z)
                              - np.sum(z * dens.grad, axis=(1, 2)))
    conj_b = f.conjugate(bf.point, zeta[:, :, None] * bf.normal[:, None, :])
    face = dens.face + bf.weight * (np.where(np.isfinite(conj_b), 0.0, np.inf)
                                    - np.sum(zeta * dens.jump, axis=1))
    v = _drift(spec, z, zeta)
    q = _box_conjugate(v, spec.g, spec.lam[:, None], spec.h, spec.box_bound)
    lower = dens.lower + vol * np.sum(q - v * dens.u, axis=1)
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
    range and g = lambda = 0; otherwise (z, zeta) come back as given.  z
    may be padded or compressed; the repaired pair is always compressed:
    a planar (N, n, d) z and an (m, n) zeta.
    """
    f = spec.integrand
    domain = spec.domain
    if (f.n_rows != 1 or not f.homogeneous or f.dual_radius is None
            or np.any(spec.lam != 0) or np.any(spec.g != 0)):
        return z, zeta
    op = domain.operator
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
        z_rep = z_rep - _gradient(op, op.neumann_solve(-v)[:, None])
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
    return s * z_rep, s * zeta


_POLISH_SWEEPS = 3


def _polish_zeta(spec, z_rep, zeta, r_b):
    """Coordinate-exact ascent of the dual objective in the zeta block.

    For fixed z the dual objective is w zeta u0 - M h^d |divergence balance|
    per boundary cell, with M = ``spec.box_bound``, piecewise linear in
    each zeta; the 1-D maximum sits at -r_b, +r_b, or the balance kink, so
    evaluating three candidates per face is exact.  The faces of one
    (axis, sign) group share no cell, so updating a group at once and the
    groups in turn is a plain coordinate ascent that can only improve the
    bound.  Each cell's backflow is read from ``Bt``.
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
    flow = beta * zeta[:, 0]  # backflow of each face
    # axis-major, sign -1 before +1: the Gauss-Seidel order of the groups
    groups = []
    for a in range(domain.dim):
        for sgn in (-1, 1):
            sel = np.flatnonzero((bf.axis == a) & (bf.sign == sgn))
            cell = op.face_cells[sel]
            groups.append((sel, cell, div_fixed[cell], beta[sel], r_b[sel],
                           wu0[sel], np.arange(sel.size)))
    for _ in range(_POLISH_SWEEPS):
        for sel, cell, div_c, b, r, wu, cols in groups:
            res_wo = (div_c + (op.Bt @ flow)[cell]) - b * zeta[sel, 0]
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


_TRACE_SAMPLES = 8192  # boundary samples of boundary_l1_distance


def boundary_l1_distance(spec: ProblemSpec, u, u0_fn) -> float:
    """L1 distance of the piecewise-constant discrete trace to a continuum datum.

    Quadrature at sub-face resolution: sample the true boundary, read the
    adjacent-cell value of the nearest boundary face, and integrate
    |trace - u0| dH^(d-1).  Unlike the per-face ``trace_error``, this sees
    the O(h) error of representing a datum jump inside a single face, so it
    is the right quantity for refinement studies of trace attainment.
    The boundary samples are those of the analytic certificates
    (``geometry._shape_quadrature``): 8,192 equally spaced angles
    split over the circles of a 2-D ``Ball`` or ``Annulus``, or the two
    endpoints of an interval; other shapes raise ``ShapeMismatchError``.
    """
    from scipy.spatial import cKDTree

    domain = spec.domain
    _, _, pts, weight, _ = _shape_quadrature(domain.shape, 0, _TRACE_SAMPLES)
    u_adj = domain.operator.B @ _cell_values(domain, u)  # (m, n)
    _, nearest = cKDTree(domain.boundary_faces.point).query(pts)
    datum = np.asarray(u0_fn(pts), dtype=float)
    if datum.ndim == 1:
        datum = datum[:, None]
    diff = np.linalg.norm(u_adj[nearest] - datum, axis=-1)
    return float(np.sum(weight * diff))


def prolong_state(coarse_spec: ProblemSpec, coarse: SolveResult,
                  fine_spec: ProblemSpec):
    """Nearest-neighbor transfer of (u, z, zeta) to a finer grid (warm start).

    Reads the Field and DualField of ``coarse`` and returns the compressed
    state of the fine grid: u (N, n) from the nearest inside coarse cell,
    z (N, n, d) from the inside coarse cell containing each fine interior
    face (zero elsewhere), and zeta (m, n) from the nearest coarse boundary
    face, which ``solve`` takes as they are.
    """
    cd = coarse_spec.domain
    return _prolong(cd, _cell_values(cd, coarse.u), _dual_values(cd, coarse.z),
                    coarse.zeta, fine_spec.domain)


def _containing_cell(cd, pts):
    """The number of the cell of domain ``cd`` that contains each point,
    -1 where that cell is outside."""
    idx = np.floor((pts - cd.origin) / cd.h).astype(int)
    for b in range(cd.dim):
        idx[:, b] = np.clip(idx[:, b], 0, cd.n_cells[b] - 1)
    return cd.cell_index[tuple(idx.T)]


def _prolong(cd, u, z, zeta, fd):
    """``prolong_state`` on the compressed state of coarse domain ``cd``."""
    from scipy.spatial import cKDTree

    op = fd.operator
    # a fine center lies 0.35 h_c from the center of the coarse cell that
    # contains it and at least 0.79 h_c from any other, so where that cell
    # is inside it is the nearest inside one; only the other fine cells
    # need a search
    nearest = _containing_cell(cd, op.points)
    out = nearest < 0
    if np.any(out):
        _, nearest[out] = cKDTree(cd.operator.points).query(op.points[out])
    u = u[nearest]
    z_f = np.zeros((len(op.points), z.shape[1], fd.dim))
    for a in range(fd.dim):
        face_pos = op.points.copy()
        face_pos[:, a] += 0.5 * fd.h
        cell = _containing_cell(cd, face_pos)
        z_f[:, :, a] = np.where(cell[:, None] >= 0, z[cell, :, a], 0.0)
    z_f = np.where(op.interior, z_f, 0.0)

    _, nearest = cKDTree(cd.boundary_faces.point).query(
        fd.boundary_faces.point)
    return u, z_f, zeta[nearest]


def _restriction(spec: ProblemSpec) -> Optional[ProblemSpec]:
    """The spec on half the cells per axis, or None where the domain's nx
    is odd or ``GridDomain`` rejects nx // 2.

    u0 on each coarse boundary face is that of the nearest fine face, g, h
    and lambda those of the nearest fine inside cell; the integrand and the
    box bound M are the fine spec's.
    """
    from scipy.spatial import cKDTree

    fine = spec.domain
    if fine.nx % 2:
        return None
    try:
        coarse = GridDomain(fine.shape, fine.nx // 2)
    except ResolutionError:
        return None
    _, face = cKDTree(fine.boundary_faces.point).query(
        coarse.boundary_faces.point)
    _, cell = cKDTree(fine.operator.points).query(coarse.operator.points)
    return ProblemSpec(spec.integrand, coarse, spec.u0[face], g=spec.g[cell],
                       h=spec.h[cell], lam=spec.lam[cell],
                       box_bound=spec.box_bound)


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
    the arguments of ``duality_gap``.  Without one, the spec is first
    solved on the coarser grids of ``_restriction``, each level started
    from the prolonged state and the step scale of the one below (see the
    module docstring); ``levels`` records them.
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
    levels = []
    # the prolonged start is handed to the loop without a name here, so
    # the loop can drop it once copied in
    (u, z, zeta), _, info = _iterate(
        spec, config, (warm_start, None) if warm_start is not None
        else _coarse_start(spec, config, levels), levels)
    op = spec.domain.operator
    return SolveResult(u=Field(spec.domain, op.pad(u)),
                       z=DualField(spec.domain, op.pad(z)), zeta=zeta,
                       levels=tuple(levels), **info)


def _scalars(dg):
    """What the loop keeps of a gap: (relative, value, primal, conditional)."""
    return dg.relative, dg.value, dg.primal, dg.conditional


def _coarse_start(spec, config, levels):
    """The start ``(state, t)`` of ``spec``'s grid: the compressed state
    prolonged from a solve of its restriction, itself started the same
    way, and the step scale t that solve ended with; None on the coarsest
    grid.  Each level's spec, domain and state are released on return."""
    coarse = _restriction(spec)
    if coarse is None:
        return None
    state, t, _ = _iterate(coarse, config,
                           _coarse_start(coarse, config, levels), levels)
    return _prolong(coarse.domain, *state, spec.domain), t


def _iterate(spec, config, start, levels):
    """The primal-dual loop on one grid; appends ``(nx, iterations,
    seconds)`` to ``levels``.

    ``start`` is None, for ``nearest_boundary_extension`` with zero duals
    at the step scale t = max(1, 1/gamma), or a pair ``((u, z, zeta), t)``
    whose t None means that same scale; where gamma = 0, t is 1.  Returns
    the compressed (u, z, zeta) whose gap the last check reported, the
    final t and the other fields of its ``SolveResult`` but ``levels``."""
    t_start = time.perf_counter()
    f = spec.integrand
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
    # has the same sum; with no interior face z = 0, and any step is exact
    sigma_z = vol / max(float(K_grad.power(2.0 - al).sum(axis=1).max()),
                        1e-300)
    col = K_grad.power(al).sum(axis=0) + Bt @ bf.weight**al
    tau = (vol / np.maximum(col, 1e-300))[:, None]
    # net zeta step on (u0 - B u): sigma_row * w = w^(alpha - 1)
    sigma_zeta = (bf.weight ** (al - 1.0))[:, None]

    if start is not None:
        (u0_w, z0_w, zeta0_w), t = start
        u = _cell_values(domain, u0_w, n)
        z = np.where(op.interior, _dual_values(domain, z0_w, n), 0.0)
        zeta = _zeta_values(spec, zeta0_w).copy()
        # a prolonged start is referenced nowhere else: free its copied
        # z and zeta
        del start, u0_w, z0_w, zeta0_w
    else:
        t = None
        u = nearest_boundary_extension(spec)
        z = _dual_values(domain, np.zeros((len(pts), n, d)))
        zeta = np.zeros((len(bf), n))
    u_bar = u
    exterior = ~op.interior
    radius = np.broadcast_to(
        np.asarray(f.dual_radius(bf.point), dtype=float), (len(bf),)
    )

    lam = spec.lam[:, None]
    g_arr = spec.g
    lam_h = lam * spec.h
    # accelerated schedule: primal steps t tau, dual steps sigma / t, from
    # the given t or t = max(1, 1/gamma) down to the floor t = 1; gamma is
    # the strong-convexity modulus of the lower-order term in the metric
    # of the steps
    gamma = float(spec.lam.min() * tau.min())
    if gamma == 0:
        t = 1.0
    elif t is None:
        t = max(1.0, 1.0 / gamma)
    # where gamma = 0 and the box |u| <= M the gap's dual is taken over
    # holds a minimizer (g = 0 and M at least the data bound, by
    # truncation), the u update is the prox of l + the box's indicator;
    # where the box is not known to hold one, a state outside it is not
    # converged whatever its gap (``DualityGap.conditional``)
    box = (spec.box_bound if gamma == 0 and _box_holds_minimizer(spec)
           else None)

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
        if box is not None:
            np.clip(u, -box, box, out=u)

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
            # only the scalars of each gap are kept, and a losing average
            # is dropped, so the arrays of one gap are freed before the
            # next is evaluated
            kept = (u, z, zeta)
            score = _scalars(duality_gap(spec, u, z, zeta))
            if n_avg > 1:
                avg = (sum_u / n_avg, sum_z / n_avg, sum_zeta / n_avg)
                avg_score = _scalars(duality_gap(spec, *avg))
                if avg_score[0] < score[0]:
                    kept, score = avg, avg_score
                del avg
            rel_gap, gap_now, primal, conditional = score
            if not np.isfinite(gap_now):
                raise InstabilityError(
                    f"non-finite duality gap at iteration {it}")
            energies_raw.append(primal)
            iters_log.append(it)
            gaps.append(rel_gap)
            if rel_gap <= config.gap_tol and not conditional:
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

    levels.append((domain.nx, it, time.perf_counter() - t_start))
    return kept, t, dict(energy_history_raw=np.asarray(energies_raw),
                         gap_history=np.asarray(gaps),
                         check_iters=np.asarray(iters_log, dtype=int),
                         iterations=it, converged=converged, gap=gap_now,
                         gap_relative=rel_gap)

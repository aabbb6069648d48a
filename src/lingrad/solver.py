"""Primal-dual saddle-point solver for the discrete relaxed functional.

The saddle form dualizes both the integrand, via biconjugacy
f(x, grad u) = sup_z <z, grad u> - f*(x, z), and the boundary penalty, via
its own multiplier zeta constrained to the nu-section of the dual range.
The solver takes integrands whose dual range is a ball (``dual_radius``),
so the section is the ball of that radius (for scalar TV the interval
[-1, 1]).  One PDHG step T maps x = (u, z, zeta) to (u+, z+, zeta+),
primal first:

  (i)   u+   <- closed-form prox of the lower-order terms at
                u + t tau (-G^T z + B^T (w_b / h^d zeta) - g),
  (ii)  u_bar <- u+ + theta (u+ - u) (over-relaxation), t <- theta t,
  (iii) z+   <- prox of f* at z + sigma/t G u_bar, per cell,
  (iv)  zeta+ <- project zeta + sigma/t (u0 - B u_bar) onto the ball,

with G and B the products of the domain (``GridDomain.grad`` and
``GridDomain.trace``): forward differences on interior faces, and the
selection of each boundary face's inside cell.  The zeta backflow
B^T (w_b / h^d zeta) couples each face through its geometric weight
w_b, the same weight as in the boundary penalty.  At a fixed point of T, -G^T z + B^T (w_b / h^d zeta) =
lambda (u - h) + g, the discrete Euler-Lagrange equation, and the pair
(z, zeta) is the certificate the verification module consumes.  The solver
iterates T in the restarted Halpern scheme below.

The loop, the gap and the dual repair run on compressed vectors: u is
(N, n) over the N inside cells, z is (N, n, d) on the + face of each
inside cell (the layout the conjugate prox takes), zeta is (m, n) over
boundary faces.  z and the interior mask are stored planar, as (N, n, d)
views of C-contiguous (d, N, n) arrays: ``G u_bar`` is made in that
layout, ``G^T z`` reads it without a copy, and the prox reduces over the
n and d axes of contiguous planes.  The loop keeps x, its Halpern anchor
x0 and T(x) each in one flat buffer (u, then z planar, then zeta), so
that the Halpern step and a restart are whole-buffer operations; the
buffer is only a storage layout.  The u update forms its drift
-G^T z + B^T (w_b / h^d zeta) with two of the operator's products, and
the dual ascent forms G u_bar and B u_bar with the other two.  These
are stencil differences on the grid's neighbor table, as Chambolle and
Pock write them, and gathers and ``bincount`` sums over the boundary
faces' cells (``GridDomain``); no sparse matrix enters the loop.
Each update is written in place into an array the iteration already
owns: the dual prox inputs into the output of their ascent product, the
interior mask into the prox output, T(x) into its buffer, and the
Halpern step into x.  The data g, h and lambda, the
cold start, the coarse levels, their prolongation and the ``SolveResult``
are compressed too, the result holding the arrays the last check scored,
uncopied; a solve makes no padded array, and reads one only from a padded
warm start.

The steps follow the diagonal alpha-exponent rule of Pock and Chambolle
(ICCV 2011) for K = [h^d G; w_b B], with alpha = ``_STEP_ALPHA`` = 0.5:
each dual step is the inverse of its row sum of |K|^(2 - alpha), each
primal step h^d over its column sum of |K|^alpha.  The rule needs no
operator norm estimate and is stable for any alpha in [0, 2], the zeta
block included.  It is the only rule.  Scalar steps 0.99/L, with
L = sqrt(4 d)/h the norm bound of G alone, were measured against it in
the restarted averaging loop that the Halpern iteration replaced, as
iterations to the target relative gap:

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
gamma = min(lambda) min(tau).  A cold start (the coarsest level of the
coarse-to-fine ladder below, or a grid with no coarser level) starts at
t = max(1, 1/gamma), so the first prox has gamma t = 1 unless gamma > 1.
Every given start, a prolonged ladder level or a caller's ``warm_start``,
runs t = 1, as does a subnormal gamma, whose 1/gamma overflows and would
make every dual step 0.  After each u update

  theta = max(1 / sqrt(1 + 2 gamma t), 1 / t),   t <- theta t.

Scaling T by t and Sigma by 1/t keeps ||Sigma^(1/2) K T^(1/2)|| <= 1
(Pock and Chambolle, Lemma 2), so every step is stable, whatever t >= 1 a
level starts at.  The floor theta >= 1/t keeps t >= 1: primal steps never
get smaller than the plain ones.  t carries across restarts.  Where
lambda vanishes on some cell, gamma = 0, theta = 1 and t = 1 throughout,
and the steps are the plain ones.

Where g = 0 and M = ``ProblemSpec.box_bound`` is at least the data bound
max(|u0|, |h|), the box |u| <= M over which the gap takes its dual holds
a minimizer (by truncation, whatever lambda), and step (i) is followed
by a clip of u+ to [-M, M]: the exact prox of the lower-order term plus
the indicator of the box (the term is separable, so the prox of the sum
is the clipped prox).  The scored state T(x) then never leaves the box
(the Halpern iterate x, a reflection, may), and no lower-order term of
its gap is negative.  Elsewhere the clip is left out.  With g != 0 the
default M is a heuristic, and a spec may set any M; clipping there would
solve the box-constrained problem instead and report it as converged,
while without the clip an iterate past M shows as negative lower-order
gap terms and in the certificate's count of cells outside the box, and
such a state is not converged whatever its gap
(``DualityGap.conditional``).

The plain steps grow lopsided as the grid is refined (in 2-D a primal
step is about h/2 times a dual step), which the schedule undoes while t
is large.  Iterations to the target on the ROF annulus with lambda
scaled, on one grid (an odd nx has no coarser level) from the start of
``nearest_boundary_extension``, plain (that start given as a
``warm_start``) -> accelerated (cold):

  ======  ======  =====  ======================
  lambda  target  nx     plain -> accelerated
  ======  ======  =====  ======================
  1       1e-3    97     1,700 -> 500
  1       1e-3    193    4,600 -> 600
  1       1e-3    385    12,600 -> 1,100
  1       1e-4    65     1,500 -> 400
  1       1e-4    97     2,500 -> 800
  1       1e-6    49     1,800 -> 1,200
  10      1e-3    65     300 -> 300
  10      1e-3    97     600 -> 500
  10      1e-3    193    1,400 -> 900
  100     1e-3    65     200 -> 200
  100     1e-3    193    300 -> 300
  0.1     1e-3    129    2,100 -> 800
  0.1     1e-3    193    3,800 -> 1,000
  0.1     1e-3    65     1,000 -> 500
  0.1     1e-4    65     1,000 -> 500
  0.01    1e-3    65     1,300 -> 900
  0.01    1e-3    97     1,700 -> 1,300
  0.01    1e-4    65     1,300 -> 1,000
  ======  ======  =====  ======================

A tiny lambda still pays for the large early steps, since t decays from
1/gamma over about 1/gamma iterations: at lambda = 1e-4 the one-grid
solve at nx=65 stops at 5,000 iterations with a relative gap of 0.48
(lambda = 0 converges in 1,000).  A start near a solution pays too, so
only a cold start is accelerated: from the state prolonged from the nx/2
solve, t = max(1, 1/gamma) took 500 / 900 / 1,000 / 1,200 iterations at
(lambda, nx, target) = (1, 192, 1e-3) / (1, 128, 1e-4) / (0.1, 192,
1e-3) / (0.01, 128, 1e-3), the plain steps 300 in each.  Measured with
the averaging loop, resetting t at each restart, a fixed t with theta =
1 and a start at 1/sqrt(gamma) all lost.

The loop is restarted reflected Halpern PDHG, r2HPDHG of Lu and Yang,
"Restarted Halpern PDHG for linear programming" (arXiv:2407.16144), in
both regimes.  With T the step above and x0 an anchor, each iteration sets

  x <- (k + 1)/(k + 2) (2 T(x) - x) + 1/(k + 2) x0,

k counting the iterations since x0 was set.  Halpern's last iterate has
the O(1/k) fixed-point rate that plain PDHG has only for its average
(Lieder, "On the convergence rate of the Halpern-iteration", Optim. Lett.
15, 2021), so a gap check scores one state, with one ``duality_gap``
call: T(x), whose z+ and zeta+ are prox outputs, so its dual is
feasible.  Where the u update clips to the box, a minimizer also lies in
the data range [min(u0, h), max(u0, h)] (truncation lowers the energy),
and the scored u is T(x)'s truncated to that range: the primal energy,
and with it the gap, can only fall, and the reported u keeps the datum's
range (on the half-disk at nx=64 to 1e-5, T(x)'s own u dips to -3.5e-6
next to the datum's jumps).  The scored state is the one a solve
reports.  A check restarts by the "sufficient decay" rule of Applegate,
Hinder, Lu and Lubin, "Faster first-order primal-dual methods for linear
programming using restarts and sharpness" (arXiv:2105.12715), also used
by PDLP (arXiv:2106.04756), on the certified relative gap below: once it
is at most ``_RESTART_DECAY`` = 0.2 times the relative gap at the last
restart, x = x0 = the scored state and k = 0.  The reference starts at
+inf, with two provisos.  A negative gap, which only a state outside a
box not known to hold a minimizer has, proves no decay: it neither
restarts nor becomes the reference, which would stop every later
restart.  And the first restart needs the target more than one decay
away (0.2 times the gap above ``gap_tol``): a start already that near its
target runs on from its anchor, where a restart cuts the gap far past
the target by the next check (the half-disk warm-started at nx=64 went
from 3.1e-2 to 2.8e-3 against a target of 2e-2 in 100 iterations, which
put the trace errors of a refinement study whose target follows h out
of order).  t is carried across restarts, and where gamma > 0 the
schedule stays inside T: with the plain steps (t = 1) the ROF annulus at
nx=97 on one grid takes 2,500 iterations to 1e-4, with t 800.  Restarts
are decided at gap checks only: in a prototype, r2HPDHG's own rule on
the fixed-point residual, checked every 50 iterations, drove the trace
errors of the half-disk refinement study (acceptance criterion 5) to
roundoff and out of order (2.4e-7 / 3.5e-7 / 1.6e-6 at nx 64 / 128 /
256).

Some solves lose against the restarted averaging loop that the Halpern
iteration replaced, which scored the running average of (u, z, zeta)
and the current iterate at every check.  Criterion 10's half-disk at
nx=48 to 1e-6 (``check_every`` 250) loses on its nx=24 level.  With the datum
truncated at b = 1 / 0.25 / 0.5 it takes 16,250 + 15,500 /
32,000 + 12,000 / 25,000 + 13,000 iterations on nx 24 + 48, against
6,250 + 18,250 / 19,000 + 7,750 / 3,750 + 11,750, and the three solves
10.6 s against 9.2 s (back-to-back single runs on a 2-vCPU machine).
The averaging loop won there with its current iterate: plain PDHG, whose
last iterate converges fast on this problem (scoring x = T(x) with no
anchor takes 6,250 / 10,250 / 3,250 iterations at nx=24), while the
anchored Halpern iterate decays as 1/k between restarts.  No restart rule
at checks tried fixed the nx=24 level, as iterations there for b = 1 /
0.25 / 0.5: sufficient decay of the gap, or k at least 0.36 times the
iterations so far (PDLP's artificial restart), took 14,000 / 28,250 /
18,000; r2HPDHG's three-part rule on the fixed-point residual in the
step metric (sufficient decay 0.2, necessary decay 0.8 once the residual
rises, or that artificial restart) the same; sufficient decay of that
residual alone 17,250 / 33,000 / 20,750; and restarting at every check,
measured before the scored u was truncated, 16,000 / 41,500 / 23,750.
The ROF annulus at lambda = 10, nx=192 to 1e-3 takes
700 iterations over the ladder (300 / 100 / 100 / 200), against 500.
Criterion 5's annulus contrast (nx=256 from the nx=128 solve, 1e-3,
``check_every`` 500) takes 2,000 against 1,000: its first check is
within one decay of the target, so no restart is made.  And the
weighted 1-D TV to 1e-4 stops at the cap at nx 64 and 256 (below).

A solve without a ``warm_start`` does not start cold on its own grid.
It first solves the
restriction of its spec (``_restriction``): the same integrand and box
bound M on half the cells per axis, with u0 taken from the nearest fine
boundary face and g, h, lambda the mean over the inside children of each
coarse cell, the cell-centred restriction of Trottenberg, Oosterlee and
Schueller (Multigrid, 2001).  Every cell lookup between two levels is
the one integer map ``GridDomain.coarse_cells``: both grids' origins lie
P = 2 ghost cells outside the shape's box, so fine grid index j lies in
coarse cell (j + P) // 2 on each axis, and the children of a coarse cell
are the inside fine cells mapped to it, whose means are ``bincount``
sums.  A coarse cell with no inside child (on a thin annulus) takes the
data of the nearest fine inside cell.  That
solve starts the same way, so the ladder runs down to the coarsest grid
``GridDomain`` allows (nx >= 16, each nx even).  Each level runs under
the caller's ``SolverConfig`` (the same gap_tol, max_iters and
check_every) and hands its compressed (u, z, zeta) to the next finer
level through ``_prolong``, the compressed core of ``prolong_state``;
its spec, domain, factors and state are released before the finer level
iterates, and the prolonged state once the finer level has copied it in.
The prolongation reads u from the coarse cell that holds each fine
center, which is the nearest inside coarse cell wherever it is inside;
only the other fine cells search for the nearest (200 of 21,736 cells of
the ROF annulus at nx=192), among the coarse cells that own a boundary
face.  It reads z on each fine face of axis a from the coarse cell
holding the center of the cell across it, ``coarse_cells(coarse, a)``:
the coarse cell the face lies in, or the one above it where the face
lies on a coarse face (reading instead the cell below, whose + face is
that coarse face, is measured in ROADMAP item 2).  The searches for u,
the face-to-face maps of u0 and zeta, the cold start and
``boundary_l1_distance`` all call ``_nearest``, an exact brute-force
argmin of squared distances that takes the first point on
ties, so a solve loads no k-d tree (``scipy.spatial``, which also
imports ``scipy.special``: 15.8 MB of resident memory on top of
``scipy.sparse``).  ``scipy.sparse`` itself (20.6 MB) loads only with the
Neumann factorization of ``repair_dual``, so a solve that the repair
passes by (lambda or g nonzero, or an integrand that is not scalar and
homogeneous) imports no scipy module.
``SolveResult.levels`` records each level.
Iterations per level, coarsest first, against a cold start on the finest
grid alone, with the caller's cap of 30,000 iterations per level:

  ==================================  ===============================  ========
  case, target                        ladder                           cold
  ==================================  ===============================  ========
  least-gradient annulus, 96, 1e-3    300 / 200 / 200                  1,000
  least-gradient annulus, 256, 1e-3   200 / 300 / 300 / 400 / 500      2,800
  BV-attainment disk, 96, 1e-3        500 / 300 / 400                  1,900
  BV-attainment disk, 256, 1e-3       200 / 300 / 300 / 600 / 800      6,400
  weighted 1-D TV, 256, 1e-2          700 / 300 / 500 / 800 / 400      > 30,000
  half-disk, 64, 1e-5                 3,600 / 1,000 / 800              > 30,000
  ROF annulus, 96, 1e-3               200 / 300 / 200                  500
  ROF annulus, 192, 1e-3              200 / 300 / 200 / 300            600
  ROF annulus, 384, 1e-3              200 / 300 / 200 / 300 / 200      1,100
  ==================================  ===============================  ========

Criterion 10's half-disk at nx=48 to 1e-6 (``check_every`` 250) loses in
iterations for two of its three data: with the datum truncated at b = 1 /
0.25 / 0.5 the ladder takes 16,250 + 15,500 / 32,000 + 12,000 / 25,000 +
13,000 against 34,500 / 36,750 / 26,500 cold, but less time (3.2 / 3.7 /
3.7 s against 5.5 / 6.6 / 4.9 s in single runs).  Below nx of about 48 an
iteration costs about the same at any size, so a long coarse level is not
cheap there.  Measured with the averaging loop, looser coarse tolerances
lose: with 10x the target, sqrt(target) or max(target, 1e-3) on the
coarse levels, the disk at nx=96 to 1e-3 took 3,600 / 4,500 / 1,100 fine
iterations (1,100 with the target itself), and the half-disk at nx=64 to
1e-5 took 7,100 / 22,600 / 15,900 (3,400).  A coarsest level of 48
instead of 24 took 1,200 + 600 iterations on the least-gradient annulus
at nx=96 against 500 + 300 + 600.

Only the coarsest level of a ladder is a cold start.  Carrying t up the
ladder instead, each level starting at the t the level below ended
with, took 300 / 400 / 200 / 400 iterations on the ROF annulus at nx=192
to 1e-3 (200 / 300 / 200 / 300 with plain steps on the finer levels),
and at lambda = 1e-6 on nx=64 it left all three levels at a cap of
5,000, where now only the coarsest stops there.  The ROF annulus with
lambda scaled, iterations and seconds to the target from a cold start
on the finest grid alone -> on the ladder (single runs on a 2-vCPU
machine):

  ======  ======  =====  ================================================
  lambda  target  nx     cold -> ladder
  ======  ======  =====  ================================================
  1       1e-3    96     500, 0.11 s -> 200 / 300 / 200, 0.08 s
  1       1e-4    96     800, 0.17 s -> 300 / 200 / 200, 0.10 s
  1       1e-4    192    800, 0.61 s -> 300 / 200 / 200 / 400, 0.32 s
  0.1     1e-3    192    1,000, 0.76 s -> 300 / 200 / 200 / 300, 0.26 s
  0.01    1e-3    96     1,300, 0.24 s -> 500 / 200 / 200, 0.10 s
  10      1e-3    192    900, 0.67 s -> 300 / 100 / 100 / 200, 0.18 s
  1       1e-4    64     400, 0.05 s -> 300 / 200 / 300, 0.06 s
  100     1e-3    192    300, 0.27 s -> 100 / 100 / 100 / 100, 0.11 s
  ======  ======  =====  ================================================

In four rows the ladder takes more iterations in all than the cold solve,
but its coarse iterations are cheap, and it is faster in every row but
the nx=64 one.  The step-rule and acceleration tables above were
measured from cold starts on one grid.

Total iterations over the ladder of a cold solve (``check_every`` 100,
at most 30,000 per level) to a certified relative gap of 1e-2 / 1e-3 /
1e-4, then the seconds of the 1e-4 solve, on the grid gallery cases;
single runs on a 2-vCPU machine:

  ======================  ======  =======================  =========
  case                    nx      1e-2 / 1e-3 / 1e-4       1e-4 time
  ======================  ======  =======================  =========
  annulus_least_gradient  64      500 / 800 / 1,200        0.29 s
  annulus_least_gradient  128     700 / 1,200 / 1,700      0.47 s
  annulus_least_gradient  256     800 / 1,700 / 2,400      1.8 s
  rof_annulus             64      500 / 700 / 800          0.08 s
  rof_annulus             128     600 / 1,000 / 1,100      0.19 s
  rof_annulus             256     700 / 1,200 / 1,500      0.67 s
  disk_bv_attainment      64      1,000 / 800 / 2,400      0.24 s
  disk_bv_attainment      128     1,200 / 1,400 / 2,900    0.55 s
  disk_bv_attainment      256     1,400 / 2,200 / 3,900    2.9 s
  weighted_tv_1d          64      1,500 / 7,700 / *
  weighted_tv_1d          128     2,300 / 8,700 / 45,100   2.2 s
  weighted_tv_1d          256     2,700 / 12,900 / *
  ======================  ======  =======================  =========

Against the baseline, the ladder with the averaging loop (700 / 1,100 /
1,800, 1,100 / 1,600 / 2,600 and 1,400 / 2,500 / 4,700 on the
least-gradient annulus; 300 / 700 / 1,700, 600 / 1,100 / 2,400 and
1,000 / 1,600 / 3,600 on the ROF annulus; 800 / 1,500 / 2,800, 1,200 /
2,400 / 4,500 and 1,700 / 3,700 / 7,700 on the disk; 2,600 / 7,100 /
29,400, 3,800 / 12,200 / 53,800 and 4,500 / 16,200 / 56,800 on the
weighted 1-D TV) these cells need more: the ROF annulus at nx=64 to
1e-2 (500 against 300); the disk at nx=64 to 1e-2 (1,000 against 800);
the weighted 1-D TV at nx=64 to 1e-3 (7,700 against 7,100); and the
weighted 1-D TV to 1e-4 (*) at nx 64 and 256, where the finest level
stops at its cap of 30,000 unconverged (40,000 / 69,500 in all).  There
the gap sits on a plateau near 2e-4, dominated by the lower-order (box)
terms M |v - g| of the cells where lambda vanishes, with g != 0 and
M = 8; the averaging loop sat on the same plateau and left it late (at
iteration 21,400 of its nx=64 level).

The restriction takes the mean over the inside children, not the first
of them: reading the first inside child left the weighted 1-D TV to
1e-3 at its cap of 30,000 on its finest level at nx 128 and 256.

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

import math
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
    _dual_values,
    _total,
    _zeta_values,
)
from .errors import (
    InstabilityError,
    ResolutionError,
    ShapeMismatchError,
    SpecFileError,
)
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

    ``u``/``z``/``zeta`` are compressed over ``spec.domain`` (see
    ``GridDomain``): u is (N, n) on the inside cells, in the order of
    ``points``, z the planar (N, n, d) face values and zeta (m, n) on the
    boundary faces; ``domain.pad(u)`` and ``domain.pad(z)`` are their
    padded forms, as an LGF1 file holds them.
    They are the state whose gap the last check reported:
    T(x), the PDHG step from the last Halpern iterate x (see the module
    docstring), so z and zeta are prox outputs and lie in their dual
    balls; where the box |u| <= M holds a minimizer
    (``energy._box_holds_minimizer``), u is truncated to the data range.
    ``gap``, ``gap_relative`` and ``energy_history_raw[-1]`` describe
    that same state.  At each check, ``energy_history_raw`` holds the
    primal energy of the state it scored.
    These, ``iterations`` and ``converged`` describe the grid of ``spec``.
    ``converged`` means a relative gap <= ``gap_tol`` and, where the box
    |u| <= M is not known to hold a minimizer, u inside it.
    ``levels`` holds one ``(nx, iterations, seconds)`` record per grid the
    solve iterated on, coarsest first; the last is the grid of ``spec``,
    so a solve without coarse levels has one.
    """

    u: np.ndarray
    z: np.ndarray
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
    """u0 extended inward, (N, n): each inside cell takes the value of the
    boundary face whose point is nearest its center, the first such face
    on ties (``_nearest``).  The cold start of ``solve``."""
    domain = spec.domain
    return spec.u0[_nearest(domain.boundary_faces.point, domain.points)]


# query-reference pairs per block of _nearest's distance table
_NEAREST_BLOCK = 1 << 16


def _nearest(ref, query):
    """The index of the row of ``ref`` (r, d) nearest to each row of
    ``query`` (q, d), the first such row on ties: an exact brute-force
    argmin of squared distances, in blocks of about ``_NEAREST_BLOCK``
    pairs."""
    nearest = np.empty(len(query), dtype=np.intp)
    rows = max(1, min(len(query), _NEAREST_BLOCK // len(ref)))
    d2 = np.empty((rows, len(ref)))
    sq = np.empty_like(d2)
    # one contiguous row per axis: the differences are then formed in
    # contiguous runs of ref
    ref, query = np.ascontiguousarray(ref.T), np.ascontiguousarray(query.T)
    for lo in range(0, query.shape[1], rows):
        q = query[:, lo:lo + rows, None]
        block, diff = d2[:q.shape[1]], sq[:q.shape[1]]
        np.subtract(q[0], ref[0], out=block)
        block *= block
        for a in range(1, len(ref)):
            np.subtract(q[a], ref[a], out=diff)
            diff *= diff
            block += diff
        nearest[lo:lo + len(block)] = np.argmin(block, axis=1)
    return nearest


def _box_conjugate(v, g, lam, h, M):
    """Pointwise sup over |u| <= M of (v - g) u - lam/2 (u - h)^2, per channel."""
    s = v - g
    # s / lam may overflow where lam is subnormal; the clip to +-M below
    # makes that harmless
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u_star = np.where(lam > 0, h + s / np.where(lam > 0, lam, 1.0), 0.0)
    u_star = np.clip(u_star, -M, M)
    u_free = np.where(lam > 0, u_star, np.sign(s) * M)
    return s * u_free - 0.5 * lam * (u_free - h) ** 2


def duality_gap(spec: ProblemSpec, u, z, zeta) -> DualityGap:
    """Primal energy minus the dual objective over |u| <= M =
    ``spec.box_bound``; >= 0, 0 at optimum.

    ``u`` and ``z`` may be padded or compressed arrays, zeta is
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
    rel = gap / _gap_scale(primal, dual)
    return DualityGap(gap, rel, primal, dual, True, *scored, terms, repaired,
                      conditional)


def _gap_scale(primal, dual):
    """The denominator of a relative gap: max(|primal|, |dual|, 1e-12)."""
    return max(abs(primal), abs(dual), 1e-12)


def _drift(spec, z, zeta):
    """v = -G^T z + B^T (w_b / h^d zeta), the dual field the u update sees."""
    domain = spec.domain
    beta = domain.boundary_faces.weight / domain.cell_volume
    return domain.div(z) + domain.trace_adjoint(beta[:, None] * zeta)


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
    bf, vol = domain.boundary_faces, domain.cell_volume
    cell = dens.cell + vol * (f.conjugate(domain.points, z)
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
    bf = domain.boundary_faces
    radius = np.broadcast_to(
        np.asarray(f.dual_radius(domain.points), dtype=float),
        (len(domain.points),))

    # nu-section bounds for the zeta polish
    r_b = np.asarray(f.dual_radius(bf.point), dtype=float)
    r_b = np.broadcast_to(r_b, (len(bf),))
    zeta = np.clip(np.asarray(zeta, dtype=float).reshape(len(bf), 1),
                   -r_b[:, None], r_b[:, None])

    z_rep = _dual_values(domain, z)
    for k in range(_REPAIR_ROUNDS):
        v = _drift(spec, z_rep, zeta)[:, 0]
        z_rep = z_rep - domain.grad(domain.neumann_solve(-v)[:, None])
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
    bound.  Each cell's backflow is summed by ``trace_adjoint`` (B^T).
    """
    domain = spec.domain
    bf = domain.boundary_faces
    beta = bf.weight / domain.cell_volume
    # the balance penalty gets an epsilon preference so that ties break
    # toward divergence feasibility, which the later Poisson projection
    # would otherwise pay for; argmax takes the first of tied candidates
    m_vol = spec.box_bound * (1.0 + 1e-9) * domain.cell_volume
    div_fixed = domain.div(z_rep)[:, 0]
    wu0 = bf.weight * spec.u0[:, 0]
    zeta = zeta.copy()
    flow = beta * zeta[:, 0]  # backflow of each face
    # axis-major, sign -1 before +1: the Gauss-Seidel order of the groups
    groups = []
    for a in range(domain.dim):
        for sgn in (-1, 1):
            sel = np.flatnonzero((bf.axis == a) & (bf.sign == sgn))
            cell = domain.face_cells[sel]
            groups.append((sel, cell, div_fixed[cell], beta[sel], r_b[sel],
                           wu0[sel], np.arange(sel.size)))
    for _ in range(_POLISH_SWEEPS):
        for sel, cell, div_c, b, r, wu, cols in groups:
            res_wo = ((div_c + domain.trace_adjoint(flow)[cell])
                      - b * zeta[sel, 0])
            cands = np.stack([-r, r, np.clip(-res_wo / b, -r, r)], axis=0)
            vals = wu * cands - m_vol * np.abs(res_wo + b * cands)
            new = cands[np.argmax(vals, axis=0), cols]
            zeta[sel, 0] = new
            flow[sel] = b * new
    return zeta


def trace_error(spec: ProblemSpec, u) -> float:
    """Discrete L1 boundary distance sum w_b |u_adjacent - u0|."""
    u_adj = spec.domain.trace(_cell_values(spec.domain, u))
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
    (``geometry._shape_quadrature``): 8,192 points split over the circles
    of a 2-D ``Ball`` or ``Annulus`` (equally spaced angles) or the
    spheres of a 3-D one (a Fibonacci lattice), or the two endpoints of
    an interval; other shapes raise ``ShapeMismatchError``.
    Each sample reads the face whose boundary point is nearest, the first
    such face on ties (``_nearest``).
    """
    domain = spec.domain
    _, _, pts, weight, _ = _shape_quadrature(domain.shape, 0, _TRACE_SAMPLES)
    u_adj = domain.trace(_cell_values(domain, u))  # (m, n)
    nearest = _nearest(domain.boundary_faces.point, pts)
    datum = np.asarray(u0_fn(pts), dtype=float)
    if datum.ndim == 1:
        datum = datum[:, None]
    diff = np.linalg.norm(u_adj[nearest] - datum, axis=-1)
    return float(np.sum(weight * diff))


def prolong_state(coarse_spec: ProblemSpec, coarse: SolveResult,
                  fine_spec: ProblemSpec):
    """Nearest-neighbor transfer of (u, z, zeta) to the next finer grid of
    the ladder (warm start).

    The two grids must be a ladder pair: the same box, the fine nx twice
    the coarse one (``GridDomain.coarse_cells``); any other pair raises
    ShapeMismatchError.  Takes the compressed state of ``coarse`` as it is
    and returns that of the fine grid: u (N, n) from the nearest inside
    coarse cell, z (N, n, d) on each fine interior face from the inside
    coarse cell holding that face (the one above it where the face lies
    on a coarse face; zero where that cell is outside), and zeta (m, n)
    from the nearest coarse boundary face, which ``solve`` takes as they
    are.
    """
    return _prolong(coarse_spec.domain, coarse.u, coarse.z, coarse.zeta,
                    fine_spec.domain)


def _nearest_inside(domain, pts):
    """The inside cell of ``domain`` whose center is nearest each point,
    the first such cell on ties, for points outside the box of every
    inside cell.  Only the cells that own a boundary face are searched:
    from any other inside cell, one step toward such a point reaches an
    inside cell strictly nearer to it."""
    owners = np.unique(domain.face_cells)
    return owners[_nearest(domain.points[owners], pts)]


def _prolong(cd, u, z, zeta, fd):
    """``prolong_state`` on the compressed state of coarse domain ``cd``."""
    # where the coarse cell holding a fine center is inside, it is the
    # nearest inside one; the other fine centers lie outside the box of
    # every inside coarse cell
    nearest = fd.coarse_cells(cd)
    out = nearest < 0
    if np.any(out):
        nearest[out] = _nearest_inside(cd, fd.points[out])
    u = u[nearest]
    z_f = np.zeros((len(fd.points), z.shape[1], fd.dim))
    for a in range(fd.dim):
        cell = fd.coarse_cells(cd, a)
        z_f[:, :, a] = np.where(cell[:, None] >= 0, z[cell, :, a], 0.0)
    z_f = np.where(fd.interior, z_f, 0.0)
    nearest = _nearest(cd.boundary_faces.point, fd.boundary_faces.point)
    return u, z_f, zeta[nearest]


def _restriction(spec: ProblemSpec) -> Optional[ProblemSpec]:
    """The spec on half the cells per axis, or None where the domain's nx
    is odd or ``GridDomain`` rejects nx // 2.

    u0 on each coarse boundary face is that of the fine face whose point is
    nearest, the first such face on ties.  g, h and lambda on each coarse
    cell are their means over its inside fine children, the fine cells
    ``GridDomain.coarse_cells`` maps to it, summed in their order; a
    coarse cell with none (on a thin annulus) takes those of the nearest
    fine inside cell, the first such cell on ties.  The integrand and the
    box bound M are the fine spec's.
    """
    fine = spec.domain
    if fine.nx % 2:
        return None
    try:
        coarse = GridDomain(fine.shape, fine.nx // 2)
    except ResolutionError:
        return None
    n_c = len(coarse.points)
    # each inside fine cell whose coarse cell is inside is a child of it
    parent = fine.coarse_cells(coarse)
    child = np.flatnonzero(parent >= 0)
    parent = parent[child]
    count = np.bincount(parent, minlength=n_c)
    # a coarse center is the common corner of its children, so where
    # none is inside it lies outside the box of every inside fine cell;
    # such a lone cell adopts the nearest fine inside cell
    lone = np.flatnonzero(count == 0)
    child = np.concatenate([child, _nearest_inside(fine, coarse.points[lone])])
    parent = np.concatenate([parent, lone])
    count[lone] = 1

    def mean(values):
        cols = values.reshape(len(values), -1)[child].T
        total = np.stack([np.bincount(parent, col, minlength=n_c)
                          for col in cols], axis=-1)
        return (total / count[:, None]).reshape((n_c,) + values.shape[1:])

    face = _nearest(fine.boundary_faces.point, coarse.boundary_faces.point)
    return ProblemSpec(spec.integrand, coarse, spec.u0[face], g=mean(spec.g),
                       h=mean(spec.h), lam=mean(spec.lam),
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
    from the prolonged state of the one below; ``levels`` records them.
    Only a cold start takes the accelerated step scale (see the module
    docstring).
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
    (u, z, zeta), info = _iterate(
        spec, config, warm_start if warm_start is not None
        else _coarse_start(spec, config, levels), levels)
    return SolveResult(u=u, z=z, zeta=zeta, levels=tuple(levels), **info)


def _scalars(dg):
    """What the loop keeps of a gap: (relative, value, primal, conditional)."""
    return dg.relative, dg.value, dg.primal, dg.conditional


def _coarse_start(spec, config, levels):
    """The start of ``spec``'s grid: the compressed state prolonged from a
    solve of its restriction, itself started the same way; None on the
    coarsest grid.  Each level's spec, domain and state are released on
    return."""
    coarse = _restriction(spec)
    if coarse is None:
        return None
    state, _ = _iterate(coarse, config,
                        _coarse_start(coarse, config, levels), levels)
    return _prolong(coarse.domain, *state, spec.domain)


def _iterate(spec, config, start, levels):
    """The primal-dual loop on one grid; appends ``(nx, iterations,
    seconds)`` to ``levels``.

    ``start`` is None, for ``nearest_boundary_extension`` with zero duals
    at the step scale t = max(1, 1/gamma) (1 where 1/gamma is not
    finite), or a triple (u, z, zeta), run at t = 1.  Returns the
    compressed (u, z, zeta) whose gap the last check reported and the
    other fields of its ``SolveResult`` but ``levels``."""
    t_start = time.perf_counter()
    f = spec.integrand
    domain = spec.domain
    n = spec.n_channels
    d = domain.dim
    vol = domain.cell_volume
    bf = domain.boundary_faces
    pts = domain.points

    N, m = len(pts), len(bf)
    beta = (bf.weight / vol)[:, None]  # per-face backflow density
    # diagonal steps for K = [h^d G; w_b B], in plain coordinates
    al = _STEP_ALPHA
    # every entry of h^d G is +-k with k = h^d (1/h), two in each interior
    # row and degree_c in column c
    k_z, k_u = np.power(np.array([vol * (1.0 / domain.h)]), [2.0 - al, al])
    # prox parameter for the z block: sigma_row * h^d; every interior row
    # has the same sum; with no interior face z = 0, and any step is exact
    sigma_z = vol / max(2.0 * k_z if domain.degree.any() else 0.0, 1e-300)
    col = domain.degree * k_u + domain.trace_adjoint(bf.weight**al)
    tau = (vol / np.maximum(col, 1e-300))[:, None]
    # net zeta step on (u0 - B u): sigma_row * w = w^(alpha - 1)
    sigma_zeta = (bf.weight ** (al - 1.0))[:, None]
    # accelerated schedule: primal steps t tau, dual steps sigma / t, with
    # gamma the modulus of the lower-order term in the metric of the
    # steps; only a cold start starts above t = 1, where 1/gamma is finite
    gamma = float(spec.lam.min() * tau.min())
    t = 1.0
    if start is None and gamma > 0 and math.isfinite(1.0 / gamma):
        t = max(1.0, 1.0 / gamma)

    # x = (u, z, zeta), its anchor x0 and T(x) are each one flat buffer,
    # so that the Halpern step and a restart are a few whole-buffer
    # operations; z is stored planar within it
    cut = (N * n, (1 + d) * N * n)

    def split(buf):
        return (buf[:cut[0]].reshape(N, n),
                buf[cut[0]:cut[1]].reshape(d, N, n).transpose(1, 2, 0),
                buf[cut[1]:].reshape(m, n))

    x = np.zeros(cut[1] + m * n)
    u, z, zeta = split(x)
    if start is not None:
        u0_w, z0_w, zeta0_w = start
        u[...] = _cell_values(domain, u0_w, n)
        np.copyto(z, _dual_values(domain, z0_w, n), where=domain.interior)
        zeta[...] = _zeta_values(spec, zeta0_w)
        # a prolonged start is referenced nowhere else: free it once
        # copied in
        del start, u0_w, z0_w, zeta0_w
    else:
        u[...] = nearest_boundary_extension(spec)
    x_0 = x.copy()
    x_T = np.empty_like(x)
    u_T, z_T, zeta_T = split(x_T)
    u_bar = np.empty_like(u)
    exterior = ~domain.interior
    radius = np.broadcast_to(
        np.asarray(f.dual_radius(bf.point), dtype=float), (m,))[:, None]

    lam = spec.lam[:, None]
    shift = lam * spec.h - spec.g
    # where the box |u| <= M the gap's dual is taken over holds a minimizer
    # (g = 0 and M at least the data bound, by truncation), the u update
    # is the prox of l + the box's indicator; where the box is not known
    # to hold one, a state outside it is not converged whatever its gap
    # (``DualityGap.conditional``)
    box = spec.box_bound if _box_holds_minimizer(spec) else None
    # there a minimizer also lies in the data range [lo, hi] (truncation
    # lowers the energy), and a check scores T(x) with its u truncated to
    # that range, in the buffer of u_bar, which is free at a check: the
    # primal energy can only fall and the dual is T(x)'s
    if box is not None:
        lo = float(min(spec.u0.min(), spec.h.min()))
        hi = float(max(spec.u0.max(), spec.h.max()))
    u_S = u_T if box is None else u_bar  # the scored u

    def rescale(t):
        # the steps at scale t: the z step and the zeta steps sigma / t,
        # the primal steps t tau and the lower-order prox's denominators
        # 1 + t tau lambda
        tau_t = tau * t
        return sigma_z / t, sigma_zeta / t, tau_t, tau_t * lam + 1.0

    sigma_t, sigma_zeta_t, tau_t, denom = rescale(t)

    energies_raw, gaps, iters_log = [], [], []
    gap_now = np.inf
    rel_gap = np.inf
    converged = False
    it = 0
    k = 0  # Halpern steps since the anchor was set
    restart_rel = np.inf

    for it in range(1, config.max_iters + 1):
        # T(x), primal first.  (i) primal descent with closed-form
        # lower-order prox, (u + t tau (drift - g + lambda h)) /
        # (1 + t tau lambda)
        drift = domain.div(z)
        drift += domain.trace_adjoint(beta * zeta)
        drift += shift
        np.multiply(drift, tau_t, out=u_T)
        u_T += u
        u_T /= denom
        if box is not None:
            np.clip(u_T, -box, box, out=u_T)

        # (ii) over-relaxation u_bar = u_T + theta (u_T - u) with
        # theta = t_next / t = max(1 / sqrt(1 + 2 gamma t), 1 / t);
        # theta = 1 once t = 1
        t_next = max(t / math.sqrt(1.0 + 2.0 * gamma * t), 1.0)
        np.subtract(u_T, u, out=u_bar)
        if t_next < t:
            u_bar *= t_next / t
            t = t_next
            sigma_t, sigma_zeta_t, tau_t, denom = rescale(t)
        u_bar += u_T

        # (iii) dual ascent in z at u_bar, kept on interior faces; the prox
        # input is formed in the gradient product's output, the mask
        # applied in the prox's output, which is then copied into T(x)
        z_in = domain.grad(u_bar)
        z_in *= sigma_t
        z_in += z
        try:
            z_in = f.prox_conjugate(pts, z_in, sigma_t)
        except ShapeMismatchError:
            # the prox rejects a non-finite input z + sigma G u_bar: name
            # the iterate that blew up instead
            if np.all(np.isfinite(z_in)):
                raise
            bad = "u" if np.all(np.isfinite(z)) else "z"
            raise InstabilityError(
                f"non-finite {bad} at iteration {it}") from None
        np.copyto(z_in, 0.0, where=exterior)
        z_T[...] = z_in

        # (iv) boundary dual ascent in zeta at u_bar, formed in the
        # boundary product's output, then projected onto the ball
        zeta_in = domain.trace(u_bar)
        np.subtract(spec.u0, zeta_in, out=zeta_in)
        zeta_in *= sigma_zeta_t
        zeta_in += zeta
        nrm = np.linalg.norm(zeta_in, axis=-1, keepdims=True)
        np.multiply(zeta_in, np.minimum(1.0, radius / np.maximum(nrm, 1e-300)),
                    out=zeta_T)

        if it % config.check_every == 0 or it == config.max_iters:
            for name, a in (("z", z_T), ("zeta", zeta_T), ("u", u_T)):
                if not np.all(np.isfinite(a)):
                    raise InstabilityError(
                        f"non-finite {name} at iteration {it}")
            # z_T and zeta_T are prox outputs, so the scored dual is
            # feasible; only the scalars of the gap are kept, and the
            # step's temporaries are freed before the gap makes its own
            del drift, z_in, zeta_in, nrm
            if box is not None:
                np.clip(u_T, lo, hi, out=u_S)
            rel_gap, gap_now, primal, conditional = _scalars(
                duality_gap(spec, u_S, z_T, zeta_T))
            if not np.isfinite(gap_now):
                raise InstabilityError(
                    f"non-finite duality gap at iteration {it}")
            energies_raw.append(primal)
            iters_log.append(it)
            gaps.append(rel_gap)
            if rel_gap <= config.gap_tol and not conditional:
                converged = True
                break
            # sufficient decay; a negative gap (a state outside a box not
            # known to hold a minimizer) proves none, and the first restart
            # needs the target more than one decay away
            if (0.0 <= rel_gap <= _RESTART_DECAY * restart_rel
                    and (restart_rel < np.inf
                         or _RESTART_DECAY * rel_gap > config.gap_tol)):
                # restart: x = x0 = the scored state
                np.copyto(x, x_T)
                u[...] = u_S
                np.copyto(x_0, x)
                k = 0
                restart_rel = rel_gap
                continue

        # reflected Halpern step x <- a (2 T(x) - x) + (1 - a) x0 with
        # a = (k + 1) / (k + 2), as x0 - a (x + x0 - 2 T(x)), which keeps
        # a fixed point x = T(x) = x0 to the last bit
        x += x_0
        x -= x_T
        x -= x_T
        x *= -(k + 1) / (k + 2)
        x += x_0
        k += 1

    levels.append((domain.nx, it, time.perf_counter() - t_start))
    return (u_S, z_T, zeta_T), dict(
        energy_history_raw=np.asarray(energies_raw),
        gap_history=np.asarray(gaps),
        check_iters=np.asarray(iters_log, dtype=int), iterations=it,
        converged=converged, gap=gap_now, gap_relative=rel_gap)

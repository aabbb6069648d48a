"""Relaxed convex variational problems with linear growth.

Minimize functionals of the form

    integral f(x, Du) + boundary penalty f^inf(x, (u0 - u) tensor nu)
    + integral (g u + lambda/2 |u - h|^2)

on masked grids; verify minimality through the dual-certificate
(subdifferential) conditions; compute the generalized mean curvature of
the boundary with respect to the integrand; and reproduce the package's
gallery of explicit examples and counterexamples.
"""

from .integrands import (
    Integrand,
    make_area,
    make_hencky,
    make_tv,
    make_vector_tv,
    make_weighted_tv,
)
from .geometry import (
    Annulus,
    Ball,
    GridDomain,
    Interval,
    Rectangle,
    boundary_normal,
    build_domain,
    curvature_condition_margin,
    generalized_mean_curvature,
)
from .fields import read_lgf, write_lgf
from .energy import (
    ProblemSpec,
    discrete_divergence,
    discrete_gradient,
    gauss_green_residual,
    lower_order_energy,
    relaxed_energy,
    truncate,
)
from .solver import SolverConfig, SolveResult, duality_gap, solve, trace_error
from .certificate import (
    AnalyticCase,
    CertificateReport,
    boundary_gradient_condition,
    verify_least_gradient,
    verify_scalar,
    verify_vector,
)
from .gallery import (
    BadF0,
    GalleryCase,
    build_bad_f0,
    check_bad_grad,
    case_names,
    get_case,
)

__version__ = "0.1.0"

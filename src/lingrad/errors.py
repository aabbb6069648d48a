"""Exception types shared across the package."""


class LingradError(Exception):
    """Base class for all package-specific errors."""


class ShapeMismatchError(LingradError, ValueError):
    """An array argument has dimensions incompatible with the operation."""


class SingularPointError(LingradError, ValueError):
    """Gradient requested at a point where the integrand is not differentiable."""


class ProxFailureError(LingradError, RuntimeError):
    """Inner solve of a proximal subproblem did not converge."""


class DualRangeError(LingradError, ValueError):
    """A dual argument lies outside the closure of the gradient range."""


class DomainError(LingradError, ValueError):
    """A spatial point violates a geometric precondition."""


class ResolutionError(LingradError, ValueError):
    """Grid resolution too coarse for the requested shape."""


class InvalidFieldError(LingradError, ValueError):
    """A field contains NaN or has an inconsistent shape."""


class InstabilityError(LingradError, RuntimeError):
    """Primal-dual iteration diverged; names the iteration and what blew up."""


class SpecFileError(LingradError, ValueError):
    """Problem-spec file or solver settings could not be parsed or validated."""

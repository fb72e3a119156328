"""Exception types shared across the package."""


class FockLatticeError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(FockLatticeError):
    """A job description or table failed validation."""


class NumericalError(FockLatticeError):
    """A numerical procedure failed to meet its accuracy contract
    (quadrature non-convergence, root bracketing, Golub-Kahan-Lanczos
    non-convergence, derivative-estimate instability)."""


class SeparationError(FockLatticeError):
    """A point set is not rho-separated (or is missing the origin)."""

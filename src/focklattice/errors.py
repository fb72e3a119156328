"""Exception types shared across the package."""


class FockLatticeError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(FockLatticeError):
    """A job description or table failed validation."""


class NumericalError(FockLatticeError):
    """A numerical procedure failed to meet its accuracy contract
    (quadrature non-convergence, a rho table that is not monotone or falls
    short, a disc mass that is not a positive finite number,
    Golub-Kahan-Lanczos non-convergence, derivative-estimate
    instability)."""


class SeparationError(SchemaError):
    """A point set is not rho-separated (or is missing the origin)."""

"""Exception types shared across the package, and the text of a point in
their messages."""

import numpy as np


def point_text(M):
    """M as (m1, m2, ...), whatever numpy's print options: each coordinate its
    float repr (17 significant digits)."""
    return "(" + ", ".join(repr(float(v)) for v in np.atleast_1d(M)) + ")"


class HodoflowError(Exception):
    """Base class for all package-level errors."""


class ConfigError(HodoflowError):
    """Malformed or inconsistent run configuration."""


class SingularMatrixError(HodoflowError):
    """Linear solve requested against a (numerically) singular matrix."""


class DegenerateMatrixError(HodoflowError):
    """Operation requires an invertible force matrix A; use the degenerate module."""


class NotInvertibleError(HodoflowError):
    """Initial velocity profile has no inverse map on the requested set."""


class DomainError(HodoflowError):
    """Point lies outside the validity domain of a data family."""


class NoConvergenceError(HodoflowError):
    """Newton iteration failed to reach tolerance within the iteration budget."""

    def __init__(self, message, M=None, residual=None):
        super().__init__(message)
        self.M = M
        self.residual = residual


class JacobianSingularError(HodoflowError):
    """Newton Jacobian singular: the target point sits on (or across) the blow-up set."""

    def __init__(self, message, M=None):
        super().__init__(message)
        self.M = M


class DomainExitError(HodoflowError):
    """Newton iterate left the domain of the inverse velocity map and damping ran out."""

    def __init__(self, message, M=None):
        super().__init__(message)
        self.M = M


class OverflowMatrixError(HodoflowError):
    """Matrix exponential overflowed the representable floating-point range."""


class BlowupVerificationError(HodoflowError):
    """A reported blow-up time fails the residual re-check for the actual force matrix."""

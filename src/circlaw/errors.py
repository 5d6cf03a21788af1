"""Exception and warning types shared across the package, and the
finiteness and count checks behind DomainError."""

import math

import numpy as np


class CirclawError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CirclawError, ValueError):
    """Argument outside the mathematical domain of an operation."""


def _check_finite(v, name: str = "x") -> None:
    """Refuse NaN and infinite arguments (scalar or array) with DomainError."""
    # math.isfinite for scalars: numpy's per-call overhead is several
    # percent of one line quadrature
    finite = math.isfinite(v) if isinstance(v, (float, int)) else np.all(np.isfinite(v))
    if not finite:
        raise DomainError(f"{name} must be finite")


def _check_count(v, name: str) -> int:
    """A positive integral count (integral floats pass) as an int."""
    _check_finite(v, name)
    n = int(v)
    if n != v or n < 1:
        raise DomainError(f"{name} must be a positive integer")
    return n


class ConvergenceError(CirclawError, ArithmeticError):
    """A series or quadrature could not certify the requested accuracy."""


class DomainGapError(DomainError):
    """The published piecewise formula does not cover this argument.

    Raised only by the published-form evaluators; the authoritative
    routes cover the whole circle.
    """


class SignedLawError(CirclawError, ValueError):
    """The operation needs a nonnegative density but the law is signed."""


class RouteDivergenceWarning(UserWarning):
    """Two independent evaluation routes disagree beyond the diagnostic band."""


class SlowDecayWarning(UserWarning):
    """Coefficient decay is subexponential; truncation is unusually long."""


class MinimumLocationWarning(UserWarning):
    """The detected global minimum is not at the structurally expected angle."""

"""Exception and warning types shared across the package, and the
argument checks behind DomainError: one per parameter kind (finite
value, positive count, order n, time t, unit exponent)."""

import math

import numpy as np

__all__ = ["CirclawError", "DomainError", "ConvergenceError", "SignedLawError", "SlowDecayWarning"]


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


def _check_n(n) -> None:
    """An order index n >= 1; integral floats pass."""
    if not (n >= 1 and float(n).is_integer()):
        raise DomainError("n must be a positive integer")


def _check_t(t) -> None:
    """A scalar time 0 < t < inf; NaN fails the comparison and is refused too."""
    if not 0.0 < t < math.inf:
        raise DomainError("t must be positive and finite")


def _check_unit(v, name: str) -> None:
    """An exponent in (0, 1], such as nu or beta; NaN is refused too."""
    if not 0.0 < v <= 1.0:
        raise DomainError(f"{name} must lie in (0, 1]")


class ConvergenceError(CirclawError, ArithmeticError):
    """A series or quadrature could not certify the requested accuracy."""


class SignedLawError(CirclawError, ValueError):
    """The operation needs a nonnegative density but the law is signed."""


class SlowDecayWarning(UserWarning):
    """Coefficient decay is subexponential; truncation is unusually long."""

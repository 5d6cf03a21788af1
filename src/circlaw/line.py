"""Fundamental solutions of higher-order heat-type equations on the line.

d/dt u = c (d/dx)^p u with p = 2n (c = (-1)^{n+1}) or p = 2n+1
(c = (-1)^n). Every order shares one probabilistic representation,

    u_p(x, t) = E[e^{-b x G} sin(a x G)] / (pi x),

G generalized gamma with shape p and rate t, and the rotation pair
(a, b) = (cos phi_p, sin phi_p), phi_p = pi/(2p) at odd p and 0 at
even p. line_density_gamma evaluates it for every order. Two further
routes serve as its oracles: line_density_even, the cosine transform of
exp(-xi^{2n} t), and line_density_third, the Airy closed form at p = 3.
Every wrapped circular law is validated against these.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy import special as sps

from .errors import ConvergenceError, DomainError
from .special import DEFAULT_TOL, Tolerance

__all__ = [
    "line_density_even",
    "line_density_gamma",
    "line_density_third",
    "skew_cauchy_density",
]

# below this the even quadrature cannot resolve the near-delta solution
_T_FLOOR = 1e-6
# largest exponent budget before float64 loses the damped-oscillation cancellation
_CANCEL_BUDGET = 35.0


def _check_n(n) -> None:
    if not (n >= 1 and float(n).is_integer()):
        raise DomainError("n must be a positive integer")


def _check_t(t: float) -> None:
    if not 0.0 < t < math.inf:
        raise DomainError("t must be positive and finite")


def _check_finite(v, name: str = "x") -> None:
    # math.isfinite for scalars: numpy's per-call overhead is several
    # percent of one line quadrature
    finite = math.isfinite(v) if isinstance(v, (float, int)) else np.all(np.isfinite(v))
    if not finite:
        raise DomainError(f"{name} must be finite")


def _rotation(p: int) -> tuple[float, float]:
    """(a, b) = (cos phi_p, sin phi_p): phi_p = pi/(2p) at odd p, 0 at even p."""
    if p % 2 == 0:
        return 1.0, 0.0
    half_angle = math.pi / (2.0 * p)
    return math.cos(half_angle), math.sin(half_angle)


def _even_cutoff(n: int, t: float, target: float) -> float:
    """Upper limit Xi with int_Xi^inf e^{-xi^{2n} t} dxi <= target (certified)."""
    p = 2 * n
    xi = (max(math.log(1.0 / target), 1.0) / t) ** (1.0 / p) + 1.0
    for _ in range(40):
        tail = math.exp(-(xi**p) * t) / (p * t * xi ** (p - 1))
        if tail <= target:
            return xi
        xi *= 1.25
    raise ConvergenceError("could not certify the quadrature cutoff")


def line_density_even(n: int, x: float, t: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """u_{2n}(x, t) = (1/pi) int_0^inf cos(xi x) e^{-xi^{2n} t} dxi.

    Sign-varying for n >= 2. Oscillatory weight handled by QAWO panels
    sized to the cosine wavelength; the cutoff tail is certified by the
    monotone envelope e^{-xi^{2n} t}, and a quadrature error estimate
    above the requested epsabs raises ConvergenceError.
    """
    _check_n(n)
    _check_finite(x)
    _check_t(t)
    if t < _T_FLOOR:
        raise ConvergenceError(f"t below the documented floor {_T_FLOOR:g}")
    p = 2 * n
    eps = tol.abs_tol * math.pi / 4.0
    xi_max = _even_cutoff(n, t, eps)

    def f(xi):
        return math.exp(-(xi**p) * t)

    if x == 0.0:
        val, err = integrate.quad(f, 0.0, xi_max, epsabs=eps, epsrel=1e-13, limit=200)
    else:
        val, err = integrate.quad(
            f, 0.0, xi_max, weight="cos", wvar=abs(x), epsabs=eps, epsrel=1e-13, limit=400
        )
    if err > eps:
        raise ConvergenceError(
            f"u_{p}({x:g}, {t:g}): quadrature error {err:.2e} exceeds {eps:.2e}"
        )
    return val / math.pi


def line_density_gamma(p: int, x: float, t: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """u_p(x, t) = E[e^{-b x G} sin(a x G)] / (pi x) for any order p >= 2.

    G is generalized gamma with shape p and rate t (density
    p g^{p-1} t e^{-g^p t}); deterministic quadrature, not Monte Carlo.
    x = 0 is a removable singularity and returns the limit a E[G] / pi.
    For odd p and x < 0 the integrand carries the growing factor
    e^{b|x|g} against the stretched-exponential tail; beyond a
    peak-exponent budget of _CANCEL_BUDGET the cancellation is
    unrepresentable in float64 and the call refuses.
    """
    if not (p >= 2 and float(p).is_integer()):
        raise DomainError("p must be an integer >= 2")
    _check_finite(x)
    _check_t(t)
    a, b = _rotation(p)
    if x == 0.0:
        return a * (math.gamma(1.0 + 1.0 / p) * t ** (-1.0 / p)) / math.pi
    L = math.log(1.0 / min(tol.abs_tol * math.pi * abs(x) / 4.0, 0.5)) + 3.0
    pts = None
    # at even p (b = 0) nothing grows, and the integrand is odd in x
    if x < 0.0 and b > 0.0:
        y_star = (b * abs(x) / (p * t)) ** (1.0 / (p - 1))
        peak_exponent = b * abs(x) * y_star * (1.0 - 1.0 / p)
        if peak_exponent > _CANCEL_BUDGET:
            raise ConvergenceError(
                "cancellation budget exceeded at strongly negative x "
                f"(peak exponent {peak_exponent:.1f} > {_CANCEL_BUDGET:g})"
            )
        g_max = max(2.0 * y_star, (4.0 * L / t) ** (1.0 / p))
        if y_star > 0.0:
            pts = [y_star]
    else:
        g_max = (L / t) ** (1.0 / p) + 1.0

    def f(u):
        return (
            math.exp(-b * x * u - (u**p) * t)
            * math.sin(a * x * u)
            * p
            * u ** (p - 1)
            * t
        )

    # abserr is not yet enforced here: at n = 2 about a quarter of the
    # wrapped route's calls exceed epsabs (see the line-oracle item)
    val, _ = integrate.quad(
        f, 0.0, g_max, points=pts, epsabs=tol.abs_tol * math.pi * abs(x) / 4.0,
        epsrel=1e-12, limit=400,
    )
    return val / (math.pi * x)


def line_density_third(x, t: float):
    """Third-order solution (3t)^(-1/3) Ai(x (3t)^(-1/3)); scalar or array x."""
    x = np.asarray(x, dtype=float)
    _check_finite(x)
    _check_t(t)
    scale = (3.0 * t) ** (-1.0 / 3.0)
    out = scale * sps.airy(x * scale)[0]
    return float(out) if out.ndim == 0 else out


def skew_cauchy_density(n: int, x, t: float):
    """Skewed Cauchy limit law t a / (pi [(x + t b)^2 + t^2 a^2]), (a, b) of order 2n+1."""
    _check_n(n)
    _check_finite(x)
    _check_t(t)
    a, b = _rotation(2 * n + 1)
    return t * a / (math.pi * ((x + t * b) ** 2 + t * t * a * a))

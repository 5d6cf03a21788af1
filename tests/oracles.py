"""Test oracles that no CLI command or validate row needs.

line_density_gamma is the paper's generalized-gamma representation of
every line solution, evaluated by scipy.integrate.quad; the package's
routes (Airy at p = 3, the contour quadrature elsewhere) are checked
against it where it is well conditioned. mp_even_line is the even-order
line solution to 30 digits by mpmath.
"""

import math
import warnings

import mpmath as mp
from scipy import integrate

from circlaw import ConvergenceError, DomainError
from circlaw.errors import _check_finite, _check_t
from circlaw.line import _CANCEL_BUDGET, _rotation
from circlaw.special import DEFAULT_TOL, Tolerance


def line_density_gamma(p: int, x: float, t: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """u_p(x, t) = E[e^{-b x G} sin(a x G)] / (pi x) for any order p >= 2.

    G is generalized gamma with shape p and rate t (density
    p g^{p-1} t e^{-g^p t}); deterministic quadrature, not Monte Carlo.
    x = 0 is a removable singularity and returns the limit a E[G] / pi.
    For odd p and x < 0 the integrand carries the growing factor
    e^{b|x|g} against the stretched-exponential tail; beyond a
    peak-exponent budget of _CANCEL_BUDGET the cancellation is
    unrepresentable in float64 and the call refuses. A quadrature error
    estimate above the requested epsabs raises ConvergenceError.
    """
    if not (p >= 2 and float(p).is_integer()):
        raise DomainError("p must be an integer >= 2")
    _check_finite(x)
    _check_t(t)
    a, b = _rotation(p)
    eps = tol.abs_tol * math.pi * abs(x) / 4.0
    # x = 0, or |x| so small (~1e-313) that eps underflows: u(x) - u(0) = O(x)
    if eps == 0.0:
        return a * (math.gamma(1.0 + 1.0 / p) * t ** (-1.0 / p)) / math.pi
    L = math.log(1.0 / min(eps, 0.5)) + 3.0
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

    with warnings.catch_warnings():
        # the error estimate is enforced below, so quad's warning adds nothing
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(f, 0.0, g_max, points=pts, epsabs=eps, epsrel=1e-12, limit=400)
    if err > eps:
        raise ConvergenceError(
            f"u_{p}({x:g}, {t:g}): quadrature error {err:.2e} exceeds {eps:.2e}"
        )
    return val / (math.pi * x)


def mp_even_line(p, X):
    """u_p(X, 1) = (1/2pi) int e^{i X xi - xi^p} dxi by mpmath (30 digits), on the
    line Im xi = Im xi* through the saddle points xi* = (X/p)^{1/(p-1)} e^{i pi/(2(p-1))}."""
    with mp.workdps(30):
        X = mp.mpf(X)
        if X == 0:
            return mp.gamma(1 + mp.mpf(1) / p) / mp.pi
        r = (X / p) ** (mp.mpf(1) / (p - 1))
        h, s0 = r * mp.sin(mp.pi / (2 * (p - 1))), r * mp.cos(mp.pi / (2 * (p - 1)))
        # conjugate-symmetric in s, so the real part doubles the half line
        edge = 2 * s0 + 2
        pts = [edge * k / 40 for k in range(41)] + [mp.inf]
        v = mp.quad(lambda s: mp.exp(1j * X * (s + 1j * h) - (s + 1j * h) ** p), pts)
        return (v / mp.pi).real

"""Poisson kernels of subordinated circular pseudoprocesses.

Running the even-order circular laws on a stable clock collapses them
all onto a single Poisson kernel with radius e^{-t}, independent of the
order. The odd-order analogue keeps an order imprint through the
damping/rotation pair (a, b) of the line solution of order 2n+1: it
is the even kernel evaluated at radius e^{-a t} and angle theta + b t,
and collapses onto the even kernel as n grows. This module carries the
closed forms, certified series laws, branch-safe CDFs, interval
probabilities, and the classical restricted-branch arctan forms of the
odd CDF (exposed separately because they do not cover the whole
circle).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, DomainGapError, _check_count, _check_finite
from .harmonic import TWO_PI, HarmonicLaw, certified_cutoff
from .line import _check_n, _check_t, _rotation, skew_cauchy_density
from .special import DEFAULT_TOL, Tolerance

__all__ = [
    "even_kernel_density",
    "even_kernel_law",
    "even_kernel_cdf",
    "even_quadrant_prob",
    "odd_kernel_density",
    "odd_kernel_law",
    "odd_kernel_cdf",
    "odd_kernel_cdf_branches",
    "odd_kernel_cdf_single_arctan",
    "odd_half_circle_prob",
    "odd_quadrant_forms",
    "wrapped_skew_cauchy_density",
    "kernel_limit_gap",
]


def _ab(n) -> tuple[float, float]:
    _check_n(n)
    return _rotation(2 * n + 1)


def _as_angles(theta):
    _check_finite(theta, "theta")
    th = np.asarray(theta, dtype=float)
    if np.any(th < -1e-9) or np.any(th > TWO_PI + 1e-9):
        raise DomainError("theta must lie in [0, 2 pi]")
    return np.clip(th, 0.0, TWO_PI)


def _poisson_series_law(damp_rate: float, rotation: float, tol: Tolerance, meta: str) -> HarmonicLaw:
    """Series law 1/(2 pi) + (1/pi) sum_k e^{-k damp_rate} cos(k(theta + rotation)).

    Geometric tail certificate:
    sum_{k>K} e^{-k r}/pi = e^{-(K+1) r}/(pi (1 - e^{-r})) <= tol.
    """
    denom = math.pi * (-math.expm1(-damp_rate))

    def tail(K):
        return math.exp(-(K + 1) * damp_rate) / denom

    K = certified_cutoff(tail, tol, "the closed form has no such limit")
    k = np.arange(1.0, K + 1)
    damp = np.exp(-k * damp_rate) / math.pi
    return HarmonicLaw(
        a0=1.0 / TWO_PI,
        cos_coeffs=damp * np.cos(k * rotation),
        sin_coeffs=-damp * np.sin(k * rotation),
        tail_bound=tail(K),
        meta=f"{meta}, K={K}",
    )


def _poisson_kernel(rate: float, phi):
    """(1/2pi)(1 - q^2)/(1 + q^2 - 2 q cos phi), q = e^{-rate}.

    The denominator is taken as (1 - q)^2 + 4 q sin^2(phi/2) with
    1 - q = -expm1(-rate), so it keeps full relative accuracy as
    rate -> 0, where 1 + q^2 - 2 q cos phi cancels to 0 at phi = 0.
    Dividing through by 1 - q keeps the peak (1 + q)/(2 pi (1 - q)) and
    every other value finite down to rate ~ 1e-307.
    """
    _check_finite(phi, "theta")
    q = math.exp(-rate)
    one_minus_q = -math.expm1(-rate)
    s = np.sin(np.asarray(phi, dtype=float) / 2.0)
    return (1.0 + q) / (TWO_PI * (one_minus_q + 4.0 * q * s * s / one_minus_q))


def even_kernel_density(theta, t: float):
    """Poisson kernel (1/2pi)(1 - q^2)/(1 + q^2 - 2 q cos theta), q = e^{-t}."""
    _check_t(t)
    out = _poisson_kernel(t, theta)
    return float(out) if np.ndim(theta) == 0 else out


def even_kernel_law(t: float, tol: Tolerance = DEFAULT_TOL) -> HarmonicLaw:
    """Series route to the even kernel: a_k = e^{-k t}/pi, b_k = 0."""
    _check_t(t)
    return _poisson_series_law(t, 0.0, tol, meta=f"even kernel, t={t:g}")


def even_kernel_cdf(theta, t: float):
    """CDF on [0, 2 pi]: (1/pi) atan2((1 + q) sin(theta/2), (1 - q) cos(theta/2)).

    Equals (1/pi) arctan(coth(t/2) tan(theta/2)) on [0, pi) and
    1 + the same on (pi, 2 pi); atan2 carries the value through the
    tangent pole, giving exactly 1/2 at theta = pi.
    """
    _check_t(t)
    th = _as_angles(theta)
    q = math.exp(-t)
    one_minus_q = -math.expm1(-t)
    val = np.arctan2((1.0 + q) * np.sin(th / 2.0), one_minus_q * np.cos(th / 2.0)) / math.pi
    return float(val) if np.ndim(theta) == 0 else val


def even_quadrant_prob(t: float) -> float:
    """P(-pi/2 < Theta < pi/2) = 1/2 + (2/pi) arctan e^{-t}.

    Identical to the CDF combination F(pi/2) + 1 - F(3 pi/2) through
    arctan((1+q)/(1-q)) = pi/4 + arctan q.
    """
    _check_t(t)
    return 0.5 + (2.0 / math.pi) * math.atan(math.exp(-t))


def odd_kernel_density(n: int, theta, t: float):
    """Rotated damped Poisson kernel: radius e^{-a t}, angle theta + b t."""
    a, b = _ab(n)
    _check_t(t)
    out = _poisson_kernel(a * t, np.asarray(theta, dtype=float) + b * t)
    return float(out) if np.ndim(theta) == 0 else out


def odd_kernel_law(n: int, t: float, tol: Tolerance = DEFAULT_TOL) -> HarmonicLaw:
    """Series route: a_k = e^{-k a t} cos(k b t)/pi, b_k = -e^{-k a t} sin(k b t)/pi."""
    a, b = _ab(n)
    _check_t(t)
    return _poisson_series_law(a * t, b * t, tol, meta=f"odd kernel, n={n}, t={t:g}")


def odd_kernel_cdf(n: int, theta, t: float):
    """Branch-free CDF on [0, 2 pi], exact antiderivative of the closed form:

        (1/pi) atan2((1-q^2) sin(th/2), (1+q^2) cos(th/2) - 2 q cos(th/2 + b t)),

    q = e^{-a t}. The numerator is nonnegative on the circle, so atan2
    stays in [0, pi] and the value is a CDF with no branch seams; agrees
    with adaptive quadrature of the density at machine accuracy.
    """
    a, b = _ab(n)
    _check_t(t)
    th = _as_angles(theta)
    q = math.exp(-a * t)
    num = -math.expm1(-2.0 * a * t) * np.sin(th / 2.0)
    den = (1.0 + q * q) * np.cos(th / 2.0) - 2.0 * q * np.cos(th / 2.0 + b * t)
    val = np.arctan2(num, den) / math.pi
    return float(val) if np.ndim(theta) == 0 else val


def odd_kernel_cdf_branches(n: int, theta: float, t: float) -> float:
    """Restricted two-branch arctan form of the odd CDF.

    With A = (1 + e^{-a t})/(1 - e^{-a t}) the expression
    (1/pi)[arctan(A tan((theta + b t)/2)) - arctan(A tan(b t/2))]
    equals the CDF only while theta + b t < pi; adding 1 extends it to
    pi < theta < 2 pi - b t/2. Between and beyond those windows (and for
    b t >= pi, where the subtracted reference term crosses its own
    arctan branch and the whole form shifts by 1) DomainGapError is
    raised; odd_kernel_cdf covers the full circle.
    """
    a, b = _ab(n)
    _check_t(t)
    th = float(theta)
    if not 0.0 <= th < TWO_PI:
        raise DomainError("theta must lie in [0, 2 pi)")
    rot = b * t
    if rot >= math.pi:
        raise DomainGapError(
            f"rotation b t = {rot:g} >= pi: the branch form is off by 1 everywhere; "
            "use odd_kernel_cdf"
        )
    if th + rot < math.pi or math.pi < th < TWO_PI - 0.5 * rot:
        A = (1.0 + math.exp(-a * t)) / (-math.expm1(-a * t))
        base = (
            math.atan(A * math.tan((th + rot) / 2.0)) - math.atan(A * math.tan(rot / 2.0))
        ) / math.pi
        return base if th + rot < math.pi else 1.0 + base
    raise DomainGapError(
        f"theta = {th:g} falls between the branch windows "
        f"[{math.pi - rot:g}, pi] or [{TWO_PI - 0.5 * rot:g}, 2 pi); use odd_kernel_cdf"
    )


def odd_kernel_cdf_single_arctan(n: int, theta: float, t: float) -> float:
    """Single-arctan half-angle expression, T = tan(theta/2), u = tan(b t/2):

        (1/pi) atan2((1-q^2) T (1+u^2), (1-q)^2 + 4 T u + (1+q)^2 u^2).

    The cross term 4 T u carries no q = e^{-a t} weight, so this is NOT
    the kernel CDF (the exact antiderivative odd_kernel_cdf weighs that
    term by q); it is the closed expression behind the quadrant identity
    family and equals odd_quadrant_forms at theta = pi/2. Kept for those
    identity checks.
    """
    a, b = _ab(n)
    _check_t(t)
    th = float(theta)
    if not 0.0 <= th < TWO_PI:
        raise DomainError("theta must lie in [0, 2 pi)")
    q = math.exp(-a * t)
    T = math.tan(th / 2.0)
    u = math.tan(b * t / 2.0)
    num = (1.0 - q * q) * T * (1.0 + u * u)
    den = (1.0 - q) ** 2 + 4.0 * T * u + (1.0 + q) ** 2 * u * u
    return math.atan2(num, den) / math.pi


def odd_half_circle_prob(n: int, t: float) -> float:
    """P(0 < Theta < pi) = (1/pi) atan2(sinh(a t), sin(b t)).

    Equals arctan(sinh(a t)/sin(b t))/pi while b t < pi; atan2 keeps it
    a probability past that (the plain arctan drops by 1 once sin(b t)
    goes negative). Exact: it is odd_kernel_cdf at theta = pi.
    """
    a, b = _ab(n)
    _check_t(t)
    return math.atan2(math.sinh(a * t), math.sin(b * t)) / math.pi


def odd_quadrant_forms(n: int, t: float) -> tuple[float, float, float]:
    """Three algebraically identical arctan expressions (quadrant identity family).

    The first is odd_kernel_cdf_single_arctan at theta = pi/2; the other
    two are its hyperbolic rewrites. They agree with one another at
    machine accuracy but are NOT the kernel quadrant probability
    P(0 < Theta < pi/2) = odd_kernel_cdf(n, pi/2, t): their middle
    denominator term is e^{a t} sin(b t) where the CDF carries sin(b t)
    unweighted.
    """
    a, b = _ab(n)
    _check_t(t)
    q = math.exp(-a * t)
    u = math.tan(b * t / 2.0)
    l1 = math.atan(
        (1.0 - q * q) * (1.0 + u * u) / ((1.0 - q) ** 2 + 4.0 * u + (1.0 + q) ** 2 * u * u)
    ) / math.pi
    l2 = math.atan(
        math.sinh(a * t)
        / (
            2.0 * math.sinh(a * t / 2.0) ** 2 * math.cos(b * t / 2.0) ** 2
            + math.exp(a * t) * math.sin(b * t)
            + 2.0 * math.cosh(a * t / 2.0) ** 2 * math.sin(b * t / 2.0) ** 2
        )
    ) / math.pi
    l3 = math.atan(
        math.sinh(a * t) / (math.cosh(a * t) - math.cos(b * t) + math.exp(a * t) * math.sin(b * t))
    ) / math.pi
    return l1, l2, l3


def wrapped_skew_cauchy_density(n: int, theta, t: float, shells: int = 200):
    """2 pi-wrapping of the skewed Cauchy line law; independent route to the odd kernel.

    Sums shells |m| <= shells directly and closes both tails with the
    integral of the line density (midpoint rule in the shell index),
    which leaves a residual ~1e-10 at shells = 200.
    """
    a, b = _ab(n)
    _check_t(t)
    shells = _check_count(shells, "shells")
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    m = TWO_PI * np.arange(-shells, shells + 1)
    core = skew_cauchy_density(n, th[:, None] + m, t).sum(axis=1)
    scale = t * a
    hi = th + TWO_PI * (shells + 0.5)
    lo = th - TWO_PI * (shells + 0.5)
    tail = (
        1.0
        - (np.arctan((hi + t * b) / scale) - np.arctan((lo + t * b) / scale))
        / math.pi
    ) / TWO_PI
    out = core + tail
    return float(out[0]) if np.ndim(theta) == 0 else out


def kernel_limit_gap(n: int, t: float, grid_n: int = 512) -> float:
    """sup over a uniform angular grid of |odd kernel(n) - even kernel| at time t.

    Decreases to 0 as n grows (a -> 1, b -> 0 collapse the odd kernel
    onto the even one) and as t grows (both flatten to uniform).
    """
    if _check_count(grid_n, "grid_n") < 8:
        raise DomainError("grid_n must be >= 8")
    th = np.arange(grid_n) * (TWO_PI / grid_n)
    return float(np.max(np.abs(odd_kernel_density(n, th, t) - even_kernel_density(th, t))))

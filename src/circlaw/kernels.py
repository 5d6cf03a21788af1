"""Poisson kernels of subordinated circular pseudoprocesses.

Running the even-order circular laws on a stable clock collapses them
all onto a single Poisson kernel with radius e^{-t}, independent of the
order. The odd-order analogue keeps an order imprint through the
damping/rotation pair (a, b) of the line solution of order 2n+1: it
is the even kernel evaluated at radius e^{-a t} and angle theta + b t,
and collapses onto the even kernel as n grows; the even kernel is the
odd family at (a, b) = (1, 0), so both CDFs are one body. This module
carries the closed forms, certified series laws, exact branch-free
CDFs, interval probabilities, the wrapped skewed-Cauchy route to the
odd kernel and the odd-to-even limit gap.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, _check_finite, _check_n, _check_t
from .harmonic import TWO_PI, HarmonicLaw, _cdf_angles, _uniform_grid, certified_cutoff, cosine_law, exp_power_tail
from .line import _image_sum, _reduced, _rotation, skew_cauchy_density
from .special import DEFAULT_TOL, Tolerance

__all__ = [
    "even_kernel_density",
    "even_kernel_law",
    "even_kernel_cdf",
    "even_quadrant_prob",
    "odd_kernel_density",
    "odd_kernel_law",
    "odd_kernel_cdf",
    "odd_half_circle_prob",
    "wrapped_skew_cauchy_density",
    "kernel_limit_gap",
]


def _ab(n) -> tuple[float, float]:
    _check_n(n)
    return _rotation(2 * n + 1)


def _poisson_series_law(damp_rate: float, rotation: float, tol: Tolerance, meta: str) -> HarmonicLaw:
    """Series law 1/(2 pi) + (1/pi) sum_k e^{-k damp_rate} cos(k(theta + rotation)),
    cut by the geometric tail exp_power_tail(damp_rate, 1, K), its a_k and b_k built
    by harmonic.cosine_law's blocks (b_k = -(e^{-k damp_rate}/pi) sin(k rotation), -0.0 at rotation 0)."""

    def tail(K):
        return exp_power_tail(damp_rate, 1, K)

    advice = "the closed form has no such limit"
    K = certified_cutoff(tail, tol, advice)
    return cosine_law(
        lambda k: np.exp(-k * damp_rate) / math.pi * np.cos(k * rotation),
        tail, tol, advice, f"{meta}, K={K}", K,
        sines=lambda k: -(np.exp(-k * damp_rate) / math.pi) * np.sin(k * rotation),
    )


def _poisson_kernel(rate: float, phi):
    """(1/2pi)(1 - q^2)/(1 + q^2 - 2 q cos phi), q = e^{-rate}.

    The denominator is taken as (1 - q)^2 + 4 q sin^2(phi/2) with
    1 - q = -expm1(-rate), so it keeps full relative accuracy as
    rate -> 0, where 1 + q^2 - 2 q cos phi cancels to 0 at phi = 0.
    Dividing through by 1 - q keeps the peak (1 + q)/(2 pi (1 - q)) and
    every other value finite down to rate ~ 1e-307. Below that a value past
    the largest double (the peak, at subnormal rate) raises DomainError; a
    denominator that overflows gives 0, where the kernel is below 1.2e-308.
    """
    _check_finite(phi, "theta")
    q = math.exp(-rate)
    one_minus_q = -math.expm1(-rate)
    s = np.sin(np.asarray(phi, dtype=float) / 2.0)
    with np.errstate(over="ignore"):
        out = (1.0 + q) / (TWO_PI * (one_minus_q + 4.0 * q * s * s / one_minus_q))
    if np.any(out == math.inf):
        raise DomainError(f"the Poisson kernel passes the largest double at rate {rate!r}")
    return out


def even_kernel_density(theta, t: float):
    """Poisson kernel (1/2pi)(1 - q^2)/(1 + q^2 - 2 q cos theta), q = e^{-t}."""
    _check_t(t)
    out = _poisson_kernel(t, theta)
    return float(out) if np.ndim(theta) == 0 else out


def even_kernel_law(t: float, tol: Tolerance = DEFAULT_TOL) -> HarmonicLaw:
    """Series route to the even kernel: a_k = e^{-k t}/pi, b_k = 0."""
    _check_t(t)
    return _poisson_series_law(t, 0.0, tol, meta=f"even kernel, t={t:g}")


def _kernel_cdf(a: float, b: float, theta, t: float):
    """Branch-free CDF on [0, 2 pi] of the Poisson kernel of radius e^{-a t}
    and angle theta + b t, exact antiderivative of the closed form:

        (1/pi) atan2((1-q^2) sin(th/2), (1+q^2) cos(th/2) - 2 q cos(th/2 + b t)),

    q = e^{-a t}. The numerator is nonnegative on the circle, so atan2
    stays in [0, pi] and the value is a CDF with no branch seams; agrees
    with adaptive quadrature of the density at machine accuracy. The
    denominator is taken as (1-q)^2 cos(th/2) + 4 q sin(th/2 + b t/2) sin(b t/2)
    with 1 - q = -expm1(-a t): its two terms in the form above cancel as
    t -> 0. theta = -0.0 gives +0.0, as HarmonicLaw.cdf does.
    """
    _check_t(t)
    th, _ = _cdf_angles(theta)
    q = math.exp(-a * t)
    one_minus_q = -math.expm1(-a * t)
    num = -math.expm1(-2.0 * a * t) * np.sin(th / 2.0)
    turn = math.sin(b * t / 2.0)
    den = one_minus_q**2 * np.cos(th / 2.0) + 4.0 * q * turn * np.sin(th / 2.0 + b * t / 2.0)
    # adding +0.0 turns the -0.0 of theta = -0.0 into +0.0 and keeps every other value
    val = np.arctan2(num, den) / math.pi + 0.0
    return float(val) if np.ndim(theta) == 0 else val


def even_kernel_cdf(theta, t: float):
    """CDF on [0, 2 pi]: _kernel_cdf at (a, b) = (1, 0), which is
    (1/pi) arctan(coth(t/2) tan(theta/2)) on [0, pi) and 1 + the same on
    (pi, 2 pi); atan2 carries the value through the tangent pole, giving
    exactly 1/2 at theta = pi."""
    return _kernel_cdf(1.0, 0.0, theta, t)


def even_quadrant_prob(t: float) -> float:
    """P(-pi/2 < Theta < pi/2) = 1/2 + (2/pi) arctan e^{-t}.

    Identical to the CDF combination F(pi/2) + 1 - F(3 pi/2) through
    arctan((1+q)/(1-q)) = pi/4 + arctan q.
    """
    _check_t(t)
    return 0.5 + (2.0 / math.pi) * math.atan(math.exp(-t))


def odd_kernel_density(n: int, theta, t: float):
    """Rotated damped Poisson kernel: radius e^{-a t}, angle theta + b t
    (theta past |theta| > 2 pi first reduced by line._reduced)."""
    a, b = _ab(n)
    _check_t(t)
    _check_finite(theta, "theta")
    out = _poisson_kernel(a * t, _reduced(theta) + b * t)
    return float(out) if np.ndim(theta) == 0 else out


def odd_kernel_law(n: int, t: float, tol: Tolerance = DEFAULT_TOL) -> HarmonicLaw:
    """Series route: a_k = e^{-k a t} cos(k b t)/pi, b_k = -e^{-k a t} sin(k b t)/pi."""
    a, b = _ab(n)
    _check_t(t)
    return _poisson_series_law(a * t, b * t, tol, meta=f"odd kernel, n={n}, t={t:g}")


def odd_kernel_cdf(n: int, theta, t: float):
    """Branch-free CDF on [0, 2 pi]: _kernel_cdf at the pair (a, b) of order 2n+1."""
    return _kernel_cdf(*_ab(n), theta, t)


def odd_half_circle_prob(n: int, t: float) -> float:
    """P(0 < Theta < pi) = (1/pi) atan2(sinh(a t), sin(b t)).

    Equals arctan(sinh(a t)/sin(b t))/pi while b t < pi; atan2 keeps it
    a probability past that (the plain arctan drops by 1 once sin(b t)
    goes negative). Exact: it is odd_kernel_cdf at theta = pi. Both
    arguments are scaled by 2 e^{-a t} > 0, which leaves the angle as it
    is and keeps sinh from overflowing once a t > ~710.
    """
    a, b = _ab(n)
    _check_t(t)
    scale = 2.0 * math.exp(-a * t)
    return math.atan2(-math.expm1(-2.0 * a * t), scale * math.sin(b * t)) / math.pi


def _skew_shell_count(s: float) -> int:
    """Least M such that each tail |m| > M of the wrapped Cauchy law of
    scale s, shells counted from the law's centre, closes within
    DEFAULT_TOL/2 by the midpoint rule.

    On each cell of width h = 2 pi the rule is off by h^2 |f''|/24, and
    |f''(u)| <= g(u) = 6 s/(pi (u^2 + s^2)^2), which falls in |u|. A tail
    starts at least X = 2 pi M from the centre, so it is off by at most
    (h/24)(h g(X) + int_X^inf g), where the integral lies below both
    2 s/(pi X^3) and 3/(X^2 + s^2).
    """

    def both_tails(M):
        X = TWO_PI * M
        d = X * X + s * s
        g = 6.0 * s / (math.pi * d * d)
        return 2.0 * (TWO_PI / 24.0) * (TWO_PI * g + min(2.0 * s / (math.pi * X**3), 3.0 / d))

    return certified_cutoff(both_tails, DEFAULT_TOL, "the wrapped skewed Cauchy sum has no such limit")


def wrapped_skew_cauchy_density(n: int, theta, t: float):
    """2 pi-wrapping of the skewed Cauchy line law; independent route to the odd kernel.

    Sums the 2M + 1 shells nearest the law's centre -b t directly
    (line._image_sum) and closes both tails with the integral of the line
    density (midpoint rule in the shell index). M = _skew_shell_count(a t)
    certifies the closure within DEFAULT_TOL. theta past |theta| > 2 pi is
    first reduced by line._reduced.
    """
    a, b = _ab(n)
    _check_t(t)
    _check_finite(theta, "theta")
    th = _reduced(theta)
    scale = float(t * a)
    M = _skew_shell_count(scale)
    # the centre -b t lies in shell -c of theta; shells -c - M..-c + M are summed
    c = np.rint((th + b * t) / TWO_PI)
    core = _image_sum(lambda x: skew_cauchy_density(n, x, t), th - TWO_PI * c, M)
    hi = th + TWO_PI * (M + 0.5 - c)
    lo = th - TWO_PI * (M + 0.5 + c)
    angle = np.arctan2(hi + t * b, scale) - np.arctan2(lo + t * b, scale)
    tail = (1.0 - angle / math.pi) / TWO_PI
    out = core + tail
    return float(out) if np.ndim(theta) == 0 else out


# nodes of the uniform angular grid kernel_limit_gap takes its sup over
_GAP_GRID = 512


def kernel_limit_gap(n: int, t: float) -> float:
    """sup over a 512-node uniform angular grid of |odd kernel(n) - even kernel| at time t.

    Decreases to 0 as n grows (a -> 1, b -> 0 collapse the odd kernel
    onto the even one) and as t grows (both flatten to uniform).
    """
    th = _uniform_grid(_GAP_GRID)
    return float(np.max(np.abs(odd_kernel_density(n, th, t) - even_kernel_density(th, t))))

"""Circular Brownian motion: spectral and wrapped densities, Von Mises
comparison, quadrant probability, maximal distance, and first passage.

The law is the wrapped standard Brownian motion, with Fourier
coefficients e^{-k^2 t/2}/pi. Unlike the higher-order circular laws,
both computational routes (cosine series / wrapped Gaussian) converge
fast and agree to near machine precision, so every public quantity
keeps the cross-check alive.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import special as sp
from scipy.optimize import brentq

from .errors import ConvergenceError, DomainError, RouteDivergenceWarning, _check_finite
from .harmonic import TWO_PI, HarmonicLaw, cosine_law
from .line import _check_t
from .special import DEFAULT_TOL

__all__ = [
    "BmLaw",
    "bm_law",
    "bm_density",
    "bm_density_wrapped",
    "von_mises_density",
    "von_mises_density_series",
    "von_mises_matched_kappa",
    "bm_quadrant_prob",
    "bm_maxdist_cdf",
    "bm_first_passage_density",
]

_SQRT_2PI = math.sqrt(TWO_PI)


def _phi(x):
    return math.exp(-0.5 * x * x) / _SQRT_2PI


@dataclass(frozen=True)
class BmLaw:
    """Wrapped Brownian law at time t, carrying its cosine-series form."""

    t: float
    representation: HarmonicLaw

    def __post_init__(self):
        a = self.representation.cos_coeffs
        if a.size and not (np.all(a > 0.0) and np.all(np.diff(a) < 0.0)):
            raise DomainError("Brownian coefficients must be positive and decreasing")

    def density(self, theta):
        return self.representation.density(theta)

    def cdf(self, theta):
        return self.representation.cdf(theta)


def _bm_tail(K, t):
    # sum_{k > K} e^{-k^2 t/2}/pi <= lead/(pi (1 - e^{-(K+1) t}))
    # via k^2 >= (K+1)^2 + 2(K+1)(k - K - 1)
    lead = math.exp(-((K + 1) ** 2) * t / 2.0)
    return lead / (math.pi * -math.expm1(-(K + 1) * t))


def bm_law(t, tol=DEFAULT_TOL):
    """Cosine-series carrier of the wrapped Brownian law."""
    if not (t > 0.0):
        raise DomainError("t must be positive")
    rep = cosine_law(
        lambda k: np.exp(-k * k * (t / 2.0)) / math.pi,
        lambda K: _bm_tail(K, t),
        tol,
        f"at t={t} evaluate through bm_density_wrapped instead",
        f"wrapped Brownian motion, t={t!r}",
    )
    return BmLaw(t=float(t), representation=rep)


def bm_density_wrapped(theta, t, tol=DEFAULT_TOL):
    """Wrapped Gaussian route: sum of N(0, t) images over integer shells."""
    _check_t(t)
    th = np.asarray(theta, dtype=float)
    _check_finite(th, "theta")
    scalar = th.ndim == 0
    x = np.mod(th, TWO_PI)
    # outermost kept image sits at distance >= 2 pi M - pi from every
    # folded point; one extra shell absorbs the geometric tail
    L = -math.log(min(tol.abs_tol * math.sqrt(TWO_PI * t) / 4.0, 0.5))
    M = int(math.ceil((math.pi + math.sqrt(2.0 * t * L)) / TWO_PI)) + 1
    m = np.arange(-M, M + 1)
    pts = x[..., None] + TWO_PI * m
    vals = np.exp(-pts * pts / (2.0 * t)).sum(axis=-1) / math.sqrt(TWO_PI * t)
    return float(vals) if scalar else vals


def bm_density(theta, t, tol=DEFAULT_TOL):
    """Circular Brownian density; series primary, wrapped Gaussian check."""
    # run both routes a notch tighter than asked so their mutual gap
    # stays below the requested tolerance, not just below twice it
    inner = replace(tol, abs_tol=tol.abs_tol / 8.0)
    wrapped = bm_density_wrapped(theta, t, inner)
    try:
        law = bm_law(t, inner)
    except ConvergenceError:
        return wrapped  # very small t: series out of budget, wrapped exact
    series = law.density(theta)
    gap = float(np.max(np.abs(np.asarray(series) - np.asarray(wrapped))))
    if gap > max(tol.abs_tol, 1e-10):
        warnings.warn(
            f"Brownian series and wrapped routes differ by {gap:.3e} at t={t}",
            RouteDivergenceWarning,
            stacklevel=2,
        )
    return series


def von_mises_density(theta, kappa):
    """Exponential form e^{kappa cos theta}/(2 pi I_0(kappa)).

    Evaluated as e^{kappa(cos theta - 1)}/(2 pi i0e(kappa)) so large
    kappa never overflows.
    """
    if kappa < 0.0:
        raise DomainError("kappa must be nonnegative")
    th = np.asarray(theta, dtype=float)
    _check_finite(th, "theta")
    val = np.exp(kappa * (np.cos(th) - 1.0)) / (TWO_PI * sp.i0e(kappa))
    return float(val) if th.ndim == 0 else val


def von_mises_density_series(theta, kappa, tol=DEFAULT_TOL):
    """Fourier route: (1/2pi)(1 + 2 sum_k (I_k/I_0) cos k theta)."""
    if kappa < 0.0:
        raise DomainError("kappa must be nonnegative")
    th = np.asarray(theta, dtype=float)
    scalar = th.ndim == 0
    acc = np.ones(th.shape)
    i0 = sp.i0e(kappa)
    k = 1
    while True:
        r = sp.ive(k, kappa) / i0
        if r < tol.abs_tol / 8.0:  # ratios decrease monotonically in k
            break
        acc = acc + 2.0 * r * np.cos(k * th)
        k += 1
        if k > tol.max_terms:
            raise ConvergenceError("Von Mises Fourier series did not converge")
    out = acc / TWO_PI
    return float(out) if scalar else out


def von_mises_matched_kappa(t):
    """Concentration whose first circular moment matches the Brownian
    law at time t: solves I_1(kappa)/I_0(kappa) = e^{-t/2}."""
    if not (t > 0.0):
        raise DomainError("t must be positive")
    target = math.exp(-t / 2.0)

    def gap(k):
        return sp.ive(1, k) / sp.ive(0, k) - target

    hi = max(4.0, 2.0 / (1.0 - target))
    while gap(hi) < 0.0:
        hi *= 2.0
    return float(brentq(gap, 0.0, hi, xtol=1e-14, rtol=8.9e-16))


_QUAD_BOUND_T0 = 0.209  # threshold quoted for the e^{-t/2} envelope


def bm_quadrant_prob(t, tol=DEFAULT_TOL):
    """P(-pi/2 < B(t) < pi/2) by its alternating odd-harmonic series."""
    if not (t > 0.0):
        raise DomainError("t must be positive")
    acc, k = 0.0, 0
    while True:
        term = math.exp(-((2 * k + 1) ** 2) * t / 2.0) / (2 * k + 1)
        acc += term if k % 2 == 0 else -term
        if term < 1e-17:
            break
        k += 1
        if k > tol.max_terms:
            raise ConvergenceError("quadrant series did not converge")
    val = 0.5 + (2.0 / math.pi) * acc
    # alternating decreasing terms, so the one-term envelope holds
    if t > _QUAD_BOUND_T0 and val > 0.5 + (2.0 / math.pi) * math.exp(-t / 2.0) + 1e-12:
        raise ConvergenceError(f"quadrant series broke its e^(-t/2) envelope at t={t}")
    return val


def bm_maxdist_cdf(theta, t):
    """P(max angular distance from the start up to t stays below theta),
    by the double-barrier reflection series for line Brownian motion."""
    if not (0.0 < theta <= math.pi):
        raise DomainError("theta must lie in (0, pi]")
    if not (t > 0.0):
        raise DomainError("t must be positive")
    u = theta / math.sqrt(t)
    if u < 0.14:
        # the survival probability is below (4/pi) e^{-pi^2/(8 u^2)} < 1e-23,
        # under the cancellation floor of the alternating sum
        return 0.0
    total = sp.ndtr(u) - sp.ndtr(-u)
    r, sign = 1, -1.0
    while True:
        lo, hi = (2 * r - 1) * u, (2 * r + 1) * u
        term = sp.ndtr(hi) - sp.ndtr(lo)
        total += 2.0 * sign * term  # +-r images are equal by symmetry
        if 2.0 * u * _phi(lo) < 1e-12 or term == 0.0:
            break
        r += 1
        sign = -sign
    return min(max(total, 0.0), 1.0)


def bm_first_passage_density(theta, t):
    """Density in t of the first time the angular distance reaches theta.

    Termwise -d/dt of the reflection series; the r=0 term is the line
    first-passage density theta e^{-theta^2/(2t)}/sqrt(2 pi t^3).
    """
    if not (0.0 < theta <= math.pi):
        raise DomainError("theta must lie in (0, pi]")
    if not (t > 0.0):
        raise DomainError("t must be positive")
    u = theta / math.sqrt(t)
    if u < 0.14:
        return 0.0  # every Gaussian factor is below 1e-23 here
    total = u * _phi(u) / t
    r, sign = 1, -1.0
    while True:
        lo, hi = (2 * r - 1) * u, (2 * r + 1) * u
        term = (hi * _phi(hi) - lo * _phi(lo)) / (2.0 * t)
        total += 2.0 * sign * term
        if hi * _phi(lo) / t < 1e-12 or term == 0.0:
            break
        r += 1
        sign = -sign
    if total < 0.0 and total > -1e-15:
        return 0.0  # cancellation floor of the alternating tail
    return total

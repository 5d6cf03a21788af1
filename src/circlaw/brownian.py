"""Circular Brownian motion: spectral and wrapped densities, Von Mises
comparison, quadrant probability, maximal distance, and first passage.

The law is the wrapped standard Brownian motion, with Fourier
coefficients e^{-k^2 t/2}/pi. Unlike the higher-order circular laws,
both computational routes converge fast and agree to near machine
precision: the cosine series bm_law(t), which evaluates the density,
and the wrapped Gaussian bm_density_wrapped, which the even wrapped
route uses at n = 1. Validation criterion 2 checks the wrapped Gaussian
against the n = 1 even-order series (this law at time 2t), and 5b
checks it against the space-fractional law at beta = 1.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .errors import ConvergenceError, DomainError, _check_finite, _check_t
from .harmonic import TWO_PI, HarmonicLaw, cosine_law, exp_power_tail
from .line import _bisect, _centred, _image_sum, _shell_count
from .special import DEFAULT_TOL, MAX_TERMS

__all__ = [
    "BmLaw",
    "bm_law",
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
        # at large t the coefficients underflow to 0, which is their value
        if a.size and not (np.all(a >= 0.0) and np.all(np.diff(a) <= 0.0)):
            raise DomainError("Brownian coefficients must be nonnegative and nonincreasing")

    def density(self, theta):
        return self.representation.density(theta)

    def cdf(self, theta):
        return self.representation.cdf(theta)


def bm_law(t, tol=DEFAULT_TOL):
    """Cosine-series carrier of the wrapped Brownian law."""
    _check_t(t)
    rep = cosine_law(
        lambda k: np.exp(-k * k * (t / 2.0)) / math.pi,
        lambda K: exp_power_tail(t / 2.0, 2, K),
        tol,
        f"at t={t} evaluate through bm_density_wrapped instead",
        f"wrapped Brownian motion, t={t!r}",
    )
    return BmLaw(t=float(t), representation=rep)


def bm_density_wrapped(theta, t, tol=DEFAULT_TOL):
    """Wrapped Gaussian route: sum of N(0, t) images over shells |m| <= M.

    Angles are reduced to [-pi, pi], and N(0, t) is the order-2 line law at
    time t/2, so M = line._shell_count(2, t/2, tol) puts the dropped images
    below tol/2 (refused past special.MAX_TERMS shells). line._image_sum
    adds the images.
    """
    _check_t(t)
    _check_finite(theta, "theta")
    M = _shell_count(2, t / 2.0, tol)
    total = _image_sum(lambda x: np.exp(-x * x / (2.0 * t)), _centred(theta), M)
    return total / math.sqrt(TWO_PI * t)


def _check_kappa(kappa):
    _check_finite(kappa, "kappa")
    if kappa < 0.0:
        raise DomainError("kappa must be nonnegative")


def von_mises_density(theta, kappa):
    """Exponential form e^{kappa cos theta}/(2 pi I_0(kappa)).

    Evaluated as e^{kappa(cos theta - 1)}/(2 pi i0e(kappa)) so large
    kappa never overflows.
    """
    _check_kappa(kappa)
    th = np.asarray(theta, dtype=float)
    _check_finite(th, "theta")
    val = np.exp(kappa * (np.cos(th) - 1.0)) / (TWO_PI * sp.i0e(kappa))
    return float(val) if th.ndim == 0 else val


def von_mises_density_series(theta, kappa, tol=DEFAULT_TOL):
    """Fourier route (1/2pi)(1 + 2 sum_k r_k cos k theta), r_k = I_k/I_0, as a cosine carrier.

    rho_k = kappa / (k + 1/2 + sqrt(kappa^2 + (k + 1/2)^2)) bounds I_{k+1}/I_k
    and falls in k (Amos, Math. Comp. 28 (1974)), so the dropped tail
    sum_{j>K} r_j/pi is at most r_K rho_K / (pi (1 - rho_K)).
    """
    _check_kappa(kappa)
    i0 = sp.ive(0, kappa)

    def tail(K):
        rho = kappa / (K + 0.5 + math.hypot(kappa, K + 0.5))
        return sp.ive(K, kappa) / i0 * rho / (math.pi * (1.0 - rho))

    advice = "loosen the tolerance or use von_mises_density"
    meta = f"Von Mises series, kappa={kappa!r}"
    law = cosine_law(lambda k: sp.ive(k, kappa) / i0 / math.pi, tail, tol, advice, meta)
    return law.density(theta)


# below this t the float64 moment match fixes kappa only to a relative
# ~2 eps/t, and the large-kappa expansion is closer (to 2e-14)
_KAPPA_SMALL_T = 5e-4


def von_mises_matched_kappa(t):
    """Concentration whose first circular moment matches the Brownian
    law at time t: solves I_1(kappa)/I_0(kappa) = e^{-t/2}.

    The ratio rises from 0, and I_1/I_0 >= kappa/(1 + sqrt(kappa^2 + 1))
    (Amos, Math. Comp. 28 (1974)) gives 1 - I_1/I_0 < 2/kappa, so
    kappa = 2/(1 - e^{-t/2}) closes the bracket of the root; 1 - e^{-t/2}
    is formed as -expm1(-t/2). For t < _KAPPA_SMALL_T the root comes from
    1 - I_1/I_0 = 1/(2 kappa) + 1/(8 kappa^2) + 1/(8 kappa^3) + ... (DLMF
    10.40.1) as kappa = 1/t + 1/2 + 5t/24 + 3t^2/16, whose remainder,
    about 0.32 t^3 against 50-digit roots, is below 2.1e-14 of kappa there.
    A t whose kappa would pass the largest double is refused.
    """
    _check_t(t)
    if t < _KAPPA_SMALL_T:
        kappa = 1.0 / t + 0.5 + t * (5.0 / 24.0 + 3.0 * t / 16.0)
        if kappa == math.inf:
            raise DomainError(f"t = {t!r} puts kappa past the largest double")
        return kappa
    target = math.exp(-t / 2.0)

    def reached(k):
        # scipy's ratio errs by ~6e-15 at tiny k, where I_1/I_0 = k/2 - k^3/16 + ... is k/2
        return (k / 2.0 if k < 1e-8 else sp.ive(1, k) / sp.ive(0, k)) >= target

    return _bisect(reached, 0.0, max(4.0, 2.0 / -math.expm1(-t / 2.0)))


_QUAD_BOUND_T0 = 0.209  # threshold quoted for the e^{-t/2} envelope


def bm_quadrant_prob(t):
    """P(-pi/2 < B(t) < pi/2) by its alternating odd-harmonic series."""
    _check_t(t)
    acc, k = 0.0, 0
    while True:
        term = math.exp(-((2 * k + 1) ** 2) * t / 2.0) / (2 * k + 1)
        acc += term if k % 2 == 0 else -term
        if term < 1e-17:
            break
        k += 1
        if k > MAX_TERMS:
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
    _check_t(t)
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
    _check_t(t)
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

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

from .errors import ConvergenceError, DomainError, _check_finite, _check_t
from .harmonic import TWO_PI, HarmonicLaw, certified_cutoff, cosine_law, exp_power_tail
from .line import _bisect, _centred, _image_sum, _shell_count
from .special import DEFAULT_TOL, Tolerance

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
    # below t ~ 2.7e-308 the exponent overflows to -inf, whose exp is the exact 0
    with np.errstate(over="ignore"):
        total = _image_sum(lambda x: np.exp(-x * x / (2.0 * t)), _centred(theta), M)
    return total / math.sqrt(TWO_PI * t)


def _check_kappa(kappa):
    _check_finite(kappa, "kappa")
    if kappa < 0.0:
        raise DomainError("kappa must be nonnegative")


def von_mises_density(theta, kappa):
    """Exponential form e^{kappa cos theta}/(2 pi I_0(kappa)).

    Evaluated as e^{kappa(cos theta - 1)}/(2 pi i0e(kappa)) so large
    kappa never overflows. The Von Mises functions have no CLI or validate
    surface, so each loads scipy.special inside the call.
    """
    from scipy import special as sp

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
    from scipy import special as sp

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
    from scipy import special as sp

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


def _quadrant_term(t, k):
    return math.exp(-((2 * k + 1) ** 2) * t / 2.0) / (2 * k + 1)


def _quadrant_images(t):
    """Quadrant images sum_m [Phi((pi/2 + 2 pi m)/sqrt t) - Phi((-pi/2 + 2 pi m)/sqrt t)] = 1 - erfc(c) +
    sum_{m=1..M} [erfc((4m-1)c) - erfc((4m+1)c)], c = pi/(2 sqrt(2t)); as erfcx falls, the rest
    sums below erfc((4M+3)c)/(1 - e^{-8(4M+3)c^2}) <= 1e-17."""
    c = math.pi / (2.0 * math.sqrt(2.0 * t))
    M = certified_cutoff(
        lambda m: math.erfc((4 * m + 3) * c) / -math.expm1(-8.0 * (4 * m + 3) * c * c),
        Tolerance(1e-17),
        "use a smaller t",
    )
    far = sum(math.erfc((4 * m - 1) * c) - math.erfc((4 * m + 1) * c) for m in range(M, 0, -1))
    return 1.0 - math.erfc(c) + far


def bm_quadrant_prob(t):
    """P(-pi/2 < B(t) < pi/2) = 1/2 + (2/pi) sum_{k>=0} (-1)^k e^{-(2k+1)^2 t/2}/(2k+1).

    The terms fall, so adding k = 0..K up to the first K >= 1 whose term is
    at most 1e-17 (harmonic.certified_cutoff) leaves a tail below 1e-17. K
    grows like 1/sqrt t, the images' count M (_quadrant_images) like sqrt t:
    they answer at t <= _QUAD_BOUND_T0 (M = 1, K >= 9); above it the series
    keeps its e^{-t/2} envelope (row 9c). Rounding can leave [0, 1]: clamped.
    """
    _check_t(t)
    if t <= _QUAD_BOUND_T0:
        return min(_quadrant_images(t), 1.0)
    K = certified_cutoff(lambda k: _quadrant_term(t, k), Tolerance(1e-17), "use a larger t")
    acc = np.cumsum([(-1) ** k * _quadrant_term(t, k) for k in range(K + 1)])[-1]
    val = float(0.5 + (2.0 / math.pi) * acc)
    # alternating decreasing terms, so the one-term envelope holds
    if val > 0.5 + (2.0 / math.pi) * math.exp(-t / 2.0) + 1e-12:
        raise ConvergenceError(f"quadrant series broke its e^(-t/2) envelope at t={t}")
    return min(max(val, 0.0), 1.0)


def _reflection_images(theta, t, bound):
    """u = theta/sqrt(t), the signs (-1)^r and the image ends lo, hi = (2r -+ 1) u,
    r = 1..R, of the double-barrier reflection series; None where u < 0.14,
    which puts every Gaussian factor below 1e-23. R is the first r whose
    bound(u, lo, hi) on the term is at most 1e-12 (harmonic.certified_cutoff:
    each bound is log-concave in r, so it stays there)."""
    if not (0.0 < theta <= math.pi):
        raise DomainError("theta must lie in (0, pi]")
    _check_t(t)
    u = theta / math.sqrt(t)
    if u < 0.14:
        return None
    R = certified_cutoff(
        lambda r: bound(u, (2 * r - 1) * u, (2 * r + 1) * u), Tolerance(1e-12), "u >= 0.14 bounds R"
    )
    r = np.arange(1, R + 1)
    return u, (-1.0) ** r, (2 * r - 1) * u, (2 * r + 1) * u


def bm_maxdist_cdf(theta, t):
    """P(max angular distance from the start up to t stays below theta),
    by the double-barrier reflection series for line Brownian motion, cut
    at the first image whose term, at most 2 u phi(lo), is certified below 1e-12."""
    images = _reflection_images(theta, t, lambda u, lo, hi: 2.0 * u * _phi(lo))
    if images is None:
        return 0.0  # the survival probability is below (4/pi) e^{-pi^2/(8 u^2)} < 1e-23
    u, sign, lo, hi = images
    # Phi(b) - Phi(a) = (erfc(a/sqrt 2) - erfc(b/sqrt 2))/2 for 0 < a < b, with
    # no cancellation near 1; the +-r images are equal by symmetry
    r2 = math.sqrt(2.0)
    terms = [
        s * (math.erfc(a / r2) - math.erfc(b / r2))
        for s, a, b in zip(sign.tolist(), lo.tolist(), hi.tolist())
    ]
    total = np.cumsum([math.erf(u / r2), *terms])[-1]
    return float(min(max(total, 0.0), 1.0))


def bm_first_passage_density(theta, t):
    """Density in t of the first time the angular distance reaches theta.

    Termwise -d/dt of the reflection series, cut at the first image whose
    term, at most hi phi(lo)/t, is certified below 1e-12; the r=0 term is the line
    first-passage density theta e^{-theta^2/(2t)}/sqrt(2 pi t^3).
    """
    images = _reflection_images(theta, t, lambda u, lo, hi: hi * _phi(lo) / t)
    if images is None:
        return 0.0  # every Gaussian factor is below 1e-23 here
    u, sign, lo, hi = images
    # scalar math.exp on Python floats: the ends pass 1e154 at subnormal t
    term = [(h * _phi(h) - l * _phi(l)) / (2.0 * t) for l, h in zip(lo.tolist(), hi.tolist())]
    total = float(np.cumsum([u * _phi(u) / t, *(2.0 * sign * term)])[-1])
    if total < 0.0 and total > -1e-15:
        return 0.0  # cancellation floor of the alternating tail
    return total

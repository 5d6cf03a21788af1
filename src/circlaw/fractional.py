"""Fractional circular laws: Caputo time order, spectral space order,
wrapped symmetric stable laws, and their equalities in law.

Coefficient decay drives everything here. Space-fractional and wrapped
stable coefficients decay like stretched exponentials and their tails
are certified by an integral bound; time-fractional and space-time
coefficients decay only algebraically, through the complete-monotone
bound E_nu(-y) <= 1/(1 + y/Gamma(1+nu)). A tolerance the algebraic
tail cannot certify within the term budget raises instead of silently
truncating.
"""

import math
import warnings

import numpy as np

from .errors import ConvergenceError, SlowDecayWarning, _check_n, _check_t, _check_unit
from .harmonic import cosine_law, scaled_powers
from .kernels import _poisson_kernel
from .pseudo import even_circle_law
from .special import DEFAULT_TOL, _upper_gamma, mittag_leffler_many

__all__ = [
    "time_fractional_law",
    "space_fractional_law",
    "space_fractional_half_closed",
    "wrapped_stable_law",
    "space_time_fractional_density",
    "space_time_fractional_cdf",
]

_SLOW_DECAY_K = 100_000


def time_fractional_law(n, nu, t, tol=DEFAULT_TOL):
    """Harmonic carrier with coefficients E_nu(-k^{2n} t^nu)/pi.

    nu = 1 collapses to the even-order circular law exactly. For nu < 1
    the coefficients decay like k^{-2n}, so the certified cutoff grows
    as tol^{-1/(2n-1)}; an unaffordable cutoff raises with advice.
    """
    _check_n(n)
    _check_unit(nu, "nu")
    _check_t(t)
    if nu == 1.0:
        return even_circle_law(n, t, tol)
    # sum_{k>K} E_nu(-k^{2n} t^nu) <= Gamma(1+nu) t^-nu sum k^{-2n}
    #                              <= c K^{1-2n}/(2n-1), c = Gamma(1+nu) t^-nu
    c = math.gamma(1.0 + nu) * t ** (-nu) / math.pi
    return cosine_law(
        # k^{2n} t^nu past the largest double is inf, and E_nu(-inf) = 0
        lambda k: mittag_leffler_many(nu, -scaled_powers(t**nu, 2 * n, k), tol) / math.pi,
        lambda K: c * K ** (1 - 2 * n) / (2 * n - 1),
        tol,
        "time-fractional law: loosen the tolerance or work at the CDF level",
        f"time-fractional circular law, n={n}, nu={nu!r}, t={t!r}",
    )


def _stretched_tail(c, p, K):
    # sum_{k>K} e^{-c k^p} <= int_K^inf e^{-c x^p} dx, integrand decreasing
    s = 1.0 / p
    try:
        return s * c ** (-s) * _upper_gamma(s, c * K**p)
    except OverflowError:  # c^{-s} or Gamma(s) (beta < 0.003) past the largest double: refused
        return math.inf


def _stretched_law(c, p, coeffs, tol, what, meta):
    """Cosine carrier for coefficients e^{-c k^p}/pi, p <= 2."""
    law = cosine_law(
        coeffs,
        lambda K: _stretched_tail(c, p, K) / math.pi,
        tol,
        f"{what} coefficients decay too slowly; loosen the tolerance",
        meta,
    )
    if law.n_terms > _SLOW_DECAY_K:
        warnings.warn(
            f"{what} truncation uses {law.n_terms} terms (subexponential decay)",
            SlowDecayWarning,
            stacklevel=3,
        )
    return law


def space_fractional_law(beta, t, tol=DEFAULT_TOL):
    """Harmonic carrier with coefficients e^{-(k^2/2)^beta t}/pi."""
    _check_unit(beta, "beta")
    _check_t(t)
    return _stretched_law(
        t / 2.0**beta,  # exponent is c k^{2 beta}
        2.0 * beta,
        lambda k: np.exp(-((k * k / 2.0) ** beta) * t) / math.pi,
        tol,
        "space-fractional law",
        f"space-fractional circular law, beta={beta!r}, t={t!r}",
    )


def space_fractional_half_closed(theta, t):
    """Closed form at beta = 1/2: the Poisson kernel of radius e^{-t/sqrt(2)}
    (kernels._poisson_kernel), as the coefficients e^{-k t/sqrt(2)}/pi say.

    Cross-check oracle only; the series is the production path.
    """
    _check_t(t)
    val = _poisson_kernel(t / math.sqrt(2.0), theta)
    return float(val) if np.ndim(theta) == 0 else val


def wrapped_stable_law(beta, t, tol=DEFAULT_TOL):
    """Harmonic carrier with coefficients e^{-k^{2 beta} t}/pi: the
    wrapped symmetric stable law of index 2 beta, equal in law to the
    space-fractional law at time 2^beta t."""
    _check_unit(beta, "beta")
    _check_t(t)
    return _stretched_law(
        t,
        2.0 * beta,
        lambda k: np.exp(-(k ** (2.0 * beta)) * t) / math.pi,
        tol,
        "wrapped stable law",
        f"wrapped symmetric stable law, beta={beta!r}, t={t!r}",
    )


def _space_time_coeffs(nu, beta, t, k, tol):
    return mittag_leffler_many(nu, -((k * k / 2.0) ** beta) * t**nu, tol) / math.pi


def space_time_fractional_density(nu, beta, theta, t, tol=DEFAULT_TOL):
    """Density with coefficients E_nu(-(k^2/2)^beta t^nu)/pi.

    For nu < 1 the coefficients decay like k^{-2 beta}: the pointwise
    series is absolutely summable only for beta > 1/2 (at beta = 1/2
    the density has a genuine logarithmic singularity at theta = 0).
    Below that, evaluate distributions through
    space_time_fractional_cdf, whose extra 1/k always converges.
    """
    _check_unit(nu, "nu")
    _check_unit(beta, "beta")
    _check_t(t)
    if nu == 1.0:
        return space_fractional_law(beta, t, tol).density(theta)
    if beta <= 0.5:
        raise ConvergenceError(
            "pointwise space-time series diverges for beta <= 1/2 when "
            "nu < 1; use space_time_fractional_cdf"
        )
    c = math.gamma(1.0 + nu) * t ** (-nu) * 2.0**beta / math.pi
    return cosine_law(
        lambda k: _space_time_coeffs(nu, beta, t, k, tol),
        lambda K: c * K ** (1 - 2 * beta) / (2 * beta - 1),
        tol,
        "space-time density: loosen the tolerance or use space_time_fractional_cdf",
        f"space-time fractional law, nu={nu!r}, beta={beta!r}, t={t!r}",
    ).density(theta)


def space_time_fractional_cdf(nu, beta, theta, t, tol=DEFAULT_TOL):
    """CDF-level series theta/(2 pi) + (1/pi) sum E_nu(...) sin(k theta)/k.

    The extra 1/k makes the tail ~ K^{-2 beta}, certifiable for every
    beta in (0, 1], which is what distribution-level comparisons need.
    """
    _check_unit(nu, "nu")
    _check_unit(beta, "beta")
    _check_t(t)
    if nu == 1.0:
        return space_fractional_law(beta, t, tol).cdf(theta)
    # the carrier's tail_bound is c K^{-2 beta}/(2 beta), in CDF units
    c = math.gamma(1.0 + nu) * t ** (-nu) * 2.0**beta / math.pi
    return cosine_law(
        lambda k: _space_time_coeffs(nu, beta, t, k, tol),
        lambda K: c * K ** (-2 * beta) / (2 * beta),
        tol,
        "space-time CDF: loosen the tolerance",
        f"space-time fractional CDF series, nu={nu!r}, beta={beta!r}, t={t!r}",
    ).cdf(theta)

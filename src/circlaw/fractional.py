"""Fractional circular laws: Caputo time order, spectral space order,
wrapped symmetric stable laws, and their equalities in law.

Coefficient decay drives everything here. Space-fractional and wrapped
stable coefficients decay like stretched exponentials and their tails
are certified by an integral bound; time-fractional and space-time
coefficients decay only algebraically, and one tail builder certifies
both families through the complete-monotone bound
E_nu(-y) <= Gamma(1+nu)/y. A tolerance the algebraic tail cannot
certify within the term budget raises instead of silently truncating.
The beta = 1/2 closed form is the even Poisson kernel at time t/sqrt(2).
"""

import math
import warnings

import numpy as np

from .errors import ConvergenceError, SlowDecayWarning, _check_n, _check_t, _check_unit
from .harmonic import cosine_law, scaled_powers
from .kernels import even_kernel_density
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


def _algebraic_law(coeffs, nu, t, scale, s, tol, advice, meta):
    """Cosine carrier whose series terms are at most c k^{-(s+1)}, cut by the
    tail c K^{-s}/s >= c sum_{k>K} k^{-(s+1)}, c = Gamma(1+nu) t^-nu scale/pi.

    Each coefficient is E_nu(-y)/pi with y = k^{s+1} t^nu/scale, or, in the
    space-time CDF series, whose terms carry an extra 1/k, y = k^s t^nu/scale;
    the complete-monotone bound E_nu(-y) <= Gamma(1+nu)/y gives c.
    """
    c = math.gamma(1.0 + nu) * t ** (-nu) * scale / math.pi
    return cosine_law(coeffs, lambda K: c * K ** (-s) / s, tol, advice, meta)


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
    return _algebraic_law(
        # k^{2n} t^nu past the largest double is inf, and E_nu(-inf) = 0
        lambda k: mittag_leffler_many(nu, -scaled_powers(t**nu, 2 * n, k), tol) / math.pi,
        nu, t, 1.0, 2 * n - 1, tol,
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
    """Closed form at beta = 1/2: the even Poisson kernel at time t/sqrt(2)
    (kernels.even_kernel_density), as the coefficients e^{-k t/sqrt(2)}/pi say.

    Cross-check oracle only; the series is the production path.
    """
    return even_kernel_density(theta, t / math.sqrt(2.0))


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


def _space_time_law(nu, beta, t, tol, cdf):
    """Carrier of the coefficients E_nu(-(k^2/2)^beta t^nu)/pi (the
    space-fractional law at nu = 1), cut by the density's tail or, with
    cdf, by the CDF series' tail, whose terms carry an extra 1/k."""
    _check_unit(nu, "nu")
    _check_unit(beta, "beta")
    _check_t(t)
    if nu == 1.0:
        return space_fractional_law(beta, t, tol)
    if not cdf and beta <= 0.5:
        raise ConvergenceError(
            "pointwise space-time series diverges for beta <= 1/2 when "
            "nu < 1; use space_time_fractional_cdf"
        )
    return _algebraic_law(
        lambda k: _space_time_coeffs(nu, beta, t, k, tol),
        nu, t, 2.0**beta, 2 * beta if cdf else 2 * beta - 1, tol,
        "space-time CDF: loosen the tolerance" if cdf
        else "space-time density: loosen the tolerance or use space_time_fractional_cdf",
        f"space-time fractional {'CDF series' if cdf else 'law'}, nu={nu!r}, beta={beta!r}, t={t!r}",
    )


def space_time_fractional_density(nu, beta, theta, t, tol=DEFAULT_TOL):
    """Density with coefficients E_nu(-(k^2/2)^beta t^nu)/pi.

    For nu < 1 the coefficients decay like k^{-2 beta}: the pointwise
    series is absolutely summable only for beta > 1/2 (at beta = 1/2
    the density has a genuine logarithmic singularity at theta = 0).
    Below that, evaluate distributions through
    space_time_fractional_cdf, whose extra 1/k always converges.
    """
    return _space_time_law(nu, beta, t, tol, cdf=False).density(theta)


def space_time_fractional_cdf(nu, beta, theta, t, tol=DEFAULT_TOL):
    """CDF-level series theta/(2 pi) + (1/pi) sum E_nu(...) sin(k theta)/k.

    The extra 1/k makes the tail ~ K^{-2 beta}, certifiable for every
    beta in (0, 1], which is what distribution-level comparisons need.
    """
    return _space_time_law(nu, beta, t, tol, cdf=True).cdf(theta)

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
from scipy import special as sp

from .errors import ConvergenceError, DomainError, SlowDecayWarning, _check_finite
from .harmonic import TWO_PI, HarmonicLaw, cosine_law
from .pseudo import even_circle_law
from .special import DEFAULT_TOL, mittag_leffler_many

__all__ = [
    "time_fractional_law",
    "space_fractional_law",
    "space_fractional_density",
    "space_fractional_half_closed",
    "frac_laplacian_apply",
    "wrapped_stable_law",
    "wrapped_stable_density",
    "space_time_fractional_density",
    "space_time_fractional_cdf",
]

_SLOW_DECAY_K = 100_000


def _check_unit(name, x):
    if not (0.0 < x <= 1.0):
        raise DomainError(f"{name} must lie in (0, 1]")


def time_fractional_law(n, nu, t, tol=DEFAULT_TOL):
    """Harmonic carrier with coefficients E_nu(-k^{2n} t^nu)/pi.

    nu = 1 collapses to the even-order circular law exactly. For nu < 1
    the coefficients decay like k^{-2n}, so the certified cutoff grows
    as tol^{-1/(2n-1)}; an unaffordable cutoff raises with advice.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError("n must be an integer >= 1")
    _check_unit("nu", nu)
    if not (t > 0.0):
        raise DomainError("t must be positive")
    if nu == 1.0:
        return even_circle_law(n, t, tol)
    # sum_{k>K} E_nu(-k^{2n} t^nu) <= Gamma(1+nu) t^-nu sum k^{-2n}
    #                              <= c K^{1-2n}/(2n-1), c = Gamma(1+nu) t^-nu
    c = math.gamma(1.0 + nu) * t ** (-nu) / math.pi
    return cosine_law(
        lambda k: mittag_leffler_many(nu, -(k ** (2 * n)) * t**nu, tol) / math.pi,
        lambda K: c * K ** (1 - 2 * n) / (2 * n - 1),
        tol,
        "time-fractional law: loosen the tolerance or work at the CDF level",
        f"time-fractional circular law, n={n}, nu={nu!r}, t={t!r}",
    )


def _stretched_tail(c, p, K):
    # sum_{k>K} e^{-c k^p} <= int_K^inf e^{-c x^p} dx, integrand decreasing
    s = 1.0 / p
    return s * c ** (-s) * sp.gamma(s) * sp.gammaincc(s, c * K**p)


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
    _check_unit("beta", beta)
    if not (t > 0.0):
        raise DomainError("t must be positive")
    return _stretched_law(
        t / 2.0**beta,  # exponent is c k^{2 beta}
        2.0 * beta,
        lambda k: np.exp(-((k * k / 2.0) ** beta) * t) / math.pi,
        tol,
        "space-fractional law",
        f"space-fractional circular law, beta={beta!r}, t={t!r}",
    )


def space_fractional_density(beta, theta, t, tol=DEFAULT_TOL):
    """Density of the space-fractional circular law (series route)."""
    return space_fractional_law(beta, t, tol).density(theta)


def space_fractional_half_closed(theta, t):
    """Closed form at beta = 1/2: a geometric (Poisson-type) kernel.

    Cross-check oracle only; the series is the production path.
    """
    if not (t > 0.0):
        raise DomainError("t must be positive")
    th = np.asarray(theta, dtype=float)
    _check_finite(th, "theta")
    q = math.exp(-t * math.sqrt(2.0))  # = r^2 with r = e^{-t/sqrt(2)}
    r = math.exp(-t / math.sqrt(2.0))
    val = (1.0 - q) / (TWO_PI * (1.0 + q - 2.0 * r * np.cos(th)))
    return float(val) if th.ndim == 0 else val


def frac_laplacian_apply(beta, law, negate=False):
    """Spectral fractional Laplacian on a harmonic carrier.

    Maps (a_k, b_k) to ((k^2/2)^beta a_k, (k^2/2)^beta b_k) and a0 to 0,
    i.e. the positive-semidefinite operator (-(1/2) d^2/dtheta^2)^beta.
    negate=True applies the generator, which carries the opposite sign.
    """
    _check_unit("beta", beta)
    k = np.arange(1.0, law.n_terms + 1.0)
    eig = (k * k / 2.0) ** beta
    sign = -1.0 if negate else 1.0
    return HarmonicLaw(
        a0=0.0,
        cos_coeffs=sign * eig * law.cos_coeffs,
        sin_coeffs=sign * eig * law.sin_coeffs,
        tail_bound=0.0,
        meta=f"fractional Laplacian (beta={beta!r}) of [{law.meta}]",
    )


def wrapped_stable_law(beta, t, tol=DEFAULT_TOL):
    """Harmonic carrier with coefficients e^{-k^{2 beta} t}/pi: the
    wrapped symmetric stable law of index 2 beta."""
    _check_unit("beta", beta)
    if not (t > 0.0):
        raise DomainError("t must be positive")
    return _stretched_law(
        t,
        2.0 * beta,
        lambda k: np.exp(-(k ** (2.0 * beta)) * t) / math.pi,
        tol,
        "wrapped stable law",
        f"wrapped symmetric stable law, beta={beta!r}, t={t!r}",
    )


def wrapped_stable_density(beta, theta, t, tol=DEFAULT_TOL):
    """Density of the wrapped symmetric stable law.

    Equal in law to the space-fractional density at time 2^beta t.
    """
    return wrapped_stable_law(beta, t, tol).density(theta)


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
    _check_unit("nu", nu)
    _check_unit("beta", beta)
    if not (t > 0.0):
        raise DomainError("t must be positive")
    if nu == 1.0:
        return space_fractional_density(beta, theta, t, tol)
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
    _check_unit("nu", nu)
    _check_unit("beta", beta)
    if not (t > 0.0):
        raise DomainError("t must be positive")
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

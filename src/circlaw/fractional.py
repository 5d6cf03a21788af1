"""Fractional circular laws: Caputo time order, spectral space order,
wrapped symmetric stable laws, and their equalities in law.

Coefficient decay drives everything here. Space-fractional and wrapped
stable coefficients decay like stretched exponentials and their tails
are certified by an integral bound. Time-fractional and space-time
coefficients, E_nu(-y_k)/pi with y_k = a k^sigma, decay only
algebraically, and one builder (_algebraic_law) serves both families by
two routes: the plain series, cut by the complete-monotone bound
E_nu(-y) <= Gamma(1+nu)/y, and the lattice form, which keeps an exact
head of K0 coefficients and sums the later ones' asymptotic model
sum_j c_j k^{-sigma j} in closed form (lattice), so tens of terms do the
work of 10^4-10^6. A tolerance neither route certifies within the term
budget raises instead of silently truncating. The beta = 1/2 closed form
is the even Poisson kernel at time t/sqrt(2).
"""

import math
import warnings

import numpy as np

from .errors import ConvergenceError, SlowDecayWarning, _check_n, _check_t, _check_unit
from .harmonic import TWO_PI, HarmonicLaw, certified_cutoff, cosine_law, scaled_powers
from .kernels import even_kernel_density
from .pseudo import even_circle_law
from .special import DEFAULT_TOL, Tolerance, _ml_many, _rgamma, _upper_gamma

__all__ = [
    "time_fractional_law",
    "space_fractional_law",
    "space_fractional_half_closed",
    "wrapped_stable_law",
    "space_time_fractional_density",
    "space_time_fractional_cdf",
]

_SLOW_DECAY_K = 100_000
# the lattice form's orders: J asymptotic terms at most, and no order
# sigma J past this (Gamma(sigma J) and the zeta arguments stay tame)
_MAX_J = 16
_MAX_ORDER = 64.0


def _remainder_terms(nu, a, sigma, J, cdf):
    """(log b, e) with sum_{k>K} |R_J(a k^sigma)|/pi <= b K^{-e}, with cdf each
    term over k, where E_nu(-y) = sum_{j<=J} (-1)^{j+1} y^{-j}/Gamma(1 - nu j) + R_J(y).

    The spectral form of E_nu (Gorenflo, Kilbas, Mainardi & Rogosin,
    Mittag-Leffler Functions, 2014, ch. 3) gives
    |R_J(y)| <= Gamma(nu (J+1)) y^{-(J+1)}/(pi m), m = 1 for nu <= 1/2 and
    sin(nu pi) above, for every y > 0 (sharp at nu = 1/2); the sum over
    k > K is at most the integral from K of x^{-e}, e = sigma (J+1) - 1, or
    sigma (J+1) with cdf.
    """
    m = 1.0 if nu <= 0.5 else math.sin(math.pi * nu)
    e = sigma * (J + 1) - (0.0 if cdf else 1.0)
    return math.lgamma(nu * (J + 1)) - (J + 1) * math.log(a) - math.log(math.pi**2 * m * e), e


def _remainder_bound(nu, a, sigma, J, K, cdf):
    log_b, e = _remainder_terms(nu, a, sigma, J, cdf)
    return math.exp(min(log_b - e * math.log(K), 700.0))


def _lattice_plans(nu, a, sigma, cdf, tol, points, k_plain):
    """(cost, J) for J = 1, 2, ...: cost = K0 + max(points, 1) L ranks J, with
    K0 solved from the remainder bound in logs and L = J plus the closed
    form's Horner steps per point. A J is left out where
    k_plain <= K0 + points L, the plain series being cheaper, and the plans
    end where 1 + points L reaches k_plain (L only grows with J, and K0 >= 1)."""
    # lattice loads on first use: `import circlaw` compiles none of it
    from .lattice import series_length

    weight, length = max(points, 1), 0
    for J in range(1, _MAX_J + 1):
        if sigma * J > _MAX_ORDER or -J * math.log(a) > 700.0:
            return
        length = max(length, series_length(sigma * J + (1.0 if cdf else 0.0), cdf) // 2 + 1)
        if 1 + points * (J + length) >= k_plain:
            return
        log_b, e = _remainder_terms(nu, a, sigma, J, cdf)
        K0 = math.exp(min((log_b - math.log(0.5 * tol.abs_tol)) / e, 700.0))
        if K0 + points * (J + length) < k_plain:
            yield K0 + weight * (J + length), J


def _lattice_law(coeffs, nu, a, sigma, cdf, tol, points, k_plain, meta):
    """The lattice form of a carrier, or None where no J certifies.

    The model of every coefficient past K0 is sum_{j<=J} c_j k^{-sigma j},
    c_j = (-1)^{j+1} a^{-j}/(pi Gamma(1 - nu j)); its tail is summed in closed
    form (lattice.lattice_tail). The tolerance is split: the remainder
    past K0 at most tol/2 (which sets K0 for each J, by the shared cutoff
    rule), the head's Mittag-Leffler error at most tol/4 (every coefficient
    is asked within pi tol/(4 K0)), and the closed forms' rounding at most
    tol/4. The J (_lattice_plans) are tried in one pass from the cheapest.
    Where none fits and the plain series refuses too (k_plain infinite),
    those refused for their rounding r alone get a second pass, K0
    re-solved for the 3 tol/4 - r that the head and r leave, and the first
    whose whole bound is within tol is taken. points is the number of
    angles of the call, 0 for a carrier built before its angles are known
    (time-fractional laws take the lattice form whenever K0 < k_plain).
    """
    plans, over = sorted(_lattice_plans(nu, a, sigma, cdf, tol, points, k_plain)), []
    law = _first_fit([(J, 0.5 * tol.abs_tol) for _, J in plans], coeffs, nu, a, sigma, cdf, tol, meta, over)
    if law is None and k_plain == math.inf:
        plans = [(J, 0.75 * tol.abs_tol - r) for J, r in over if r < 0.75 * tol.abs_tol]
        law = _first_fit(plans, coeffs, nu, a, sigma, cdf, tol, meta)
    return law


def _first_fit(plans, coeffs, nu, a, sigma, cdf, tol, meta, over=None):
    """The carrier of the first (J, share) of plans that fits, or None: K0 is
    the least K whose remainder is within share, and the whole bound must be
    within tol. With the list over, a J whose closed forms' rounding passes
    tol/4 is refused and appended to over as (J, rounding)."""
    from .lattice import lattice_tail

    for J, share in plans:
        try:
            K0 = certified_cutoff(lambda K: _remainder_bound(nu, a, sigma, J, K, cdf), Tolerance(share), "")
        except ConvergenceError:  # past the term budget
            continue
        # c_j = 0 where Gamma(1 - nu j) has a pole; c_1 > 0 always
        c = [(-1.0 if j % 2 == 0 else 1.0) * a ** (-j) * _rgamma(1.0 - nu * j) / math.pi for j in range(1, J + 1)]
        used = [(cj, sigma * j) for j, cj in enumerate(c, 1) if cj]
        # a density carrier's CDF is certified too: its tail terms only gain a 1/k
        tail = lattice_tail([cj for cj, _ in used], [sj for _, sj in used], K0, density=not cdf)
        if over is not None and tail.rounding > 0.25 * tol.abs_tol:
            over.append((J, tail.rounding))
            continue
        errs = []
        try:
            head = coeffs(np.arange(1.0, K0 + 1.0), Tolerance(math.pi * tol.abs_tol / (4.0 * K0)), errs, False)
        except ConvergenceError:  # the head's contour cannot reach its share
            continue
        bound = _remainder_bound(nu, a, sigma, J, K0, cdf) + math.fsum(errs) / math.pi + tail.rounding
        if bound > tol.abs_tol:
            continue
        return HarmonicLaw(
            a0=1.0 / TWO_PI,
            cos_coeffs=head,
            sin_coeffs=np.zeros(K0),
            tail_bound=bound,
            meta=f"{meta}, lattice tail past K0={K0} with J={J}",
            lattice=tail,
        )
    return None


def _algebraic_law(coeffs, nu, t, scale, sigma, cdf, tol, points, advice, meta):
    """Cosine carrier of the coefficients E_nu(-y_k)/pi, y_k = a k^sigma with
    a = t^nu/scale, by the cheaper of two routes.

    coeffs(k, tol, errs, deep) returns the coefficients at the modes k within
    tol and appends the sum of their Mittag-Leffler error bounds to the list
    errs unless it is None (without deep, all on the contour:
    special._ml_many).

    The plain series is cut at k_plain, where the tail c K^{-s}/s,
    c = Gamma(1+nu) t^-nu scale/pi, s = sigma - 1 (or sigma with cdf, whose
    series terms carry an extra 1/k), bounds sum_{k>K} c k^{-(s+1)}: the
    complete-monotone bound E_nu(-y) <= Gamma(1+nu)/y gives c. Its
    tail_bound is that truncation alone: the K coefficients' own
    Mittag-Leffler errors are in no bound there (the lattice form's
    tail_bound carries its head's). The lattice form (_lattice_law) is
    taken where it is cheaper; both refusing raises with the advice.
    points = math.inf forces the plain series, the second route.
    """
    c = math.gamma(1.0 + nu) * t ** (-nu) * scale / math.pi
    s = sigma if cdf else sigma - 1

    def plain_tail(K):
        return c * K ** (-s) / s

    try:
        k_plain = certified_cutoff(plain_tail, tol, advice)
    except ConvergenceError:
        if points == math.inf:
            raise
        k_plain = math.inf
    if points < math.inf and 1 + 2 * points < k_plain:  # else K0 >= 1, L >= 2: the plain series is cheaper
        law = _lattice_law(coeffs, nu, t**nu / scale, sigma, cdf, tol, points, k_plain, meta)
        if law is not None:
            return law
        if k_plain == math.inf:
            raise ConvergenceError(
                f"neither the series nor its lattice form certifies tol={tol.abs_tol}; {advice}"
            )
    return cosine_law(lambda k: coeffs(k, tol, None, True), plain_tail, tol, advice, meta, k_plain)


def _ml_coeffs(nu, y, tol, errs, deep):
    """E_nu(-y)/pi at the arguments y within tol, the coefficient body of both
    algebraic families (see _algebraic_law for errs and deep)."""
    vals, err = _ml_many(nu, -y, tol, deep)
    if errs is not None:
        errs.append(math.fsum(err))
    return vals / math.pi


def _time_fractional_coeffs(nu, t, n):
    # k^{2n} t^nu past the largest double is inf, and E_nu(-inf) = 0
    return lambda k, tol, errs, deep: _ml_coeffs(nu, scaled_powers(t**nu, 2 * n, k), tol, errs, deep)


def _time_fractional_law(n, nu, t, tol, points):
    _check_n(n)
    _check_unit(nu, "nu")
    _check_t(t)
    if nu == 1.0:
        return even_circle_law(n, t, tol)
    return _algebraic_law(
        _time_fractional_coeffs(nu, t, n), nu, t, 1.0, 2 * n, False, tol, points,
        "time-fractional law: loosen the tolerance or work at the CDF level",
        f"time-fractional circular law, n={n}, nu={nu!r}, t={t!r}",
    )


def time_fractional_law(n, nu, t, tol=DEFAULT_TOL):
    """Harmonic carrier with coefficients E_nu(-k^{2n} t^nu)/pi.

    nu = 1 collapses to the even-order circular law exactly. For nu < 1
    the coefficients decay like k^{-2n}: the plain series would need
    ~tol^{-1/(2n-1)} terms, so the carrier keeps an exact head and sums
    the rest in closed form (Bernoulli polynomials, see _algebraic_law)
    wherever that needs fewer coefficients; a tolerance neither route
    certifies raises with advice.
    """
    return _time_fractional_law(n, nu, t, tol, 0)


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


def _space_time_coeffs(nu, beta, t, k, tol, errs, deep):
    """E_nu(-(k^2/2)^beta t^nu)/pi at the modes k within tol (_ml_coeffs)."""
    return _ml_coeffs(nu, (k * k / 2.0) ** beta * t**nu, tol, errs, deep)


def _space_time_law(nu, beta, t, tol, cdf, points):
    """Carrier of the coefficients E_nu(-(k^2/2)^beta t^nu)/pi (the
    space-fractional law at nu = 1), certified for the density or, with
    cdf, for the CDF series, whose terms carry an extra 1/k; points is the
    call's number of angles (math.inf forces the plain series)."""
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
        lambda k, tol, errs, deep: _space_time_coeffs(nu, beta, t, k, tol, errs, deep),
        nu, t, 2.0**beta, 2 * beta, cdf, tol, points,
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
    return _space_time_law(nu, beta, t, tol, False, np.size(theta)).density(theta)


def space_time_fractional_cdf(nu, beta, theta, t, tol=DEFAULT_TOL):
    """CDF-level series theta/(2 pi) + (1/pi) sum E_nu(...) sin(k theta)/k.

    The extra 1/k makes the tail ~ K^{-2 beta}, certifiable for every
    beta in (0, 1], which is what distribution-level comparisons need.
    """
    return _space_time_law(nu, beta, t, tol, True, np.size(theta)).cdf(theta)

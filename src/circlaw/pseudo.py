"""Signed circular laws of wrapped even/odd-order pseudoprocesses.

The even-order laws have rapidly decaying Fourier coefficients
e^{-k^{2n} t}/pi and are honest (signed, mass-1) densities with two
independent evaluation routes: the cosine series and the wrapped line
density over a proven shell count (line_density_even; n = 1: the wrapped
Gaussian). The odd-order object has coefficients cos(k^{2n+1}t)/pi,
-sin(k^{2n+1}t)/pi that never decay: it is a distribution, not a
function. Its pointwise values depend on the summation scheme; only
projections (mass, Fourier coefficients) are scheme-independent. The
wrapped probabilistic route with a smooth shell taper,
odd_circle_density_wrapped, is the evaluator. At rational times
t = 2 pi a/q the law is a finite signed measure, odd_circle_atoms, whose
projections are exact (validation criterion 14 checks the evaluator's
against them).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    ConvergenceError,
    _check_count,
    _check_finite,
    _check_n,
    _check_t,
)
from .brownian import bm_density_wrapped
from .harmonic import TWO_PI, HarmonicLaw, cosine_law, exp_power_tail, scaled_power, scaled_powers
from .line import (
    _CANCEL_BUDGET,
    _bisect,
    _centred,
    _image_sum,
    _reduced,
    _rotation,
    _shell_count,
    line_density_even,
    line_density_odd,
)
from .special import DEFAULT_TOL, MAX_TERMS, Tolerance

__all__ = [
    "even_circle_law",
    "even_circle_density",
    "even_circle_density_wrapped",
    "odd_circle_density_wrapped",
    "odd_circle_atoms",
    "min_value",
    "positivity_time",
]

# e^{-x} is 0 in float64 for every x past this (the least subnormal is e^-744.4)
_EXP_ZERO = 746.0
# shells for the n=1 odd wrapped sum; the tapered-window residual decays
# roughly like M^{-3/2}, and 6144 puts projections below ~1e-5
_ODD_SHELLS = 6144


def even_circle_law(n: int, t: float, tol: Tolerance = DEFAULT_TOL) -> HarmonicLaw:
    """Series law with a0 = 1/(2 pi), a_k = e^{-k^{2n} t}/pi, b_k = 0.

    Truncation: the smallest K with exp_power_tail(t, 2n, K) <= tol.
    """
    _check_n(n)
    _check_t(t)
    return cosine_law(
        lambda k: np.exp(-scaled_powers(t, 2 * n, k)) / math.pi,
        lambda K: exp_power_tail(t, 2 * n, K),
        tol,
        f"use the wrapped route (even_circle_density_wrapped) at t = {t:g}",
        f"even-order circular law, n={n}, t={t:g}",
    )


def even_circle_density(n: int, theta, t: float, tol: Tolerance = DEFAULT_TOL):
    """Crossover evaluator: series when it fits, wrapped sum otherwise."""
    try:
        law = even_circle_law(n, t, tol)
    except ConvergenceError:
        return even_circle_density_wrapped(n, theta, t, tol)
    return law.density(theta)


def even_circle_density_wrapped(n: int, theta, t: float, tol: Tolerance = DEFAULT_TOL):
    """Wrapped line density sum_m u_{2n}(theta + 2 pi m, t); scalar or array theta.

    n = 1 is the wrapped Gaussian of variance 2t (bm_density_wrapped). At
    n >= 2 the angles, reduced to [-pi, pi], keep the shells |m| <= M =
    line._shell_count(2n, t, tol) (tail below tol/2), refused past M = 64,
    where the series serves. line._image_sum adds the shells, each value
    from line_density_even within tol/258.
    """
    _check_finite(theta, "theta")
    _check_n(n)
    _check_t(t)
    if n == 1:
        return bm_density_wrapped(theta, 2.0 * t, tol)
    M = _shell_count(2 * n, t, tol)
    if M > 64:
        raise ConvergenceError(
            f"the wrapped tail needs {M} shells at t = {t:g}, past m = 64; "
            "evaluate the series (even_circle_law)"
        )
    each = Tolerance(tol.abs_tol / 258.0)
    return _image_sum(lambda x: line_density_even(n, x, t, each), _centred(theta), M)


# ---------------------------------------------------------------------------
# odd-order circular law


def _taper_weights(M: int) -> np.ndarray:
    """The 2M + 1 shell weights of the odd window in shell order m = -M..M:
    Hann rolloff after a flat core, w = 1 on |m| <= M/2, cos^2 beyond."""
    m = np.arange(M + 1)
    mf = M // 2
    w = np.ones(M + 1)
    roll = m > mf
    u = (m[roll] - mf) / max(M - mf, 1)
    w[roll] = np.cos(0.5 * math.pi * u) ** 2
    return np.concatenate([w[:0:-1], w])


def _budget_shells(n: int, t: float) -> int:
    """Shell count of the n >= 2 window: where the gamma route's peak exponent
    reaches _CANCEL_BUDGET. The contour kernel is not bound by it; the
    window is kept so that the law's values stay those of this scheme."""
    g = 2 * n + 1
    _, b = _rotation(g)
    bx = (_CANCEL_BUDGET * g / (g - 1)) ** ((g - 1) / g) * (g * t) ** (1.0 / g)
    x_max = bx / b - 0.5
    return max(2, int((x_max - math.pi) / TWO_PI))


def odd_circle_density_wrapped(n: int, theta, t: float, tol: Tolerance = DEFAULT_TOL):
    """Tapered wrapped sum sum_m w_m u_{2n+1}(theta + 2 pi m, t).

    The left tail of the odd line density oscillates with the
    stationary-phase envelope |x|^{-(2n-1)/(4n)} (at n = 1,
    Ai(-z) ~ z^{-1/4}) and never becomes absolutely summable, so a
    raw shell sum random-walks. A smooth (flat + Hann) taper suppresses
    the window boundary to second order; projections of the tapered sum
    converge, pointwise values remain scheme-dependent. The window has
    M = 6144 shells at n = 1 and _budget_shells(n, t) at n >= 2, about
    theta as given, or about its residue in [-pi, pi] where |theta| > 2 pi
    (line._reduced); line._image_sum adds them. Every shell value comes from
    line_density_odd within tol / sum_m w_m, so the quadrature error of
    the sum is at most tol.

    For n = 1 the mode-1 projection comes from the stationary point
    x = -3t of the Airy tail, so t must keep 3t inside the taper's flat
    core |x| <= pi M with a 10% margin (t <= 0.3 pi M); past that bound
    ConvergenceError is raised. At M = 6144 the 128-node projection error
    is ~4e-8 at the bound, 4e-5 at the core edge and 0.18 at t = 1e4.

    At n >= 2 the window resolves only mode 1. Mode k's stationary point
    x ~ -p k^{p-1} t (p = 2n + 1) lies past the flat core of the
    _budget_shells window for k >= 2 (the window reaches 2 pi M = 88 at
    n = 2, t = 1). Against the exact coefficients, the 128-node
    projections miss by 1.3e-3 to 3.9e-3 at mode 1 and by 0.04 to 0.32,
    about the coefficients' full size 1/pi, at modes 2-6 (n = 2,
    t in {0.5, 1, 2 pi/5}; n = 3, t = 1).
    """
    _check_n(n)
    _check_finite(theta, "theta")
    _check_t(t)
    M = _ODD_SHELLS if n == 1 else _budget_shells(n, t)
    if n == 1 and t > 0.3 * math.pi * M:
        raise ConvergenceError(
            f"t = {t:g} moves the mode-1 stationary point 3t out of the flat core "
            f"of the {M}-shell window, which serves t <= 0.3 pi M = {0.3 * math.pi * M:g}"
        )
    w = _taper_weights(M)
    shell_tol = Tolerance(tol.abs_tol / float(w.sum()))
    return _image_sum(lambda x: line_density_odd(n, x, t, shell_tol), _reduced(theta), M, w)


def odd_circle_atoms(n: int, a: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The odd-order law at t = 2 pi a/q as atoms: (angles 2 pi j/q, weights w_j).

    The coefficients e^{i k^p t}, p = 2n + 1, are q-periodic in k, so the
    law is sum_j w_j delta(theta - 2 pi j/q) with w = ifft of
    e^{2 pi i (a r^p mod q)/q}, r = 0..q-1 (dispersive quantization:
    Olver, Amer. Math. Monthly 117 (2010)). The residues a r^p mod q are
    exact integers. The weights are real since p is odd (the imaginary
    parts, ~1e-16, are dropped) and sum to 1.
    """
    n, a, q = _check_count(n, "n"), _check_count(a, "a"), _check_count(q, "q")
    p = 2 * n + 1
    phase = np.array([a * pow(r, p, q) % q for r in range(q)], float) * (TWO_PI / q)
    return np.arange(q) * (TWO_PI / q), np.fft.ifft(np.exp(1j * phase)).real


# ---------------------------------------------------------------------------
# minimum value and positivity time


def min_value(n: int, t: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """v_{2n}(pi, t) = 1/(2 pi) + (1/pi) sum_k (-1)^k e^{-k^{2n} t}.

    The sum stops once a term is below tol.abs_tol/8 (from k = 2), or at
    the first k with k^{2n} t past _EXP_ZERO, where that term and every
    later one are 0 in float64; k^{2n} t is formed in logs where k^{2n}
    passes the largest double (harmonic.scaled_power).
    """
    _check_n(n)
    _check_t(t)
    p = 2 * n
    total = 1.0 / TWO_PI
    sign = -1.0
    for k in range(1, MAX_TERMS + 1):
        xt = scaled_power(t, p, k)
        if xt > _EXP_ZERO:
            return total
        term = math.exp(-xt) / math.pi
        total += sign * term
        if term < tol.abs_tol / 8.0 and k >= 2:
            return total
        sign = -sign
    raise ConvergenceError("alternating series did not reach tolerance")


def positivity_time(n: int, tol: Tolerance = DEFAULT_TOL) -> float:
    """First time t_bar after which the even-order law stays nonnegative.

    n = 1 wraps a Gaussian, positive at every t, so t_bar = 0. For n >= 2,
    t_bar = ln 2 - delta at the least delta in [0, ln 2 - 1/2] (line._bisect) with
    pi v(pi, ln 2 - delta) = -expm1(delta)/2 + sum_{k>=2} (-1)^k e^{-x_k (ln 2 - delta)} <= 0,
    x_k = k^{2n}, a form without cancellation; the k-sum keeps the terms above
    tol.abs_tol at t = 1/2. With S_j(t) = sum_{k>=2} k^j e^{-x_k t}, two
    closed-form inequalities are then checked at t_bar: e^{-t} > S_2(t) puts
    the global minimum at pi (|sin ky| <= k |sin y|), and e^{-t} > S_{2n}(t)
    makes v(pi, .) rise. Both ratios e^t S_j(t) fall in t, so they hold for
    every t >= t_bar. The terms past the kept ones add at most
    int_a^inf x e^{-xt} dx, a = max(2 ln(1/tol), 16) - 1, to either sum. A
    failed check raises ConvergenceError.
    """
    _check_n(n)
    if n == 1:
        return 0.0
    p = 2 * n
    cut = -2.0 * math.log(tol.abs_tol)  # e^{-x/2} > tol iff x < cut
    k = 2
    while k**p < cut:  # exact int powers: no overflow at large n
        k += 1
    ks = np.arange(2.0, k)
    x, sign, ln2 = ks**p, (-1.0) ** ks, math.log(2.0)

    def nonpositive(delta):
        return -math.expm1(delta) / 2.0 + float(np.sum(sign * np.exp(-x * (ln2 - delta)))) <= 0.0

    # delta to the last bit, far below half an ulp of t near ln 2 (5.6e-17);
    # at n >= 3 the k-sum is empty or below eps, and delta = 0 already holds
    t_bar = ln2 - _bisect(nonpositive, 0.0, ln2 - 0.5)
    a = max(cut, 16.0) - 1.0
    rest = math.exp(-a * t_bar) * (a / t_bar + 1.0 / t_bar**2)
    w = np.exp(-x * t_bar)
    for j, weights in ((2, ks**2), (p, x)):
        if not math.exp(-t_bar) > float(weights @ w) + rest:
            raise ConvergenceError(f"e^(-t) > S_{j}(t) fails at t_bar = {t_bar!r}, n = {n}")
    return t_bar

"""Special functions and the shared accuracy request.

Tolerance, the accuracy request every law takes, and the Mittag-Leffler
function E_nu on its completely monotone branch behind the
time-fractional laws, for whole coefficient arrays: a vectorized
asymptotic sum deep in the tail and one certified trapezoid sum on a
Bromwich parabola everywhere else; the scalar mittag_leffler is entry 0
of the array call. Two scalar gamma functions serve the laws: _rgamma
(1/Gamma, the asymptotic sum's coefficients) and _upper_gamma
(Gamma(s, x), the stretched-exponential tail of the space-fractional
and wrapped stable laws). Both are built on math.gamma;
line evaluates Ai itself (Maclaurin series, Gauss-Laguerre quadrature
and the oscillating expansion). No module imports scipy at import time:
only the Von Mises functions load scipy.special, inside the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, _check_unit

# the one term budget: the largest count harmonic.certified_cutoff returns,
# to series laws, image sums and alternating sums alike
MAX_TERMS = 10**6
# the double machine epsilon of every rounding certificate, here and in
# harmonic and line
_EPS = float(np.finfo(float).eps)
# the smallest normal double, here and in line
_TINY = float(np.finfo(float).tiny)
# largest work array of a blocked loop, in entries: the Mittag-Leffler
# asymptotic sweep and contour sum (nodes x entries), harmonic's coefficient
# build, grid fold (the node 0 alone too) and scattered blocks of points, and
# line's contour kernel (points x nodes, points x ellipses, or at odd p the
# saddle ray's (p - 1) x points), Airy core (points x nodes) and image sums
# (angles x shells)
_WORK = 1 << 14

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "mittag_leffler",
    "mittag_leffler_many",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    """a made read-only and returned: a module constant or a cached array is
    shared by every caller, so none may write into it."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Tolerance:
    """Accuracy request: a positive, finite absolute target."""

    abs_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.abs_tol < math.inf:
            raise DomainError("abs_tol must be positive and finite")


DEFAULT_TOL = Tolerance()


# ---------------------------------------------------------------------------
# gamma functions of one float


def _rgamma(x: float) -> float:
    """1/Gamma(x) by scipy.special.rgamma's conventions: 0 at the poles
    x = 0, -1, -2, ... and past x ~ 171.6, where Gamma overflows, and
    +-inf where 1/Gamma passes the largest double (Gamma(-180.3) is -0.0 in
    float64, and a plain 1/math.gamma would divide by zero there)."""
    try:
        g = math.gamma(x)
    except (ValueError, OverflowError):  # a pole, or Gamma past the largest double
        return 0.0
    return 1.0 / g if g else math.copysign(math.inf, g)


def _power_exp(s: float, x: float) -> float:
    """x^s e^{-x}, in logs only where x^s alone passes the largest double."""
    try:
        return x**s * math.exp(-x)
    except OverflowError:
        return math.exp(s * math.log(x) - x)


def _upper_gamma(s: float, x: float) -> float:
    """Gamma(s, x) = int_x^inf u^{s-1} e^{-u} du for s > 0 and x >= 0.

    Below x = s + 1 it is Gamma(s) - gamma(s, x) with the series
    gamma(s, x) = x^s e^{-x} sum_n x^n / (s (s+1) ... (s+n)), whose terms
    fall from the first; for s >= 1/2 (every s = 1/(2 beta) of the laws)
    Gamma(s, x) >= 0.08 Gamma(s) there, so the difference loses at most a
    factor 12. From s + 1 on it is
    x^s e^{-x} / (x + 1 - s - 1 (1 - s)/(x + 3 - s - 2 (2 - s)/(x + 5 - s - ...))),
    Legendre's continued fraction, by the modified Lentz method (Numerical
    Recipes, 3rd ed., 6.2). Within 5e-15 relative of 40-digit values over
    s in [0.5, 10], x in [1e-3, 500]. A Gamma(s) past the largest double
    raises OverflowError.
    """
    if x == math.inf:
        return 0.0
    if x < s + 1.0:
        term = total = 1.0 / s
        a = s
        while term > total * _EPS:
            a += 1.0
            term *= x / a
            total += term
        return math.gamma(s) - _power_exp(s, x) * total
    b = x + 1.0 - s
    c, d = 1.0 / _TINY, 1.0 / b
    h, i = d, 0
    while True:
        i += 1
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        c = b + an / c
        d = 1.0 / (d if d else _TINY)
        c = c if c else _TINY
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return _power_exp(s, x) * h


# ---------------------------------------------------------------------------
# Mittag-Leffler, completely monotone branch E_nu(x), x <= 0
# ---------------------------------------------------------------------------

# The optimally truncated asymptotic sum is certified only this deep in the
# tail; nearer in, the min-term rule under-reports the remainder when nu -> 1.
_ML_ASYMP_MIN_Y = 50.0
# Measured (not proven) accuracy floor of the asymptotic sum over a
# (nu, y >= 50) grid.
_ML_ASYMP_FLOOR = 2.5e-12
# fixed cap on the contour's nodes; a tol whose discretization and
# truncation bounds need more is refused
_ML_MAX_NODES = 256
# the contour is sized for at least this accuracy: at a looser tol its few
# entries cost about the same, and their values do not move with tol
_ML_CONTOUR_TOL = 1e-12
# parabola scales mu (rows) and strip half-widths a (columns) searched
_ML_MU = _frozen(np.arange(0.5, 8.01, 0.25)[:, None])
_ML_STRIP = _frozen(np.arange(0.05, 0.991, 0.01)[None, :])


def _ml_asymptotic_many(nu: float, y: np.ndarray, tol_abs: float):
    """Asymptotic sum_{j>=1} (-1)^{j+1} y^{-j} / Gamma(1 - nu j), vectorized.

    Terms whose Gamma sits at a pole are exactly zero and must be skipped,
    not treated as convergence (_rgamma returns 0 there). Each entry stops
    at its smallest term; the estimate below that is unreliable closer in
    than y ~ 50, which callers must enforce. Blocks of _WORK entries
    take the first term together, and later rounds run only over the
    entries still going, so beyond out and err the work arrays hold at
    most one block. An entry's value does not depend on its block.
    """
    out = np.empty_like(y)
    err = np.empty_like(y)
    for lo in range(0, y.size, _WORK):
        inv = 1.0 / y[lo : lo + _WORK]
        val, bound = out[lo : lo + inv.size], err[lo : lo + inv.size]
        np.multiply(inv, _rgamma(1.0 - nu), out=val)  # Gamma(1 - nu) > 0: never -0.0
        np.abs(val, out=bound)
        nonzero = bound > 0.0
        live = np.flatnonzero(~(nonzero & (bound < tol_abs * 1e-2)))
        bound[~nonzero] = np.inf
        prev_mag = bound[live]
        inv = inv[live]
        powj = inv * inv
        for j in range(2, 201):
            if not live.size:
                break
            term = powj * _rgamma(1.0 - nu * j) * (1.0 if j % 2 else -1.0)
            mag = np.abs(term)
            nonzero = mag > 0.0
            # freeze an entry BEFORE adding the first growing term
            grows = nonzero & (mag >= prev_mag)
            use = nonzero & ~grows
            val[live[use]] += term[use]
            bound[live[use]] = mag[use]
            keep = ~grows & ~(use & (mag < tol_abs * 1e-2))
            live, inv, powj = live[keep], inv[keep], powj[keep]
            prev_mag = np.where(nonzero, mag, prev_mag)[keep]
            powj = powj * inv
    return out, np.maximum(err, _ML_ASYMP_FLOOR, out=err)


@lru_cache(maxsize=64)
def _ml_nodes(nu: float, tol_abs: float):
    """Node constants (A, B, P, Q) of the contour sum for E_nu(-y), 0 < nu < 1.

    On the parabola s = mu (1 + i u)^2, u = k h, the Bromwich integral
    E_nu(-y) = (1/2 pi i) int e^s s^{nu-1}/(s^nu + y) ds is, by conjugate
    symmetry, the trapezoid sum Re sum_{k=0..N} A_k/(B_k + y) with
    A_k = (h/pi) 2 mu (1 + i u_k) e^{s_k} s_k^{nu-1} (half weight at
    k = 0) and B_k = s_k^nu. On the strip |Im u| <= a < 1 s stays on the
    principal sheet, where |s^nu + y| >= (|s|^nu + y) c, c = cos(nu pi/2),
    so |e^s s^{nu-1}/(s^nu + y)| <= |e^s|/(|s| c) for every y. Each error
    piece is held below tol/3: the discretization 2 M/(e^{2 pi a/h} - 1),
    M = e^{mu (1+a)^2}/(c (1-a) sqrt(pi mu)) (Trefethen & Weideman, SIAM
    Rev. 56 (2014), Thm 5.1), sets h; the truncation past U = N h,
    e^{mu (1-U^2)}/(pi c mu U^2) from |e^s| = e^{mu (1-u^2)}, sets N; the
    rounding, which grows like e^mu, is charged per entry (_ml_contour).
    On a (mu, a) grid the fewest nodes win whose estimated rounding at
    y -> 0 stays below tol/6, else the least rounding. Nodes run from
    k = N down to 0, so a sequential sum adds the smallest terms first;
    P_k and Q_k are the rounding weights of term k.
    """
    c = math.cos(0.5 * math.pi * nu)
    mu, a, log_tol = _ML_MU, _ML_STRIP, math.log(tol_abs)
    log_m = mu * (1.0 + a) ** 2 - np.log(c * (1.0 - a) * np.sqrt(math.pi * mu))
    h = 2.0 * math.pi * a / np.logaddexp(0.0, math.log(6.0) + log_m - log_tol)
    u_max = np.sqrt(1.0 + np.maximum(np.log(3.0 / (math.pi * c * mu)) - log_tol, 0.0) / mu)
    n = np.ceil(u_max / h)
    rounding = _EPS * 2.0 * np.exp(mu) / np.sqrt(math.pi * mu) * (16.0 + 2.0 * mu + 1.0 / h)
    fits = n <= _ML_MAX_NODES
    if not fits.any():
        raise ConvergenceError(
            f"Mittag-Leffler contour needs more than {_ML_MAX_NODES} nodes for tol={tol_abs}"
        )
    cheap = fits & (rounding <= tol_abs / 6.0)
    cost = np.where(cheap, n, np.inf) if cheap.any() else np.where(fits, rounding, np.inf)
    i, j = np.unravel_index(np.argmin(cost), cost.shape)
    mu, h = float(_ML_MU[i, 0]), float(h[i, j])
    k = np.arange(n[i, j], -1.0, -1.0)
    u = k * h
    s = mu * (1.0 - u * u) + 2j * mu * u
    log_s = np.log(s)
    weight = np.where(k == 0.0, 0.5, 1.0) * (2.0 * mu * h / math.pi)
    A = weight * (1.0 + 1j * u) * np.exp(s + (nu - 1.0) * log_s)
    B = np.exp(nu * log_s)
    # relative error of A_k (its exp argument errs by ~eps |s|), of the
    # division and of the k + 1 sequential additions that carry term k;
    # Q_k carries the error of B_k, amplified by |B_k|/|B_k + y|
    P = _EPS * np.abs(A) * (16.0 + k + 2.0 * np.abs(s) + 2.0 * np.abs(log_s))
    Q = _EPS * np.abs(A) * np.abs(B) * (4.0 + 2.0 * np.abs(log_s))
    return tuple(_frozen(v)[:, None] for v in (A, B, P, Q))


def _ml_contour(nu: float, y: np.ndarray, tol_abs: float):
    """(E_nu(-y), its rounding charge) for 0 < nu < 1 and y > 0 within tol_abs,
    by the contour sum sized for min(tol_abs, _ML_CONTOUR_TOL).

    Blocks of entries take one (nodes x entries) array each, so an entry's
    value does not depend on the others. Each entry's rounding charge is
    sum_k (P_k + Q_k/|d_k|)/|d_k|, d_k = B_k + y; an entry whose charge
    passes tol/3 raises ConvergenceError naming the rounding floor, the
    largest charge. The charge does not rise with y (checked over
    nu in [0.02, 0.99], tol in [1e-15, 1e-12], y in [0, 1e6]), so a caller
    that passes a y increasing in k by blocks of k meets the refusal, with
    the same floor, at the block that holds the smallest y of the contour.
    """
    A, B, P, Q = _ml_nodes(nu, min(tol_abs, _ML_CONTOUR_TOL))
    out = np.empty_like(y)
    charge = np.empty_like(y)
    cols = max(1, _WORK // A.shape[0])
    for i in range(0, y.size, cols):
        d = B + y[i : i + cols]
        out[i : i + cols] = np.cumsum((A / d).real, axis=0)[-1]
        inv = 1.0 / np.abs(d)
        charge[i : i + cols] = (inv * (P + Q * inv)).sum(axis=0)
    floor = 3.0 * float(charge.max())
    if floor > tol_abs:
        raise ConvergenceError(
            f"Mittag-Leffler contour rounding floor {floor:.1e} exceeds tol={tol_abs}"
        )
    return out, charge


def mittag_leffler(nu: float, x: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """E_{nu,1}(x) for 0 < nu <= 1 and x <= 0, absolute error <= tol.abs_tol:
    entry 0 of mittag_leffler_many(nu, [x], tol)."""
    return float(mittag_leffler_many(nu, [x], tol)[0])


def mittag_leffler_many(nu: float, xs, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Vectorized E_{nu,1} over an array of nonpositive arguments.

    x = 0 gives exactly 1 and nu = 1 gives exp(x). Otherwise the deep
    tail (y = -x >= 50) goes through one vectorized asymptotic sweep,
    kept where its error (at least the measured floor 2.5e-12) meets
    tol, and every other entry through one certified contour sum
    (_ml_contour), which forms no y^(1/nu) and so cannot overflow.
    """
    return _ml_many(nu, xs, tol)[0]


def _ml_many(nu: float, xs, tol: Tolerance, deep: bool = True):
    """(mittag_leffler_many(nu, xs, tol), a bound on each entry's error);
    without deep every entry with x < 0 takes the contour, the cheaper path
    for a few entries at a tight tol.

    The bound is 0 at x = 0, eps exp(x) at nu = 1, the asymptotic sweep's
    own estimate where it is kept, and on the contour its two sized pieces,
    2/3 of min(tol, _ML_CONTOUR_TOL), plus the entry's rounding charge.
    Every bound is at most tol.abs_tol.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    _check_unit(nu, "nu")
    if np.any(np.isnan(xs)):
        raise DomainError("x must not be NaN")
    if np.any(xs > 0.0):
        raise DomainError("only the x <= 0 branch is supported")
    if nu == 1.0:
        out = np.exp(xs)
        return out, _EPS * out
    y = -xs.ravel()
    out = np.ones_like(y)
    err = np.zeros_like(y)
    rest = y > 0.0
    deep = y >= (_ML_ASYMP_MIN_Y if deep else math.inf)
    if deep.any():
        vals, errs = _ml_asymptotic_many(nu, y[deep], tol.abs_tol)
        out[deep] = vals  # entries it cannot certify are overwritten below
        err[deep] = errs
        rest[deep] = errs > tol.abs_tol
    if rest.any():
        out[rest], charge = _ml_contour(nu, y[rest], tol.abs_tol)
        err[rest] = 2.0 / 3.0 * min(tol.abs_tol, _ML_CONTOUR_TOL) + charge
    return out.reshape(xs.shape), err.reshape(xs.shape)

"""Special functions and the shared accuracy request.

Tolerance, the accuracy request every law takes, and the Mittag-Leffler
function E_nu on its completely monotone branch behind the
time-fractional laws. The line solutions take Ai from scipy.special and
inline the generalized gamma density they integrate against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import rgamma

from .errors import ConvergenceError, DomainError

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "mittag_leffler",
    "mittag_leffler_many",
]


@dataclass(frozen=True)
class Tolerance:
    """Accuracy request: absolute target plus a hard term/step budget."""

    abs_tol: float = 1e-10
    max_terms: int = 10**6

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise DomainError("abs_tol must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")


DEFAULT_TOL = Tolerance()


# ---------------------------------------------------------------------------
# Mittag-Leffler, completely monotone branch E_nu(x), x <= 0
# ---------------------------------------------------------------------------

# Series is roundoff-safe while y**(1/nu) stays below this (max term ~ e^11).
_ML_SERIES_CAP = 11.0
# The optimally truncated asymptotic sum is certified only this deep in the
# tail; nearer in, the min-term rule under-reports the remainder when nu -> 1.
_ML_ASYMP_MIN_Y = 50.0
# Measured accuracy floor of the asymptotic sum over a (nu, y >= 50) grid.
_ML_ASYMP_FLOOR = 2.5e-12


def _scaled_arg(nu: float, y: float) -> float:
    """y**(1/nu), or inf where that overflows a float."""
    try:
        return y ** (1.0 / nu)
    except OverflowError:
        return math.inf


def _ml_series(nu: float, y: float, tol: Tolerance):
    """Power series sum_j (-y)^j / Gamma(1 + nu j) with a roundoff certificate."""
    if y == 0.0:
        return 1.0, 0.0, True
    ln_y = math.log(y)
    total = 1.0
    peak = 1.0
    jpeak = y ** (1.0 / nu) / nu
    j = 1
    jmax = min(tol.max_terms, 100_000)
    while True:
        mag = math.exp(j * ln_y - math.lgamma(1.0 + nu * j))
        total += -mag if j % 2 else mag
        peak = max(peak, mag)
        if j > jpeak and mag < tol.abs_tol * 1e-3:
            break
        if j >= jmax:
            return total, math.inf, False
        j += 1
    err = peak * 5e-16 + mag
    return total, err, err <= tol.abs_tol


def _ml_asymptotic_many(nu: float, y: np.ndarray, tol_abs: float):
    """Asymptotic sum_{j>=1} (-1)^{j+1} y^{-j} / Gamma(1 - nu j), vectorized.

    Terms whose Gamma sits at a pole are exactly zero and must be skipped,
    not treated as convergence (rgamma returns 0 there). Each entry stops
    at its smallest term; the estimate below that is unreliable closer in
    than y ~ 50, which callers must enforce.
    """
    out = np.zeros_like(y)
    err = np.full_like(y, np.inf)
    active = np.ones(y.shape, dtype=bool)
    prev_mag = np.full_like(y, np.inf)
    inv = 1.0 / y
    powj = inv.copy()
    for j in range(1, 201):
        term = powj * rgamma(1.0 - nu * j) * (1.0 if j % 2 else -1.0)
        mag = np.abs(term)
        nonzero = mag > 0.0
        # freeze an entry BEFORE adding the first growing term
        active &= ~(active & nonzero & (mag >= prev_mag))
        use = active & nonzero
        out[use] += term[use]
        err[use] = mag[use]
        active &= ~(use & (mag < tol_abs * 1e-2))
        if not active.any():
            break
        prev_mag = np.where(nonzero, mag, prev_mag)
        powj = powj * inv
    return out, np.maximum(err, _ML_ASYMP_FLOOR)


def _ml_spectral(nu: float, y: float, tol: Tolerance):
    """Spectral integral for E_nu(-y), 0 < nu < 1:

        E_nu(-y) = (sin(nu pi)/(nu pi))
                   * int_0^inf exp(-t s^(1/nu)) / (s^2 + 2 s cos(nu pi) + 1) ds,
        t = y^(1/nu).

    The rational factor peaks at s = -cos(nu pi) when nu > 1/2, so the
    finite panel is split there.
    """
    t, c = _scaled_arg(nu, y), 1.0
    if t == math.inf:  # form t s^(1/nu) as (y s)^(1/nu)
        t, c = 1.0, y
    cn = math.cos(nu * math.pi)
    inv_nu = 1.0 / nu

    def f(s):
        if s <= 0.0:
            return 1.0
        u = inv_nu * math.log(c * s)
        if u > 690.0:
            return 0.0
        return math.exp(-t * math.exp(u)) / (s * (s + 2.0 * cn) + 1.0)

    eps = min(1e-13, tol.abs_tol * 0.05)
    pts = [-cn] if 0.0 < -cn < 1.0 else None
    with warnings.catch_warnings():
        # abserr is propagated to the caller, which enforces tol itself
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        v1, e1 = integrate.quad(f, 0.0, 1.0, points=pts, epsabs=eps, epsrel=1e-13, limit=300)
        v2, e2 = integrate.quad(f, 1.0, np.inf, epsabs=eps, epsrel=1e-13, limit=300)
    front = math.sin(nu * math.pi) / (nu * math.pi)
    return front * (v1 + v2), front * (e1 + e2)


def _ml_mpmath(nu: float, y: float, tol: Tolerance) -> float:
    """High-precision series fallback; the series is entire, so extra digits always win."""
    import mpmath as mp

    z = _scaled_arg(nu, y)
    jpeak = z / nu
    # the loop below can stop only past jpeak, so the budget bounds the digits
    if jpeak >= tol.max_terms:
        raise ConvergenceError("Mittag-Leffler series budget exhausted")
    guard = int(0.45 * z) + 30
    with mp.workdps(guard):
        ymp = mp.mpf(y)
        total = mp.mpf(0)
        cutoff = mp.mpf(10) ** (-(guard - 8))
        j = 0
        while True:
            term = (-ymp) ** j / mp.gamma(1 + nu * j)
            total += term
            if j > jpeak and abs(term) < cutoff:
                break
            j += 1
            if j > tol.max_terms:
                raise ConvergenceError("Mittag-Leffler series budget exhausted")
        return float(total)


def mittag_leffler(nu: float, x: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """E_{nu,1}(x) for 0 < nu <= 1 and x <= 0, absolute error <= tol.abs_tol.

    Three regimes: the power series while it is roundoff-safe, the
    optimally truncated asymptotic sum deep in the tail (y >= 50), and
    the completely monotone spectral integral in between. A
    high-precision fallback covers the corner (nu near 1, mid-range y)
    where the integral's error estimate can miss tol.
    """
    if not 0.0 < nu <= 1.0:
        raise DomainError("nu must lie in (0, 1]")
    if math.isnan(x):
        raise DomainError("x must not be NaN")
    if x > 0.0:
        raise DomainError("only the x <= 0 branch is supported")
    if x == 0.0:
        return 1.0
    if nu == 1.0:
        return math.exp(x)
    y = -x
    if _scaled_arg(nu, y) <= _ML_SERIES_CAP:
        val, _, ok = _ml_series(nu, y, tol)
        if ok:
            return val
    if y >= _ML_ASYMP_MIN_Y:
        out, err = _ml_asymptotic_many(nu, np.array([y]), tol.abs_tol)
        if err[0] <= tol.abs_tol:
            return float(out[0])
    val, err = _ml_spectral(nu, y, tol)
    if err <= tol.abs_tol:
        return val
    return _ml_mpmath(nu, y, tol)


def mittag_leffler_many(nu: float, xs, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Vectorized E_{nu,1} over an array of nonpositive arguments.

    The deep-tail entries (y >= 50) go through one vectorized asymptotic
    sweep; the finitely many remaining entries reuse the scalar path.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if not 0.0 < nu <= 1.0:
        raise DomainError("nu must lie in (0, 1]")
    if np.any(np.isnan(xs)):
        raise DomainError("x must not be NaN")
    if np.any(xs > 0.0):
        raise DomainError("only the x <= 0 branch is supported")
    if nu == 1.0:
        return np.exp(xs)
    y = -xs
    out = np.empty_like(y)
    deep = y >= _ML_ASYMP_MIN_Y
    if deep.any():
        vals, errs = _ml_asymptotic_many(nu, y[deep], tol.abs_tol)
        bad = errs > tol.abs_tol
        if bad.any():
            ybad = y[deep][bad]
            vals[bad] = [mittag_leffler(nu, -float(v), tol) for v in ybad]
        out[deep] = vals
    shallow = ~deep
    if shallow.any():
        out[shallow] = [mittag_leffler(nu, -float(v), tol) for v in y[shallow]]
    return out

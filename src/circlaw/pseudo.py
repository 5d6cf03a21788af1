"""Signed circular laws of wrapped even/odd-order pseudoprocesses.

The even-order laws have rapidly decaying Fourier coefficients
e^{-k^{2n} t}/pi and are honest (signed, mass-1) densities with two
independent evaluation routes: the cosine series and the wrapped line
density (line_density_even, line's contour kernel). The odd-order object
has coefficients cos(k^{2n+1}t)/pi, -sin(k^{2n+1}t)/pi that never decay:
it is a distribution, not a function. Its pointwise values depend on the
summation scheme; only projections (mass, Fourier coefficients) are
scheme-independent. The wrapped probabilistic route with a smooth shell
taper, odd_circle_density_wrapped, is the evaluator; the Abel-regularized
series is a diagnostic only, paired with it by odd_circle_density_routes
(validation criterion D1 reports their gap).
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import mpmath as mp
import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    MinimumLocationWarning,
    _check_count,
    _check_finite,
)
from .harmonic import TWO_PI, HarmonicLaw, cosine_law
from .line import (
    _CANCEL_BUDGET,
    _check_n,
    _check_t,
    _rotation,
    line_density_even,
    line_density_odd,
)
from .special import DEFAULT_TOL, Tolerance

__all__ = [
    "even_circle_law",
    "even_circle_density",
    "even_circle_density_wrapped",
    "odd_circle_density_wrapped",
    "odd_circle_density_routes",
    "min_value",
    "positivity_time",
]

# shells for the n=1 odd wrapped sum; the tapered-window residual decays
# roughly like M^{-3/2}, and 6144 puts projections below ~1e-5
_ODD_SHELLS = 6144
# Abel regularization ladder, extrapolated quadratically to eps = 0
_ABEL_EPS = (0.02, 0.01, 0.005)

# 300-bit fixed-point 1/(2 pi) for exact phase reduction of k^p t; the
# working precision is local so the caller's mpmath settings survive import
with mp.workprec(340):
    _INV_2PI_300 = int(mp.floor(mp.mpf(2) ** 300 / (2 * mp.pi)))


def even_circle_law(n: int, t: float, tol: Tolerance = DEFAULT_TOL) -> HarmonicLaw:
    """Series law with a0 = 1/(2 pi), a_k = e^{-k^{2n} t}/pi, b_k = 0.

    Truncation: smallest K with e^{-(K+1)t}/(pi (1 - e^{-t})) <= tol,
    which certifies the dropped tail through k^{2n} >= k.
    """
    _check_n(n)
    if not t > 0.0:
        raise DomainError("t must be positive")
    denom = math.pi * (-math.expm1(-t))
    return cosine_law(
        lambda k: np.exp(-(k ** (2 * n)) * t) / math.pi,
        lambda K: math.exp(-(K + 1) * t) / denom,
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


def _first_shell_block(n: int, t: float, tol: Tolerance, reach: float) -> int:
    """Last shell of the wrapped route's first block, for angles |theta| <= reach.

    The saddle-point envelope of u_p(x, t), p = 2n, is
    exp(-kappa_p X^{p/(p-1)}) with X = |x| t^{-1/p} and
    kappa_p = (1 - 1/p) p^{-1/(p-1)} sin(pi/(2(p-1))) (exp(-x^2/4t) at
    n = 1). The block ends at the first shell whose nearer point
    2 pi m - reach lies where the envelope is below tol/8, plus the two
    quiet shells the stopping rule needs, clipped to [4, 64]. The
    estimate only sizes the block: a short one costs another kernel call,
    a long one some points, and neither changes a value.
    """
    p = 2 * n
    # log(8/tol) without the overflow of 8/tol at a subnormal tol
    log_ratio = math.log(8.0) - math.log(tol.abs_tol)
    if not log_ratio > 0.0:
        return 4
    kappa = (1.0 - 1.0 / p) * p ** (-1.0 / (p - 1)) * math.sin(math.pi / (2 * (p - 1)))
    x = (log_ratio / kappa) ** ((p - 1) / p) * t ** (1.0 / p)
    return min(max(math.ceil((x + reach) / TWO_PI) + 2, 4), 64)


def even_circle_density_wrapped(n: int, theta, t: float, tol: Tolerance = DEFAULT_TOL):
    """Wrapped line density sum_m u_{2n}(theta + 2 pi m, t); scalar or array theta.

    The line density decays superexponentially, so shells die fast; the
    sum for an angle stops once two consecutive shells are each below
    tol/8 (the envelope beyond the core is monotone), by m = 64. One
    line_density_even call takes a block of shells for every angle still
    summing: the centre up to the shell where the law's saddle-point
    envelope says the sum stops (_first_shell_block, 4..64 shells), then
    blocks that double, so an angle usually costs one kernel call. Each
    angle adds its shells in order (a cumulative sum per row) and stops
    where a shell-by-shell sum would, so a value depends on neither the
    block sizes nor the batch: a grid value equals the scalar call's.
    """
    _check_finite(theta, "theta")
    _check_n(n)
    _check_t(t)
    scalar = np.ndim(theta) == 0
    th = np.fmod(np.asarray(theta, float), TWO_PI)
    flat = th.ravel()
    total = np.zeros(flat.size)
    # whether the last shell summed for each angle was quiet
    was_quiet = np.zeros(flat.size, dtype=bool)
    live = np.arange(flat.size)
    first, last = 0, _first_shell_block(n, t, tol, float(np.max(np.abs(flat), initial=0.0)))
    while live.size:
        if first > 64:
            raise ConvergenceError(f"wrapped shells did not settle by m = 64 at t = {t:g}")
        ms = np.arange(first, last + 1)
        pos = ms[ms > 0]
        u = line_density_even(n, flat[live, None] + TWO_PI * np.concatenate([ms, -pos]), t, tol)
        # column j: the centre at m = 0, else u(theta + 2 pi m) + u(theta - 2 pi m)
        shells = u[:, : ms.size]
        shells[:, ms.size - pos.size :] += u[:, ms.size :]
        # an angle stops at the first quiet shell that follows a quiet one;
        # the centre is never quiet
        quiet = (np.abs(shells) < tol.abs_tol / 8.0) & (ms > 0)
        stop = quiet & np.column_stack([was_quiet[live], quiet[:, :-1]])
        done = stop.any(axis=1)
        end = np.where(done, stop.argmax(axis=1), ms.size - 1)
        # cumsum adds left to right, as the shell-by-shell sum does
        sums = np.cumsum(np.column_stack([total[live], shells]), axis=1)
        total[live] = sums[np.arange(live.size), end + 1]
        was_quiet[live] = quiet[:, -1]
        live = live[~done]
        first, last = last + 1, min(2 * last + 4, 64)
    out = total.reshape(th.shape)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# odd-order circular law


def _taper_weights(M: int, flat: float = 0.5) -> np.ndarray:
    """Hann rolloff after a flat core: w = 1 on [0, flat*M], cos^2 beyond."""
    m = np.arange(M + 1)
    mf = int(M * flat)
    w = np.ones(M + 1)
    roll = m > mf
    u = (m[roll] - mf) / max(M - mf, 1)
    w[roll] = np.cos(0.5 * math.pi * u) ** 2
    return w


@lru_cache(maxsize=32)
def _phase_table(p: int, t: float, kmax: int) -> tuple:
    """(k^p t) mod 2 pi for k = 1..kmax, exact to the last float bit.

    float64 cos() loses the phase outright once k^p t > ~1e16 while the
    Abel weights are still ~1e-4, so the reduction is done in integer
    arithmetic: t = m 2^e exactly, and a 300-bit fixed-point 1/(2 pi)
    turns k^p m into its fractional number of turns.
    """
    fr, E = math.frexp(t)
    m = int(fr * (1 << 53))
    e = E - 53
    shift = 300 - e
    if shift <= 64:
        raise ConvergenceError("t too large for the phase reduction")
    mask = (1 << shift) - 1
    scale = TWO_PI / float(1 << 64)
    out = np.empty(kmax)
    for k in range(1, kmax + 1):
        rem = ((k**p) * m * _INV_2PI_300) & mask
        out[k - 1] = float(rem >> (shift - 64)) * scale
    out.setflags(write=False)
    return (out,)


def _abel_value(n: int, theta: float, t: float) -> float:
    """Abel-regularized series extrapolated to eps = 0 over the ladder."""
    p = 2 * n + 1
    kmax = int(math.ceil(math.log(1e15) / min(_ABEL_EPS)))
    (ph,) = _phase_table(p, float(t), kmax)
    k = np.arange(1.0, kmax + 1)
    cosv = np.cos(ph + k * theta)
    ys = []
    for eps in _ABEL_EPS:
        w = np.exp(-eps * k)
        ys.append(1.0 / TWO_PI + float(w @ cosv) / math.pi)
    coef = np.polyfit(np.asarray(_ABEL_EPS), np.asarray(ys), 2)
    return float(np.polyval(coef, 0.0))


def _budget_shells(n: int, t: float) -> int:
    """Shell count of the n >= 2 window: where the gamma route's peak exponent
    reaches _CANCEL_BUDGET. The contour kernel is not bound by it; the
    window is kept so that the law's values stay those of this scheme."""
    g = 2 * n + 1
    _, b = _rotation(g)
    bx = (_CANCEL_BUDGET * g / (g - 1)) ** ((g - 1) / g) * (g * t) ** (1.0 / g)
    x_max = bx / b - 0.5
    return max(2, int((x_max - math.pi) / TWO_PI))


def odd_circle_density_wrapped(
    n: int, theta, t: float, tol: Tolerance = DEFAULT_TOL, shells: int | None = None
):
    """Tapered wrapped sum sum_m w_m u_{2n+1}(theta + 2 pi m, t).

    The left tail of the odd line density oscillates with the
    stationary-phase envelope |x|^{-(2n-1)/(4n)} (at n = 1,
    Ai(-z) ~ z^{-1/4}) and never becomes absolutely summable, so a
    raw shell sum random-walks. A smooth (flat + Hann) taper suppresses
    the window boundary to second order; projections of the tapered sum
    converge, pointwise values remain scheme-dependent. The window has
    M = 6144 shells at n = 1 and _budget_shells(n, t) at n >= 2. Scalar
    theta in, scalar out; an array is evaluated in blocks of angles, each
    angle reduced on its own, so a grid value equals the scalar call's
    bit for bit. Every shell value comes from line_density_odd within
    tol / sum_m w_m, so the quadrature error of the sum is at most tol.

    For n = 1 the mode-1 projection comes from the stationary point
    x = -3t of the Airy tail, so t must keep 3t inside the taper's flat
    core |x| <= pi M with a 10% margin (t <= 0.3 pi M); past that bound
    ConvergenceError is raised. At M = 6144 the 128-node projection error
    is ~4e-8 at the bound, 4e-5 at the core edge and 0.18 at t = 1e4.
    """
    _check_n(n)
    _check_finite(theta, "theta")
    _check_t(t)
    scalar = np.ndim(theta) == 0
    th = np.atleast_1d(np.asarray(theta, float))
    if shells is not None:
        M = _check_count(shells, "shells")
    else:
        M = _ODD_SHELLS if n == 1 else _budget_shells(n, t)
    if n == 1 and t > 0.3 * math.pi * M:
        raise ConvergenceError(
            f"t = {t:g} moves the mode-1 stationary point 3t out of the flat "
            f"core of {M} shells; pass shells >= {math.ceil(t / (0.3 * math.pi))}"
        )
    w = _taper_weights(M)
    ms = np.arange(-M, M + 1)
    wm = w[np.abs(ms)]
    shell_tol = Tolerance(tol.abs_tol / float(wm.sum()), tol.max_terms)
    # blocks of angles keep each work array to 2^14 entries (one angle at
    # the n = 1 default); the line kernel sets the cost, so larger blocks
    # only add memory. Each row is summed on its own (numpy's pairwise sum,
    # not a threaded BLAS product), so a value never depends on its block
    out = np.empty(th.shape)
    step = max(1, 2**14 // (2 * M + 1))
    for i in range(0, th.size, step):
        rows = line_density_odd(n, th[i : i + step, None] + TWO_PI * ms, t, shell_tol)
        out[i : i + step] = (rows * wm).sum(axis=1)
    return float(out[0]) if scalar else out


def odd_circle_density_routes(
    n: int, theta: float, t: float, tol: Tolerance = DEFAULT_TOL
) -> tuple[float, float]:
    """(wrapped, abel) pair without any divergence policy applied."""
    return (
        float(odd_circle_density_wrapped(n, float(theta), t, tol)),
        _abel_value(n, float(theta), t),
    )


# ---------------------------------------------------------------------------
# minimum value and positivity time


def min_value(n: int, t: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """v_{2n}(pi, t) = 1/(2 pi) + (1/pi) sum_k (-1)^k e^{-k^{2n} t}."""
    _check_n(n)
    if not t > 0.0:
        raise DomainError("t must be positive")
    total = 1.0 / TWO_PI
    sign = -1.0
    for k in range(1, tol.max_terms + 1):
        term = math.exp(-(float(k) ** (2 * n)) * t) / math.pi
        total += sign * term
        if term < tol.abs_tol / 8.0 and k >= 2:
            return total
        sign = -sign
    raise ConvergenceError("alternating series did not reach tolerance")


def _grid_min(n: int, t: float, tol: Tolerance, grid_n: int = 4096):
    thetas = np.arange(grid_n) * (TWO_PI / grid_n)
    vals = even_circle_density(n, thetas, t, tol)
    j = int(np.argmin(vals))
    return float(vals[j]), float(thetas[j])


def positivity_time(n: int, tol: Tolerance = DEFAULT_TOL) -> float:
    """First time after which the even-order law stays nonnegative.

    n = 1 wraps a Gaussian, positive at every t, so the answer is 0.
    Otherwise bisection in t on the 4096-grid global minimum, to 1e-6
    in t. Warns if the minimum at the crossing does not sit at pi.
    """
    if n == 1:
        return 0.0
    lo, hi = None, 1.0
    for _ in range(40):
        if _grid_min(n, hi, tol)[0] >= 0.0:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("no positive-minimum bracket found")
    lo = hi / 2.0
    while _grid_min(n, lo, tol)[0] >= 0.0:
        hi = lo
        lo /= 2.0
        if lo < 1e-6:
            return 0.0
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if _grid_min(n, mid, tol)[0] >= 0.0:
            hi = mid
        else:
            lo = mid
    t_bar = hi
    _, arg = _grid_min(n, t_bar, tol)
    if min(abs(arg - math.pi), TWO_PI - abs(arg - math.pi)) > 1e-3:
        warnings.warn(
            f"minimum at t_bar sits at theta = {arg:.6f}, not pi",
            MinimumLocationWarning,
            stacklevel=2,
        )
    return t_bar

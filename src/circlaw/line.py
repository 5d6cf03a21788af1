"""Fundamental solutions of higher-order heat-type equations on the line.

d/dt u = c (d/dx)^p u with p = 2n (c = (-1)^{n+1}) or p = 2n+1
(c = (-1)^n). Every order shares one probabilistic representation,

    u_p(x, t) = E[e^{-b x G} sin(a x G)] / (pi x),

G generalized gamma with shape p and rate t, and the rotation pair
(a, b) = (cos phi_p, sin phi_p), phi_p = pi/(2p) at odd p and 0 at
even p. At odd p and x < 0 the factor e^{b|x|G} grows against the tail
and a quadrature of it cancels, so the tests keep it as a paper formula
and an oracle where it is well conditioned. The routes the circular laws
use are line_density_even, the cosine transform of exp(-xi^{2n} t), and
line_density_odd: the Airy closed form at p = 3 (Maclaurin series,
Gauss-Laguerre quadrature and the far-field expansion). Every other
order, even p >= 2 and odd p >= 5, goes through one vectorized,
cancellation-free contour quadrature with a certified error
(_contour_density) on two contours: a two-term ray from 0 in real
arithmetic, and at odd p and x < 0 a saddle ray after a real leg.
_line_bound bounds |u_p| at even p in closed form, and _shell_count
proves from it the shell count of both wrapped sums (the wrapped
Gaussian and the even wrapped route). _image_sum is the one image sum
sum_{|m| <= M} w_m u(x + 2 pi m) of every wrapped route (the wrapped
Gaussian, the even and odd wrapped routes and the wrapped skewed Cauchy
law): it lays out the shells, blocks the work and sums each row on its
own, so a grid value equals the scalar call bit for bit.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, _check_finite, _check_n, _check_t
from .harmonic import TWO_PI, certified_cutoff
from .special import _EPS, _TINY, DEFAULT_TOL, Tolerance

__all__ = [
    "line_density_even",
    "line_density_odd",
    "line_density_third",
    "skew_cauchy_density",
]

# below this the kernel's target tol t^{1/(2n)} nears its rounding floor
# (~2.5e-14 at n = 1), so a near-delta value could miss the default tolerance
_T_FLOOR = 1e-6
# largest exponent budget before float64 loses the damped-oscillation
# cancellation of the generalized-gamma form at odd p and x < 0; it sets the
# odd wrapped window at n >= 2
_CANCEL_BUDGET = 35.0
# a in (0, 1) of the even-order bound _line_bound: about 0.95 of the
# saddle-point decay rate at p = 4, 6, 8
_BOUND_A = 0.1
# largest work array of the contour kernel (points x nodes, or points x
# ellipses), of the Airy core (points x nodes) and of _image_sum (angles x shells)
_WORK = 2**14


def _rotation(p: int) -> tuple[float, float]:
    """(a, b) = (cos phi_p, sin phi_p): phi_p = pi/(2p) at odd p, 0 at even p."""
    if p % 2 == 0:
        return 1.0, 0.0
    half_angle = math.pi / (2.0 * p)
    return math.cos(half_angle), math.sin(half_angle)


# ---------------------------------------------------------------------------
# p = 3: Airy, with the large-argument expansions in the far field


def _airy_u(k: int) -> float:
    """DLMF 9.7.2: u_k = Gamma(3k + 1/2) / (54^k k! Gamma(k + 1/2))."""
    return math.exp(
        math.lgamma(3 * k + 0.5) - k * math.log(54.0) - math.lgamma(k + 1) - math.lgamma(k + 0.5)
    )


# terms kept in each of the P and Q sums of DLMF 9.7.9
_AIRY_TERMS = 8
_AIRY_P = tuple((-1) ** k * _airy_u(2 * k) for k in range(_AIRY_TERMS))
_AIRY_Q = tuple((-1) ** k * _airy_u(2 * k + 1) for k in range(_AIRY_TERMS))


def _airy_remainder(z: float) -> float:
    """Bound on |Ai(-z) - expansion| in units of the envelope 1/(sqrt(pi) z^{1/4}).

    DLMF 9.7(iv): for real zeta = (2/3) z^{3/2} the remainders of the P and
    Q sums are bounded in magnitude by their first neglected terms.
    """
    zeta = 2.0 * z**1.5 / 3.0
    k = 2 * _AIRY_TERMS
    return _airy_u(k) / zeta**k + _airy_u(k + 1) / zeta ** (k + 1)


def _bisect(ok, lo: float, hi: float) -> float:
    """Least double z in [lo, hi] with ok(z), for ok monotone (false, then true).

    Returns lo where ok(lo) holds and raises ConvergenceError where ok(hi)
    fails; otherwise bisects until the ends are adjacent doubles.
    """
    if ok(lo):
        return lo
    if not ok(hi):
        raise ConvergenceError(f"the condition fails over all of [{lo!r}, {hi!r}]")
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return hi
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)


# Ai(-z) for z >= _AIRY_SWITCH comes from the expansion, whose remainder
# there is at most 2^-53 of the envelope (z ~ 11.42 with 8 + 8 terms)
_AIRY_SWITCH = _bisect(lambda z: _airy_remainder(z) <= 2.0**-53, 1.0, 100.0)
# Ai(y) <= e^{-zeta} / (2 sqrt(pi) y^{1/4}) is below the smallest normal
# double for y >= _AIRY_ZERO (~103.9), so the value there is 0
_AIRY_ZERO = _bisect(
    lambda y: -2.0 * y**1.5 / 3.0 - math.log(2.0 * math.sqrt(math.pi) * y**0.25)
    < math.log(_TINY),
    1.0,
    200.0,
)
# the phase zeta = 2 z^{3/2} / 3 of _airy_oscillating passes the largest
# double from z = _AIRY_PHASE (~2e205) on; |Ai(-z)| < 1e-51 there, so the value is 0
_AIRY_PHASE = _bisect(lambda z: math.isinf(2.0 * z * math.sqrt(z)), 1e205, 1e206)


def _airy_oscillating(z: np.ndarray) -> np.ndarray:
    """Ai(-z) for z >= _AIRY_SWITCH by DLMF 9.7.9.

    Ai(-z) = [cos(zeta - pi/4) P + sin(zeta - pi/4) Q] / (sqrt(pi) z^{1/4}),
    P = sum (-1)^k u_{2k} zeta^{-2k}, Q = sum (-1)^k u_{2k+1} zeta^{-2k-1}.
    The truncation is certified by _airy_remainder; zeta itself is formed
    in float64, which carries the argument's own conditioning (at most
    about 4 eps zeta of the envelope), as scipy's Airy does.
    """
    # every step but the first of each line works in place: the same
    # roundings as fresh arrays, without an allocation per step
    zeta = 2.0 * z
    zeta *= np.sqrt(z)
    zeta /= 3.0
    # zeta^2 passes the largest double from zeta = 1.3e154, where r adds nothing
    r = np.minimum(zeta, 1e154)
    np.divide(1.0, np.square(r, out=r), out=r)
    big_p, big_q = r * _AIRY_P[-1], r * _AIRY_Q[-1]
    for cp, cq in zip(_AIRY_P[-2:0:-1], _AIRY_Q[-2:0:-1]):
        big_p += cp
        big_p *= r
        big_q += cq
        big_q *= r
    big_p += _AIRY_P[0]
    big_q += _AIRY_Q[0]
    big_q /= zeta
    c, s = np.cos(zeta), np.sin(zeta)
    # cos(zeta - pi/4) = (c + s)/sqrt(2), sin(zeta - pi/4) = (s - c)/sqrt(2)
    big_p *= c + s
    s -= c
    big_q *= s
    big_p += big_q
    root = np.sqrt(np.sqrt(z))
    root *= math.sqrt(2.0 * math.pi)
    big_p /= root
    return big_p


# Ai(0) and -Ai'(0) (DLMF 9.2.3-4)
_AI0, _AI1 = 0.35502805388781723926, 0.25881940379280679840
# |y| <= _AIRY_NEAR takes the Maclaurin series, whose first term left out
# (k = _AIRY_MACLAURIN in either of its two sums) is below 1e-18 there
_AIRY_NEAR, _AIRY_MACLAURIN = 3.0, 16
# nodes of the Gauss-Laguerre rule beyond it
_AIRY_NODES = 20


def _airy_maclaurin():
    """Exponents j and coefficients d_j of Ai(y) = sum_j d_j y^j, DLMF 9.4.1
    cut at k < _AIRY_MACLAURIN: d_{3k} = Ai(0) 3^k (1/3)_k / (3k)! and
    d_{3k+1} = Ai'(0) 3^k (2/3)_k / (3k+1)!, each from the one before."""
    d = [_AI0, -_AI1]
    for k in range(1, _AIRY_MACLAURIN):
        d += [d[-2] / ((3 * k - 1) * 3 * k), d[-1] / (3 * k * (3 * k + 1))]
    j = np.arange(3.0 * _AIRY_MACLAURIN)
    return j[j % 3 < 2], np.array(d)


def _airy_rule():
    """Nodes tau = 3T/4 and weights of the Ai quadrature beyond the Maclaurin disc.

    With v = x^{3/2} and zeta = 2v/3, Ai(x) = (1/pi) sqrt(x/3) K_{1/3}(zeta)
    (DLMF 9.6.1) and DLMF 10.32.8 with t = 1 + s/zeta give
    Ai(x) = e^{-zeta} / (2 sqrt(pi)) E[(v + 3T/4)^{-1/6}], T with density
    s^{-1/6} e^{-s} / Gamma(5/6) (Gil, Segura & Temme, Numer. Algorithms 30
    (2002)). E is the _AIRY_NODES-point generalized Gauss-Laguerre rule
    (alpha = -1/6) by Golub-Welsch: the nodes are the eigenvalues of the
    Jacobi matrix (diagonal 2k + alpha + 1, off-diagonal sqrt(k (k + alpha)))
    and the weights the squared first components of its eigenvectors,
    which sum to 1. The weights carry the factor 1/sqrt(pi).
    """
    alpha = -1.0 / 6.0
    k = np.arange(1.0, _AIRY_NODES)
    diagonal = 2.0 * np.arange(_AIRY_NODES) + alpha + 1.0
    jacobi = np.diag(diagonal) + np.diag(np.sqrt(k * (k + alpha)), 1)
    nodes, vectors = np.linalg.eigh(jacobi, UPLO="U")
    return 0.75 * nodes, vectors[0] ** 2 / math.sqrt(math.pi)


_AIRY_POWERS, _AIRY_COEFFS = _airy_maclaurin()
_AIRY_TAU, _AIRY_WEIGHTS = _airy_rule()
_AIRY_TAU2, _AIRY_HALF_WEIGHTS = _AIRY_TAU**2, _AIRY_WEIGHTS / 2.0


def _airy_core(y: np.ndarray) -> np.ndarray:
    """Ai(y) for -_AIRY_SWITCH < y < _AIRY_ZERO, a flat array.

    |y| <= 3 takes the Maclaurin series (_airy_maclaurin), y > 3 the
    quadrature of _airy_rule, and y = -x < -3 the same quadrature through
    Ai(-x) = 2 Re[e^{i pi/3} Ai(x e^{i pi/3})] (DLMF 9.2.11), where
    zeta = 2iv/3: Ai(-x) = E[|tau + iv|^{-1/6} cos(pi/3 - 2v/3 - arg(tau + iv)/6)]
    / sqrt(pi). Every value is a row reduction of its own, so it does not
    depend on the other entries. Against 30-digit values the largest
    absolute error over the core is 1.4e-15 (scipy's Airy: 7.1e-15).
    """
    out = np.empty(y.size)
    near = np.abs(y) <= _AIRY_NEAR
    out[near] = (y[near][:, None] ** _AIRY_POWERS * _AIRY_COEFFS).sum(axis=1)
    up = y > _AIRY_NEAR
    v = y[up] ** 1.5
    quad = ((v[:, None] + _AIRY_TAU) ** (-1.0 / 6.0) * _AIRY_HALF_WEIGHTS).sum(axis=1)
    out[up] = np.exp(v * (-2.0 / 3.0)) * quad
    down = y < -_AIRY_NEAR
    v = (-y[down]) ** 1.5
    phase = (math.pi / 3.0 - v * (2.0 / 3.0))[:, None]
    phase = np.arctan2(v[:, None], _AIRY_TAU) * (-1.0 / 6.0) + phase
    terms = (v[:, None] ** 2 + _AIRY_TAU2) ** (-1.0 / 12.0) * np.cos(phase)
    out[down] = (terms * _AIRY_WEIGHTS).sum(axis=1)
    return out


def line_density_third(x, t: float):
    """Third-order solution (3t)^(-1/3) Ai(x (3t)^(-1/3)); scalar or array x.

    The core -_AIRY_SWITCH < y < _AIRY_ZERO of the scaled argument y takes
    _airy_core, in blocks of at most _WORK entries (points x nodes); the
    oscillating side -_AIRY_PHASE < y <= -_AIRY_SWITCH takes the expansion
    of _airy_oscillating. The rest returns 0: y >= _AIRY_ZERO, where Ai is
    below the smallest normal double, and y <= -_AIRY_PHASE, where the
    phase zeta passes the largest double and
    |Ai(y)| <= (|P| + |Q|) / (sqrt(pi) |y|^{1/4}) < 1e-51.
    """
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_finite(x)
    _check_t(t)
    scale = (3.0 * t) ** (-1.0 / 3.0)
    # an overflowing y is infinite, and its value 0
    with np.errstate(over="ignore"):
        y = x.ravel() * scale
    out = np.zeros(y.size)
    far = y <= -_AIRY_SWITCH
    core = np.flatnonzero(~far & (y < _AIRY_ZERO))
    far &= y > -_AIRY_PHASE
    out[far] = _airy_oscillating(-y[far])
    step = _WORK // _AIRY_NODES
    for i in range(0, core.size, step):
        part = core[i : i + step]
        out[part] = _airy_core(y[part])
    out = out.reshape(x.shape) * scale
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# even p and odd p >= 5: contour quadrature


# Gauss-Legendre sizes of the contour kernel; each rule is built once
_GL_SIZES = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048)
# Bernstein-ellipse parameters over which each bound is minimized, and the
# factors of _rule_sizes that depend on them alone: the semi-axes and the
# reach per unit half-length, log(rho^2 - 1), 2 log rho and log(64/15)
_RHO = 1.0 + np.geomspace(1e-3, 30.0, 40)
_MAJOR, _MINOR = (_RHO + 1.0 / _RHO) / 2.0, (_RHO - 1.0 / _RHO) / 2.0
_REACH = np.hypot(_MAJOR - 1.0, _MINOR)
_LOG_RHO_SQ_1, _TWO_LOG_RHO = np.log(_RHO * _RHO - 1.0), 2.0 * np.log(_RHO)
_LOG_64_15 = math.log(64.0 / 15.0)
# factor on the contour kernel's rounding term eps (1 + 2/(e sin psi)) J:
# the worst measured rounding was 0.68 of the unit term (p = 5, X = -60),
# at most 0.09 of it at p = 4, 6 (0 <= X <= 400; 30-digit references)
_ROUNDING = 4.0
# largest orders the contour kernel (its binomials C(p, k) pass the largest
# double from p = 1030) and _line_bound (its polynomial overflows from p = 154) take
_MAX_ORDER, _MAX_BOUND_ORDER = 1029, 128


@lru_cache(maxsize=None)
def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-point Gauss-Legendre nodes and weights on [0, 1], each within about eps.

    The nodes start from Tricomi's approximation
    x_k = -(1 - (m-1)/(8m^3) - (39 - 28/sin^2 th_k)/(384m^4)) cos th_k,
    th_k = (4k - 1) pi/(4m + 2), and take two Newton steps in float64
    (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013)) and one in extended
    precision, each with P_m, P_{m-1}, P_{m-2} from the three-term
    recurrence. The last gives w = 2 (1 - x^2) / (m P_{m-1}(x))^2 (P_{m-1}
    moved with the step to first order); scipy's weights carry a relative
    error near 1e-14 from m ~ 100 on, once the contour kernel's floor. The
    rule is symmetric, so half of it is computed.
    """
    half = (m + 1) // 2
    th = (4 * np.arange(1, half + 1) - 1) * math.pi / (4 * m + 2)
    x = -(1 - (m - 1) / (8 * m**3) - (39 - 28 / np.sin(th) ** 2) / (384 * m**4)) * np.cos(th)
    for dtype in (float, float, np.longdouble):
        x = x.astype(dtype)
        p2, p1, p0 = np.zeros_like(x), np.ones_like(x), x.copy()
        for k in range(2, m + 1):
            p2, p1, p0 = p1, p0, ((2 * k - 1) * x * p0 - (k - 1) * p1) / k
        one = 1 - x * x
        step = -p0 * one / (m * (p1 - x * p0))
        p1 = p1 + (m - 1) * (p2 - x * p1) / one * step
        x = x + step
    w = (2 * (1 - x * x) / (m * p1) ** 2).astype(float)
    x = x.astype(float)
    v = (np.concatenate([x, -x[: m // 2][::-1]]) + 1.0) / 2.0
    w = np.concatenate([w, w[: m // 2][::-1]]) / 2.0
    v.setflags(write=False)
    w.setflags(write=False)
    return v, w


@lru_cache(maxsize=None)
def _gamma_column(p: int) -> np.ndarray:
    """Gamma(1 + 1/k) for k = 2..p as a read-only column, for the saddle
    ray's rounding charge."""
    col = np.array([[math.gamma(1.0 + 1.0 / k)] for k in range(2, p + 1)])
    col.setflags(write=False)
    return col


@lru_cache(maxsize=None)
def _node_powers(m: int, p: int) -> np.ndarray:
    """v_j^p of the m-point rule of _gauss_legendre, read-only, for the two-term ray."""
    vp = _gauss_legendre(m)[0] ** p
    vp.setflags(write=False)
    return vp


@lru_cache(maxsize=None)
def _two_term(p: int) -> tuple:
    """The two-term ray's psi, sin psi and cos psi (sigma_1 and tau_1 per unit
    X), sigma_p and tau_p, the J term Gamma(1 + 1/p) (2/sigma_p)^{1/p} of
    k = p (by numpy's power, as the per-point terms) and eps _ROUNDING
    (1 + 2/(e sin psi)), at order p."""
    psi = math.pi / (2 * p) if p % 2 else math.pi / (4 * p)
    s, c = (f(np.array([1, p]) * psi) for f in (np.sin, np.cos))
    sigma_p, tau_p = (s[1], c[1]) if p % 2 else (c[1], -s[1])
    j_p = math.gamma(1.0 + 1.0 / p) * (2.0 / np.array([sigma_p])) ** (1.0 / p)
    weight = _EPS * (_ROUNDING * (1.0 + 2.0 / (math.e * math.sin(psi))))
    return psi, float(s[0]), float(c[0]), float(sigma_p), float(tau_p), j_p, weight


def _rule_sizes(length, log_m, log_target) -> np.ndarray:
    """Smallest size in _GL_SIZES whose Gauss error bound meets the target.

    ATAP Thm 19.3: on [0, L], |I - I_m| <= (L/2)(64/15) M rho^{-2m}/(rho^2 - 1)
    for an integrand bounded by M on the Bernstein ellipse E_rho of the
    interval. log_m(A, B, D) bounds log M from the ellipse's semi-major
    axis A, its semi-minor axis B and its largest distance D from the
    interval. Returns 0 where no size qualifies.
    """
    half = length[:, None] / 2.0
    # an overflowing bound (inf or nan) qualifies no size, so it refuses
    with np.errstate(all="ignore"):
        head = np.log(half) + _LOG_64_15 + log_m(half * _MAJOR, half * _MINOR, half * _REACH)
        need = np.min((head - _LOG_RHO_SQ_1 - log_target) / _TWO_LOG_RHO, axis=1)
    # a need past the largest size (or nan) picks the 0 after it
    sizes = np.array(_GL_SIZES + (0,))
    return sizes[np.searchsorted(sizes[:-1], need)]


def _gauss_sums(sizes: np.ndarray, integrand, dtype=complex) -> np.ndarray:
    """sum_j w_j integrand(i, v_j) on [0, 1] for each point i, with its own
    rule size (points of size <= 0 give 0)."""
    out = np.zeros(sizes.size, dtype=dtype)
    for m in set(sizes[sizes > 0].tolist()):
        v, w = _gauss_legendre(int(m))
        idx = np.flatnonzero(sizes == m)
        step = max(1, _WORK // int(m))
        for i in range(0, idx.size, step):
            part = idx[i : i + step]
            # a row reduction per point, so a value never depends on its batch
            out[part] = (integrand(part, v) * w).sum(axis=1)
    return out


def _contour_density(p: int, X: np.ndarray, target: float) -> np.ndarray:
    """u_p(X, 1) at even p >= 2 and odd p >= 5, each value within target (certified).

    u_p(X, 1) = (1/pi) Re int_0^inf e^{i f(xi)} dxi with f = X xi + a xi^p,
    a = 1 at odd p; a = i at even p, where u_p is even in X and X >= 0 is
    required. Each point leaves the real axis at xi0 >= 0 on the ray
    xi0 + s e^{i psi}, psi = pi/(2p) at odd p and pi/(4p) at even p, where
    f(xi0 + w) - f(xi0) = sum_k c_k w^k: the modulus is e^{-g(s)},
    g(s) = sum_k g_k s^k with g_k = Im(c_k e^{ik psi}) >= 0, so it never
    exceeds 1 on the sector of half-width psi about the ray and nothing
    cancels. _two_term_ray (xi0 = 0) takes every point at even p and
    X >= 0 at odd p; _saddle_ray (a real leg to xi0 > 0) takes X < 0 at
    odd p. Each piece is one Gauss-Legendre rule sized by _rule_sizes
    from its Bernstein-ellipse bound; the ray stops at S with the tail
    e^{-g(S)}/g'(S) (g convex). Rounding: a node's phase i f carries
    ~eps |f| and counts with the modulus; as |c_k| <= g_k / sin psi and
    g e^{-g} <= (2/e) e^{-g/2}, int e^{-g} (1 + |f|) ds is at most
    (1 + 2/(e sin psi)) J, J = min_k int e^{-g_k s^k / 2} ds, and the
    charge is eps (_ROUNDING (1 + 2/(e sin psi)) + |f(xi0)|) J, the last
    term for e^{i f(xi0)}. Where it exceeds target/2 the call refuses,
    else each of the three quadrature errors gets a third of what it
    leaves. Every point is certified before any is evaluated, and a
    refusal reads the whole batch.
    """
    # ray cutoff: any single term of g(S) >= log(3/target) + 1 makes g(S)
    # at least that; each contour takes the smallest such S
    log_tail = max(-math.log(target / 3.0), 0.0) + 1.0
    left = X < 0.0 if p % 2 else np.zeros(X.size, dtype=bool)
    rays = ((~left, _two_term_ray), (left, _saddle_ray))
    plans = [(part, ray(p, X[part], target, log_tail)) for part, ray in rays if part.any()]
    rounding, out = np.empty(X.size), np.empty(X.size)
    certified, no_rule = np.empty(X.size, dtype=bool), np.empty(X.size, dtype=bool)
    for part, plan in plans:
        rounding[part], certified[part], no_rule[part] = plan[:3]
    if np.any(rounding > target / 2.0):
        raise ConvergenceError(
            f"u_{p}: target {target:.1e} is below twice the rounding floor "
            f"(eps x weighted phase range {float(np.max(rounding)):.1e})"
        )
    if not np.all(certified):
        raise ConvergenceError(f"u_{p}: ray tail could not be certified")
    if np.any(no_rule):
        raise ConvergenceError(
            f"u_{p}: no Gauss rule up to {_GL_SIZES[-1]} nodes certifies {target:.1e} "
            f"at scaled x = {float(X[no_rule][0]):g}"
        )
    for part, plan in plans:
        out[part] = plan[3]()
    return out


def _two_term_ray(p: int, X: np.ndarray, target: float, log_tail: float):
    """The ray from xi0 = 0 at points X >= 0 (-0.0 included) of _contour_density.

    Only c_1 = X and c_p = a are nonzero, so with sigma_k = Im(c_k e^{ik psi})
    and tau_k = Re(c_k e^{ik psi}) and f(0) = 0, u = (S/pi) sum_j w_j
    e^{-(sigma_1 S v_j + sigma_p S^p v_j^p)} cos(psi + tau_1 S v_j + tau_p S^p v_j^p):
    one real exp and cos per node, and S, g, g', J and the rounding charge
    in closed form. On the ray's ellipse (semi-axes A, B) Re(i X z) =
    -X Im z is at most X times the ellipse's depth below the real axis,
    hypot(A sin psi, B cos psi) - (S/2) sin psi, quadratic in rho - 1 near
    rho = 1, so a far shell takes the rule of a near one; a z^p takes the
    sector bound (B / sin psi)^p. Returns (rounding charge, tail
    certified, no rule, value thunk).
    """
    psi, sin_1, cos_1, sigma_p, tau_p, j_p, weight = _two_term(p)
    x = np.abs(X)
    sigma_1 = x * sin_1
    # an overflowing X gives a nan bound, which certifies nothing and refuses;
    # the k = p cutoff takes numpy's power, as j_p does
    with np.errstate(all="ignore"):
        S = np.minimum(log_tail / sigma_1, (log_tail / np.array([sigma_p])) ** (1.0 / p))
        S_p = np.power(S, p)
        damp_1, damp_p = sigma_1 * S, sigma_p * S_p
        dg = sigma_1 + (p * sigma_p) * np.power(S, p - 1)
        rounding = weight * np.minimum(2.0 / sigma_1, j_p)
        log_target = np.log((target - rounding) / 3.0)
        certified = -(damp_1 + damp_p) - np.log(dg) <= log_target
        turn_1, turn_p = x * cos_1 * S, tau_p * S_p

    def log_m_ray(semi_major, semi_minor, reach):
        sin_psi = math.sin(psi)
        depth = np.hypot(semi_major * sin_psi, semi_minor * math.cos(psi))
        depth -= S[:, None] / 2.0 * sin_psi
        return x[:, None] * np.maximum(depth, 0.0) + (semi_minor / sin_psi) ** p

    m_ray = _rule_sizes(S, log_m_ray, log_target[:, None])

    def on_ray(i, v):
        vp = _node_powers(v.size, p)
        damp = damp_1[i, None] * v
        damp += damp_p[i, None] * vp
        turn = turn_1[i, None] * v
        turn += turn_p[i, None] * vp
        turn += psi
        out = np.exp(np.negative(damp, out=damp), out=damp)
        out *= np.cos(turn, out=turn)
        return out

    return rounding, certified, m_ray == 0, lambda: S * _gauss_sums(m_ray, on_ray, float) / math.pi


def _saddle_ray(p: int, X: np.ndarray, target: float, log_tail: float):
    """The real leg to the saddle xi0 = (-X/p)^{1/(p-1)}, modulus 1, and the ray
    from it, at points X < 0, odd p, of _contour_density.

    On the ray c_1 = 0 and c_k = C(p, k) xi0^{p-k} (k >= 2), each with the
    sector bound c_k (B / sin psi)^k on the ray's ellipse, and the phase is
    summed by complex Horner steps. Returns (rounding charge, tail
    certified, no rule, value thunk).
    """
    psi = math.pi / (2 * p)
    xi0 = (-X / p) ** (1.0 / (p - 1))
    c = np.array([math.comb(p, k) * xi0 ** (p - k) for k in range(2, p + 1)])
    ks = np.arange(2, p + 1)[:, None]
    slope = c * np.sin(ks * psi)
    with np.errstate(all="ignore"):
        S = np.min((log_tail / slope) ** (1.0 / ks), axis=0)
        g = np.sum(slope * S**ks, axis=0)
        dg = np.sum(ks * slope * S ** (ks - 1), axis=0)
        J = np.min(_gamma_column(p) * (2.0 / slope) ** (1.0 / ks), axis=0)
        f0 = X * xi0 + xi0**p
        weight = _ROUNDING * (1.0 + 2.0 / (math.e * math.sin(psi))) + np.abs(f0)
        rounding = _EPS * weight * J
        log_target = np.log((target - rounding) / 3.0)
        certified = -g - np.log(dg) <= log_target

    def log_m_real(semi_major, semi_minor, reach):
        # Im f = 0 on [0, xi0], and |f'| <= |X| + p((xi0 + D)^{p-1} - xi0^{p-1})
        # within D of it
        z0 = xi0[:, None]
        return reach * (-X[:, None] + p * ((z0 + reach) ** (p - 1) - z0 ** (p - 1)))

    def log_m_ray(semi_major, semi_minor, reach):
        r = semi_minor / math.sin(psi)
        return sum(c[k - 2][:, None] * r**k for k in range(2, p + 1) if c[k - 2].any())

    m_real = np.where(xi0 > 0.0, _rule_sizes(xi0, log_m_real, log_target[:, None]), -1)
    m_ray = _rule_sizes(S, log_m_ray, log_target[:, None])

    def on_real(i, v):
        eta = xi0[i, None] * v
        return np.exp(1j * eta * (X[i, None] + eta ** (p - 1)))

    def on_ray(i, v):
        w = (S[i, None] * v) * complex(math.cos(psi), math.sin(psi))
        poly = c[-1][i, None] * w
        for k in range(p - 3, -1, -1):
            poly = (poly + c[k][i, None]) * w
        return np.exp(1j * (poly * w))

    def value():
        real_part = xi0 * _gauss_sums(m_real, on_real)
        ray_part = S * _gauss_sums(m_ray, on_ray)
        return (real_part + np.exp(1j * (psi + f0)) * ray_part).real / math.pi

    return rounding, certified, (m_real == 0) | (m_ray == 0), value


@lru_cache(maxsize=None)
def _line_bound(p: int) -> tuple[float, float]:
    """(C, kappa): |u_p(x, t)| <= t^{-1/p} C e^{-kappa X^{p/(p-1)}}, X = |x| t^{-1/p}, p even.

    Shift 2 pi u_p(X, 1) = int e^{i X xi - xi^p} dxi (X >= 0) to
    Im xi = h: with b = -min_s [Re (s + i)^p - a s^p] (finite for
    0 < a < 1), Re (s + ih)^p >= a s^p - b h^p, so |u_p(X, 1)| <=
    (Gamma(1 + 1/p)/pi) a^{-1/p} e^{b h^p - X h}, least at
    h = (X/(p b))^{1/(p-1)}: C = Gamma(1 + 1/p) a^{-1/p} / pi and
    kappa = (1 - 1/p)(p b)^{-1/(p-1)}. At p = 2 with a = b = 1 this is
    the Gaussian itself; a = _BOUND_A keeps 0.95 of the saddle-point rate
    (1 - 1/p) p^{-1/(p-1)} sin(pi/(2(p-1))) at p = 4, 6, 8 (Gil, Segura &
    Temme, Numerical Methods for Special Functions, SIAM 2007, ch. 5).
    """
    if p > _MAX_BOUND_ORDER:
        raise ConvergenceError(f"u_{p}: the line bound takes orders up to p = {_MAX_BOUND_ORDER}")
    # Re (s + i)^p - a s^p as a polynomial in y = s^2 >= 0; the real parts of
    # complex critical points are feasible too, so they cannot lower the
    # least value, and the factor 1 + 1e-9 (a larger b only loosens the
    # bound) covers the rounding of the roots
    coef = [math.comb(p, 2 * j) * (-1) ** j for j in range(p // 2 + 1)]
    coef[0] -= _BOUND_A
    ys = np.append(np.maximum(np.roots(np.polyder(coef)).real, 0.0), 0.0)
    b = -float(np.min(np.polyval(coef, ys))) * (1.0 + 1e-9)
    kappa = (1.0 - 1.0 / p) * (p * b) ** (-1.0 / (p - 1))
    return math.gamma(1.0 + 1.0 / p) / math.pi * _BOUND_A ** (-1.0 / p), kappa


def _reduced(theta) -> np.ndarray:
    """theta where |theta| <= 2 pi, else the angle of e^{i theta} in [-pi, pi].

    The double TWO_PI is 2.4e-16 short of 2 pi, so reducing by it is off by
    that much per turn: 3.9e-5 at theta = 1e12, every digit at 1e300. The
    sine and cosine inside e^{i theta} reduce exactly (Payne-Hanek, as glibc
    does), so its angle is the residue to within an ulp of pi.
    """
    th = np.asarray(theta, dtype=float)
    far = np.abs(th) > TWO_PI
    return np.where(far, np.angle(np.exp(1j * th)), th) if far.any() else th


def _centred(theta) -> np.ndarray:
    """theta reduced to [-pi, pi]: |theta| <= 2 pi exactly, by fmod and at
    most one 2 pi shift (Sterbenz); past that by _reduced."""
    th = np.fmod(_reduced(theta), TWO_PI)
    th = np.where(th > math.pi, th - TWO_PI, th)
    return np.where(th < -math.pi, th + TWO_PI, th)


def _image_sum(u, x, M: int, weights=None):
    """sum_{|m| <= M} w_m u(x + 2 pi m) (w_m = 1 without weights, else the
    2M + 1 weights in shell order); a float for scalar x, else an array of x's shape.

    The rows x_i + 2 pi (-M..M) go to u in blocks of at most _WORK entries
    (at least one row each), and each row is reduced on its own by numpy's
    pairwise sum, so a value never depends on its block: a grid value
    equals the scalar call bit for bit.
    """
    flat = np.asarray(x, dtype=float).ravel()
    shells = TWO_PI * np.arange(-M, M + 1)
    out = np.empty(flat.size)
    step = max(1, _WORK // shells.size)
    for i in range(0, flat.size, step):
        rows = u(flat[i : i + step, None] + shells)
        out[i : i + step] = (rows if weights is None else rows * weights).sum(axis=1)
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


@lru_cache(maxsize=256)
def _shell_count(p: int, t: float, tol: Tolerance) -> int:
    """Least M >= 1 with sum_{|m|>M} |u_p(theta + 2 pi m, t)| <= tol.abs_tol/2
    at every theta in [-pi, pi], p even.

    Shell m > M lies at |x| >= 2 pi m - pi, so by integral comparison with
    _line_bound (C, kappa) the shells past M add at most
    (C/pi) e^{-kappa Y^q} / (kappa q Y^{q-1}), q = p/(p-1), at
    Y = (2 pi M - pi) t^{-1/p}; certified_cutoff finds the least M putting it below tol/2.
    """
    C, kappa = _line_bound(p)
    q = p / (p - 1.0)
    log_lead = math.log(C / (math.pi * kappa * q))
    root = t ** (1.0 / p)

    def twice_tail(M):
        # the bound is 0 in float64 from Y = 1e150 on, where Y^q could
        # overflow; a root that underflows to 0 puts every shell there
        x = TWO_PI * M - math.pi
        Y = x / root if x < 1e150 * root else 1e150
        return 2.0 * math.exp(log_lead - kappa * Y**q - (q - 1.0) * math.log(Y))

    law = "bm_law" if p == 2 else "even_circle_law"
    return certified_cutoff(twice_tail, tol, f"these are image shells; evaluate the series ({law})")


def _line_solution(p: int, x, t: float, tol: Tolerance):
    """u_p(x, t) = t^{-1/p} u_p(x t^{-1/p}, 1) for scalar or array x, by _contour_density."""
    if p > _MAX_ORDER:
        raise ConvergenceError(f"u_{p}: the contour kernel takes orders up to p = {_MAX_ORDER}")
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_finite(x)
    _check_t(t)
    scale = t ** (-1.0 / p)
    with np.errstate(over="ignore"):
        flat = x.ravel() * scale
    out = np.empty(flat.size)
    step = _WORK // _RHO.size
    for i in range(0, flat.size, step):
        out[i : i + step] = _contour_density(p, flat[i : i + step], tol.abs_tol / scale)
    out = out.reshape(x.shape) * scale
    return float(out[0]) if scalar else out


def line_density_even(n: int, x, t: float, tol: Tolerance = DEFAULT_TOL):
    """u_{2n}(x, t) = (1/pi) int_0^inf cos(xi x) e^{-xi^{2n} t} dxi for scalar
    or array x, each value within tol.abs_tol.

    Sign-varying for n >= 2. _contour_density certifies each value on the
    ray from 0, rounding included, and raises ConvergenceError where it
    cannot; the value depends on |x| only, so u(x) == u(-x) exactly.
    """
    _check_n(n)
    _check_t(t)
    if t < _T_FLOOR:
        raise ConvergenceError(f"t below the documented floor {_T_FLOOR:g}")
    return _line_solution(2 * n, np.abs(x), t, tol)


def line_density_odd(n: int, x, t: float, tol: Tolerance = DEFAULT_TOL):
    """u_{2n+1}(x, t) for scalar or array x, each value within tol.abs_tol.

    n = 1 is line_density_third. At n >= 2 _contour_density certifies
    each value, with the ray's rounding charged (the real leg's is not);
    where it cannot, ConvergenceError is raised.
    """
    _check_n(n)
    if n == 1:
        return line_density_third(x, t)
    return _line_solution(2 * n + 1, x, t, tol)


def skew_cauchy_density(n: int, x, t: float):
    """Skewed Cauchy limit law t a / (pi [(x + t b)^2 + t^2 a^2]), (a, b) of order 2n+1;
    where the bracket is not a normal double, 1 / (pi t a (1 + ((x + t b)/(t a))^2)).
    A value past the largest double (the peak 1/(pi t a) at subnormal t) raises DomainError."""
    _check_n(n)
    _check_finite(x)
    _check_t(t)
    a, b = _rotation(2 * n + 1)
    y = np.asarray(x, dtype=float) + t * b
    with np.errstate(over="ignore", divide="ignore"):
        den = y * y + t * t * a * a
        scaled = 1.0 / (math.pi * t * a * (1.0 + (y / (t * a)) ** 2))
        out = np.where((den >= _TINY) & (den < math.inf), t * a / (math.pi * den), scaled)
    if np.any(out == math.inf):
        raise DomainError(f"the skewed Cauchy density passes the largest double at t = {t!r}")
    return float(out) if np.ndim(x) == 0 else out

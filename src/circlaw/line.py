"""Fundamental solutions of higher-order heat-type equations on the line.

d/dt u = c (d/dx)^p u with p = 2n (c = (-1)^{n+1}) or p = 2n+1
(c = (-1)^n). Every order shares one probabilistic representation,

    u_p(x, t) = E[e^{-b x G} sin(a x G)] / (pi x),

G generalized gamma with shape p and rate t, and the rotation pair
(a, b) = (cos phi_p, sin phi_p), phi_p = pi/(2p) at odd p and 0 at
even p. line_density_gamma evaluates it for every order, but at odd p
and x < 0 the factor e^{b|x|G} grows against the tail and the
quadrature cancels, so it serves as a paper formula and test oracle
where it is well conditioned. The routes the circular laws use are
line_density_even, the cosine transform of exp(-xi^{2n} t), and
line_density_odd: the Airy closed form (with its far-field expansion)
at p = 3. Every other order, even p >= 2 and odd p >= 5, goes through
one vectorized, cancellation-free contour quadrature with a certified
error (_contour_density). _line_bound bounds |u_p| at even p in closed
form, and _shell_count proves from it the shell count of both wrapped
sums (the wrapped Gaussian and the even wrapped route). _image_sum is
the one image sum sum_{|m| <= M} w_m u(x + 2 pi m) of every wrapped
route (the wrapped Gaussian, the even and odd wrapped routes and the
wrapped skewed Cauchy law): it lays out the shells, blocks the work and
sums each row on its own, so a grid value equals the scalar call bit
for bit.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache

import numpy as np
from scipy import special as sps

from .errors import ConvergenceError, DomainError, _check_finite, _check_n, _check_t
from .harmonic import TWO_PI, certified_cutoff
from .special import DEFAULT_TOL, Tolerance

__all__ = [
    "line_density_even",
    "line_density_gamma",
    "line_density_odd",
    "line_density_third",
    "skew_cauchy_density",
]

# below this the kernel's target tol t^{1/(2n)} nears its rounding floor
# (~2.5e-14 at n = 1), so a near-delta value could miss the default tolerance
_T_FLOOR = 1e-6
# largest exponent budget before float64 loses the damped-oscillation
# cancellation of the gamma route; it also sets the odd wrapped window at n >= 2
_CANCEL_BUDGET = 35.0
# a in (0, 1) of the even-order bound _line_bound: about 0.95 of the
# saddle-point decay rate at p = 4, 6, 8
_BOUND_A = 0.1


def _rotation(p: int) -> tuple[float, float]:
    """(a, b) = (cos phi_p, sin phi_p): phi_p = pi/(2p) at odd p, 0 at even p."""
    if p % 2 == 0:
        return 1.0, 0.0
    half_angle = math.pi / (2.0 * p)
    return math.cos(half_angle), math.sin(half_angle)


def line_density_gamma(p: int, x: float, t: float, tol: Tolerance = DEFAULT_TOL) -> float:
    """u_p(x, t) = E[e^{-b x G} sin(a x G)] / (pi x) for any order p >= 2.

    G is generalized gamma with shape p and rate t (density
    p g^{p-1} t e^{-g^p t}); deterministic quadrature, not Monte Carlo.
    x = 0 is a removable singularity and returns the limit a E[G] / pi.
    For odd p and x < 0 the integrand carries the growing factor
    e^{b|x|g} against the stretched-exponential tail; beyond a
    peak-exponent budget of _CANCEL_BUDGET the cancellation is
    unrepresentable in float64 and the call refuses. A quadrature error
    estimate above the requested epsabs raises ConvergenceError.
    """
    if not (p >= 2 and float(p).is_integer()):
        raise DomainError("p must be an integer >= 2")
    _check_finite(x)
    _check_t(t)
    a, b = _rotation(p)
    eps = tol.abs_tol * math.pi * abs(x) / 4.0
    # x = 0, or |x| so small (~1e-313) that eps underflows: u(x) - u(0) = O(x)
    if eps == 0.0:
        return a * (math.gamma(1.0 + 1.0 / p) * t ** (-1.0 / p)) / math.pi
    L = math.log(1.0 / min(eps, 0.5)) + 3.0
    pts = None
    # at even p (b = 0) nothing grows, and the integrand is odd in x
    if x < 0.0 and b > 0.0:
        y_star = (b * abs(x) / (p * t)) ** (1.0 / (p - 1))
        peak_exponent = b * abs(x) * y_star * (1.0 - 1.0 / p)
        if peak_exponent > _CANCEL_BUDGET:
            raise ConvergenceError(
                "cancellation budget exceeded at strongly negative x "
                f"(peak exponent {peak_exponent:.1f} > {_CANCEL_BUDGET:g})"
            )
        g_max = max(2.0 * y_star, (4.0 * L / t) ** (1.0 / p))
        if y_star > 0.0:
            pts = [y_star]
    else:
        g_max = (L / t) ** (1.0 / p) + 1.0

    def f(u):
        return (
            math.exp(-b * x * u - (u**p) * t)
            * math.sin(a * x * u)
            * p
            * u ** (p - 1)
            * t
        )

    # loaded here, not at import: no other route needs scipy.integrate
    from scipy import integrate

    with warnings.catch_warnings():
        # the error estimate is enforced below, so quad's warning adds nothing
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(f, 0.0, g_max, points=pts, epsabs=eps, epsrel=1e-12, limit=400)
    if err > eps:
        raise ConvergenceError(
            f"u_{p}({x:g}, {t:g}): quadrature error {err:.2e} exceeds {eps:.2e}"
        )
    return val / (math.pi * x)


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
    < math.log(np.finfo(float).tiny),
    1.0,
    200.0,
)


def _airy_oscillating(z: np.ndarray) -> np.ndarray:
    """Ai(-z) for z >= _AIRY_SWITCH by DLMF 9.7.9.

    Ai(-z) = [cos(zeta - pi/4) P + sin(zeta - pi/4) Q] / (sqrt(pi) z^{1/4}),
    P = sum (-1)^k u_{2k} zeta^{-2k}, Q = sum (-1)^k u_{2k+1} zeta^{-2k-1}.
    The truncation is certified by _airy_remainder; zeta itself is formed
    in float64, which carries the argument's own conditioning (at most
    about 4 eps zeta of the envelope), as scipy's Airy does.
    """
    zeta = 2.0 * z * np.sqrt(z) / 3.0
    r = 1.0 / (zeta * zeta)
    big_p = np.full(z.shape, _AIRY_P[-1])
    big_q = np.full(z.shape, _AIRY_Q[-1])
    for cp, cq in zip(_AIRY_P[-2::-1], _AIRY_Q[-2::-1]):
        big_p = big_p * r + cp
        big_q = big_q * r + cq
    big_q /= zeta
    c, s = np.cos(zeta), np.sin(zeta)
    # cos(zeta - pi/4) = (c + s)/sqrt(2), sin(zeta - pi/4) = (s - c)/sqrt(2)
    return ((c + s) * big_p + (s - c) * big_q) / (math.sqrt(2.0 * math.pi) * np.sqrt(np.sqrt(z)))


def line_density_third(x, t: float):
    """Third-order solution (3t)^(-1/3) Ai(x (3t)^(-1/3)); scalar or array x.

    scipy's Airy serves the core -_AIRY_SWITCH < y < _AIRY_ZERO of the
    scaled argument y; the oscillating side y <= -_AIRY_SWITCH takes the
    expansion of _airy_oscillating, and y >= _AIRY_ZERO, where Ai is
    below the smallest normal double, returns 0.
    """
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    _check_finite(x)
    _check_t(t)
    scale = (3.0 * t) ** (-1.0 / 3.0)
    y = x * scale
    out = np.zeros(y.shape)
    far = y <= -_AIRY_SWITCH
    core = ~far & (y < _AIRY_ZERO)
    out[far] = _airy_oscillating(-y[far])
    out[core] = sps.airy(y[core])[0]
    out *= scale
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# even p and odd p >= 5: contour quadrature


# Gauss-Legendre sizes of the contour kernel; each rule is built once
_GL_SIZES = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048)
# Bernstein-ellipse parameters over which each bound is minimized
_RHO = 1.0 + np.geomspace(1e-3, 30.0, 40)
# largest work array of the kernel (points x nodes, or points x ellipses)
# and of _image_sum (angles x shells)
_WORK = 2**14
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
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


def _rule_sizes(length, log_m, log_target) -> np.ndarray:
    """Smallest size in _GL_SIZES whose Gauss error bound meets the target.

    ATAP Thm 19.3: on [0, L], |I - I_m| <= (L/2)(64/15) M rho^{-2m}/(rho^2 - 1)
    for an integrand bounded by M on the Bernstein ellipse E_rho of the
    interval. log_m(A, B, D) bounds log M from the ellipse's semi-major
    axis A, its semi-minor axis B and its largest distance D from the
    interval. Returns 0 where no size qualifies.
    """
    rho = _RHO
    half = length[:, None] / 2.0
    semi_major = half * (rho + 1.0 / rho) / 2.0
    semi_minor = half * (rho - 1.0 / rho) / 2.0
    reach = half * np.hypot((rho + 1.0 / rho) / 2.0 - 1.0, (rho - 1.0 / rho) / 2.0)
    # an overflowing bound (inf or nan) qualifies no size, so it refuses
    with np.errstate(all="ignore"):
        head = (
            np.log(half * (64.0 / 15.0))
            + log_m(semi_major, semi_minor, reach)
            - np.log(rho * rho - 1.0)
        )
        need = np.min((head - log_target) / (2.0 * np.log(rho)), axis=1)
    sizes = np.asarray(_GL_SIZES)
    pick = np.searchsorted(sizes, need)
    return np.where(pick < sizes.size, sizes[np.minimum(pick, sizes.size - 1)], 0)


def _gauss_sums(sizes: np.ndarray, integrand) -> np.ndarray:
    """sum_j w_j integrand(i, v_j) on [0, 1] for each point i, with its own
    rule size (points of size <= 0 give 0)."""
    out = np.zeros(sizes.size, dtype=complex)
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
    required. The contour runs along the real axis to the odd-order saddle
    xi0 = (max(-X, 0)/p)^{1/(p-1)} (0 at X >= 0) and leaves it on the ray
    xi0 + s e^{i psi}, psi = pi/(2p) at odd p and pi/(4p) at even p.
    The modulus is 1 on the first piece; on the ray
    f(xi0 + w) - f(xi0) = sum_k c_k w^k with c_1 = max(X, 0) and
    c_k = a C(p, k) xi0^{p-k}, so the modulus is e^{-g(s)} with
    g(s) = sum_k Im(c_k e^{ik psi}) s^k, all of whose coefficients are
    >= 0: it never exceeds 1 on the sector of half-width psi about the ray,
    and nothing cancels. Each piece is one Gauss-Legendre rule with its
    Bernstein-ellipse bound. On the ray's ellipse (semi-axes A and B) the
    linear term adds Re(i c_1 z) = -c_1 Im z, at most c_1 times the
    ellipse's depth below the real axis, hypot(A sin psi, B cos psi) -
    (S/2) sin psi, which is quadratic in rho - 1 near rho = 1; the terms
    k >= 2 take the sector bound |c_k| (B / sin psi)^k. So a far shell
    (large c_1) takes the rule of a near one. The ray stops at S with the tail
    e^{-g(S)}/g'(S) (g convex). Rounding is charged as eps times the ray's
    phase range weighted by the modulus (a closed form in the c_k, times
    _ROUNDING); where that floor exceeds target/2 the call refuses, else
    each of the three quadrature errors is held below a third of what the
    floor leaves of the target.
    """
    psi = math.pi / (2 * p) if p % 2 else math.pi / (4 * p)
    a = 1 if p % 2 else 1j
    xi0 = (np.maximum(-X, 0.0) / p) ** (1.0 / (p - 1))
    c = np.array(
        [np.zeros(X.size), np.maximum(X, 0.0)]
        + [a * math.comb(p, k) * xi0 ** (p - k) for k in range(2, p + 1)]
    )
    ks = np.arange(1, p + 1)[:, None]
    # Im(c_k e^{ik psi}), written out so that real c_k give c_k sin(k psi) exactly
    slope = c[1:].real * np.sin(ks * psi) + c[1:].imag * np.cos(ks * psi)

    # ray cutoff: any single term of g(S) >= log(3/target) + 1 makes g(S)
    # at least that; take the smallest such S
    log_tail = max(-math.log(target / 3.0), 0.0) + 1.0
    # an overflowing X gives a nan bound, which certifies nothing and refuses
    with np.errstate(all="ignore"):
        S = np.min((log_tail / slope) ** (1.0 / ks), axis=0)
        g = np.sum(slope * S**ks, axis=0)
        dg = np.sum(ks * slope * S ** (ks - 1), axis=0)
        # rounding: a node's phase i f carries ~eps |f| and counts with the
        # modulus e^{-g}; as |c_k| <= slope_k / sin(psi), |f| <= g / sin(psi),
        # and g e^{-g} <= (2/e) e^{-g/2}, so the ray's phase range weighted by
        # the modulus, int e^{-g} (1 + |f|) ds, is at most (1 + 2/(e sin psi)) J
        # with J = min_k int e^{-slope_k s^k / 2} ds; e^{i f0} adds eps |f0| J
        J = np.min(sps.gamma(1.0 + 1.0 / ks) * (2.0 / slope) ** (1.0 / ks), axis=0)
        f0 = X * xi0 + a * xi0**p
        weight = _ROUNDING * (1.0 + 2.0 / (math.e * math.sin(psi))) + np.abs(f0)
        rounding = _EPS * weight * J
        if np.any(rounding > target / 2.0):
            raise ConvergenceError(
                f"u_{p}: target {target:.1e} is below twice the rounding floor "
                f"(eps x weighted phase range {float(np.max(rounding)):.1e})"
            )
        # a column, so that each point's rule sizes read its own target
        log_target = np.log((target - rounding) / 3.0)[:, None]
        if not np.all(-g - np.log(dg) <= log_target[:, 0]):
            raise ConvergenceError(f"u_{p}: ray tail could not be certified")

    def log_m_real(semi_major, semi_minor, reach):
        # Im f = 0 on [0, xi0], and |f'| <= |X| + p((xi0 + D)^{p-1} - xi0^{p-1})
        # within D of it
        z0 = xi0[:, None]
        grad = -np.minimum(X, 0.0)[:, None] + p * ((z0 + reach) ** (p - 1) - z0 ** (p - 1))
        return reach * grad

    def log_m_ray(semi_major, semi_minor, reach):
        # the linear term: Re(i c_1 z) = -c_1 Im z with c_1 >= 0 real, and
        # -Im z is at most the ellipse's depth below the real axis,
        # hypot(A sin psi, B cos psi) - (S/2) sin psi. Every other term of
        # Re(i f) is <= 0 in the sector of half-width psi about the ray; the
        # ellipse leaves it only where |z| <= B / sin(psi), and there
        # |c_k z^k| <= |c_k| (B / sin psi)^k
        sin_psi = math.sin(psi)
        depth = np.hypot(semi_major * sin_psi, semi_minor * math.cos(psi))
        depth -= S[:, None] / 2.0 * sin_psi
        r = semi_minor / sin_psi
        rest = sum(np.abs(c[k])[:, None] * r**k for k in range(2, p + 1) if c[k].any())
        return c[1].real[:, None] * np.maximum(depth, 0.0) + rest

    m_real = np.full(X.size, -1)
    if xi0.any():
        m_real = np.where(xi0 > 0.0, _rule_sizes(xi0, log_m_real, log_target), -1)
    m_ray = _rule_sizes(S, log_m_ray, log_target)
    if np.any(m_real == 0) or np.any(m_ray == 0):
        worst = float(X[(m_real == 0) | (m_ray == 0)][0])
        raise ConvergenceError(
            f"u_{p}: no Gauss rule up to {_GL_SIZES[-1]} nodes certifies {target:.1e} "
            f"at scaled x = {worst:g}"
        )

    def on_real(i, v):
        eta = xi0[i, None] * v
        return np.exp(1j * eta * (X[i, None] + eta ** (p - 1)))

    def on_ray(i, v):
        w = (S[i, None] * v) * complex(math.cos(psi), math.sin(psi))
        poly = c[p][i, None] * w
        for k in range(p - 1, 0, -1):
            poly = (poly + c[k][i, None]) * w
        return np.exp(1j * poly)

    real_part = xi0 * _gauss_sums(m_real, on_real)
    ray_part = S * _gauss_sums(m_ray, on_ray)
    return (real_part + np.exp(1j * (psi + f0)) * ray_part).real / math.pi


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

"""Lattice sums in closed form, and the tail of a carrier they carry.

For real s > 1 the lattice sums

    C_s(th) = sum_{k>=1} k^{-s} cos(k th),    S_s(th) = sum_{k>=1} k^{-s} sin(k th)

are Re and Im of the polylogarithm Li_s(e^{i th}). For 0 <= th <= pi (the
callers reflect th there) the series of Li_s in log z (DLMF 25.12.12) reads

    Li_s(e^{i th}) = Gamma(1-s) (-i th)^{s-1} + sum_{n>=0} zeta(s-n) (i th)^n / n!

at a non-integer s, and at an integer order m its limit replaces the two
poles that cancel (Gamma(1-s) and zeta(s-n) at n = m - 1) by

    (i th)^{m-1}/(m-1)! (H_{m-1} - log th + i pi/2).

At even m the cosine sum, and at odd m the sine sum, is then a polynomial
(zeta vanishes at the negative even integers): the Bernoulli polynomials of
DLMF 24.8. Everywhere else the series in th is infinite; its terms fall at
least like 2^{-n} on [0, pi] and are summed until the rest is below eps/8.
Near an integer order the two pole terms grow like 1/|s - m| and cancel;
their rounding is charged as it grows, so a caller that sees the charge pass
its budget takes another route.

zeta is the package's own: Euler-Maclaurin from x = 1/2 on (x - 1 passed
exactly, so the pole term keeps its digits at x -> 1) and the functional
equation below 1/2. Every value comes with a bound on its rounding and
truncation, and nothing is built at import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError
from .harmonic import TWO_PI, _wrap
from .special import _EPS, _frozen

__all__: list[str] = []

# Euler-Maclaurin for zeta(x): the direct sum runs to k = _EM_N - 1 and the
# correction takes B_2 .. B_20; the B_22 term bounds what is left
_EM_N = 10
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510, 43867 / 798, -174611 / 330)
_B22 = 854513 / 138
_LOG_TWO_PI = math.log(TWO_PI)
# sup over (0, pi] of |sum_{k>K} sin(k th)/k| <= pi/2 + Si(pi): the full sum is
# (pi - th)/2 and every partial sum lies in [0, Si(pi)] (Fejer-Jackson-Gronwall)
_SIN_OVER_K_SUP = 0.5 * math.pi + 1.8519370519824662


def _zeta_right(x: np.ndarray, xm1: np.ndarray):
    """(zeta(x), bound on its error) at entries x >= 1/2, x != 1, with x - 1
    given exactly as xm1, by Euler-Maclaurin at N = _EM_N.

    For k^{-x}, x > 0, every derivative keeps its sign, so the remainder
    after the B_20 term is at most the B_22 term. Each part rounds within
    (2N + 16) eps of its size.
    """
    N = float(_EM_N)
    tail = N**-x
    value = (np.arange(1.0, N)[:, None] ** -x).sum(axis=0)
    size = value + 0.5 * tail
    pole = N * tail / xm1
    size += np.abs(pole)
    value += 0.5 * tail
    # x (x+1) ... (x+2i-2) N^{-x-2i+1}, i = 1 .. 11 (rows)
    two_i = np.arange(2.0, 21.0, 2.0)[:, None]
    factor = np.cumprod(
        np.concatenate([(x * tail / N)[None, :], (x + two_i - 1.0) * (x + two_i) / (N * N)]), axis=0
    )
    terms = _bernoulli_ratios()[:, None] * factor[:-1]
    value += terms.sum(axis=0)
    value += pole
    size += np.abs(terms).sum(axis=0)
    omitted = abs(_B22 / math.factorial(22)) * np.abs(factor[-1])
    return value, _EPS * (2.0 * N + 16.0) * size + omitted


@lru_cache(maxsize=1)
def _bernoulli_ratios() -> np.ndarray:
    """B_{2i}/(2i)!, i = 1..10, built on first use."""
    return _frozen(np.array([b / math.factorial(2 * i) for i, b in enumerate(_BERNOULLI, 1)]))


def _sinpi(x):
    """sin(pi x), elementwise, from x - rint(x) (exact), so its relative error
    stays a few eps at every integer."""
    r = np.rint(x)
    return np.sin(math.pi * (x - r)) * (1.0 - 2.0 * np.fmod(np.abs(r), 2.0))


def _cospi(x):
    r = np.rint(x)
    return np.cos(math.pi * (x - r)) * (1.0 - 2.0 * np.fmod(np.abs(r), 2.0))


def _zeta_over_factorial(s: np.ndarray, n: np.ndarray):
    """zeta(s - n)/n! and a bound on its error at entries with s - n != 1.

    From s - n = 1/2 down the functional equation
    zeta(x) = 2 (2 pi)^{x-1} sin(pi x/2) Gamma(1-x) zeta(1-x) takes over;
    its error is charged on the size without the sine, with a share that
    grows with |x| for the rounding of x = s - n itself. zeta(0) = -1/2,
    and at the negative even integers the sine is exactly 0.
    """
    x = s - n
    left = x < 0.5
    y = np.where(left, (n + 1.0) - s, x)
    ym1 = np.where(left, n - s, s - (n + 1.0))
    zero = x == 0.0
    ym1[zero] = 1.0  # zeta(0) is set below; keep the pole term finite
    z, err = _zeta_right(y, ym1)
    fact = _factorials()[n.astype(int)]
    out = z / fact
    bound = err / fact + 4.0 * _EPS * np.abs(out)
    if left.any():
        xl = x[left]
        gam = np.array([math.gamma(v) for v in (1.0 - xl).tolist()])
        size = 2.0 * np.exp((xl - 1.0) * _LOG_TWO_PI) * gam * np.abs(out[left])
        sine = _sinpi(0.5 * xl)
        arg = 4.0 * np.abs(xl) * (_LOG_TWO_PI + np.log(2.0 + np.abs(xl)) + 2.0)
        rel = err[left] / np.abs(z[left])
        out[left] = np.copysign(size, out[left]) * sine
        bound[left] = size * (np.abs(sine) * rel + _EPS * (64.0 + arg))
    out[zero] = -0.5 / fact[zero]
    bound[zero] = 0.0
    return out, bound


@lru_cache(maxsize=1)
def _factorials() -> np.ndarray:
    """n! as doubles, n = 0..170 (each correctly rounded), built on first use."""
    return _frozen(np.array([float(math.factorial(n)) for n in range(171)]))


def _harmonic_number(m: int) -> float:
    return math.fsum(1.0 / i for i in range(1, m))


@lru_cache(maxsize=256)
def series_length(s: float, sine: bool) -> int:
    """The last n of the th-series of C_s (or with sine S_s): m at an integer
    order m where the series is a polynomial, else the first N from which
    the rest of the series is at most eps/16 on [0, pi].

    For n >= n0 = ceil(s) + 1, |zeta(s-n)|/n! pi^n <= t_n = 2 zeta(2)
    (2 pi)^{s-1} 2^{-n} Gamma(n+1-s)/Gamma(n+1), and t_{n+1}/t_n =
    (1 - s/(n+1))/2 <= e^{-s/(n+1)}/2, so t_N <= t_{n0} 2^{n0-N}
    ((n0+1)/(N+1))^s, and the rest from N is at most 2 t_N.
    """
    if s.is_integer() and (int(s) % 2 == 1) == sine:
        return int(s)
    n0 = math.ceil(s) + 1
    log2_t0 = (
        math.log(2.0 * math.pi**2 / 6.0) + (s - 1.0) * _LOG_TWO_PI + math.lgamma(n0 + 1.0 - s) - math.lgamma(n0 + 1.0)
    ) / math.log(2.0) - n0
    need = log2_t0 - math.log2(_EPS / 32.0)  # halvings from t_{n0} to eps/32
    lo, hi = n0 - 1, n0 + max(0, math.ceil(need))  # the bound fails at lo (or lo < n0), holds at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (mid - n0) + s * math.log2((mid + 1.0) / (n0 + 1.0)) >= need:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class _ClosedForm:
    """sum_j c_j C_{s_j}(th) (or S_{s_j}) on [0, pi] as a polynomial in th^2
    (times th for the sine sums) plus power terms c th^e (e > 0) and log
    terms c th^e log th (e >= 1), which vanish at th = 0."""

    poly: np.ndarray
    odd: bool
    powers: tuple
    logs: tuple

    def __call__(self, r: np.ndarray) -> np.ndarray:
        u = r * r
        acc = np.full(r.shape, self.poly[-1])
        for p in self.poly[-2::-1]:
            acc *= u
            acc += p
        if self.odd:
            acc *= r
        for coef, e in self.powers:
            acc += coef * r**e
        if self.logs:
            log_r = np.log(np.where(r > 0.0, r, 1.0))  # th^e log th -> 0 at th = 0
            for coef, e in self.logs:
                acc += coef * r**e * log_r
        return acc


# unit closed forms by (order, sine): (poly, powers, logs, size, fixed), filled
# on first use and emptied once it holds _UNIT_CAP orders
_UNIT_FORMS: dict = {}
_UNIT_CAP = 512


def _unit_forms(orders, sine: bool):
    """The closed form of C_s (or S_s) at each order s > 1, with coefficient 1:
    the Horner coefficients in th^2, the power and log terms as (coef, e),
    size = sum |term| pi^n over the series' terms, whose Horner rounding the
    caller charges at its own length, and fixed, the rest of the charge
    (the zeta values' errors, the truncated rest, the power and log terms).
    Orders not built before are built together, with one zeta sweep."""
    todo = [o for o in dict.fromkeys(orders) if (o, sine) not in _UNIT_FORMS]
    if todo:
        if len(_UNIT_FORMS) + len(todo) > _UNIT_CAP:
            _UNIT_FORMS.clear()
            todo = list(dict.fromkeys(orders))
        ns = []
        for o in todo:
            n = np.arange(1 if sine else 0, series_length(o, sine) + 1, 2, dtype=float)
            ns.append(n[n != o - 1.0] if o.is_integer() else n)
        z, zerr = _zeta_over_factorial(np.repeat(todo, [n.size for n in ns]), np.concatenate(ns))
        pieces = np.cumsum([n.size for n in ns])[:-1]
        for o, n, zo, eo in zip(todo, ns, np.split(z, pieces), np.split(zerr, pieces)):
            _UNIT_FORMS[(o, sine)] = _unit_form(o, sine, n, zo, eo)
    return [_UNIT_FORMS[(o, sine)] for o in orders]


def _unit_form(s: float, sine: bool, n, z, zerr):
    p = (n // 2).astype(int)
    poly = np.zeros(int(p.max()) + 1)
    poly[p] = (1.0 - 2.0 * (p % 2)) * z
    pi_n = math.pi**n
    size = float((np.abs(z) * pi_n).sum())
    fixed = float((zerr * pi_n).sum())
    e = s - 1.0
    pi_e = math.pi**e
    if series_length(s, sine) > s:  # an infinite series: its rest
        fixed += _EPS / 8.0
    if not s.is_integer():
        # Gamma(1-s) = pi / (Gamma(s) sin(pi s)), each to a few eps
        coef = math.pi / (math.gamma(s) * float(_sinpi(s))) * float(_cospi(0.5 * s) if sine else _sinpi(0.5 * s))
        sup_log = max(pi_e * e * math.log(math.pi), 1.0 / math.e)
        return _frozen(poly), ((coef, e),), (), size, fixed + abs(coef) * _EPS * (16.0 * pi_e + sup_log)
    m = int(s)
    x = 1.0 / math.factorial(m - 1)
    if (m % 2 == 0) == sine:  # (i th)^{m-1} H and -log th on the series' side
        x *= -1.0 if (m - 1 - sine) % 4 else 1.0
        poly[(m - 1) // 2] += x * _harmonic_number(m)
        size += abs(x * _harmonic_number(m)) * pi_e
        sup_log = max(pi_e * math.log(math.pi), 1.0 / (math.e * e))
        return _frozen(poly), (), ((-x, e),), size, fixed + abs(x) * _EPS * 16.0 * sup_log
    # the i pi/2 part on the other side
    x *= 0.5 * math.pi * (-1.0 if (m - sine) % 4 else 1.0)
    return _frozen(poly), ((x, e),), (), size, fixed + abs(x) * _EPS * 16.0 * pi_e


def _closed_form(c, s, sine: bool):
    """The _ClosedForm of sum_j c_j C_{s_j} (or S_{s_j}), all s_j > 1, and a
    bound on its rounding and truncation over [0, pi]: per order, its
    fixed charge and 2L + 8 eps per unit of its series' size, L the
    combined Horner length."""
    units = _unit_forms(s, sine)
    L = max(u[0].size for u in units)
    poly = np.zeros(L)
    powers, logs, charge = [], [], 0.0
    for cj, (up, upow, ulog, size, fixed) in zip(c, units):
        poly[: up.size] += cj * up
        powers += [(cj * coef, e) for coef, e in upow]
        logs += [(cj * coef, e) for coef, e in ulog]
        charge += abs(cj) * ((2.0 * L + 8.0) * _EPS * size + fixed)
    return _ClosedForm(poly, sine, tuple(powers), tuple(logs)), charge


@dataclass(frozen=True)
class LatticeTail:
    """The tail past a head of K terms of a cosine carrier whose later
    coefficients are modelled as m_k = sum_j c_j k^{-s_j}:

        density:  sum_{k>K} m_k cos(k th) = sum_j c_j C_{s_j}(th) - sum_{k<=K} m_k cos(k th),
        CDF:      sum_{k>K} m_k sin(k th)/k = sum_j c_j S_{s_j+1}(th) - sum_{k<=K} m_k sin(k th)/k.

    head holds m_1..m_K, which the carrier subtracts from its own head;
    density gives the first closed form, on th reflected into [0, pi] (C is
    even and 2 pi-periodic), and cdf_form the second on [0, pi], where the
    CDF's caller reflects. rounding bounds both parts' error at every angle;
    slope is a Lipschitz bound of the density tail (inf where it has none,
    and where only the CDF is carried).
    """

    head: np.ndarray
    density_form: _ClosedForm | None
    cdf_form: _ClosedForm
    rounding: float
    slope: float

    def density(self, theta) -> np.ndarray:
        if self.density_form is None:
            raise ConvergenceError(
                "this carrier's tail is certified at the CDF level only; evaluate its cdf"
            )
        w = _wrap(np.asarray(theta, dtype=float))
        return self.density_form(np.minimum(w, TWO_PI - w))


def lattice_tail(c, s, K: int, density: bool) -> LatticeTail:
    """LatticeTail of the model m_k = sum_j c_j k^{-s_j} past k = K, with the
    CDF's closed form (orders s_j + 1) and, with density, the density's
    (all s_j > 1).

    rounding adds the larger of the closed forms' charges, the head sum's
    4 (K + 64) eps sum |m_k| (_trig_sum's certificate for up to 2^64
    points, on the carrier's head less m_k) and 2 eps for the reflected
    CDF's 1 - F; the reflected angles themselves are exact (2 pi - th from
    th >= pi, Sterbenz).
    """
    c = [float(v) for v in c]
    s = [float(v) for v in s]
    k = np.arange(1.0, K + 1.0)
    head = np.zeros(K)
    for cj, sj in zip(c, s):
        head += cj * k**-sj
    cdf_form, rounding = _closed_form(c, [v + 1.0 for v in s], True)
    density_form, slope = None, math.inf
    if density:
        density_form, charge = _closed_form(c, s, False)
        rounding = max(rounding, charge)
        slope = 0.0
        for cj, sj in zip(c, s):
            if sj > 2.0:  # sum_{k>K} k^{1-s} <= K^{2-s}/(s-2)
                slope += abs(cj) * K ** (2.0 - sj) / (sj - 2.0)
            elif sj == 2.0:
                slope += abs(cj) * _SIN_OVER_K_SUP
            else:
                slope = math.inf
    rounding += 4.0 * (K + 64) * _EPS * float(np.abs(head).sum()) + 2.0 * _EPS
    return LatticeTail(head, density_form, cdf_form, rounding, slope)

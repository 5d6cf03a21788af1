"""Truncated Fourier carrier for circular laws.

Every circular density in the package is carried as a HarmonicLaw:
density(theta) = a0 + sum_{k=1..K} a_k cos(k theta) + b_k sin(k theta),
with a certified bound on the dropped tail. This module owns evaluation,
the termwise CDF, the truncation rule shared by every series law,
the certified tail of the e^{-c k^p} carriers, numerical Fourier
projection, and rejection sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import numpy.fft  # noqa: F401  (numpy loads it lazily; here it loads at import, not in a job)

from .errors import ConvergenceError, DomainError, SignedLawError, _check_count, _check_finite
from .special import _EPS, _WORK, MAX_TERMS, Tolerance

if TYPE_CHECKING:
    from .lattice import LatticeTail

__all__ = ["HarmonicLaw", "fourier_coeffs", "sample"]

TWO_PI = 2.0 * math.pi

# largest z^m table (baby steps x points) one chunk of the scattered path
# builds; with its block polynomials it stays within 1 MB, half a 2 MB L2
_POWER_TABLE = 1 << 15
# K0, the fewest terms the scattered path sums by baby steps. Measured on a
# 2-core Xeon VM, one BLAS thread: baby steps beat plain Horner from K ~ 16
# at 10^3 and 10^5 points but only from K ~ 48-64 at 10^4 points, and the
# sampling benchmark's jobs ran fastest with K0 between 32 and 96.
_BABY_STEP_TERMS = 32

# The table path of _scattered (_table_plan, _tabled). 2 pi in three parts
# of at most 26 significant bits (Cody & Waite 1980), so that m * part / M is
# exact for a power of two M and |m| <= _TABLE_CELLS; the parts add up to
# 2 pi within 2^-78 (2.55e-24, mpmath).
_TWO_PI_PARTS = tuple(map(float.fromhex, ("0x1.921fb58p+2", "-0x1.dde974p-25", "0x1.1a6263p-52")))
_TABLE_CELLS = 1 << 26
# the fewest points and terms that take the table path, and the octaves of
# M tried from the least power of two above 2K
_TABLE_POINTS = 2048
_TABLE_TERMS = 12
_TABLE_OCTAVES = 6
# the fixed cost model (ns) that picks M and weighs the table path against
# Horner (_table_plan), fitted once to 574 timings at K = 12..16384 and
# N = 2048..50000 on a 2-core Xeon VM, one BLAS thread
_TABLE_COST = (10_000.0, 0.6, 2.0)  # per call, per FFT node-octave-row, per point-row
_HORNER_COST = (50.0, 0.23)  # per point, per point-term


def _cdf_angles(theta) -> tuple[np.ndarray, float]:
    """(theta as a float array in [0, 2 pi], the domain of every CDF, its least value):
    finite, within 1e-9 of it and clipped onto it (a copy) where it strays, or DomainError."""
    th = np.asarray(theta, dtype=float)
    lo, hi = (float(th.min()), float(th.max())) if th.size else (1.0, 1.0)
    _check_finite((lo, hi), "theta")
    if lo < -1e-9 or hi > TWO_PI + 1e-9:
        raise DomainError("theta must lie in [0, 2 pi]")
    return (np.clip(th, 0.0, TWO_PI) if lo < 0.0 or hi > TWO_PI else th), max(lo, 0.0)


def _uniform_grid(M: int, endpoint: bool = False) -> np.ndarray:
    """The M nodes arange(M) * (2 pi / M) of the circle; with endpoint one
    node more, arange(M + 1) * (2 pi / M) with its last entry set to 2 pi,
    which are the doubles numpy 2.4 gives for linspace(0, 2 pi, M + 1)."""
    th = np.arange(M + endpoint) * (TWO_PI / M)
    if endpoint:
        th[-1] = TWO_PI
    return th


def _grid_period(th) -> int:
    """Number M of periodic nodes when th is a uniform grid, else 0.

    The grids are _uniform_grid(M), with or without its 2 pi endpoint, matched
    bit for bit: the last node tells the two forms apart, th[1] must be the
    form's step, and one exact comparison with the form decides.
    """
    N = th.size
    if th.ndim != 1 or N == 0 or th[0] != 0.0:
        return 0
    if N == 1:
        return 1
    M = N - 1 if th[-1] == TWO_PI else N
    return M if th[1] == TWO_PI / M and np.array_equal(th, _uniform_grid(M, M < N)) else 0


def _unit(th) -> np.ndarray:
    """e^{i th} as cos th + i sin th: the doubles of np.exp(1j * th).

    One complex array takes cos and sin in place. The imaginary part of
    1j * -0.0 is +0.0, so adding 0.0 turns sin(-0.0) = -0.0 into +0.0.
    """
    z = np.empty(np.shape(th), dtype=complex)
    np.cos(th, out=z.real)
    np.sin(th, out=z.imag)
    z.imag += 0.0
    return z


def _wrap(x):
    """np.mod(x, TWO_PI), the residue in [0, 2 pi), by fmod and numpy's own
    fix-up: add TWO_PI where the remainder is negative, and -0.0 becomes
    +0.0. Writes only into the remainder it allocates, never into x."""
    r = np.fmod(x, TWO_PI)
    r += (r < 0.0) * TWO_PI
    return r


def _trig_sum(a0, cos_coeffs, sin_coeffs, thetas, integrated=False):
    """a0 + sum_k (a_k cos k th + b_k sin k th) at the angles thetas, or with
    integrated a0 + sum_k (a_k sin k th - b_k cos k th)/k, the series of
    HarmonicLaw.cdf.

    The sum is Re sum_k c_k z^k with c_0 = a0, c_k = a_k - i b_k (with
    integrated -b_k/k - i a_k/k) and z = cos th + i sin th (_unit), the
    doubles of e^{i th}. On a uniform grid of M
    nodes (M = 1 for the node 0 alone, or 0 and 2 pi) the modes are folded
    by k mod M (exact aliasing for a trigonometric polynomial, see _fold)
    and summed by one length-M FFT;
    anywhere else by blocks of points (_scattered), by complex Horner in z
    or, for enough points and terms, from Taylor tables (_tabled).
    No path evaluates a transcendental per term. The grid fold forms
    no K-length array; the scattered path forms c, K + 1 complex entries,
    and its tables (J + 1) M doubles.
    Returns an array of th's shape, at least 1-d.
    """
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    modes = _modes(cos_coeffs, sin_coeffs, integrated)
    K = cos_coeffs.size
    M = _grid_period(th)
    if not M:
        c = np.empty(K + 1, dtype=complex)
        c[0] = a0
        for lo in range(1, K + 1, _WORK):
            hi = min(K + 1, lo + _WORK)
            c.real[lo:hi], c.imag[lo:hi] = modes(lo, hi)
        return _scattered(c, th.ravel()).reshape(th.shape)
    vals = np.fft.ifft(_fold(a0, modes, K, M), norm="forward").real
    return np.concatenate([vals, vals[: th.size - M]])


def _modes(cos_coeffs, sin_coeffs, integrated):
    """(lo, hi) -> (Re c_k, Im c_k) for the modes k = lo..hi-1 (lo >= 1) of
    the series _trig_sum adds: a_k and -b_k, or with integrated -b_k/k and
    -a_k/k, the values of the whole arrays' -b/k and -a/k."""

    def block(lo, hi):
        if not integrated:
            return cos_coeffs[lo - 1 : hi - 1], -sin_coeffs[lo - 1 : hi - 1]
        k = np.arange(float(lo), float(hi))
        return -(sin_coeffs[lo - 1 : hi - 1] / k), -(cos_coeffs[lo - 1 : hi - 1] / k)

    return block


def _fold(a0, modes, K, M):
    """sum_r c_{rM + j}, j = 0..M-1, of c_0 = a0 and c_k = modes (M >= 1).

    These are the columns of c zero-padded to whole rows of M and summed
    over the rows, as numpy's reshape(-1, M).sum(axis=0) sums them: from
    0.0, one row after the other. The rows come by blocks of about _WORK
    entries into one buffer, each behind the running sums where there is
    more than one block, so one sum per block continues that order and the
    work holds one block, not the K + 1 entries of c. At M = 1 numpy adds
    a block's one column pairwise, so up to _WORK - 1 terms the sum is
    c.sum()'s; past that, the blocks' running sum rounds otherwise.
    """
    rows, step = -(-(K + 1) // M), max(1, _WORK // M)  # rows of c, rows per block
    lead = M if rows > step else 0  # the running sums' row
    buf = np.zeros(lead + min(rows, step) * M, dtype=complex)
    folded = np.empty(M, dtype=complex)
    for lo in range(0, K + 1, step * M):
        hi = min(K + 1, lo + step * M)
        first = max(lo, 1)
        span = slice(lead + first - lo, lead + hi - lo)
        buf.real[span], buf.imag[span] = modes(first, hi)
        if lo == 0:
            buf[lead] = a0
        end = lead + M * -(-(hi - lo) // M)
        if lo:  # a later last block pads over the rows before it
            buf[lead + hi - lo : end] = 0.0
        np.add.reduce(buf[:end].reshape(-1, M), axis=0, out=folded if hi > K else buf[:M])
    return folded


def _scattered(c, th) -> np.ndarray:
    """Re sum_k c_k z^k, z = _unit(th), at the 1-d angles th by blocks of _WORK
    points (from _BABY_STEP_TERMS terms on, of whole chunks of _horner), each
    block's z, sum and real part into one output. A last one-point block joins
    the one before: numpy rounds a one-point complex product in its scalar loop.

    Where _table_plan finds it cheaper and certified, Taylor tables take
    the place of z and Horner (_tabled): their values lie within the
    certificate of HarmonicLaw, not on Horner's doubles."""
    plan = _table_plan(c.size - 1, th)
    if plan is not None:
        return _tabled(c, th, *plan)
    chunk = _POWER_TABLE // (math.isqrt(c.size - 1) + 1)  # of _horner's baby steps
    step = _WORK if c.size - 1 < _BABY_STEP_TERMS else _WORK - _WORK % chunk
    stops = [*range(step, th.size - 1, step), th.size]
    out = np.empty(th.size)
    for lo, hi in zip([0, *stops], stops):
        out[lo:hi] = _horner(c, _unit(th[lo:hi])).real
    return out


def _table_budget(K: int, M: int) -> tuple[int, float]:
    """(J, budget) of the table path at K terms and M nodes: J the
    fewest Taylor terms past T_0 whose dropped remainder is at most eps S,
    and the error budget in units of eps S, S = sum_k |c_k|.

    With x = (pi K / M)(1 + 2^-20), which bounds K |delta| (the cell index
    m = rint(theta M / 2 pi) misses the nearest by at most 2^-24 of a cell
    while |theta M / 2 pi| <= 2^26), and E = sum_{j<=J} x^j / j!:
    - truncation: |sum_{j>J} delta^j T_j| <= S x^{J+1} / ((J+1)! (1 - x/(J+2)));
    - the coefficients c_k (ik)^j / (2 j!): 2j + 1 roundings each, gamma_{2J+1} S E;
    - the inverse FFT of length M: 4 log2(M) eps S E, the grid fold's accounting;
    - delta, three roundings and the split's 2^-78 at most 2 eps pi / M off,
      moves the polynomial by at most its slope S K E times that, 2 eps x S E;
    - Horner in delta over T_J..T_0, two roundings a step: gamma_{2J} S E.
    The sum, widened by 1%, is the budget; with S <= sum_k (|a_k| + |b_k|)
    it certifies the path at N points wherever it is at most 4 (K + ceil(log2 N)).
    """
    x = math.pi * K / M * (1.0 + 2.0**-20)
    J, term, E = 0, 1.0, 1.0  # term = x^J / J!
    while True:
        rest = term * x / (J + 1) / (1.0 - x / (J + 2))
        if rest <= _EPS:
            break
        J += 1
        term *= x / J
        E += term
    p = M.bit_length() - 1
    return J, 1.01 * (rest / _EPS + E * (2 * J + 4 * p + 2 * x + 1))


def _table_plan(K: int, th) -> tuple[int, int] | None:
    """(M, J) of the table path for K terms at the 1-d angles th, or None.

    The path is taken from _TABLE_POINTS points and _TABLE_TERMS terms on,
    where its budget (_table_budget) fits the certificate, every
    |theta M / 2 pi| is below 2^26 and the fixed cost model rates it below
    Horner. M runs over _TABLE_OCTAVES powers of two from the least above
    2K; of those that fit, the one the model rates cheapest is taken. The
    model (_TABLE_COST, _HORNER_COST) prices the tables as a call cost,
    FFT work (J + 1) M log2 M and (J + 1) N gathers and Horner steps, and
    Horner as N points (a cosine and a sine each) and N K multiply-adds.
    """
    N = th.size
    if N < _TABLE_POINTS or K < _TABLE_TERMS:
        return None
    reach = max(-float(th.min()), float(th.max())) / TWO_PI  # max |theta| / 2 pi
    call, fft, row = _TABLE_COST
    point, term = _HORNER_COST
    best, plan = (point + term * K) * N, None
    cert = 4.0 * (K + math.ceil(math.log2(N)))
    p0 = (2 * K).bit_length()  # the least power of two above 2K
    for p in range(p0, p0 + _TABLE_OCTAVES):
        M = 1 << p
        if not reach * M < _TABLE_CELLS:
            break
        J, budget = _table_budget(K, M)
        cost = call + (J + 1) * (fft * M * p + row * N)
        if plan is not None and cost >= best:
            break  # past the cheapest fit, the FFT work only grows
        if budget <= cert and cost < best:
            best, plan = cost, (M, J)
    return plan


def _taylor_tables(c, M: int, J: int) -> np.ndarray:
    """T[j, m] = Re sum_k c_k (ik)^j / j! e^{2 pi i k m / M}, j = 0..J, m = 0..M-1
    (2K < M), by inverse real FFTs (norm="forward") of the spectra
    c_k (ik)^j / (2 j!), c_0 alone in row 0: k^j / (2 j!) as running
    products of k / j from 1/2, i^j exact. The rows go by groups whose
    spectra hold at most 8 _WORK complex entries, all in one FFT call up
    to M = 2^13, so that past the tables the work holds (J + 1) K doubles
    and one group."""
    K = c.size - 1
    half = M // 2 + 1
    group = max(1, 8 * _WORK // half)
    powers = np.empty((J + 1, K))
    powers[0] = 0.5
    np.divide(np.arange(1.0, K + 1.0), np.arange(1.0, J + 1.0)[:, None], out=powers[1:])
    np.multiply.accumulate(powers, axis=0, out=powers)
    turns = np.array([1.0, 1j, -1.0, -1j])
    tables = np.empty((J + 1, M))
    spectra = np.zeros((min(group, J + 1), half), dtype=complex)
    for lo in range(0, J + 1, group):
        hi = min(J + 1, lo + group)
        np.multiply(c[1:] * turns[np.arange(lo, hi) % 4, None], powers[lo:hi], out=spectra[: hi - lo, 1 : K + 1])
        spectra[0, 0] = c[0] if lo == 0 else 0.0
        np.fft.irfft(spectra[: hi - lo], n=M, axis=1, norm="forward", out=tables[lo:hi])
    return tables


def _tabled(c, th, M: int, J: int) -> np.ndarray:
    """Re sum_k c_k e^{ik th} at the 1-d angles th by Taylor tables
    (Anderson & Dahleh, SIAM J. Sci. Comput. 17 (1996)): th = 2 pi m / M +
    delta with m = rint(th M / 2 pi) and delta formed with the split of
    _TWO_PI_PARTS, then sum_j T_j[m mod M] delta^j by Horner. No cosine or
    sine is taken; _table_budget bounds the error. The points go by blocks
    whose gathered table columns hold 2 _POWER_TABLE doubles, the bytes of
    one power table of _horner."""
    tables = _taylor_tables(c, M, J)
    scale = M / TWO_PI
    hi_part, mid_part, lo_part = (part / M for part in _TWO_PI_PARTS)
    out = np.empty(th.size)
    block = 2 * _POWER_TABLE // (J + 1)
    for lo in range(0, th.size, block):
        t = th[lo : lo + block]
        m = t * scale
        np.rint(m, out=m)
        delta = m * hi_part
        np.subtract(t, delta, out=delta)
        work = m * mid_part
        delta -= work
        np.multiply(m, lo_part, out=work)
        delta -= work
        cells = m.astype(np.intp)
        cells &= M - 1
        rows = tables.take(cells, axis=1)
        s = rows[J]
        for j in range(J - 1, 0, -1):
            s *= delta
            s += rows[j]
        s *= delta
        np.add(s, rows[0], out=out[lo : lo + block])
    return out


def _horner(c, z):
    """sum_k c_k z^k at the points of the 1-d array z, by Horner's rule.

    The path follows the number of terms K alone, not the number of
    points. Below _BABY_STEP_TERMS it is plain Horner in z, a loop of
    K + 1 steps. From there on it takes L = floor(sqrt(K)) + 1 baby
    steps (Paterson & Stockmeyer, SIAM J. Comput. 2 (1973)) over chunks
    of points, each small enough that its table z^0..z^{L-1} holds at
    most _POWER_TABLE entries: one matrix product of the coefficient
    blocks with the table gives the block polynomials, and Horner runs
    in z^L over them, so the loop takes about sqrt(K) steps per chunk.
    """
    if c.size - 1 < _BABY_STEP_TERMS:
        return _horner_steps(c, z)
    L = math.isqrt(c.size - 1) + 1
    blocks = np.zeros((-(-c.size // L), L), dtype=complex)
    blocks.flat[: c.size] = c
    chunk = _POWER_TABLE // L
    out = np.empty_like(z)
    for lo in range(0, z.size, chunk):
        zc = z[lo : lo + chunk]
        powers = np.empty((L, zc.size), dtype=complex)
        powers[0] = 1.0
        powers[1] = zc
        for j in range(2, L):
            np.multiply(powers[j - 1], zc, out=powers[j])
        out[lo : lo + chunk] = _horner_steps(blocks @ powers, powers[-1] * zc)
    return out


def _horner_steps(polys, w):
    """sum_j polys[j] w^j by Horner's rule, one step per row of polys, from
    zeros: a start from the top row turns some +0.0 values of a zero law to -0.0."""
    s = np.zeros_like(w)
    for p in polys[::-1]:
        s *= w
        s += p
    return s


@dataclass(frozen=True)
class HarmonicLaw:
    """Truncated Fourier representation of a circular (possibly signed) density.

    tail_bound certifies the dropped remainder in density units; meta
    describes the generating formula. Mass-1 laws have a0 = 1/(2 pi).

    Evaluation at N points (fold-and-FFT on uniform grids, see _trig_sum;
    elsewhere Horner in z = cos theta + i sin theta, the doubles of
    e^{i theta}, plain below _BABY_STEP_TERMS terms and by baby steps
    over chunks of points from there, as K alone decides, see _horner;
    or, from _TABLE_POINTS points and _TABLE_TERMS terms on where it is
    cheaper, Taylor tables read at each point's cell, see _table_plan and
    _tabled; by blocks of points, see _scattered) adds roundoff certified
    apart from the tail:

        |computed - exact| <= 4 (K + ceil(log2 N)) eps sum_{k=0..K} (|a_k| + |b_k|),

    with eps the double machine epsilon and b_0 = 0. For cdf the sum
    runs over the series it evaluates, whose constant term is
    sum_k b_k/k and whose coefficients are -b_k/k and a_k/k, and the
    added a0 theta rounds by at most eps |a0 theta|. The table path is
    taken only where its own error budget (_table_budget: truncation,
    the coefficients' and the FFT's rounding, delta and Horner in delta)
    fits inside this bound.

    On the scattered path a value can differ between a scalar call and an
    array call, and between arrays of other sizes. On Horner's path it
    differs by an ulp (numpy rounds a one-point complex product in its
    scalar loop, and from _BABY_STEP_TERMS terms on a value moves with the
    points sharing its BLAS chunk): on numpy 2.4.6 and OpenBLAS 0.3.31,
    bm_law(0.5) differed from its 40 000-point array in 284 of 1000 scalar
    calls and at 0 of 170 582 points of 2-12 000-point subsets, a K = 47 law
    with sines at 42 of 129 709 (both measured on Horner's path alone).
    Where one call takes the table path and the other Horner's, the two
    differ by up to the certificate above (a scalar always takes Horner's).
    The blocks move no value.

    A law may carry its tail past the K coefficients in closed form
    (lattice, a lattice.LatticeTail, on cosine laws only): it is added in at
    every evaluation, its rounding is part of tail_bound, and the CDF is
    then evaluated on [0, pi] and reflected, F(th) = 1 - F(2 pi - th), so
    its ends are exactly 0 and 1.
    """

    a0: float
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray
    tail_bound: float
    meta: str = ""
    lattice: LatticeTail | None = None

    def __post_init__(self):
        a = np.asarray(self.cos_coeffs, dtype=float)
        b = np.asarray(self.sin_coeffs, dtype=float)
        if a.ndim != 1 or a.shape != b.shape:
            raise DomainError("coefficient arrays must be 1-d and equal length")
        _check_finite(self.a0, "a0")
        _check_finite(a, "cos_coeffs")
        _check_finite(b, "sin_coeffs")
        if not self.tail_bound >= 0.0:
            raise DomainError("tail_bound must be nonnegative")
        if self.lattice is not None and np.any(b):
            raise DomainError("a lattice tail needs a cosine law")
        object.__setattr__(self, "cos_coeffs", a)
        object.__setattr__(self, "sin_coeffs", b)

    @property
    def n_terms(self) -> int:
        return self.cos_coeffs.size

    def density(self, theta):
        """Evaluate the truncated series at theta (scalar or array), 2pi-periodic."""
        _check_finite(theta, "theta")
        if self.lattice is None:
            out = _trig_sum(self.a0, self.cos_coeffs, self.sin_coeffs, theta)
        else:  # the head less the model's own head, then the model's whole sum
            out = _trig_sum(self.a0, self.cos_coeffs - self.lattice.head, self.sin_coeffs, theta)
            out += self.lattice.density(np.reshape(theta, out.shape))
        return float(out[0]) if np.ndim(theta) == 0 else out

    def cdf(self, theta):
        """Termwise antiderivative on [0, 2 pi]: a0 th + sum [a_k sin k th + b_k (1-cos k th)]/k.

        a_k/k and b_k/k are divided out by blocks of modes (_sum_over_k
        and _trig_sum's integrated series), never as K-length arrays; each
        value, and the order of every sum, is the one of a/k and b/k formed
        whole.
        """
        th, least = _cdf_angles(theta)
        th = np.atleast_1d(th)
        if self.lattice is not None:
            r = np.minimum(th, TWO_PI - th)  # exact from th = pi on (Sterbenz)
            half = _trig_sum(0.0, self.cos_coeffs - self.lattice.head, self.sin_coeffs, r, integrated=True)
            half += self.a0 * r
            half += self.lattice.cdf_form(r)
            out = np.where(th > math.pi, 1.0 - half, half)
        else:
            const = _sum_over_k(self.sin_coeffs)
            out = _trig_sum(const, self.cos_coeffs, self.sin_coeffs, th, integrated=True)
            out += self.a0 * th
        if least == 0.0:  # the constant sum b_k/k cancels at th = 0 only up to roundoff
            out[th == 0.0] = 0.0
        return float(out[0]) if np.ndim(theta) == 0 else out


def _sum_over_k(b) -> float:
    """sum_k b_k/k, k = 1..K, in numpy's order for the sum of the array b/k:
    from 0.0, pairwise (halves cut to a multiple of 8), with b/k divided
    out by blocks of at most _WORK entries."""

    def pairwise(lo, hi):
        if hi - lo <= _WORK:
            return float(np.add.reduce(b[lo:hi] / np.arange(lo + 1.0, hi + 1.0), initial=-0.0))
        half = (hi - lo) // 2
        half -= half % 8
        return pairwise(lo, lo + half) + pairwise(lo + half, hi)

    return 0.0 + pairwise(0, b.size)


def certified_cutoff(tail, tol: Tolerance, advice: str) -> int:
    """Smallest K >= 1 with tail(K) <= tol.abs_tol, for a nonincreasing tail.

    Doubles K until the tail certifies, then bisects back. Raises
    ConvergenceError with the caller's advice once K would pass
    MAX_TERMS; the message does not say what K counts, so the advice
    names it where it is not series terms.
    """
    lo, hi = 0, 1  # tail(lo) > tol (or lo = 0), and hi is the next probe
    while tail(hi) > tol.abs_tol:
        if hi >= MAX_TERMS:
            raise ConvergenceError(
                f"the cutoff needs more than {MAX_TERMS} at tol={tol.abs_tol}; {advice}"
            )
        lo, hi = hi, min(2 * hi, MAX_TERMS)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail(mid) > tol.abs_tol:
            lo = mid
        else:
            hi = mid
    return hi


def cosine_law(coeffs, tail, tol: Tolerance, advice: str, meta: str, K: int | None = None, sines=None) -> HarmonicLaw:
    """Mass-1 carrier a0 = 1/(2 pi), a_k = coeffs(k), b_k = sines(k) (0 without sines).

    K = certified_cutoff(tail, tol, advice) unless the caller has it, and
    tail_bound = tail(K).
    coeffs (and sines) map an elementwise mode array to the coefficients;
    they are called on k = 1.0..K by blocks of at most _WORK modes, which
    fill preallocated arrays, so their own work arrays stay one block long.
    """
    if K is None:
        K = certified_cutoff(tail, tol, advice)
    cos_coeffs = np.empty(K)
    sin_coeffs = np.zeros(K) if sines is None else np.empty(K)
    for lo in range(0, K, _WORK):
        hi = min(K, lo + _WORK)
        k = np.arange(lo + 1.0, hi + 1.0)
        cos_coeffs[lo:hi] = coeffs(k)
        if sines is not None:
            sin_coeffs[lo:hi] = sines(k)
    return HarmonicLaw(
        a0=1.0 / TWO_PI,
        cos_coeffs=cos_coeffs,
        sin_coeffs=sin_coeffs,
        tail_bound=tail(K),
        meta=meta,
    )


def scaled_power(c: float, p: int, j: int) -> float:
    """c j^p (c > 0, ints p >= 0, j >= 1), in logs once j^p passes the largest
    double; inf once the logarithm reaches 709."""
    if p * math.log2(j) < 1023.0:
        return float(j) ** p * c
    log_x = p * math.log(j) + math.log(c)
    return math.exp(log_x) if log_x < 709.0 else math.inf


def scaled_powers(c: float, p: int, k: np.ndarray) -> np.ndarray:
    """scaled_power at the float modes k (int p >= 1), as k ** p * c where k^p is a double."""
    big = k >= 2.0 ** (1023.0 / p)
    if not big.any():
        return k**p * c
    with np.errstate(over="ignore"):
        return np.where(big, np.exp(p * np.log(k) + math.log(c)), k**p * c)


def exp_power_tail(c: float, p: int, K: int) -> float:
    """Bound on sum_{k>K} e^{-c k^p}/pi, c > 0 and int p >= 1 (inf where nothing certifies).

    k^p is convex, so k^p >= j^p + p j^{p-1} (k - j), j = K + 1, and the
    sum is below the geometric e^{-c j^p} / (pi (1 - e^{-c p j^{p-1}})),
    which it equals at p = 1.
    """
    j = K + 1
    gap = -math.expm1(-scaled_power(c * p, p - 1, j))
    return math.exp(-scaled_power(c, p, j)) / (math.pi * gap) if gap > 0.0 else math.inf


def fourier_coeffs(density, K: int, n_nodes: int | None = None):
    """Project a circular density onto cos/sin modes 1..K.

    a_k = (1/pi) int_0^{2pi} density(th) cos(k th) dth, b_k likewise.
    Uses the M-node rectangle rule (spectrally accurate for smooth
    periodic integrands) through an rfft; M defaults to max(256, 64 K).
    Returns (a, b) arrays of length K, index k-1 <-> mode k.
    """
    K = _check_count(K, "K")
    M = _check_count(n_nodes, "n_nodes") if n_nodes is not None else max(256, 64 * K)
    if M < 2 * K + 2:
        raise DomainError("need more than 2K nodes to resolve mode K")
    th = _uniform_grid(M)
    try:
        vals = np.asarray(density(th), dtype=float)
        if vals.shape != th.shape:
            raise TypeError
    except TypeError:
        vals = np.array([float(density(t)) for t in th])
    _check_finite(vals, "density values")
    spec = np.fft.rfft(vals)
    a = 2.0 * spec[1 : K + 1].real / M
    b = -2.0 * spec[1 : K + 1].imag / M
    return a, b


def sample(law: HarmonicLaw, rng, size: int | None = None):
    """Rejection-sample a nonnegative harmonic law.

    The law is screened for negativity on a 4096-point grid (finer when
    the law carries more harmonics): a law whose grid minimum lies below
    -(tail_bound + the grid's rounding certificate) is certainly signed
    and refused. A shallower dip is within the certificate of a
    nonnegative law, and there the sampled density is max(f, 0). The
    envelope is the grid maximum plus the certified tail bound plus a
    between-nodes oscillation margin.

    A squeeze decides most proposals from the grid alone: the screening
    values of a proposal's cell, widened by the oscillation margin and
    the rounding certificates, bound the density there, so only the
    proposals between those bounds evaluate the series. Every decision,
    and so every draw, is the one a full evaluation of the batch makes.

    A law with a closed-form tail (lattice) adds the tail's Lipschitz bound
    to the between-nodes margin and its rounding, twice, to the squeeze and
    to the test that hands a close call to the whole batch; a tail with no
    slope bound (a CDF-level carrier's) is refused with DomainError.

    rng is an RngStream (or any object with a .generator Generator, or a
    numpy Generator itself). With size=None a single angle is returned.
    A law that wraps its carrier (a .representation HarmonicLaw, as
    BmLaw does) is sampled through that carrier.
    """
    law = getattr(law, "representation", law)
    gen = getattr(rng, "generator", rng)
    slope = tail_rounding = 0.0
    if getattr(law, "lattice", None) is not None:
        slope, tail_rounding = law.lattice.slope, law.lattice.rounding
        if not slope < math.inf:
            raise DomainError("the law's closed-form tail has no slope bound; sampling it is refused")
    grid_n = max(4096, 4 * law.n_terms)
    grid = _uniform_grid(grid_n)
    vals = law.density(grid)
    coeff_sum = abs(law.a0) + float(np.abs(law.cos_coeffs).sum() + np.abs(law.sin_coeffs).sum())

    def rounding(n):
        return 4.0 * (law.n_terms + math.ceil(math.log2(n))) * _EPS * coeff_sum

    if float(vals.min()) < -(law.tail_bound + rounding(grid_n)):
        raise SignedLawError(
            "density is negative on the screening grid beyond its tail and rounding "
            "certificates; sampling a signed law is refused"
        )
    k = np.arange(1, law.n_terms + 1)
    overshoot = (math.pi / grid_n) * (
        float((k * (np.abs(law.cos_coeffs) + np.abs(law.sin_coeffs))).sum()) + slope
    )
    envelope = float(vals.max()) + overshoot + law.tail_bound + 1e-12
    # squeeze: on the cell between two grid nodes the computed density lies
    # within overshoot, the grid's and the batch's rounding certificates and
    # 4 eps coeff_sum (the rounding of the bounds) of the nodes' values
    nxt = np.roll(vals, -1)
    cell_lo, cell_hi = np.minimum(vals, nxt), np.maximum(vals, nxt)
    want = 1 if size is None else _check_count(size, "size")
    out = np.empty(want)
    got = 0
    # expected acceptance rate is mass / (2 pi envelope) = 1 / (2 pi envelope)
    while got < want:
        batch = max(4096, int(1.3 * (want - got) * TWO_PI * envelope) + 64)
        theta = gen.uniform(0.0, TWO_PI, batch)
        height = gen.uniform(0.0, envelope, batch)
        margin = overshoot + rounding(grid_n) + rounding(batch) + 4.0 * _EPS * coeff_sum + 2.0 * tail_rounding
        cell = (theta * (grid_n / TWO_PI)).astype(np.intp)
        # widened on the grid_n-entry tables, not on batch-long gathers: the same
        # doubles; every kept draw is under the high bound, so xor leaves the unsure
        keep = height <= (cell_lo - margin).take(cell, mode="clip")
        unsure = np.flatnonzero(keep ^ (height <= (cell_hi + margin).take(cell, mode="clip")))
        if unsure.size:
            dens = law.density(theta[unsure])
            if np.any(np.abs(height[unsure] - dens) <= 2.0 * rounding(batch) + 2.0 * tail_rounding):
                # the subset's and the batch's roundings could call this
                # draw differently: decide the batch as evaluated whole
                keep = height <= law.density(theta)
            else:
                keep[unsure] = height[unsure] <= dens
        accept = np.flatnonzero(keep)[: want - got]
        theta.take(accept, out=out[got : got + accept.size])
        got += accept.size
    return float(out[0]) if size is None else out

"""Truncated Fourier carrier for circular laws.

Every circular density in the package is carried as a HarmonicLaw:
density(theta) = a0 + sum_{k=1..K} a_k cos(k theta) + b_k sin(k theta),
with a certified bound on the dropped tail. This module owns evaluation,
the termwise CDF, the truncation rule shared by every series law,
numerical Fourier projection, and rejection sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, SignedLawError, _check_count, _check_finite
from .special import Tolerance

TWO_PI = 2.0 * math.pi

# largest z^m table (points x baby steps) the scattered path builds; past
# it the Python loop of plain Horner is spread over enough points
_POWER_TABLE = 1 << 16


def _grid_period(th) -> int:
    """Number M of periodic nodes when th is a uniform grid, else 0.

    The grids are arange(M) * (2 pi / M) and linspace(0, 2 pi, M + 1)
    (M nodes plus the 2 pi endpoint), matched bit for bit.
    """
    N = th.size
    if th.ndim != 1 or N == 0 or th[0] != 0.0:
        return 0
    if np.array_equal(th, np.arange(N) * (TWO_PI / N)):
        return N
    if N > 1 and np.array_equal(th, np.linspace(0.0, TWO_PI, N)):
        return N - 1
    return 0


def _trig_sum(a0, cos_coeffs, sin_coeffs, thetas):
    """a0 + sum_k (a_k cos k th + b_k sin k th) at the angles thetas.

    The sum is Re sum_k c_k z^k with c_0 = a0, c_k = a_k - i b_k and
    z = e^{i th}. On a uniform grid of M nodes the modes are folded by
    k mod M (exact aliasing for a trigonometric polynomial) and summed
    by one length-M FFT; anywhere else by complex Horner in z. Neither
    path evaluates a transcendental per term. Returns an array of th's
    shape, at least 1-d.
    """
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    c = np.empty(cos_coeffs.size + 1, dtype=complex)
    c[0] = a0
    c[1:].real = cos_coeffs
    c[1:].imag = -sin_coeffs
    M = _grid_period(th)
    if M:
        folded = np.zeros(-(-c.size // M) * M, dtype=complex)
        folded[: c.size] = c
        vals = np.fft.ifft(folded.reshape(-1, M).sum(axis=0), norm="forward").real
        return np.concatenate([vals, vals[: th.size - M]])
    return _horner(c, np.exp(1j * th.ravel())).real.reshape(th.shape)


def _horner(c, z):
    """sum_k c_k z^k at the points of the 1-d array z, by Horner's rule.

    With L = floor(sqrt(K)) + 1 baby steps, one matrix product of the
    coefficient blocks with z^0..z^{L-1} gives the block polynomials and
    Horner runs in z^L over them, so the loop takes about sqrt(K) steps.
    Plain Horner (a loop of K + 1 steps) takes over once the power table
    would pass _POWER_TABLE entries.
    """
    L = math.isqrt(c.size - 1) + 1
    if z.size * L > _POWER_TABLE:
        polys, w = c[:, None], z
    else:
        powers = np.ones((z.size, L), dtype=complex)
        powers[:, 1:] = z[:, None]
        np.cumprod(powers, axis=1, out=powers)
        blocks = np.zeros(-(-c.size // L) * L, dtype=complex)
        blocks[: c.size] = c
        polys = blocks.reshape(-1, L) @ powers.T
        w = powers[:, -1] * z
    s = np.zeros_like(z)
    for p in polys[::-1]:
        s *= w
        s += p
    return s


@dataclass(frozen=True)
class HarmonicLaw:
    """Truncated Fourier representation of a circular (possibly signed) density.

    tail_bound certifies the dropped remainder in density units; meta
    describes the generating formula. Mass-1 laws have a0 = 1/(2 pi).

    Evaluation at N points (fold-and-FFT on uniform grids, Horner in
    e^{i theta} elsewhere; see _trig_sum) adds roundoff that is certified
    apart from the tail:

        |computed - exact| <= 4 (K + ceil(log2 N)) eps sum_{k=0..K} (|a_k| + |b_k|),

    with eps the double machine epsilon and b_0 = 0. For cdf the sum
    runs over the series it evaluates, whose constant term is
    sum_k b_k/k and whose coefficients are -b_k/k and a_k/k, and the
    added a0 theta rounds by at most eps |a0 theta|.
    """

    a0: float
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray
    tail_bound: float
    meta: str = ""

    def __post_init__(self):
        a = np.asarray(self.cos_coeffs, dtype=float)
        b = np.asarray(self.sin_coeffs, dtype=float)
        if a.ndim != 1 or a.shape != b.shape:
            raise DomainError("coefficient arrays must be 1-d and equal length")
        if not self.tail_bound >= 0.0:
            raise DomainError("tail_bound must be nonnegative")
        object.__setattr__(self, "cos_coeffs", a)
        object.__setattr__(self, "sin_coeffs", b)

    @property
    def n_terms(self) -> int:
        return self.cos_coeffs.size

    def density(self, theta):
        """Evaluate the truncated series at theta (scalar or array), 2pi-periodic."""
        _check_finite(theta, "theta")
        out = _trig_sum(self.a0, self.cos_coeffs, self.sin_coeffs, theta)
        return float(out[0]) if np.isscalar(theta) else out

    def cdf(self, theta):
        """Termwise antiderivative on [0, 2 pi]: a0 th + sum [a_k sin k th + b_k (1-cos k th)]/k."""
        _check_finite(theta, "theta")
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        if np.any(th < -1e-9) or np.any(th > TWO_PI + 1e-9):
            raise DomainError("cdf argument must lie in [0, 2 pi]")
        th = np.clip(th, 0.0, TWO_PI)
        k = np.arange(1.0, self.n_terms + 1.0)
        a, b = self.cos_coeffs / k, self.sin_coeffs / k
        out = self.a0 * th + _trig_sum(b.sum(), -b, a, th)
        # the constant sum b_k/k cancels at th = 0 only up to roundoff
        out[th == 0.0] = 0.0
        return float(out[0]) if np.isscalar(theta) else out


def certified_cutoff(tail, tol: Tolerance, advice: str) -> int:
    """Smallest K >= 1 with tail(K) <= tol.abs_tol, for a nonincreasing tail.

    Doubles K until the tail certifies, then bisects back. Raises
    ConvergenceError with the caller's advice once K would pass
    tol.max_terms.
    """
    lo, hi = 0, 1  # tail(lo) > tol (or lo = 0), and hi is the next probe
    while tail(hi) > tol.abs_tol:
        if hi >= tol.max_terms:
            raise ConvergenceError(
                f"series needs more than max_terms = {tol.max_terms} terms "
                f"for tol={tol.abs_tol}; {advice}"
            )
        lo, hi = hi, min(2 * hi, tol.max_terms)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail(mid) > tol.abs_tol:
            lo = mid
        else:
            hi = mid
    return hi


def cosine_law(coeffs, tail, tol: Tolerance, advice: str, meta: str) -> HarmonicLaw:
    """Mass-1 cosine carrier a0 = 1/(2 pi), a_k = coeffs(k), b_k = 0.

    K = certified_cutoff(tail, tol, advice); coeffs maps the mode array
    k = 1.0..K to the cosine coefficients, and tail_bound = tail(K).
    """
    K = certified_cutoff(tail, tol, advice)
    return HarmonicLaw(
        a0=1.0 / TWO_PI,
        cos_coeffs=coeffs(np.arange(1.0, K + 1.0)),
        sin_coeffs=np.zeros(K),
        tail_bound=tail(K),
        meta=meta,
    )


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
    th = np.arange(M) * (TWO_PI / M)
    try:
        vals = np.asarray(density(th), dtype=float)
        if vals.shape != th.shape:
            raise TypeError
    except TypeError:
        vals = np.array([float(density(t)) for t in th])
    spec = np.fft.rfft(vals)
    a = 2.0 * spec[1 : K + 1].real / M
    b = -2.0 * spec[1 : K + 1].imag / M
    return a, b


def sample(law: HarmonicLaw, rng, size: int | None = None):
    """Rejection-sample a nonnegative harmonic law.

    The law is screened for negativity on a 4096-point grid (finer when
    the law carries more harmonics); a signed law is refused. The
    envelope is the grid maximum plus the certified tail bound plus a
    between-nodes oscillation margin.

    rng is an RngStream (or any object with a .generator Generator, or a
    numpy Generator itself). With size=None a single angle is returned.
    A law that wraps its carrier (a .representation HarmonicLaw, as
    BmLaw does) is sampled through that carrier.
    """
    law = getattr(law, "representation", law)
    gen = getattr(rng, "generator", rng)
    grid_n = max(4096, 4 * law.n_terms)
    grid = np.arange(grid_n) * (TWO_PI / grid_n)
    vals = law.density(grid)
    if np.any(vals < 0.0):
        raise SignedLawError(
            "density is negative on the screening grid; sampling a signed law is refused"
        )
    k = np.arange(1, law.n_terms + 1)
    overshoot = (math.pi / grid_n) * float(
        (k * (np.abs(law.cos_coeffs) + np.abs(law.sin_coeffs))).sum()
    )
    envelope = float(vals.max()) + overshoot + law.tail_bound + 1e-12
    want = 1 if size is None else _check_count(size, "size")
    out = np.empty(want)
    got = 0
    # expected acceptance rate is mass / (2 pi envelope) = 1 / (2 pi envelope)
    while got < want:
        batch = max(4096, int(1.3 * (want - got) * TWO_PI * envelope) + 64)
        theta = gen.uniform(0.0, TWO_PI, batch)
        height = gen.uniform(0.0, envelope, batch)
        accept = theta[height <= law.density(theta)]
        take = min(accept.size, want - got)
        out[got : got + take] = accept[:take]
        got += take
    return float(out[0]) if size is None else out

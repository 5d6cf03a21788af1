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

from .errors import ConvergenceError, DomainError, SignedLawError
from .special import Tolerance

TWO_PI = 2.0 * math.pi

# k*theta blocks are chunked to keep peak memory bounded for long laws
_CHUNK_FLOPS = 1 << 23


def _trig_sum(a0, cos_coeffs, sin_coeffs, thetas, weight_inv_k=False):
    """a0*w0 + sum_k (a_k cos k th + b_k sin k th), chunked over k.

    With weight_inv_k the terms become [a_k sin k th + b_k (1 - cos k th)]/k
    and the constant term a0*thetas, i.e. the termwise antiderivative.
    """
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    K = cos_coeffs.size
    out = (a0 * th) if weight_inv_k else np.full_like(th, a0)
    if K == 0:
        return out
    step = max(1, _CHUNK_FLOPS // max(1, th.size))
    for lo in range(0, K, step):
        hi = min(K, lo + step)
        k = np.arange(lo + 1, hi + 1, dtype=float)
        ang = np.multiply.outer(th, k)
        if weight_inv_k:
            out += (np.sin(ang) @ (cos_coeffs[lo:hi] / k)
                    + (1.0 - np.cos(ang)) @ (sin_coeffs[lo:hi] / k))
        else:
            out += np.cos(ang) @ cos_coeffs[lo:hi] + np.sin(ang) @ sin_coeffs[lo:hi]
    return out


@dataclass(frozen=True)
class HarmonicLaw:
    """Truncated Fourier representation of a circular (possibly signed) density.

    tail_bound certifies the dropped remainder in density units; meta
    describes the generating formula. Mass-1 laws have a0 = 1/(2 pi).
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
        out = _trig_sum(self.a0, self.cos_coeffs, self.sin_coeffs, theta)
        return float(out[0]) if np.isscalar(theta) else out

    def cdf(self, theta):
        """Termwise antiderivative on [0, 2 pi]: a0 th + sum [a_k sin k th + b_k (1-cos k th)]/k."""
        th = np.atleast_1d(np.asarray(theta, dtype=float))
        if np.any(th < -1e-9) or np.any(th > TWO_PI + 1e-9):
            raise DomainError("cdf argument must lie in [0, 2 pi]")
        th = np.clip(th, 0.0, TWO_PI)
        out = _trig_sum(self.a0, self.cos_coeffs, self.sin_coeffs, th, weight_inv_k=True)
        return float(out[0]) if np.isscalar(theta) else out


@dataclass(frozen=True)
class GridDensity:
    """Uniform angular grid of density or CDF values, the CSV-facing product."""

    thetas: np.ndarray
    values: np.ndarray
    kind: str
    law_meta: str = ""

    def __post_init__(self):
        th = np.asarray(self.thetas, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if th.size < 2 or th.size != vals.size:
            raise DomainError("grid needs >= 2 points and matching values")
        if th[0] != 0.0 or np.any(np.diff(th) <= 0.0):
            raise DomainError("grid must start at 0 and increase strictly")
        if self.kind not in ("density", "cdf"):
            raise DomainError("kind must be 'density' or 'cdf'")
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "values", vals)


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
    if K < 1:
        raise DomainError("K must be a positive integer")
    M = int(n_nodes) if n_nodes is not None else max(256, 64 * K)
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
    """
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
    want = 1 if size is None else int(size)
    if want < 1:
        raise DomainError("size must be positive")
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

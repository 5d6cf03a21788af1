"""Monte Carlo engine: the probabilistic route to every analytic law here.

One-sided stable subordinators (Kanter transformation), their inverses
(inverse-scaling identity), wrapped Brownian motion, planar-Brownian
exit angles, and Kolmogorov-Smirnov comparison utilities. Sampling is
deterministic per (seed, stream_id); distinct stream ids are
statistically independent substreams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; here it loads at import, not in a job)

from .errors import ConvergenceError, DomainError, _check_count, _check_finite, _check_unit
from .harmonic import TWO_PI, _wrap

__all__ = [
    "RngStream",
    "sample_stable_subordinator",
    "sample_inverse_subordinator",
    "sample_wrapped_bm",
    "simulate_planar_hit",
    "ks_statistic",
]


@dataclass(frozen=True, eq=False)
class RngStream:
    """Reproducible named substream of randomness.

    (seed, stream_id) fixes the sequence exactly; distinct stream ids
    spawn independent child sequences of the same seed. The generator
    is created once and advances as it is consumed, so a stream must
    not be shared between concurrent samplers. For the same reason a
    stream equals, and hashes as, only itself.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or not 0 <= v < 2**64:
                raise DomainError(f"{name} must be a nonnegative 64-bit integer")
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        object.__setattr__(self, "_gen", np.random.Generator(np.random.PCG64(ss)))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


def _generator(rng):
    return getattr(rng, "generator", rng)


def _check_size(size):
    return 1 if size is None else _check_count(size, "size")


def _check_time(t):
    """Refuse a time (scalar or array) that is not finite and positive."""
    _check_finite(t, "t")
    if np.any(np.asarray(t) <= 0.0):
        raise DomainError("t must be positive")


def sample_stable_subordinator(nu: float, t: float, rng, size: int | None = None):
    """Draw H(t) with Laplace transform E e^{-lam H(t)} = e^{-t lam^nu}.

    Kanter's transformation: with U ~ Uniform(0,1) and W ~ Exp(1),

        A(u) = sin((1-nu) pi u) sin(nu pi u)^{nu/(1-nu)} / sin(pi u)^{1/(1-nu)},
        H(1) = (A(U)/W)^{(1-nu)/nu},

    formed in logs, so that no power of A over- or underflows near nu = 1
    (where A itself is 0/0), and time enters through stable scaling H(t) = t^{1/nu} H(1).
    nu = 1 is the degenerate subordinator H(t) = t, drawn exactly. A
    draw past the float64 range (a heavy tail at small nu) comes back as
    inf, without a numpy warning; sample_wrapped_bm refuses such a time
    with DomainError.
    """
    _check_unit(nu, "nu")
    _check_time(t)
    n = _check_size(size)
    try:
        scale = t ** (1.0 / nu)
    except OverflowError:
        raise DomainError("t^(1/nu) overflows float64") from None
    if nu == 1.0:
        out = np.full(n, float(t))
        return float(out[0]) if size is None else out
    gen = _generator(rng)
    # U at exactly 0 or 1 would 0/0 the transform; one clipped ulp is harmless
    U = np.clip(gen.uniform(0.0, 1.0, n), 1e-16, 1.0 - 1e-16)
    W = gen.standard_exponential(n)
    # log H(1) = log sin(nu pi U) - log sin(pi U) / nu + ((1-nu)/nu) log(sin((1-nu) pi U) / W)
    log_h = (
        np.log(np.sin(nu * math.pi * U))
        - np.log(np.sin(math.pi * U)) / nu
        + ((1.0 - nu) / nu) * np.log(np.sin((1.0 - nu) * math.pi * U) / W)
    )
    # small nu puts a large power on A/W; a draw past float64 comes back inf
    with np.errstate(over="ignore"):
        out = scale * np.exp(log_h)
    return float(out[0]) if size is None else out


def sample_inverse_subordinator(nu: float, t: float, rng, size: int | None = None):
    """Draw L(t) = inf{s > 0 : H(s) >= t} via L(t) =law (t/H(1))^nu.

    E e^{-g L(t)} is the Mittag-Leffler function E_nu(-g t^nu); nu = 1
    degenerates to L(t) = t exactly.
    """
    _check_time(t)
    h1 = sample_stable_subordinator(nu, 1.0, rng, size=size)
    return (t / h1) ** nu


def sample_wrapped_bm(t, rng, size: int | None = None):
    """Normal(0, t) reduced mod 2 pi into [0, 2 pi).

    t may be an array of per-draw times (one angle per entry), which is
    how subordinated laws B(H(t)) are sampled.
    """
    tv = np.asarray(t, dtype=float)
    _check_time(tv)
    gen = _generator(rng)
    if tv.ndim == 0:
        n = _check_size(size)
        out = _wrap(math.sqrt(float(tv)) * gen.standard_normal(n))
        return float(out[0]) if size is None else out
    if size is not None and _check_size(size) != tv.size:
        raise DomainError("size must match the length of the time array")
    return _wrap(np.sqrt(tv) * gen.standard_normal(tv.size))


def simulate_planar_hit(
    start_radius: float,
    rng,
    step: float = 1e-3,
    size: int | None = None,
    max_steps: int | None = None,
):
    """Exit angle of planar Brownian motion started at (r, 0) in the unit disk.

    Walk-on-spheres (Muller, Ann. Math. Statist. 27 (1956)): Brownian
    motion from p first meets the circle of radius 1 - |p| about p at a
    uniform point, so each round jumps every live path there. A path
    stops at its first point within step of the unit circle, a start
    already there before any draw, and returns that point's angle in
    [0, 2 pi), off the exit angle by O(step). Paths take ~log(1/step)
    rounds; past max_steps rounds (default 400/step) the walk raises
    ConvergenceError. max_steps decides only when to give up, so it
    never changes the draws of a walk that finishes. step lies in (0, 1].
    """
    r0 = float(start_radius)
    if not 0.0 < r0 < 1.0:
        raise DomainError("start_radius must lie in (0, 1)")
    if not 0.0 < step <= 1.0:
        raise DomainError("step must lie in (0, 1]")
    n = _check_size(size)
    if max_steps is None:
        if 400.0 / step == math.inf:
            raise DomainError("step is too small: the default max_steps, 400/step, overflows")
        cap = int(400.0 / step) + 1
    else:
        cap = _check_count(max_steps, "max_steps")
    p = np.full(n, complex(r0))
    out = np.empty(n)
    live = np.arange(n)
    for _ in range(cap + 1):
        rho = 1.0 - np.abs(p)
        stop = rho <= step
        out[live[stop]] = _wrap(np.angle(p[stop]))
        live, p, rho = live[~stop], p[~stop], rho[~stop]
        if not live.size:
            return float(out[0]) if size is None else out
        p = p + rho * np.exp(1j * _generator(rng).uniform(0.0, TWO_PI, live.size))
    raise ConvergenceError(
        f"{live.size} paths still inside the disk after {cap} rounds; "
        "increase max_steps or step"
    )


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov sup-distance.

    D = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) over the sorted
    sample; cdf must be callable on arrays and monotone on [0, 2 pi).
    (i-1)/n is i/n read one place back (0 first): the same divisions, so the same D.
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if n < 100:
        raise DomainError("need at least 100 samples")
    _check_finite((x[0], x[-1]), "samples")  # NaN sorts last
    F = np.asarray(cdf(x), dtype=float)
    _check_finite((F.min(), F.max()), "cdf values")
    gap = np.subtract(F[1:], F[:-1])
    if gap.min() < -1e-12:
        raise DomainError("cdf is not monotone on the sample range")
    upper = np.arange(1.0, n + 1.0)
    upper /= n
    lower = max(float(F[0]), float(np.subtract(F[1:], upper[:-1], out=gap).max()))  # F - (i-1)/n
    upper -= F
    return float(max(upper.max(), lower))

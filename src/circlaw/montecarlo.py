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

from .errors import ConvergenceError, DomainError, _check_count, _check_finite
from .harmonic import TWO_PI

__all__ = [
    "RngStream",
    "sample_stable_subordinator",
    "sample_inverse_subordinator",
    "sample_wrapped_bm",
    "simulate_planar_hit",
    "ks_statistic",
]

# points (steps x live paths) one turn of the planar walk draws; a turn
# takes at least 8 steps, so numpy's fixed cost per call is paid once
# per block of steps rather than once per step
_WALK_BLOCK = 1 << 14


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

    and time enters through stable scaling H(t) = t^{1/nu} H(1).
    nu = 1 is the degenerate subordinator H(t) = t, drawn exactly.
    """
    if not 0.0 < nu <= 1.0:
        raise DomainError("nu must lie in (0, 1]")
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
    A = (
        np.sin((1.0 - nu) * math.pi * U)
        * np.sin(nu * math.pi * U) ** (nu / (1.0 - nu))
        / np.sin(math.pi * U) ** (1.0 / (1.0 - nu))
    )
    out = scale * (A / W) ** ((1.0 - nu) / nu)
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
        out = np.mod(math.sqrt(float(tv)) * gen.standard_normal(n), TWO_PI)
        return float(out[0]) if size is None else out
    if size is not None and _check_size(size) != tv.size:
        raise DomainError("size must match the length of the time array")
    return np.mod(np.sqrt(tv) * gen.standard_normal(tv.size), TWO_PI)


def simulate_planar_hit(
    start_radius: float,
    rng,
    step: float = 1e-3,
    size: int | None = None,
    max_steps: int | None = None,
):
    """Exit angle of planar Brownian motion started at (r, 0) in the unit disk.

    Euler walk with increments sqrt(step) N(0, I_2); the step that first
    lands outside is cut back to the circle by solving |p + lam d| = 1
    for lam in (0, 1] (first-order crossing interpolation). Angles are
    returned in [0, 2 pi). Expected step count is about (1 - r^2)/(2 step);
    the walk aborts with ConvergenceError past max_steps
    (default 400/step) rather than looping on a pathological step choice.

    The walk is time-blocked: each turn draws the increments of
    T = max(8, _WALK_BLOCK // m) steps for the m live paths at once, as
    one (T, m, 2) array, and sums them from the current positions along
    the step axis, so every position is the same sum, in the same order,
    as in a walk of one step per turn. Each path's first outside step is
    cut back as above and the paths still inside go on from the block's
    last position. The exit law is therefore the per-step Euler walk's;
    only the assignment of normals to steps differs. max_steps decides
    only when to give up (exits past it are ignored), so it never
    changes the draws of a walk that finishes. step must lie in (0, 1].
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
    gen = _generator(rng)
    pos = np.zeros((n, 2))
    pos[:, 0] = r0
    out = np.empty(n)
    active = np.arange(n)
    sq = math.sqrt(step)
    done = 0
    while active.size and done < cap:
        m = active.size
        steps = max(8, _WALK_BLOCK // m)
        # w[0] holds the current positions and w[1:] the block's increments,
        # so z[k] = w[0] + w[1] + ... + w[k] is the position after k steps
        w = np.empty((steps + 1, m, 2))
        w[0] = pos
        d = gen.standard_normal(out=w[1:])
        d *= sq
        z = np.cumsum(w, axis=0)
        x, y = z[1:, :, 0], z[1:, :, 1]
        hit = x * x + y * y >= 1.0
        j = np.flatnonzero(hit.any(axis=0))
        k = hit[:, j].argmax(axis=0)
        # path j leaves on step done + k + 1; exits past the cap are ignored
        keep = k < cap - done
        j, k = j[keep], k[keep]
        p = z[k, j]
        dd = d[k, j]
        pd = (p * dd).sum(axis=1)
        d2 = (dd * dd).sum(axis=1)
        p2 = (p * p).sum(axis=1)
        lam = (-pd + np.sqrt(pd * pd + d2 * (1.0 - p2))) / d2
        exit_pt = p + lam[:, None] * dd
        out[active[j]] = np.mod(np.arctan2(exit_pt[:, 1], exit_pt[:, 0]), TWO_PI)
        inside = np.ones(m, dtype=bool)
        inside[j] = False
        pos = z[-1, inside]
        active = active[inside]
        done += steps
    if active.size:
        raise ConvergenceError(
            f"{active.size} paths still inside the disk after {cap} steps; "
            "increase max_steps or decrease step"
        )
    return float(out[0]) if size is None else out


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov sup-distance.

    D = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) over the sorted
    sample; cdf must be callable on arrays and monotone on [0, 2 pi).
    """
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if n < 100:
        raise DomainError("need at least 100 samples")
    _check_finite(x, "samples")
    F = np.asarray(cdf(x), dtype=float)
    _check_finite(F, "cdf values")
    if np.any(np.diff(F) < -1e-12):
        raise DomainError("cdf is not monotone on the sample range")
    i = np.arange(1, n + 1, dtype=float)
    return float(max(np.max(i / n - F), np.max(F - (i - 1.0) / n)))

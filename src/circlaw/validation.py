"""Self-check suite behind ``circlaw validate``.

Fourteen numbered criteria (letters split a criterion whose parts carry
different thresholds), each reduced to one measured number against one
pinned threshold. ``_CRITERIA`` is the one table of them, in report
order. Monte Carlo criteria draw from dedicated, fixed streams so a
report is a pure function of (seed, tol); the determinism criterion
re-runs every seeded criterion on fresh identically-seeded streams and
byte-compares the serialized values.
"""

import json
import math
from dataclasses import asdict, dataclass
from operator import eq, le, lt

import numpy as np

from .brownian import (
    bm_density_wrapped,
    bm_first_passage_density,
    bm_law,
    bm_maxdist_cdf,
    bm_quadrant_prob,
)
from .fractional import (
    space_fractional_density,
    space_fractional_half_closed,
    space_fractional_law,
    space_time_fractional_cdf,
    time_fractional_law,
    wrapped_stable_density,
)
from .errors import ConvergenceError
from .harmonic import TWO_PI, fourier_coeffs
from .line import _gauss_legendre
from .kernels import (
    even_kernel_cdf,
    even_kernel_density,
    even_kernel_law,
    even_quadrant_prob,
    kernel_limit_gap,
    odd_half_circle_prob,
    odd_kernel_cdf,
    odd_kernel_density,
    odd_kernel_law,
    wrapped_skew_cauchy_density,
)
from .montecarlo import (
    RngStream,
    ks_statistic,
    sample_inverse_subordinator,
    sample_stable_subordinator,
    sample_wrapped_bm,
    simulate_planar_hit,
)
from .pseudo import (
    even_circle_density,
    even_circle_density_wrapped,
    even_circle_law,
    min_value,
    odd_circle_atoms,
    odd_circle_density_wrapped,
    positivity_time,
)
from .special import Tolerance, mittag_leffler

__all__ = ["CriterionResult", "run_suite", "report_json", "DEFAULT_SEED", "GROUPS"]

DEFAULT_SEED = 314159

# order-4 positivity onset, frozen at first release; 2 ulps (2.2e-16) above
# the correctly rounded root 0.6931166485360705 that positivity_time returns
T_BAR_ORDER4 = 0.6931166485360707

GRID64 = np.arange(64) * (TWO_PI / 64.0)


@dataclass(frozen=True)
class CriterionResult:
    id: str
    group: str
    description: str
    measured: float
    threshold: float
    passed: bool


class _Run:
    """One run_suite call: its seed and the measurements made so far.
    ``once`` makes a measurement (a function of the run) on first use
    and keeps it, so each costs at most one evaluation per run."""

    def __init__(self, seed):
        self.seed = seed
        self._kept = {}

    def once(self, measure):
        if measure not in self._kept:
            self._kept[measure] = measure(self)
        return self._kept[measure]


def _c1(run):
    tol = Tolerance(abs_tol=1e-13)
    worst = 0.0
    for t in (0.25, 1.0, 4.0):
        diff = even_kernel_law(t, tol).density(GRID64) - even_kernel_density(GRID64, t)
        worst = max(worst, float(np.max(np.abs(diff))))
        for n in (1, 2, 5):
            diff = odd_kernel_law(n, t, tol).density(GRID64) - odd_kernel_density(n, GRID64, t)
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def _c2(run):
    worst = 0.0
    for n in (1, 2, 3):
        for t in (0.3, 1.0, 3.0):
            spectral = even_circle_law(n, t).density(GRID64)
            wrapped = even_circle_density_wrapped(n, GRID64, t)
            worst = max(worst, float(np.max(np.abs(spectral - wrapped))))
    return worst


def _c3(run):
    law = even_circle_law(2, 1.0, Tolerance(abs_tol=1e-13))
    a, b = fourier_coeffs(law.density, 5, 512)
    k = np.arange(1.0, 6.0)
    want = np.exp(-(k**4)) / math.pi
    return float(max(np.max(np.abs(a - want)), np.max(np.abs(b))))


def _c4a(run):
    xs = (0.1, 0.5, 1.0, 2.0, 5.0)
    return max(
        abs(mittag_leffler(0.5, -x) - math.exp(x * x) * math.erfc(x)) for x in xs
    )


def _c4b(run):
    xs = (0.1, 0.5, 1.0, 2.0, 5.0)
    return max(abs(mittag_leffler(1.0, -x) - math.exp(-x)) for x in xs)


def _c5a(run):
    frac = time_fractional_law(2, 1.0, 0.7)
    plain = even_circle_law(2, 0.7)
    same = (
        frac.a0 == plain.a0
        and np.array_equal(frac.cos_coeffs, plain.cos_coeffs)
        and np.array_equal(frac.sin_coeffs, plain.sin_coeffs)
    )
    return 0.0 if same else 1.0


def _c5b(run):
    tol = Tolerance(abs_tol=1e-13)
    series = space_fractional_law(1.0, 1.0, tol).density(GRID64)
    diff = series - bm_density_wrapped(GRID64, 1.0, tol)
    return float(np.max(np.abs(diff)))


def _c5c(run):
    tol = Tolerance(abs_tol=1e-12)
    worst = 0.0
    for t in (0.5, 1.0):
        diff = space_fractional_density(0.5, GRID64, t, tol) - space_fractional_half_closed(
            GRID64, t
        )
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def _c6(run):
    tol = Tolerance(abs_tol=1e-12)
    worst = 0.0
    for beta in (0.3, 0.5, 0.9):
        diff = wrapped_stable_density(beta, GRID64, 1.0, tol) - space_fractional_density(
            beta, GRID64, 2.0**beta * 1.0, tol
        )
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


# seeded criteria: fixed stream ids keep them independent of each other
# and reproducible one at a time

def _c7a(run):
    ang = sample_wrapped_bm(1.0, RngStream(run.seed, 50), size=100_000)
    return ks_statistic(ang, bm_law(1.0).cdf)


def _c7b(run):
    s = RngStream(run.seed, 51)
    H = sample_stable_subordinator(0.5, 1.0, s, size=100_000)
    ang = sample_wrapped_bm(H, s)
    return ks_statistic(ang, space_fractional_law(0.5, 1.0).cdf)


def _c7c(run):
    # beta = 1/2 has no certifiable pointwise series, so the comparison
    # runs against the CDF-level series; its tail decays like c/K, so
    # the CDF is certified to 1e-4 (~4e3 terms), invisible at KS scale
    s = RngStream(run.seed, 52)
    n = 100_000
    L = sample_inverse_subordinator(0.5, 1.0, s, size=n)
    H = L ** (1.0 / 0.5) * sample_stable_subordinator(0.5, 1.0, s, size=n)
    ang = sample_wrapped_bm(H, s)
    tol = Tolerance(abs_tol=1e-4)
    return ks_statistic(ang, lambda th: space_time_fractional_cdf(0.5, 0.5, th, 1.0, tol))


def _c7d(run):
    ang = simulate_planar_hit(math.exp(-1.0), RngStream(run.seed, 53), step=1e-3, size=50_000)
    return ks_statistic(ang, lambda th: even_kernel_cdf(th, 1.0))


def _c8a(run):
    worst = 0.0
    for t in (0.2, 1.0, 5.0):
        via_cdf = even_kernel_cdf(math.pi / 2.0, t) + 1.0 - even_kernel_cdf(3.0 * math.pi / 2.0, t)
        worst = max(worst, abs(even_quadrant_prob(t) - float(via_cdf)))
    return worst


# 8b's threshold; its reference quadrature must stay clear of it
_C8B_THRESHOLD = 1e-8
# Gauss-Legendre sizes of 8b's reference: the kernel is analytic in a strip
# of half-width a t >= 0.43 about the real axis, so the smaller rule is
# converged already and the gap between the two estimates the larger's error
_C8B_RULES = (64, 128)


def _c8b(run):
    worst = 0.0
    for n in (1, 3):
        for t in (0.5, 1.0):
            coarse, ref = (
                math.pi * float(np.sum(w * odd_kernel_density(n, math.pi * v, t)))
                for v, w in map(_gauss_legendre, _C8B_RULES)
            )
            if abs(ref - coarse) >= _C8B_THRESHOLD:
                raise ConvergenceError(
                    f"8b reference quadrature gap {abs(ref - coarse):.1e} reaches the threshold"
                )
            worst = max(worst, abs(odd_half_circle_prob(n, t) - ref))
    return worst


def _c8c(run):
    # P(0 < Theta < pi/2): the exact CDF against the termwise series CDF
    tol = Tolerance(abs_tol=1e-13)
    worst = 0.0
    for n, t in ((1, 0.5), (1, 1.0), (2, 0.5), (2, 1.0)):
        series = odd_kernel_law(n, t, tol).cdf(math.pi / 2.0)
        worst = max(worst, abs(odd_kernel_cdf(n, math.pi / 2.0, t) - series))
    return worst


# Gaussian steps per 9a path; each step's weight is exact, so no step
# count biases the estimate
_BRIDGE_STEPS = 20


def _double_barrier_survival(theta, t, n_paths, rng):
    """P(sup_{s<=t} |W_s| < theta) by Gaussian paths on _BRIDGE_STEPS steps,
    each step weighted by the probability that the Brownian bridge across
    it stays in (-theta, theta). With a and b the step's ends measured
    from -theta and L = 2 theta, that is the image series (Borodin &
    Salminen, Handbook of Brownian Motion, 2002)

        sum_k e^{-2kL(kL + b - a)/dt} - e^{-2(a + kL)(b + kL)/dt},

    here over |k| <= 1; the images dropped are below e^{-2L^2/dt}. A step
    ending outside weighs 0, so the estimate is unbiased."""
    dt = t / _BRIDGE_STEPS
    L = 2.0 * theta
    w = np.ones(n_paths)
    a = np.full(n_paths, theta)
    for _ in range(_BRIDGE_STEPS):
        b = a + math.sqrt(dt) * rng.generator.standard_normal(n_paths)
        out = (b <= 0.0) | (b >= L)
        w[out] = 0.0
        # a dead path waits at the centre, where every exponent stays <= 0
        b[out] = theta
        w *= sum(
            np.exp(-2.0 * k * L * (k * L + b - a) / dt)
            - np.exp(-2.0 * (a + k * L) * (b + k * L) / dt)
            for k in (-1, 0, 1)
        )
        a = b
    est = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(n_paths))
    return est, se


def _c9a(run):
    worst = 0.0
    for (theta, t), sid in (((1.0, 1.0), 54), ((2.0, 0.5), 55)):
        est, se = _double_barrier_survival(theta, t, 100_000, RngStream(run.seed, sid))
        worst = max(worst, abs(bm_maxdist_cdf(theta, t) - est) / se)
    return worst


def _c9b(run):
    h = 1e-4
    central = (bm_maxdist_cdf(1.0, 1.0 - h) - bm_maxdist_cdf(1.0, 1.0 + h)) / (2.0 * h)
    return abs(bm_first_passage_density(1.0, 1.0) - central)


def _c9c(run):
    worst = -math.inf
    for t in np.linspace(0.21, 10.0, 196):
        bound = 0.5 + (2.0 / math.pi) * math.exp(-float(t) / 2.0)
        worst = max(worst, bm_quadrant_prob(float(t)) - bound)
    return worst


def _onset_times(run):
    return positivity_time(1), positivity_time(2)


def _c10a(run):
    t1, t2 = run.once(_onset_times)
    return max(abs(t1), abs(t2 - T_BAR_ORDER4))


def _grid_min(n, t, tol):
    """Angle of the least value on 4096 nodes, apart from positivity_time's proof."""
    thetas = np.arange(4096) * (TWO_PI / 4096)
    return float(thetas[np.argmin(even_circle_density(n, thetas, t, tol))])


def _c10b(run):
    arg = _grid_min(2, run.once(_onset_times)[1], Tolerance())
    return min(abs(arg - math.pi), TWO_PI - abs(arg - math.pi))


def _c10c(run):
    t2 = run.once(_onset_times)[1]
    # both margins negative exactly when the sign flips across t2
    return max(min_value(2, t2 - 0.01), -min_value(2, t2 + 0.01))


def _c11(run):
    worst = -math.inf
    for t in (0.5, 1.0, 2.0):
        gaps = [kernel_limit_gap(n, t) for n in (1, 2, 5, 10, 50)]
        worst = max(worst, float(np.max(np.diff(gaps))))
    return worst


def _c12(run):
    worst = 0.0
    for t in (0.5, 1.0):
        diff = wrapped_skew_cauchy_density(1, GRID64, t) - odd_kernel_density(1, GRID64, t)
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


_SEEDED = (_c7a, _c7b, _c7c, _c7d, _c9a)


def _c13(run):
    # a direct call draws from fresh streams; run.once gives the first pass
    return float(sum(repr(run.once(m)) != repr(m(run)) for m in _SEEDED))


def _c14(run):
    # mass and modes 1..6 of the odd law at t = 2 pi a/q: one rfft of the
    # wrapped route on 128 nodes against the atoms' exact projections
    k = np.arange(7)
    grid = np.arange(128) * (TWO_PI / 128)
    worst = 0.0
    for a, q in ((1, 3), (1, 5), (2, 7)):
        values = odd_circle_density_wrapped(1, grid, TWO_PI * a / q)
        projected = np.fft.rfft(values)[:7] * (TWO_PI / 128)
        angles, weights = odd_circle_atoms(1, a, q)
        exact = np.exp(-1j * np.outer(k, angles)) @ weights
        worst = max(worst, float(np.max(np.abs(projected - exact))))
    return worst


def _ks(m, thr):
    """A KS distance below its threshold, which --tol can only loosen."""
    return m < thr


def _onset_rule(m, thr):
    """10a: order 2's onset is exactly 0, order 4's within thr of T_BAR."""
    return m < thr and positivity_time(1) == 0.0


# (id, group, description, pinned threshold, pass rule, measurement),
# in report order; a pass rule maps (measured, threshold) to passed
_CRITERIA = (
    ("1", "kernels", "kernel series equals its closed form (both parities)",
     1e-12, lt, _c1),
    ("2", "pseudo", "even circle law: spectral route equals wrapped line route",
     1e-6, lt, _c2),
    ("3", "pseudo", "Fourier projection of the order-4 law recovers exp(-k^4 t)/pi",
     1e-8, lt, _c3),
    ("4a", "special", "Mittag-Leffler at nu=1/2 equals exp(x^2) erfc(x)",
     1e-9, lt, _c4a),
    ("4b", "special", "Mittag-Leffler at nu=1 equals exp(-x)",
     1e-12, lt, _c4b),
    ("5a", "fractional", "time-fractional law at nu=1 equals the even circle law exactly",
     0.0, eq, _c5a),
    ("5b", "fractional", "space-fractional law at beta=1 equals the circular BM density",
     1e-12, lt, _c5b),
    ("5c", "fractional", "space-fractional series at beta=1/2 equals its closed form",
     1e-10, lt, _c5c),
    ("6", "fractional", "wrapped stable law equals the space-fractional law at rescaled time "
     "(a rescaling identity, not a second route)",
     1e-10, lt, _c6),
    ("7a", "montecarlo", "wrapped Brownian sampler vs analytic CDF (KS)",
     0.01, _ks, _c7a),
    ("7b", "montecarlo", "single subordination B(H(t)) vs space-fractional CDF (KS)",
     0.015, _ks, _c7b),
    ("7c", "montecarlo", "double subordination B(H(L(t))) vs space-time CDF (KS)",
     0.02, _ks, _c7c),
    ("7d", "montecarlo", "planar exit angle from radius 1/e vs even kernel CDF (KS)",
     0.015, _ks, _c7d),
    ("8a", "kernels", "even quadrant probability equals the CDF difference",
     1e-12, lt, _c8a),
    ("8b", "kernels", "odd half-circle probability equals kernel quadrature",
     _C8B_THRESHOLD, lt, _c8b),
    ("8c", "kernels", "odd quadrant probability equals the series CDF at pi/2",
     1e-10, lt, _c8c),
    ("9a", "brownian", "max-distance CDF vs double-barrier Monte Carlo (z-score)",
     3.0, lt, _c9a),
    ("9b", "brownian", "first-passage density equals -dCDF/dt (central difference)",
     1e-6, lt, _c9b),
    ("9c", "brownian", "quadrant probability bound 1/2 + (2/pi) e^{-t/2} holds on [0.21, 10]",
     0.0, le, _c9c),
    ("10a", "pseudo", "positivity onset: 0 at order 2; order-4 value matches the frozen constant",
     1e-6, _onset_rule, _c10a),
    ("10b", "pseudo", "order-4 minimum at the onset sits at theta = pi",
     1e-3, lt, _c10b),
    ("10c", "pseudo", "order-4 minimum changes sign across the onset time",
     0.0, lt, _c10c),
    ("11", "kernels", "odd-to-even kernel gap strictly decreases in the order",
     0.0, lt, _c11),
    ("12", "kernels", "wrapped skewed Cauchy equals the first odd kernel",
     1e-8, lt, _c12),
    ("13", "determinism", "seeded Monte Carlo criteria reproduce byte-identical values on re-run",
     1.0, lt, _c13),
    ("14", "pseudo", "odd law at t = 2 pi a/q: wrapped mass and modes 1..6 equal the exact atoms'",
     1e-5, lt, _c14),
)

GROUPS = tuple(dict.fromkeys(group for _, group, *_ in _CRITERIA))


def run_suite(seed=DEFAULT_SEED, tol=1e-10, only=None):
    """Run the criteria (optionally one group) and return CriterionResult
    rows in table order. KS thresholds can only be loosened:
    threshold = max(pinned, tol)."""
    if only is not None and only not in GROUPS:
        raise ValueError(f"unknown group {only!r}; choose from {', '.join(GROUPS)}")
    run = _Run(seed)
    results = []
    for cid, group, description, pinned, rule, measure in _CRITERIA:
        if only is not None and group != only:
            continue
        measured = float(run.once(measure))
        threshold = float(max(pinned, tol) if rule is _ks else pinned)
        results.append(CriterionResult(
            cid, group, description, measured, threshold, bool(rule(measured, threshold))
        ))
    return results


def report_json(results, seed, tol):
    """Serialize a run deterministically (fixed key order, no timing)."""
    obj = {
        "seed": int(seed),
        "tol": float(tol),
        "all_passed": all(r.passed for r in results),
        "criteria": [asdict(r) for r in results],
    }
    return json.dumps(obj, indent=2) + "\n"

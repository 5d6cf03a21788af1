"""Self-check suite behind ``circlaw validate``.

Thirteen numbered criteria (letters split a criterion whose parts carry
different thresholds) and one diagnostic row, each reduced to one
measured number against one pinned threshold. ``_CRITERIA`` is the one
table of them, in report order. Monte Carlo criteria draw from
dedicated, fixed streams so a report is a pure function of (seed, tol);
the determinism criterion re-runs every seeded criterion on fresh
identically-seeded streams and byte-compares the serialized values.
"""

import json
import math
from dataclasses import asdict, dataclass
from operator import eq, le, lt

import numpy as np
from scipy import integrate

from .brownian import (
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
from .kernels import (
    even_kernel_cdf,
    even_kernel_density,
    even_kernel_law,
    even_quadrant_prob,
    kernel_limit_gap,
    odd_half_circle_prob,
    odd_kernel_density,
    odd_kernel_law,
    odd_quadrant_forms,
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
    _grid_min,
    even_circle_density_wrapped,
    even_circle_law,
    min_value,
    odd_circle_density_routes,
    positivity_time,
)
from .special import Tolerance, mittag_leffler

__all__ = ["CriterionResult", "run_suite", "report_json", "DEFAULT_SEED", "GROUPS"]

DEFAULT_SEED = 314159

# order-4 positivity onset, frozen at first release (root of the grid
# minimum in t; bisection and a direct root agree to 5e-7)
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
    flagged: bool = False


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
    diff = space_fractional_law(1.0, 1.0, tol).density(GRID64) - bm_law(1.0, tol).density(GRID64)
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


def _c8b(run):
    worst = 0.0
    for n in (1, 3):
        for t in (0.5, 1.0):
            ref, err = integrate.quad(
                lambda th: odd_kernel_density(n, th, t), 0.0, math.pi,
                limit=200, epsabs=1e-12,
            )
            if err >= _C8B_THRESHOLD:
                raise ConvergenceError(
                    f"8b reference quadrature error {err:.1e} reaches the threshold"
                )
            worst = max(worst, abs(odd_half_circle_prob(n, t) - ref))
    return worst


def _c8c(run):
    worst = 0.0
    for n, t in ((1, 0.5), (1, 1.0), (2, 0.5), (2, 1.0)):
        f1, f2, f3 = odd_quadrant_forms(n, t)
        worst = max(worst, abs(f1 - f2), abs(f2 - f3), abs(f1 - f3))
    return worst


def _double_barrier_survival(theta, t, n_paths, rng, n_steps=400):
    """P(sup_{s<=t} |W_s| < theta) by Euler paths with per-step
    Brownian-bridge crossing weights (removes the discretization bias)."""
    gen = rng.generator
    dt = t / n_steps
    sq = math.sqrt(dt)
    w_all = np.empty(n_paths)
    done = 0
    while done < n_paths:
        m = min(50_000, n_paths - done)
        x = np.zeros(m)
        w = np.ones(m)
        for _ in range(n_steps):
            xn = x + sq * gen.standard_normal(m)
            w[np.abs(xn) >= theta] = 0.0
            up = np.exp(-2.0 * (theta - x) * (theta - xn) / dt)
            dn = np.exp(-2.0 * (theta + x) * (theta + xn) / dt)
            w *= np.where(w > 0.0, (1.0 - up) * (1.0 - dn), 0.0)
            x = xn
        w_all[done : done + m] = w
        done += m
    est = float(w_all.mean())
    se = float(w_all.std(ddof=1) / math.sqrt(n_paths))
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


def _c10b(run):
    _, arg = _grid_min(2, run.once(_onset_times)[1], Tolerance())
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


def _d1(run):
    wrapped, abel = odd_circle_density_routes(1, 0.5, 1.0)
    return abs(wrapped - abel)


def _ks(m, thr):
    """A KS distance below its threshold, which --tol can only loosen."""
    return m < thr


def _onset_rule(m, thr):
    """10a: order 2's onset is exactly 0, order 4's within thr of T_BAR."""
    return m < thr and positivity_time(1) == 0.0


def _diagnostic(m, thr):
    """Reported, never failed: the row is flagged when m exceeds thr."""
    return True


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
    ("6", "fractional", "wrapped stable law equals the space-fractional law at rescaled time",
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
    ("8c", "kernels", "the three quadrant-probability expressions agree mutually",
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
    ("D1", "pseudo",
     "odd signed density: wrapped vs Abel route divergence (scheme-dependent; diagnostic only)",
     1e-4, _diagnostic, _d1),
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
        flagged = rule is _diagnostic and measured > threshold
        results.append(CriterionResult(
            cid, group, description, measured, threshold, bool(rule(measured, threshold)), flagged
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

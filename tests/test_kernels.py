"""Poisson kernel tests: closed forms vs series, branch-free CDFs,
interval probabilities, the wrapped skewed-Cauchy route, and the
large-n collapse."""

import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from circlaw import ConvergenceError, DomainError, Tolerance
from circlaw.harmonic import TWO_PI
from circlaw.kernels import (
    _ab,
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
from circlaw.special import _WORK
from oracles import even_kernel_cdf_atan2

TOL13 = Tolerance(abs_tol=1e-13)
GRID64 = np.arange(64) * TWO_PI / 64


def quad_mass(density, lo=0.0, hi=TWO_PI):
    val, _ = integrate.quad(density, lo, hi, limit=400, epsabs=1e-13)
    return val


class TestDampingRotation:
    """The odd kernel's damping/rotation pair a = cos(pi/(2(2n+1))), b = sin(...)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_unit_circle_pair(self, n):
        a, b = _ab(n)
        assert a**2 + b**2 == pytest.approx(1.0, abs=1e-15)
        assert 0.0 < a <= 1.0 and 0.0 <= b < 1.0

    def test_n1_constants(self):
        a, b = _ab(1)
        assert a == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-15)
        assert b == pytest.approx(0.5, abs=1e-15)


class TestEvenKernelDensity:
    def test_value_at_zero_log2(self):
        # q = 1/2 makes the closed form 3/(2 pi) exactly
        assert even_kernel_density(0.0, math.log(2.0)) == pytest.approx(
            3.0 / TWO_PI, abs=1e-15
        )

    def test_value_at_pi_log2(self):
        assert even_kernel_density(math.pi, math.log(2.0)) == pytest.approx(
            1.0 / (6.0 * math.pi), abs=1e-15
        )

    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_series_equals_closed(self, t):
        law = even_kernel_law(t, TOL13)
        gap = np.max(np.abs(law.density(GRID64) - even_kernel_density(GRID64, t)))
        assert gap < 1e-12

    def test_flattens_to_uniform(self):
        vals = even_kernel_density(GRID64, 60.0)
        assert np.max(np.abs(vals - 1.0 / TWO_PI)) < 1e-12

    @pytest.mark.parametrize("t", [0.3, 1.0, 5.0])
    def test_mass_and_positivity(self, t):
        assert quad_mass(lambda th: even_kernel_density(th, t)) == pytest.approx(
            1.0, abs=1e-10
        )
        assert np.all(even_kernel_density(GRID64, t) > 0.0)

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_harmonicity_surrogate(self, t):
        # real part of (1 + z e^{i th})/(1 - z e^{i th})/(2 pi), z = e^{-t}:
        # the geometric-series resummation of the kernel
        z = math.exp(-t)
        w = z * np.exp(1j * GRID64)
        surrogate = ((1.0 + w) / (1.0 - w)).real / TWO_PI
        assert np.max(np.abs(surrogate - even_kernel_density(GRID64, t))) < 1e-12

    def test_series_tail_certificate(self):
        law = even_kernel_law(1.0)
        gap = np.max(np.abs(law.density(GRID64) - even_kernel_density(GRID64, 1.0)))
        assert gap <= law.tail_bound + 1e-15

    def test_series_cap(self):
        with pytest.raises(ConvergenceError, match="closed form"):
            even_kernel_law(1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            even_kernel_density(0.0, 0.0)


class TestEvenKernelCdf:
    @pytest.mark.parametrize("t", [1e-300, 1e-9, 0.3, 1.0, 4.0, 800.0])
    def test_half_at_pi(self, t):
        assert even_kernel_cdf(math.pi, t) == 0.5

    @pytest.mark.parametrize("t", [1e-300, 1e-9, 1e-3, 0.1, 1.0, 3.0, 30.0, 800.0])
    def test_is_its_own_atan2_form(self, t):
        # the odd kernels' form at (a, b) = (1, 0) rounds (1 - q) in both
        # atan2 arguments where the even form cancels it: a few ulps apart
        th = np.random.default_rng(30).uniform(0.0, TWO_PI, 2000)
        assert np.max(np.abs(even_kernel_cdf(th, t) - even_kernel_cdf_atan2(th, t))) <= 2.3e-16

    @pytest.mark.parametrize("t", [0.5, 1.5])
    def test_matches_quadrature_32(self, t):
        for th in np.linspace(0.1, TWO_PI - 0.1, 32):
            q = quad_mass(lambda y: even_kernel_density(y, t), 0.0, th)
            assert even_kernel_cdf(th, t) == pytest.approx(q, abs=1e-9)

    def test_matches_arctan_branches(self):
        # (1/pi) arctan(A tan(th/2)) below pi, 1 + the same above it
        t = 0.8
        A = (1.0 + math.exp(-t)) / (1.0 - math.exp(-t))
        for th in GRID64[1:]:
            if abs(th - math.pi) < 1e-12:
                continue
            branch = math.atan(A * math.tan(th / 2.0)) / math.pi
            want = branch if th < math.pi else 1.0 + branch
            assert even_kernel_cdf(th, t) == pytest.approx(want, abs=1e-14)

    def test_small_t_limit_is_half(self):
        # the mass collapses onto theta = 0 symmetrically: half of the
        # peak sits just below 2 pi, so F(0.1) -> 1/2 (not 1)
        assert even_kernel_cdf(0.1, 1e-3) == pytest.approx(0.49681966, abs=1e-7)
        assert even_kernel_cdf(0.1, 1e-5) == pytest.approx(0.5, abs=1e-3)

    def test_endpoints_and_monotone(self):
        t = 0.9
        assert even_kernel_cdf(0.0, t) == 0.0
        assert even_kernel_cdf(TWO_PI - 1e-9, t) == pytest.approx(1.0, abs=1e-8)
        vals = even_kernel_cdf(np.linspace(0.0, TWO_PI, 257), t)
        assert np.all(np.diff(vals) > 0.0)

    def test_termwise_series_cdf_agrees(self):
        law = even_kernel_law(0.7, TOL13)
        th = np.linspace(0.0, TWO_PI, 65)
        assert np.max(np.abs(law.cdf(th) - even_kernel_cdf(th, 0.7))) < 1e-11

    def test_domain(self):
        with pytest.raises(DomainError):
            even_kernel_cdf(-0.5, 1.0)
        with pytest.raises(DomainError):
            even_kernel_cdf(7.0, 1.0)


class TestEvenQuadrant:
    def test_value_at_one(self):
        # 1/2 + (2/pi) arctan(1/e), cross-checked below by quadrature
        assert even_quadrant_prob(1.0) == pytest.approx(0.72441701432858507, abs=1e-14)

    def test_quadrature_cross_check(self):
        got = even_quadrant_prob(1.0)
        q = quad_mass(lambda y: even_kernel_density(y, 1.0), -math.pi / 2, math.pi / 2)
        assert got == pytest.approx(q, abs=1e-12)

    @pytest.mark.parametrize("t", [0.2, 1.0, 5.0])
    def test_equals_cdf_differences(self, t):
        # wrapped quadrant = [0, pi/2) plus [3 pi/2, 2 pi)
        via_cdf = even_kernel_cdf(math.pi / 2, t) + 1.0 - even_kernel_cdf(3 * math.pi / 2, t)
        assert even_quadrant_prob(t) == pytest.approx(via_cdf, abs=1e-12)

    def test_limits(self):
        assert even_quadrant_prob(1e-8) > 1.0 - 1e-7
        assert abs(even_quadrant_prob(40.0) - 0.5) < 1e-15


class TestOddKernelDensity:
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_series_equals_closed(self, n, t):
        law = odd_kernel_law(n, t, TOL13)
        gap = np.max(np.abs(law.density(GRID64) - odd_kernel_density(n, GRID64, t)))
        assert gap < 1e-12

    def test_third_order_explicit_constants(self):
        # n=1 closed form written out with a = sqrt(3)/2, b = 1/2:
        # damping e^{-sqrt(3) t} on the square radius, rotation t/2
        t = 1.3
        E = math.exp(-math.sqrt(3.0) * t)
        r = math.sqrt(E)
        explicit = (1.0 - E) / (TWO_PI * (1.0 + E - 2.0 * r * np.cos(GRID64 + t / 2.0)))
        assert np.max(np.abs(explicit - odd_kernel_density(1, GRID64, t))) < 1e-15

    @pytest.mark.parametrize("n,t", [(1, 0.5), (1, 1.0), (3, 2.0)])
    def test_mass_and_positivity(self, n, t):
        assert quad_mass(lambda th: odd_kernel_density(n, th, t)) == pytest.approx(
            1.0, abs=1e-10
        )
        assert np.all(odd_kernel_density(n, GRID64, t) > 0.0)

    @pytest.mark.parametrize("n,t", [(1, 1.0), (2, 0.5)])
    def test_mode_at_minus_bt(self, n, t):
        _, b = _ab(n)
        grid = np.arange(8192) * TWO_PI / 8192
        vals = odd_kernel_density(n, grid, t)
        expected = (-b * t) % TWO_PI
        assert abs(grid[vals.argmax()] - expected) < TWO_PI / 8192 + 1e-12
        assert odd_kernel_density(n, expected, t) >= vals.max() - 1e-12

    @pytest.mark.parametrize("n,t", [(1, 0.5), (1, 1.0), (2, 1.0), (1, 2.0), (1, 100.0)])
    def test_wrapped_skew_cauchy_route(self, n, t):
        # the shell count certifies the tail closure within the default tol
        wrapped = wrapped_skew_cauchy_density(n, GRID64, t)
        assert np.max(np.abs(wrapped - odd_kernel_density(n, GRID64, t))) <= 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            odd_kernel_density(0, 0.0, 1.0)
        with pytest.raises(DomainError):
            odd_kernel_density(1, 0.0, -1.0)
        # the closed form is NaN at t = inf
        with pytest.raises(DomainError):
            odd_kernel_density(1, 0.5, math.inf)


class TestSmallTime:
    """At small t the closed forms keep their peak: 1 + q^2 - 2 q cos theta
    would cancel to 0 at the mode."""

    @pytest.mark.parametrize("t", [1e-9, 1e-20])
    def test_even_peak_is_finite_and_exact(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = even_kernel_density(GRID64, t)
            peak = even_kernel_density(0.0, t)
        assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)
        q, one_minus_q = math.exp(-t), -math.expm1(-t)
        assert peak == pytest.approx((1.0 + q) / (TWO_PI * one_minus_q), rel=1e-15)
        assert vals[0] == peak

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("t", [1e-9, 1e-20])
    def test_odd_matches_high_precision(self, n, t):
        a, b = _ab(n)
        th = GRID64[:8]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = odd_kernel_density(n, th, t)
        with mp.workdps(60):
            q = mp.exp(-mp.mpf(a) * t)
            oracle = [
                (1 - q * q) / (2 * mp.pi * (1 + q * q - 2 * q * mp.cos(mp.mpf(x) + mp.mpf(b) * t)))
                for x in th
            ]
        assert np.all(np.isfinite(vals))
        assert np.allclose(vals, np.array(oracle, dtype=float), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("t", [1e-310, 5e-324])
    def test_value_past_the_largest_double_refused(self, t):
        # at subnormal t the peak (1 + q)/(2 pi (1 - q)) passes the largest
        # double; away from it each value is returned, finite and unwarned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="passes the largest double"):
                even_kernel_density(GRID64, t)
            with pytest.raises(DomainError, match="passes the largest double"):
                odd_kernel_density(1, 0.0, t)
            off = [even_kernel_density(GRID64[1:], t), odd_kernel_density(2, GRID64[1:], t)]
        assert all(np.all(np.isfinite(v)) and np.all(v >= 0.0) for v in off)


class TestOddKernelCdf:
    @pytest.mark.parametrize("n,t", [(1, 0.5), (1, 1.0), (2, 0.5), (2, 1.0)])
    def test_matches_quadrature(self, n, t):
        for th in np.linspace(1e-3, TWO_PI - 1e-3, 25):
            q = quad_mass(lambda y: odd_kernel_density(n, y, t), 0.0, th)
            assert odd_kernel_cdf(n, th, t) == pytest.approx(q, abs=5e-13)

    def test_endpoints_and_monotone(self):
        n, t = 1, 1.0
        assert odd_kernel_cdf(n, 0.0, t) == 0.0
        assert odd_kernel_cdf(n, TWO_PI - 1e-10, t) == pytest.approx(1.0, abs=1e-9)
        vals = odd_kernel_cdf(n, np.linspace(0.0, TWO_PI, 257), t)
        assert np.all(np.diff(vals) > 0.0)

    @staticmethod
    def _closed_form(n, th, t):
        """The CDF's closed form in 50-digit arithmetic at the float inputs."""
        a, b = _ab(n)
        with mp.workdps(50):
            a, b, th, t = map(mp.mpf, (a, b, th, t))
            q = mp.exp(-a * t)
            den = (1 + q * q) * mp.cos(th / 2) - 2 * q * mp.cos(th / 2 + b * t)
            return float(mp.atan2((1 - q * q) * mp.sin(th / 2), den) / mp.pi)

    @pytest.mark.parametrize(
        "t,th,err",
        [(1e-3, 0.5, 1e-13), (1e-6, 0.5, 1e-13), (1e-8, 0.5, 1e-13), (1e-10, 1e-6, 1e-13),
         # the rounding of 2 pi itself against the kernel width a t dominates
         (1e-10, TWO_PI, 3e-9)],
    )
    def test_small_time_table(self, t, th, err):
        # the form (1+q^2) cos(th/2) - 2 q cos(th/2 + b t) cancels as t -> 0:
        # it gave 0.1666 for 0.3333 at (1e-10, 1e-6) and 0.5 for 0.9999993 at 2 pi
        assert odd_kernel_cdf(1, th, t) == pytest.approx(self._closed_form(1, th, t), abs=err)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_high_precision_at_every_time(self, n):
        th = np.linspace(0.0, TWO_PI, 33)[:-1]
        for t in (1e-12, 1e-10, 1e-8, 1e-6, 1e-3, 0.1, 1.0, 5.0):
            want = [self._closed_form(n, x, t) for x in th]
            assert np.max(np.abs(odd_kernel_cdf(n, th, t) - want)) < 1e-13, t

    def test_termwise_series_cdf_agrees(self):
        law = odd_kernel_law(1, 0.8, TOL13)
        th = np.linspace(0.0, TWO_PI, 65)
        assert np.max(np.abs(law.cdf(th) - odd_kernel_cdf(1, th, 0.8))) < 1e-11

    def test_domain(self):
        with pytest.raises(DomainError):
            odd_kernel_cdf(1, 0.5, 0.0)
        with pytest.raises(DomainError):
            odd_kernel_cdf(1, -0.1, 1.0)
        with pytest.raises(DomainError):
            odd_kernel_cdf(1, TWO_PI + 0.1, 1.0)


class TestOddIntervalProbabilities:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_half_circle_matches_quadrature(self, n, t):
        q = quad_mass(lambda y: odd_kernel_density(n, y, t), 0.0, math.pi)
        assert odd_half_circle_prob(n, t) == pytest.approx(q, abs=1e-8)

    def test_half_circle_frozen_values(self):
        # sinh(a t)/sin(b t) arithmetic at n=1: a t = sqrt(3)/2, b t = 1/2
        assert odd_half_circle_prob(1, 1.0) == pytest.approx(
            0.35497198664679658, abs=1e-14
        )
        assert odd_half_circle_prob(1, 0.5) == pytest.approx(
            0.33899261813176434, abs=1e-14
        )

    def test_half_circle_equals_cdf_at_pi(self):
        for n, t in [(1, 0.5), (2, 1.0), (1, 7.0)]:
            assert odd_half_circle_prob(n, t) == pytest.approx(
                odd_kernel_cdf(n, math.pi, t), abs=1e-14
            )

    def test_half_circle_branch_safety_past_pi_rotation(self):
        # at n=1, t=7 sin(b t) < 0; the atan2 form stays a probability
        val = odd_half_circle_prob(1, 7.0)
        assert 0.5 < val < 1.0

    def test_half_circle_at_large_t(self):
        # sinh(a t) overflows once a t > ~710; the law tends to the uniform
        # one, whose half circle carries 1/2
        for n in (1, 3):
            for t in (820.0, 1e3, 1e300):
                assert odd_half_circle_prob(n, t) == 0.5
        # below the overflow the scaled form is the sinh form's angle
        a, b = math.sqrt(3.0) / 2.0, 0.5
        for t in (0.5, 3.0, 20.0, 800.0):
            plain = math.atan2(math.sinh(a * t), math.sin(b * t)) / math.pi
            assert odd_half_circle_prob(1, t) == pytest.approx(plain, abs=1e-15)

    def test_quadrant_frozen_value(self):
        # P(0 < Theta < pi/2) at n = 1, t = 1
        assert odd_kernel_cdf(1, math.pi / 2, 1.0) == pytest.approx(
            0.24638764172954855, abs=1e-12
        )


class TestKernelLimitGap:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_strictly_decreasing_in_n(self, t):
        gaps = [kernel_limit_gap(n, t) for n in (1, 2, 5, 10, 50)]
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))

    def test_frozen_values_at_one(self):
        assert kernel_limit_gap(1, 1.0) == pytest.approx(0.1316595, abs=1e-6)
        assert kernel_limit_gap(50, 1.0) == pytest.approx(0.0032046, abs=1e-6)
        assert kernel_limit_gap(50, 1.0) < kernel_limit_gap(1, 1.0)

    @pytest.mark.parametrize("n", [1, 3])
    def test_vanishes_at_large_t(self, n):
        assert kernel_limit_gap(n, 60.0) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError, match="positive integer"):
            kernel_limit_gap(0, 1.0)
        with pytest.raises(DomainError, match="positive integer"):
            kernel_limit_gap(1.5, 1.0)


# the two kernel laws as t -> (law, (damping rate, rotation)); at t = 1e-4
# each carries a few 10^5 terms
SERIES_BUILDS = {
    "even": (even_kernel_law, lambda t: (t, 0.0)),
    "odd-1": (lambda t: odd_kernel_law(1, t), lambda t: (_ab(1)[0] * t, _ab(1)[1] * t)),
}


class TestSeriesLawBuild:
    # the kernel laws fill their coefficients by harmonic.cosine_law's
    # blocks of _WORK modes: the doubles and signs of zero of the whole-array
    # expressions, with one block of work past the law's own two arrays

    @pytest.mark.parametrize("name", SERIES_BUILDS)
    def test_coefficients_are_the_whole_array_expressions(self, name):
        build, rates = SERIES_BUILDS[name]
        law = build(1e-4)
        rate, rotation = rates(1e-4)
        assert law.n_terms > _WORK
        k = np.arange(1.0, law.n_terms + 1)
        damp = np.exp(-k * rate) / math.pi
        assert law.cos_coeffs.tobytes() == (damp * np.cos(k * rotation)).tobytes()
        assert law.sin_coeffs.tobytes() == (-damp * np.sin(k * rotation)).tobytes()

    @pytest.mark.parametrize("name", SERIES_BUILDS)
    def test_build_holds_three_arrays(self, name):
        build, _ = SERIES_BUILDS[name]
        K = build(1e-4).n_terms
        tracemalloc.start()
        try:
            build(1e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * K

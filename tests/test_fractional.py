"""Fractional circular law tests: Caputo-in-time and spectral-in-space
series, wrapped stable laws, equality in law, the space-fractional
evolution equation."""

import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import special as sp

import circlaw.harmonic
import circlaw.special
from circlaw import ConvergenceError, DomainError, SlowDecayWarning, Tolerance, fractional
from circlaw.brownian import bm_law
from circlaw.fractional import (
    space_fractional_half_closed,
    space_fractional_law,
    space_time_fractional_cdf,
    space_time_fractional_density,
    time_fractional_law,
    wrapped_stable_law,
)
from circlaw.harmonic import TWO_PI, cosine_law
from circlaw.pseudo import even_circle_law
from circlaw.special import DEFAULT_TOL, mittag_leffler_many

TOL6 = Tolerance(abs_tol=1e-6)
TOL3 = Tolerance(abs_tol=1e-3)


class TestTimeFractionalLaw:
    def test_nu_one_collapses_exactly(self):
        a = time_fractional_law(2, 1.0, 1.0).cos_coeffs
        b = even_circle_law(2, 1.0).cos_coeffs
        assert a.shape == b.shape and np.all(a == b)

    def test_against_high_precision_sum(self):
        # frozen from a 30-digit evaluation of the full sum: E_0.6(-k^2) by
        # mpmath quadrature of its spectral integral for k <= 40, and past
        # 40 eight asymptotic terms summed by mpmath's polylog (remainder
        # below 1e-27). An earlier oracle stopped the sum at k = 3e5 and
        # so read 4.8e-7 low at theta = 0.
        oracle = {
            0.0: 0.38641272421098179782,
            1.0: 0.19767953406222544863,
            math.pi: 0.054798439187374408443,
        }
        law = time_fractional_law(1, 0.6, 1.0, TOL6)
        for th, want in oracle.items():
            assert law.density(th) == pytest.approx(want, abs=1e-6)
        # the theta=0 point is the slow one
        assert time_fractional_law(1, 0.6, 1.0).density(0.0) == pytest.approx(oracle[0.0], abs=1e-7)

    def test_certified_tail(self):
        law = time_fractional_law(1, 0.6, 1.0, TOL6)
        assert 0.0 < law.tail_bound <= 1e-6
        assert law.n_terms < 100  # the lattice form's exact head
        # algebraic decay is genuinely slow: the plain series, the second route
        assert fractional._time_fractional_law(1, 0.6, 1.0, TOL6, math.inf).n_terms > 100_000

    def test_coefficients_decreasing(self):
        law = time_fractional_law(1, 0.6, 1.0, TOL6)
        assert np.all(np.diff(law.cos_coeffs) < 1e-15)
        assert np.all(law.cos_coeffs > 0.0)

    def test_unit_mass_and_symmetry(self):
        law = time_fractional_law(1, 0.7, 2.0, TOL6)
        assert law.cdf(TWO_PI) == pytest.approx(1.0, abs=1e-12)
        th = np.linspace(0.1, math.pi, 7)
        assert np.allclose(law.density(th), law.density(TWO_PI - th), atol=1e-14)

    def test_tol_below_the_deep_tail_floor(self):
        # at tol 1e-12, below the deep-tail floor, every coefficient
        # E_{1/2}(-k^4) = erfcx(k^4) comes from the Mittag-Leffler contour
        tol = Tolerance(abs_tol=1e-12)
        law = time_fractional_law(2, 0.5, 1.0, tol)
        k = np.arange(1.0, 100_001.0)
        oracle = 1.0 / TWO_PI + float(np.sum(sp.erfcx(k**4) * np.cos(k))) / math.pi
        assert abs(law.density(1.0) - oracle) <= tol.abs_tol
        K = law.n_terms
        assert np.max(np.abs(law.cos_coeffs - sp.erfcx(k[:K] ** 4) / math.pi)) <= tol.abs_tol

    def test_tight_tolerance_answers_within_both_certificates(self):
        # the plain series would need ~3e9 terms at 1e-10; the lattice form
        # answers, within both routes' bounds of the plain series at 1e-6
        law = time_fractional_law(1, 0.6, 1.0)
        plain = fractional._time_fractional_law(1, 0.6, 1.0, TOL6, math.inf)
        th = np.linspace(0.0, TWO_PI, 33)
        assert law.tail_bound <= 1e-10
        bound = law.tail_bound + plain.tail_bound
        assert np.max(np.abs(law.density(th) - plain.density(th))) <= bound
        assert np.max(np.abs(law.cdf(th) - plain.cdf(th))) <= bound
        with pytest.raises(ConvergenceError, match="loosen"):
            fractional._time_fractional_law(1, 0.6, 1.0, DEFAULT_TOL, math.inf)

    def test_integral_float_order_accepted(self):
        # one order check across the package: n = 2.0 is the order n = 2
        as_float = time_fractional_law(2.0, 0.5, 1.0, TOL6)
        assert np.array_equal(as_float.cos_coeffs, time_fractional_law(2, 0.5, 1.0, TOL6).cos_coeffs)

    def test_validation(self):
        with pytest.raises(DomainError):
            time_fractional_law(0, 0.5, 1.0)
        with pytest.raises(DomainError):
            time_fractional_law(1.5, 0.5, 1.0)
        with pytest.raises(DomainError):
            time_fractional_law(1, 1.5, 1.0)
        with pytest.raises(DomainError):
            time_fractional_law(1, 0.5, 0.0)


class TestSpaceFractional:
    def test_beta_one_is_brownian(self):
        # both series carry identical coefficients; run both at 1e-13 so
        # the truncation mismatch sits below the 1e-12 target
        tight = Tolerance(abs_tol=1e-13)
        th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        gap = np.max(
            np.abs(
                space_fractional_law(1.0, 1.0, tight).density(th)
                - bm_law(1.0, tight).density(th)
            )
        )
        assert gap < 1e-12

    def test_half_closed_form(self):
        th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        for t in (0.3, 1.0, 3.0):
            gap = np.max(
                np.abs(space_fractional_law(0.5, t).density(th) - space_fractional_half_closed(th, t))
            )
            assert gap < 1e-10

    @pytest.mark.parametrize("t", [1e-9, 1e-20])
    def test_half_closed_form_is_the_poisson_kernel_at_small_t(self, t):
        # the cancelling denominator 1 + q - 2 r cos theta divided by 0 at
        # t = 1e-9 and made 0/0 at t = 1e-20; the reference is the Poisson
        # kernel (1/2pi)(1 - r^2)/(1 - 2r cos theta + r^2), r = e^{-t/sqrt 2},
        # in 80 digits, which the denominator's cancellation (40 digits at
        # theta = 0, t = 1e-20) leaves far above double precision
        def poisson(theta):
            with mp.workdps(80):
                r = mp.exp(-mp.mpf(t) / mp.sqrt(2))
                return float((1 - r**2) / (1 - 2 * r * mp.cos(mp.mpf(theta)) + r**2) / (2 * mp.pi))

        th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = space_fractional_half_closed(th, t)
        # measured: at most 4.7e-16 relative
        assert vals == pytest.approx([poisson(x) for x in th], rel=1e-14)
        assert space_fractional_half_closed(1.0, t) == pytest.approx(poisson(1.0), rel=1e-14)

    def test_center_value(self):
        assert space_fractional_law(0.5, 1.0).density(0.0) == pytest.approx(0.46876, abs=1e-5)
        assert space_fractional_half_closed(0.0, 1.0) == pytest.approx(
            0.4687602808, abs=1e-9
        )

    def test_mean_is_uniform_level(self):
        th = np.arange(512) * (TWO_PI / 512)
        mean = float(np.mean(space_fractional_law(0.7, 1.0).density(th)))
        assert mean == pytest.approx(1.0 / TWO_PI, abs=1e-13)

    def test_unit_mass(self):
        assert space_fractional_law(0.4, 1.0).cdf(TWO_PI) == pytest.approx(1.0, abs=1e-12)

    def test_semigroup_coefficients(self):
        l1 = space_fractional_law(0.7, 0.4, TOL6)
        l2 = space_fractional_law(0.7, 0.9, TOL6)
        l12 = space_fractional_law(0.7, 1.3, TOL6)
        m = min(l1.n_terms, l2.n_terms, l12.n_terms)
        prod = l1.cos_coeffs[:m] * l2.cos_coeffs[:m] * math.pi
        assert np.max(np.abs(prod - l12.cos_coeffs[:m]) / l12.cos_coeffs[:m]) < 1e-14

    def test_validation(self):
        with pytest.raises(DomainError):
            space_fractional_law(1.2, 1.0)
        with pytest.raises(DomainError):
            space_fractional_law(0.5, -1.0)


class TestFracLaplacian:
    def test_time_derivative_residual(self):
        # the law solves d/dt u = -(-(1/2) d^2/dtheta^2)^beta u: mode k's
        # coefficient has time derivative -(k^2/2)^beta times itself.
        # Central differences with lam*h = 1e-3
        beta, t = 0.6, 1.0
        law = space_fractional_law(beta, t, TOL6)
        for k in (1, 2, 3, 5):
            lam = (k * k / 2.0) ** beta
            h = 1e-3 / lam
            ap = space_fractional_law(beta, t + h, TOL6).cos_coeffs[k - 1]
            am = space_fractional_law(beta, t - h, TOL6).cos_coeffs[k - 1]
            assert (ap - am) / (2 * h) == pytest.approx(-lam * law.cos_coeffs[k - 1], abs=1e-7)


class TestWrappedStable:
    def test_geometric_value(self):
        # beta=1/2, t=1, theta=0: plain geometric series
        want = (1.0 + math.exp(-1.0)) / (TWO_PI * (1.0 - math.exp(-1.0)))
        assert wrapped_stable_law(0.5, 1.0).density(0.0) == pytest.approx(want, abs=1e-10)
        assert wrapped_stable_law(0.5, 1.0).density(0.0) == pytest.approx(
            0.3444038824, abs=1e-9
        )

    def test_beta_one_matches_even_order_series(self):
        th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        gap = np.max(
            np.abs(wrapped_stable_law(1.0, 0.8).density(th) - even_circle_law(1, 0.8).density(th))
        )
        assert gap < 1e-12

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.9])
    def test_equality_in_law(self, beta):
        th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        t = 1.3
        gap = np.max(
            np.abs(
                wrapped_stable_law(beta, t).density(th)
                - space_fractional_law(beta, (2.0**beta) * t).density(th)
            )
        )
        assert gap < 1e-10

    def test_slow_decay_warning(self):
        with pytest.warns(SlowDecayWarning):
            law = wrapped_stable_law(0.25, 0.05, Tolerance(abs_tol=1e-10))
        assert law.n_terms > 100_000

    def test_slow_decay_cap(self):
        with pytest.raises(ConvergenceError, match="loosen"):
            wrapped_stable_law(0.1, 0.5, Tolerance(abs_tol=1e-10))

    def test_unit_mass(self):
        assert wrapped_stable_law(0.6, 1.0).cdf(TWO_PI) == pytest.approx(1.0, abs=1e-12)


def _scipy_stretched_tail(c, p, K):
    # the stretched tail as scipy gives it: s c^{-s} Gamma(s) Q(s, c K^p)
    s = 1.0 / p
    try:
        return s * c ** (-s) * sp.gamma(s) * sp.gammaincc(s, c * K**p)
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("build", [space_fractional_law, wrapped_stable_law])
def test_stretched_tail_cutoffs_match_scipy(build, monkeypatch):
    # beta and t over the benchmark's ranges, three tolerances: the same K,
    # and tail bounds within 1e-12 relative of scipy's Gamma(s) Q(s, x)
    grid = [
        (beta, t, Tolerance(abs_tol=tol))
        for beta in (0.22, 0.25, 0.35, 0.5, 0.6, 0.75, 0.9, 1.0)
        for t in (0.3, 0.5, 1.0, 2.0)
        for tol in (1e-6, 1e-10, 1e-12)
    ]
    ours = [build(*args) for args in grid]
    monkeypatch.setattr(fractional, "_stretched_tail", _scipy_stretched_tail)
    for args, law in zip(grid, ours):
        scipy_law = build(*args)
        assert law.n_terms == scipy_law.n_terms, args
        assert law.tail_bound == pytest.approx(scipy_law.tail_bound, rel=1e-12, abs=0.0), args


class TestSpaceTimeFractional:
    def test_pointwise_against_high_precision_sum(self):
        # frozen 30-digit evaluation: erfcx for k <= 400, and past 400 the
        # asymptotic terms summed by mpmath's polylog (an earlier oracle,
        # 0.16586331821299108, stopped at k = 3e5 and read 1.1e-9 high)
        want = 0.16586331711910785968
        assert space_time_fractional_density(0.5, 0.75, 1.0, 1.0, TOL3) == pytest.approx(want, abs=1e-3)
        got = space_time_fractional_density(0.5, 0.75, 1.0, 1.0)
        assert got == pytest.approx(want, abs=1e-6)

    def test_nu_one_delegates(self):
        a = space_time_fractional_density(1.0, 0.7, 1.1, 0.9, TOL6)
        b = space_fractional_law(0.7, 0.9, TOL6).density(1.1)
        assert a == b

    def test_beta_one_delegates_to_half_diffusivity(self):
        # E_nu(-(k^2/2) t^nu) = E_nu(-k^2 (t 2^{-1/nu})^nu): the same law
        a = space_time_fractional_density(0.6, 1.0, 1.1, 0.9, TOL6)
        b = time_fractional_law(1, 0.6, 0.9 * 2.0 ** (-1.0 / 0.6), TOL6).density(1.1)
        assert a == pytest.approx(b, abs=1e-6)

    def test_beta_one_tiny_nu(self):
        # 2^{-1/nu} underflows here; as nu -> 0, E_nu(-x) -> 1/(1+x), and
        # sum cos(k th)/(k^2 + 2) = pi cosh(r (pi - th))/(2 r sinh(r pi)) - 1/4
        # with r = sqrt(2); the bound is tol plus 1e-6 for nu > 0
        th = np.linspace(0.0, TWO_PI, 8)
        got = space_time_fractional_density(1e-9, 1.0, th, 1.0, Tolerance(abs_tol=1e-2))
        r = math.sqrt(2.0)
        series = math.pi * np.cosh(r * (math.pi - th)) / (2.0 * r * math.sinh(r * math.pi)) - 0.25
        assert np.max(np.abs(got - (1.0 / TWO_PI + 2.0 * series / math.pi))) <= 1e-2 + 1e-6

    def test_beta_one_cdf_truncates_at_cdf_tail(self):
        # the CDF tail ~ K^{-2} certifies 1e-8 with a few thousand terms
        th = np.linspace(0.0, TWO_PI, 8)
        got = space_time_fractional_cdf(0.5, 1.0, th, 1.0, Tolerance(abs_tol=1e-8))
        ref = time_fractional_law(1, 0.5, 0.25, TOL6).cdf(th)
        assert np.max(np.abs(got - ref)) <= 1e-8

    @pytest.mark.parametrize(
        "nu, beta, t, tol, density, cdf",
        [
            (0.5, 1.0, 2.0, 1e-2, (40, 0.009973557010035819), (5, 0.007978845608028654)),
            (0.9, 0.9, 1.0, 1e-2, (208, 0.009984028510747348), (7, 0.00955867048238589)),
            (0.3, 1.0, 5.0, 1e-3, (353, 0.0009986991803216491), (14, 0.0008993388026876073)),
        ],
    )
    def test_carrier_cutoffs_and_tails(self, monkeypatch, nu, beta, t, tol, density, cdf):
        # (K, tail_bound) of the density carrier, c K^{1 - 2 beta}/(2 beta - 1),
        # and of the CDF carrier, c K^{-2 beta}/(2 beta); c = Gamma(1+nu) t^-nu 2^beta/pi
        # of the plain series, the second route (math.inf points forces it)
        built = []
        monkeypatch.setattr(fractional, "cosine_law", lambda *a: built.append(cosine_law(*a)) or built[-1])
        fractional._space_time_law(nu, beta, t, Tolerance(tol), False, math.inf).density(1.0)
        fractional._space_time_law(nu, beta, t, Tolerance(tol), True, math.inf).cdf(1.0)
        assert [(law.n_terms, law.tail_bound) for law in built] == [density, cdf]

    def test_low_beta_pointwise_refused(self):
        with pytest.raises(ConvergenceError, match="space_time_fractional_cdf"):
            space_time_fractional_density(0.5, 0.5, 0.0, 1.0, TOL6)

    def test_cdf_structure(self):
        # even law: mass below pi is exactly 1/2; full mass is 1
        assert space_time_fractional_cdf(0.5, 0.5, math.pi, 1.0, TOL3) == pytest.approx(
            0.5, abs=1e-14
        )
        assert space_time_fractional_cdf(0.5, 0.5, TWO_PI, 1.0, TOL3) == pytest.approx(
            1.0, abs=1e-12
        )
        assert space_time_fractional_cdf(0.5, 0.5, 0.0, 1.0, TOL3) == 0.0

    def test_cdf_monotone(self):
        th = np.linspace(0.0, TWO_PI, 41)
        F = space_time_fractional_cdf(0.5, 0.5, th, 1.0, TOL3)
        assert np.all(np.diff(F) > -1e-9)

    def test_cdf_delegations_match_density_level(self):
        a = space_time_fractional_cdf(1.0, 0.7, 1.3, 0.9, TOL6)
        assert a == space_fractional_law(0.7, 0.9, TOL6).cdf(1.3)

    def test_cdf_domain(self):
        with pytest.raises(DomainError):
            space_time_fractional_cdf(0.5, 0.5, -0.5, 1.0, TOL3)
        with pytest.raises(DomainError):
            space_time_fractional_cdf(0.5, 0.5, TWO_PI + 0.5, 1.0, TOL3)


class TestWorkBlocks:
    # the long carriers are built, and their Mittag-Leffler coefficients
    # evaluated, by blocks of special._WORK (harmonic imports it); values and
    # refusals are those of any other block size
    def _long_series(self):
        grid = np.linspace(0.0, TWO_PI, 64)
        xs = -np.geomspace(1e-3, 1e4, 3 * 2**10 + 5)  # contour and asymptotic entries
        # the plain series, the second route
        law = fractional._time_fractional_law(1, 0.5, 1.0, Tolerance(1e-5), math.inf)  # K = 28 210
        return [
            mittag_leffler_many(0.6, xs),
            mittag_leffler_many(0.6, xs, Tolerance(1e-13)),  # every entry on the contour
            law.cos_coeffs,
            law.density(grid),
            law.cdf(np.r_[grid, 0.3, 2.0]),
            fractional._space_time_law(0.6, 0.7, 0.5, Tolerance(3e-7), True, math.inf).cdf(grid),  # K = 27 818
        ]

    def test_values_do_not_depend_on_the_block(self, monkeypatch):
        default = self._long_series()
        monkeypatch.setattr(circlaw.special, "_WORK", 2**10)
        monkeypatch.setattr(circlaw.harmonic, "_WORK", 2**10)
        for got, want in zip(self._long_series(), default):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("block", [2**10, 2**14])
    def test_refusal_names_the_same_floor(self, monkeypatch, block):
        # every coefficient is certified before the carrier returns
        monkeypatch.setattr(circlaw.special, "_WORK", block)
        monkeypatch.setattr(circlaw.harmonic, "_WORK", block)
        with pytest.raises(ConvergenceError) as refused:
            time_fractional_law(3, 0.9, 0.01, Tolerance(1e-14))
        assert str(refused.value) == "Mittag-Leffler contour rounding floor 2.1e-14 exceeds tol=1e-14"


def test_long_carrier_memory_stays_within_four_arrays():
    # K = 235 854 coefficients: the carrier's own two arrays and one block of
    # work, where whole-array temporaries peaked at ten K-length arrays
    nu, beta, t, tol = 0.348729, 0.48068, 0.855397, Tolerance(2.97365e-06)
    # the plain series, the second route
    K = fractional._space_time_law(nu, beta, t, tol, True, math.inf).n_terms
    assert K == 235_854
    tracemalloc.start()
    try:
        fractional._space_time_law(nu, beta, t, tol, True, math.inf).cdf(np.linspace(0.0, TWO_PI, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * K

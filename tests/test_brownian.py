"""Circular Brownian motion tests: dual routes, Von Mises comparison,
quadrant bound, maximal distance, first passage."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate
from scipy.special import ive

from circlaw import ConvergenceError, DomainError, Tolerance, brownian
from circlaw.brownian import (
    BmLaw,
    bm_density_wrapped,
    bm_first_passage_density,
    bm_law,
    bm_maxdist_cdf,
    bm_quadrant_prob,
    von_mises_density,
    von_mises_density_series,
    von_mises_matched_kappa,
)
from circlaw.harmonic import TWO_PI, HarmonicLaw
from circlaw.pseudo import even_circle_law


def theta_series(theta, t, terms=8):
    # (1/2pi)(1 + 2 sum_k e^{-k^2 t/2} cos k theta), directly; at t >= 100 the
    # first dropped term is below e^{-3200}
    k = np.arange(1, terms + 1)
    return (1.0 + 2.0 * np.cos(np.multiply.outer(theta, k)) @ np.exp(-k * k * t / 2.0)) / TWO_PI


def survival_eigen(theta, t):
    # eigenfunction route for the double-barrier survival probability,
    # independent of the reflection series used in the module
    s = 0.0
    for k in range(300):
        e = (2 * k + 1) ** 2 * math.pi**2 * t / (8.0 * theta * theta)
        if e > 700.0:
            break
        s += (4.0 / ((2 * k + 1) * math.pi)) * (-1) ** k * math.exp(-e)
    return s


class TestBmLaw:
    def test_coefficients(self):
        law = bm_law(1.0)
        assert law.representation.a0 == pytest.approx(1.0 / TWO_PI, abs=1e-15)
        a = law.representation.cos_coeffs
        assert a[0] == pytest.approx(math.exp(-0.5) / math.pi, abs=1e-15)
        assert np.all(a > 0.0) and np.all(np.diff(a) < 0.0)
        assert law.representation.tail_bound < 1e-10

    def test_mass(self):
        assert bm_law(0.7).cdf(TWO_PI) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("t", [1.5e-4, 0.05, 1.0, 20.0])
    def test_is_the_order_two_law_at_half_time(self, t):
        # e^{-k^2 t/2}/pi are the n = 1 coefficients at time t/2, cut by one tail
        rep, law = bm_law(t).representation, even_circle_law(1, t / 2.0)
        assert (rep.n_terms, rep.tail_bound) == (law.n_terms, law.tail_bound)
        assert np.array_equal(rep.cos_coeffs, law.cos_coeffs)
        assert np.array_equal(rep.sin_coeffs, law.sin_coeffs)

    def test_invariant_enforced(self):
        rep = HarmonicLaw(
            a0=1.0 / TWO_PI,
            cos_coeffs=np.array([0.1, 0.2]),  # increasing: not a BM carrier
            sin_coeffs=np.zeros(2),
            tail_bound=0.0,
        )
        with pytest.raises(DomainError):
            BmLaw(t=1.0, representation=rep)

    def test_validation(self):
        with pytest.raises(DomainError):
            bm_law(0.0)


class TestBmDensity:
    def test_center_value(self):
        # wrap corrections to 1/sqrt(2 pi) are < 1e-8 at t=1
        assert bm_law(1.0).density(0.0) == pytest.approx(0.39894228, abs=1e-8)

    def test_against_mpmath_wrap(self):
        mp.mp.dps = 30
        for theta, t in ((0.0, 1.0), (1.3, 0.4), (math.pi, 2.5)):
            oracle = float(
                sum(
                    mp.e ** (-((mp.mpf(theta) + 2 * mp.pi * m) ** 2) / (2 * t))
                    for m in range(-60, 61)
                )
                / mp.sqrt(2 * mp.pi * t)
            )
            assert bm_law(t).density(theta) == pytest.approx(oracle, abs=1e-11)

    @pytest.mark.parametrize("t", [0.02, 0.2, 1.0, 5.0, 50.0])
    def test_routes_agree(self, t):
        th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        gap = np.max(np.abs(bm_law(t).density(th) - bm_density_wrapped(th, t)))
        assert gap < 1e-10

    @pytest.mark.parametrize("tol", [1e-10, 1e-6])
    def test_wrapped_tail_is_certified_at_large_t(self, tol):
        # the image count bounds the whole dropped tail; counting only the
        # nearest dropped image missed by 1.2e-9 (tol 1e-10) and 1.8e-5
        # (tol 1e-6) at t = 1e6
        th = np.array([0.0, 1.0, math.pi, 5.5])
        for t in (1e2, 1e4, 1e6):
            wrapped = bm_density_wrapped(th, t, Tolerance(abs_tol=tol))
            assert np.max(np.abs(wrapped - theta_series(th, t))) <= tol

    def test_image_budget_refusal_names_images(self):
        with pytest.raises(
            ConvergenceError,
            match=r"^the cutoff needs more than 1000000 at tol=1e-10; these are image shells; "
            r"evaluate the series \(bm_law\)$",
        ):
            bm_density_wrapped(1.0, 1e14, Tolerance(1e-10))

    @pytest.mark.parametrize("t", [1.5e3, 1e4, 1e6])
    def test_underflowed_coefficients_accepted(self, t):
        # e^{-t/2}/pi underflows to 0 past t ~ 1500; the law is the uniform one
        tol = Tolerance()
        assert abs(bm_law(t, tol).density(1.0) - 1.0 / TWO_PI) <= tol.abs_tol

    def test_uniform_limit(self):
        assert bm_law(200.0).density(1.0) == pytest.approx(1.0 / TWO_PI, abs=1e-12)

    def test_periodicity(self):
        law = bm_law(1.0)
        assert law.density(-math.pi) == pytest.approx(law.density(math.pi), abs=1e-14)

    def test_everywhere_positive_unit_mass(self):
        th = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        law = bm_law(0.5)
        assert np.min(law.density(th)) > 0.0
        mass, _ = integrate.quad(law.density, 0.0, TWO_PI, limit=100)
        assert mass == pytest.approx(1.0, abs=1e-10)


class TestVonMises:
    def test_uniform_at_zero_concentration(self):
        assert von_mises_density(1.7, 0.0) == pytest.approx(1.0 / TWO_PI, abs=1e-15)

    def test_center_value(self):
        v = von_mises_density(0.0, 1.0)
        # I_0(1) = 1.2660658777520084, frozen from mpmath.besseli(0, 1)
        assert v == pytest.approx(math.e / (TWO_PI * 1.2660658777520084), rel=1e-11)
        assert v == pytest.approx(0.34171, abs=5e-6)

    def test_series_route_matches_exponential(self):
        assert von_mises_density_series(1.2, 2.0) == pytest.approx(
            von_mises_density(1.2, 2.0), abs=1e-9
        )

    @pytest.mark.parametrize("kappa", [0.5, 5.0, 50.0, 1000.0])
    def test_series_route_grid(self, kappa):
        th = np.linspace(0.0, TWO_PI, 17)
        gap = np.max(
            np.abs(von_mises_density_series(th, kappa) - von_mises_density(th, kappa))
        )
        assert gap < 1e-9

    @pytest.mark.parametrize("kappa", [0.0, 1e-6, 0.5, 5.0, 50.0, 1e3, 1e4])
    @pytest.mark.parametrize("tol", [1e-4, 1e-10])
    def test_series_route_within_tol(self, kappa, tol):
        # the carrier's tail r_K rho_K / (pi (1 - rho_K)) certifies the
        # truncation; 1e-12 covers the rounding of both routes near the peak
        th = np.linspace(-math.pi, math.pi, 41)
        series = von_mises_density_series(th, kappa, Tolerance(abs_tol=tol))
        assert np.max(np.abs(series - von_mises_density(th, kappa))) <= tol + 1e-12

    def test_amos_ratio_bound(self):
        # rho_k bounds I_{k+1}/I_k from above, so the tail is a geometric series
        k = np.arange(0, 400)
        for kappa in np.geomspace(1e-6, 1e4, 41):
            i = ive(k, kappa)
            kept = i[1:] > 0.0
            ratio = i[1:][kept] / i[:-1][kept]
            rho = kappa / (k[:-1][kept] + 0.5 + np.hypot(kappa, k[:-1][kept] + 0.5))
            assert np.all(ratio <= rho)

    def test_large_concentration_no_overflow(self):
        v = von_mises_density(0.0, 1000.0)
        assert math.isfinite(v) and v > 10.0

    def test_unit_mass(self):
        mass, _ = integrate.quad(lambda x: von_mises_density(x, 3.0), 0.0, TWO_PI)
        assert mass == pytest.approx(1.0, abs=1e-10)

    def test_validation(self):
        with pytest.raises(DomainError):
            von_mises_density(0.0, -1.0)

    @pytest.mark.parametrize("kappa", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("density", [von_mises_density, von_mises_density_series])
    def test_bad_kappa_refused(self, density, kappa):
        # NaN passes a kappa < 0 guard; both routes must refuse it
        with pytest.raises(DomainError, match="kappa"):
            density(0.0, kappa)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, [0.0, math.nan]])
    @pytest.mark.parametrize("density", [von_mises_density, von_mises_density_series])
    def test_bad_theta_refused(self, density, theta):
        # NaN passes through cos; both routes must refuse it
        with pytest.raises(DomainError, match="theta"):
            density(theta, 1.0)


class TestVonMisesComparison:
    def test_matched_kappa_moment(self):
        from scipy.special import ive

        for t in (0.5, 1.0, 2.0):
            kap = von_mises_matched_kappa(t)
            assert ive(1, kap) / ive(0, kap) == pytest.approx(
                math.exp(-t / 2.0), abs=1e-13
            )

    def test_matched_kappa_regression(self):
        assert von_mises_matched_kappa(1.0) == pytest.approx(
            1.5427747222273704, abs=1e-10
        )

    @pytest.mark.parametrize("t", np.geomspace(1e-300, 1e3, 31).tolist())
    def test_matched_kappa_finite_at_every_time(self, t):
        # the bracket 2/(1 - e^{-t/2}) divided by zero below t ~ 1e-16
        kappa = von_mises_matched_kappa(t)
        assert math.isfinite(kappa) and kappa > 0.0

    def test_matched_kappa_past_the_largest_double_refused(self):
        with pytest.raises(DomainError, match="largest double"):
            von_mises_matched_kappa(5e-324)

    @pytest.mark.parametrize("t", [1e-4, 4.9e-4, 5e-4, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e3])
    def test_matched_kappa_against_mpmath(self, t):
        # the float64 moment match fixes kappa to a relative ~eps/t, worst near
        # the expansion's switch t = 5e-4 (5.6e-13 measured at t = 1e-3); below
        # it the expansion is within 2e-14, and at t >= 100 the ratio is k/2
        with mp.workdps(40):
            tt = mp.mpf(t)
            start = 1 / tt if t < 1 else (2 * mp.exp(-tt / 2) if t > 20 else mp.mpf(1))
            exact = mp.findroot(lambda k: mp.besseli(1, k) / mp.besseli(0, k) - mp.exp(-tt / 2), start)
            assert float(abs(von_mises_matched_kappa(t) - exact) / exact) <= 1e-12

    @pytest.mark.parametrize("t", [100.0, 200.0, 700.0])
    def test_matched_kappa_at_tiny_kappa_within_four_ulps(self, t):
        # kappa ~ 2 e^{-t/2}, where scipy's ive ratio errs by ~6e-15: the root
        # read 3.5e-15 (t = 100) and 2.5e-14 (t = 700) off with it
        with mp.workdps(40):
            tt = mp.mpf(t)
            exact = mp.findroot(
                lambda k: mp.besseli(1, k) / mp.besseli(0, k) - mp.exp(-tt / 2), 2 * mp.exp(-tt / 2)
            )
            kappa = von_mises_matched_kappa(t)
            assert abs(kappa - exact) <= 4 * np.spacing(kappa)

    @pytest.mark.parametrize("t", np.geomspace(5e-4, 1e3, 25).tolist())
    def test_matched_kappa_is_a_float_zero(self, t):
        # the ratio moves in steps of an ulp, so the root is where the float
        # gap is 0 or changes sign between kappa and a neighbouring double
        from scipy.special import ive

        def gap(k):
            return ive(1, k) / ive(0, k) - math.exp(-t / 2.0)

        k = von_mises_matched_kappa(t)
        g = gap(k)
        assert g == 0.0 or any(gap(np.nextafter(k, d)) * g <= 0.0 for d in (0.0, math.inf))

    def test_matched_kappa_agrees_with_brentq(self):
        # the float ratio wobbles by an ulp or so about its trend, so two exact
        # bracketing methods can stop on different sign changes a few ulps
        # apart (at most 7 measured for t in [1, 50]); both solve with the
        # ratio taken as k/2 below k = 1e-8 (from t ~ 37 on)
        from scipy.optimize import brentq
        from scipy.special import ive

        def ratio(k):
            return k / 2.0 if k < 1e-8 else ive(1, k) / ive(0, k)

        for t in np.geomspace(1.0, 50.0, 40).tolist():
            target = math.exp(-t / 2.0)
            hi = max(4.0, 2.0 / -math.expm1(-t / 2.0))
            ref = brentq(lambda k: ratio(k) - target, 0.0, hi,
                         xtol=1e-300, rtol=4.0 * np.finfo(float).eps, maxiter=500)
            assert abs(von_mises_matched_kappa(t) - ref) <= 8 * np.spacing(ref)

    def test_sup_gap_regression(self):
        # no closed target exists: the sup distance between the moment-matched
        # Von Mises curve and the Brownian law is a frozen diagnostic
        frozen = {0.5: 0.0434275957, 1.0: 0.0416599520, 2.0: 0.0199921358}
        th = np.linspace(0.0, TWO_PI, 2049)
        for t, want in frozen.items():
            kap = von_mises_matched_kappa(t)
            gap = np.max(np.abs(bm_law(t).density(th) - von_mises_density(th, kap)))
            assert gap == pytest.approx(want, abs=1e-7)

    def test_both_centered(self):
        # circular mean 0: both densities even around the origin
        th = np.linspace(0.1, TWO_PI / 2, 7)
        law = bm_law(1.0)
        assert np.allclose(law.density(th), law.density(TWO_PI - th), atol=1e-13)
        kap = von_mises_matched_kappa(1.0)
        assert np.allclose(
            von_mises_density(th, kap), von_mises_density(TWO_PI - th, kap), atol=1e-13
        )


class TestQuadrantProb:
    def test_against_quadrature(self):
        val, _ = integrate.quad(bm_law(1.0).density, -math.pi / 2, math.pi / 2)
        assert bm_quadrant_prob(1.0) == pytest.approx(val, abs=1e-9)

    def test_against_cdf_route(self):
        law = bm_law(1.0)
        alt = law.cdf(math.pi / 2) + 1.0 - law.cdf(3 * math.pi / 2)
        assert bm_quadrant_prob(1.0) == pytest.approx(alt, abs=1e-10)

    def test_limits(self):
        assert bm_quadrant_prob(200.0) == pytest.approx(0.5, abs=1e-12)
        assert bm_quadrant_prob(0.01) == pytest.approx(1.0, abs=1e-12)

    def test_is_a_probability(self):
        # the rounded sum passed 1 by up to 3.1e-15 at 80 of these 400 times
        vals = [bm_quadrant_prob(float(t)) for t in np.geomspace(1e-7, 100.0, 400)]
        assert 0.0 <= min(vals) and max(vals) <= 1.0

    def test_exponential_bound(self):
        for t in np.linspace(0.21, 10.0, 40):
            bound = 0.5 + (2.0 / math.pi) * math.exp(-t / 2.0)
            assert bm_quadrant_prob(float(t)) <= bound + 1e-15

    def test_validation(self):
        with pytest.raises(DomainError):
            bm_quadrant_prob(-1.0)

    def test_small_t_takes_the_images_at_once(self, monkeypatch):
        # at t = 1e-12 the series would need more than MAX_TERMS terms; the
        # images answer with two, and no series term is formed
        probes = []
        term = brownian._quadrant_term
        monkeypatch.setattr(brownian, "_quadrant_term", lambda t, k: probes.append(k) or term(t, k))
        for t in (1e-12, 1e-10, 1e-300):
            assert bm_quadrant_prob(t) == 1.0
        assert probes == []

    def test_routes_agree(self):
        for t in np.linspace(0.5, 10.0, 200):
            assert brownian._quadrant_images(float(t)) == pytest.approx(bm_quadrant_prob(float(t)), abs=1e-15)

    def test_routes_meet_at_the_switch(self):
        t0 = brownian._QUAD_BOUND_T0
        # one ulp of t moves P by ~1e-19: the two routes' values there agree
        assert bm_quadrant_prob(t0) == pytest.approx(bm_quadrant_prob(math.nextafter(t0, 1.0)), abs=2.3e-16)


# the alternating sums' doubles: a change to where they stop, to the order
# of their additions or to how a term is formed moves them; the quadrant
# probability at t = 1e-6 and 0.01 is the image sum's
PINNED = {
    (bm_quadrant_prob, (1e-6,)): 1.0,
    (bm_quadrant_prob, (0.01,)): 1.0,
    (bm_quadrant_prob, (1.0,)): 0.8837724827278828,
    (bm_quadrant_prob, (50.0,)): 0.5000000000088414,
    (bm_quadrant_prob, (200.0,)): 0.5,
    (bm_maxdist_cdf, (1.0, 1.0)): 0.3707774297995238,
    (bm_maxdist_cdf, (2.0, 0.5)): 0.9906445300379054,
    (bm_maxdist_cdf, (math.pi, 0.01)): 1.0,
    (bm_maxdist_cdf, (0.5, 3.0)): 4.73628713863406e-07,
    (bm_maxdist_cdf, (0.3, 0.01)): 0.9946004078734796,
    (bm_first_passage_density, (1.0, 1.0)): 0.45736522563392,
    (bm_first_passage_density, (0.5, 0.2)): 2.3391765372658018,
    (bm_first_passage_density, (math.pi, 5.0)): 0.083467625441493,
    (bm_first_passage_density, (2.0, 0.05)): 6.063673024660734e-16,
}


@pytest.mark.parametrize(
    "call, want", PINNED.items(), ids=[f"{f.__name__}{args}" for f, args in PINNED]
)
def test_series_values_pinned(call, want):
    f, args = call
    assert f(*args) == want


class TestMaxdistCdf:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, math.pi])
    @pytest.mark.parametrize("t", [0.3, 1.0, 3.0])
    def test_against_eigen_route(self, theta, t):
        assert bm_maxdist_cdf(theta, t) == pytest.approx(
            survival_eigen(theta, t), abs=1e-12
        )

    def test_regression_values(self):
        assert bm_maxdist_cdf(1.0, 1.0) == pytest.approx(0.3707774297995239, abs=1e-12)
        assert bm_maxdist_cdf(2.0, 0.5) == pytest.approx(0.9906445300379056, abs=1e-12)

    def test_limits(self):
        assert bm_maxdist_cdf(math.pi, 0.01) == pytest.approx(1.0, abs=1e-14)
        assert bm_maxdist_cdf(0.001, 1.0) == 0.0

    def test_monotone_grid(self):
        ths = np.linspace(0.3, math.pi, 10)
        ts = np.linspace(0.1, 5.0, 10)
        F = np.array([[bm_maxdist_cdf(float(a), float(b)) for b in ts] for a in ths])
        assert np.all(np.diff(F, axis=0) >= -1e-12)  # nondecreasing in theta
        assert np.all(np.diff(F, axis=1) <= 1e-12)  # nonincreasing in t

    def test_validation(self):
        for bad in ((0.0, 1.0), (3.5, 1.0), (1.0, 0.0)):
            with pytest.raises(DomainError):
                bm_maxdist_cdf(*bad)


class TestFirstPassage:
    def test_matches_cdf_derivative(self):
        h = 1e-5
        cd = (bm_maxdist_cdf(1.0, 1.0 - h) - bm_maxdist_cdf(1.0, 1.0 + h)) / (2 * h)
        assert bm_first_passage_density(1.0, 1.0) == pytest.approx(cd, abs=1e-6)

    def test_regression_value(self):
        assert bm_first_passage_density(1.0, 1.0) == pytest.approx(
            0.45736522563392, abs=1e-11
        )

    def test_complement_identity(self):
        total, _ = integrate.quad(
            lambda s: bm_first_passage_density(1.0, s),
            0.0,
            50.0,
            points=[0.1, 0.3, 1.0, 5.0, 20.0],
            limit=200,
        )
        assert total == pytest.approx(1.0 - bm_maxdist_cdf(1.0, 50.0), abs=1e-8)

    def test_small_t_line_form(self):
        # both barriers contribute at small t: the density tends to TWICE
        # the one-sided line first-passage closed form (the r=0 term alone
        # equals it; the r=+-1 terms retain an equal e^{-theta^2/2t} piece)
        for t in (0.01, 0.005):
            one_sided = math.exp(-1.0 / (2 * t)) / math.sqrt(TWO_PI * t**3)
            assert bm_first_passage_density(1.0, t) / one_sided == pytest.approx(
                2.0, abs=1e-12
            )

    def test_nonnegative_grid(self):
        for theta in (0.5, 1.0, 2.0, math.pi):
            for t in np.geomspace(0.01, 20.0, 40):
                assert bm_first_passage_density(theta, float(t)) >= 0.0

    def test_validation(self):
        for bad in ((0.0, 1.0), (4.0, 1.0), (1.0, -0.5)):
            with pytest.raises(DomainError):
                bm_first_passage_density(*bad)

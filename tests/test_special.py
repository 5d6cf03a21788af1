"""Special-function tests against independent oracles.

Oracle values are frozen from high-precision series / quadrature
computed independently of the implementation under test.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import erfcx, rgamma

from circlaw import (
    ConvergenceError,
    DomainError,
    RngStream,
    Tolerance,
    line_density_third,
    mittag_leffler,
    mittag_leffler_many,
    sample_stable_subordinator,
    time_fractional_law,
)
from circlaw.special import _rgamma, _upper_gamma
from oracles import line_density_gamma


def airy_ai(x):
    # (3 t)^(-1/3) = 1 exactly at t = 1/3, so the third-order line solution is Ai
    return line_density_third(x, 1.0 / 3.0)


def ml_reference(nu, y, dps=40):
    """Independent Mittag-Leffler oracle: the entire series in high precision.

    Digit demand grows like y**(1/nu); callers must stay in the
    tractable range (enforced below to fail fast instead of hanging).
    """
    guard = int(0.5 * y ** (1.0 / nu))
    assert guard < 500, "series oracle intractable here; pick a different oracle"
    with mp.workdps(dps + guard):
        total = mp.mpf(0)
        j = 0
        jpeak = y ** (1.0 / nu) / nu
        while True:
            term = (-mp.mpf(y)) ** j / mp.gamma(1 + mp.mpf(nu) * j)
            total += term
            if j > jpeak and abs(term) < mp.mpf(10) ** (-dps):
                break
            j += 1
        return float(total)


def ml_reference_spectral(nu, y):
    """Second independent oracle for the deep tail: mpmath quadrature of the
    complete-monotonicity integral (different engine, 30 digits),

        E_nu(-y) = (sin nu pi/(nu pi)) int_0^inf exp(-(y v)^(1/nu)) / (v^2 + 2 v cos nu pi + 1) dv,

    in v = s/y, so that nothing overflows, with breakpoints around the
    cutoff v ~ 1/y and the peak v = -cos nu pi (nu > 1/2)."""
    with mp.workdps(30):
        nu_, y_ = mp.mpf(nu), mp.mpf(y)
        cn = mp.cos(nu_ * mp.pi)

        def f(v):
            log_arg = mp.log(y_ * v) / nu_ if v > 0 else -mp.inf
            damp = mp.exp(-mp.exp(log_arg)) if log_arg < 7 else 0  # e^-1096 past it
            return damp / (v * v + 2 * v * cn + 1)

        cuts = {mp.mpf(0), 1 / (2 * y_), 1 / y_, 2 / y_, mp.mpf(1), mp.inf}
        if 0 < -cn < 1:
            cuts.add(-cn)
        val = mp.quad(f, sorted(cuts))
        return float(mp.sin(nu_ * mp.pi) / (nu_ * mp.pi) * val)


class TestMittagLeffler:
    def test_exponential_branch(self):
        assert mittag_leffler(1.0, -1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_at_zero(self):
        assert mittag_leffler(0.7, 0.0) == 1.0

    @pytest.mark.parametrize("nu", [0.3, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("x", [0.0, -1e-300, -50.0, -1e6])
    def test_scalar_is_entry_zero_of_the_array_call(self, nu, x):
        assert mittag_leffler(nu, x) == mittag_leffler_many(nu, [x])[0]

    def test_half_order_erfc_identity_value(self):
        # E_{1/2}(-1) = e * erfc(1); frozen from the quadrature oracle below
        assert mittag_leffler(0.5, -1.0) == pytest.approx(0.4275835761558070, abs=1e-10)

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_half_order_erfc_identity(self, x):
        # erfc by an independent quadrature, not the library erfc
        tail, _ = integrate.quad(lambda u: math.exp(-u * u), x, np.inf, epsabs=1e-14)
        erfc_x = 2.0 / math.sqrt(math.pi) * tail
        target = math.exp(x * x) * erfc_x
        assert mittag_leffler(0.5, -x) == pytest.approx(target, abs=1e-9)

    @pytest.mark.parametrize(
        "nu, y",
        [
            (0.3, 0.5), (0.3, 2.0), (0.3, 5.0),
            (0.5, 0.5), (0.5, 5.0), (0.5, 17.0),
            (0.7, 0.5), (0.7, 5.0), (0.7, 20.0), (0.7, 50.0),
            (0.9, 5.0), (0.9, 20.0), (0.9, 80.0), (0.9, 160.0),
            (0.95, 20.0), (0.95, 80.0), (0.95, 200.0),
        ],
    )
    def test_against_high_precision_series(self, nu, y):
        assert mittag_leffler(nu, -y) == pytest.approx(ml_reference(nu, y), abs=1e-10)

    @pytest.mark.parametrize("y", [50.0, 80.0, 300.0, 5000.0])
    def test_deep_tail_half_order(self, y):
        # E_{1/2}(-y) = e^{y^2} erfc(y), computed stably by scipy's erfcx
        assert mittag_leffler(0.5, -y) == pytest.approx(float(erfcx(y)), abs=1e-11)

    @pytest.mark.parametrize("nu, y", [(0.3, 300.0), (0.8, 300.0), (0.9, 1000.0)])
    def test_deep_tail_spectral_oracle(self, nu, y):
        assert mittag_leffler(nu, -y) == pytest.approx(ml_reference_spectral(nu, y), abs=1e-10)

    def test_near_one_mid_range(self):
        # the corner that defeats naive min-term asymptotics
        for y in (10.0, 15.0, 30.0):
            assert mittag_leffler(0.9, -y) == pytest.approx(ml_reference(0.9, y), abs=1e-10)
            assert mittag_leffler(0.999, -y) == pytest.approx(ml_reference(0.999, y), abs=1e-10)

    def test_monotone_in_x(self):
        for nu in (0.2, 0.5, 0.8, 1.0):
            xs = [-8.0, -4.0, -2.0, -1.0, -0.5, -0.1, 0.0]
            vals = [mittag_leffler(nu, x) for x in xs]
            assert all(a < b for a, b in zip(vals, vals[1:]))
            assert vals[-1] == 1.0
            assert all(0.0 < v <= 1.0 for v in vals)

    @pytest.mark.parametrize(
        "nu, y, expect",
        [
            # y**(1/nu) overflows a float: asymptotic and spectral regimes;
            # oracle: 30-digit mpmath quadrature of the spectral integral
            # in sigma = y s, where nothing overflows
            (0.01, 2000.0, 0.00049683422388431561558),
            (0.005, 40.0, 0.024321197600155241244),
            (0.001, 4.0, 0.19990758252957499205),
            (0.003, 10.0, 0.090765580490040009828),
        ],
    )
    def test_small_order_overflow(self, nu, y, expect):
        assert mittag_leffler(nu, -y) == pytest.approx(expect, abs=1e-12)

    def test_former_fallback_inputs_by_value(self):
        # y**(1/nu) overflows at (0.01, 2000) and puts a power series' peak
        # past any term budget at (0.5, 1e4)
        assert mittag_leffler(0.01, -2000.0) == pytest.approx(
            0.00049683422388431561558, abs=1e-12
        )
        assert mittag_leffler(0.5, -1e4) == pytest.approx(float(erfcx(1e4)), abs=1e-12)

    @pytest.mark.parametrize(
        "nu, y, oracle",
        [(0.5, 1e4, lambda: float(erfcx(1e4))), (0.1, 2000.0, lambda: ml_reference_spectral(0.1, 2000.0))],
    )
    def test_below_the_deep_tail_floor(self, nu, y, oracle):
        # tol under the asymptotic sum's 2.5e-12 floor sends deep entries to
        # the contour; the spectral integral's integrand exp(-t s^(1/nu))
        # peaks near s = 0 here, at t = y^(1/nu) ~ 1e33
        tol = Tolerance(1e-13)
        assert abs(mittag_leffler(nu, -y, tol) - oracle()) <= tol.abs_tol

    def test_integer_argument(self):
        # an int x must not reach a float-only ufunc (numpy UFuncTypeError)
        assert mittag_leffler(0.5, -50) == mittag_leffler(0.5, -50.0)
        assert mittag_leffler(0.5, -50) == pytest.approx(float(erfcx(50.0)), abs=1e-12)

    def test_numpy_scalar_never_warns(self):
        # y**(1/nu) as a numpy power would leak "overflow encountered in
        # scalar power"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = mittag_leffler(0.01, np.float64(-2000.0))
        assert value == pytest.approx(0.00049683422388431561558, abs=1e-12)

    def test_unreachable_tol_refused(self):
        # the contour's rounding floor near y -> 0 is ~3e-14: a tighter tol
        # raises rather than returning an uncertified value, while the deep
        # entries the floor does not touch still answer
        with pytest.raises(ConvergenceError, match="rounding floor"):
            mittag_leffler(0.5, -0.1, Tolerance(1e-15))
        assert abs(mittag_leffler(0.5, -1e4, Tolerance(1e-15)) - erfcx(1e4)) <= 1e-15
        with pytest.raises(ConvergenceError, match="nodes"):
            mittag_leffler(0.5, -1.0, Tolerance(1e-300))

    @settings(max_examples=60, deadline=None)
    @given(
        nu=st.one_of(st.just(0.5), st.floats(1e-6, 1.0 - 1e-6)),
        log_y=st.floats(-6.0, 6.0),
        log_tol=st.floats(-13.0, -3.0),
    )
    def test_contract(self, nu, log_y, log_tol):
        # within tol of an independent oracle, or refused; a scalar call is
        # its array entry bit for bit
        y, tol = 10.0**log_y, Tolerance(10.0**log_tol)
        try:
            value = mittag_leffler(nu, -y, tol)
        except ConvergenceError:
            return
        oracle = float(erfcx(y)) if nu == 0.5 else ml_reference_spectral(nu, y)
        assert abs(value - oracle) <= tol.abs_tol
        assert mittag_leffler_many(nu, [-2.0 * y, -y, -y - 60.0], tol)[1] == value

    @pytest.mark.parametrize("nu", [0.0, -0.5, 1.2, math.nan])
    @pytest.mark.parametrize(
        "call",
        [
            lambda nu: mittag_leffler(nu, -1.0),
            lambda nu: mittag_leffler_many(nu, [-1.0]),
            lambda nu: sample_stable_subordinator(nu, 1.0, RngStream(0)),
            lambda nu: time_fractional_law(2, nu, 1.0),
        ],
        ids=["ml", "ml_many", "stable_subordinator", "time_fractional_law"],
    )
    def test_one_unit_exponent_check(self, call, nu):
        # errors._check_unit: the same refusal wherever an exponent nu is taken
        with pytest.raises(DomainError, match=r"^nu must lie in \(0, 1\]$"):
            call(nu)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.0, -1.0)
        with pytest.raises(DomainError):
            mittag_leffler(1.2, -1.0)
        with pytest.raises(DomainError):
            mittag_leffler(0.5, 0.5)

    def test_vectorized_matches_scalar(self):
        xs = -np.array([0.0, 0.3, 2.0, 7.0, 60.0, 150.0, 2000.0])
        for nu in (0.4, 0.75, 1.0):
            many = mittag_leffler_many(nu, xs)
            one = [mittag_leffler(nu, float(x)) for x in xs]
            np.testing.assert_allclose(many, one, atol=1e-11)


class TestAiryAi:
    def test_at_zero(self):
        # 3^(-2/3) / Gamma(2/3)
        target = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
        assert airy_ai(0.0) == pytest.approx(target, abs=1e-12)
        assert airy_ai(0.0) == pytest.approx(0.35502805, abs=1e-8)

    def test_at_one_series_oracle(self):
        # Maclaurin oracle: Ai(x) = c1 f(x) - c2 g(x)
        c1 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
        c2 = 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)
        x = 1.0
        f_val, f_term = 0.0, 1.0
        g_val, g_term = 0.0, x
        for k in range(0, 40):
            f_val += f_term
            g_val += g_term
            f_term *= x**3 / ((3 * k + 2) * (3 * k + 3))
            g_term *= x**3 / ((3 * k + 3) * (3 * k + 4))
        target = c1 * f_val - c2 * g_val
        assert airy_ai(1.0) == pytest.approx(target, abs=1e-12)
        assert airy_ai(1.0) == pytest.approx(0.13529242, abs=1e-8)

    def test_positive_axis_decay(self):
        a4, a5 = airy_ai(4.0), airy_ai(5.0)
        assert 0.0 < a5 < a4

    @pytest.mark.parametrize("x", [-10.0, -7.3, -2.0, -0.5, 0.3, 2.5, 6.0, 10.0])
    def test_against_mpmath(self, x):
        assert airy_ai(x) == pytest.approx(float(mp.airyai(x)), abs=1e-11)

    def test_loose_tolerance_extends_range(self):
        # deep on the oscillating side, where a contour integral loses digits
        for x in (-20.0, -40.0):
            assert airy_ai(x) == pytest.approx(float(mp.airyai(x)), abs=1e-12)


class TestGenGamma:
    """The generalized gamma law G (shape p, rate t) behind line_density_gamma."""

    def test_density_normalizes(self):
        # int sin(x g)/(pi x) dx = 1 for every g > 0, so the line law's mass is
        # the mass of G's density
        mass, _ = integrate.quad(
            lambda x: line_density_gamma(4, x, 0.7), -40.0, 40.0, limit=400
        )
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_mean_matches_quadrature(self):
        # the x = 0 limit is a E[G] / pi
        p, t = 3, 1.3
        a = math.cos(math.pi / 6.0)
        mean, _ = integrate.quad(
            lambda g: g * p * g ** (p - 1) * t * math.exp(-(g**p) * t), 0.0, np.inf
        )
        assert math.pi * line_density_gamma(p, 0.0, t) / a == pytest.approx(mean, abs=1e-10)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            line_density_gamma(0, 1.0, 1.0)
        with pytest.raises(DomainError):
            line_density_gamma(3, 1.0, -2.0)


class TestGammaHelpers:
    """special._rgamma and special._upper_gamma against 40-digit values."""

    def test_rgamma_conventions(self):
        # scipy's rgamma: 0 at the poles and where Gamma overflows, +-inf
        # where 1/Gamma passes the largest double (Gamma(-180.3) is -0.0)
        for x in (0.0, -1.0, -7.0, -180.0, -1e300, 172.0, 1e300):
            assert _rgamma(x) == rgamma(x) == 0.0
        for x in (-180.3, -181.3, -177.5):
            assert _rgamma(x) == rgamma(x) and math.isinf(_rgamma(x))

    def test_rgamma_against_mpmath(self):
        # the arguments 1 - nu j of the Mittag-Leffler asymptotic sum; scipy's
        # own rgamma is up to ~8 ulp off there too, so the two differ by up
        # to ~10 ulp and neither is held to the other
        xs = {float(x) for x in (1.0 - np.outer(np.linspace(0.05, 0.95, 19), np.arange(1, 201))).ravel()}
        with mp.workdps(40):
            for x in sorted(xs - {float(round(x)) for x in xs}):
                exact = 1 / mp.gamma(x)
                if abs(exact) < 1e300:
                    assert abs(_rgamma(x) - exact) <= 8 * math.ulp(float(exact)), x

    def test_upper_gamma_against_mpmath(self):
        # the series below x = s + 1 and the continued fraction above, with
        # both sides of the switch
        worst = 0.0
        with mp.workdps(40):
            for s in np.linspace(0.5, 10.0, 20).tolist():
                xs = np.geomspace(1e-3, 500.0, 30).tolist() + [math.nextafter(s + 1.0, 0.0), s + 1.0]
                for x in xs:
                    exact = mp.gammainc(s, x)
                    worst = max(worst, float(abs(_upper_gamma(s, x) - exact) / exact))
        assert worst <= 1e-13

    def test_upper_gamma_edges(self):
        assert _upper_gamma(0.7, 0.0) == math.gamma(0.7)
        assert _upper_gamma(2.0, math.inf) == 0.0
        # x^s alone passes the largest double; the value underflows to 0
        assert _upper_gamma(10.0, 1e40) == 0.0


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.abs_tol == 1e-10

    def test_validation(self):
        with pytest.raises(DomainError):
            Tolerance(abs_tol=0.0)

    @pytest.mark.parametrize("abs_tol", [math.inf, math.nan])
    def test_non_finite_refused(self, abs_tol):
        # an infinite target put t_bar at ln 2 (positivity_time), not t_bar_4
        with pytest.raises(DomainError, match="finite"):
            Tolerance(abs_tol=abs_tol)

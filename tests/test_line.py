"""Line-solution tests: closed forms, cross-route equivalence, quadrature oracles."""

import math
import re
import tracemalloc
import warnings
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import special as sps

import circlaw.line
import circlaw.special
from circlaw import (
    ConvergenceError,
    DomainError,
    bm_density_wrapped,
    bm_law,
    even_circle_density_wrapped,
    even_circle_law,
    min_value,
    odd_circle_density_wrapped,
    odd_kernel_density,
    odd_kernel_law,
    wrapped_skew_cauchy_density,
)
from circlaw.harmonic import TWO_PI
from circlaw.line import (
    _GL_SIZES,
    _gauss_legendre,
    _bisect,
    _centred,
    _rotation,
    line_density_even,
    line_density_odd,
    line_density_third,
    skew_cauchy_density,
)
from circlaw.pseudo import _budget_shells
from circlaw.special import DEFAULT_TOL, Tolerance
from oracles import line_density_gamma, mp_even_line, mp_odd_saddle


def gaussian_kernel(x, t):
    # closed form for order 2: heat kernel of d/dt u = d^2/dx^2 u
    return math.exp(-x * x / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


class TestOrderParams:
    """The order p is the line layer's only parameter; it fixes the rotation pair."""

    def test_even_constants(self):
        # even orders carry no rotation: (a, b) = (1, 0)
        assert _rotation(4) == (1.0, 0.0)

    def test_odd_constants(self):
        a, b = _rotation(3)
        assert a == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-15)
        assert b == pytest.approx(0.5, abs=1e-15)
        assert a**2 + b**2 == pytest.approx(1.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            line_density_even(0, 0.0, 1.0)
        with pytest.raises(DomainError):
            line_density_gamma(1, 0.5, 1.0)
        with pytest.raises(DomainError):
            skew_cauchy_density(0, 0.0, 1.0)


class TestLineDensityEven:
    def test_gaussian_at_origin(self):
        # 1/(2 sqrt(pi))
        val = line_density_even(1, 0.0, 1.0)
        assert val == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-12)
        assert val == pytest.approx(0.28209479, abs=1e-8)

    @pytest.mark.parametrize("x", [-3.0, -0.7, 0.0, 0.4, 1.0, 2.5])
    @pytest.mark.parametrize("t", [0.3, 1.0, 4.0])
    def test_matches_gaussian_closed_form(self, x, t):
        val = line_density_even(1, x, t)
        assert val == pytest.approx(gaussian_kernel(x, t), abs=1e-12)

    def test_fourth_order_at_origin(self):
        # (1/pi) int e^{-xi^4} dxi = Gamma(5/4)/pi = 0.288516869...
        val = line_density_even(2, 0.0, 1.0)
        assert val == pytest.approx(math.gamma(1.25) / math.pi, abs=1e-12)
        assert val == pytest.approx(0.28851687, abs=1e-8)

    def test_fourth_order_sign_varying(self):
        # first sign change sits near x ~ 3.4 for t = 1
        val = line_density_even(2, 4.0, 1.0)
        assert val < 0.0
        oracle, _ = integrate.quad(
            lambda xi: math.cos(4.0 * xi) * math.exp(-(xi**4)), 0.0, 10.0, limit=200
        )
        assert val == pytest.approx(oracle / math.pi, abs=1e-10)

    def test_symmetry(self):
        for x in (0.3, 1.1, 2.0):
            assert line_density_even(3, x, 1.0) == pytest.approx(
                line_density_even(3, -x, 1.0), abs=1e-14
            )

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_unit_mass(self, n, t):
        mass, _ = integrate.quad(
            lambda x: line_density_even(n, x, t), -40.0, 40.0, limit=400
        )
        # finite-window mass oscillates around 1 for the sign-varying orders
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_heat_equation_residual(self):
        # n=1: d/dt u - d^2/dx^2 u = 0 by central differences at (0.3, 1)
        n = 1
        x, t, h = 0.3, 1.0, 1e-4
        du_dt = (line_density_even(n, x, t + h) - line_density_even(n, x, t - h)) / (2 * h)
        d2u_dx2 = (
            line_density_even(n, x + h, t)
            - 2 * line_density_even(n, x, t)
            + line_density_even(n, x - h, t)
        ) / (h * h)
        assert du_dt - d2u_dx2 == pytest.approx(0.0, abs=1e-5)

    def test_t_floor(self):
        with pytest.raises(ConvergenceError):
            line_density_even(1, 0.0, 1e-8)

    def test_rejects_odd_params(self):
        # n indexes the order 2n, so it must be a positive integer
        with pytest.raises(DomainError):
            line_density_even(1.5, 0.0, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_quadrature_error_enforced(self, monkeypatch):
        # the certificate refuses, with no raw warning, where it cannot hold:
        # a scaled x that overflows leaves no certifiable ray tail
        with pytest.raises(ConvergenceError, match="ray tail"):
            line_density_even(1, 1e308, 1e-6)
        # and where no Gauss rule up to the largest size meets the target
        monkeypatch.setattr(circlaw.line, "_SIZE_TABLE", np.array([8, 12, 0]))
        for x in (0.0, 1.0):
            with pytest.raises(ConvergenceError, match="no Gauss rule up to 12 nodes"):
                line_density_even(2, x, 1.0)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 4), t=st.floats(1e-3, 1e2), x=st.floats(-1e3, 1e3))
    def test_finite_symmetric_and_on_the_gamma_route(self, n, t, x):
        try:
            u = line_density_even(n, x, t)
        except ConvergenceError:
            return
        assert math.isfinite(u)
        assert line_density_even(n, -x, t) == u
        if abs(x) <= 40.0 and t >= 0.3:
            assert u == pytest.approx(line_density_gamma(2 * n, x, t), abs=1e-9)


class TestLineDensityEvenGamma:
    """The gamma route at even order p = 2n, against the cosine transform."""

    def test_route_equivalence_gaussian(self):
        assert line_density_gamma(2, 1.0, 1.0) == pytest.approx(
            line_density_even(1, 1.0, 1.0), abs=1e-7
        )

    def test_sign_symmetric(self):
        assert line_density_gamma(4, -1.3, 1.0) == pytest.approx(
            line_density_gamma(4, 1.3, 1.0), abs=1e-14
        )

    @pytest.mark.parametrize("x", [0.25, 0.5, 1.0, 2.0, 3.5])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_route_equivalence_grid(self, x, t):
        assert line_density_gamma(4, x, t) == pytest.approx(
            line_density_even(2, x, t), abs=1e-7
        )

    def test_specific_point(self):
        assert line_density_gamma(4, 0.5, 2.0) == pytest.approx(
            line_density_even(2, 0.5, 2.0), abs=1e-7
        )

    def test_zero_rejected(self):
        # x = 0 is not refused as a 0/0: it is the limit Gamma(1 + 1/p) t^(-1/p) / pi
        for n, t in ((1, 1.0), (2, 0.7)):
            assert line_density_gamma(2 * n, 0.0, t) == pytest.approx(
                line_density_even(n, 0.0, t), abs=1e-12
            )


class TestLineDensityThird:
    def test_prefactor_unity(self):
        # t = 1/3 makes (3t)^(1/3) = 1
        assert line_density_third(0.0, 1.0 / 3.0) == pytest.approx(0.35502805, abs=1e-8)

    def test_against_mpmath(self):
        for x, t in [(0.0, 1.0), (1.0, 1.0), (-2.0, 0.5), (4.0, 2.0)]:
            scale = (3.0 * t) ** (-1.0 / 3.0)
            target = scale * float(mp.airyai(x * scale))
            assert line_density_third(x, t) == pytest.approx(target, abs=1e-11)

    def test_subnormal_time_keeps_its_values_unwarned(self):
        # (3t)^(-1/3) = 6.9e107 at t = 5e-324 puts zeta past 1e161, where
        # zeta^2 would overflow; the expansion's 1/zeta^2 is below 1e-308 there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = line_density_third(np.array([-1.0, -3.0, 0.5]), 5e-324)
            one = line_density_third(-1.0, 5e-324)
        assert vals.tolist() == [-2.019493733316055e80, 1.3886724250691248e80, 0.0]
        assert one == vals[0]

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_mass_window_regression(self):
        # The [-30, 30] window misses the oscillatory left tail (envelope
        # ~ |x|^(-1/4)); the window mass is a frozen regression value, not 1.
        mass, _ = integrate.quad(
            lambda x: line_density_third(x, 1.0), -30.0, 30.0, limit=800
        )
        assert mass == pytest.approx(0.9784810678, abs=1e-6)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_mass_approaches_one_in_larger_windows(self):
        # window masses oscillate around 1; the honest decay statement is
        # about the per-lobe envelope, so compare max deficits over a full
        # oscillation near each cutoff. The closed-form Airy integral gives
        # the mass of [cut, 30]; one mpmath tail patch below -30 ties it to
        # the quadrature of line_density_third.
        s = (3.0) ** (-1.0 / 3.0)

        def window_mass(cut):
            # int_cut^30 s Ai(s x) dx = int_0^{30 s} Ai + int_0^{-cut s} Ai(-y) dy
            return sps.itairy(30.0 * s)[0] + sps.itairy(-cut * s)[2]

        m30, _ = integrate.quad(
            lambda x: line_density_third(x, 1.0), -30.0, 30.0, limit=800
        )
        patch = float(mp.quad(lambda x: s * mp.airyai(x * s), [-34.0, -30.0]))
        assert window_mass(-34.0) == pytest.approx(m30 + patch, abs=1e-10)

        def deficit(cut):
            return abs(window_mass(cut) - 1.0)

        near = max(deficit(c) for c in np.linspace(-34.0, -30.0, 9))
        far = max(deficit(c) for c in np.linspace(-64.0, -60.0, 9))
        assert far < near
        assert far < 0.04

    @pytest.mark.parametrize("t", [1.0, 1e-3])
    def test_adjacent_doubles_agree_within_the_phase_bound(self, t):
        # at zeta ~ 1e6 each value is within (2^-53 + 4 eps (zeta + 1)) of
        # the envelope s/(sqrt(pi) z^{1/4}) from Ai at its own double, and
        # Ai moves by at most ~1.5 eps zeta of it over one ulp of x, so
        # adjacent doubles agree to 10 eps zeta of it. A phase that rounding
        # set (from zeta ~ 1/(4 eps) on) would break this at any zeta
        s = (3.0 * t) ** (-1.0 / 3.0)
        eps = np.finfo(float).eps
        x = [-(1.5e6 ** (2.0 / 3.0)) / s]
        for _ in range(8):
            x.append(np.nextafter(x[-1], 0.0))
        vals = line_density_third(np.array(x), t)
        z = -np.array(x) * s
        zeta = 2.0 * z**1.5 / 3.0
        envelope = s / (math.sqrt(math.pi) * z**0.25)
        assert np.all(np.abs(np.diff(vals)) <= envelope[1:] * (2.0**-52 + 10.0 * eps * (zeta[1:] + 1.0)))

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_far_field_against_mpmath(self, t):
        # past the switch point the expansion of Ai(-z), with the terms of
        # each point's tier, is exact to 2^-53 of the envelope
        # s/(sqrt(pi) z^{1/4}); the float phase zeta adds at most 4 eps zeta
        # of it. Up to z = 1e6, and on both sides of every term-count switch.
        # The oracle takes the same float argument.
        s = (3.0 * t) ** (-1.0 / 3.0)
        eps = np.finfo(float).eps
        starts = [z for _, z in circlaw.line._AIRY_TIERS]
        zs = list(np.geomspace(1.0001 * starts[-1], 1e6, 25))
        for z0 in starts[:-1]:
            zs += [z0 * (1.0 - 1e-9), np.nextafter(z0, 0.0), z0, z0 * (1.0 + 1e-9)]
        with mp.workdps(40):
            for x in -np.array(zs) / s:
                z = -(x * s)
                zeta = 2.0 * z**1.5 / 3.0
                envelope = s / (math.sqrt(math.pi) * z**0.25)
                target = s * float(mp.airyai(-mp.mpf(z)))
                err = abs(line_density_third(x, t) - target)
                assert err <= envelope * (2.0**-53 + 4.0 * eps * (zeta + 1.0)), z

    def test_switch_points_from_their_bounds(self):
        # each tier's J terms meet the bound from its start z_J on, and not
        # short of it; the last start is the switch from the core
        remainder = circlaw.line._airy_remainder
        assert [J for J, _ in circlaw.line._AIRY_TIERS] == [2, circlaw.line._AIRY_TERMS]
        for J, zJ in circlaw.line._AIRY_TIERS:
            assert remainder(zJ, J) <= 2.0**-53
            assert remainder(0.999 * zJ, J) > 2.0**-53
        z0 = circlaw.line._AIRY_SWITCH
        assert z0 == circlaw.line._AIRY_TIERS[-1][1]
        # continuous across the switch: expansion and scipy's Airy meet there
        for z in (np.nextafter(z0, 0.0), z0, np.nextafter(z0, 20.0)):
            expansion = circlaw.line._airy_oscillating(np.array([z]))[0]
            assert expansion == pytest.approx(sps.airy(-z)[0], abs=1e-15)
        # the line density on both sides of the switch stays on the oracle
        s = 3.0 ** (-1.0 / 3.0)
        mp.mp.dps = 30
        x0 = -z0 / s
        for x in (x0 * (1.0 + 1e-9), np.nextafter(x0, -20.0), x0, np.nextafter(x0, 0.0), x0 * (1.0 - 1e-9)):
            target = s * float(mp.airyai(mp.mpf(x * s)))
            assert line_density_third(x, 1.0) == pytest.approx(target, abs=1e-15)
        # from the underflow point on the value is 0; the core meets it with
        # values below tiny, as scipy's Airy does
        y0, tiny = circlaw.line._AIRY_ZERO, np.finfo(float).tiny
        x0 = y0 / s if (y0 / s) * s >= y0 else np.nextafter(y0 / s, math.inf)
        assert line_density_third(x0, 1.0) == 0.0
        assert 0.0 < circlaw.line._airy_core(np.array([np.nextafter(y0, 0.0)]))[0] < tiny
        assert 0.0 < sps.airy(0.99 * y0)[0] and sps.airy(y0)[0] < tiny

    def test_core_against_mpmath(self):
        # the Maclaurin series (|y| <= 3) and the Gauss-Laguerre quadrature
        # beyond it, over the whole core, against 30-digit values
        lo, hi = -circlaw.line._AIRY_SWITCH, circlaw.line._AIRY_ZERO
        y = np.concatenate([np.linspace(lo, hi, 2401)[1:-1], np.linspace(-3.5, 3.5, 701)])
        with mp.workdps(30):
            target = np.array([float(mp.airyai(v)) for v in y.tolist()])
        assert np.max(np.abs(circlaw.line._airy_core(y) - target)) <= 5e-15

    @pytest.mark.parametrize("edge", [-3.0, 3.0])
    def test_core_is_continuous_across_the_series_switch(self, edge):
        # the last series point and the first quadrature point each meet the
        # 30-digit value, so the switch leaves no step above 5e-15
        y = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0 * edge)])
        vals = circlaw.line._airy_core(y)
        with mp.workdps(30):
            target = [float(mp.airyai(v)) for v in y.tolist()]
        assert np.max(np.abs(vals - target)) <= 5e-15
        assert abs(vals[2] - vals[1]) <= 5e-15

    def test_core_values_do_not_depend_on_the_batch(self):
        # each value is a row reduction of its own: a grid equals its scalar calls
        x = np.linspace(-20.0, 80.0, 257)
        assert line_density_third(x, 0.7).tolist() == [line_density_third(float(v), 0.7) for v in x]

    def test_signs(self):
        assert line_density_third(5.0, 1.0) > 0.0
        assert line_density_third(5.0, 1.0) < 1e-2
        # oscillation on the negative side: sign changes between Airy zeros
        assert line_density_third(-5.0, 1.0) < 0.0 < line_density_third(-6.0, 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [1.0, 1e-10])
    def test_far_oscillating_side_is_zero_within_the_envelope(self, t):
        # from z = _AIRY_PHASE on the phase zeta = 2 z^{3/2}/3 passes the
        # largest double: the value is 0, within the envelope
        # (|P| + |Q|)/(sqrt(pi) z^{1/4}) with |P| + |Q| < 2 there; just
        # short of it the expansion answers within the same envelope
        scale = (3.0 * t) ** (-1.0 / 3.0)
        edge = circlaw.line._AIRY_PHASE
        x = np.array([-1e206, -1e300, -1.7e308, -np.nextafter(edge, 0.0) / scale])
        vals = line_density_third(x, t)
        assert np.all(vals[:3] == 0.0) and vals[3] != 0.0
        with np.errstate(over="ignore"):
            z = -x * scale
        assert np.all(np.abs(vals) <= scale * 2.0 / (math.sqrt(math.pi) * z**0.25))
        assert np.all(np.abs(vals) < scale * 1e-51)
        assert vals.tolist() == [line_density_third(float(v), t) for v in x]


class TestLineDensityOddGamma:
    @pytest.mark.parametrize("x", [-3.0, -1.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_matches_airy_route(self, x, t):
        val = line_density_gamma(3, x, t)
        assert val == pytest.approx(line_density_third(x, t), abs=1e-6)

    def test_asymmetric(self):
        plus = line_density_gamma(3, 1.0, 1.0)
        minus = line_density_gamma(3, -1.0, 1.0)
        assert abs(plus - minus) > 1e-3

    def test_asymmetry_decreases_with_order(self):
        gaps = []
        for n in (1, 2, 5, 10):
            p = 2 * n + 1
            gaps.append(abs(line_density_gamma(p, 0.7, 1.0) - line_density_gamma(p, -0.7, 1.0)))
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))

    def test_cancellation_budget(self):
        with pytest.raises(ConvergenceError):
            line_density_gamma(3, -75.0, 1.0)

    def test_zero_limit_value(self):
        # x -> 0 limit equals a_n Gamma(1 + 1/(2n+1)) t^(-1/(2n+1)) / pi
        a, _ = _rotation(3)
        lim = line_density_gamma(3, 0.0, 1.0)
        target = a * math.gamma(1.0 + 1.0 / 3.0) / math.pi
        assert lim == pytest.approx(target, abs=1e-14)
        assert line_density_gamma(3, 1e-5, 1.0) == pytest.approx(lim, abs=1e-4)

    def test_zero_rejected(self):
        # x = 0 is not refused as a 0/0: it is the limit, continuous from both
        # sides, also where the x-scaled tolerance underflows
        lim = line_density_gamma(5, 0.0, 0.7)
        for x in (-1e-6, 1e-6, -5e-324, 5e-324):
            assert line_density_gamma(5, x, 0.7) == pytest.approx(lim, abs=1e-5)


def mp_odd_line(p, x, t, digits=30):
    """u_p(x, t) = E[e^{-bxG} sin(axG)] / (pi x) by mpmath, to `digits` digits.

    The gamma representation cancels like e^{b|x|G} at x < 0, so the
    working precision is raised by the peak of that growth.
    """
    x, t = mp.mpf(x), mp.mpf(t)
    with mp.workdps(digits + 10):
        a, b = mp.cos(mp.pi / (2 * p)), mp.sin(mp.pi / (2 * p))
        if x == 0:
            return float(a * mp.gamma(1 + mp.mpf(1) / p) * t ** (-mp.mpf(1) / p) / mp.pi)
        pull = max(-b * x, 0)
        grow = pull * (pull / (p * t)) ** (mp.mpf(1) / (p - 1))
    with mp.workdps(digits + 10 + int(grow / 2.3)):
        a, b = mp.cos(mp.pi / (2 * p)), mp.sin(mp.pi / (2 * p))

        def f(g):
            return mp.exp(-b * x * g - g**p * t) * mp.sin(a * x * g) * p * g ** (p - 1) * t

        # past g_max the integrand is below 10^-(digits + 10) of its peak
        g_max = mp.mpf(1)
        while t * g_max**p + b * x * g_max < grow + 2.3 * (digits + 10) + 5:
            g_max *= 1.1
        pieces = int(abs(a * x) * g_max / (2 * mp.pi)) + 2
        val = mp.quad(f, mp.linspace(0, g_max, pieces + 1), method="gauss-legendre")
        return float(val / (mp.pi * x))


class TestLineDensityOdd:
    """The one odd line kernel: Airy at n = 1, certified contour quadrature at n >= 2."""

    def test_n1_is_the_airy_route(self):
        x = np.array([-4e4, -300.0, -12.0, -1.0, 0.0, 2.0, 200.0])
        assert np.array_equal(line_density_odd(1, x, 0.7), line_density_third(x, 0.7))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_whole_window_against_mpmath(self, n, t):
        # both signs across the n >= 2 wrapped window, x = -90 at t = 1
        # included, where the gamma route was off by 1.4e-2
        M = _budget_shells(n, t)
        edge = (2 * M + 1) * math.pi
        xs = list(np.linspace(-edge, edge, 5)) + ([-90.0] if t == 1.0 else [])
        vals = line_density_odd(n, np.array(xs), t)
        for x, v in zip(xs, vals):
            assert abs(v - mp_odd_line(2 * n + 1, x, t)) <= DEFAULT_TOL.abs_tol

    def test_tight_tolerance_is_met(self):
        tol = Tolerance(abs_tol=1e-13)
        for x in (-60.0, -3.0, 0.0, 1.5, 40.0):
            assert line_density_odd(2, x, 1.0, tol) == pytest.approx(
                mp_odd_line(5, x, 1.0), abs=1e-13
            )

    def test_scalar_equals_array_entry(self):
        xs = np.array([-70.0, -0.3, 0.0, 5.0])
        vals = line_density_odd(3, xs, 0.8)
        for x, v in zip(xs, vals):
            assert line_density_odd(3, float(x), 0.8) == v

    @pytest.mark.parametrize("n", [2, 3])
    def test_mixed_batch_at_the_contour_switch_equals_its_scalar_calls(self, n):
        # x < 0 takes the saddle ray, x >= 0 (-0.0 included) the two-term
        # ray; at -5e-324 the saddle xi0 underflows to 0, so both contours
        # give u(0) there to within tol
        x = np.array([-1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0])
        vals = line_density_odd(n, x, 0.7)
        assert vals.tolist() == [line_density_odd(n, float(v), 0.7) for v in x]
        assert abs(vals[1] - vals[3]) <= DEFAULT_TOL.abs_tol

    def test_refuses_what_no_rule_certifies(self):
        # the real-axis leg to the saddle carries ~|x|^{5/4} radians of phase
        with pytest.raises(ConvergenceError, match="no Gauss rule"):
            line_density_odd(2, -1e5, 1.0)


_SCALED_X = [0.0, 1e-3, 1.0, 10.0, 60.0, 400.0]


@lru_cache(maxsize=None)
def _unit_time_oracle(oracle, p, X):
    """oracle's 30-digit u_p(X, 1) at the scaled point X, cached for the whole test run.

    u_p(x, t) = t^{-1/p} u_p(x t^{-1/p}, 1), so the t = 0.5 and t = 2 cases
    of a scaled point share one value. The point x = X t^{1/p} they are
    checked at scales back to X within a few ulps, which moves the
    reference by at most 5.4e-16 where the tolerance is 1e-13 (3.4e-15 at
    the saddle ray's X = -400, checked at 1e-11).
    """
    with mp.workdps(30):
        return mp.mpf(oracle(p, X, 1.0)) if oracle is mp_odd_line else oracle(p, X)


class TestTwoTermRay:
    """The ray from xi0 = 0 at a tolerance of 1e-13 against 30-digit values:
    every point at even p, x >= 0 at odd p, over scaled x = x t^{-1/p}."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_even_orders_against_mpmath(self, n, t):
        p, tol = 2 * n, Tolerance(1e-13)
        root = t ** (1.0 / p)
        for X in _SCALED_X:
            x = X * root
            with mp.workdps(30):
                scale = mp.mpf(t) ** (mp.mpf(1) / p)
                want = float(_unit_time_oracle(mp_even_line, p, X) / scale)
            assert abs(line_density_even(n, x, t, tol) - want) <= tol.abs_tol, X

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_odd_orders_against_mpmath(self, n, t):
        p, tol = 2 * n + 1, Tolerance(1e-13)
        root = t ** (1.0 / p)
        for X in _SCALED_X:
            x = X * root
            with mp.workdps(30):
                scale = mp.mpf(t) ** (mp.mpf(1) / p)
                want = float(_unit_time_oracle(mp_odd_line, p, X) / scale)
            assert abs(line_density_odd(n, x, t, tol) - want) <= tol.abs_tol, X


class TestSaddleRay:
    """The real leg and the saddle ray (x < 0 at odd p) at a tolerance of
    1e-13 against 30-digit values, over scaled x = x t^{-1/p}. The real
    leg's rounding charge grows like |X| xi0^2: at X = -400 it puts the
    floor above half the target, the call refuses, and the value is
    checked at 1e-11 instead."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_against_mpmath(self, n, t):
        p, refused = 2 * n + 1, []
        root = t ** (1.0 / p)
        for X in (-1e-3, -1.0, -10.0, -60.0, -400.0):
            x = X * root
            with mp.workdps(30):
                scale = mp.mpf(t) ** (mp.mpf(1) / p)
                want = float(_unit_time_oracle(mp_odd_saddle, p, X) / scale)
            try:
                tol = Tolerance(1e-13)
                got = line_density_odd(n, x, t, tol)
            except ConvergenceError as exc:
                assert "rounding floor" in str(exc), X
                refused.append(X)
                tol = Tolerance(1e-11)
                got = line_density_odd(n, x, t, tol)
            assert abs(got - want) <= tol.abs_tol, X
        assert refused == [-400.0]

    def test_oracle_meets_the_gamma_route(self):
        # the contour oracle against the generalized-gamma one, both 30 digits
        for p, X in ((5, -10.0), (7, -60.0)):
            saddle = float(_unit_time_oracle(mp_odd_saddle, p, X))
            assert saddle == pytest.approx(mp_odd_line(p, X, 1.0), abs=1e-16)

    def test_the_real_leg_charge_alone_trips_the_rounding_floor(self):
        # at scaled x = -400, p = 5: the ray's charge eps (_ROUNDING (1 +
        # 2/(e sin psi)) + |f(xi0)|) J is below half of a 1e-13 target, and
        # with the real leg's eps _ROUNDING (xi0 + (|X| xi0^2/2 + xi0^6/6) /
        # _LEG_SPREAD) the call refuses and names the sum
        p, X, eps, k = 5, -400.0, np.finfo(float).eps, circlaw.line._ROUNDING
        psi, xi0 = math.pi / (2 * p), (-X / p) ** (1.0 / (p - 1))
        slopes = [math.comb(p, j) * xi0 ** (p - j) * math.sin(j * psi) for j in range(2, p + 1)]
        J = min(math.gamma(1 + 1 / j) * (2 / g) ** (1 / j) for j, g in zip(range(2, p + 1), slopes))
        ray = eps * (k * (1 + 2 / (math.e * math.sin(psi))) + abs(X * xi0 + xi0**p)) * J
        phase = (-X * xi0**2 / 2 + xi0 ** (p + 1) / (p + 1)) / circlaw.line._LEG_SPREAD
        leg = eps * k * (xi0 + phase)
        assert ray < 1e-13 / 2 < ray + leg
        with pytest.raises(ConvergenceError, match="rounding floor") as exc:
            line_density_odd(2, X, 1.0, Tolerance(1e-13))
        named = float(re.search(r"range ([0-9.e+-]+)\)", str(exc.value))[1])
        assert named == pytest.approx(ray + leg, rel=0.05)


def _sizing_calls(monkeypatch, p, X, target):
    """(length, log_target, terms, table, sizes) of every _rule_sizes call of
    one _contour_density call at the scaled points X, in call order: the
    two-term ray (X >= 0, every X at even p), then at odd p and X < 0 the
    real leg and the saddle ray, each over its points in batch order. A
    refusal after the sizing is let pass."""
    seen = []
    rule_sizes = circlaw.line._rule_sizes

    def spy(length, log_target, terms, table):
        sizes = rule_sizes(length, log_target, terms, table)
        seen.append((length, log_target, terms, table, sizes))
        return sizes

    with monkeypatch.context() as patch:
        patch.setattr(circlaw.line, "_rule_sizes", spy)
        try:
            circlaw.line._contour_density(p, np.asarray(X, dtype=float), target)
        except ConvergenceError:
            pass
    return seen


def _ray_rules(monkeypatch, p, X, target):
    """(S, log M, sizes) of every ray sizing call of one _contour_density
    call: each ray's length, its Bernstein-ellipse bound read from the
    order's table (points x rho) and its rule sizes; the real leg is left out."""
    return [
        (length, sum(np.outer(term, row) for term, row in zip(terms, table)), sizes)
        for length, _, terms, table, sizes in _sizing_calls(monkeypatch, p, X, target)
        if table is not circlaw.line._leg_table(p)
    ]


# the per-shell target of even_circle_density_wrapped at t = 1, default tol
_SHELL_TARGET = DEFAULT_TOL.abs_tol / 258.0


class TestContourRayBound:
    """The ray's Bernstein-ellipse bound: c_1 times the ellipse's depth below
    the real axis for the linear term, the sector argument for the rest."""

    @pytest.mark.parametrize("p", [4, 5, 6, 8])
    def test_bound_holds_on_every_ellipse(self, p, monkeypatch):
        far = [1.0, 10.0, 60.0, 400.0]
        X = np.array([0.0] + far + ([-x for x in far] if p % 2 else []))
        rules = _ray_rules(monkeypatch, p, X, _SHELL_TARGET)
        # one ray at even p, the two-term and the saddle ray at odd p
        assert len(rules) == 1 + p % 2
        xs = iter(X)
        rho = circlaw.line._RHO
        psi = math.pi / (2 * p) if p % 2 else math.pi / (4 * p)
        a = 1 if p % 2 else 1j
        tau = np.linspace(0.0, 2.0 * math.pi, 4097)
        for S, bound, _ in rules:
            half = S[:, None] / 2.0
            A = half * (rho + 1.0 / rho) / 2.0
            B = half * (rho - 1.0 / rho) / 2.0
            for i, x in zip(range(S.size), xs):
                # f(xi0 + z) - f(xi0) = sum_k c_k z^k about the odd-order saddle xi0
                xi0 = (max(-x, 0.0) / p) ** (1.0 / (p - 1))
                c = [max(x, 0.0)] + [a * math.comb(p, k) * xi0 ** (p - k) for k in range(2, p + 1)]
                for j in range(rho.size):
                    w = half[i, 0] + A[i, j] * np.cos(tau) + 1j * B[i, j] * np.sin(tau)
                    z = np.exp(1j * psi) * w
                    with np.errstate(over="ignore", invalid="ignore"):
                        f = sum(ck * z ** (k + 1) for k, ck in enumerate(c))
                        peak = np.max(-f.imag)
                    assert peak <= bound[i, j] + 1e-12 * abs(bound[i, j]), (x, rho[j])
        assert next(xs, None) is None

    @pytest.mark.parametrize("p", [4, 6])
    def test_far_shells_take_the_near_shell_rule(self, p, monkeypatch):
        # the linear term is charged by the ellipse's depth, not by
        # |X| B / sin psi: every shell of a default-tol call at theta = 1,
        # t = 1 takes the ray rule of X = 0 (96 nodes at p = 4, 128 at
        # p = 6), and at p = 6 so does X = 60
        M = circlaw.line._shell_count(p, 1.0, DEFAULT_TOL)
        shells = np.abs(1.0 + 2.0 * math.pi * np.arange(-M, M + 1))
        rules = _ray_rules(monkeypatch, p, np.append(shells, [0.0, 60.0]), _SHELL_TARGET)
        sizes = np.concatenate([s for _, _, s in rules])
        assert np.all(sizes[:-1] == sizes[-2])
        assert sizes[-2] == {4: 96, 6: 128}[p]
        if p == 6:
            assert sizes[-1] == sizes[-2]


def _closure_rule_sizes(length, log_m, log_target):
    """The contour kernel's rule sizing before its per-order tables, kept as
    the reference: log_m(A, B, D) bounds log M on each Bernstein ellipse of
    [0, length] from its semi-axes A, B and its reach D, minimized over rho."""
    line = circlaw.line
    half = length[:, None] / 2.0
    with np.errstate(all="ignore"):
        semi_axes = (half * line._MAJOR, half * line._MINOR, half * line._REACH)
        head = np.log(half) + line._LOG_64_15 + log_m(*semi_axes)
        need = np.min((head - line._LOG_RHO_SQ_1 - log_target) / line._TWO_LOG_RHO, axis=1)
    sizes = np.array(_GL_SIZES + (0,))
    return sizes[np.searchsorted(sizes[:-1], need)]


@pytest.mark.parametrize("p", [4, 5, 6, 7, 8])
def test_tables_size_every_rule_as_the_closures_did(p, monkeypatch):
    # each sizing call of the kernel (two-term ray; at odd p and X < 0 the
    # real leg and the saddle ray) against _closure_rule_sizes with the
    # bounds as closures over the points: the same size at every point
    X = np.concatenate([np.linspace(-400.0, 400.0, 801), [-1e-3, 1e-3, -0.0, 5e-324]])
    X = X if p % 2 else X[X >= 0.0]
    psi = math.pi / (2 * p) if p % 2 else math.pi / (4 * p)
    x, left = np.abs(X[X >= 0.0]), X[X < 0.0]
    xi0 = (-left / p) ** (1.0 / (p - 1))
    c = np.array([math.comb(p, k) * xi0 ** (p - k) for k in range(2, p + 1)])

    def two_term(S):
        def log_m(semi_major, semi_minor, reach):
            depth = np.hypot(semi_major * math.sin(psi), semi_minor * math.cos(psi))
            depth -= S[:, None] / 2.0 * math.sin(psi)
            return x[:, None] * np.maximum(depth, 0.0) + (semi_minor / math.sin(psi)) ** p

        return log_m

    def leg(semi_major, semi_minor, reach):
        z0 = xi0[:, None]
        return reach * (-left[:, None] + p * ((z0 + reach) ** (p - 1) - z0 ** (p - 1)))

    def saddle(semi_major, semi_minor, reach):
        r = semi_minor / math.sin(psi)
        return sum(c[k - 2][:, None] * r**k for k in range(2, p + 1) if c[k - 2].any())

    line = circlaw.line
    for target in (1e-6, 1e-8, 1e-10, _SHELL_TARGET, 1e-12, 1e-13):
        calls = _sizing_calls(monkeypatch, p, X, target)
        tables = [line._ray_table(p)] + ([line._leg_table(p), line._saddle_table(p)] if p % 2 else [])
        assert len(calls) == len(tables)
        assert all(call[3] is table for call, table in zip(calls, tables))
        for (length, log_target, _, _, sizes), log_m in zip(calls, (two_term, leg, saddle)):
            log_m = log_m(length) if log_m is two_term else log_m
            want = _closure_rule_sizes(length, log_m, log_target[:, None])
            assert sizes.tolist() == want.tolist(), target


def _words(a):
    """The float64 array a as int64 words, so that equality is bit for bit."""
    return np.asarray(a).view(np.int64).tolist()


class TestGaussLegendre:
    """The contour kernel's rules, built without scipy's roots_legendre."""

    @pytest.mark.parametrize("m", _GL_SIZES)
    def test_integrates_exp_to_rounding(self, m):
        v, w = _gauss_legendre(m)
        assert abs(np.sum(w * np.exp(v)) - math.expm1(1.0)) <= 3e-16

    # cos 40x swings through ~13 periods on [0, 1]: a 32-node rule still
    # misses it by 3.6e-16, so the smaller sizes cannot resolve it
    @pytest.mark.parametrize("m", [m for m in _GL_SIZES if m >= 48])
    def test_integrates_fast_oscillation_to_rounding(self, m):
        v, w = _gauss_legendre(m)
        assert abs(np.sum(w * np.cos(40.0 * v)) - math.sin(40.0) / 40.0) <= 3e-16

    def test_cached_rules_are_read_only(self):
        # every call shares one rule per size, so no caller may write into it
        for a in _gauss_legendre(_GL_SIZES[0]):
            assert not a.flags.writeable

    @pytest.mark.parametrize("m", _GL_SIZES)
    def test_nodes_match_scipy(self, m):
        # (x + 1)/2 of scipy's nodes is itself rounded on the scale of 1, so
        # the comparison is in ulps of 1/2
        v, w = _gauss_legendre(m)
        ref = (sps.roots_legendre(m)[0] + 1.0) / 2.0
        assert np.max(np.abs(v - ref)) <= np.spacing(0.5)
        assert np.all(np.diff(v) > 0.0) and math.fsum(w) == pytest.approx(1.0, abs=1e-15)


class TestRoot:
    """line._bisect: the least double of a bracket where a monotone condition holds."""

    def test_exact_zero_at_an_end_is_returned(self):
        calls = []

        def ok(x):
            calls.append(x)
            return x >= 0.0

        assert _bisect(ok, 0.0, 1.0) == 0.0 and calls == [0.0]
        assert _bisect(lambda x: x - 1.0 >= 0.0, 0.0, 1.0) == 1.0

    @pytest.mark.parametrize("c", [1e-300, 1e-20, 0.3, math.pi, 1e10])
    def test_last_bit_of_a_linear_root(self, c):
        # x - c >= 0 first holds at c exactly; the bracket closes on it
        assert _bisect(lambda x: x - c >= 0.0, 0.0, 2.0 * c + 1.0) == c

    def test_nearest_double_to_sqrt2(self):
        root = _bisect(lambda x: x * x >= 2.0, 1.0, 2.0)
        assert abs(root - math.sqrt(2.0)) <= np.spacing(math.sqrt(2.0))

    def test_flat_function_converges_with_the_bisection_safeguard(self):
        # (x - 0.7)^9 is flat near its zero, which slows secant steps; each
        # bisection halves the bracket whatever the slope (59 calls measured)
        calls = []

        def ok(x):
            calls.append(x)
            return (x - 0.7) ** 9 >= 0.0

        assert _bisect(ok, 0.0, 10.0) == 0.7 and len(calls) <= 250

    def test_same_signs_refused(self):
        # x^2 + 1 <= 0 fails at both ends
        with pytest.raises(ConvergenceError, match="fails over all of"):
            _bisect(lambda x: x * x + 1.0 <= 0.0, -1.0, 1.0)


class TestSkewCauchy:
    def test_mode_value(self):
        a, b = _rotation(3)
        t = 1.3
        assert skew_cauchy_density(1, -t * b, t) == pytest.approx(
            1.0 / (math.pi * t * a), abs=1e-14
        )

    def test_value_at_origin(self):
        # sqrt(3)/(2 pi) for n=1, t=1
        val = skew_cauchy_density(1, 0.0, 1.0)
        assert val == pytest.approx(math.sqrt(3.0) / (2.0 * math.pi), abs=1e-14)
        assert val == pytest.approx(0.27566444, abs=1e-8)

    def test_unit_mass(self):
        mass, _ = integrate.quad(
            lambda x: skew_cauchy_density(2, x, 0.7), -np.inf, np.inf
        )
        assert mass == pytest.approx(1.0, abs=1e-8)

    def test_rejects_even(self):
        # n indexes the odd order 2n + 1; a half-integer n would name an even one
        with pytest.raises(DomainError):
            skew_cauchy_density(0.5, 0.0, 1.0)

    def test_value_past_the_largest_double_refused(self):
        # at subnormal t the peak 1/(pi t a) passes the largest double; far
        # from the centre the values stay finite and are returned
        with pytest.raises(DomainError, match="passes the largest double"):
            skew_cauchy_density(1, 0.0, 1e-320)
        with pytest.raises(DomainError, match="passes the largest double"):
            wrapped_skew_cauchy_density(1, 0.0, 1e-320)
        assert 0.0 < skew_cauchy_density(1, 1.0, 1e-320) < 1e-300


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "call",
    [
        lambda: line_density_even(1, NAN, 1.0),
        lambda: line_density_even(1, INF, 1.0),
        lambda: line_density_even(2.5, 0.3, 1.0),
        lambda: line_density_gamma(3, INF, 1.0),
        lambda: line_density_gamma(3, 1.0, INF),
        lambda: line_density_gamma(3, 1.0, NAN),
        lambda: line_density_gamma(4, 1.0, INF),
        lambda: line_density_gamma(4, 1.0, NAN),
        lambda: line_density_gamma(3, 0.0, NAN),
        lambda: skew_cauchy_density(1, 0.0, INF),
        lambda: skew_cauchy_density(1, 0.0, NAN),
        lambda: skew_cauchy_density(1, NAN, 1.0),
        lambda: even_circle_density_wrapped(2, NAN, 1.0),
        lambda: even_circle_density_wrapped(2, INF, 1.0),
        lambda: odd_circle_density_wrapped(1, NAN, 1.0),
        lambda: odd_circle_density_wrapped(2, NAN, 1.0),
        lambda: even_circle_law(2, NAN),
        lambda: min_value(2, NAN),
        lambda: bm_density_wrapped(1.0, INF),
        lambda: wrapped_skew_cauchy_density(1, INF, 1.0),
    ],
    ids=[
        "even-x-nan", "even-x-inf", "even-n-2.5",
        "gamma-x-inf", "gamma-t-inf", "gamma-t-nan", "gamma-even-t-inf", "gamma-even-t-nan",
        "gamma-zero-t-nan", "skew-t-inf", "skew-t-nan", "skew-x-nan",
        "even-wrapped-theta-nan", "even-wrapped-theta-inf", "odd-wrapped-n1-theta-nan",
        "odd-wrapped-n2-theta-nan", "even-law-t-nan", "min-value-t-nan", "bm-wrapped-t-inf",
        "skew-wrapped-theta-inf",
    ],
)
def test_refuses_bad_arguments(call):
    """x and theta finite, 0 < t < inf on the line and wrapped routes, n a positive integer."""
    with pytest.raises(DomainError):
        call()


def test_series_laws_keep_the_uniform_limit():
    # at a huge finite t every coefficient underflows and the law is the uniform one
    assert even_circle_law(2, 1e300).density(1.0) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-15)
    assert min_value(2, 1e300) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-15)


# every public function of a time t, as a function of t alone; the
# space_fractional_density and wrapped_stable_density keys are their law's density
_TIME_BUILDERS = {
    "bm_law": lambda t: circlaw.bm_law(t),
    "bm_density_wrapped": lambda t: circlaw.bm_density_wrapped(1.0, t),
    "bm_quadrant_prob": lambda t: circlaw.bm_quadrant_prob(t),
    "bm_maxdist_cdf": lambda t: circlaw.bm_maxdist_cdf(1.0, t),
    "bm_first_passage_density": lambda t: circlaw.bm_first_passage_density(1.0, t),
    "von_mises_matched_kappa": lambda t: circlaw.von_mises_matched_kappa(t),
    "time_fractional_law": lambda t: circlaw.time_fractional_law(2, 0.5, t),
    "space_fractional_law": lambda t: circlaw.space_fractional_law(0.5, t),
    "space_fractional_density": lambda t: circlaw.space_fractional_law(0.5, t).density(1.0),
    "space_fractional_half_closed": lambda t: circlaw.space_fractional_half_closed(1.0, t),
    "wrapped_stable_law": lambda t: circlaw.wrapped_stable_law(0.5, t),
    "wrapped_stable_density": lambda t: circlaw.wrapped_stable_law(0.5, t).density(1.0),
    "space_time_fractional_density":
        lambda t: circlaw.space_time_fractional_density(0.5, 0.7, 1.0, t),
    "space_time_fractional_cdf": lambda t: circlaw.space_time_fractional_cdf(0.5, 0.5, 1.0, t),
    "even_circle_law": lambda t: circlaw.even_circle_law(2, t),
    "even_circle_density": lambda t: circlaw.even_circle_density(2, 1.0, t),
    "even_circle_density_wrapped": lambda t: circlaw.even_circle_density_wrapped(2, 1.0, t),
    "odd_circle_density_wrapped": lambda t: circlaw.odd_circle_density_wrapped(1, 1.0, t),
    "min_value": lambda t: circlaw.min_value(2, t),
    "even_kernel_density": lambda t: circlaw.even_kernel_density(1.0, t),
    "even_kernel_law": lambda t: circlaw.even_kernel_law(t),
    "even_kernel_cdf": lambda t: circlaw.even_kernel_cdf(1.0, t),
    "even_quadrant_prob": lambda t: circlaw.even_quadrant_prob(t),
    "odd_kernel_density": lambda t: circlaw.odd_kernel_density(1, 1.0, t),
    "odd_kernel_law": lambda t: circlaw.odd_kernel_law(1, t),
    "odd_kernel_cdf": lambda t: circlaw.odd_kernel_cdf(1, 1.0, t),
    "odd_half_circle_prob": lambda t: circlaw.odd_half_circle_prob(1, t),
    "wrapped_skew_cauchy_density": lambda t: circlaw.wrapped_skew_cauchy_density(1, 1.0, t),
    "kernel_limit_gap": lambda t: circlaw.kernel_limit_gap(1, t),
    "line_density_even": lambda t: line_density_even(2, 1.0, t),
    "line_density_odd": lambda t: line_density_odd(2, 1.0, t),
    "line_density_third": lambda t: line_density_third(1.0, t),
    "line_density_gamma": lambda t: line_density_gamma(3, 1.0, t),
    "skew_cauchy_density": lambda t: skew_cauchy_density(1, 1.0, t),
    "sample_wrapped_bm": lambda t: circlaw.sample_wrapped_bm(t, circlaw.RngStream(0)),
    "sample_stable_subordinator":
        lambda t: circlaw.sample_stable_subordinator(0.5, t, circlaw.RngStream(0)),
    "sample_inverse_subordinator":
        lambda t: circlaw.sample_inverse_subordinator(0.5, t, circlaw.RngStream(0)),
}


@pytest.mark.parametrize("t", [0.0, -1.0, NAN, INF])
@pytest.mark.parametrize("builder", _TIME_BUILDERS.values(), ids=_TIME_BUILDERS.keys())
def test_every_builder_refuses_bad_time(builder, t):
    """One rule for t across the package: 0 < t < inf, else DomainError."""
    with pytest.raises(DomainError, match="^t must be"):
        builder(t)


def test_orders_past_the_kernel_and_the_bound_are_refused():
    # the kernel forms C(p, k) as doubles and _line_bound a polynomial in
    # them; past their largest orders the calls name the limit instead of
    # raising a raw OverflowError
    for call in (lambda: line_density_even(600, 1.0, 1.0), lambda: line_density_odd(600, 1.0, 1.0)):
        with pytest.raises(ConvergenceError, match="the contour kernel takes orders up to p = 1029$"):
            call()
    with pytest.raises(ConvergenceError, match="the line bound takes orders up to p = 128$"):
        even_circle_density_wrapped(600, 1.0, 1.0)


_WRAPPED_ROUTES = {
    # 2M + 1 = 209, 101, 29 and 479 shells
    "bm": lambda th: bm_density_wrapped(th, 1e4),
    "even": lambda th: even_circle_density_wrapped(2, th, 1e4),
    "odd": lambda th: odd_circle_density_wrapped(2, th, 1.0),
    "skew-cauchy": lambda th: wrapped_skew_cauchy_density(1, th, 1.0),
}


@pytest.mark.parametrize("route", _WRAPPED_ROUTES.values(), ids=_WRAPPED_ROUTES.keys())
def test_image_sum_values_do_not_depend_on_blocks(route, monkeypatch):
    # line._image_sum reduces each row on its own: blocks of 64 entries (one
    # or two rows) give the default blocks' grid, and each scalar call its row
    th = np.linspace(-1.0, 7.0, 7)
    grid = route(th).tolist()
    monkeypatch.setattr(circlaw.line, "_WORK", 64)
    assert route(th).tolist() == grid
    assert [route(float(x)) for x in th] == grid


def _kernel_calls(monkeypatch):
    """The point count of every _contour_density call from here on, in call order."""
    calls = []
    kernel = circlaw.line._contour_density

    def counted(p, X, target):
        calls.append(X.size)
        return kernel(p, X, target)

    monkeypatch.setattr(circlaw.line, "_contour_density", counted)
    return calls


@pytest.mark.parametrize("N, calls", [(16, [435]), (512, [4096, 4096, 4096, 2531])])
def test_odd_grid_takes_one_kernel_call_per_batch(N, calls, monkeypatch):
    # work guard: the n = 2 window at t = 1.2 (29 shells) over a CLI grid's
    # 15 or 511 distinct angles goes to the kernel in batches of
    # _WORK // (p - 1) = 4096 points (2 and 37 calls in 409-point blocks)
    seen = _kernel_calls(monkeypatch)
    odd_circle_density_wrapped(2, np.linspace(0.0, 2.0 * math.pi, N), 1.2)
    assert seen == calls


@pytest.mark.parametrize("N", [16, 512])
@pytest.mark.parametrize("n", [2, 3])
def test_odd_grid_values_do_not_depend_on_batches(n, N, monkeypatch):
    # each point is certified and summed on its own, so neither the kernel's
    # batch nor the sizing's chunk moves a bit: the grid equals its scalar
    # calls and a run with work blocks of 2^10 entries
    th = np.linspace(0.0, 2.0 * math.pi, N)
    grid = _words(odd_circle_density_wrapped(n, th, 1.2))
    assert _words([odd_circle_density_wrapped(n, float(x), 1.2) for x in th]) == grid
    monkeypatch.setattr(circlaw.special, "_WORK", 2**10)
    monkeypatch.setattr(circlaw.line, "_WORK", 2**10)
    assert _words(odd_circle_density_wrapped(n, th, 1.2)) == grid


def test_high_order_odd_batch_memory_is_bounded():
    # p = 129: batches hold _WORK // (p - 1) = 128 points, so the saddle
    # ray's (p - 1) x points arrays hold _WORK entries and a 2001-point call
    # peaks at 1.2 MB of numpy arrays, about nine such arrays, as a 128-point
    # call does (one 2001-point batch would hold sixteen times more)
    X = np.linspace(-40.0, 40.0, 2001)
    want = line_density_odd(64, X, 1.0)
    tracemalloc.start()
    try:
        got = line_density_odd(64, X, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _words(got) == _words(want)
    assert peak <= 10 * circlaw.line._WORK * 8


@pytest.mark.parametrize("theta", [1e12, 1e300, -1e300])
def test_wrapped_routes_reduce_large_angles_exactly(theta):
    # the double TWO_PI is 2.4e-16 short of 2 pi, so reducing by it would be
    # off by 3.9e-5 at theta = 1e12 and by every digit at 1e300: each route
    # meets its series (both within tol) there
    pairs = [
        (even_circle_density_wrapped(2, theta, 1.0), even_circle_law(2, 1.0).density(theta)),
        (bm_density_wrapped(theta, 1.0), bm_law(1.0).density(theta)),
        (odd_kernel_density(1, theta, 1.0), odd_kernel_law(1, 1.0).density(theta)),
        (wrapped_skew_cauchy_density(1, theta, 1.0), odd_kernel_law(1, 1.0).density(theta)),
    ]
    for route, series in pairs:
        assert route == pytest.approx(series, abs=2.0 * DEFAULT_TOL.abs_tol)
    # the odd window has no series to meet: it sums about the exact residue
    with mp.workdps(400):
        residue = float(mp.mpf(theta) - 2 * mp.pi * mp.nint(mp.mpf(theta) / (2 * mp.pi)))
    assert odd_circle_density_wrapped(2, theta, 1.0) == pytest.approx(
        odd_circle_density_wrapped(2, residue, 1.0), abs=1e-12
    )


def _centred_edges():
    """+-0.0, +-pi and +-TWO_PI with both neighbours of each, and +-5e-324."""
    edges = [5e-324, -5e-324]
    for v in (0.0, -0.0, math.pi, -math.pi, TWO_PI, -TWO_PI):
        edges += [v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)]
    return edges


@settings(max_examples=400, deadline=None)
@given(theta=st.floats(-4.0 * math.pi, 4.0 * math.pi) | st.sampled_from(_centred_edges()))
def test_centred_float_path_is_the_array_path(theta):
    # a float within 2 pi takes math.fmod and float shifts, the rest numpy's
    # fmod and where: both give one double, the sign of a zero included
    got = _centred(theta)
    assert isinstance(got, float) == (abs(theta) <= TWO_PI)
    assert _words([got]) == _words(_centred(np.array([theta]))) == _words([_centred(np.float64(theta))])

"""Circular pseudoprocess law tests: series/wrapped duality, the odd law and its atoms, positivity."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.optimize import brentq

import circlaw
from circlaw import ConvergenceError, DomainError, SignedLawError
from circlaw.cli import LAWS
from circlaw.harmonic import TWO_PI, fourier_coeffs, sample
from circlaw.line import _centred, _line_bound, _shell_count, line_density_even
from circlaw.pseudo import (
    _MAX_WINDOW_SHELLS,
    _ODD_SHELLS,
    _budget_shells,
    _taper_weights,
    even_circle_density,
    even_circle_density_wrapped,
    even_circle_law,
    min_value,
    odd_circle_atoms,
    odd_circle_density_wrapped,
    positivity_time,
)
from circlaw.special import DEFAULT_TOL, Tolerance
from oracles import mp_even_line, wrapped_route_digest


def by_shell(n, theta, t, tol=DEFAULT_TOL):
    # the even wrapped route one scalar shell value at a time over its proven
    # shells m = -M..M, added by numpy's pairwise sum as line._image_sum adds
    # a row: the reference its kernel calls must reproduce bit for bit
    th = float(_centred(theta))
    M = _shell_count(2 * n, t, tol)
    each = Tolerance(tol.abs_tol / 258.0)
    return float(np.sum([line_density_even(n, th + TWO_PI * m, t, each) for m in range(-M, M + 1)]))


def wrapped_gaussian(theta, var, terms=30):
    # direct wrap of N(0, var) as an independent oracle
    tot = 0.0
    for m in range(-terms, terms + 1):
        x = theta + TWO_PI * m
        tot += math.exp(-x * x / (2.0 * var)) / math.sqrt(TWO_PI * var)
    return tot


class TestEvenCircleLaw:
    def test_coefficients(self):
        law = even_circle_law(2, 1.0)
        assert law.a0 == pytest.approx(1.0 / TWO_PI, abs=1e-15)
        assert law.cos_coeffs[0] == pytest.approx(math.exp(-1.0) / math.pi, abs=1e-15)
        assert law.cos_coeffs[0] == pytest.approx(0.11709966, abs=1e-8)
        assert np.all(law.sin_coeffs == 0.0)
        assert law.tail_bound < 1e-10

    def test_truncation_rule(self):
        # K is the smallest index whose convexity tail
        # e^{-t (K+1)^2} / (pi (1 - e^{-2t(K+1)})) is <= tol
        t, tol = 0.7, Tolerance(abs_tol=1e-8)
        law = even_circle_law(1, t, tol)
        K = law.n_terms

        def tail(K):
            return math.exp(-t * (K + 1) ** 2) / (math.pi * (1.0 - math.exp(-2.0 * t * (K + 1))))

        assert tail(K) <= tol.abs_tol < tail(K - 1)
        assert law.tail_bound == pytest.approx(tail(K), rel=1e-12)

    def test_large_t_uniform(self):
        law = even_circle_law(2, 80.0)
        assert law.density(1.0) == pytest.approx(1.0 / TWO_PI, abs=1e-12)
        assert law.density(1.0) == pytest.approx(0.15915494, abs=1e-8)

    def test_mass_one_via_cdf(self):
        assert even_circle_law(3, 0.5).cdf(TWO_PI) == pytest.approx(1.0, abs=1e-13)

    def test_gaussian_rescale_value(self):
        # at n=1 with t halved this is the wrapped standard normal
        law = even_circle_law(1, 0.5, Tolerance(abs_tol=1e-13))
        assert law.density(0.0) == pytest.approx(wrapped_gaussian(0.0, 1.0), abs=1e-12)
        assert law.density(0.0) == pytest.approx(0.39894228, abs=2e-8)

    def test_small_t_overflows_to_wrapped_route(self):
        # t = 1e-6 takes 5144 terms; t = 1e-12 would take ~5e6
        assert even_circle_law(1, 1e-6).n_terms == 5144
        with pytest.raises(ConvergenceError, match="wrapped"):
            even_circle_law(1, 1e-12)

    def test_refusal_advice_names_only_a_route_that_serves(self):
        # the wrapped route serves every t at n = 1 and none below
        # line._T_FLOOR = 1e-6 from n = 2, where the series refuses below ~1e-23
        th = np.linspace(-math.pi, math.pi, 9)
        named = []
        for n in (1, 2, 3):
            for t in (1e-7, 1e-12, 1e-23, 1e-30, 1e-300, 5e-324):
                try:
                    even_circle_law(n, t)
                except ConvergenceError as exc:
                    advice = str(exc)
                else:
                    continue
                named.append("even_circle_density_wrapped" in advice)
                if named[-1]:
                    assert np.all(np.isfinite(even_circle_density_wrapped(n, th, t)))
                else:
                    assert "no route serves" in advice
                    with pytest.raises(ConvergenceError, match="floor"):
                        even_circle_density_wrapped(n, th, t)
        assert set(named) == {True, False}

    def test_validation(self):
        with pytest.raises(DomainError):
            even_circle_law(0, 1.0)
        with pytest.raises(DomainError):
            even_circle_law(1, 0.0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_spectral_ode(self, n):
        # d a_k / dt = -k^{2n} a_k, central differences with lam*h = 1e-3;
        # a tol below a_5 keeps the modes up to 5
        t, tol = 1.0, Tolerance(abs_tol=1e-300)
        for k in (1, 2, 3, 4, 5):
            lam = float(k) ** (2 * n)
            h = 1e-3 / lam
            ap = even_circle_law(n, t + h, tol).cos_coeffs[k - 1]
            am = even_circle_law(n, t - h, tol).cos_coeffs[k - 1]
            a = even_circle_law(n, t, tol).cos_coeffs[k - 1]
            assert (ap - am) / (2 * h) == pytest.approx(-lam * a, rel=1e-6)

    def test_pde_residual(self):
        # d/dt v matches the termwise 2n-th angular derivative
        n, t, h = 2, 1.0, 1e-6
        law = even_circle_law(n, t)
        th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        lhs = (even_circle_law(n, t + h).density(th)
               - even_circle_law(n, t - h).density(th)) / (2 * h)
        k = np.arange(1.0, law.n_terms + 1)
        rhs = -(np.cos(np.multiply.outer(th, k)) @ ((k ** (2 * n)) * law.cos_coeffs))
        assert np.max(np.abs(lhs - rhs)) < 1e-6


class TestEvenDualRoute:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.3, 1.0, 3.0])
    def test_series_vs_wrapped(self, n, t):
        law = even_circle_law(n, t)
        th = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        series = law.density(th)
        wrapped = np.array(
            [even_circle_density_wrapped(n, float(x), t) for x in th]
        )
        assert np.max(np.abs(series - wrapped)) < 1e-6

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shell_blocks_equal_the_shell_by_shell_sum(self, n):
        # one kernel call takes the whole block of proven shells; each angle
        # must add them as the scalar shell values would add (n = 1 is the
        # wrapped Gaussian, which the shell sum approximates within tol)
        for t in (0.02, 0.3, 1.0, 3.0):
            for theta in (-5.0, 0.0, 1.1, math.pi, 6.0):
                value = even_circle_density_wrapped(n, theta, t)
                if n == 1:
                    assert value == pytest.approx(by_shell(n, theta, t), abs=2e-10)
                else:
                    assert value == by_shell(n, theta, t)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        t=st.floats(1e-3, 10.0),
        thetas=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
        log_tol=st.floats(-14.0, -3.0),
    )
    # the array call refuses for theta = 0; theta = 2.0 alone answers
    @example(n=2, t=0.001, thetas=[2.0, 0.0], log_tol=-10.875)
    def test_route_is_the_shell_by_shell_sum(self, n, t, thetas, log_tol):
        # every value is within tol of a tight series, or the call refuses
        # with a typed error, as the scalar call of at least one entry does;
        # an array row is the scalar call bit for bit, and at n >= 2 the
        # shell-by-shell sum of the proven shells
        tol = Tolerance(10.0**log_tol)

        def refuses(theta):
            try:
                even_circle_density_wrapped(n, theta, t, tol)
            except ConvergenceError:
                return True
            return False

        try:
            got = even_circle_density_wrapped(n, np.array(thetas), t, tol)
        except ConvergenceError:
            assert any(refuses(theta) for theta in thetas)
            return
        law = even_circle_law(n, t, Tolerance(1e-15))
        series = law.density(np.array(thetas))
        # on top of tol, the series' own tail and rounding: the values reach
        # 9 at n = 1, t = 1e-3, where the two routes differ by 8.9e-15 at tol 1e-14
        assert np.all(np.abs(got - series) <= tol.abs_tol + law.tail_bound + 5e-14)
        for theta, value in zip(thetas, got):
            assert even_circle_density_wrapped(n, theta, t, tol) == value
            if n >= 2:
                assert by_shell(n, theta, t, tol) == value

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_kernel_call_per_scalar_angle(self, n, monkeypatch):
        # n >= 2: every proven shell of a scalar angle goes in one call, so it
        # pays the contour kernel's fixed cost once; n = 1 is the closed form
        calls = []
        kernel = circlaw.line._contour_density

        def counted(*args):
            calls.append(args[1].size)
            return kernel(*args)

        monkeypatch.setattr(circlaw.line, "_contour_density", counted)
        for t in (0.3, 1.0, 3.0):
            for theta in (0.0, 1.1, math.pi, 6.0):
                calls.clear()
                even_circle_density_wrapped(n, theta, t)
                assert len(calls) == (0 if n == 1 else 1), (t, theta, calls)

    @pytest.mark.filterwarnings("error")
    def test_tolerance_of_eight_or_more(self):
        # log(2/tol) <= 0: the shell count falls to its least value, with no
        # nan and no warning (n = 1 too: the Gaussian images |m| <= 1)
        for tol in (Tolerance(8.0), Tolerance(1e300)):
            assert _shell_count(4, 1.0, tol) == 1 and _shell_count(2, 1.0, tol) == 1
        values = {1: 0.21995909178101242, 2: 0.22261239122309262, 3: 0.22440088488816812}
        for n, value in values.items():
            assert even_circle_density_wrapped(n, 1.0, 1.0, Tolerance(8.0)) == value
        # the three shells -1, 0, 1 in numpy's summation order
        assert even_circle_density_wrapped(3, 1.0, 1.0, Tolerance(1e300)) == 0.2125861049959993

    def test_unsettled_sum_raises(self):
        # n = 4 at t = 1e6: the proven tail needs more than 64 shells, and
        # the refusal points to the series, which serves large t
        assert _shell_count(4, 1e6, DEFAULT_TOL) == 156
        with pytest.raises(ConvergenceError) as err:
            even_circle_density_wrapped(2, 1.0, 1e6)
        assert str(err.value) == (
            "the wrapped tail needs 156 shells at t = 1e+06, past m = 64; "
            "evaluate the series (even_circle_law)"
        )
        # n = 1 is the wrapped Gaussian at every t
        assert even_circle_density_wrapped(1, 1.0, 1e4) == pytest.approx(
            even_circle_law(1, 1e4).density(1.0), abs=1e-10
        )

    @pytest.mark.parametrize("n", [2, 3])
    def test_tight_tolerance_is_met_or_refused_at_the_rounding_floor(self, n):
        # tol = 1e-14 leaves each kept value 3.9e-17, below the kernel's
        # rounding floor: the call names it instead of returning a value
        # that misses tol; where the floor allows, the value meets tol
        for t in (0.05, 0.3, 10.0):
            with pytest.raises(ConvergenceError, match="rounding floor"):
                even_circle_density_wrapped(n, 1.0, t, Tolerance(1e-14))
            tol = Tolerance(1e-11)
            value = even_circle_density_wrapped(n, 1.0, t, tol)
            series = even_circle_law(n, t, Tolerance(1e-15)).density(1.0)
            assert abs(value - series) <= tol.abs_tol

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_line_bound_dominates_the_density(self, n):
        # |u_p(X, 1)| <= C e^{-kappa X^{p/(p-1)}} against the cosine transform
        # (1/2pi) int e^{i X xi - xi^p} dxi in mpmath, on the line through
        # the saddle points (where it cancels least), from X = 0 until the
        # bound passes 1e-300
        p = 2 * n
        C, kappa = _line_bound(p)
        X_end = (math.log(C / 1e-300) / kappa) ** ((p - 1) / p)
        for X in [0.5, 1.0, 2.0, 3.0] + list(np.linspace(0.0, 1.01 * X_end, 8)):
            bound = C * math.exp(-kappa * X ** (p / (p - 1)))
            assert bound >= abs(mp_even_line(p, X)), (X, bound)
        assert bound < 1e-300


    def test_wrapped_gaussian_oracle_small_t(self):
        # n=1 at t: heat kernel has variance 2t
        val = even_circle_density_wrapped(1, math.pi, 0.1)
        assert val == pytest.approx(wrapped_gaussian(math.pi, 0.2), abs=1e-12)

    def test_periodicity(self):
        a = even_circle_density_wrapped(2, 1.1, 1.0)
        b = even_circle_density_wrapped(2, 1.1 + TWO_PI, 1.0)
        assert a == pytest.approx(b, abs=1e-12)

    def test_crossover_prefers_series(self):
        th = 2.2
        assert even_circle_density(2, th, 1.0) == pytest.approx(
            even_circle_law(2, 1.0).density(th), abs=0.0
        )

    def test_crossover_falls_back_for_small_t(self):
        # the series would need K > MAX_TERMS here (about 4.8e6 terms); the
        # wrapped route answers, near 1 at this angle
        tol = Tolerance(abs_tol=1e-10)
        v = even_circle_density(1, 7e-6, 1e-12, tol)
        assert v == pytest.approx(wrapped_gaussian(7e-6, 2e-12), abs=1e-9)


class TestFourierProjection:
    def test_even_law_coefficients_recovered(self):
        law = even_circle_law(2, 1.0)
        a, b = fourier_coeffs(law.density, 5)
        for k in range(1, 6):
            assert a[k - 1] == pytest.approx(
                math.exp(-float(k) ** 4) / math.pi, abs=1e-8
            )
            assert abs(b[k - 1]) < 1e-10

    def test_odd_wrapped_projections(self):
        # scheme-independent quantities of the odd law: a1, b1 at 1e-4
        t = 1.0
        a, b = fourier_coeffs(lambda th: odd_circle_density_wrapped(1, th, t), 1)
        assert a[0] == pytest.approx(math.cos(t) / math.pi, abs=1e-4)
        assert b[0] == pytest.approx(-math.sin(t) / math.pi, abs=1e-4)


class TestOddCircleDensity:
    def test_taper_weights_shape(self):
        # shell order m = -100..100: flat on |m| <= 50, Hann rolloff to 0 at |m| = 100
        w = _taper_weights(100)
        assert w.size == 201 and np.array_equal(w, w[::-1])
        assert w[100] == 1.0 and w[150] == 1.0
        assert w[200] == pytest.approx(0.0, abs=1e-15)
        assert np.all(np.diff(w[100:]) <= 1e-15)

    def test_backend_equivalence_default_window(self):
        # same taper and shell arguments, scipy's Airy for every shell in place
        # of the kernel's oscillating expansion. Each backend forms zeta =
        # (2/3) z^{3/2} in float64, so a far shell carries ~eps zeta ~ 3e-11
        # of rounding; over the 12289 shells the two sums measured 1.4e-10 apart
        M = _ODD_SHELLS
        ms = np.arange(-M, M + 1)
        w = _taper_weights(M)
        s = 3.0 ** (-1.0 / 3.0)
        for theta in (0.5, 2.0, 5.5):
            oracle = float(np.sum(w * s * special.airy((theta + TWO_PI * ms) * s)[0]))
            assert odd_circle_density_wrapped(1, theta, 1.0) == pytest.approx(oracle, abs=1e-9)

    def test_default_value_regression(self):
        # pointwise values are scheme-pinned; this freezes the default scheme
        assert odd_circle_density_wrapped(1, 0.5, 1.0) == pytest.approx(
            0.7487811680251277, abs=1e-9
        )

    def test_mass_projection(self):
        # 512-node mean integrates the wrapped route over the circle
        th = np.arange(512) * (TWO_PI / 512)
        for t in (0.5, 1.0):
            mass = odd_circle_density_wrapped(1, th, t).mean() * TWO_PI
            assert mass == pytest.approx(1.0, abs=1e-5)

    def test_asymmetry(self):
        v1 = odd_circle_density_wrapped(1, 1.0, 1.0)
        v2 = odd_circle_density_wrapped(1, TWO_PI - 1.0, 1.0)
        assert abs(v1 - v2) > 1e-3

    def test_higher_order_budget_window(self):
        # order 5: the contour kernel certifies every shell of the window,
        # so no quadrature warning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = odd_circle_density_wrapped(2, 1.0, 1.0)
        assert math.isfinite(v)
        # projections beyond mode 1 are not pinned: the budget window
        # resolves mode 1 and the mass only (TestOddAtoms)

    @pytest.mark.parametrize(
        "route, n",
        [
            (odd_circle_density_wrapped, 1),
            (odd_circle_density_wrapped, 2),
            (even_circle_density_wrapped, 1),
            (even_circle_density_wrapped, 2),
            (even_circle_density_wrapped, 3),
        ],
        ids=["1", "2", "even-1", "even-2", "even-3"],
    )
    def test_grid_rows_equal_scalar_calls(self, route, n):
        # each angle is reduced on its own, so a grid row is the scalar call;
        # compared as int64 words, so a flipped zero sign or last bit fails
        th = np.arange(16) * (TWO_PI / 16)
        for t in (0.5, 1.7):
            grid = route(n, th, t)
            scalar = np.array([route(n, float(theta), t) for theta in th])
            assert scalar.view(np.int64).tolist() == grid.view(np.int64).tolist()

    def test_large_t_guard(self):
        # the mode-1 stationary point 3t must stay inside the flat core of
        # the M = 6144 window: t <= 0.3 pi M
        t_max = 0.3 * math.pi * _ODD_SHELLS
        a, b = fourier_coeffs(lambda th: odd_circle_density_wrapped(1, th, t_max), 1, 128)
        assert a[0] == pytest.approx(math.cos(t_max) / math.pi, abs=1e-5)
        assert b[0] == pytest.approx(-math.sin(t_max) / math.pi, abs=1e-5)
        with pytest.raises(ConvergenceError, match=r"flat core .* t <= 0\.3 pi M = 5790\.58"):
            odd_circle_density_wrapped(1, 0.5, np.nextafter(t_max, math.inf))
        with pytest.raises(ConvergenceError):
            odd_circle_density_wrapped(1, 0.5, 1e4)

    def test_window_past_its_shell_cap_is_refused_at_once(self):
        # the n >= 2 window grows like t^(1/5) at n = 2: t = 1e30 asked for
        # 14.6 million shells a side (a 234 MB row per angle), and t >= 1e200
        # for more than numpy can allocate. Past M = _MAX_WINDOW_SHELLS
        # (t ~ 1.9e21) the call is refused before any row is built; below
        # it the window is summed, at 23 142 shells for t = 1e16
        assert _budget_shells(2, 1.8e21) <= _MAX_WINDOW_SHELLS == 2**18
        assert _budget_shells(2, 1e16) == 23142
        assert math.isfinite(odd_circle_density_wrapped(2, 1.0, 1e16))
        th = np.linspace(0.0, TWO_PI, 512)
        for t in (1.9e21, 1e30, 1e200, 1e300, 1.7e308):
            tracemalloc.start()
            try:
                with pytest.raises(ConvergenceError, match="past its cap of 262144$"):
                    odd_circle_density_wrapped(2, th, t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**16, t

    def test_phase_rounding_at_small_t_is_refused(self):
        # at n = 1 the far shells' Airy phase zeta ~ (2/3) (2 pi M)^{3/2}
        # (3t)^{-1/2} carries about 4 eps zeta of rounding: at t = 1e-300
        # every far shell's sign was rounding's (the sum read -1.06e75).
        # Refused past 1e-6 rad (t below ~6.7e-6); 8.2e-8 rad at t = 1e-3
        for t in (6e-6, 1e-300, 5e-324):
            with pytest.raises(ConvergenceError, match="rad of rounding, past 1e-06$"):
                odd_circle_density_wrapped(1, 1.0, t)
        assert math.isfinite(odd_circle_density_wrapped(1, 1.0, 1e-5))

    def test_validation(self):
        with pytest.raises(DomainError):
            odd_circle_density_wrapped(1, 0.5, 0.0)
        for n in (1, 2):
            with pytest.raises(DomainError):
                odd_circle_density_wrapped(n, 0.5, math.inf)


# every wrapped route as a function of theta alone, each certified to the default tol
WRAPPED_ROUTES = {
    "bm": lambda th: circlaw.bm_density_wrapped(th, 0.7),
    "even-2": lambda th: even_circle_density_wrapped(2, th, 0.7),
    "odd-1": lambda th: odd_circle_density_wrapped(1, th, 1.0),
    "odd-2": lambda th: odd_circle_density_wrapped(2, th, 1.0),
    "skew-cauchy": lambda th: circlaw.wrapped_skew_cauchy_density(1, th, 0.7),
}


@pytest.mark.parametrize("route", WRAPPED_ROUTES.values(), ids=WRAPPED_ROUTES.keys())
def test_wrapped_routes_are_periodic(route):
    # a window centred on theta as given made the odd routes differ by up to
    # 6e-4 (n = 1) and 0.034 (n = 2) between theta and theta + 2 pi
    th = np.array([-1.0, 4.0, 6.0, 1e3])
    at = route(th)
    for shift in (TWO_PI, -TWO_PI):
        assert np.max(np.abs(route(th + shift) - at)) <= 2.0 * DEFAULT_TOL.abs_tol


@pytest.mark.parametrize("route", WRAPPED_ROUTES.values(), ids=WRAPPED_ROUTES.keys())
def test_each_distinct_centre_is_summed_once(route, monkeypatch):
    # a CLI grid linspace(0, 2 pi, N) ends at 2 pi, which every route reduces
    # to the centre of theta = 0: line._image_sum sums that row once and
    # copies it, and each value is still its scalar call's
    rows = []
    image_sum = circlaw.line._image_sum

    def spy(u, x, M, weights=None):
        def counted(shells):
            rows.append(shells.shape[0])
            return u(shells)

        return image_sum(counted, x, M, weights)

    for module in (circlaw.pseudo, circlaw.brownian, circlaw.kernels):
        monkeypatch.setattr(module, "_image_sum", spy)
    th = np.linspace(0.0, TWO_PI, 8)
    grid = route(th)
    assert sum(rows) == 7
    assert grid[-1] == grid[0]
    assert grid.tolist() == [route(float(x)) for x in th]


def test_wrapped_routes_keep_their_pinned_bits():
    # 1000 seeded calls of the even wrapped route (n = 2..4), the wrapped
    # Gaussian and the wrapped skewed Cauchy law, scalar and array angles
    # from -20 to 20 with the signed zeros, +-pi and +-2 pi: a change to the
    # routes' fixed cost keeps every double and every refusal message (126
    # of the calls are refusals)
    assert wrapped_route_digest(1000, 38) == (
        "6f3b6b889ecc028257ad1860abc309f14b5baabc56adaaf91b5504b8a998cbce",
        126,
    )


def atom_projections(n, a, q, modes):
    """Mass and modes 1..modes of the atoms as (a_k, b_k), k = 0..modes."""
    angles, weights = odd_circle_atoms(n, a, q)
    k = np.arange(modes + 1)[:, None]
    return np.cos(k * angles) @ weights / math.pi, np.sin(k * angles) @ weights / math.pi


class TestOddAtoms:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("a, q", [(1, 1), (1, 2), (1, 3), (1, 5), (2, 7), (3, 8), (5, 12)])
    def test_weights_real_with_unit_mass(self, n, a, q):
        angles, weights = odd_circle_atoms(n, a, q)
        assert weights.dtype == np.float64 and weights.shape == (q,)
        assert np.array_equal(angles, np.arange(q) * (TWO_PI / q))
        assert abs(weights.sum() - 1.0) <= 1e-15

    def test_one_unit_atom_at_t_2pi_over_3(self):
        # k^3 = k mod 3, so the coefficients are e^{2 pi i k/3}: a point mass at 4 pi/3
        angles, weights = odd_circle_atoms(1, 1, 3)
        assert weights == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)
        assert angles[2] == pytest.approx(4.0 * math.pi / 3.0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("a, q", [(1, 3), (1, 5), (2, 7), (3, 8), (5, 12)])
    def test_modes_equal_the_series_coefficients(self, n, a, q):
        # cos(k^p t)/pi and -sin(k^p t)/pi at t = 2 pi a/q, 30 digits in mpmath
        p = 2 * n + 1
        ak, bk = atom_projections(n, a, q, 12)
        with mp.workdps(30):
            t = 2 * mp.pi * a / q
            want_a = [float(mp.cos(k**p * t) / mp.pi) for k in range(1, 13)]
            want_b = [float(-mp.sin(k**p * t) / mp.pi) for k in range(1, 13)]
        assert ak[0] * math.pi == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(ak[1:] - want_a)) <= 1e-13
        assert np.max(np.abs(bk[1:] - want_b)) <= 1e-13

    def test_second_order_window_resolves_mode_one_and_mass(self):
        # the n = 2 budget window misses modes 2..6 by about 1/pi, but
        # keeps the mass and mode 1 within 5e-3 (measured 2.9e-3, 1.3e-3)
        t = TWO_PI / 5
        a, b = fourier_coeffs(lambda th: odd_circle_density_wrapped(2, th, t), 1, 128)
        ak, bk = atom_projections(2, 1, 5, 1)
        th = np.arange(128) * (TWO_PI / 128)
        mass = odd_circle_density_wrapped(2, th, t).mean() * TWO_PI
        assert mass == pytest.approx(1.0, abs=5e-3)
        assert a[0] == pytest.approx(ak[1], abs=5e-3)
        assert b[0] == pytest.approx(bk[1], abs=5e-3)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, math.nan, math.inf])
    def test_refusals(self, bad):
        for args in ((bad, 1, 3), (1, bad, 3), (1, 1, bad)):
            with pytest.raises(DomainError):
                odd_circle_atoms(*args)


class TestMinValueAndPositivity:
    def test_min_value_is_density_at_pi(self):
        law = even_circle_law(2, 1.0)
        assert min_value(2, 1.0) == pytest.approx(law.density(math.pi), abs=1e-12)

    def test_min_value_positive_example(self):
        assert min_value(2, 3.0) > 0.0

    def test_gaussian_always_positive(self):
        for t in (0.05, 0.3, 1.0, 5.0):
            assert min_value(1, t) > 0.0

    def test_positivity_time_n1(self):
        assert positivity_time(1) == 0.0

    def test_positivity_time_n2(self):
        t_bar = positivity_time(2)
        # the nearest double to the 40-digit root of the alternating series at pi
        with mp.workdps(40):
            v = lambda t: 0.5 + mp.nsum(lambda k: (-1) ** int(k) * mp.exp(-(k**4) * t), [1, mp.inf])
            assert float(mp.findroot(v, mp.log(2))) == t_bar == 0.6931166485360705
        # independent float root of the same series
        root = brentq(lambda t: min_value(2, t), 0.5, 0.9, xtol=1e-15)
        assert t_bar == pytest.approx(root, abs=1e-15)
        # not ln 2: the first wrap correction shifts the root by ~3e-5
        assert abs(t_bar - math.log(2.0)) > 2e-5
        assert root == pytest.approx(math.log(2.0) - 2.0 * math.exp(-16.0 * root), abs=1e-8)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_positivity_time_is_ln2_from_n3(self, n):
        # the root's shift from ln 2, about 2^{1 - 4^n}, is below half an ulp of ln 2
        assert positivity_time(n) == math.log(2.0)

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("n", range(2, 11))
    def test_positivity_time_pinned(self, n, tol):
        # the doubles of the brentq root this finder replaced, bit for bit
        want = 0.6931166485360705 if n == 2 else 0.6931471805599453
        assert positivity_time(n, Tolerance(abs_tol=tol)) == want

    @pytest.mark.parametrize("n", [0, 2.5, math.nan])
    def test_positivity_time_refuses_bad_order(self, n):
        with pytest.raises(DomainError):
            positivity_time(n)

    def test_sign_bracket_around_t_bar(self):
        t_bar = 0.6931166485360705
        assert min_value(2, t_bar - 0.01) < 0.0
        assert min_value(2, t_bar + 0.01) > 0.0

    def test_minimum_sits_at_pi(self):
        th = np.arange(4096) * (TWO_PI / 4096)
        vals = even_circle_law(2, 0.6931166 + 1e-3).density(th)
        assert abs(th[int(np.argmin(vals))] - math.pi) <= 1e-3

    def test_min_value_validation(self):
        with pytest.raises(DomainError):
            min_value(2, -1.0)

    @pytest.mark.parametrize("t", [1.0, 1e-3, 1e-310, 5e-324])
    def test_min_value_at_large_order(self, t):
        # k^{2n} passes the largest double from n = 512 on (2.0 ** 1200 raised
        # OverflowError); the k >= 2 terms are 0 in float64 at n = 600, even
        # at the smallest t, where 2^1200 t is still ~1e38
        assert min_value(600, t) == 1.0 / TWO_PI - math.exp(-t) / math.pi

    def test_min_value_at_order_512_keeps_a_live_second_term(self):
        # 2^1024 t = 0.018 at t = 1e-310: the term is far from 0 though 2^1024 overflows
        t = 1e-310
        second = math.exp(-math.exp(1024 * math.log(2.0) + math.log(t))) / math.pi
        assert second > 0.3
        assert min_value(512, t) == pytest.approx(1.0 / TWO_PI - math.exp(-t) / math.pi + second, abs=1e-15)

    def test_min_value_small_order_unchanged(self):
        # 10a and the benchmark check read these doubles
        assert min_value(2, 0.6931166485360705) == -1.83340282752952e-17
        assert min_value(3, 0.6931166485360705) == -4.85939670552547e-06
        assert min_value(2, 0.5083333333333333) == -0.03221412273326094

    @pytest.mark.parametrize(
        "n, t, tol, want",
        [
            (1, 1e-6, 1e-10, -6.216419560699953e-12),
            (2, 1e-6, 1e-10, 2.3728179987193245e-12),
            (5, 1e-6, 1e-10, -0.02969959485314003),
            (2, 50.0, 1e-10, 0.15915494309189535),
            (3, 0.5, 1e-13, -0.03390976216820845),
            (2, 0.7, 1e-6, 0.00109128419330198),
            # tol/8 underflows to 0 here; the sum runs to the terms that are 0
            (2, 0.01, 5e-324, -0.002351505422754356),
        ],
    )
    def test_min_value_pinned(self, n, t, tol, want):
        # doubles that move with the stop index, the order of the additions or the form of a term
        assert min_value(n, t, Tolerance(tol)) == want


class TestSamplingOfEvenLaws:
    def test_symmetric_counts(self):
        # even law: mass below and above pi is exactly 1/2 each
        law = even_circle_law(2, 1.0)
        rng = np.random.default_rng(123)
        xs = sample(law, rng, size=20_000)
        frac = float(np.mean(xs < math.pi))
        assert abs(frac - 0.5) < 0.012  # ~3.4 sigma binomial

    def test_ks_against_own_cdf(self):
        law = even_circle_law(1, 0.5)
        rng = np.random.default_rng(5)
        xs = np.sort(sample(law, rng, size=50_000))
        i = np.arange(1, xs.size + 1)
        cdf_vals = law.cdf(xs)
        d = max(np.max(i / xs.size - cdf_vals), np.max(cdf_vals - (i - 1) / xs.size))
        assert d < 0.01

    def test_signed_law_refused_before_t_bar(self):
        # the dips lie beyond the tail and rounding certificates, also near t_bar
        for n, t in ((2, 0.6931166 / 2.0), (2, 0.3), (2, 0.6), (3, 0.3)):
            with pytest.raises(SignedLawError):
                sample(even_circle_law(n, t), np.random.default_rng(0))

    def test_cdf_nondecreasing_after_t_bar(self):
        law = even_circle_law(2, 0.8)
        th = np.linspace(0.0, TWO_PI, 2048)
        assert np.all(np.diff(law.cdf(th)) > -1e-12)


HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse")


def fresh_import(code):
    """stdout of `code` run in a fresh interpreter that imports this circlaw."""
    src = str(Path(circlaw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


@pytest.fixture(scope="module")
def imported_modules():
    """sys.modules of one fresh interpreter right after `import circlaw`,
    which the checks that only read it share."""
    return set(fresh_import("import sys, circlaw; print(*sys.modules)").split())


class TestImportSideEffects:
    def test_import_keeps_mpmath_precision(self):
        # a fresh interpreter shows whether import touched the caller's precision
        code = "import mpmath; mpmath.mp.dps = 30; import circlaw; print(mpmath.mp.dps)"
        assert fresh_import(code) == "30"

    def test_import_leaves_mpmath_unloaded(self, imported_modules):
        # mpmath is a test dependency only; no module of the package loads it
        assert ("mpmath" in imported_modules) is False

    def test_import_leaves_the_self_check_suite_unloaded(self, imported_modules):
        # only `circlaw validate` runs circlaw.validation; cli imports it
        assert ("circlaw.validation" in imported_modules) is False

    def test_import_builds_no_rho_table(self):
        # the contour kernel's per-order rho tables are built on first use,
        # so an import (or a series law) pays for none of them
        code = (
            "import circlaw, circlaw.line as line\n"
            "circlaw.even_circle_law(2, 1.0).density(1.0)\n"
            "print([f.cache_info().currsize for f in "
            "(line._ray_table, line._saddle_table, line._leg_table)])"
        )
        assert fresh_import(code) == "[0, 0, 0]"

    def test_import_builds_no_lattice_or_zeta_table(self, imported_modules):
        # the lattice form's module loads, and its zeta values, factorials and
        # unit closed forms are built, on first use; a series law that keeps
        # the plain route builds none of them
        assert ("circlaw.lattice" in imported_modules) is False
        code = (
            "import circlaw, circlaw.lattice as lattice\n"
            "circlaw.even_circle_law(2, 1.0).density(1.0)\n"
            "circlaw.space_time_fractional_cdf(0.7, 0.9, 1.0, 1.0, circlaw.Tolerance(1e-3))\n"
            "print(len(lattice._UNIT_FORMS), [f.cache_info().currsize for f in "
            "(lattice._factorials, lattice._bernoulli_ratios)])"
        )
        assert fresh_import(code) == "0 [0, 0]"

    def test_import_loads_no_heavy_scipy(self, imported_modules):
        # the package needs numpy and scipy.special only; each of these costs
        # tens of milliseconds to load
        assert [m for m in HEAVY_SCIPY if m in imported_modules] == []

    def test_commands_load_no_heavy_scipy(self):
        # a root, a Gauss-Legendre build and 8b's reference quadrature each
        # used to load one of them on first call
        code = (
            "import contextlib, io, sys\n"
            "from circlaw.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(a.split()) for a in ('positivity --n 2', 'validate --only kernels',\n"
            "             'density --law odd --n 2 --t 1 --grid 8')]\n"
            f"print(codes, [m for m in {HEAVY_SCIPY!r} if m in sys.modules])"
        )
        assert fresh_import(code) == "[0, 0, 0] []"

    def test_import_loads_no_scipy(self, imported_modules):
        # scipy.special alone used to be ~0.3 s of every fresh process
        assert [m for m in imported_modules if m.split(".")[0] == "scipy"] == []

    def test_commands_load_no_scipy(self):
        # density and cdf of every law (the odd one at n = 1 and 2), positivity
        # and the full validate; a command may refuse, but loads no scipy either way
        extra = {"timefrac": " --n 2 --nu 0.7", "spacefrac": " --beta 0.6", "wrappedstable": " --beta 0.6",
                 "spacetimefrac": " --nu 0.7 --beta 0.95 --tol 1e-3"}
        calls = [f"{cmd} --law {law} --t 1 --grid 8{extra.get(law, '')}"
                 for law in LAWS for cmd in ("density", "cdf")]
        calls += ["density --law odd --n 2 --t 1 --grid 8", "positivity --n 2", "validate"]
        code = (
            "import contextlib, io, sys\n"
            "from circlaw.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    codes = [main(a.split()) for a in {calls!r}]\n"
            f"print([(a, c) for a, c in zip({calls!r}, codes) if c],\n"
            "      [m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        # every call answers but cdf --law odd, which is refused (exit code 3)
        assert fresh_import(code) == "[('cdf --law odd --t 1 --grid 8', 3)] []"

    def test_von_mises_is_what_loads_scipy_special(self):
        code = (
            "import sys, circlaw\n"
            "before = 'scipy.special' in sys.modules\n"
            "circlaw.von_mises_density(1.0, 2.0)\n"
            "print(before, 'scipy.special' in sys.modules)"
        )
        assert fresh_import(code) == "False True"

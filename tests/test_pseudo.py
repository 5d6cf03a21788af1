"""Circular pseudoprocess law tests: series/wrapped duality, odd routes, positivity."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import circlaw
from circlaw import ConvergenceError, DomainError, SignedLawError
from circlaw.harmonic import TWO_PI, fourier_coeffs, sample
from circlaw.line import line_density_even
from circlaw.pseudo import (
    _first_shell_block,
    _phase_table,
    _taper_weights,
    even_circle_density,
    even_circle_density_wrapped,
    even_circle_law,
    min_value,
    odd_circle_density_routes,
    odd_circle_density_wrapped,
    positivity_time,
)
from circlaw.special import DEFAULT_TOL, Tolerance


def by_shell(n, theta, t, tol=DEFAULT_TOL):
    # the even wrapped route one shell pair at a time: the reference its
    # blocks must reproduce bit for bit; None where it does not settle
    th = math.fmod(theta, TWO_PI)
    total, quiet = line_density_even(n, th, t, tol), 0
    for m in range(1, 65):
        shell = line_density_even(n, th + TWO_PI * m, t, tol) + line_density_even(
            n, th - TWO_PI * m, t, tol
        )
        total += shell
        quiet = quiet + 1 if abs(shell) < tol.abs_tol / 8.0 else 0
        if quiet >= 2:
            return total
    return None


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
        # K is the smallest index with e^{-(K+1)t}/(pi(1-e^{-t})) <= tol
        t, tol = 0.7, Tolerance(abs_tol=1e-8)
        law = even_circle_law(1, t, tol)
        K = law.n_terms
        denom = math.pi * (1.0 - math.exp(-t))
        assert math.exp(-(K + 1) * t) / denom <= tol.abs_tol
        assert math.exp(-K * t) / denom > tol.abs_tol

    def test_large_t_uniform(self):
        law = even_circle_law(2, 80.0)
        assert law.density(1.0) == pytest.approx(1.0 / TWO_PI, abs=1e-12)
        assert law.density(1.0) == pytest.approx(0.15915494, abs=1e-8)

    def test_mass_one_via_cdf(self):
        assert even_circle_law(3, 0.5).cdf(TWO_PI) == pytest.approx(1.0, abs=1e-13)

    def test_gaussian_rescale_value(self):
        # at n=1 with t halved this is the wrapped standard normal
        law = even_circle_law(1, 0.5)
        assert law.density(0.0) == pytest.approx(wrapped_gaussian(0.0, 1.0), abs=1e-12)
        assert law.density(0.0) == pytest.approx(0.39894228, abs=2e-8)

    def test_small_t_overflows_to_wrapped_route(self):
        with pytest.raises(ConvergenceError, match="wrapped"):
            even_circle_law(1, 1e-6)

    def test_validation(self):
        with pytest.raises(DomainError):
            even_circle_law(0, 1.0)
        with pytest.raises(DomainError):
            even_circle_law(1, 0.0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_spectral_ode(self, n):
        # d a_k / dt = -k^{2n} a_k, central differences with lam*h = 1e-3
        t = 1.0
        for k in (1, 2, 3, 4, 5):
            lam = float(k) ** (2 * n)
            h = 1e-3 / lam
            ap = even_circle_law(n, t + h).cos_coeffs[k - 1]
            am = even_circle_law(n, t - h).cos_coeffs[k - 1]
            a = even_circle_law(n, t).cos_coeffs[k - 1]
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
        # the wrapped route evaluates shells in blocks; each angle must add
        # them and stop exactly as one shell pair at a time would
        for t in (0.02, 0.3, 1.0, 3.0):
            for theta in (-5.0, 0.0, 1.1, math.pi, 6.0):
                assert even_circle_density_wrapped(n, theta, t) == by_shell(n, theta, t)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        t=st.floats(1e-3, 10.0),
        thetas=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
        log_tol=st.floats(-14.0, -3.0),
        scalar=st.booleans(),
    )
    def test_route_is_the_shell_by_shell_sum(self, n, t, thetas, log_tol, scalar):
        # tol and t move the first block's size from far too short (a tight
        # tol at small t) to past the stop; no value may depend on it
        tol = Tolerance(10.0**log_tol)
        theta = thetas[0] if scalar else np.array(thetas)
        expect = [by_shell(n, x, t, tol) for x in np.atleast_1d(theta)]
        if None in expect:
            with pytest.raises(ConvergenceError, match="did not settle by m = 64"):
                even_circle_density_wrapped(n, theta, t, tol)
            return
        got = even_circle_density_wrapped(n, theta, t, tol)
        if scalar:
            assert isinstance(got, float) and got == expect[0]
        else:
            assert got.tolist() == expect

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_values_do_not_depend_on_the_first_block(self, n, monkeypatch):
        # every first block from 4 shells to past the stop, so some block
        # ends between the two quiet shells and the quiet state is carried
        thetas = np.array([0.0, 2.0, 5.0])
        for t in (0.3, 3.0):
            expect = [by_shell(n, theta, t) for theta in thetas]
            for last in range(4, 15):
                monkeypatch.setattr(circlaw.pseudo, "_first_shell_block", lambda *a, m=last: m)
                assert even_circle_density_wrapped(n, thetas, t).tolist() == expect, last

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_kernel_call_per_scalar_angle(self, n, monkeypatch):
        # the first block reaches the shell where the sum stops, so a scalar
        # angle pays the contour kernel's fixed cost once
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
                assert len(calls) == 1, (t, theta, calls)

    @pytest.mark.filterwarnings("error")
    def test_tolerance_of_eight_or_more(self):
        # log(8/tol) <= 0: the first block falls back to 4 shells, with no
        # nan and no warning, and the values stay those of the shell sum
        for tol in (Tolerance(8.0), Tolerance(1e300), Tolerance(math.inf)):
            assert _first_shell_block(2, 1.0, tol, math.pi) == 4
        values = {1: 0.2391326386064003, 2: 0.16985624701324756, 3: 0.2304655432489796}
        for n, value in values.items():
            assert even_circle_density_wrapped(n, 1.0, 1.0, Tolerance(8.0)) == value
        assert even_circle_density_wrapped(3, 1.0, 1.0, Tolerance(1e300)) == 0.23046542437094142

    def test_unsettled_sum_raises(self):
        # variance 2e4: the Gaussian shells are far above tol/8 at m = 64
        assert _first_shell_block(1, 1e4, DEFAULT_TOL, 1.0) == 64
        with pytest.raises(ConvergenceError) as err:
            even_circle_density_wrapped(1, 1.0, 1e4)
        assert str(err.value) == "wrapped shells did not settle by m = 64 at t = 10000"

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
        # series would need K > max_terms here; the wrapped route answers
        tol = Tolerance(abs_tol=1e-10, max_terms=1000)
        v = even_circle_density(1, 0.3, 0.01, tol)
        assert v == pytest.approx(wrapped_gaussian(0.3, 0.02), abs=1e-9)


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
    def test_phase_table_exact(self):
        (ph,) = _phase_table(7, 1.7, 4444)
        mp.mp.dps = 40
        for k in (3, 500, 4444):
            exact = float(mp.fmod(mp.mpf(k) ** 7 * mp.mpf(1.7), 2 * mp.pi))
            assert ph[k - 1] == pytest.approx(exact, abs=1e-12)

    def test_taper_weights_shape(self):
        w = _taper_weights(100)
        assert w[0] == 1.0 and w[50] == 1.0
        assert w[100] == pytest.approx(0.0, abs=1e-15)
        assert np.all(np.diff(w) <= 1e-15)

    def test_backend_equivalence_small_window(self):
        # same taper, independent Airy backend
        M = 256
        w = _taper_weights(M)
        s = 3.0 ** (-1.0 / 3.0)
        mp.mp.dps = 25
        oracle = sum(
            float(w[abs(m)]) * s * float(mp.airyai(s * (0.5 + TWO_PI * m)))
            for m in range(-M, M + 1)
        )
        assert odd_circle_density_wrapped(1, 0.5, 1.0, shells=M) == pytest.approx(
            oracle, abs=1e-11
        )

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

    def test_routes_and_divergence_warning(self):
        v = odd_circle_density_wrapped(1, 0.5, 1.0)
        wrapped, abel = odd_circle_density_routes(1, 0.5, 1.0)
        assert v == wrapped
        assert math.isfinite(abel)

    def test_higher_order_budget_window(self):
        # order 5: the contour kernel certifies every shell of the window,
        # so no quadrature warning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = odd_circle_density_wrapped(2, 1.0, 1.0)
        assert math.isfinite(v)
        # projections are not pinned here: the budget caps the window and
        # the residual is ~1e-3

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
        # each angle is reduced on its own, so a grid row is the scalar call
        th = np.arange(16) * (TWO_PI / 16)
        for t in (0.5, 1.7):
            grid = route(n, th, t)
            for theta, value in zip(th, grid):
                assert route(n, float(theta), t) == value

    def test_large_t_guard(self):
        # the mode-1 stationary point 3t must stay inside the flat core;
        # the bound t <= 0.3 pi M scales with the shell count M
        for M in (1024, 6144):
            t_max = 0.3 * math.pi * M
            a, b = fourier_coeffs(
                lambda th: odd_circle_density_wrapped(1, th, t_max, shells=M), 1, 128
            )
            assert a[0] == pytest.approx(math.cos(t_max) / math.pi, abs=1e-5)
            assert b[0] == pytest.approx(-math.sin(t_max) / math.pi, abs=1e-5)
            with pytest.raises(ConvergenceError, match="flat core"):
                odd_circle_density_wrapped(1, 0.5, np.nextafter(t_max, math.inf), shells=M)
        with pytest.raises(ConvergenceError):
            odd_circle_density_wrapped(1, 0.5, 1e4)

    def test_validation(self):
        with pytest.raises(DomainError):
            odd_circle_density_wrapped(1, 0.5, 0.0)
        # a shell count is a positive integer, never truncated
        for n in (1, 2):
            for shells in (0, -3, 2.5, math.nan):
                with pytest.raises(DomainError, match="shells"):
                    odd_circle_density_wrapped(n, 0.5, 1.0, shells=shells)
        for n in (1, 2):
            with pytest.raises(DomainError):
                odd_circle_density_wrapped(n, 0.5, math.inf)


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
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no MinimumLocationWarning expected
            t_bar = positivity_time(2)
        # independent root of the alternating series at pi
        root = brentq(lambda t: min_value(2, t), 0.5, 0.9, xtol=1e-12)
        assert t_bar == pytest.approx(root, abs=2e-6)
        assert t_bar == pytest.approx(0.6931166, abs=5e-6)
        # not ln 2: the first wrap correction shifts the root by ~3e-5
        assert abs(t_bar - math.log(2.0)) > 2e-5
        assert root == pytest.approx(math.log(2.0) - 2.0 * math.exp(-16.0 * root), abs=1e-8)

    def test_sign_bracket_around_t_bar(self):
        t_bar = 0.6931166485360707
        assert min_value(2, t_bar - 0.01) < 0.0
        assert min_value(2, t_bar + 0.01) > 0.0

    def test_minimum_sits_at_pi(self):
        th = np.arange(4096) * (TWO_PI / 4096)
        vals = even_circle_law(2, 0.6931166 + 1e-3).density(th)
        assert abs(th[int(np.argmin(vals))] - math.pi) <= 1e-3

    def test_min_value_validation(self):
        with pytest.raises(DomainError):
            min_value(2, -1.0)


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
        law = even_circle_law(2, 0.6931166 / 2.0)
        with pytest.raises(SignedLawError):
            sample(law, np.random.default_rng(0))

    def test_cdf_nondecreasing_after_t_bar(self):
        law = even_circle_law(2, 0.8)
        th = np.linspace(0.0, TWO_PI, 2048)
        assert np.all(np.diff(law.cdf(th)) > -1e-12)


class TestImportSideEffects:
    def test_import_keeps_mpmath_precision(self):
        # the phase-reduction constant is built at import; a fresh
        # interpreter shows whether that touched the caller's precision
        src = str(Path(circlaw.__file__).resolve().parents[1])
        code = "import mpmath; mpmath.mp.dps = 30; import circlaw; print(mpmath.mp.dps)"
        env = dict(os.environ, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "30"

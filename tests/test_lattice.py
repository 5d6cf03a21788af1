"""The lattice form of the slow-decay fractional laws: the Mittag-Leffler
remainder bound, the closed-form lattice sums and their certificates, and
agreement with the plain series, the second route."""

import hashlib
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlaw import DomainError, RngStream, Tolerance, fractional, ks_statistic, sample
from circlaw.fractional import space_time_fractional_cdf, time_fractional_law
from circlaw.harmonic import TWO_PI
from circlaw import harmonic, lattice
from circlaw.lattice import _closed_form, _zeta_right, lattice_tail
from circlaw.special import _ml_many
from oracles import cdf_certificate

mp.mp.dps = 30
TOL6 = Tolerance(abs_tol=1e-6)


def ml_reference(nu, y):
    """E_nu(-y) to 30 digits: erfcx at nu = 1/2, else mpmath quadrature of
    the spectral integral, with r = (v/y)^{1/nu} so that it is smooth,
    E_nu(-y) = (y sin nu pi/(nu pi)) int_0^inf e^{-v^{1/nu}}/(v^2 + 2 y v cos nu pi + y^2) dv."""
    nu, y = mp.mpf(nu), mp.mpf(y)
    if nu == mp.mpf(0.5):
        return mp.exp(y * y) * mp.erfc(y)
    c = mp.cos(nu * mp.pi)

    def f(v):
        return mp.exp(-(v ** (1 / nu))) / (v * v + 2 * y * v * c + y * y)

    return y * mp.sin(nu * mp.pi) / (nu * mp.pi) * mp.quad(f, [0, 0.25, 1, 2, 5, 10, 40, mp.inf])


@pytest.mark.parametrize("nu", [0.2, 0.5, 0.75, 0.9])
def test_remainder_bound_against_30_digit_references(nu):
    # |E_nu(-y) - sum_{j<=J} (-1)^{j+1} y^{-j}/Gamma(1 - nu j)| <= Gamma(nu (J+1)) y^{-(J+1)}/(pi m)
    m = 1.0 if nu <= 0.5 else math.sin(math.pi * nu)
    worst = 0.0
    for y in (0.05, 0.7, 3.0, 40.0, 2000.0):
        exact = ml_reference(nu, y)
        partial = mp.mpf(0)
        for J in range(1, 8):
            partial += (-1) ** (J + 1) * mp.power(y, -J) * mp.rgamma(1 - mp.mpf(nu) * J)
            bound = mp.gamma(mp.mpf(nu) * (J + 1)) * mp.power(y, -(J + 1)) / (mp.pi * m)
            worst = max(worst, float(abs(exact - partial) / bound))
    assert worst <= 1.0 + 1e-12
    if nu == 0.5:  # sharp there
        assert worst > 0.99


def test_remainder_sum_bounds_the_coefficients_past_the_head():
    # the carrier's remainder part bounds sum_{k>K} |R_J(a k^sigma)|/pi (here
    # its first 40 terms, a partial sum of nonnegative terms)
    nu, a, sigma, J, K = 0.6, 0.8, 2.0, 3, 6
    bound = fractional._remainder_bound(nu, a, sigma, J, K, cdf=False)
    total = mp.mpf(0)
    for k in range(K + 1, K + 41):
        y = a * k**sigma
        model = sum((-1) ** (j + 1) * mp.power(y, -j) * mp.rgamma(1 - mp.mpf(nu) * j) for j in range(1, J + 1))
        total += abs(ml_reference(nu, y) - model) / mp.pi
    assert float(total) <= bound


def test_zeta_against_mpmath():
    x = np.array([0.5, 0.7, 0.999, 1.001, 1.5, 2.0, 3.3, 10.0, 40.0])
    got, err = _zeta_right(x, x - 1.0)
    want = np.array([float(mp.zeta(v)) for v in x])
    assert np.all(np.abs(got - want) <= err)
    assert np.all(err <= 1e-13 * np.abs(want))


def polylog_part(s, th, sine):
    if th == 0.0:
        return 0.0 if sine else float(mp.zeta(s))
    value = mp.polylog(mp.mpf(s), mp.expj(mp.mpf(th)))
    return float(value.imag if sine else value.real)


ORDERS = [1.3, 2.7, 4.5, 2.001, 2.00001, 2.999, 3.00001, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0]
ANGLES = [0.0, 1e-8, 1.0, math.pi, TWO_PI - 1e-8, TWO_PI]


@pytest.mark.parametrize("sine", [False, True], ids=["cos", "sin"])
@pytest.mark.parametrize("s", ORDERS)
def test_lattice_sums_against_polylog(s, sine):
    # C_s is even and S_s odd about 0 and 2 pi-periodic: the closed forms
    # run on th reflected into [0, pi], and S changes sign there
    # (angles are taken modulo TWO_PI, the double the package takes for
    # 2 pi, as the grid fold and the CDF's ends do; TWO_PI - th is exact)
    form, charge = _closed_form([1.0], [s], sine)
    for th in ANGLES:
        r = min(th, TWO_PI - th)
        sign = -1.0 if sine and th > math.pi else 1.0
        got = float(form(np.array([r]))[0]) * sign
        want = polylog_part(s, r, sine) * sign
        assert abs(got - want) <= charge, (s, sine, th)
    near = min(abs(s - round(s)), 1.0)
    if near == 0.0 or near > 1e-2:
        assert charge <= 1e-12


def test_unit_form_cache_refills_when_full(monkeypatch):
    # a call that finds the cache full empties it and builds every order it
    # needs, those it had found there included
    r = np.array([0.0, 0.7, math.pi])
    monkeypatch.setattr(lattice, "_UNIT_FORMS", {})
    want = _closed_form([1.0, 0.5, 0.25], [2.3, 3.7, 5.1], False)[0](r)
    monkeypatch.setattr(lattice, "_UNIT_FORMS", {})
    monkeypatch.setattr(lattice, "_UNIT_CAP", 2)
    _closed_form([1.0, 0.5], [2.3, 3.7], False)
    got = _closed_form([1.0, 0.5, 0.25], [2.3, 3.7, 5.1], False)[0](r)
    assert np.array_equal(got, want)


def test_lattice_tail_is_the_sum_past_the_head():
    # density and CDF tails of m_k = sum_j c_j k^{-s_j} past K, against the
    # direct sums to k = 2e5, whose rest is below sum_j |c_j| k^{1-s_j}/(s_j-1)
    c, s, K = [0.3, -0.05], [3.0, 5.5], 4
    tail = lattice_tail(c, s, K, density=True)
    k = np.arange(K + 1.0, 200_001.0)
    rest = sum(abs(cj) * k[-1] ** (1.0 - sj) / (sj - 1.0) for cj, sj in zip(c, s)) + 1e-15
    m = c[0] * k ** -s[0] + c[1] * k ** -s[1]
    for th in (0.0, 0.4, 2.5, math.pi):
        head = np.arange(1.0, K + 1.0)
        dens = tail.density(th) - float(np.sum(tail.head * np.cos(head * th)))
        cdf = tail.cdf_form(np.array([th]))[0] - float(np.sum(tail.head * np.sin(head * th) / head))
        assert abs(dens - float(np.sum(m * np.cos(k * th)))) <= tail.rounding + rest
        assert abs(cdf - float(np.sum(m * np.sin(k * th) / k))) <= tail.rounding + rest


def test_plain_coefficient_errors_are_bounded():
    # the per-entry bounds _ml_many reports hold against 30-digit values
    ys = np.array([0.3, 2.0, 49.0, 51.0, 400.0])
    vals, errs = _ml_many(0.7, -ys, Tolerance(1e-10))
    for y, v, e in zip(ys, vals, errs):
        assert abs(v - float(ml_reference(0.7, y))) <= e <= 1e-10


def plain_bound(law, coeffs, tol):
    """tail_bound of a plain carrier plus its coefficients' error bounds."""
    errs = []
    coeffs(np.arange(1.0, law.n_terms + 1.0), tol, errs, True)
    return law.tail_bound + math.fsum(errs) / math.pi


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 2),
    nu=st.floats(0.2, 0.95),
    t=st.floats(0.3, 3.0),
    tol=st.sampled_from([1e-4, 1e-5, 1e-6]),
)
def test_time_fractional_routes_agree(n, nu, t, tol):
    # wherever the plain series answers, the two routes agree within b_A + b_B
    loose = Tolerance(abs_tol=tol)
    try:
        plain = fractional._time_fractional_law(n, nu, t, loose, math.inf)
    except fractional.ConvergenceError:
        return
    law = time_fractional_law(n, nu, t)
    th = np.linspace(0.0, TWO_PI, 17)
    bound = law.tail_bound + plain_bound(plain, fractional._time_fractional_coeffs(nu, t, n), loose)
    assert np.max(np.abs(law.density(th) - plain.density(th))) <= bound
    assert np.max(np.abs(law.cdf(th) - plain.cdf(th))) <= bound


@settings(max_examples=25, deadline=None)
@given(
    nu=st.floats(0.2, 0.95),
    beta=st.floats(0.3, 0.95),
    t=st.floats(0.3, 3.0),
    tol=st.sampled_from([1e-4, 1e-5, 1e-6]),
)
# every J's closed forms round past tol/4 at their first K0 (the least, 3.1e-11
# at J = 4): the second pass answers with K0 re-solved for the share left
@example(nu=0.875, beta=0.375, t=0.5, tol=1e-4)
def test_space_time_cdf_routes_agree(nu, beta, t, tol):
    loose = Tolerance(abs_tol=tol)
    try:
        plain = fractional._space_time_law(nu, beta, t, loose, True, math.inf)
    except fractional.ConvergenceError:
        return
    th = np.linspace(0.0, TWO_PI, 17)
    law = fractional._space_time_law(nu, beta, t, Tolerance(), True, th.size)
    coeffs = lambda k, tol, errs, deep: fractional._space_time_coeffs(nu, beta, t, k, tol, errs, deep)  # noqa: E731
    bound = law.tail_bound + plain_bound(plain, coeffs, loose)
    assert np.max(np.abs(law.cdf(th) - plain.cdf(th))) <= bound


def _draws(seed, count):
    """count seeded (coeffs, nu, a, sigma, cdf, tol, points) of the lattice
    form, time-fractional densities and space-time densities and CDFs."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        nu, t = rng.uniform(0.2, 0.95), 10.0 ** rng.uniform(-1.0, 0.5)
        tol, points = Tolerance(10.0 ** rng.uniform(-11.0, -6.0)), int(rng.choice([0, 17, 64, 512]))
        if i % 3 == 0:
            n = int(rng.integers(1, 4))
            out.append((fractional._time_fractional_coeffs(nu, t, n), nu, t**nu, 2 * n, False, tol, points))
        else:
            beta, cdf = rng.uniform(0.51, 0.95), i % 3 == 2
            coeffs = lambda k, tol, errs, deep, nu=nu, beta=beta, t=t: fractional._space_time_coeffs(  # noqa: E731
                nu, beta, t, k, tol, errs, deep
            )
            out.append((coeffs, nu, t**nu / 2.0**beta, 2 * beta, cdf, tol, points))
    return out


# a draw where the plans batched by their cost floor took J = 3 although the
# cheaper J = 5 certifies (J = 4, cheaper still, rounds past tol/4)
_BATCH_MISS = (0.6014939439360709, 0.44479336492323907, 0.1400353379166438, 1.9222560339678072e-10, 512)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_sorted_pass_takes_the_cheapest_j_that_certifies(seed):
    draws = _draws(seed, 8)
    if seed == 1:
        nu, beta, t, tol, points = _BATCH_MISS
        coeffs = lambda k, tol, errs, deep: fractional._space_time_coeffs(nu, beta, t, k, tol, errs, deep)  # noqa: E731
        draws.append((coeffs, nu, t**nu / 2.0**beta, 2 * beta, True, Tolerance(tol), points))
    for coeffs, nu, a, sigma, cdf, tol, points in draws:
        got = fractional._lattice_law(coeffs, nu, a, sigma, cdf, tol, points, math.inf, "")
        # every J on its own, by cost, until one certifies at the first
        # pass's shares: the cheapest that certifies
        want = None
        for cost, J in sorted(fractional._lattice_plans(nu, a, sigma, cdf, tol, points, math.inf)):
            want = fractional._first_fit([(J, 0.5 * tol.abs_tol)], coeffs, nu, a, sigma, cdf, tol, "", [])
            if want is not None:
                break
        if want is not None:
            assert got.meta == want.meta and got.tail_bound == want.tail_bound
            assert np.array_equal(got.cos_coeffs, want.cos_coeffs)
        elif got is not None:  # the second pass answered, within tol
            assert got.tail_bound <= tol.abs_tol


def test_sampling_sized_space_time_cdf_keeps_the_plain_route(monkeypatch):
    # N = 5000 angles at tol 1e-3: the plain series (K = 37) is cheaper than
    # the lattice form. Its CDF is read from the Taylor tables of
    # harmonic._scattered, within the evaluation certificate of the Horner
    # doubles the route gave before them
    th = np.sort(np.random.default_rng(7).uniform(0.0, TWO_PI, 5000))
    law = fractional._space_time_law(0.7, 0.8, 1.0, Tolerance(1e-3), True, th.size)
    assert law.lattice is None
    F = space_time_fractional_cdf(0.7, 0.8, th, 1.0, Tolerance(1e-3))
    assert hashlib.sha256(F.tobytes()).hexdigest() == (
        "700503d1102b0842b6965c6fb117de6753330fa42f5db5a6dfd8985b16dbc5b7"
    )
    monkeypatch.setattr(harmonic, "_table_plan", lambda K, th: None)
    horner = space_time_fractional_cdf(0.7, 0.8, th, 1.0, Tolerance(1e-3))
    assert hashlib.sha256(horner.tobytes()).hexdigest() == (
        "65bd0339750815d66797c639ba98c7a7797835877dc7af057bf43084e776884c"
    )
    assert np.max(np.abs(F - horner)) <= cdf_certificate(law, th.size)


@pytest.mark.parametrize(
    "cdf",
    [
        lambda th: time_fractional_law(1, 0.5, 1.0).cdf(th),
        lambda th: time_fractional_law(2, 0.8, 0.3).cdf(th),
        lambda th: space_time_fractional_cdf(0.5, 0.5, th, 1.0),
        lambda th: space_time_fractional_cdf(0.6, 0.45, th, 1.3),
    ],
    ids=["timefrac-1", "timefrac-2", "spacetime-half", "spacetime-0.45"],
)
def test_cdf_ends_are_exact(cdf):
    assert cdf(0.0) == 0.0 and cdf(TWO_PI) == 1.0
    F = cdf(np.linspace(0.0, TWO_PI, 9))
    assert F[0] == 0.0 and F[-1] == 1.0 and F[4] == pytest.approx(0.5, abs=1e-13)


def test_lattice_law_samples_and_cdf_only_carrier_is_refused():
    law = time_fractional_law(1, 0.6, 1.0)
    assert law.lattice is not None and math.isfinite(law.lattice.slope)
    draws = sample(law, RngStream(5), 20_000)
    assert ks_statistic(draws, law.cdf) < 0.015
    cdf_only = fractional._space_time_law(0.5, 0.5, 1.0, Tolerance(), True, 64)
    with pytest.raises(DomainError, match="slope"):
        sample(cdf_only, RngStream(5), 10)
    with pytest.raises(fractional.ConvergenceError, match="CDF level"):
        cdf_only.density(1.0)

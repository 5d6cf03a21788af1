"""Monte Carlo engine tests: stream reproducibility, subordinator laws,
wrapped Brownian sampling, planar exit angles, KS utilities, and the
subordination composition identities."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from circlaw import ConvergenceError, DomainError, Tolerance
from circlaw.brownian import bm_law
from circlaw.fractional import space_fractional_law, space_time_fractional_cdf
from circlaw.harmonic import TWO_PI
from circlaw.kernels import even_kernel_cdf
from circlaw.montecarlo import (
    RngStream,
    ks_statistic,
    sample_inverse_subordinator,
    sample_stable_subordinator,
    sample_wrapped_bm,
    simulate_planar_hit,
)
from circlaw.special import mittag_leffler
from oracles import ks_two_arrays, sampler_draws_digest, wrapped_bm_mod

SEED = 314159


def uniform_cdf(th):
    return np.asarray(th) / TWO_PI


class _Counter:
    """Generator stand-in that counts the rounds of the planar walk, one
    uniform draw each."""

    def __init__(self, seed):
        self.gen = np.random.default_rng(seed)
        self.rounds = 0

    def uniform(self, *args):
        self.rounds += 1
        return self.gen.uniform(*args)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 3).generator.standard_normal(64)
        b = RngStream(42, 3).generator.standard_normal(64)
        assert np.array_equal(a, b)

    def test_streams_and_seeds_differ(self):
        base = RngStream(42, 0).generator.standard_normal(16)
        assert not np.array_equal(base, RngStream(42, 1).generator.standard_normal(16))
        assert not np.array_equal(base, RngStream(43, 0).generator.standard_normal(16))

    def test_generator_advances(self):
        s = RngStream(7)
        first = s.generator.standard_normal(8)
        second = s.generator.standard_normal(8)
        assert not np.array_equal(first, second)

    def test_draw_order_across_streams_irrelevant(self):
        # fixed stream assignment makes results worker-schedule independent
        s1, s2 = RngStream(9, 1), RngStream(9, 2)
        a1 = s1.generator.standard_normal(32)
        a2 = s2.generator.standard_normal(32)
        t2, t1 = RngStream(9, 2), RngStream(9, 1)
        b2 = t2.generator.standard_normal(32)
        b1 = t1.generator.standard_normal(32)
        assert np.array_equal(a1, b1) and np.array_equal(a2, b2)

    def test_equal_only_to_itself(self):
        # same (seed, stream_id), yet one has drawn: the two differ
        a, b = RngStream(9, 1), RngStream(9, 1)
        a.generator.standard_normal(4)
        assert a == a and a != b
        assert len({a, b}) == 2

    @pytest.mark.parametrize("seed,stream", [(-1, 0), (2**64, 0), (0, -2), (1.5, 0)])
    def test_invalid(self, seed, stream):
        with pytest.raises(DomainError):
            RngStream(seed, stream)


class TestStableSubordinator:
    def test_degenerate_nu_one(self):
        s = RngStream(SEED)
        assert sample_stable_subordinator(1.0, 2.0, s) == 2.0
        vec = sample_stable_subordinator(1.0, 0.7, s, size=5)
        assert vec.shape == (5,) and np.all(vec == 0.7)

    def test_levy_half_cdf(self):
        # H^{1/2}(1) is Levy with CDF erfc(1/(2 sqrt(x)))
        x = sample_stable_subordinator(0.5, 1.0, RngStream(SEED, 1), size=100_000)
        ks = ks_statistic(x, lambda y: special.erfc(1.0 / (2.0 * np.sqrt(y))))
        assert ks < 0.01
        assert np.median(x) == pytest.approx(1.0990, abs=0.03)

    def test_scaling_identity(self):
        # H(t) law-equals t^{1/nu} H(1)
        s = RngStream(SEED, 2)
        a = sample_stable_subordinator(0.7, 2.0, s, size=50_000)
        b = 2.0 ** (1.0 / 0.7) * sample_stable_subordinator(0.7, 1.0, s, size=50_000)
        assert stats.ks_2samp(a, b).statistic < 0.015

    @pytest.mark.parametrize("nu", [0.3, 0.7])
    def test_laplace_transform(self, nu):
        h = sample_stable_subordinator(nu, 1.3, RngStream(SEED, 3), size=200_000)
        lap = np.exp(-h)
        se = lap.std() / math.sqrt(lap.size)
        assert abs(lap.mean() - math.exp(-1.3)) < 4.0 * se

    def test_shapes_and_positivity(self):
        s = RngStream(SEED, 11)
        one = sample_stable_subordinator(0.4, 1.0, s)
        assert isinstance(one, float) and one > 0.0
        many = sample_stable_subordinator(0.4, 1.0, s, size=1000)
        assert many.shape == (1000,) and np.all(many > 0.0)

    def test_draws_past_float64_are_inf_without_warning(self):
        # at nu = 0.01 the power 99 on A/W overflows for a few draws
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = sample_stable_subordinator(0.01, 1.0, RngStream(SEED, 14), size=10_000)
        big = np.isinf(h)
        assert 0 < big.sum() < 100 and np.all(h[~big] > 0.0)
        with pytest.raises(DomainError):
            sample_wrapped_bm(h, RngStream(SEED, 15))

    @pytest.mark.parametrize("nu", [0.99, 0.999, 0.9999])
    def test_finite_draws_near_nu_one(self, nu):
        # both powers of Kanter's A underflow near nu = 1; in logs no draw is 0/0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = sample_stable_subordinator(nu, 1.0, RngStream(1), size=10_000)
            L = sample_inverse_subordinator(nu, 1.0, RngStream(1), size=10_000)
        assert np.all(np.isfinite(h)) and np.all(h > 0.0)
        assert np.all(np.isfinite(L)) and np.all(L > 0.0)

    @pytest.mark.parametrize("nu,t", [(0.0, 1.0), (1.2, 1.0), (0.5, 0.0), (0.5, -1.0)])
    def test_domain(self, nu, t):
        with pytest.raises(DomainError):
            sample_stable_subordinator(nu, t, RngStream(0))

    def test_bad_size(self):
        with pytest.raises(DomainError):
            sample_stable_subordinator(0.5, 1.0, RngStream(0), size=0)


class TestInverseSubordinator:
    def test_degenerate_nu_one(self):
        assert sample_inverse_subordinator(1.0, 3.0, RngStream(SEED)) == 3.0

    def test_first_moment(self):
        # E L(t) = t^nu / Gamma(1 + nu)
        L = sample_inverse_subordinator(0.5, 1.0, RngStream(SEED, 4), size=1_000_000)
        want = 1.0 / math.gamma(1.5)
        se = L.std() / math.sqrt(L.size)
        assert abs(L.mean() - want) < 3.0 * se

    def test_mittag_leffler_mixture(self):
        # E e^{-L(1)} is the Mittag-Leffler function at -1
        L = sample_inverse_subordinator(0.5, 1.0, RngStream(SEED, 4), size=1_000_000)
        assert abs(np.exp(-L).mean() - mittag_leffler(0.5, -1.0)) < 0.005

    def test_nonnegative(self):
        L = sample_inverse_subordinator(0.8, 2.0, RngStream(SEED, 12), size=1000)
        assert np.all(L >= 0.0)


class TestWrappedBm:
    def test_range(self):
        w = sample_wrapped_bm(1.0, RngStream(SEED, 13), size=10_000)
        assert np.all((0.0 <= w) & (w < TWO_PI))

    def test_matches_analytic_cdf(self):
        w = sample_wrapped_bm(1.0, RngStream(SEED, 5), size=100_000)
        assert ks_statistic(w, bm_law(1.0).cdf) < 0.01

    def test_large_t_uniform(self):
        w = sample_wrapped_bm(50.0, RngStream(SEED, 6), size=100_000)
        assert ks_statistic(w, uniform_cdf) < 0.01

    def test_resultant_length(self):
        # first circular moment |E e^{i Theta}| = e^{-t/2}
        w = sample_wrapped_bm(1.0, RngStream(SEED, 5), size=100_000)
        res = np.exp(1j * w).mean()
        assert abs(res) == pytest.approx(math.exp(-0.5), abs=0.01)
        assert abs(np.angle(res)) < 0.02

    def test_vector_times(self):
        ts = np.array([0.5, 1.0, 2.0, 4.0])
        w = sample_wrapped_bm(ts, RngStream(SEED, 14))
        assert w.shape == ts.shape
        with pytest.raises(DomainError):
            sample_wrapped_bm(ts, RngStream(SEED, 14), size=3)

    def test_scalar_mode(self):
        val = sample_wrapped_bm(0.7, RngStream(SEED, 15))
        assert isinstance(val, float) and 0.0 <= val < TWO_PI

    @pytest.mark.parametrize(
        "t, size",
        [(0.7, None), (1.0, 10_000), (1e6, 1000), (np.array([1e-9, 0.5, 2.0, 1e12] * 50), None)],
        ids=["scalar", "scalar-size", "long-time", "time-array"],
    )
    def test_draws_are_np_mod_residues(self, t, size):
        # the residue by fmod and the sign fix-up is np.mod's, bit for bit
        got = sample_wrapped_bm(t, RngStream(SEED, 16), size=size)
        want = wrapped_bm_mod(t, RngStream(SEED, 16), size=size)
        assert np.array_equal(np.atleast_1d(got).view(np.int64), np.atleast_1d(want).view(np.int64))

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_wrapped_bm(0.0, RngStream(0))
        with pytest.raises(DomainError):
            sample_wrapped_bm(np.array([1.0, -1.0]), RngStream(0))


class TestPlanarHit:
    def test_exit_law_is_even_kernel(self):
        # harmonic measure from radius e^{-1} vs the kernel at t = 1
        ang = simulate_planar_hit(math.exp(-1.0), RngStream(SEED, 9), step=1e-3, size=50_000)
        assert ks_statistic(ang, lambda th: even_kernel_cdf(th, 1.0)) < 0.015
        assert abs(np.mean(np.sin(ang))) < 0.02

    def test_center_start_is_uniform(self):
        ang = simulate_planar_hit(0.02, RngStream(SEED, 10), step=1e-3, size=20_000)
        assert ks_statistic(ang, uniform_cdf) < 0.015

    def test_deterministic_and_scalar(self):
        a = simulate_planar_hit(0.5, RngStream(SEED, 16), size=64)
        b = simulate_planar_hit(0.5, RngStream(SEED, 16), size=64)
        assert np.array_equal(a, b)
        one = simulate_planar_hit(0.5, RngStream(SEED, 17))
        assert isinstance(one, float) and 0.0 <= one < TWO_PI

    def test_step_cap(self):
        with pytest.raises(ConvergenceError, match="max_steps"):
            simulate_planar_hit(0.5, RngStream(SEED, 18), step=1e-4, size=8, max_steps=3)

    @pytest.mark.parametrize("r,step", [(0.0, 1e-3), (1.0, 1e-3), (1.5, 1e-3), (0.5, 0.0)])
    def test_domain(self, r, step):
        with pytest.raises(DomainError):
            simulate_planar_hit(r, RngStream(0), step=step)

    def test_cap_counts_steps_exactly(self):
        # the slowest path's round count is enough, one round fewer is not
        rec = _Counter(SEED)
        got = simulate_planar_hit(0.5, rec, step=1e-2, size=200)
        worst = rec.rounds
        capped = simulate_planar_hit(0.5, _Counter(SEED), step=1e-2, size=200, max_steps=worst)
        assert np.array_equal(got, capped)
        with pytest.raises(ConvergenceError, match="after"):
            simulate_planar_hit(0.5, _Counter(SEED), step=1e-2, size=200, max_steps=worst - 1)

    def test_start_on_the_rim(self):
        # a start within step of the circle stops before any draw
        rec = _Counter(SEED)
        ang = simulate_planar_hit(1.0 - 1e-9, rec, step=1e-3, size=2000)
        assert rec.rounds == 0 and np.all(ang == 0.0)

    def test_cap_never_changes_the_draws(self):
        a = simulate_planar_hit(0.6, RngStream(SEED, 20), size=300)
        b = simulate_planar_hit(0.6, RngStream(SEED, 20), size=300, max_steps=200_000)
        assert np.array_equal(a, b)
        with pytest.raises(ConvergenceError, match="max_steps"):
            simulate_planar_hit(0.6, RngStream(SEED, 20), size=300, max_steps=3)

    def test_scalar_mode(self):
        one = simulate_planar_hit(0.3, RngStream(SEED, 21), step=1e-2)
        assert isinstance(one, float) and 0.0 <= one < TWO_PI

    @settings(max_examples=60, deadline=None)
    @given(r=st.floats(0.01, 0.99), size=st.integers(1, 300), sid=st.integers(0, 2**32 - 1))
    def test_angles_in_range_and_repeatable(self, r, size, sid):
        a = simulate_planar_hit(r, RngStream(SEED, sid), step=1e-2, size=size)
        assert a.shape == (size,)
        assert np.all(np.isfinite(a)) and np.all((0.0 <= a) & (a < TWO_PI))
        assert np.array_equal(a, simulate_planar_hit(r, RngStream(SEED, sid), step=1e-2, size=size))

    def test_no_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r, step in [(0.02, 1e-3), (0.5, 1.0), (1.0 - 1e-12, 1e-6), (0.99, 1e-2)]:
                ang = simulate_planar_hit(r, RngStream(SEED, 22), step=step, size=200)
                assert np.all((0.0 <= ang) & (ang < TWO_PI))


class TestRefusals:
    """Bad arguments raise DomainError, never NaN, inf or a raw error."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sample_wrapped_bm(math.nan, RngStream(0)),
            lambda: sample_wrapped_bm(np.array([1.0, math.nan]), RngStream(0)),
            lambda: sample_wrapped_bm(math.inf, RngStream(0)),
            lambda: sample_wrapped_bm(1.0, RngStream(0), size=2.5),
            lambda: sample_inverse_subordinator(0.5, math.nan, RngStream(0)),
            lambda: sample_inverse_subordinator(0.5, -1.0, RngStream(0)),
            lambda: sample_inverse_subordinator(0.5, math.inf, RngStream(0)),
            lambda: sample_stable_subordinator(0.5, math.inf, RngStream(0)),
            lambda: sample_stable_subordinator(0.5, 1e300, RngStream(0)),
            lambda: sample_stable_subordinator(0.5, 1.0, RngStream(0), size=2.5),
            lambda: sample_stable_subordinator(0.5, 1.0, RngStream(0), size=math.nan),
            lambda: simulate_planar_hit(0.5, RngStream(0), step=math.inf),
            lambda: simulate_planar_hit(0.5, RngStream(0), step=math.nan),
            lambda: simulate_planar_hit(0.5, RngStream(0), step=2.0),
            lambda: simulate_planar_hit(0.5, RngStream(0), step=1e308),
            lambda: simulate_planar_hit(0.5, RngStream(0), step=1e-310),
            lambda: simulate_planar_hit(0.5, RngStream(0), max_steps=math.nan),
            lambda: simulate_planar_hit(0.5, RngStream(0), max_steps=2.5),
            lambda: simulate_planar_hit(0.5, RngStream(0), max_steps=0),
            lambda: simulate_planar_hit(0.5, RngStream(0), size=2.5),
            lambda: ks_statistic(np.full(200, math.nan), uniform_cdf),
            lambda: ks_statistic(np.linspace(0.1, 6.0, 200), lambda th: th * math.nan),
            lambda: RngStream(math.nan),
            lambda: RngStream(math.inf),
            lambda: RngStream(3.0),
        ],
    )
    def test_refused(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                call()

    def test_integral_sizes_keep_the_draws(self):
        a = sample_stable_subordinator(0.5, 1.0, RngStream(SEED, 23), size=5)
        b = sample_stable_subordinator(0.5, 1.0, RngStream(SEED, 23), size=np.int64(5))
        c = sample_stable_subordinator(0.5, 1.0, RngStream(SEED, 23), size=5.0)
        assert np.array_equal(a, b) and np.array_equal(a, c)


class TestKsStatistic:
    def test_calibration_over_streams(self):
        # asymptotic 1% quantile 1.63/sqrt(n): at most one excursion in 100
        n = 100_000
        fails = 0
        for sid in range(100):
            u = RngStream(271828, sid).generator.uniform(0.0, TWO_PI, n)
            if ks_statistic(u, uniform_cdf) >= 1.63 / math.sqrt(n):
                fails += 1
        assert fails <= 1

    def test_constant_samples_vs_uniform(self):
        ks = ks_statistic(np.full(200, 0.01), uniform_cdf)
        assert ks > 0.99

    def test_needs_hundred_samples(self):
        with pytest.raises(DomainError):
            ks_statistic(np.linspace(0.1, 1.0, 99), uniform_cdf)

    def test_rejects_nonmonotone_cdf(self):
        u = RngStream(1).generator.uniform(0.0, TWO_PI, 500)
        with pytest.raises(DomainError, match="monotone"):
            ks_statistic(u, np.sin)

    @pytest.mark.parametrize("n", [100, 101, 1000, 50_000])
    def test_is_the_two_array_formula(self, n):
        # i/n formed once, (i-1)/n read one place back: the same doubles
        gen = RngStream(SEED, n).generator
        cdfs = [uniform_cdf, bm_law(0.7).cdf, lambda th: np.minimum(np.round(th, 1) / 6.0, 1.0)]
        for x in (gen.uniform(0.0, TWO_PI, n), np.sort(gen.vonmises(0.0, 2.0, n) + math.pi)):
            for cdf in cdfs:
                assert ks_statistic(x, cdf) == ks_two_arrays(x, cdf)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_refusals(self, bad):
        x = RngStream(2).generator.uniform(0.0, TWO_PI, 200)
        for pos in (0, 100, 199):
            y = x.copy()
            y[pos] = bad
            with pytest.raises(DomainError, match="samples must be finite"):
                ks_statistic(y, uniform_cdf)
            with pytest.raises(DomainError, match="cdf values must be finite"):
                ks_statistic(x, lambda th, pos=pos: np.where(np.arange(th.size) == pos, bad, th / TWO_PI))
        with pytest.raises(DomainError, match="monotone"):
            ks_statistic(x, lambda th: -th)
        with pytest.raises(DomainError, match="at least 100"):
            ks_statistic(x[:99], uniform_cdf)


class TestSubordinationComposition:
    def test_single_subordination_matches_space_fractional(self):
        # B(H^beta(t)) has the space-fractional law (diffusivity k^2/2)
        s = RngStream(SEED, 7)
        H = sample_stable_subordinator(0.5, 1.0, s, size=100_000)
        ang = sample_wrapped_bm(H, s)
        assert ks_statistic(ang, space_fractional_law(0.5, 1.0).cdf) < 0.015

    def test_double_subordination_matches_space_time_fractional(self):
        # B(H^beta(L^nu(t))) vs the space-time law through its CDF series;
        # the CDF runs at certified tail 1e-4, invisible at this KS scale
        s = RngStream(SEED, 8)
        n = 30_000
        L = sample_inverse_subordinator(0.5, 1.0, s, size=n)
        H = L ** (1.0 / 0.5) * sample_stable_subordinator(0.5, 1.0, s, size=n)
        ang = sample_wrapped_bm(H, s)
        tol = Tolerance(abs_tol=1e-4)
        ks = ks_statistic(ang, lambda th: space_time_fractional_cdf(0.5, 0.5, th, 1.0, tol))
        assert ks < 0.02


# the draws of _sampler_matrix(2026) and their KS distances as computed
# before the table path of harmonic._scattered (KS values as Horner gave them)
SAMPLER_DIGEST = "a2e6f281e9352006a58000fa44f1ea9cfd465197b8d3b1b2e5345f3a0f2f0475"
SAMPLER_KS = {
    "bm": 0.010551221501304747,
    "spacefrac-0.35": 0.012136747427538563,
    "spacefrac-0.7": 0.008276798291638743,
    "wrappedstable": 0.006328621407267532,
    "kernel-even": 0.007746349758864679,
    "wrapped_bm": 0.007837794080865212,
    "stable": 0.006233012154159112,
    "inverse": 0.00996033215509351,
    "planar": 0.029555185136675655,
}


def test_sampler_draws_and_ks_values_are_kept():
    # every draw, bit for bit; each KS distance within twice its CDF's
    # evaluation certificate (the old and the new value each within one of
    # the exact CDF), exactly where the CDF is in closed form
    digest, ks = sampler_draws_digest(2026)
    assert digest == SAMPLER_DIGEST
    assert ks.keys() == SAMPLER_KS.keys()
    for name, (value, cert) in ks.items():
        assert abs(value - SAMPLER_KS[name]) <= 2.0 * cert, name

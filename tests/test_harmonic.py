"""HarmonicLaw carrier tests: evaluation and its roundoff certificate,
CDF, projection, sampling, and the truncation rule shared by every
series law."""

import math
import re
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate

import circlaw
from circlaw import (
    ConvergenceError,
    DomainError,
    SignedLawError,
    Tolerance,
    bm_law,
    even_circle_law,
    even_kernel_cdf,
    even_kernel_law,
    odd_kernel_law,
    space_fractional_law,
    time_fractional_law,
    wrapped_stable_law,
)
from circlaw import fractional
from circlaw.harmonic import (
    TWO_PI,
    HarmonicLaw,
    _BABY_STEP_TERMS,
    _POWER_TABLE,
    _TABLE_POINTS,
    _TABLE_TERMS,
    _TWO_PI_PARTS,
    _grid_period,
    _table_plan,
    _taylor_tables,
    _trig_sum,
    _unit,
    _wrap,
    certified_cutoff,
    cosine_law,
    fourier_coeffs,
    sample,
)
from circlaw.special import _WORK, MAX_TERMS
from oracles import cdf_certificate, complex_fold, grid_period, whole_array_sum

EPS = np.finfo(float).eps


def make_law(a, b, a0=1.0 / TWO_PI, tail=0.0):
    return HarmonicLaw(a0=a0, cos_coeffs=np.asarray(a, float),
                       sin_coeffs=np.asarray(b, float), tail_bound=tail)


def certificate(a0, a, b, n_points):
    """Evaluation roundoff bound of the HarmonicLaw docstring."""
    log_n = math.ceil(math.log2(n_points)) if n_points > 1 else 0
    return 4 * (np.size(a) + log_n) * EPS * (abs(a0) + np.abs(a).sum() + np.abs(b).sum())


def direct_sum(a0, a, b, thetas):
    """a0 + sum_k (a_k cos k th + b_k sin k th), term by term in long double."""
    th = np.asarray(thetas, dtype=np.longdouble)
    k = np.arange(1, np.size(a) + 1, dtype=np.longdouble)
    a, b = np.asarray(a, np.longdouble), np.asarray(b, np.longdouble)
    out = np.empty(th.shape, dtype=np.longdouble)
    for idx in np.ndindex(th.shape):
        ang = k * th[idx]
        out[idx] = a0 + np.dot(np.cos(ang), a) + np.dot(np.sin(ang), b)
    return out


def random_coeffs(seed, K, power):
    """Signed coefficients of magnitude ~ k^power, modes 1..K."""
    rng = np.random.default_rng(seed)
    k = np.arange(1.0, K + 1.0)
    return (rng.uniform(-1, 1, K) * k**power, rng.uniform(-1, 1, K) * k**power)


def ks_against(sorted_samples, cdf_vals):
    n = sorted_samples.size
    i = np.arange(1, n + 1)
    return max(np.max(i / n - cdf_vals), np.max(cdf_vals - (i - 1) / n))


class TestHarmonicLaw:
    def test_uniform(self):
        law = make_law([], [])
        assert law.n_terms == 0
        assert law.density(1.234) == pytest.approx(1.0 / TWO_PI, abs=1e-15)

    def test_mixed_series_value(self):
        law = make_law([0.1, 0.0, 0.02], [0.05, 0.0, 0.0])
        th = 0.9
        expect = (1.0 / TWO_PI + 0.1 * math.cos(th) + 0.02 * math.cos(3 * th)
                  + 0.05 * math.sin(th))
        assert law.density(th) == pytest.approx(expect, abs=1e-14)
        vals = law.density(np.array([0.0, th]))
        assert vals[1] == pytest.approx(expect, abs=1e-14)

    def test_periodicity(self):
        law = make_law([0.1, 0.03], [0.02, 0.0])
        for th in (0.0, 1.0, 4.0):
            assert law.density(th) == pytest.approx(law.density(th + TWO_PI), abs=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            make_law([0.1, 0.2], [0.1])
        with pytest.raises(DomainError):
            HarmonicLaw(a0=1.0, cos_coeffs=np.zeros((2, 2)),
                        sin_coeffs=np.zeros((2, 2)), tail_bound=0.0)
        with pytest.raises(DomainError):
            make_law([0.1], [0.0], tail=-1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["a0", "cos_coeffs", "sin_coeffs"])
    def test_refuses_non_finite_coefficients(self, where, bad):
        # a non-finite coefficient would give a NaN or inf density and a raw
        # ValueError from sample
        parts = {"a0": 1.0 / TWO_PI, "cos_coeffs": np.array([0.1, 0.0]), "sin_coeffs": np.zeros(2)}
        parts[where] = bad if where == "a0" else np.array([0.1, bad])
        with pytest.raises(DomainError, match=f"{where} must be finite"):
            HarmonicLaw(tail_bound=0.0, **parts)


class TestCdf:
    def test_endpoints(self):
        law = make_law([0.1, 0.02], [0.03, 0.01])
        assert law.cdf(0.0) == 0.0
        assert law.cdf(TWO_PI) == pytest.approx(1.0, abs=1e-12)

    def test_midpoint_of_even_law(self):
        # pure cosine series: cdf(pi) = a0 pi = 1/2, every sin(k pi) = 0
        law = make_law([0.2, -0.05, 0.01], [0.0, 0.0, 0.0])
        assert law.cdf(math.pi) == pytest.approx(0.5, abs=1e-13)

    def test_matches_quadrature(self):
        law = make_law([0.08, 0.01], [0.04, -0.02])
        for th in (0.7, 2.0, 5.5):
            oracle, _ = integrate.quad(law.density, 0.0, th, limit=200)
            assert law.cdf(th) == pytest.approx(oracle, abs=1e-10)

    def test_domain(self):
        law = make_law([0.1], [0.0])
        with pytest.raises(DomainError):
            law.cdf(-0.5)
        with pytest.raises(DomainError):
            law.cdf(TWO_PI + 0.5)


# angle sets: (builder from (n, rng), whether _trig_sum takes the grid path)
ANGLE_SETS = {
    "linspace": (lambda n, rng: np.linspace(0.0, TWO_PI, n + 1), True),
    "arange": (lambda n, rng: np.arange(n) * (TWO_PI / n), True),
    "scattered": (lambda n, rng: rng.uniform(-10.0, 10.0, n), False),
    "scalar": (lambda n, rng: float(rng.uniform(-10.0, 10.0)), False),
    "2-d": (lambda n, rng: rng.uniform(0.0, TWO_PI, (3, n)), False),
    "linspace + 1e-12": (lambda n, rng: np.linspace(0.0, TWO_PI, n + 1) + 1e-12, False),
    "reversed linspace": (lambda n, rng: np.linspace(0.0, TWO_PI, n + 1)[::-1], False),
    # more points than one chunk's power table: from _BABY_STEP_TERMS terms
    # on, several chunks of baby steps
    "many scattered": (lambda n, rng: rng.uniform(0.0, TWO_PI, _POWER_TABLE + n), False),
}


class TestTrigSum:
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(sorted(ANGLE_SETS)),
        n=st.integers(1, 130),
        K=st.integers(0, 700),
        power=st.floats(-2.0, 2.0),
        a0=st.floats(-10.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_long_double_sum_within_certificate(self, kind, n, K, power, a0, seed):
        build, on_grid = ANGLE_SETS[kind]
        rng = np.random.default_rng(seed)
        th = build(n, rng)
        a, b = random_coeffs(seed, K, power)
        assert (_grid_period(np.atleast_1d(th)) > 0) == on_grid
        got = _trig_sum(a0, a, b, th)
        assert got.shape == np.atleast_1d(th).shape
        if kind == "many scattered":  # the first, an interior and the last chunk
            mid = th.size // 2
            checked = np.r_[0:64, mid - 32 : mid + 32, th.size - 64 : th.size]
        else:
            checked = ...
        ref = direct_sum(a0, a, b, np.atleast_1d(th)[checked])
        err = np.max(np.abs(got[checked] - ref), initial=0.0)
        assert err <= certificate(a0, a, b, np.size(th))

    # points per chunk of the baby-step path at _BABY_STEP_TERMS terms
    CHUNK = _POWER_TABLE // (math.isqrt(_BABY_STEP_TERMS) + 1)

    @pytest.mark.parametrize("n", [1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    @pytest.mark.parametrize("K", [_BABY_STEP_TERMS - 1, _BABY_STEP_TERMS])
    def test_either_side_of_the_baby_step_threshold(self, K, n):
        th = np.random.default_rng(K + n).uniform(0.0, TWO_PI, n)
        a, b = random_coeffs(n, K, 0.0)
        got = _trig_sum(0.7, a, b, th)
        err = np.max(np.abs(got - direct_sum(0.7, a, b, th)))
        assert err <= certificate(0.7, a, b, n)

    @pytest.mark.parametrize(
        "grid", [np.linspace(0.0, TWO_PI, 65), np.arange(64) * (TWO_PI / 64)]
    )
    def test_folds_long_series_onto_64_nodes(self, grid):
        a, b = random_coeffs(7, 300_000, -1.0)
        assert _grid_period(grid) == 64
        got = _trig_sum(0.3, a, b, grid)
        nodes = np.r_[0:grid.size:8, grid.size - 1]
        err = np.max(np.abs(got[nodes] - direct_sum(0.3, a, b, grid[nodes])))
        assert err <= certificate(0.3, a, b, grid.size)

    def test_no_terms(self):
        empty = np.zeros(0)
        for th in (np.linspace(0.0, TWO_PI, 9), np.array([0.5, 7.0]), 2.0, 0.0, np.array([0.0, TWO_PI])):
            assert np.all(_trig_sum(0.25, empty, empty, th) == 0.25)


class TestBlockedFold:
    # the grid fold reads the coefficients by blocks of whole rows and the
    # CDF divides by k inside them: the values, signs of zero included, are
    # those of the complex fold of the whole arrays
    LAWS = {
        # the time-fractional plain series, the second route
        "cosine": lambda: fractional._time_fractional_law(1, 0.5, 1.0, Tolerance(5e-6), math.inf),  # K = 56 419
        "odd": lambda: odd_kernel_law(1, 3e-4),  # K = 115 996
    }

    @pytest.mark.parametrize("law", LAWS.values(), ids=LAWS.keys())
    @pytest.mark.parametrize(
        "grid",
        [np.linspace(0.0, TWO_PI, n) for n in (8, 65, 513, 4096)]
        + [np.arange(n) * (TWO_PI / n) for n in (8, 65, 513, 4096)],
        ids=[f"linspace-{n}" for n in (8, 65, 513, 4096)] + [f"arange-{n}" for n in (8, 65, 513, 4096)],
    )
    def test_is_the_complex_fold(self, law, grid):
        full = law()
        M = _grid_period(grid)
        B = _WORK
        terms = sorted({1, M - 1, M, M + 1, B - 1, B, B + 1, 3 * B + 5})
        for K in terms:
            part = make_law(full.cos_coeffs[:K], full.sin_coeffs[:K], full.a0)
            for got, want in [
                (part.density(grid), complex_fold(part, grid)),
                (part.cdf(grid), complex_fold(part, grid, cdf=True)),
            ]:
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("law", LAWS.values(), ids=LAWS.keys())
    def test_one_node_is_the_whole_sum_within_a_block(self, law):
        # the node 0 (and 2 pi) folds onto M = 1: within one block of _WORK
        # entries numpy sums the column pairwise, as it sums c whole
        full = law()
        for K in (1, 7, _WORK - 1):
            part = make_law(full.cos_coeffs[:K], full.sin_coeffs[:K], full.a0)
            for grid in (np.array([0.0]), np.array([0.0, TWO_PI])):
                assert np.array_equal(part.density(grid), complex_fold(part, grid))
                assert np.array_equal(part.cdf(grid), complex_fold(part, grid, cdf=True))

    def test_one_node_memory_stays_within_a_few_blocks(self):
        # a 300 000-term carrier at the one node folds by blocks too, where
        # a whole coefficient array c would take 4.8 MB
        law = make_law(*random_coeffs(3, 300_000, -2.0))
        for evaluate, theta in ((law.density, 0.0), (law.cdf, np.array([0.0, TWO_PI]))):
            tracemalloc.start()
            try:
                evaluate(theta)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * 16 * _WORK


class TestScatteredBlocks:
    # the scattered path goes by blocks of points (on Horner's path of _WORK
    # points, of whole baby-step chunks from _BABY_STEP_TERMS terms on, a last
    # one-point block joined to the one before; on the table path of the
    # gathered columns' size): every value, sign of zero included, is the one
    # of the whole array evaluated at once on the path _scattered takes
    # (whole_array_sum), and lies within the certificate of the exact sum
    @staticmethod
    def sizes(K):
        chunk = _POWER_TABLE // (math.isqrt(K) + 1)
        step = _WORK if K < _BABY_STEP_TERMS else _WORK - _WORK % chunk
        return sorted({2, 3, _WORK - 1, _WORK, _WORK + 1, 2 * _WORK + 1, 3 * _WORK + 2, step + 1, 2 * step + 1})

    @staticmethod
    def assert_within_certificate(law, th, got, cdf=False):
        # at 40 of the points, against the long-double sum of the series evaluated
        at = np.unique(np.r_[0 : min(th.size, 8), np.linspace(0, th.size - 1, 32).astype(int)])
        a, b, a0 = law.cos_coeffs, law.sin_coeffs, law.a0
        if cdf:
            k = np.arange(1.0, law.n_terms + 1.0)
            a, b, a0 = -b / k, a / k, float(np.sum(b / k))
        want = direct_sum(a0, a, b, th[at]) + (law.a0 * th[at].astype(np.longdouble) if cdf else 0.0)
        cert = cdf_certificate(law, th.size) if cdf else certificate(a0, a, b, th.size)
        assert np.max(np.abs(got[at] - want)) <= cert

    @pytest.mark.parametrize("K", [1, 6, _BABY_STEP_TERMS - 1, _BABY_STEP_TERMS, 35, 200])
    def test_is_the_whole_array(self, K):
        law = make_law(*random_coeffs(K, K, -1.0))
        rng = np.random.default_rng(K)
        for n in self.sizes(K):
            th = np.r_[0.0, -0.0, TWO_PI, rng.uniform(0.0, TWO_PI, n - 3)] if n > 3 else rng.uniform(0.0, TWO_PI, n)
            got = law.density(th)
            assert np.array_equal(bits(got), bits(whole_array_sum(law, th)))
            self.assert_within_certificate(law, th, got)
            got = law.cdf(np.abs(th))
            assert np.array_equal(bits(got), bits(whole_array_sum(law, np.abs(th), cdf=True)))
            self.assert_within_certificate(law, np.abs(th), got, cdf=True)

    @pytest.mark.parametrize("n", [2, _WORK + 1, 2 * _WORK + 1, 3 * _WORK + 2])
    def test_carriers(self, n):
        th = np.random.default_rng(n).uniform(0.0, TWO_PI, n)
        for law in (bm_law(0.5).representation, space_fractional_law(0.35, 2.0)):  # K = 8 and 47
            got = law.density(th)
            assert np.array_equal(bits(got), bits(whole_array_sum(law, th)))
            self.assert_within_certificate(law, th, got)
            got = law.cdf(th)
            assert np.array_equal(bits(got), bits(whole_array_sum(law, th, cdf=True)))
            self.assert_within_certificate(law, th, got, cdf=True)
        law = time_fractional_law(1, 0.5, 1.0)  # a lattice carrier
        head = make_law(law.cos_coeffs - law.lattice.head, law.sin_coeffs, law.a0)
        assert np.array_equal(law.density(th), whole_array_sum(head, th) + law.lattice.density(th))
        r = np.minimum(th, TWO_PI - th)
        half = whole_array_sum(head, r, cdf=True) + law.lattice.cdf_form(r)
        assert np.array_equal(law.cdf(th), np.where(th > math.pi, 1.0 - half, half))

    def test_scalar_and_one_point_calls(self):
        # a lone point is its own block, as it was its own array
        law = make_law(*random_coeffs(3, 6, 0.0))
        for x in np.random.default_rng(3).uniform(0.0, TWO_PI, 50):
            assert bits(law.density(float(x))) == bits(whole_array_sum(law, np.array([x])))
            assert bits(law.cdf(np.array([x]))) == bits(whole_array_sum(law, np.array([x]), cdf=True))


class TestTablePath:
    # from _TABLE_POINTS points and _TABLE_TERMS terms on, where the cost
    # model takes it, _scattered reads Taylor tables instead of summing by
    # Horner: its values lie within the certificate of the exact sum
    @settings(max_examples=60, deadline=None)
    @given(
        K=st.integers(_TABLE_TERMS, 3000),
        N=st.integers(_TABLE_POINTS, 3 * 2**14 + 2),
        power=st.floats(-2.0, 1.0),
        sines=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_long_double_sum_within_certificate(self, K, N, power, sines, seed):
        rng = np.random.default_rng(seed)
        a, b = random_coeffs(seed, K, power)
        if not sines:
            b = np.zeros(K)
        edges = [0.0, -0.0, TWO_PI, 2 * TWO_PI, -2 * TWO_PI]
        th = np.r_[edges, rng.uniform(-2 * TWO_PI, 2 * TWO_PI, N - len(edges))]
        plan = _table_plan(K, th)
        # cell midpoints (m + 1/2) 2 pi / M and their neighbours, where the
        # cell index rounds either way; the plan does not move with them
        M = plan[0] if plan else 1 << (2 * K).bit_length()
        mids = (rng.integers(-M, 2 * M, 8) + 0.5) * (TWO_PI / M)
        th[5:29] = np.r_[mids, np.nextafter(mids, -math.inf), np.nextafter(mids, math.inf)]
        assert _table_plan(K, th) == plan
        got = _trig_sum(0.3, a, b, th)
        at = np.r_[0:45, rng.integers(0, N, 16)]
        err = np.max(np.abs(got[at] - direct_sum(0.3, a, b, th[at])))
        assert err <= certificate(0.3, a, b, N)

    @pytest.mark.parametrize("K", [_TABLE_TERMS - 1, _TABLE_TERMS, 200])
    @pytest.mark.parametrize("N", [_TABLE_POINTS - 1, _TABLE_POINTS, 10_000])
    def test_where_it_is_taken(self, K, N):
        th = np.random.default_rng(N).uniform(0.0, TWO_PI, N)
        plan = _table_plan(K, th)
        assert (plan is not None) == (K >= _TABLE_TERMS and N >= _TABLE_POINTS)
        if plan:  # M a power of two above 2K, with less than 2^26 cells out to |theta|
            M, J = plan
            assert M & (M - 1) == 0 and M > 2 * K and J >= 1
            th[0] = -(2.0**26) * TWO_PI / M
            assert (_table_plan(K, th) or (0,))[0] < M
            th[0] = 2.0**26 * TWO_PI / (1 << (2 * K).bit_length())
            assert _table_plan(K, th) is None

    @pytest.mark.parametrize("K, M, J", [(20, 512, 9), (5000, 2**14, 17), (40_000, 2**17, 15)])
    def test_tables_by_groups_are_one_transform(self, K, M, J):
        # past M = 2^13 the rows go to the FFT by groups; each row is still
        # the whole transform of its spectrum c_k (ik)^j / (2 j!)
        a, b = random_coeffs(K, K, -1.0)
        c = np.r_[0.3, a - 1j * b]
        k = np.arange(1.0, K + 1.0)
        powers = np.cumprod(np.r_[np.full((1, K), 0.5), k / np.arange(1.0, J + 1.0)[:, None]], axis=0)
        spectra = np.zeros((J + 1, M // 2 + 1), dtype=complex)
        spectra[:, 1 : K + 1] = c[1:] * np.array([1.0, 1j, -1.0, -1j])[np.arange(J + 1) % 4, None] * powers
        spectra[0, 0] = c[0]
        want = np.fft.irfft(spectra, n=M, axis=1, norm="forward")
        assert np.array_equal(_taylor_tables(c, M, J), want)

    def test_the_parts_of_two_pi(self):
        # each part has at most 26 significant bits, so m * part / M is exact
        # for |m| <= 2^26, and the three add up to 2 pi within 2^-70
        for part in _TWO_PI_PARTS:
            mantissa, _ = math.frexp(part)
            assert (mantissa * 2**26).is_integer()
        with mp.workdps(40):
            assert abs(sum(mp.mpf(p) for p in _TWO_PI_PARTS) - 2 * mp.pi) <= mp.mpf(2) ** -70

    def test_heavy_carrier_cdf(self):
        # K = 140 494: its CDF at 5 10^4 sorted draws from tables, against
        # Horner (64 points, under the table path's floor) at 64 of them
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", circlaw.SlowDecayWarning)
            law = space_fractional_law(0.15, 1.0)
        draws = np.sort(sample(law, circlaw.RngStream(43), 50_000))
        assert law.n_terms == 140_494 and _table_plan(law.n_terms, draws) is not None
        got = law.cdf(draws)
        at = np.random.default_rng(43).choice(draws.size, 64, replace=False)
        assert _table_plan(law.n_terms, draws[at]) is None
        assert np.max(np.abs(got[at] - law.cdf(draws[at]))) <= cdf_certificate(law, draws.size)


class TestCdfAngles:
    LAW = make_law([0.1, 0.02], [0.03, 0.01])

    @pytest.mark.parametrize("cdf", [LAW.cdf, lambda th: even_kernel_cdf(th, 1.0)], ids=["harmonic", "kernel"])
    def test_never_writes_the_callers_angles(self, cdf):
        for th in (np.array([0.0, 1.0, TWO_PI]), np.array([-1e-10, 3.0, TWO_PI + 1e-10]), np.linspace(0.0, TWO_PI, 9)):
            kept = th.copy()
            th.setflags(write=False)
            cdf(th)
            assert np.array_equal(bits(th), bits(kept))

    @pytest.mark.parametrize(
        "theta, message",
        [
            (math.nan, "finite"),
            (np.array([1.0, math.inf]), "finite"),
            (np.array([-math.inf, 1.0]), "finite"),
            (np.array([math.nan, -5.0]), "finite"),
            (np.array([math.inf, -5.0]), "finite"),
            (-1e-8, "lie in"),
            (np.array([1.0, TWO_PI + 1e-8]), "lie in"),
            (np.array([-1e300, 1e300]), "lie in"),
        ],
    )
    def test_refusals(self, theta, message):
        for cdf in (self.LAW.cdf, lambda th: even_kernel_cdf(th, 1.0)):
            with pytest.raises(DomainError, match=message):
                cdf(theta)

    def test_clipped_ends(self):
        for cdf in (self.LAW.cdf, lambda th: even_kernel_cdf(th, 1.0)):
            out = cdf(np.array([-1e-10, -0.0, 0.0, TWO_PI, TWO_PI + 1e-10]))
            # +0.0 at both signed zeros and below them: the int64 words are 0
            assert bits(out[:3]).tolist() == [0, 0, 0]
            assert bits(out[3]) == bits(out[4])
        assert self.LAW.cdf(np.zeros(0)).shape == (0,)


# every exported CDF on [0, 2 pi] at unit time, and HarmonicLaw.cdf of every
# exported law at parameters where its series is built (the time-fractional
# law at nu = 1/2 carries the lattice form); bm_maxdist_cdf is the law of a
# distance on (0, pi], so it refuses theta = 0
EXPORTED_CDFS = {
    "even_kernel_cdf": lambda th: circlaw.even_kernel_cdf(th, 1.0),
    "odd_kernel_cdf": lambda th: circlaw.odd_kernel_cdf(2, th, 1.0),
    "space_time_fractional_cdf": lambda th: circlaw.space_time_fractional_cdf(0.5, 0.7, th, 1.0),
}
EXPORTED_LAWS = {
    "bm_law": lambda: circlaw.bm_law(1.0),
    "even_circle_law": lambda: circlaw.even_circle_law(2, 1.0),
    "even_kernel_law": lambda: circlaw.even_kernel_law(1.0),
    "odd_kernel_law": lambda: circlaw.odd_kernel_law(1, 1.0),
    "space_fractional_law": lambda: circlaw.space_fractional_law(0.7, 1.0),
    "time_fractional_law": lambda: circlaw.time_fractional_law(1, 0.5, 1.0),
    "wrapped_stable_law": lambda: circlaw.wrapped_stable_law(0.7, 1.0),
}


def test_every_exported_cdf_is_plus_zero_at_both_signed_zeros():
    exported = {name for name in dir(circlaw) if name.endswith("_cdf")}
    assert exported == set(EXPORTED_CDFS) | {"bm_maxdist_cdf"}
    assert {name for name in dir(circlaw) if name.endswith("_law")} == set(EXPORTED_LAWS)
    cdfs = list(EXPORTED_CDFS.values()) + [law().cdf for law in EXPORTED_LAWS.values()]
    for cdf in cdfs:
        assert bits(cdf(np.array([-0.0, 0.0]))).tolist() == [0, 0]
        assert bits(cdf(-0.0)).tolist() == [0]
    for theta in (-0.0, 0.0):
        with pytest.raises(DomainError, match="lie in"):
            circlaw.bm_maxdist_cdf(theta, 1.0)


def bits(x):
    """The int64 words of x's doubles (a complex entry is two), any shape."""
    return np.atleast_1d(np.asarray(x)).view(np.int64)


def edge_angles():
    """Signed zeros, whole turns up to 10^6, the least subnormal, 1e300 and
    the doubles either side of 2 pi, with their negatives."""
    turns = np.array([1.0, 2.0, 3.0, 7.0, 1e3, 123_457.0, 1e6]) * TWO_PI
    near = np.nextafter(TWO_PI, [0.0, np.inf])
    pos = np.concatenate([[0.0, 5e-324, 1e300, TWO_PI], turns, near])
    return np.concatenate([pos, -pos])


class TestElementwiseKernels:
    # _unit and _wrap are cheaper forms of np.exp(1j * th) and
    # np.mod(x, TWO_PI): every double, the signs of zero included, is theirs
    def check(self, x):
        x = np.asarray(x, dtype=float)
        before = x.copy()
        assert np.array_equal(bits(_unit(x)), bits(np.exp(1j * x)))
        assert np.array_equal(bits(_wrap(x)), bits(np.mod(x, TWO_PI)))
        assert np.array_equal(bits(x), bits(before))

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=6),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_finite_doubles(self, x):
        self.check(x)

    def test_edge_table(self):
        x = edge_angles()
        self.check(x)
        self.check(x.reshape(2, -1))
        for v in x:
            self.check(np.array(v))

    def test_wide_range(self):
        self.check(np.random.default_rng(33).uniform(-1e6, 1e6, 200_000))
        self.check(np.arange(-10**6, 10**6 + 1, 997) * TWO_PI)


class TestGridPeriod:
    # th[1] and th[-1] pick the form and one comparison decides; every
    # decision is the one of comparing th with both whole grid forms
    SIZES = (1, 2, 8, 4096)

    @staticmethod
    def variants(g):
        yield g
        yield g[::-1].copy()
        yield np.nextafter(g, np.inf)
        yield np.nextafter(g, -np.inf)
        for step in (np.inf, -np.inf):
            last = g.copy()
            last[-1] = np.nextafter(last[-1], step)
            yield last
            mid = g.copy()
            mid[g.size // 2] = np.nextafter(mid[g.size // 2], step)
            yield mid

    @pytest.mark.parametrize("N", SIZES)
    def test_exact_grids(self, N):
        assert _grid_period(np.arange(N) * (TWO_PI / N)) == N
        assert _grid_period(np.linspace(0.0, TWO_PI, N)) == max(N - 1, 1)

    @pytest.mark.parametrize("N", SIZES)
    @pytest.mark.parametrize("form", ["arange", "linspace"])
    def test_perturbed_grids(self, N, form):
        g = np.arange(N) * (TWO_PI / N) if form == "arange" else np.linspace(0.0, TWO_PI, N)
        for th in self.variants(g):
            assert _grid_period(th) == grid_period(th)

    def test_every_size_to_2049(self):
        for N in range(1, 2050):
            for g in (np.arange(N) * (TWO_PI / N), np.linspace(0.0, TWO_PI, N)):
                assert _grid_period(g) == grid_period(g) > 0

    @settings(max_examples=200, deadline=None)
    @given(th=hnp.arrays(np.float64, st.integers(1, 9), elements=st.floats(0.0, 7.0)))
    def test_other_arrays(self, th):
        th[0] = 0.0
        assert _grid_period(th) == grid_period(th)


class TestCdfCertificate:
    @settings(max_examples=100, deadline=None)
    @given(K=st.integers(0, 2000), power=st.floats(-2.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_endpoints_of_random_mass_one_series(self, K, power, seed):
        self._check_endpoints(make_law(*random_coeffs(seed, K, power)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: even_circle_law(2, 1.0),
            lambda: bm_law(1.5e-4).representation,
            lambda: odd_kernel_law(2, 0.7),
            lambda: space_fractional_law(0.25, 1.0),
            lambda: wrapped_stable_law(0.2, 1.0, Tolerance(abs_tol=1e-6)),
            lambda: time_fractional_law(2, 0.5, 0.5, Tolerance(abs_tol=1e-8)),
        ],
        ids=["even", "bm", "kernel-odd", "spacefrac", "wrappedstable", "timefrac"],
    )
    def test_endpoints_of_library_laws(self, build):
        self._check_endpoints(build())

    @staticmethod
    def _check_endpoints(law):
        k = np.arange(1.0, law.n_terms + 1.0)
        a, b = law.cos_coeffs / k, law.sin_coeffs / k
        bound = certificate(b.sum(), -b, a, 1) + 2 * EPS  # + a0 theta and the final sum
        assert law.cdf(0.0) == 0.0
        assert law.cdf(np.linspace(0.0, TWO_PI, 9))[0] == 0.0
        assert abs(law.cdf(TWO_PI) - 1.0) <= bound


class TestFourierCoeffs:
    def test_exact_recovery(self):
        law = make_law([0.1, 0.0, 0.02], [0.05, -0.01, 0.0])
        a, b = fourier_coeffs(law.density, 3)
        assert np.allclose(a, [0.1, 0.0, 0.02], atol=1e-13)
        assert np.allclose(b, [0.05, -0.01, 0.0], atol=1e-13)

    def test_uniform_density_projects_to_zero(self):
        a, b = fourier_coeffs(lambda th: np.full_like(np.asarray(th, float), 1.0 / TWO_PI), 4)
        assert np.all(np.abs(a) < 1e-10) and np.all(np.abs(b) < 1e-10)

    def test_scalar_callable_fallback(self):
        a, b = fourier_coeffs(lambda th: 1.0 / TWO_PI + 0.1 * math.cos(2 * th), 2)
        assert a[1] == pytest.approx(0.1, abs=1e-13)
        assert a[0] == pytest.approx(0.0, abs=1e-13)

    def test_node_validation(self):
        with pytest.raises(DomainError):
            fourier_coeffs(lambda th: th, 0)
        with pytest.raises(DomainError):
            fourier_coeffs(lambda th: th, 4, n_nodes=8)
        for K, n_nodes in ((2.5, None), (2, 300.5)):
            with pytest.raises(DomainError, match="positive integer"):
                fourier_coeffs(lambda th: th, K, n_nodes=n_nodes)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_refuses_non_finite_density_values(self, bad):
        # one bad node, through the array call and through the scalar fallback
        def array_density(th):
            return np.where(th == 0.0, bad, 1.0 / TWO_PI)

        def scalar_density(th):  # float() of an array raises TypeError
            return bad if float(th) == 0.0 else 1.0 / TWO_PI

        for density in (array_density, scalar_density):
            with pytest.raises(DomainError, match="density values must be finite"):
                fourier_coeffs(density, 3)


def unsqueezed_sample(law, gen, size):
    """sample() without its squeeze: every proposal evaluates the series."""
    grid_n = max(4096, 4 * law.n_terms)
    vals = law.density(np.arange(grid_n) * (TWO_PI / grid_n))
    k = np.arange(1, law.n_terms + 1)
    overshoot = (math.pi / grid_n) * float(
        (k * (np.abs(law.cos_coeffs) + np.abs(law.sin_coeffs))).sum()
    )
    envelope = float(vals.max()) + overshoot + law.tail_bound + 1e-12
    out = np.empty(size)
    got = 0
    while got < size:
        batch = max(4096, int(1.3 * (size - got) * TWO_PI * envelope) + 64)
        theta = gen.uniform(0.0, TWO_PI, batch)
        height = gen.uniform(0.0, envelope, batch)
        accept = theta[height <= law.density(theta)]
        take = min(accept.size, size - got)
        out[got : got + take] = accept[:take]
        got += take
    return out


SAMPLED_LAWS = {
    "bm": lambda: bm_law(1.2).representation,
    "spacefrac": lambda: space_fractional_law(0.35, 0.8),
    "wrappedstable": lambda: wrapped_stable_law(0.7, 1.0),
    "kernel-even": lambda: even_kernel_law(1.0),
    # peaks between the screening nodes: the grid values alone would
    # under-bound the density there
    "mode-1000": lambda: make_law(np.r_[np.zeros(999), 0.9 / TWO_PI], np.zeros(1000)),
}


class TestSample:
    @pytest.mark.parametrize("name", sorted(SAMPLED_LAWS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_squeeze_keeps_every_draw(self, name, seed):
        law = SAMPLED_LAWS[name]()
        drawn = sample(law, np.random.default_rng(seed), size=20_000)
        assert np.array_equal(drawn, unsqueezed_sample(law, np.random.default_rng(seed), 20_000))

    def test_squeeze_skips_most_evaluations(self, monkeypatch):
        law = SAMPLED_LAWS["spacefrac"]()
        points, drawn = [], []

        def counting(a0, a, b, thetas):
            points.append(np.size(thetas))
            return _trig_sum(a0, a, b, thetas)

        class Proposals:
            gen = np.random.default_rng(4)

            def uniform(self, low, high, size):
                drawn.append(size)
                return self.gen.uniform(low, high, size)

        monkeypatch.setattr(circlaw.harmonic, "_trig_sum", counting)
        sample(law, Proposals(), size=20_000)
        # the screening grid, then only the proposals the grid cannot decide
        assert points[0] == max(4096, 4 * law.n_terms)
        assert sum(points[1:]) < 0.05 * sum(drawn) / 2

    def test_too_close_to_call_decides_the_whole_batch(self, monkeypatch):
        # inflated rounding certificates leave every proposal between the
        # bounds and too close to call: the batch is evaluated whole
        monkeypatch.setattr(circlaw.harmonic, "_EPS", 1e-4)
        law = SAMPLED_LAWS["bm"]()
        points = []

        def counting(a0, a, b, thetas):
            points.append(np.size(thetas))
            return _trig_sum(a0, a, b, thetas)

        monkeypatch.setattr(circlaw.harmonic, "_trig_sum", counting)
        drawn = sample(law, np.random.default_rng(8), size=5_000)
        # after the screening grid: the undecided subset, then the whole batch
        assert len(points) == 3 and points[2] > points[1] > 0
        assert np.array_equal(drawn, unsqueezed_sample(law, np.random.default_rng(8), 5_000))

    def test_uniform_law_ks(self):
        law = make_law([], [])
        rng = np.random.default_rng(7)
        xs = np.sort(sample(law, rng, size=100_000))
        d = ks_against(xs, xs / TWO_PI)
        assert d < 0.01

    def test_matches_own_cdf(self):
        law = make_law([0.9 / TWO_PI, 0.2 / TWO_PI], [0.3 / TWO_PI, 0.0])
        # min over a fine grid stays positive, so this is a genuine density
        th = np.linspace(0.0, TWO_PI, 4096)
        assert law.density(th).min() > 0.0
        rng = np.random.default_rng(11)
        xs = np.sort(sample(law, rng, size=100_000))
        d = ks_against(xs, law.cdf(xs))
        assert d < 0.01

    def test_signed_law_refused(self):
        law = make_law([1.2 / TWO_PI], [0.0])  # dips negative near pi
        with pytest.raises(SignedLawError):
            sample(law, np.random.default_rng(0))

    def test_dip_within_the_certificates_is_sampled(self):
        # at small t the Brownian carrier's grid minimum is a rounding-size
        # negative number: 39 of these 60 laws were refused as signed
        for t in np.geomspace(1e-3, 3.0, 60):
            xs = sample(bm_law(float(t)), np.random.default_rng(3), size=20)
            assert np.all((xs >= 0.0) & (xs < TWO_PI))

    def test_deterministic_per_seed(self):
        law = make_law([0.5 / TWO_PI], [0.0])
        a = sample(law, np.random.default_rng(42), size=50)
        b = sample(law, np.random.default_rng(42), size=50)
        assert np.array_equal(a, b)

    def test_scalar_draw_in_range(self):
        law = make_law([], [])
        th = sample(law, np.random.default_rng(3))
        assert 0.0 <= th < TWO_PI

    def test_size_validation(self):
        law = make_law([], [])
        # a non-integral size is refused, not truncated to fewer draws
        for size in (0, -3, 2.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                sample(law, np.random.default_rng(0), size=size)
        # an integral float or numpy integer draws exactly what the int does
        a = sample(law, np.random.default_rng(9), size=7)
        for size in (7.0, np.int64(7)):
            assert np.array_equal(sample(law, np.random.default_rng(9), size=size), a)

    def test_wrapper_law_samples_its_carrier(self):
        # BmLaw wraps a HarmonicLaw; sample draws from that carrier
        law = bm_law(0.7)
        a = sample(law, np.random.default_rng(5), size=300)
        b = sample(law.representation, np.random.default_rng(5), size=300)
        assert np.array_equal(a, b)


def _tail(kind, scale, rate):
    """A nonincreasing certified-tail model: geometric, algebraic or stretched."""
    if kind == "geometric":
        r = math.exp(-rate)
        return lambda K: scale * r**K
    if kind == "algebraic":
        return lambda K: scale * K ** (-rate)
    return lambda K: scale * math.exp(-rate * K**0.5)


class TestCertifiedCutoff:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["geometric", "algebraic", "stretched"]),
        scale=st.floats(1e-3, 1e3),
        rate=st.floats(1e-3, 3.0),
        tol_exp=st.floats(-13.0, -1.0),
    )
    def test_smallest_certified_k_or_advice(self, kind, scale, rate, tol_exp):
        tail = _tail(kind, scale, rate)
        tol = Tolerance(abs_tol=10.0**tol_exp)
        advice = f"{kind} advice"
        if tail(MAX_TERMS) > tol.abs_tol:
            with pytest.raises(ConvergenceError, match=re.escape(advice)):
                certified_cutoff(tail, tol, advice)
            return
        K = certified_cutoff(tail, tol, advice)
        assert 1 <= K <= MAX_TERMS
        assert tail(K) <= tol.abs_tol
        assert K == 1 or tail(K - 1) > tol.abs_tol

    def test_series_refusal_names_no_count(self):
        # the prefix is shared with image counts, so only the advice says what K counts
        with pytest.raises(
            ConvergenceError,
            match=r"^the cutoff needs more than 1000000 at tol=1e-10; "
            r"use the wrapped route \(even_circle_density_wrapped\) at t = 1e-12$",
        ):
            even_circle_law(1, 1e-12)

    def test_cosine_law_carrier(self):
        law = cosine_law(lambda k: 0.1 / k**2, lambda K: 0.1 / K, Tolerance(abs_tol=1e-3), "", "m")
        assert law.n_terms == 100 and law.tail_bound == 0.1 / 100
        assert law.a0 == 1.0 / TWO_PI and not law.sin_coeffs.any()
        assert law.cos_coeffs[1] == 0.1 / 4.0 and law.meta == "m"



class TestTruncationPins:
    """n_terms and tail_bound of each series law, frozen from the
    per-law cutoff searches this rule replaced."""

    @pytest.mark.parametrize(
        "build,n_terms,tail_bound",
        [
            (lambda: even_circle_law(2, 1.0), 2, 2.113474893695654e-36),
            (lambda: even_circle_law(1, 0.05, Tolerance(abs_tol=1e-13)), 24, 9.297048580016236e-15),
            (lambda: even_circle_law(3, 0.5, Tolerance(abs_tol=1e-6)), 1, 4.03112909454485e-15),
            (lambda: even_kernel_law(0.7), 32, 5.871130119307868e-11),
            (lambda: odd_kernel_law(2, 0.7), 33, 9.678319161124935e-11),
            (lambda: odd_kernel_law(1, 0.05, Tolerance(abs_tol=1e-12)), 684, 9.861635869624955e-13),
            (lambda: bm_law(1.5e-4).representation, 570, 9.305787761604352e-11),
            (lambda: bm_law(1.0).representation, 6, 7.295104655457098e-12),
            (lambda: bm_law(7.0, Tolerance(abs_tol=1e-4)).representation, 1, 2.6468403202878406e-07),
            # the time-fractional plain series, the second route
            (lambda: fractional._time_fractional_law(1, 0.6, 1.0, Tolerance(abs_tol=1e-6), math.inf),
             284415, 9.999991882820338e-07),
            (lambda: fractional._time_fractional_law(2, 0.5, 0.5, Tolerance(abs_tol=1e-8), math.inf),
             237, 9.989500502575442e-09),
            (lambda: space_fractional_law(0.5, 1.0), 32, 6.705061771182674e-11),
            (lambda: space_fractional_law(0.25, 1.0), 973, 9.951362987166112e-11),
            (lambda: wrapped_stable_law(0.6, 1.0), 13, 5.855955076314312e-11),
            (lambda: wrapped_stable_law(0.2, 1.0, Tolerance(abs_tol=1e-6)), 1376, 9.980754729257416e-07),
        ],
    )
    def test_pinned(self, build, n_terms, tail_bound):
        law = build()
        assert (law.n_terms, law.tail_bound) == (n_terms, tail_bound)

    def test_bm_keeps_one_term_at_large_t(self):
        # a zero-term carrier would already certify here; the rule's K >= 1
        # keeps the first harmonic, which only tightens the tail
        law = bm_law(10.0, Tolerance(abs_tol=1e-2)).representation
        assert law.n_terms == 1 and law.tail_bound == 6.560855763180183e-10

    def test_space_time_cdf_cutoff_of_criterion_7c(self, monkeypatch):
        # 7c's CDF at the default tol and its 100 000 draws: the plain series
        # would need ~4e9 terms; the lattice form keeps an exact head, and the
        # plain series at 7c's former tol 1e-4 still takes 3990
        built = []

        def spy(*args):
            built.append(cosine_law(*args))
            return built[-1]

        monkeypatch.setattr(fractional, "cosine_law", spy)
        law = fractional._space_time_law(0.5, 0.5, 1.0, Tolerance(), True, 100_000)
        assert built == [] and law.lattice is not None
        assert law.n_terms == 1192 and law.tail_bound <= 1e-10
        fractional._space_time_law(0.5, 0.5, 1.0, Tolerance(abs_tol=1e-4), True, math.inf)
        assert built[0].n_terms == 3990


NAN = math.nan


@pytest.mark.parametrize(
    "call",
    [
        lambda: circlaw.even_kernel_density(NAN, 1.0),
        lambda: circlaw.even_kernel_density(np.array([0.5, NAN]), 1.0),
        lambda: circlaw.odd_kernel_density(1, NAN, 1.0),
        lambda: circlaw.even_circle_density(2, NAN, 1.0),
        lambda: circlaw.space_fractional_law(0.5, 1.0).density(NAN),
        lambda: circlaw.wrapped_stable_law(0.5, 1.0).density(NAN),
        lambda: even_circle_law(1, 1.0).cdf(NAN),
        lambda: circlaw.even_kernel_cdf(NAN, 1.0),
        lambda: circlaw.mittag_leffler(0.5, NAN),
        lambda: circlaw.mittag_leffler_many(0.5, [NAN, -1.0]),
        lambda: circlaw.space_fractional_half_closed(NAN, 1.0),
        lambda: circlaw.von_mises_density(NAN, 2.0),
    ],
    ids=[
        "kernel-even", "kernel-even-array", "kernel-odd", "even-circle", "space-fractional",
        "wrapped-stable", "series-cdf", "kernel-even-cdf", "mittag-leffler",
        "mittag-leffler-many", "space-fractional-half-closed", "von-mises",
    ],
)
def test_refuses_nan_arguments(call):
    """A NaN angle or Mittag-Leffler argument is a DomainError, never a NaN value."""
    with pytest.raises(DomainError):
        call()


def _finite_values(out):
    """The numbers a call hands back: a law's coefficients and tail, or its values."""
    out = getattr(out, "representation", out)
    if isinstance(out, HarmonicLaw):
        return np.concatenate([[out.a0, out.tail_bound], out.cos_coeffs, out.sin_coeffs])
    return np.asarray(out, dtype=float)


@pytest.mark.parametrize(
    "call",
    [
        lambda: circlaw.line_density_even(600, 1.0, 1.0),
        lambda: circlaw.line_density_odd(600, 1.0, 1.0),
        lambda: circlaw.even_circle_density_wrapped(600, 1.0, 1.0),
        lambda: circlaw.even_circle_density_wrapped(100, 1.0, 1.0),
        lambda: even_circle_law(600, 1.0),
        lambda: even_circle_law(512, 1e-310),
        lambda: circlaw.min_value(600, 1.0),
        lambda: time_fractional_law(600, 0.5, 1.0),
        lambda: wrapped_stable_law(1e-3, 1e-3),
        lambda: wrapped_stable_law(0.5, 1e-310),
        lambda: circlaw.wrapped_skew_cauchy_density(1, 0.5, 1e300),
        lambda: circlaw.skew_cauchy_density(1, np.array([0.0, 1e200]), 1e200),
        lambda: circlaw.skew_cauchy_density(1, -0.5e-300, 1e-300),
        lambda: circlaw.wrapped_skew_cauchy_density(1, 0.0, 1e-300),
        lambda: circlaw.skew_cauchy_density(1, 0.0, 1e-320),
        lambda: circlaw.wrapped_skew_cauchy_density(1, 0.0, 1e-320),
        lambda: circlaw.von_mises_density_series(np.array([0.0, 1.0]), 1e4),
        lambda: circlaw.sample_stable_subordinator(0.9999, 1.0, circlaw.RngStream(1), size=1000),
        lambda: circlaw.sample_inverse_subordinator(0.999, 1.0, circlaw.RngStream(1), size=1000),
        lambda: bm_law(5e-324),
        lambda: circlaw.bm_density_wrapped(1.0, 1e300),
    ],
    ids=[
        "line-even-600", "line-odd-600", "even-wrapped-600", "even-wrapped-100",
        "even-law-600", "even-law-512-subnormal-t", "min-value-600", "time-fractional-600",
        "wrapped-stable-tiny-beta", "wrapped-stable-subnormal-t", "wrapped-skew-cauchy-huge-t",
        "skew-cauchy-huge", "skew-cauchy-tiny", "wrapped-skew-cauchy-tiny-t",
        "skew-cauchy-subnormal-t", "wrapped-skew-cauchy-subnormal-t",
        "von-mises-series-large-kappa", "stable-subordinator-near-one",
        "inverse-subordinator-near-one", "bm-law-least-t", "bm-wrapped-huge-t",
    ],
)
def test_extreme_valid_calls_answer_or_refuse(call):
    """At extreme but valid parameters a call raises a CirclawError or returns
    finite values, and no raw warning escapes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call()
        except circlaw.CirclawError:
            return
    assert np.all(np.isfinite(_finite_values(out)))


def test_even_law_forms_large_powers_in_logs():
    # 2^1024 passes the largest double, but 2^1024 t = 0.018 at t = 1e-310:
    # the k = 2 coefficient is e^{-0.018}/pi, not 0 and not dropped
    t = 1e-310
    law = even_circle_law(512, t)
    assert law.n_terms == 2
    want = math.exp(-math.exp(1024 * math.log(2.0) + math.log(t))) / math.pi
    assert law.cos_coeffs[1] == pytest.approx(want, rel=1e-14)
